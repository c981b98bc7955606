"""CUDA-driver-API-shaped facade over the Gdev driver.

The paper's user code targets the CUDA driver API through Gdev, and the
HIX trusted runtime deliberately mirrors it ("provides an essential
application programming interface almost identical to the corresponding
CUDA driver API", Section 5.2).  Both the baseline and HIX facades
therefore expose the same method names, so workloads run unmodified on
either — exactly how the paper runs its comparisons.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import DriverError
from repro.gdev.driver import GdevContextHandle, GdevDriver, GdevModule
from repro.gpu.module import CubinImage, DevPtr, ParamValue
from repro.obs.tracer import STATE as _OBS
from repro.osmodel.process import Process

HostBuffer = Union[bytes, bytearray, np.ndarray]


def _as_bytes(data: HostBuffer) -> bytes:
    if isinstance(data, np.ndarray):
        return data.tobytes()
    return bytes(data)


class GdevApi:
    """One process's CUDA-like session on the baseline driver."""

    #: True on facades that protect data end-to-end (the HIX runtime).
    secure = False

    def __init__(self, driver: GdevDriver, process: Process) -> None:
        self._driver = driver
        self._process = process
        self._ctx: Optional[GdevContextHandle] = None

    # -- lifecycle -------------------------------------------------------------

    def __enter__(self) -> "GdevApi":
        """Context-manager form: creates the context, destroys it on exit."""
        if self._ctx is None:
            self.cuCtxCreate()
        return self

    def __exit__(self, *exc) -> None:
        self.cuCtxDestroy()

    def cuCtxCreate(self, shared: bool = False) -> "GdevApi":
        """Create a context; ``shared=True`` joins the MPS-style merged
        context (pre-Volta semantics, paper Section 4.5)."""
        if self._ctx is not None:
            raise DriverError("context already created")
        self._ctx = self._driver.create_context(self._process, shared=shared)
        self._shared = shared
        return self

    def cuCtxDestroy(self) -> None:
        if self._ctx is not None:
            if not getattr(self, "_shared", False):
                self._driver.destroy_context(self._ctx)
            self._ctx = None

    @property
    def ctx(self) -> GdevContextHandle:
        if self._ctx is None:
            raise DriverError("no current context (call cuCtxCreate)")
        return self._ctx

    # -- memory ------------------------------------------------------------------

    def cuMemAlloc(self, nbytes: int) -> DevPtr:
        return DevPtr(self._driver.malloc(self.ctx, nbytes))

    def cuMemFree(self, dptr: DevPtr) -> None:
        self._driver.free(self.ctx, dptr.addr)

    def cuMemcpyHtoD(self, dptr: DevPtr, data: HostBuffer) -> None:
        payload = _as_bytes(data)
        tracer = _OBS.tracer
        if tracer is None:
            return self._driver.memcpy_h2d(self.ctx, dptr.addr, payload)
        with tracer.span("gdev.cuMemcpyHtoD", "gdev", bytes=len(payload)):
            return self._driver.memcpy_h2d(self.ctx, dptr.addr, payload)

    def cuMemcpyDtoH(self, dptr: DevPtr, nbytes: int) -> bytes:
        tracer = _OBS.tracer
        if tracer is None:
            return self._driver.memcpy_d2h(self.ctx, dptr.addr, nbytes)
        with tracer.span("gdev.cuMemcpyDtoH", "gdev", bytes=nbytes):
            return self._driver.memcpy_d2h(self.ctx, dptr.addr, nbytes)

    # -- modules / kernels -----------------------------------------------------------

    def cuModuleLoad(self, kernel_names: Sequence[str]) -> GdevModule:
        return self._driver.load_module(self.ctx, CubinImage(list(kernel_names)))

    def cuLaunchKernel(self, module: GdevModule, kernel_name: str,
                       params: Sequence[ParamValue],
                       compute_seconds: float = 0.0) -> None:
        tracer = _OBS.tracer
        if tracer is None:
            return self._driver.launch(self.ctx, module, kernel_name, params,
                                       compute_seconds=compute_seconds)
        with tracer.span("gdev.cuLaunchKernel", "gdev", kernel=kernel_name):
            return self._driver.launch(self.ctx, module, kernel_name, params,
                                       compute_seconds=compute_seconds)
