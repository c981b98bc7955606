"""The Gdev driver core: MMIO command channel + resource management.

Two layers live here:

* :class:`MmioChannel` — the low-level "talk to the GPU through mapped
  MMIO" machinery (write commands into the BAR0 FIFO, ring the doorbell,
  poll status).  Both the baseline driver and the HIX GPU enclave use
  it; they differ only in *which process and privilege* the accesses are
  issued from — which is exactly the difference HIX's protection checks.
* :class:`GdevDriver` — the unsecure baseline: driver state lives in the
  OS kernel, commands and data cross in plaintext, MMIO is mapped into
  the kernel's address space.

Timing: the driver charges transfer and launch costs from the machine's
cost model (the device itself charges GPU-side compute and context
switches), so end-to-end simulated time decomposes the way the paper's
breakdowns do.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import DriverError
from repro.gdev.allocator import VramAllocator
from repro.gpu import regs
from repro.gpu.commands import CommandOpcode, encode_command
from repro.gpu.device import SimGpu
from repro.gpu.module import CubinImage, ParamValue, pack_params
from repro.osmodel.driver_stub import MmioRegion, map_gpu_mmio
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import Process
from repro.pcie.root_complex import RootComplex

_GPU_VA_BASE = 0x1000_0000
_PARAM_BUF_SIZE = 4096


class MmioChannel:
    """Command submission through mapped MMIO (BAR0 regs + FIFO)."""

    def __init__(self, kernel: Kernel, process: Process,
                 regions: Dict[str, MmioRegion], gpu: SimGpu,
                 enclave_mode: bool = False, clock=None, costs=None) -> None:
        self._kernel = kernel
        self._process = process
        self._regions = regions
        self._gpu = gpu  # held for fault detail only; all control is via MMIO
        self._enclave_mode = enclave_mode
        self._clock = clock
        self._costs = costs

    @property
    def regions(self) -> Dict[str, MmioRegion]:
        return self._regions

    def _charge(self, seconds: float, category: str) -> None:
        if self._clock is not None:
            self._clock.advance(seconds, category)

    # -- raw register access -----------------------------------------------------

    def reg_read(self, offset: int, length: int = 4) -> int:
        va = self._regions["bar0"].vaddr + offset
        raw = self._kernel.cpu_read(self._process, va, length,
                                    enclave_mode=self._enclave_mode)
        if self._costs is not None:
            self._charge(self._costs.mmio_reg_latency, "mmio")
        return int.from_bytes(raw, "little")

    def reg_write(self, offset: int, value: int, length: int = 4) -> None:
        va = self._regions["bar0"].vaddr + offset
        self._kernel.cpu_write(self._process, va,
                               value.to_bytes(length, "little"),
                               enclave_mode=self._enclave_mode)
        if self._costs is not None:
            self._charge(self._costs.mmio_reg_latency, "mmio")

    # -- VRAM aperture (BAR1) ------------------------------------------------------

    def aperture_write(self, vram_pa: int, data: bytes) -> None:
        """Programmed-IO write into VRAM through the BAR1 window."""
        bar1 = self._regions["bar1"]
        view = memoryview(data)
        length = view.nbytes
        offset = 0
        while offset < length:
            window_base = (vram_pa + offset) & ~(regs.BAR1_SIZE - 1)
            self.reg_write(regs.REG_APERTURE_BASE, window_base, 8)
            in_window = min(length - offset,
                            regs.BAR1_SIZE - (vram_pa + offset - window_base))
            va = bar1.vaddr + (vram_pa + offset - window_base)
            self._kernel.cpu_write(self._process, va,
                                   view[offset:offset + in_window],
                                   enclave_mode=self._enclave_mode)
            offset += in_window
        if self._costs is not None:
            self._charge(self._costs.h2d_time(length, via_mmio=True),
                         "copy_mmio")

    def aperture_read(self, vram_pa: int, nbytes: int) -> bytes:
        bar1 = self._regions["bar1"]
        out = bytearray(nbytes)
        view = memoryview(out)
        offset = 0
        while offset < nbytes:
            window_base = (vram_pa + offset) & ~(regs.BAR1_SIZE - 1)
            self.reg_write(regs.REG_APERTURE_BASE, window_base, 8)
            in_window = min(nbytes - offset,
                            regs.BAR1_SIZE - (vram_pa + offset - window_base))
            va = bar1.vaddr + (vram_pa + offset - window_base)
            view[offset:offset + in_window] = self._kernel.cpu_read(
                self._process, va, in_window,
                enclave_mode=self._enclave_mode)
            offset += in_window
        if self._costs is not None:
            self._charge(self._costs.d2h_time(nbytes, via_mmio=True),
                         "copy_mmio")
        return bytes(out)

    # -- command submission -----------------------------------------------------------

    def submit(self, commands: Sequence[bytes]) -> None:
        """Write a batch into the FIFO, ring the doorbell, poll completion."""
        batch = b"".join(commands)
        if len(batch) > regs.FIFO_SIZE:
            raise DriverError("command batch exceeds FIFO window")
        fifo_va = self._regions["bar0"].vaddr + regs.FIFO_OFFSET
        self._kernel.cpu_write(self._process, fifo_va, batch,
                               enclave_mode=self._enclave_mode)
        self.reg_write(regs.REG_DOORBELL, len(batch))
        # MMIO-polling synchronization (Gdev design, paper Section 5.2).
        status = self.reg_read(regs.REG_STATUS)
        if status & 2:
            fault = self._gpu.pop_fault() or "unknown device fault"
            raise DriverError(f"GPU fault: {fault}")

    def read_expansion_rom(self, nbytes: int) -> bytes:
        rom = self._regions.get("rom")
        if rom is None:
            raise DriverError("GPU exposes no expansion ROM mapping")
        data = self._kernel.cpu_read(self._process, rom.vaddr,
                                     min(nbytes, rom.size),
                                     enclave_mode=self._enclave_mode)
        if self._costs is not None:
            self._charge(self._costs.d2h_time(len(data), via_mmio=True),
                         "mmio")
        return data


@dataclass
class GdevContextHandle:
    """Driver-side record of one GPU context."""

    ctx_id: int
    owner_pid: int
    va_cursor: int = _GPU_VA_BASE
    live_vas: Dict[int, Tuple[int, int]] = None  # gpu_va -> (vram_pa, size)
    param_va: int = 0  # persistent launch-parameter buffer (lazy)

    def __post_init__(self) -> None:
        if self.live_vas is None:
            self.live_vas = {}

    def reserve_va(self, nbytes: int) -> int:
        va = self.va_cursor
        self.va_cursor += (nbytes + 0xFFF) & ~0xFFF
        return va


@dataclass
class GdevModule:
    """A module resident in device memory."""

    image: CubinImage
    gpu_va: int
    nbytes: int


class GdevDriver:
    """The baseline (unsecure) GPU driver, resident in the OS kernel."""

    def __init__(self, kernel: Kernel, root_complex: RootComplex,
                 gpu: SimGpu, clock=None, costs=None,
                 process: Optional[Process] = None,
                 enclave_mode: bool = False,
                 regions: Optional[Dict[str, MmioRegion]] = None) -> None:
        """Baseline use: no *process* (driver lives in the kernel).

        The HIX GPU enclave reuses this driver by passing its own
        process, ``enclave_mode=True``, and the MMIO regions the benign
        kernel stub mapped for it; it also passes ``costs=None`` because
        the trusted runtime charges the secure path analytically.
        """
        self._kernel = kernel
        self._gpu = gpu
        self._clock = clock
        self._costs = costs
        self._process = process or kernel.kernel_process
        if regions is None:
            regions = map_gpu_mmio(kernel, root_complex, gpu.bdf, self._process)
        self.channel = MmioChannel(kernel, self._process, regions,
                                   gpu, enclave_mode=enclave_mode,
                                   clock=clock, costs=costs)
        vram_size = self._read_vram_size()
        self.vram = VramAllocator(vram_size)
        self._ctx_ids = itertools.count(1)
        self.contexts: Dict[int, GdevContextHandle] = {}
        self._mps_context: Optional[GdevContextHandle] = None
        # One shared DMA staging buffer (pinned memory in real Gdev).
        self._staging_size = 16 << 20
        _va, self._staging_pa = kernel.alloc_dma_buffer(
            self._process, self._staging_size)
        self._staging_va = _va
        self._enclave_mode = enclave_mode

    def _read_vram_size(self) -> int:
        low = self.channel.reg_read(regs.REG_VRAM_SIZE)
        high = self.channel.reg_read(regs.REG_VRAM_SIZE_HI)
        return (high << 32) | low

    def _charge(self, seconds: float, category: str) -> None:
        if self._clock is not None:
            self._clock.advance(seconds, category)

    # -- context lifecycle ---------------------------------------------------------

    def create_context(self, process: Process,
                       shared: bool = False) -> GdevContextHandle:
        """Create a GPU context for *process*.

        ``shared=True`` models the pre-Volta MPS behaviour the paper's
        Section 4.5 describes: "the pre-Volta MPS platform merges
        kernels from different user processes into a single GPU context
        ... a kernel can access the address range used by a different
        kernel."  All sharing processes get the *same* handle (and hence
        the same GPU address space) — the isolation hole HIX closes with
        per-user contexts.
        """
        if self._costs is not None:
            self._charge(self._costs.gdev_task_init, "task_init")
        if shared:
            if self._mps_context is None:
                self._mps_context = self._new_context(process)
            return self._mps_context
        return self._new_context(process)

    def _new_context(self, process: Process) -> GdevContextHandle:
        ctx_id = next(self._ctx_ids)
        self.channel.submit([
            encode_command(CommandOpcode.CTX_CREATE, ctx_id)])
        handle = GdevContextHandle(ctx_id=ctx_id, owner_pid=process.pid)
        self.contexts[ctx_id] = handle
        return handle

    def destroy_context(self, handle: GdevContextHandle,
                        cleanse: bool = False) -> None:
        commands: List[bytes] = []
        for gpu_va, (vram_pa, size) in sorted(handle.live_vas.items()):
            if cleanse:
                commands.append(encode_command(
                    CommandOpcode.MEM_CLEANSE, handle.ctx_id, (gpu_va, size)))
            commands.append(encode_command(
                CommandOpcode.UNMAP, handle.ctx_id, (gpu_va, size)))
            self.vram.free(vram_pa)
        commands.append(encode_command(CommandOpcode.CTX_DESTROY, handle.ctx_id))
        self.channel.submit(commands)
        handle.live_vas.clear()
        self.contexts.pop(handle.ctx_id, None)

    # -- memory management --------------------------------------------------------------

    def malloc(self, handle: GdevContextHandle, nbytes: int) -> int:
        vram_pa = self.vram.alloc(nbytes)
        gpu_va = handle.reserve_va(nbytes)
        self.channel.submit([encode_command(
            CommandOpcode.MAP, handle.ctx_id, (gpu_va, vram_pa, nbytes))])
        handle.live_vas[gpu_va] = (vram_pa, nbytes)
        return gpu_va

    def free(self, handle: GdevContextHandle, gpu_va: int,
             cleanse: bool = False) -> None:
        vram_pa, size = handle.live_vas.pop(gpu_va, (None, None))
        if vram_pa is None:
            raise DriverError(f"free of unknown device pointer {gpu_va:#x}")
        commands = []
        if cleanse:
            # HIX path: scrub before the block can be re-allocated
            # (Section 4.5); the Gdev baseline skips this.
            commands.append(encode_command(
                CommandOpcode.MEM_CLEANSE, handle.ctx_id, (gpu_va, size)))
        commands.append(encode_command(
            CommandOpcode.UNMAP, handle.ctx_id, (gpu_va, size)))
        self.channel.submit(commands)
        self.vram.free(vram_pa)

    # -- data movement ---------------------------------------------------------------------

    def memcpy_h2d(self, handle: GdevContextHandle, gpu_va: int,
                   data: bytes) -> None:
        """Host-to-device copy through the DMA staging buffer (plaintext)."""
        view = memoryview(data)
        length = view.nbytes
        offset = 0
        while offset < length:
            # Chunks are memoryview slices; nothing is copied on the way
            # to the staging write (the single-chunk common case passes
            # the caller's buffer straight through).
            chunk = view[offset:offset + self._staging_size]
            self._kernel.cpu_write(self._process, self._staging_va, chunk,
                                   enclave_mode=self._enclave_mode)
            self.channel.submit([encode_command(
                CommandOpcode.MEMCPY_H2D, handle.ctx_id,
                (self._staging_pa, gpu_va + offset, chunk.nbytes))])
            offset += chunk.nbytes
        if self._costs is not None:
            self._charge(self._costs.h2d_time(length), "copy_h2d")

    def memcpy_d2h(self, handle: GdevContextHandle, gpu_va: int,
                   nbytes: int) -> bytes:
        if nbytes <= self._staging_size:
            # Single-chunk fast path: the staging read is the result.
            self.channel.submit([encode_command(
                CommandOpcode.MEMCPY_D2H, handle.ctx_id,
                (gpu_va, self._staging_pa, nbytes))])
            result = self._kernel.cpu_read(self._process, self._staging_va,
                                           nbytes,
                                           enclave_mode=self._enclave_mode)
            if self._costs is not None:
                self._charge(self._costs.d2h_time(nbytes), "copy_d2h")
            return result
        out = bytearray(nbytes)
        view = memoryview(out)
        offset = 0
        while offset < nbytes:
            chunk = min(nbytes - offset, self._staging_size)
            self.channel.submit([encode_command(
                CommandOpcode.MEMCPY_D2H, handle.ctx_id,
                (gpu_va + offset, self._staging_pa, chunk))])
            view[offset:offset + chunk] = self._kernel.cpu_read(
                self._process, self._staging_va, chunk,
                enclave_mode=self._enclave_mode)
            offset += chunk
        if self._costs is not None:
            self._charge(self._costs.d2h_time(nbytes), "copy_d2h")
        return bytes(out)

    def vram_pa_of(self, handle: GdevContextHandle, gpu_va: int) -> int:
        """Device physical address behind a context-virtual allocation."""
        entry = handle.live_vas.get(gpu_va)
        if entry is None:
            raise DriverError(f"unknown device pointer {gpu_va:#x}")
        return entry[0]

    def memcpy_h2d_mmio(self, handle: GdevContextHandle, gpu_va: int,
                        data: bytes) -> None:
        """Host-to-device copy through the BAR1 aperture (no DMA).

        This is HIX's "directly writing data to the trusted MMIO that is
        mapped to the GPU memory" path (Section 4.4.2): bytes never
        transit untrusted host DRAM, so the GPU enclave uses it for
        module images and other driver-internal plaintext.
        """
        self.channel.aperture_write(self.vram_pa_of(handle, gpu_va), data)

    # -- modules and launches ------------------------------------------------------------------

    def load_module(self, handle: GdevContextHandle, image: CubinImage,
                    via_mmio: bool = False) -> GdevModule:
        raw = image.to_bytes()
        gpu_va = self.malloc(handle, len(raw))
        if via_mmio:
            self.memcpy_h2d_mmio(handle, gpu_va, raw)
        else:
            self.memcpy_h2d(handle, gpu_va, raw)
        return GdevModule(image=image, gpu_va=gpu_va, nbytes=len(raw))

    def launch(self, handle: GdevContextHandle, module: GdevModule,
               kernel_name: str, params: Sequence[ParamValue],
               compute_seconds: float = 0.0, via_mmio: bool = False) -> None:
        """Launch *kernel_name* with marshalled *params*.

        ``compute_seconds`` is the modeled GPU execution time for this
        launch (workloads calibrate it); the device charges it on the
        simulated clock.  ``via_mmio`` routes the parameter buffer through
        the trusted aperture (the HIX GPU enclave's choice).
        """
        index = module.image.index_of(kernel_name)
        blob = pack_params(list(params))
        # Reuse a persistent per-context parameter buffer (real drivers
        # keep a ring of these); large parameter sets fall back to a
        # transient allocation.
        transient = len(blob) > _PARAM_BUF_SIZE
        if transient:
            param_va = self.malloc(handle, len(blob))
        else:
            if not handle.param_va:
                handle.param_va = self.malloc(handle, _PARAM_BUF_SIZE)
            param_va = handle.param_va
        try:
            if via_mmio:
                self.memcpy_h2d_mmio(handle, param_va, blob)
            else:
                self.memcpy_h2d(handle, param_va, blob)
            if self._costs is not None:
                self._charge(self._costs.kernel_launch_gdev, "launch")
            self.channel.submit([encode_command(
                CommandOpcode.LAUNCH, handle.ctx_id,
                (module.gpu_va, module.nbytes, index, param_va, len(blob),
                 int(compute_seconds * 1e9)))])
        finally:
            # A launch that faults must not leak its transient buffer
            # until the context is destroyed.
            if transient:
                self.free(handle, param_va)
