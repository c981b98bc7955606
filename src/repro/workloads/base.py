"""Workload abstraction shared by the harness, figures, and examples."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ReproError

MB = 1 << 20
KB = 1 << 10


class WorkloadError(ReproError):
    """A workload's functional verification failed."""


@dataclass(frozen=True)
class Phase:
    """One phase of a workload's execution profile (for the multi-user model).

    ``kind`` is ``h2d``/``d2h`` (with modeled ``nbytes``) or ``compute``
    (with ``launches`` kernel launches totalling ``seconds`` of GPU time).
    """

    kind: str
    nbytes: int = 0
    launches: int = 0
    seconds: float = 0.0


class Workload(ABC):
    """A GPU application runnable on either the Gdev or HIX facade.

    Subclasses define the paper-reported transfer sizes (Tables 4/5),
    the launch count, the calibrated modeled compute time, and a
    :meth:`run` that performs real (scaled) computation and verifies its
    results.  ``inflation`` is the machine's data-inflation factor: a
    run moves ``modeled_bytes / inflation`` real bytes.
    """

    #: short code used in the paper's tables (e.g. "BP").
    app_code: str = ""
    name: str = ""
    problem_desc: str = ""
    modeled_h2d: int = 0
    modeled_d2h: int = 0
    n_launches: int = 1
    compute_seconds: float = 0.0

    @abstractmethod
    def run(self, api, inflation: float = 1.0) -> None:
        """Execute the workload against *api*, verifying outputs."""

    # -- derived helpers -------------------------------------------------------

    def per_launch_seconds(self) -> float:
        return self.compute_seconds / max(self.n_launches, 1)

    def phases(self) -> List[Phase]:
        """Default profile: copy-in, compute, copy-out."""
        return [
            Phase("h2d", nbytes=self.modeled_h2d),
            Phase("compute", launches=self.n_launches,
                  seconds=self.compute_seconds),
            Phase("d2h", nbytes=self.modeled_d2h),
        ]

    def scaled_elems(self, elems: int, inflation: float) -> int:
        """Scale a linear element count by the inflation factor (min 16)."""
        return max(int(elems / inflation), 16)

    def scaled_dim(self, dim: int, inflation: float) -> int:
        """Scale a 2-D dimension so the *byte* count scales by 1/inflation."""
        return max(int(dim / math.sqrt(inflation)), 4)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            raise WorkloadError(f"{self.name}: {message}")

    def check_close(self, got: np.ndarray, want: np.ndarray,
                    what: str, rtol: float = 1e-4) -> None:
        if not np.allclose(got, want, rtol=rtol, atol=1e-5):
            worst = float(np.max(np.abs(got.astype(np.float64)
                                        - want.astype(np.float64))))
            raise WorkloadError(
                f"{self.name}: {what} mismatch (max abs err {worst:g})")

    # -- padding transfers -------------------------------------------------------
    #
    # Table 5's HtoD/DtoH byte counts include Rodinia buffers whose content
    # is irrelevant to the kernels modeled here (masks, scratch, previous-
    # iteration copies).  Workloads move those bytes as explicit padding
    # buffers so the wire traffic matches the paper exactly; outbound
    # padding is GPU-filled with a known pattern and verified on readback.

    _PAD_FILL = 0x5A5A5A5A

    def send_pad(self, api, nbytes: int, seed: int = 0) -> None:
        """HtoD-only padding: ship *nbytes* of pseudo-random bytes."""
        if nbytes <= 0:
            return
        rng = np.random.default_rng(seed=seed or 1)
        data = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
        ptr = api.cuMemAlloc(nbytes)
        api.cuMemcpyHtoD(ptr, data)
        api.cuMemFree(ptr)

    def fetch_pad(self, api, module, nbytes: int) -> None:
        """DtoH-only padding: GPU-fill with a pattern, read back, verify.

        *module* must contain ``builtin.memset32``.
        """
        if nbytes <= 0:
            return
        words = max(nbytes // 4, 1)
        ptr = api.cuMemAlloc(words * 4)
        api.cuLaunchKernel(module, "builtin.memset32",
                           [ptr, words, self._PAD_FILL & 0x7FFFFFFF])
        out = np.frombuffer(api.cuMemcpyDtoH(ptr, words * 4), dtype=np.uint32)
        self.check(bool((out == (self._PAD_FILL & 0x7FFFFFFF)).all()),
                   "outbound padding pattern corrupted")
        api.cuMemFree(ptr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {self.app_code or self.name}>"
