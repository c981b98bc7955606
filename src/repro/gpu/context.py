"""GPU execution contexts and per-context address spaces.

A context is the GPU-side analogue of a process: its own virtual address
space over VRAM.  The paper leans on this for isolation: pre-Volta MPS
merges everyone into one context ("a kernel can access the address range
used by a different kernel", Section 4.5), while HIX creates one context
per user enclave.  The simulated page table makes both behaviours real:
a kernel can only touch VRAM reachable through its context's mappings.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.crypto.session import SessionCrypto
from repro.errors import PageFault

GPU_PAGE_SIZE = 4096


class GpuPageTable:
    """GPU virtual -> VRAM physical, page-granular, held as runs.

    Each run maps virtual pages ``[start, end)`` to consecutive VRAM
    pages from ``base``; runs are sorted and never overlap.  A mapping
    punches its window out of older runs, so every page resolves exactly
    as in a table with one entry per page, but a mapping costs one entry
    whatever its size and a range translates one run at a time.
    """

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._runs: List[Tuple[int, int, int]] = []  # (start, end, base)

    def map_range(self, gpu_va: int, vram_pa: int, nbytes: int) -> None:
        if gpu_va % GPU_PAGE_SIZE or vram_pa % GPU_PAGE_SIZE:
            raise ValueError("GPU mappings must be page-aligned")
        pages = -(-nbytes // GPU_PAGE_SIZE)
        if pages <= 0:
            return
        start = gpu_va // GPU_PAGE_SIZE
        index = self._punch(start, start + pages)
        self._starts.insert(index, start)
        self._runs.insert(index,
                          (start, start + pages, vram_pa // GPU_PAGE_SIZE))

    def unmap_range(self, gpu_va: int, nbytes: int) -> None:
        pages = -(-nbytes // GPU_PAGE_SIZE)
        if pages > 0:
            start = gpu_va // GPU_PAGE_SIZE
            self._punch(start, start + pages)

    def _punch(self, low: int, high: int) -> int:
        """Unmap pages ``[low, high)``; return where a run starting at
        *low* now belongs."""
        starts, runs = self._starts, self._runs
        first = bisect_left(starts, low)
        if first and runs[first - 1][1] > low:
            first -= 1
        last = bisect_left(starts, high)
        if first == last:
            return first
        kept = []
        start, _, base = runs[first]
        if start < low:
            kept.append((start, low, base))
        start, end, base = runs[last - 1]
        if end > high:
            kept.append((high, end, base + high - start))
        runs[first:last] = kept
        starts[first:last] = [run[0] for run in kept]
        return first + (1 if kept and kept[0][0] < low else 0)

    def translate(self, gpu_va: int) -> int:
        page = gpu_va // GPU_PAGE_SIZE
        index = bisect_right(self._starts, page) - 1
        if index >= 0:
            start, end, base = self._runs[index]
            if page < end:
                return (base + page - start) * GPU_PAGE_SIZE \
                    + gpu_va % GPU_PAGE_SIZE
        raise PageFault(f"GPU va {gpu_va:#x} unmapped in this context")

    def translate_range(self, gpu_va: int,
                        nbytes: int) -> Iterator[Tuple[int, int]]:
        """Yield (vram_pa, chunk) pieces covering [gpu_va, gpu_va+nbytes).

        Neighbouring runs that are contiguous in VRAM (the common case —
        the driver maps allocations contiguously) merge into one piece,
        so copy loops touch VRAM once per extent.  An unmapped page
        raises :class:`PageFault` naming its first address in the range;
        the piece being built when it is reached is not yielded.
        """
        runs = self._runs
        addr = gpu_va
        end = gpu_va + nbytes
        index = bisect_right(self._starts, addr // GPU_PAGE_SIZE) - 1
        piece_pa = -1
        piece_len = 0
        while addr < end:
            page = addr // GPU_PAGE_SIZE
            if not 0 <= index < len(runs) or not (
                    runs[index][0] <= page < runs[index][1]):
                raise PageFault(f"GPU va {addr:#x} unmapped in this context")
            start, stop, base = runs[index]
            stop_va = min(end, stop * GPU_PAGE_SIZE)
            vram_pa = (base + page - start) * GPU_PAGE_SIZE \
                + addr % GPU_PAGE_SIZE
            if piece_pa + piece_len == vram_pa:
                piece_len += stop_va - addr
            else:
                if piece_len:
                    yield piece_pa, piece_len
                piece_pa, piece_len = vram_pa, stop_va - addr
            addr = stop_va
            index += 1
        if piece_len:
            yield piece_pa, piece_len


@dataclass
class GpuContext:
    """One GPU context: address space + the device's side of its session.

    The KEY_EXCHANGE command sets, once, the session the device opens
    and seals the context's bulk frames with; it dies with the context
    (destroy or device reset).
    """

    ctx_id: int
    page_table: GpuPageTable = field(default_factory=GpuPageTable)
    crypto: Optional[SessionCrypto] = None
    kernels_launched: int = 0
