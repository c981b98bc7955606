"""GPU execution contexts and per-context address spaces.

A context is the GPU-side analogue of a process: its own virtual address
space over VRAM.  The paper leans on this for isolation: pre-Volta MPS
merges everyone into one context ("a kernel can access the address range
used by a different kernel", Section 4.5), while HIX creates one context
per user enclave.  The simulated page table makes both behaviours real:
a kernel can only touch VRAM reachable through its context's mappings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import PageFault

GPU_PAGE_SIZE = 4096


class GpuPageTable:
    """GPU virtual -> VRAM physical, page-granular."""

    def __init__(self) -> None:
        self._entries: Dict[int, int] = {}

    def map_range(self, gpu_va: int, vram_pa: int, nbytes: int) -> None:
        if gpu_va % GPU_PAGE_SIZE or vram_pa % GPU_PAGE_SIZE:
            raise ValueError("GPU mappings must be page-aligned")
        pages = -(-nbytes // GPU_PAGE_SIZE)
        for i in range(pages):
            self._entries[gpu_va // GPU_PAGE_SIZE + i] = (
                vram_pa // GPU_PAGE_SIZE + i)

    def unmap_range(self, gpu_va: int, nbytes: int) -> None:
        pages = -(-nbytes // GPU_PAGE_SIZE)
        for i in range(pages):
            self._entries.pop(gpu_va // GPU_PAGE_SIZE + i, None)

    def translate(self, gpu_va: int) -> int:
        ppn = self._entries.get(gpu_va // GPU_PAGE_SIZE)
        if ppn is None:
            raise PageFault(f"GPU va {gpu_va:#x} unmapped in this context")
        return ppn * GPU_PAGE_SIZE + gpu_va % GPU_PAGE_SIZE

@dataclass
class GpuContext:
    """One GPU context: address space + per-context session key slot."""

    ctx_id: int
    page_table: GpuPageTable = field(default_factory=GpuPageTable)
    session_key: Optional[bytes] = None   # set by the KEY_EXCHANGE command
    kernels_launched: int = 0
    dh_private_seed: Optional[bytes] = None

    def translate_range(self, gpu_va: int, nbytes: int):
        """Yield (vram_pa, chunk) pieces covering [gpu_va, gpu_va+nbytes).

        Physically-contiguous pages (the common case — the driver maps
        allocations contiguously in VRAM) are coalesced into single runs
        so copy loops touch VRAM once per extent, not once per page.
        """
        entries = self.page_table._entries
        addr = gpu_va
        end = gpu_va + nbytes
        run_pa = -1
        run_len = 0
        while addr < end:
            offset = addr & (GPU_PAGE_SIZE - 1)
            chunk = GPU_PAGE_SIZE - offset
            if addr + chunk > end:
                chunk = end - addr
            ppn = entries.get(addr // GPU_PAGE_SIZE)
            if ppn is None:
                raise PageFault(f"GPU va {addr:#x} unmapped in this context")
            vram_pa = ppn * GPU_PAGE_SIZE + offset
            if run_pa + run_len == vram_pa:
                run_len += chunk
            else:
                if run_len:
                    yield run_pa, run_len
                run_pa, run_len = vram_pa, chunk
            addr += chunk
        if run_len:
            yield run_pa, run_len
