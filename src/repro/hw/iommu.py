"""IOMMU: device-address translation for DMA.

In the paper's threat model the IOMMU is *not* trusted — "the OS can
route the DMA data to any memory pages by assigning the target buffer to
arbitrary memory pages or by compromising the IOMMU page table"
(Section 4.3.3).  HIX therefore never relies on it; it exists here so the
adversary model can mount exactly that attack and the test suite can show
authenticated encryption catching it.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.hw.phys_mem import PAGE_SIZE
from repro.obs.tracer import traced


class Iommu:
    """Per-device (BDF-keyed) DMA remapping unit, identity by default."""

    def __init__(self) -> None:
        self._enabled = False
        self._domains: Dict[str, Dict[int, int]] = {}
        #: Pages merged into contiguous DMA runs (fast-path diagnostics).
        self.coalesced_runs = 0

    def enable(self) -> None:
        self._enabled = True

    def map(self, bdf: str, io_vaddr: int, paddr: int) -> None:
        """Map one page of device address space to a host physical page."""
        if io_vaddr % PAGE_SIZE or paddr % PAGE_SIZE:
            raise ValueError("IOMMU mappings must be page-aligned")
        self._domains.setdefault(bdf, {})[io_vaddr // PAGE_SIZE] = paddr // PAGE_SIZE

    def unmap(self, bdf: str, io_vaddr: int) -> None:
        self._domains.get(bdf, {}).pop(io_vaddr // PAGE_SIZE, None)

    def translate(self, bdf: str, io_addr: int) -> int:
        """Translate a device DMA address to a host physical address."""
        if not self._enabled:
            return io_addr
        domain = self._domains.get(bdf)
        if domain is None:
            return io_addr
        ppn = domain.get(io_addr // PAGE_SIZE)
        if ppn is None:
            return io_addr
        return ppn * PAGE_SIZE + io_addr % PAGE_SIZE

    @traced("iommu.translate_range", "iommu",
            lambda self, bdf, io_addr, length: {"bdf": bdf,
                                                "length": length})
    def translate_range(self, bdf: str, io_addr: int,
                        length: int) -> Tuple[Tuple[int, int], ...]:
        """Translate a range into (paddr, chunk_len) pieces.

        Translation is still page-accurate (the OS can remap any single
        page), but physically-contiguous neighbours are coalesced into
        one piece so the DMA engine moves whole extents per host access.
        The identity/unmapped fast path skips per-page work entirely.
        """
        if length < 0:
            raise ValueError("negative length")
        if not length:
            return ()
        if not self._enabled or not self._domains.get(bdf):
            # Identity translation: the whole range is one contiguous run.
            return ((io_addr, length),)
        pieces = []
        addr = io_addr
        remaining = length
        while remaining:
            chunk = min(remaining, PAGE_SIZE - addr % PAGE_SIZE)
            paddr = self.translate(bdf, addr)
            if pieces and pieces[-1][0] + pieces[-1][1] == paddr:
                pieces[-1] = (pieces[-1][0], pieces[-1][1] + chunk)
                self.coalesced_runs += 1
            else:
                pieces.append((paddr, chunk))
            addr += chunk
            remaining -= chunk
        return tuple(pieces)
