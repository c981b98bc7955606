"""Enclave Page Cache (EPC) and its map (EPCM).

The EPC is a reserved slice of physical DRAM that only enclave-mode
accesses (validated against the EPCM) may touch; on real hardware its
contents are additionally encrypted by the MEE.  The simulation enforces
the access-restriction half (denied accesses raise, matching SGX's
abort-page semantics being strengthened to faults for testability) and
treats MEE encryption as implied — no software path exists to read EPC
bytes without passing the EPCM check, which is the property HIX relies
on.

HIX stores its own internal structures (GECS, TGMR) in EPC pages of
dedicated page types, exactly as the paper describes ("HIX stores
additional internal data structures for GPU management in EPC memory
pages", Section 4.2.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import EpcError
from repro.hw.phys_mem import PAGE_SIZE


class PageType(enum.Enum):
    SECS = "secs"
    REG = "reg"          # regular enclave page
    TCS = "tcs"
    GECS = "gecs"        # HIX: GPU enclave control structure
    TGMR = "tgmr"        # HIX: trusted GPU MMIO region table
    VA = "va"            # version array (unused, kept for fidelity)


@dataclass(frozen=True)
class EpcmEntry:
    """One EPCM slot: the hardware's record of an EPC page's binding."""

    valid: bool = False
    enclave_id: Optional[int] = None
    vaddr: Optional[int] = None        # linear address the page was EADDed at
    page_type: PageType = PageType.REG
    writable: bool = True


#: The entry of every page that is not allocated (entries are immutable,
#: so one object serves them all).
_INVALID = EpcmEntry()


class Epc:
    """Fixed-size EPC carved out of physical DRAM at a known base.

    Only valid EPCM entries are stored, so set-up and memory cost follow
    the pages in use, not the EPC's capacity.  Pages never used yet are
    handed out in ascending order from a cursor; released pages are
    reused first, most recently released first.  That is the order a
    dense free stack seeded with every page would produce.
    """

    def __init__(self, base: int, size: int) -> None:
        if base % PAGE_SIZE or size % PAGE_SIZE or size <= 0:
            raise ValueError("EPC base/size must be page-aligned and positive")
        self.base = base
        self.size = size
        self._num_pages = size // PAGE_SIZE
        self._epcm: Dict[int, EpcmEntry] = {}   # page index -> valid entry
        self._unused = 0                         # first never-used page
        self._released: List[int] = []

    @property
    def limit(self) -> int:
        return self.base + self.size

    @property
    def free_pages(self) -> int:
        return self._num_pages - self._unused + len(self._released)

    def contains(self, paddr: int, length: int = 1) -> bool:
        return self.base <= paddr and paddr + length <= self.limit

    def page_index(self, paddr: int) -> int:
        if not self.contains(paddr):
            raise EpcError(f"{paddr:#x} is not an EPC address")
        return (paddr - self.base) // PAGE_SIZE

    def entry_for(self, paddr: int) -> EpcmEntry:
        return self._epcm.get(self.page_index(paddr), _INVALID)

    def allocate(self, enclave_id: Optional[int], vaddr: Optional[int],
                 page_type: PageType, writable: bool = True) -> int:
        """Claim a free EPC page; returns its physical address."""
        if self._released:
            index = self._released.pop()
        elif self._unused < self._num_pages:
            index = self._unused
            self._unused += 1
        else:
            raise EpcError("EPC exhausted")
        self._epcm[index] = EpcmEntry(valid=True, enclave_id=enclave_id,
                                      vaddr=vaddr, page_type=page_type,
                                      writable=writable)
        return self.base + index * PAGE_SIZE

    def release(self, paddr: int) -> None:
        """EREMOVE: invalidate and free one page."""
        index = self.page_index(paddr)
        if self._epcm.pop(index, None) is None:
            raise EpcError(f"EREMOVE of invalid EPC page {paddr:#x}")
        self._released.append(index)

    def _indices_of(self, enclave_id: int) -> List[int]:
        return sorted(index for index, entry in self._epcm.items()
                      if entry.enclave_id == enclave_id)

    def release_enclave(self, enclave_id: int) -> int:
        """Free every page belonging to *enclave_id*; returns the count."""
        indices = self._indices_of(enclave_id)
        for index in indices:
            del self._epcm[index]
        self._released.extend(indices)
        return len(indices)

    def pages_of(self, enclave_id: int) -> Dict[int, EpcmEntry]:
        """paddr -> EPCM entry for every valid page of an enclave."""
        return {self.base + index * PAGE_SIZE: self._epcm[index]
                for index in self._indices_of(enclave_id)}
