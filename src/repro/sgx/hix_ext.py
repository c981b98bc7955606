"""HIX hardware extension: GECS, TGMR, and their validation logic.

Section 4.2.1: HIX adds two hidden, EPC-resident data structures —

* **GECS** (GPU enclave control structure): pairs a created GPU enclave
  ID with the hardware GPU number (PCIe bus/device/function).  HIX
  hardware ensures the GPU is a real hardware GPU and that no GPU is
  ever registered to two GPU enclaves at once — *including* enclaves
  that have since been killed (Section 4.2.3's termination protection).
* **TGMR** (trusted GPU MMIO region) table: the virtual/physical address
  pairs of the GPU MMIO region, consulted by the extended page-table
  walker (Section 4.3.1) to admit only the owning GPU enclave's own,
  unmodified mappings into the TLB.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import (
    GpuAlreadyOwned,
    NotAGpu,
    TgmrRegistrationError,
    TlbValidationError,
)
from repro.hw.mmu import AccessContext
from repro.hw.phys_mem import PAGE_SIZE
from repro.pcie.config_space import CLASS_DISPLAY_VGA, CLASS_PROCESSING_ACCEL
from repro.pcie.device import Bdf
from repro.pcie.root_complex import RootComplex

#: Device classes EGCREATE will bind.  The paper designs for GPUs but
#: notes "HIX can be extended to support various accelerator
#: architectures communicating with CPUs over I/O interconnects"
#: (Section 7); processing accelerators are admitted on the same terms.
PROTECTABLE_CLASSES = frozenset({CLASS_DISPLAY_VGA, CLASS_PROCESSING_ACCEL})


@dataclass
class GecsEntry:
    """One GECS slot: the binding of a GPU to its GPU enclave."""

    enclave_id: int
    gpu_bdf: str
    epc_paddr: int                      # EPC page holding this structure
    routing_measurement: bytes          # PCIe routing registers at EGCREATE
    locked_path: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class TgmrEntry:
    """One TGMR row: a single protected MMIO page mapping."""

    enclave_id: int
    gpu_bdf: str
    vaddr: int     # page-aligned linear address in the GPU enclave
    paddr: int     # page-aligned MMIO physical address


@dataclass(frozen=True)
class TgmrRegion:
    """A contiguous run of TGMR rows, stored as one interval.

    EGADD registers whole BARs at once (tens of thousands of pages for a
    real GPU), and every page in a run shares the same VA->PA offset, so
    the hardware table is stored as intervals.  Per-page :class:`TgmrEntry`
    rows are synthesized lazily for consumers that want them.
    """

    enclave_id: int
    gpu_bdf: str
    vaddr: int     # page-aligned linear address of the first page
    paddr: int     # page-aligned MMIO physical address of the first page
    npages: int

    @property
    def size(self) -> int:
        return self.npages * PAGE_SIZE

    def entry(self, index: int) -> TgmrEntry:
        return TgmrEntry(self.enclave_id, self.gpu_bdf,
                         self.vaddr + index * PAGE_SIZE,
                         self.paddr + index * PAGE_SIZE)


class _TgmrEntryView(Sequence):
    """Lazy per-page sequence over interval-stored TGMR regions.

    ``len`` and indexing are O(#regions); entries materialize only when
    accessed, so registering a multi-gigabyte BAR stays cheap while
    per-page consumers (tests, tables) keep their row-level view.
    """

    __slots__ = ("_regions",)

    def __init__(self, regions: List[TgmrRegion]) -> None:
        self._regions = regions

    def __len__(self) -> int:
        return sum(region.npages for region in self._regions)

    def __iter__(self):
        for region in self._regions:
            for index in range(region.npages):
                yield region.entry(index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        total = len(self)
        if index < 0:
            index += total
        if not 0 <= index < total:
            raise IndexError("TGMR entry index out of range")
        for region in self._regions:
            if index < region.npages:
                return region.entry(index)
            index -= region.npages
        raise IndexError("TGMR entry index out of range")


class HixExtension:
    """GECS + TGMR storage and the walker validation they drive."""

    def __init__(self) -> None:
        self._gecs: Dict[str, GecsEntry] = {}
        self._tgmr_regions: List[TgmrRegion] = []

    # -- GECS -----------------------------------------------------------------

    def register_gpu(self, enclave_id: int, bdf: Bdf,
                     root_complex: RootComplex, epc_paddr: int) -> GecsEntry:
        """EGCREATE back-end: bind *bdf* to *enclave_id*, engage lockdown."""
        key = str(bdf)
        self._check_unowned(key)
        device = root_complex.find_function(bdf)
        if device is None:
            raise NotAGpu(f"no PCIe function at {key}")
        self._check_physical(key, device)
        if device.config.class_code not in PROTECTABLE_CLASSES:
            raise NotAGpu(f"{key} is not a protectable accelerator "
                          f"(class {device.config.class_code:#08x})")
        locked_path = root_complex.enable_lockdown(bdf)
        entry = GecsEntry(enclave_id=enclave_id, gpu_bdf=key,
                          epc_paddr=epc_paddr,
                          routing_measurement=root_complex.measure_routing_config(),
                          locked_path=locked_path)
        self._gecs[key] = entry
        return entry

    def _check_unowned(self, key: str) -> None:
        """Termination protection: a GPU stays bound, even to a killed enclave."""
        if key in self._gecs:
            raise GpuAlreadyOwned(
                f"GPU {key} already registered to enclave "
                f"{self._gecs[key].enclave_id}; cleared only by cold boot")

    def _check_physical(self, key: str, device) -> None:
        """The root complex vouches that *device* is real hardware."""
        if not device.is_physical:
            raise NotAGpu(f"{key} is not real hardware (emulated device)")

    def gecs_for_enclave(self, enclave_id: int) -> Optional[GecsEntry]:
        for entry in self._gecs.values():
            if entry.enclave_id == enclave_id:
                return entry
        return None

    @property
    def gecs_entries(self) -> List[GecsEntry]:
        return list(self._gecs.values())

    # -- TGMR -----------------------------------------------------------------

    def register_mmio(self, enclave_id: int, vaddr: int, paddr: int,
                      npages: int, root_complex: RootComplex,
                      elrange_check=None) -> Sequence:
        """EGADD back-end: register npages of MMIO starting at (vaddr, paddr).

        Validates, per the paper: the caller owns a GPU (GECS), the
        physical range belongs to that GPU's MMIO (a programmed BAR or
        its expansion ROM), and the pair does not collide with existing
        registrations.  ``elrange_check(vaddr, size)`` lets the SGX unit
        reject virtual ranges overlapping ELRANGE (those must map EPC
        pages); it returns the first offending page VA, or ``None``.

        The whole run is stored as one :class:`TgmrRegion` interval; the
        returned sequence is a lazy per-page view of it.
        """
        if vaddr % PAGE_SIZE or paddr % PAGE_SIZE:
            raise TgmrRegistrationError("EGADD addresses must be page-aligned")
        if npages <= 0:
            raise TgmrRegistrationError("EGADD requires at least one page")
        gecs = self.gecs_for_enclave(enclave_id)
        if gecs is None:
            raise TgmrRegistrationError(
                f"enclave {enclave_id} is not a GPU enclave (no GECS entry)")
        device = root_complex.find_function(Bdf.parse(gecs.gpu_bdf))
        if device is None:
            raise TgmrRegistrationError(f"GPU {gecs.gpu_bdf} vanished")
        size = npages * PAGE_SIZE
        if not device.claims_address(paddr, size):
            raise TgmrRegistrationError(
                f"[{paddr:#x}, {paddr + size:#x}) is not MMIO of GPU {gecs.gpu_bdf}")
        # Interval checks, reported as the first offending page in the
        # order the per-page hardware walk would have found it: within a
        # page, ELRANGE beats a physical collision beats a virtual one.
        blockers = []
        if elrange_check is not None:
            hit = elrange_check(vaddr, size)
            if hit is not None:
                blockers.append((
                    (hit - vaddr) // PAGE_SIZE, 0,
                    f"virtual address {hit:#x} lies inside ELRANGE"))
        for region in self._tgmr_regions:
            overlap = max(paddr, region.paddr)
            if overlap < min(paddr + size, region.paddr + region.size):
                blockers.append((
                    (overlap - paddr) // PAGE_SIZE, 1,
                    f"MMIO page {overlap:#x} already registered"))
            if region.enclave_id == enclave_id:
                overlap = max(vaddr, region.vaddr)
                if overlap < min(vaddr + size, region.vaddr + region.size):
                    blockers.append((
                        (overlap - vaddr) // PAGE_SIZE, 2,
                        f"virtual page {overlap:#x} already registered"))
        if blockers:
            raise TgmrRegistrationError(min(blockers)[2])
        region = TgmrRegion(enclave_id, gecs.gpu_bdf, vaddr, paddr, npages)
        self._tgmr_regions.append(region)
        return _TgmrEntryView([region])

    @property
    def tgmr_entries(self) -> Sequence:
        """Per-page TGMR rows (lazy; ``len``/indexing are O(#regions))."""
        return _TgmrEntryView(list(self._tgmr_regions))

    # -- the extended walker check (Section 4.3.1) ------------------------------

    def validate_translation(self, ctx: AccessContext, page_va: int,
                             page_pa: int) -> None:
        """The four TGMR comparisons; raises TlbValidationError on failure."""
        for region in self._tgmr_regions:
            if region.paddr <= page_pa < region.paddr + region.size:
                # (1) current process is the GPU enclave named by GECS
                if ctx.enclave_id != region.enclave_id:
                    raise TlbValidationError(
                        f"{ctx.describe()} may not map trusted MMIO page "
                        f"{page_pa:#x} (owned by GPU enclave "
                        f"{region.enclave_id})")
                # (2)+(3) the virtual address matches the registered one
                registered_va = region.vaddr + (page_pa - region.paddr)
                if page_va != registered_va:
                    raise TlbValidationError(
                        f"trusted MMIO page {page_pa:#x} mapped at "
                        f"{page_va:#x}, registered at {registered_va:#x}")
                return
        # (4) reverse check: a registered virtual page of the GPU enclave
        # must translate to its registered physical page — a page-table
        # remap of the enclave's MMIO VA to attacker memory is rejected.
        if ctx.enclave_id is not None:
            for region in self._tgmr_regions:
                if (region.enclave_id == ctx.enclave_id
                        and region.vaddr <= page_va < region.vaddr + region.size):
                    registered_pa = region.paddr + (page_va - region.vaddr)
                    if registered_pa != page_pa:
                        raise TlbValidationError(
                            f"GPU-enclave MMIO va {page_va:#x} redirected to "
                            f"{page_pa:#x} (registered {registered_pa:#x})")
                    return

    # -- graceful release (Section 4.2.3, cooperative termination) ---------------

    def graceful_release(self, enclave_id: int) -> Optional[GecsEntry]:
        """Voluntarily return the GPU to the OS.

        Only the *live, owning* GPU enclave can do this (it runs as part
        of its graceful-termination handler after cleansing the GPU);
        forceful kills never reach here, leaving the GPU locked until
        cold boot.  Returns the released GECS entry, if any.
        """
        entry = self.gecs_for_enclave(enclave_id)
        if entry is None:
            return None
        del self._gecs[entry.gpu_bdf]
        self._tgmr_regions = [region for region in self._tgmr_regions
                              if region.enclave_id != enclave_id]
        return entry

    # -- cold boot ---------------------------------------------------------------

    def cold_boot_reset(self) -> None:
        """Clear GECS/TGMR — only a power cycle does this (Section 4.2.3)."""
        self._gecs.clear()
        self._tgmr_regions.clear()
