"""The (untrusted) OS kernel: processes, memory, enclave loading services.

Everything here is *mechanism the attacker controls* — HIX's security
argument is precisely that these services can be malicious and the
hardware checks still hold.  The kernel also hosts the benign remainder
of the GPU driver (Section 4.2): "offering benign kernel services such
as assigning new virtual addresses for MMIO regions allocated to the GPU
enclave" — see :mod:`repro.osmodel.driver_stub`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError, SgxError
from repro.hw.address_map import AddressMap
from repro.hw.mmu import Mmu, PageFlags
from repro.hw.phys_mem import PAGE_SIZE, PhysicalMemory
from repro.sgx.enclave import Enclave, EnclaveImage
from repro.sgx.epc import PageType
from repro.sgx.instructions import SgxUnit
from repro.osmodel.process import Process

_DEFAULT_FLAGS = PageFlags.PRESENT | PageFlags.WRITABLE | PageFlags.USER


class FrameAllocator:
    """Bump-with-free-list allocator over DRAM frames, EPC excluded.

    Reserved ranges must be page-aligned and non-empty; a contiguous run
    is then tested against them as intervals, so its cost grows with the
    number of ranges rather than the run's length.
    """

    def __init__(self, dram_size: int, reserved: List[Tuple[int, int]]) -> None:
        if any(base % PAGE_SIZE or size % PAGE_SIZE or size <= 0
               for base, size in reserved):
            raise ValueError("reserved ranges must be page-aligned and non-empty")
        self._dram_size = dram_size
        self._reserved = sorted(reserved)
        self._cursor = PAGE_SIZE  # frame 0 stays unused (null-page trap)
        self._free: List[int] = []

    def _reserved_overlap(self, paddr: int) -> Optional[int]:
        for base, size in self._reserved:
            if base <= paddr < base + size:
                return base + size
        return None

    def alloc(self) -> int:
        if self._free:
            return self._free.pop()
        while True:
            skip_to = self._reserved_overlap(self._cursor)
            if skip_to is None:
                break
            self._cursor = skip_to
        if self._cursor + PAGE_SIZE > self._dram_size:
            raise ReproError("out of physical frames")
        frame = self._cursor
        self._cursor += PAGE_SIZE
        return frame

    def alloc_contiguous(self, npages: int) -> int:
        """Allocate physically-contiguous frames (DMA buffers need this)."""
        while True:
            base = self._cursor
            skip_to = self._reserved_overlap(base)
            if skip_to is None:
                end = base + npages * PAGE_SIZE
                if any(start < end and base < start + size
                       for start, size in self._reserved):
                    self._cursor = end
                    continue
                if end > self._dram_size:
                    raise ReproError("out of contiguous physical frames")
                self._cursor = end
                return base
            self._cursor = skip_to

    def free(self, paddr: int) -> None:
        self._free.append(paddr)


class Kernel:
    """Privileged software: the paper's untrusted OS."""

    def __init__(self, phys_mem: PhysicalMemory, mmu: Mmu,
                 address_map: AddressMap, sgx: SgxUnit) -> None:
        self.phys_mem = phys_mem
        self.mmu = mmu
        self.address_map = address_map
        self.sgx = sgx
        self._next_pid = 100
        self.processes: Dict[int, Process] = {}
        self.frames = FrameAllocator(
            phys_mem.size, reserved=[(sgx.epc.base, sgx.epc.size)])
        self.kernel_process = self._spawn("kernel", is_kernel=True)

    # -- process management ----------------------------------------------------

    def _spawn(self, name: str, is_kernel: bool = False) -> Process:
        process = Process(self._next_pid, name, is_kernel=is_kernel)
        self._next_pid += 1
        self.processes[process.pid] = process
        return process

    def create_process(self, name: str) -> Process:
        return self._spawn(name)

    def kill_process(self, process: Process) -> None:
        """Forceful termination (the adversary uses this on the GPU enclave)."""
        process.alive = False
        if process.enclave is not None:
            self.sgx.destroy_enclave(process.enclave.enclave_id)
        self.mmu.tlb.flush_asid(process.pid)

    # -- virtual memory services -------------------------------------------------

    def alloc_pages(self, process: Process, npages: int,
                    flags: PageFlags = _DEFAULT_FLAGS,
                    contiguous: bool = False) -> int:
        """Allocate anonymous memory; returns the new virtual address."""
        nbytes = npages * PAGE_SIZE
        vaddr = process.reserve_va(nbytes)
        if contiguous:
            paddr = self.frames.alloc_contiguous(npages)
            process.page_table.map_range(vaddr, paddr, nbytes, flags)
        else:
            for i in range(npages):
                process.page_table.map(vaddr + i * PAGE_SIZE,
                                       self.frames.alloc(), flags)
        return vaddr

    def alloc_dma_buffer(self, process: Process, nbytes: int) -> Tuple[int, int]:
        """Contiguous buffer for device DMA; returns (vaddr, paddr)."""
        npages = -(-nbytes // PAGE_SIZE)
        paddr = self.frames.alloc_contiguous(npages)
        vaddr = process.reserve_va(npages * PAGE_SIZE)
        process.page_table.map_range(vaddr, paddr, npages * PAGE_SIZE,
                                     _DEFAULT_FLAGS)
        return vaddr, paddr

    def map_physical(self, process: Process, paddr: int, nbytes: int,
                     flags: PageFlags = _DEFAULT_FLAGS,
                     vaddr: Optional[int] = None) -> int:
        """Map an arbitrary physical range (MMIO, another process's frames).

        This is the service a malicious OS would abuse; whether the
        mapping is *usable* is decided later by the HIX walker checks.
        """
        npages = -(-nbytes // PAGE_SIZE)
        if vaddr is None:
            vaddr = process.reserve_va(npages * PAGE_SIZE)
        process.page_table.map_range(vaddr, paddr - paddr % PAGE_SIZE,
                                     npages * PAGE_SIZE, flags)
        return vaddr + paddr % PAGE_SIZE

    def share_mapping(self, owner: Process, vaddr: int, nbytes: int,
                      peer: Process) -> int:
        """Map *owner*'s frames into *peer* (inter-process shared memory)."""
        npages = -(-nbytes // PAGE_SIZE)
        peer_va = peer.reserve_va(npages * PAGE_SIZE)
        for i in range(npages):
            frame, _flags = owner.page_table.lookup(vaddr + i * PAGE_SIZE)
            peer.page_table.map(peer_va + i * PAGE_SIZE, frame, _DEFAULT_FLAGS)
        return peer_va

    def remap_page(self, process: Process, vaddr: int, new_paddr: int,
                   flags: PageFlags = _DEFAULT_FLAGS) -> None:
        """Point an existing virtual page somewhere else (attack primitive)."""
        process.page_table.map(vaddr - vaddr % PAGE_SIZE,
                               new_paddr - new_paddr % PAGE_SIZE, flags)
        self.mmu.tlb.flush_page(process.pid, vaddr)

    # -- CPU access path (every software touch of memory goes through here) -------

    def cpu_read(self, process: Process, vaddr: int, nbytes: int,
                 enclave_mode: bool = False) -> bytes:
        ctx = process.context(enclave_mode)
        return self.mmu.virt_read(process.page_table, ctx, vaddr, nbytes,
                                  self.address_map.read)

    def cpu_write(self, process: Process, vaddr: int, data: bytes,
                  enclave_mode: bool = False) -> None:
        ctx = process.context(enclave_mode)
        self.mmu.virt_write(process.page_table, ctx, vaddr, data,
                            self.address_map.write)

    # -- enclave loading ------------------------------------------------------------

    def load_enclave(self, process: Process, image: EnclaveImage,
                     extra_heap_pages: int = 0) -> Enclave:
        """ECREATE/EADD/EEXTEND/EINIT an enclave into *process*.

        The untrusted kernel performs the loading (as real SGX has it),
        but the measurement and EPCM bindings are hardware-maintained, so
        a dishonest loader only produces an enclave that fails attestation.
        """
        if process.enclave is not None:
            raise SgxError(f"process {process.name} already hosts an enclave")
        from repro.sgx.enclave import elrange_size
        size = elrange_size(image, extra_heap_pages)
        base = process.reserve_va(size, align=size)
        secs = self.sgx.ecreate(base, size, owner_pid=process.pid)
        for offset, content in image.all_pages():
            paddr = self.sgx.eadd(secs.enclave_id, base + offset, PageType.REG)
            # Hardware copies the content into the EPC page during EADD.
            self.phys_mem.write(paddr, content)
            self.sgx.eextend(secs.enclave_id, base + offset, content)
            process.page_table.map(base + offset, paddr, _DEFAULT_FLAGS)
        self.sgx.einit(secs.enclave_id)
        enclave = Enclave(secs=secs, image_name=image.name)
        process.enclave = enclave
        return enclave
