"""The privileged adversary of the threat model (paper Section 3.1).

Each method is one attack primitive from the paper's attack-surface
analysis (Section 5.5, Figure 10).  The adversary always acts through
the same mechanisms real ring-0 code would use — page tables, the CPU
access path, PCIe config writes, the IOMMU — so success or failure is
decided by the simulated hardware, not by the adversary model itself.

Every primitive returns or raises exactly what the hardware did, letting
the security test-suite assert "succeeds on the baseline machine, denied
on HIX" per attack class.
"""

from __future__ import annotations

from repro.gpu.bios import tamper_bios
from repro.gpu.device import SimGpu
from repro.hw.phys_mem import PAGE_SIZE
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import Process
from repro.pcie.device import Bdf
from repro.pcie.root_complex import RootComplex


class EmulatedGpu(SimGpu):
    """A software GPU the adversary stands up (attack (6)).

    Indistinguishable at the driver API level, but the trusted root
    complex reports it as non-physical, which EGCREATE checks.
    """

    is_physical = False


class PrivilegedAdversary:
    """Ring-0 attacker: controls the OS, page tables, IOMMU, config space."""

    def __init__(self, kernel: Kernel, root_complex: RootComplex,
                 iommu=None) -> None:
        self._kernel = kernel
        self._root_complex = root_complex
        self._iommu = iommu
        self._probe = kernel.create_process("adversary")

    # -- attack (1)/(2): memory inspection and tampering ------------------------

    def read_physical(self, paddr: int, nbytes: int) -> bytes:
        """Inspect arbitrary physical memory via a fresh kernel mapping.

        Works on plain DRAM (shared memory, DMA buffers); raises on EPC
        pages and trusted MMIO because the mapping fails walker validation.
        """
        vaddr = self._kernel.map_physical(self._probe, paddr, nbytes)
        return self._kernel.cpu_read(self._probe, vaddr, nbytes)

    def write_physical(self, paddr: int, data: bytes) -> None:
        """Tamper with arbitrary physical memory (same constraints)."""
        vaddr = self._kernel.map_physical(self._probe, paddr, len(data))
        self._kernel.cpu_write(self._probe, vaddr, data)

    def flip_bits(self, paddr: int, offset: int = 0, count: int = 1) -> None:
        """Corrupt *count* bytes at paddr+offset (DMA/shared-mem tampering)."""
        current = self.read_physical(paddr + offset, count)
        self.write_physical(paddr + offset,
                            bytes(b ^ 0xFF for b in current))

    # -- attack (3): MMIO address-translation attacks -----------------------------

    def map_mmio_into_self(self, mmio_paddr: int, nbytes: int) -> bytes:
        """Try to reach GPU MMIO from the attacker's own address space."""
        return self.read_physical(mmio_paddr, nbytes)

    def write_mmio(self, mmio_paddr: int, data: bytes) -> None:
        """Try to drive the GPU directly (e.g. ring its doorbell)."""
        self.write_physical(mmio_paddr, data)

    def remap_victim_page(self, victim: Process, vaddr: int,
                          evil_paddr: int) -> None:
        """Redirect a victim's virtual page to attacker-chosen memory.

        This is the page-table half of attack (3): re-pointing the GPU
        enclave's registered MMIO VA at attacker DRAM.  The write to the
        page table always succeeds (the OS owns it); the *victim's next
        access* is where HIX's walker check fires.
        """
        self._kernel.remap_page(victim, vaddr, evil_paddr)

    def alloc_trap_buffer(self, nbytes: int) -> int:
        """DRAM the adversary controls, to redirect victims into."""
        npages = -(-nbytes // PAGE_SIZE)
        paddr = self._kernel.frames.alloc_contiguous(npages)
        return paddr

    # -- attack (4): PCIe routing modification --------------------------------------

    def rewrite_bar(self, bdf: Bdf, bar_index: int, new_address: int) -> bool:
        """Retarget a device BAR; returns True if the write took effect."""
        device = self._root_complex.find_function(bdf)
        if device is None:
            raise ValueError(f"no device at {bdf}")
        offset = device.config.bar_offset(bar_index)
        before = device.config.bars[bar_index].address
        self._root_complex.config_write(bdf, offset, new_address,
                                        requester="adversary")
        return device.config.bars[bar_index].address != before

    def rewrite_bridge_window(self, port_bdf: Bdf, new_base: int,
                              new_limit: int) -> bool:
        """Retarget a root port's memory window; True if it changed."""
        from repro.pcie.config_space import REG_MEMORY_WINDOW
        port = next((p for p in self._root_complex.ports if p.bdf == port_bdf),
                    None)
        if port is None:
            raise ValueError(f"no root port at {port_bdf}")
        before = (port.config.memory_base, port.config.memory_limit)
        packed = ((new_limit >> 16) << 16) | (new_base >> 16)
        self._root_complex.config_write(port_bdf, REG_MEMORY_WINDOW, packed,
                                        requester="adversary")
        return (port.config.memory_base, port.config.memory_limit) != before

    # -- attack (5): DMA redirection ---------------------------------------------------

    def redirect_iommu(self, gpu_bdf: str, io_paddr: int,
                       evil_paddr: int) -> None:
        """Remap a page of the GPU's DMA view onto attacker memory."""
        if self._iommu is None:
            raise ValueError("no IOMMU attached")
        self._iommu.enable()
        self._iommu.map(gpu_bdf, io_paddr - io_paddr % PAGE_SIZE,
                        evil_paddr - evil_paddr % PAGE_SIZE)

    # -- attack (2): enclave termination / code integrity -------------------------------

    def kill_process(self, victim: Process) -> None:
        """Forcefully terminate a process (e.g. the GPU enclave)."""
        self._kernel.kill_process(victim)

    def read_enclave_memory(self, victim: Process, vaddr: int,
                            nbytes: int) -> bytes:
        """Map a victim enclave's EPC frames into the attacker and read."""
        paddr, _flags = victim.page_table.lookup(vaddr)
        return self.read_physical(paddr + vaddr % PAGE_SIZE, nbytes)

    # -- attack (6): GPU emulation --------------------------------------------------------

    def plant_emulated_gpu(self, port, bdf: Bdf, vram_size: int = 64 << 20
                           ) -> EmulatedGpu:
        """Hot-plug a software-emulated GPU into the fabric."""
        fake = EmulatedGpu(bdf, vram_size)
        port.attach(fake)
        if not self._root_complex.lockdown_enabled:
            # Pre-lockdown the OS can still run resource assignment; after
            # lockdown the config writes would be discarded, leaving the
            # fake unprogrammed — either way EGCREATE rejects it.
            from repro.pcie.topology import bios_assign_resources
            bios_assign_resources(self._root_complex)
        return fake

    # -- pre-boot attacks --------------------------------------------------------------------

    def flash_gpu_bios(self, gpu: SimGpu, payload: bytes = b"EVIL") -> None:
        """Trojan the GPU BIOS before the GPU enclave comes up."""
        gpu.flash_bios(tamper_bios(gpu.bios_image, payload))
