"""Machine assembly: the full simulated HIX testbed.

:class:`Machine` wires together everything the paper's prototype has
(Table 3): host DRAM and its address map, the MMU with the HIX-extended
walker, the SGX unit (EPC + instructions + GECS/TGMR), the PCIe tree
with the lockdown-capable root complex, the IOMMU/DMA path, the GTX-580
stand-in GPU, and the (untrusted) OS kernel.  Factory helpers bring up
the software stacks under test: the unsecure Gdev baseline, and the
configured TEE backend's service and attested sessions
(:mod:`repro.backends`).

``data_inflation`` scales the functional/modeled split: workloads move
``1/inflation`` of the paper's bytes for real while the clock is charged
for the full modeled sizes; VRAM capacity is scaled identically so
memory-pressure behaviour is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.backends import backend_names, get_backend
from repro.core.gpu_enclave import gpu_enclave_image
from repro.gdev.api import GdevApi
from repro.gdev.driver import GdevDriver
from repro.gpu.bios import bios_hash, build_bios_image
from repro.gpu.device import SimGpu
from repro.hw.address_map import AddressMap
from repro.hw.dma import DmaEngine
from repro.hw.iommu import Iommu
from repro.hw.mmu import Mmu
from repro.hw.phys_mem import PAGE_SIZE, PhysicalMemory
from repro.osmodel.adversary import PrivilegedAdversary
from repro.osmodel.kernel import Kernel
from repro.gpu.accelerator import SimAccelerator
from repro.pcie.device import Bdf
from repro.pcie.topology import build_multi_device_topology
from repro.sgx.enclave import expected_measurement
from repro.sgx.epc import Epc
from repro.sgx.instructions import SgxUnit
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.trace import register_fastpath_gauges

GB = 1 << 30
MB = 1 << 20

#: The published GPU enclave measurement, computed on first use.
_GPU_ENCLAVE_MEASUREMENT: Optional[bytes] = None


@dataclass
class MachineConfig:
    """Knobs of the simulated testbed (defaults mirror Table 3)."""

    dram_size: int = 4 * GB
    epc_size: int = 64 * MB
    mmio_base: int = 0x1_0000_0000        # 4 GiB hole for MMIO
    mmio_size: int = 2 * GB
    vram_size_modeled: int = 3 * GB // 2  # GTX 580: 1.5 GB
    num_gpus: int = 1                     # multi-GPU (no P2P), one port each
    num_accelerators: int = 0             # Section 7: non-GPU accelerators
    accel_mem_size: int = 256 * MB
    data_inflation: float = 1.0
    suite_name: str = "fast-auth"
    allow_sizing_inquiry: bool = False
    costs: Optional[CostModel] = None
    backend: str = "hix"                  # TEE backend (repro.backends)

    def __post_init__(self) -> None:
        if self.backend not in backend_names():
            known = ", ".join(backend_names())
            raise ValueError(
                f"unknown TEE backend {self.backend!r}; known: {known}")
        if self.data_inflation < 1.0:
            raise ValueError("data_inflation must be >= 1 (functional bytes "
                             "are modeled bytes / inflation)")
        if self.num_gpus < 1:
            raise ValueError("a machine needs at least one GPU")
        if self.num_accelerators < 0:
            raise ValueError("num_accelerators must be non-negative")
        if self.epc_size >= self.dram_size:
            raise ValueError("EPC must be a carve-out of DRAM")

    def build_costs(self) -> CostModel:
        costs = self.costs if self.costs is not None else CostModel()
        return costs.with_overrides(data_inflation=self.data_inflation)

    @property
    def vram_size_actual(self) -> int:
        """Scaled VRAM capacity plus a fixed driver-reserved slack.

        The slack (8 MiB) covers driver-internal buffers — module images,
        parameter buffers, and the HIX staging allocations — which do not
        shrink with the data-inflation factor, just as a real driver's
        reserved VRAM does not shrink with the workload.
        """
        actual = int(self.vram_size_modeled / self.data_inflation)
        actual += 8 * MB
        return max(actual - actual % PAGE_SIZE, 16 * PAGE_SIZE)


class Machine:
    """One fully-assembled simulated host + GPU."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or MachineConfig()
        self.clock = SimClock()
        self.costs = self.config.build_costs()

        # Host memory and routing.
        self.phys_mem = PhysicalMemory(self.config.dram_size)
        self.address_map = AddressMap()
        self.address_map.add_window("dram", 0, self.config.dram_size,
                                    self.phys_mem.read, self.phys_mem.write,
                                    read_into=self.phys_mem.read_into)

        # CPU security engine: EPC reserved at the top of DRAM.
        epc_base = self.config.dram_size - self.config.epc_size
        self.sgx = SgxUnit(Epc(epc_base, self.config.epc_size),
                           clock=self.clock, costs=self.costs)
        self.mmu = Mmu()
        self.mmu.set_validator(self.sgx.translation_validator())

        # PCIe fabric: one IOH3420-style root port per device (the
        # prototype's topology, generalized for multi-GPU/accelerator),
        # BIOS-style resource assignment included.
        self.gpus = []
        for index in range(max(self.config.num_gpus, 1)):
            self.gpus.append(SimGpu(
                Bdf(1 + index, 0, 0), self.config.vram_size_actual,
                clock=self.clock, costs=self.costs,
                suite_name=self.config.suite_name,
                device_secret=b"gtx580-device-secret-%d" % index))
        self.accelerators = []
        for index in range(self.config.num_accelerators):
            self.accelerators.append(SimAccelerator(
                Bdf(1 + len(self.gpus) + index, 0, 0),
                self.config.accel_mem_size,
                clock=self.clock, costs=self.costs,
                suite_name=self.config.suite_name))
        self.gpu = self.gpus[0]
        devices = self.gpus + self.accelerators
        self.root_complex, ports = build_multi_device_topology(
            self.config.mmio_base, self.config.mmio_size,
            [[device] for device in devices],
            allow_sizing_inquiry=self.config.allow_sizing_inquiry)
        self.root_port = ports[0]
        self.root_ports = ports
        self.address_map.add_window(
            "pcie-mmio", self.config.mmio_base, self.config.mmio_size,
            self.root_complex.window_read, self.root_complex.window_write)
        self.sgx.attach_root_complex(self.root_complex)

        # DMA path (untrusted IOMMU, per the threat model).
        self.iommu = Iommu()
        self.dma = DmaEngine(self.address_map, self.iommu)
        for device in devices:
            device.connect_dma(self.dma)

        # The untrusted OS.
        self.kernel = Kernel(self.phys_mem, self.mmu, self.address_map,
                             self.sgx)

        # Publish the data-plane counters as ``fastpath.*`` gauges in the
        # process metrics registry (repro.obs).
        register_fastpath_gauges(self)

    # -- trusted reference values (what a vendor would publish) ----------------

    @staticmethod
    def expected_bios_hash_for(device: SimGpu) -> bytes:
        """Vendor-published firmware hash for an arbitrary device."""
        return bios_hash(build_bios_image(device.config.device_id))

    @property
    def expected_gpu_enclave_measurement(self) -> bytes:
        """Vendor-published MRENCLAVE of the GPU enclave driver image.

        Derived from the published image (measuring it takes a quarter
        of a millisecond, so once per process), never from the enclave
        a service actually loaded.
        """
        global _GPU_ENCLAVE_MEASUREMENT
        if _GPU_ENCLAVE_MEASUREMENT is None:
            _GPU_ENCLAVE_MEASUREMENT = expected_measurement(
                gpu_enclave_image())
        return _GPU_ENCLAVE_MEASUREMENT

    # -- software stacks -----------------------------------------------------------

    def make_gdev(self, device: Optional[SimGpu] = None) -> GdevDriver:
        """Bring up the unsecure baseline driver in the OS kernel."""
        return GdevDriver(self.kernel, self.root_complex,
                          device or self.gpu,
                          clock=self.clock, costs=self.costs)

    def gdev_session(self, driver: GdevDriver, name: str = "app") -> GdevApi:
        process = self.kernel.create_process(name)
        return GdevApi(driver, process)

    # -- backend-generic entry points -----------------------------------------

    @property
    def backend(self):
        """The machine's configured TEE backend (a stateless singleton)."""
        return get_backend(self.config.backend)

    def boot_secure(self, device: Optional[SimGpu] = None):
        """Boot the configured backend's service for *device* (default:
        the first GPU).

        With multiple GPUs/accelerators, each device gets its own
        service; call once per device.
        """
        return self.backend.boot(self, device=device)

    def secure_session(self, service, name: str = "app",
                       channel_queue_depth: Optional[int] = None):
        """A tenant's client on the configured backend's *service*;
        ``cuCtxCreate`` attests it and agrees the session key."""
        return self.backend.create_session(
            self, service, name=name,
            channel_queue_depth=channel_queue_depth)

    # -- adversary / lifecycle --------------------------------------------------------

    def adversary(self) -> PrivilegedAdversary:
        return PrivilegedAdversary(self.kernel, self.root_complex,
                                   iommu=self.iommu)

    def cold_boot(self) -> None:
        """Power-cycle: the only way to clear GECS/TGMR (Section 4.2.3).

        Device state, lockdown, and SGX HIX registrations are cleared and
        a fresh OS comes up; the simulated hardware objects persist.
        """
        self.sgx.cold_boot_reset()
        for device in self.gpus + self.accelerators:
            device.reset()
            # CC mode is sticky across REG_RESET but not across power
            # loss; the next GPU-CC boot re-enables it.
            device.cc_mode = False
        self.mmu.tlb.flush_all()
        self.kernel = Kernel(self.phys_mem, self.mmu, self.address_map,
                             self.sgx)
