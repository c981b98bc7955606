"""Multi-level PCIe trees: switches between the root port and the GPU.

Section 4.3.2: "The processor must freeze the MMIO configuration
registers of all PCIe devices between the PCIe root complex and GPU."
With a switch in the path, that set includes the switch's upstream and
the downstream port toward the GPU — while sibling ports (and their
devices) stay fully writable.
"""

import pytest

from repro.core.gpu_enclave import GpuEnclaveService
from repro.errors import UnsupportedRequest
from repro.gpu.device import SimGpu
from repro.pcie.config_space import REG_MEMORY_WINDOW
from repro.pcie.device import Bdf
from repro.pcie.port import RootPort
from repro.pcie.root_complex import RootComplex
from repro.pcie.switch import Switch
from repro.pcie.tlp import Tlp
from repro.pcie.topology import bios_assign_resources
from repro.system import Machine, MachineConfig

MMIO_BASE = 0x1_0000_0000
MMIO_SIZE = 2 << 30
VRAM = 16 << 20


def build_switched_machine():
    """A machine whose GPU sits behind a 2-port switch.

    Tree: root port 00:01.0 (bus 1) -> switch upstream 01:00.0 (bus 2)
    -> downstream 02:00.0 (bus 3, GPU at 03:00.0)
       downstream 02:01.0 (bus 4, sibling GPU at 04:00.0).
    """
    machine = Machine(MachineConfig())
    # Rebuild the fabric by hand with a switch in it.
    root_complex = RootComplex(MMIO_BASE, MMIO_SIZE)
    port = RootPort(Bdf(0, 1, 0), secondary_bus=1)
    root_complex.add_port(port)
    switch = Switch(Bdf(1, 0, 0), upstream_secondary_bus=2,
                    downstream_count=2, first_downstream_bus=3)
    gpu = SimGpu(Bdf(3, 0, 0), VRAM)
    sibling = SimGpu(Bdf(4, 0, 0), VRAM, device_secret=b"sibling")
    switch.downstream[0].attach(gpu)
    switch.downstream[1].attach(sibling)
    port.attach_switch(switch)
    bios_assign_resources(root_complex)

    # Swap the machine's fabric for the switched one.
    machine.root_complex = root_complex
    machine.root_port = port
    machine.gpu = gpu
    machine.gpus = [gpu, sibling]
    machine.address_map._windows = [w for w in machine.address_map.windows
                                    if w.name != "pcie-mmio"]
    machine.address_map.add_window("pcie-mmio", MMIO_BASE, MMIO_SIZE,
                                   root_complex.window_read,
                                   root_complex.window_write)
    machine.sgx.attach_root_complex(root_complex)
    gpu.connect_dma(machine.dma)
    sibling.connect_dma(machine.dma)
    return machine, switch, gpu, sibling


@pytest.fixture
def switched():
    return build_switched_machine()


class TestSwitchedRouting:
    def test_mem_routing_through_switch(self, switched):
        machine, switch, gpu, _ = switched
        bar0 = gpu.config.bars[0]
        from repro.gpu import regs
        raw = machine.root_complex.route(
            Tlp.mem_read(bar0.address + regs.REG_ID, 4))
        assert int.from_bytes(raw, "little") != 0

    def test_config_routing_to_all_levels(self, switched):
        machine, switch, gpu, _ = switched
        root_complex = machine.root_complex
        assert root_complex.config_read(switch.bdf, 0x00) != 0
        assert root_complex.config_read(switch.downstream[0].bdf, 0x00) != 0
        assert root_complex.config_read(gpu.bdf, 0x00) != 0

    def test_path_includes_switch_bridges(self, switched):
        machine, switch, gpu, _ = switched
        path = machine.root_complex.path_to(gpu.bdf)
        assert path == ["00:01.0", "01:00.0", "02:00.0", "03:00.0"]

    def test_mem_access_to_absent_range_fails(self, switched):
        machine, *_ = switched
        with pytest.raises(UnsupportedRequest):
            machine.root_complex.route(
                Tlp.mem_read(MMIO_BASE + MMIO_SIZE - 0x1000, 4))


class TestSwitchedLockdown:
    def test_boot_locks_the_whole_path(self, switched):
        machine, switch, gpu, _ = switched
        service = GpuEnclaveService(machine.kernel, machine.sgx,
                                    machine.root_complex, gpu,
                                    machine.expected_bios_hash_for(gpu))
        service.boot()
        for bdf in ("00:01.0", "01:00.0", "02:00.0", "03:00.0"):
            assert machine.root_complex.lockdown_active_for(bdf), bdf

    def test_switch_windows_frozen_but_sibling_writable(self, switched):
        machine, switch, gpu, sibling = switched
        service = GpuEnclaveService(machine.kernel, machine.sgx,
                                    machine.root_complex, gpu,
                                    machine.expected_bios_hash_for(gpu))
        service.boot()
        root_complex = machine.root_complex
        # Downstream port toward the GPU: frozen.
        locked_port = switch.downstream[0]
        before = (locked_port.config.memory_base,
                  locked_port.config.memory_limit)
        assert not root_complex.config_write(locked_port.bdf,
                                             REG_MEMORY_WINDOW, 0)
        assert (locked_port.config.memory_base,
                locked_port.config.memory_limit) == before
        # Sibling downstream port: untouched by lockdown.
        open_port = switch.downstream[1]
        packed = open_port.config.read(REG_MEMORY_WINDOW)
        assert root_complex.config_write(open_port.bdf,
                                         REG_MEMORY_WINDOW, packed)
        # And the sibling GPU's BAR remains writable too.
        assert root_complex.config_write(
            sibling.bdf, sibling.config.bar_offset(0),
            sibling.config.bars[0].address)

    def test_full_hix_stack_works_behind_switch(self, switched):
        machine, switch, gpu, _ = switched
        service = GpuEnclaveService(machine.kernel, machine.sgx,
                                    machine.root_complex, gpu,
                                    machine.expected_bios_hash_for(gpu))
        service.boot()
        import numpy as np
        from repro.core.runtime import HixApi
        from repro.sgx.enclave import EnclaveImage
        process = machine.kernel.create_process("switched-user")
        machine.kernel.load_enclave(
            process, EnclaveImage.from_code("user-sw", b"user"))
        app = HixApi(machine.kernel, process, service,
                     machine.expected_gpu_enclave_measurement).cuCtxCreate()
        data = np.arange(512, dtype=np.int32)
        buf = app.cuMemAlloc(data.nbytes)
        app.cuMemcpyHtoD(buf, data)
        back = np.frombuffer(app.cuMemcpyDtoH(buf, data.nbytes),
                             dtype=np.int32)
        assert (back == data).all()
