"""Integration tests: multi-GPU machines and non-GPU accelerators.

The paper scopes HIX to "a single GPU or multi-GPU system without P2P"
(Section 3.2) and claims the design "can be extended to support various
accelerator architectures" (Section 7).  Both are exercised here.
"""

import numpy as np
import pytest

from repro.errors import GpuAlreadyOwned, NotAGpu, TlbValidationError
from repro.system import Machine, MachineConfig


@pytest.fixture(scope="module")
def multi_machine():
    machine = Machine(MachineConfig(num_gpus=2, num_accelerators=1))
    machine.services = {
        "gpu0": machine.boot_secure(device=machine.gpus[0]),
        "gpu1": machine.boot_secure(device=machine.gpus[1]),
        "accel": machine.boot_secure(device=machine.accelerators[0]),
    }
    return machine


class TestMultiGpu:
    def test_each_gpu_gets_its_own_enclave(self, multi_machine):
        services = multi_machine.services
        assert services["gpu0"].enclave.enclave_id != (
            services["gpu1"].enclave.enclave_id)
        assert len(multi_machine.sgx.hix.gecs_entries) == 3

    def test_one_enclave_cannot_own_two_gpus(self):
        machine = Machine(MachineConfig(num_gpus=2))
        service = machine.boot_secure(device=machine.gpus[0])
        with pytest.raises(GpuAlreadyOwned):
            machine.sgx.egcreate(service.enclave.enclave_id,
                                 machine.gpus[0].bdf)
        # A *different* GPU can still be claimed by a different enclave.
        machine.boot_secure(device=machine.gpus[1])

    def test_sessions_on_different_gpus_are_independent(self, multi_machine):
        a = multi_machine.secure_session(multi_machine.services["gpu0"],
                                         "mg-a").cuCtxCreate()
        b = multi_machine.secure_session(multi_machine.services["gpu1"],
                                         "mg-b").cuCtxCreate()
        buf_a = a.cuMemAlloc(4096)
        buf_b = b.cuMemAlloc(4096)
        a.cuMemcpyHtoD(buf_a, b"\xA0" * 4096)
        b.cuMemcpyHtoD(buf_b, b"\xB0" * 4096)
        assert a.cuMemcpyDtoH(buf_a, 4096) == b"\xA0" * 4096
        assert b.cuMemcpyDtoH(buf_b, 4096) == b"\xB0" * 4096
        a.cuCtxDestroy()
        b.cuCtxDestroy()

    def test_lockdown_is_per_path(self):
        """Locking GPU0's route leaves GPU1's config writable, then not."""
        machine = Machine(MachineConfig(num_gpus=2))
        machine.boot_secure(device=machine.gpus[0])
        gpu1 = machine.gpus[1]
        offset = gpu1.config.bar_offset(0)
        assert machine.root_complex.config_write(
            gpu1.bdf, offset, gpu1.config.bars[0].address)
        machine.boot_secure(device=machine.gpus[1])
        assert not machine.root_complex.config_write(
            gpu1.bdf, offset, 0xDEAD0000)

    def test_mmio_isolation_between_device_enclaves(self, multi_machine):
        """GPU0's enclave cannot map GPU1's MMIO (different GECS owner)."""
        service0 = multi_machine.services["gpu0"]
        gpu1_bar0 = multi_machine.gpus[1].config.bars[0]
        kernel = multi_machine.kernel
        va = kernel.map_physical(service0.process, gpu1_bar0.address, 4096)
        with pytest.raises(TlbValidationError):
            kernel.cpu_read(service0.process, va, 4, enclave_mode=True)


class TestAccelerator:
    def test_accelerator_identity(self, multi_machine):
        accel = multi_machine.accelerators[0]
        from repro.pcie.config_space import CLASS_PROCESSING_ACCEL
        assert accel.config.class_code == CLASS_PROCESSING_ACCEL
        assert accel.config.vendor_id != multi_machine.gpu.config.vendor_id

    def test_full_secure_path_on_accelerator(self, multi_machine):
        """Kernels + sealed transfers work identically on the accelerator."""
        app = multi_machine.secure_session(multi_machine.services["accel"],
                                           "accel-user").cuCtxCreate()
        x = np.arange(256, dtype=np.int32)
        buf = app.cuMemAlloc(x.nbytes)
        app.cuMemcpyHtoD(buf, x)
        module = app.cuModuleLoad(["builtin.vector_scale"])
        app.cuLaunchKernel(module, "builtin.vector_scale", [buf, 256, 5])
        result = np.frombuffer(app.cuMemcpyDtoH(buf, x.nbytes),
                               dtype=np.int32)
        assert (result == x * 5).all()
        app.cuCtxDestroy()

    def test_accelerator_firmware_measured(self, multi_machine):
        service = multi_machine.services["accel"]
        accel = multi_machine.accelerators[0]
        assert service.bios_measurement == (
            multi_machine.expected_bios_hash_for(accel))
        # And it differs from the GPU's firmware identity.
        assert service.bios_measurement != (
            multi_machine.expected_bios_hash_for(multi_machine.gpu))

    def test_tampered_accelerator_firmware_detected(self):
        machine = Machine(MachineConfig(num_accelerators=1))
        machine.adversary().flash_gpu_bios(machine.accelerators[0])
        from repro.errors import AttestationError
        with pytest.raises(AttestationError):
            machine.boot_secure(device=machine.accelerators[0])

    def test_non_protectable_class_rejected(self):
        """A NIC-class device is not admitted by EGCREATE."""
        from repro.gpu.device import SimGpu
        from repro.pcie.device import Bdf
        machine = Machine(MachineConfig())
        nic = SimGpu(Bdf(1, 1, 0), 16 << 20, class_code=0x020000)  # ethernet
        machine.root_port.attach(nic)
        from repro.pcie.topology import bios_assign_resources
        bios_assign_resources(machine.root_complex)
        process = machine.kernel.create_process("nic-driver")
        from repro.sgx.enclave import EnclaveImage
        enclave = machine.kernel.load_enclave(
            process, EnclaveImage.from_code("nic", b"driver"))
        with pytest.raises(NotAGpu):
            machine.sgx.egcreate(enclave.enclave_id, nic.bdf)
