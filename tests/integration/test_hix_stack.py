"""Integration tests: GPU enclave boot and the HIX secure runtime."""

import numpy as np
import pytest

from repro.errors import AttestationError, DriverError, GpuUnavailable
from repro.gpu.bios import bios_hash
from repro.gpu.regs import ROM_SIZE
from repro.system import Machine, MachineConfig


class TestGpuEnclaveBoot:
    def test_boot_sequence_effects(self):
        machine = Machine(MachineConfig())
        reset_before = machine.gpu.reset_count
        service = machine.boot_secure()
        assert service.alive
        # Lockdown engaged on the whole path (root port + GPU).
        assert machine.root_complex.lockdown_active_for("00:01.0")
        assert machine.root_complex.lockdown_active_for("01:00.0")
        # All MMIO pages are TGMR-registered: BAR0 + BAR1 + ROM.
        from repro.gpu import regs
        expected_pages = (regs.BAR0_SIZE + regs.BAR1_SIZE + ROM_SIZE) // 4096
        assert len(machine.sgx.hix.tgmr_entries) == expected_pages
        # BIOS measured and the device reset.
        assert service.bios_measurement == (
            machine.expected_bios_hash_for(machine.gpu))
        assert machine.gpu.reset_count == reset_before + 1

    def test_boot_publishes_expected_identity(self):
        machine = Machine(MachineConfig())
        service = machine.boot_secure()
        assert service.measurement == machine.expected_gpu_enclave_measurement

    def test_boot_rejects_tampered_bios(self):
        machine = Machine(MachineConfig())
        machine.adversary().flash_gpu_bios(machine.gpu)
        with pytest.raises(AttestationError):
            machine.boot_secure()

    @pytest.mark.parametrize("backend", ["hix", "gpucc"])
    def test_flashed_bios_does_not_leak_into_next_machine(self, backend):
        """VBIOS images are built once per process and shared; flashing
        one machine's GPU must not reach the next machine's ROM or the
        vendor reference it is checked against."""
        def boot_and_attest(machine):
            service = machine.boot_secure()
            machine.secure_session(service).cuCtxCreate()

        flashed = Machine(MachineConfig(backend=backend))
        pristine = bytes(flashed.gpu.bios_image)
        flashed.adversary().flash_gpu_bios(flashed.gpu)
        with pytest.raises(AttestationError):
            boot_and_attest(flashed)

        fresh = Machine(MachineConfig(backend=backend))
        assert fresh.gpu.bios_image == pristine
        assert fresh.expected_bios_hash_for(fresh.gpu) == bios_hash(pristine)
        boot_and_attest(fresh)

    def test_second_boot_rejected_while_owned(self):
        machine = Machine(MachineConfig())
        machine.boot_secure()
        from repro.errors import GpuAlreadyOwned
        with pytest.raises(GpuAlreadyOwned):
            machine.boot_secure()


class TestHixRuntime:
    def test_session_setup_mutually_attested(self, hix_app):
        assert hix_app.ctx_id > 0
        assert hix_app._crypto is not None  # noqa: SLF001

    def test_memcpy_roundtrip(self, hix_app):
        data = np.arange(2048, dtype=np.int32)
        buf = hix_app.cuMemAlloc(data.nbytes)
        hix_app.cuMemcpyHtoD(buf, data)
        back = np.frombuffer(hix_app.cuMemcpyDtoH(buf, data.nbytes),
                             dtype=np.int32)
        assert (back == data).all()

    def test_kernel_execution(self, hix_app):
        a = np.arange(512, dtype=np.int32)
        b = (np.arange(512, dtype=np.int32) * 7).astype(np.int32)
        da, db, dc = (hix_app.cuMemAlloc(a.nbytes) for _ in range(3))
        hix_app.cuMemcpyHtoD(da, a)
        hix_app.cuMemcpyHtoD(db, b)
        module = hix_app.cuModuleLoad(["builtin.matrix_add"])
        hix_app.cuLaunchKernel(module, "builtin.matrix_add",
                               [da, db, dc, 512])
        result = np.frombuffer(hix_app.cuMemcpyDtoH(dc, a.nbytes),
                               dtype=np.int32)
        assert (result == a + b).all()

    def test_multi_chunk_transfer(self, hix_app):
        """Transfers larger than the shared region chunk correctly."""
        data = np.random.default_rng(3).integers(
            0, 255, size=9 << 20, dtype=np.uint8)
        buf = hix_app.cuMemAlloc(data.nbytes)
        hix_app.cuMemcpyHtoD(buf, data)
        back = np.frombuffer(hix_app.cuMemcpyDtoH(buf, data.nbytes),
                             dtype=np.uint8)
        assert (back == data).all()

    def test_empty_transfer(self, hix_app):
        buf = hix_app.cuMemAlloc(4096)
        hix_app.cuMemcpyHtoD(buf, b"")
        assert hix_app.cuMemcpyDtoH(buf, 0) == b""

    def test_no_plaintext_in_shared_memory(self, hix_machine, hix_app):
        secret = b"CONFIDENTIAL-TENSOR" * 8
        buf = hix_app.cuMemAlloc(len(secret))
        hix_app.cuMemcpyHtoD(buf, secret)
        region = hix_app._end.region  # noqa: SLF001
        raw = hix_machine.phys_mem.read(region.paddr, region.size)
        assert secret not in raw
        assert b"CONFIDENTIAL" not in raw

    def test_no_plaintext_requests_in_shared_memory(self, hix_machine,
                                                    hix_app):
        hix_app.cuMemAlloc(4096)
        region = hix_app._end.region  # noqa: SLF001
        raw = hix_machine.phys_mem.read(region.paddr, region.size)
        assert b"malloc" not in raw  # op names never appear in the clear

    def test_api_parity_with_gdev(self, hix_app):
        """The facades expose the same CUDA-like surface (Section 5.2)."""
        from repro.gdev.api import GdevApi
        for method in ("cuCtxCreate", "cuCtxDestroy", "cuMemAlloc",
                       "cuMemFree", "cuMemcpyHtoD", "cuMemcpyDtoH",
                       "cuModuleLoad", "cuLaunchKernel"):
            assert hasattr(hix_app, method)
            assert hasattr(GdevApi, method)

    def test_free_cleanses_memory(self, hix_machine, hix_app):
        secret = b"\xAA" * 4096
        buf = hix_app.cuMemAlloc(4096)
        hix_app.cuMemcpyHtoD(buf, secret)
        service = hix_machine.hix_service
        session = service.sessions[hix_app._process.pid]  # noqa: SLF001
        vram_pa = service.driver.vram_pa_of(session.ctx, buf.addr)
        assert hix_machine.gpu.vram.read(vram_pa, 16) == b"\xAA" * 16
        hix_app.cuMemFree(buf)
        assert hix_machine.gpu.vram.read(vram_pa, 4096) == bytes(4096)

    def test_identity_check_rejects_wrong_measurement(self, hix_machine):
        service = hix_machine.hix_service
        process = hix_machine.kernel.create_process("paranoid")
        from repro.sgx.enclave import EnclaveImage
        hix_machine.kernel.load_enclave(
            process, EnclaveImage.from_code("user-paranoid", b"user"))
        from repro.core.runtime import HixApi
        api = HixApi(hix_machine.kernel, process, service,
                     expected_gpu_enclave_measurement=b"\x00" * 32)
        with pytest.raises(AttestationError):
            api.cuCtxCreate()

    def test_sessions_isolated(self, hix_machine):
        service = hix_machine.hix_service
        alice = hix_machine.secure_session(service, "alice").cuCtxCreate()
        bob = hix_machine.secure_session(service, "bob").cuCtxCreate()
        assert alice.ctx_id != bob.ctx_id
        a_buf = alice.cuMemAlloc(64)
        b_buf = bob.cuMemAlloc(64)
        alice.cuMemcpyHtoD(a_buf, b"alice-secret-data-goes-here-pad!" * 2)
        bob.cuMemcpyHtoD(b_buf, b"bob-data" * 8)
        assert alice.cuMemcpyDtoH(a_buf, 64).startswith(b"alice")
        assert bob.cuMemcpyDtoH(b_buf, 64).startswith(b"bob")
        # Sessions hold different keys.
        assert (alice._crypto.session_key  # noqa: SLF001
                != bob._crypto.session_key)  # noqa: SLF001
        alice.cuCtxDestroy()
        bob.cuCtxDestroy()

    def test_gpu_context_isolation(self, hix_machine):
        """Per-user contexts separate GPU address spaces (Section 4.5).

        Unlike pre-Volta MPS (one merged context), identical virtual
        addresses in two HIX contexts back distinct device memory, and
        addresses outside a context's own mappings fault.
        """
        service = hix_machine.hix_service
        alice = hix_machine.secure_session(service, "alice2").cuCtxCreate()
        bob = hix_machine.secure_session(service, "bob2").cuCtxCreate()
        a_buf = alice.cuMemAlloc(4096)
        b_buf = bob.cuMemAlloc(4096)
        assert a_buf.addr == b_buf.addr  # same VA, different contexts
        alice.cuMemcpyHtoD(a_buf, b"\x77" * 4096)
        module = bob.cuModuleLoad(["builtin.memset32"])
        bob.cuLaunchKernel(module, "builtin.memset32", [b_buf, 1024, 0])
        # Bob zeroed his own page; Alice's data is untouched.
        assert alice.cuMemcpyDtoH(a_buf, 4096) == b"\x77" * 4096
        # An address Bob never mapped faults in his context.
        from repro.gpu.module import DevPtr
        with pytest.raises(DriverError):
            bob.cuLaunchKernel(module, "builtin.memset32",
                               [DevPtr(0x7FFF_0000), 16, 0])
        alice.cuCtxDestroy()
        bob.cuCtxDestroy()


class TestGracefulTermination:
    def test_shutdown_returns_gpu(self):
        machine = Machine(MachineConfig())
        service = machine.boot_secure()
        app = machine.secure_session(service).cuCtxCreate()
        buf = app.cuMemAlloc(4096)
        app.cuMemcpyHtoD(buf, b"\x55" * 4096)
        app.request_shutdown()
        assert not service.alive
        assert not machine.root_complex.lockdown_enabled
        # GPU data cleansed by the final reset.
        assert machine.gpu.vram.read(0, 4096) == bytes(4096)
        # The GPU can be re-owned without a cold boot.
        machine.boot_secure()

    def test_requests_fail_after_shutdown(self):
        machine = Machine(MachineConfig())
        service = machine.boot_secure()
        app = machine.secure_session(service).cuCtxCreate()
        app.request_shutdown()
        with pytest.raises((GpuUnavailable, DriverError)):
            app.cuMemAlloc(64)
