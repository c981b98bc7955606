"""Fine-grained security scenarios beyond the headline attack matrix."""

import pytest

from repro.core.channel import BULK_OFFSET, REQUEST_OFFSET
from repro.crypto.blob import HEADER_LEN
from repro.errors import (
    AccessDenied,
    DriverError,
    IntegrityError,
    ProtocolError,
    ReplayError,
    TlbValidationError,
)
from repro.gpu import regs
from repro.system import Machine, MachineConfig


@pytest.fixture
def hix():
    machine = Machine(MachineConfig())
    service = machine.boot_secure()
    app = machine.secure_session(service).cuCtxCreate()
    return machine, service, app


class TestSharedMemoryTampering:
    def test_corrupted_bulk_blob_detected_by_gpu(self, hix):
        """Flipping ciphertext bits in shared memory fails the in-GPU MAC."""
        machine, service, app = hix
        end = app._end  # noqa: SLF001
        adversary = machine.adversary()
        buf = app.cuMemAlloc(256)

        # Interpose: corrupt the bulk area after sealing, before the DMA.
        original_poll = service.poll

        def corrupting_poll(channel_end):
            adversary.flip_bits(channel_end.region.paddr + BULK_OFFSET, 50, 4)
            return original_poll(channel_end)

        service.poll = corrupting_poll
        try:
            with pytest.raises((DriverError, IntegrityError)):
                app.cuMemcpyHtoD(buf, b"\x42" * 256)
        finally:
            service.poll = original_poll

    @pytest.mark.parametrize("backend", ["hix", "gpucc"])
    def test_tampered_uploads_free_their_staging(self, backend):
        """Regression: an upload whose frame fails its tag check still
        frees its VRAM staging buffer, so the OS cannot grow a
        session's device memory one tampered frame at a time."""
        machine = Machine(MachineConfig(backend=backend))
        service = machine.boot_secure()
        app = machine.secure_session(service).cuCtxCreate()
        adversary = machine.adversary()
        buf = app.cuMemAlloc(4096)
        # An intact upload first, so the per-context launch parameter
        # buffer HIX allocates on first use is already in place.
        app.cuMemcpyHtoD(buf, bytes(4096))
        ctx = service.sessions[app._end.session_id].ctx  # noqa: SLF001
        live = dict(ctx.live_vas)
        original_poll = service.poll

        def corrupting_poll(channel_end):
            # One ciphertext bit, after sealing and before the DMA.
            bit = channel_end.region.paddr + BULK_OFFSET + HEADER_LEN + 100
            byte = adversary.read_physical(bit, 1)[0]
            adversary.write_physical(bit, bytes([byte ^ 0x01]))
            return original_poll(channel_end)

        service.poll = corrupting_poll
        try:
            for _ in range(3):
                with pytest.raises((DriverError, IntegrityError)):
                    app.cuMemcpyHtoD(buf, b"\x42" * 4096)
        finally:
            service.poll = original_poll
        assert ctx.live_vas == live

    def test_corrupted_reply_detected_by_user(self, hix):
        machine, service, app = hix
        end = app._end  # noqa: SLF001
        adversary = machine.adversary()
        original_poll = service.poll

        def corrupting_poll(channel_end):
            result = original_poll(channel_end)
            from repro.core.channel import REPLY_OFFSET
            adversary.flip_bits(channel_end.region.paddr + REPLY_OFFSET, 8, 2)
            return result

        service.poll = corrupting_poll
        try:
            with pytest.raises(IntegrityError):
                app.cuMemAlloc(64)
        finally:
            service.poll = original_poll

    def test_forged_request_rejected(self, hix):
        """An OS-forged request (no session key) cannot pass the AEAD."""
        machine, service, app = hix
        end = app._end  # noqa: SLF001
        forged = b"\x00" * 128
        end.region.write(machine.kernel.processes[
            machine.kernel.kernel_process.pid], REQUEST_OFFSET, forged)
        end.to_service.send("request", REQUEST_OFFSET, len(forged))
        with pytest.raises(IntegrityError):
            service.poll(end)

    def test_request_replay_rejected(self, hix):
        machine, service, app = hix
        end = app._end  # noqa: SLF001
        app.cuMemAlloc(64)   # leaves a valid sealed request in the region
        end.to_service.send("request", REQUEST_OFFSET, 4096)
        with pytest.raises((ReplayError, IntegrityError)):
            service.poll(end)

    def test_cross_session_blob_splice_rejected(self, hix):
        """A blob sealed for one context fails in another (AAD binding)."""
        machine, service, app = hix
        other = machine.secure_session(service, "other").cuCtxCreate()
        from repro.crypto.blob import seal_blob, open_blob
        crypto_a = app._crypto       # noqa: SLF001
        crypto_b = other._crypto     # noqa: SLF001
        blob = seal_blob(crypto_a.bulk_suite, crypto_a.bulk_h2d_nonces,
                         b"payload", b"hix-bulk-ctx-%d" % app.ctx_id)
        with pytest.raises(IntegrityError):
            open_blob(crypto_b.bulk_suite, blob,
                      b"hix-bulk-ctx-%d" % other.ctx_id)
        other.cuCtxDestroy()


class TestMmioProtectionDetails:
    def test_adversary_cannot_ring_doorbell(self, hix):
        machine, service, app = hix
        bar0_pa = service.driver.channel.regions["bar0"].paddr
        adversary = machine.adversary()
        with pytest.raises(TlbValidationError):
            adversary.write_mmio(bar0_pa + regs.REG_DOORBELL,
                                 (64).to_bytes(4, "little"))

    def test_adversary_cannot_reset_gpu(self, hix):
        machine, service, app = hix
        bar0_pa = service.driver.channel.regions["bar0"].paddr
        adversary = machine.adversary()
        with pytest.raises(TlbValidationError):
            adversary.write_mmio(bar0_pa + regs.REG_RESET,
                                 regs.RESET_MAGIC.to_bytes(4, "little"))
        assert machine.gpu.reset_count == 1  # only the boot-time reset

    def test_adversary_cannot_read_vram_through_bar1(self, hix):
        machine, service, app = hix
        secret = b"\x99" * 4096
        buf = app.cuMemAlloc(4096)
        app.cuMemcpyHtoD(buf, secret)
        bar1_pa = service.driver.channel.regions["bar1"].paddr
        adversary = machine.adversary()
        with pytest.raises(TlbValidationError):
            adversary.map_mmio_into_self(bar1_pa, 4096)

    def test_gpu_enclave_keeps_working_after_failed_attacks(self, hix):
        machine, service, app = hix
        adversary = machine.adversary()
        bar0_pa = service.driver.channel.regions["bar0"].paddr
        for offset in (0, regs.REG_DOORBELL, regs.REG_RESET):
            with pytest.raises(TlbValidationError):
                adversary.map_mmio_into_self(bar0_pa + offset, 4)
        buf = app.cuMemAlloc(64)
        app.cuMemcpyHtoD(buf, b"still works, still secret" + bytes(39))
        assert app.cuMemcpyDtoH(buf, 25) == b"still works, still secret"


class TestLockdownDetails:
    def test_rejected_writes_are_logged(self, hix):
        machine, _, _ = hix
        adversary = machine.adversary()
        adversary.rewrite_bar(machine.gpu.bdf, 0, 0xDEAD0000)
        assert any(req == "adversary" for _, _, _, req
                   in machine.root_complex.rejected_config_writes)

    def test_lockdown_covers_rom_register(self, hix):
        machine, _, _ = hix
        from repro.pcie.config_space import REG_EXPANSION_ROM
        before = machine.gpu.config.expansion_rom_base
        machine.root_complex.config_write(machine.gpu.bdf,
                                          REG_EXPANSION_ROM, 0)
        assert machine.gpu.config.expansion_rom_base == before

    def test_routing_measurement_recorded_in_gecs(self, hix):
        machine, service, _ = hix
        entry = machine.sgx.hix.gecs_for_enclave(service.enclave.enclave_id)
        assert entry.routing_measurement == (
            machine.root_complex.measure_routing_config())


class TestTerminationDetails:
    def test_killed_enclave_gpu_data_unreachable(self):
        machine = Machine(MachineConfig())
        service = machine.boot_secure()
        app = machine.secure_session(service).cuCtxCreate()
        buf = app.cuMemAlloc(4096)
        app.cuMemcpyHtoD(buf, b"\x5A" * 4096)
        adversary = machine.adversary()
        adversary.kill_process(service.process)
        # Nobody can reach the MMIO to extract the data.
        bar1_pa = service.driver.channel.regions["bar1"].paddr
        with pytest.raises(TlbValidationError):
            adversary.map_mmio_into_self(bar1_pa, 4096)
        # A fresh kernel-resident driver also fails: mappings denied.
        with pytest.raises(TlbValidationError):
            machine.make_gdev()

    @pytest.mark.parametrize("index", [0, 1])
    def test_cold_boot_resets_gpu_data(self, index):
        machine = Machine(MachineConfig(num_gpus=2))
        gpu = machine.gpus[index]
        service = machine.boot_secure(device=gpu)
        app = machine.secure_session(service).cuCtxCreate()
        buf = app.cuMemAlloc(4096)
        app.cuMemcpyHtoD(buf, b"\x5A" * 4096)
        machine.adversary().kill_process(service.process)
        machine.cold_boot()
        # After the power cycle — which reaches every device, not just
        # the first — the data and the session's context are gone and
        # the GPU is usable again.
        assert gpu.vram.read(0, 1 << 16).count(0x5A) == 0
        assert not gpu.contexts
        service2 = machine.boot_secure(device=gpu)
        assert service2.alive


class TestGpuEnclaveIdentity:
    def test_trojaned_gpu_enclave_fails_attestation(self, monkeypatch):
        """A GPU enclave booted from a modified image reports its own
        measurement faithfully; the user must check that against the
        vendor-published value, not against the image the service
        happened to load."""
        from repro import system
        from repro.core import gpu_enclave
        from repro.errors import AttestationError
        from repro.obs.audit import audit_log
        from repro.sgx.enclave import EnclaveImage

        trojan = EnclaveImage.from_code(
            "gpu-enclave", gpu_enclave.GPU_ENCLAVE_CODE + b" + key exfil",
            heap_pages=8)
        monkeypatch.setattr(gpu_enclave, "gpu_enclave_image", lambda: trojan)
        # Computed afresh while the trojan is the image a service loads,
        # so the verdict cannot rest on a value an earlier test cached.
        monkeypatch.setattr(system, "_GPU_ENCLAVE_MEASUREMENT", None)
        machine = Machine(MachineConfig())
        service = machine.boot_secure()
        app = machine.secure_session(service, "victim")
        mark = audit_log().cursor()
        with pytest.raises(AttestationError):
            app.cuCtxCreate()
        [event] = audit_log().filter(kind="hix.attestation", since=mark)
        assert not event.ok
        assert event.attrs["cause"] == "report"
        assert service.measurement != machine.expected_gpu_enclave_measurement


class TestDeviceSession:
    def test_repeated_key_exchange_refused(self, monkeypatch):
        """Regression: under GPU-CC the untrusted driver relays the
        user's DH value A in the plaintext hello, and the device's own
        DH value is fixed per context.  Re-running KEY_EXCHANGE(ctx,
        A||A) on a live context would derive the same key with every
        nonce counter and replay guard back at zero, so the next sealed
        frame would reuse a (key, nonce) pair.  The device must refuse
        it without touching the session."""
        machine = Machine(MachineConfig(backend="gpucc"))
        service = machine.boot_secure()
        blobs = []
        relay = service._device_key_exchange  # noqa: SLF001

        def recording(ctx, blob):
            blobs.append(blob)
            return relay(ctx, blob)

        monkeypatch.setattr(service, "_device_key_exchange", recording)
        app = machine.secure_session(service).cuCtxCreate()
        adversary = machine.adversary()
        session = service.sessions[app._end.session_id]  # noqa: SLF001
        frame_nonce = session.end.region.paddr + BULK_OFFSET + 4
        buf = app.cuMemAlloc(4096)
        app.cuMemcpyHtoD(buf, b"\x42" * 4096)
        app.cuMemcpyDtoH(buf, 4096)
        seen = {adversary.read_physical(frame_nonce, 12)}
        device_ctx = machine.gpu.context(session.ctx.ctx_id)
        crypto = device_ctx.crypto

        [hello_blob] = blobs
        with pytest.raises(DriverError, match="already holds a session"):
            service._device_key_exchange(session.ctx, hello_blob)  # noqa: SLF001
        assert device_ctx.crypto is crypto

        assert app.cuMemcpyDtoH(buf, 4096) == b"\x42" * 4096
        assert adversary.read_physical(frame_nonce, 12) not in seen


class TestUserEnclaveProtection:
    def test_session_keys_unreachable(self, hix):
        """The OS cannot read the user enclave's ELRANGE (where keys live)."""
        machine, _, app = hix
        adversary = machine.adversary()
        process = app._process  # noqa: SLF001
        with pytest.raises(TlbValidationError):
            adversary.read_enclave_memory(process, process.enclave.base, 32)

    def test_gdev_baseline_has_no_such_protection(self):
        machine = Machine(MachineConfig())
        driver = machine.make_gdev()
        app = machine.gdev_session(driver).cuCtxCreate()
        process = app._process  # noqa: SLF001
        va = machine.kernel.alloc_pages(process, 1)
        machine.kernel.cpu_write(process, va, b"plain key material")
        paddr, _ = process.page_table.lookup(va)
        stolen = machine.adversary().read_physical(paddr, 18)
        assert stolen == b"plain key material"


class TestQueueManipulation:
    def test_reordered_notifications_fail_authentication(self, hix):
        """The OS swaps two queued notifications; AEAD ordering catches it."""
        machine, service, app = hix
        end = app._end  # noqa: SLF001
        from repro.core import protocol
        from repro.crypto.blob import seal_blob
        crypto = app._crypto  # noqa: SLF001
        # Seal two requests but deliver them in reverse nonce order.
        first = seal_blob(crypto.request_suite, crypto.request_nonces,
                          protocol.encode_message(
                              {"op": "malloc", "nbytes": 64}),
                          associated_data=protocol.REQUEST_AAD)
        second = seal_blob(crypto.request_suite, crypto.request_nonces,
                           protocol.encode_message(
                               {"op": "malloc", "nbytes": 128}),
                           associated_data=protocol.REQUEST_AAD)
        end.region.write(machine.kernel.kernel_process, REQUEST_OFFSET,
                         second)
        end.to_service.send("request", REQUEST_OFFSET, len(second))
        service.poll(end)           # newer nonce consumed first
        end.to_user.recv()
        end.region.write(machine.kernel.kernel_process, REQUEST_OFFSET,
                         first)
        end.to_service.send("request", REQUEST_OFFSET, len(first))
        with pytest.raises(ReplayError):
            service.poll(end)       # older nonce now stale

    def test_notification_pointing_at_garbage_rejected(self, hix):
        machine, service, app = hix
        end = app._end  # noqa: SLF001
        end.to_service.send("request", BULK_OFFSET + 100, 200)
        with pytest.raises(IntegrityError):
            service.poll(end)

    def test_wrong_kind_notification_rejected(self, hix):
        machine, service, app = hix
        end = app._end  # noqa: SLF001
        end.to_service.send("hello", 0, 64)
        with pytest.raises(ProtocolError):
            service.poll(end)
