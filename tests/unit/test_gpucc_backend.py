"""Unit coverage for the GPU-CC backend's trust primitives.

The attack matrix exercises these end to end; here each mechanism is
pinned in isolation: the vendor PKI (certificate chain + attestation
report), the CC-mode key-exchange reply suppression, the BAR1
firewall, reset scrubbing and CC-mode stickiness, the on-die engine's
session lifecycle (including sealing the teardown acknowledgment), and
the structured error kinds the serving layer classifies on.
"""

import pytest

from repro.backends.gpucc import (
    CcEngine,
    device_attestation_report,
    issue_device_cert,
    verify_attestation_report,
    verify_device_cert,
)
from repro.errors import (
    AttestationError,
    CertChainError,
    CryptoError,
    ProtocolError,
    UnsupportedRequest,
)
from repro.osmodel.adversary import EmulatedGpu
from repro.serve.resilience import (
    KIND_ATTESTATION,
    KIND_CERT_CHAIN,
    classify_failure,
)
from repro.system import Machine, MachineConfig


def _gpucc_machine():
    return Machine(MachineConfig(backend="gpucc"))


class TestVendorPki:
    def test_physical_device_cert_chains_to_vendor_root(self):
        machine = _gpucc_machine()
        cert = issue_device_cert(machine.gpu)
        k_att = verify_device_cert(cert)
        assert len(k_att) == 32

    def test_emulated_device_cert_fails_chain_verification(self):
        fake = EmulatedGpu(_gpucc_machine().gpu.bdf, vram_size=1 << 20)
        assert not fake.is_physical
        with pytest.raises(CertChainError):
            verify_device_cert(issue_device_cert(fake))

    def test_tampered_cert_key_fails(self):
        cert = issue_device_cert(_gpucc_machine().gpu)
        cert["k_att"] = bytes(32).hex()
        with pytest.raises(CertChainError):
            verify_device_cert(cert)

    def test_attestation_report_roundtrip_and_binding(self):
        machine = _gpucc_machine()
        gpu = machine.gpu
        k_att = verify_device_cert(issue_device_cert(gpu))
        c_bytes, a_bytes = b"\x01" * 256, b"\x02" * 256
        report = device_attestation_report(gpu, 7, c_bytes, a_bytes)
        fw_hash = verify_attestation_report(k_att, report,
                                            c_bytes, a_bytes, 7)
        assert fw_hash == bytes.fromhex(report["fw_hash"])
        with pytest.raises(AttestationError):
            verify_attestation_report(k_att, report, c_bytes, a_bytes, 8)
        forged = dict(report, fw_hash=bytes(32).hex())
        with pytest.raises(AttestationError):
            verify_attestation_report(k_att, forged, c_bytes, a_bytes, 7)


class TestKeyExchangeSuppression:
    BLOB = (5).to_bytes(256, "big") + (7).to_bytes(256, "big")

    def test_cc_mode_reply_omits_relay_half(self):
        machine = _gpucc_machine()
        service = machine.boot_gpucc()
        api = machine.gpucc_session(service, name="probe")
        api.cuCtxCreate()
        gpu = machine.gpu
        ctx = gpu.contexts[api._ctx_id]
        dptr = api.cuMemAlloc(1024)
        gpu._key_exchange(ctx, dptr.addr, self.BLOB)
        reply = gpu.read_ctx(ctx, dptr.addr, 512)
        assert reply[:256] != bytes(256)      # C = g^g present
        assert reply[256:] == bytes(256)      # A^g suppressed

    def test_plain_mode_reply_carries_both_halves(self):
        machine = Machine(MachineConfig())
        driver = machine.make_gdev()
        api = machine.gdev_session(driver, name="probe")
        api.cuCtxCreate()
        gpu = machine.gpu
        assert not gpu.cc_mode
        ctx = next(iter(gpu.contexts.values()))
        dptr = api.cuMemAlloc(1024)
        gpu._key_exchange(ctx, dptr.addr, self.BLOB)
        reply = gpu.read_ctx(ctx, dptr.addr, 512)
        assert reply[256:] != bytes(256)


class TestCcFirewallAndReset:
    def test_bar1_aperture_disabled_in_cc_mode(self):
        machine = _gpucc_machine()
        machine.boot_gpucc()
        gpu = machine.gpu
        with pytest.raises(UnsupportedRequest):
            gpu.bar_read(1, 0, 16)
        with pytest.raises(UnsupportedRequest):
            gpu.bar_write(1, 0, b"\x00" * 16)
        # BAR0 (control registers) stays reachable — the driver is
        # untrusted but still drives the device.
        gpu.bar_read(0, 0, 4)

    @pytest.mark.parametrize("index", [0, 1])
    def test_cc_mode_sticky_across_reset_dropped_by_cold_boot(self, index):
        machine = Machine(MachineConfig(backend="gpucc", num_gpus=2))
        gpu = machine.gpus[index]
        machine.boot_gpucc(device=gpu)
        assert gpu.cc_mode
        assert gpu.reset_count >= 1   # boot resets after enabling CC
        gpu.reset()
        assert gpu.cc_mode
        machine.cold_boot()
        assert not gpu.cc_mode

    def test_reset_scrubs_vram_and_drops_contexts(self):
        machine = _gpucc_machine()
        service = machine.boot_gpucc()
        api = machine.gpucc_session(service, name="probe")
        api.cuCtxCreate()
        dptr = api.cuMemAlloc(4096)
        api.cuMemcpyHtoD(dptr, b"s" * 4096)
        gpu = machine.gpu
        old_vram = gpu.vram
        gpu.reset()
        assert gpu.vram is not old_vram
        assert not gpu.contexts


class TestEngineSessionLifecycle:
    def test_register_requires_completed_key_exchange(self):
        machine = _gpucc_machine()
        service = machine.boot_gpucc()
        engine = service.engine
        with pytest.raises(ProtocolError):
            engine.session_crypto(999)
        with pytest.raises(ProtocolError):
            engine.register(999)

    def test_ctx_destroy_ack_seals_after_teardown(self):
        """Regression: the destroy acknowledgment is sealed with the
        session pinned *before* dispatch — teardown forgetting the ctx
        must not break the final reply."""
        machine = _gpucc_machine()
        service = machine.boot_gpucc()
        api = machine.gpucc_session(service, name="probe")
        api.cuCtxCreate()
        ctx_id = api._ctx_id
        api.cuCtxDestroy()
        assert not service.sessions
        with pytest.raises(ProtocolError):
            service.engine.session_crypto(ctx_id)

    def test_graceful_shutdown_clears_engine_and_sessions(self):
        machine = _gpucc_machine()
        service = machine.boot_gpucc()
        api = machine.gpucc_session(service, name="probe")
        api.cuCtxCreate()
        service.graceful_shutdown()
        assert not service.alive
        assert not service.sessions


class TestStructuredErrorKinds:
    def test_error_kind_values(self):
        assert AttestationError("x").error_kind == "attestation_mismatch"
        assert CertChainError("x").error_kind == "cert_chain_invalid"
        assert issubclass(CertChainError, AttestationError)
        assert issubclass(AttestationError, CryptoError)

    def test_classify_failure_routes_attestation_kinds(self):
        assert classify_failure(AttestationError("x")) == KIND_ATTESTATION
        assert classify_failure(CertChainError("x")) == KIND_CERT_CHAIN
