"""The GPU-CC backend: H100-style confidential computing for the GPU.

Where HIX relocates the *driver* into an SGX enclave and locks down the
MMIO path, GPU-CC keeps the kernel-mode driver untrusted and moves the
trust boundary onto the die:

* **Attestation** — the user verifies a vendor-issued *device
  certificate chain* (a per-device attestation key fused at manufacture
  and endorsed by the vendor CA) plus a signed firmware measurement,
  instead of an SGX enclave measurement chain.  There is no boot-time
  BIOS check by a trusted host component; a tampered BIOS is caught at
  session attestation when the signed ``fw_hash`` fails to match the
  vendor-published value.
* **Key exchange** — a two-party DH between the user and the device.
  The untrusted driver relays both legs but never sees key material:
  in CC mode the device's KEY_EXCHANGE reply carries only its public
  value (the ``A^g`` half that would let a relay derive the key is
  suppressed — see :meth:`repro.gpu.device.SimGpu._key_exchange`).
* **Sealed path** — bulk data crosses the host as ciphertext through an
  unprotected *bounce buffer* the driver DMAs from; the on-die AEAD
  engine seals/opens it next to the copy engines with the session the
  device keeps per context (:meth:`repro.gpu.device.SimGpu.open_scatter`,
  :meth:`~repro.gpu.device.SimGpu.seal_gather`).  No crypto kernels
  occupy the SMs — no kernel launches, no ``gpu_dispatch`` charges — and
  no trusted MMIO aperture exists: the CC firewall disables BAR1
  outright.  Tag failures raise :class:`~repro.errors.IntegrityError`
  straight to the caller (the user sees the detection); no device fault
  is queued, so a tampered transfer cannot poison the next submission.

The user runtime and the driver's request loop are the ones every
backend shares (:class:`~repro.core.runtime.SealedClient`,
:class:`~repro.core.service.SealedService`); this module adds the
handshake, the engine calls on staged frames, boot into CC mode and the
cost terms.

Simulation conventions: MAC-as-signature — ``hmac(k, body)`` stands in
for a public-key signature by ``k``'s owner, and carrying the "public"
verification key inside a vendor-signed certificate models an ECDSA
attestation key.  Adversary primitives act through simulated hardware
state (DMA, MMIO, process memory), never through Python-level key
extraction, so holding key bytes in Python objects models on-die SRAM.
"""

from __future__ import annotations

import logging
from typing import Optional, Tuple

from repro.backends.base import TeeBackend, register
from repro.core import protocol
from repro.core.channel import ChannelEnd
from repro.core.key_exchange import (
    DiffieHellman,
    derive_key,
    dh_bytes_to_int,
    int_to_dh_bytes,
)
from repro.core.runtime import SealedClient
from repro.core.service import SealedService, ServiceSession
from repro.crypto.kdf import hkdf_sha256, hmac_sha256
from repro.crypto.session import SessionCrypto
from repro.errors import AttestationError, CertChainError, ProtocolError
from repro.gpu.bios import bios_hash
from repro.gpu.device import SimGpu
from repro.gpu.regs import REG_RESET, RESET_MAGIC
from repro.osmodel.driver_stub import map_gpu_mmio
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import Process
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel

logger = logging.getLogger(__name__)

#: The vendor CA's verification key, baked into every client runtime
#: (models the public half of the vendor root certificate).
VENDOR_ROOT = b"gpucc-vendor-root-ca-v1"

#: What an emulated device can sign its forged certificate with: its own
#: made-up root, which no client trusts.
_FORGERY_ROOT = b"self-signed-forgery"

_CERT_BODY_TAG = b"gpucc-device-cert"
_ATTEST_TAG = b"gpucc-attest"


# ---------------------------------------------------------------------------
# Vendor PKI: device certificates and attestation reports
# ---------------------------------------------------------------------------

def attestation_key(device: SimGpu) -> bytes:
    """The device's attestation key, derived from its fused secret."""
    secret = getattr(device, "_device_secret", b"emulated-no-fused-secret")
    return hkdf_sha256(secret, info=b"cc-att", length=32)


def issue_device_cert(device: SimGpu) -> dict:
    """The device's certificate: its attestation key, vendor-endorsed.

    A physical device carries a certificate signed at manufacture by the
    vendor CA.  An emulated GPU has no fused key the vendor ever saw, so
    the best it can present is a self-signed forgery.
    """
    k_att = attestation_key(device)
    body = _CERT_BODY_TAG + str(device.bdf).encode() + k_att
    root = VENDOR_ROOT if device.is_physical else _FORGERY_ROOT
    return {
        "bdf": str(device.bdf),
        "k_att": k_att.hex(),
        "sig": hmac_sha256(root, body).hex(),
    }


def verify_device_cert(cert: dict) -> bytes:
    """Client-side chain verification; returns the attestation key."""
    try:
        bdf = str(cert["bdf"])
        k_att = bytes.fromhex(cert["k_att"])
        sig = bytes.fromhex(cert["sig"])
    except (KeyError, ValueError, TypeError) as exc:
        raise CertChainError(f"malformed device certificate: {exc}") from exc
    body = _CERT_BODY_TAG + bdf.encode() + k_att
    if hmac_sha256(VENDOR_ROOT, body) != sig:
        raise CertChainError(
            "device certificate does not chain to the vendor root "
            "(emulated or counterfeit GPU)")
    return k_att


def _attest_transcript(c_bytes: bytes, a_bytes: bytes, fw_hash: bytes,
                       ctx_id: int) -> bytes:
    return (_ATTEST_TAG + c_bytes + a_bytes + fw_hash
            + ctx_id.to_bytes(4, "big"))


def device_attestation_report(device: SimGpu, ctx_id: int,
                              c_bytes: bytes, a_bytes: bytes) -> dict:
    """The device's signed session report (SPDM-style measurement).

    Signed with the certified attestation key over the DH transcript,
    the *current* firmware hash, and the context id — so a relay can
    neither splice sessions nor hide a flashed BIOS.
    """
    fw_hash = bios_hash(device.bios_image)
    sig = hmac_sha256(attestation_key(device),
                      _attest_transcript(c_bytes, a_bytes, fw_hash, ctx_id))
    return {"fw_hash": fw_hash.hex(), "ctx_id": ctx_id, "sig": sig.hex()}


def verify_attestation_report(k_att: bytes, report: dict,
                              c_bytes: bytes, a_bytes: bytes,
                              ctx_id: int) -> bytes:
    """Check the report signature; returns the attested firmware hash."""
    try:
        fw_hash = bytes.fromhex(report["fw_hash"])
        sig = bytes.fromhex(report["sig"])
        reported_ctx = int(report["ctx_id"])
    except (KeyError, ValueError, TypeError) as exc:
        raise AttestationError(f"malformed attestation report: {exc}") from exc
    if reported_ctx != ctx_id:
        raise AttestationError("attestation report binds a different context")
    expected = hmac_sha256(
        k_att, _attest_transcript(c_bytes, a_bytes, fw_hash, ctx_id))
    if expected != sig:
        raise AttestationError(
            "device attestation report failed verification "
            "(transcript was tampered in transit)")
    return fw_hash


# ---------------------------------------------------------------------------
# The untrusted kernel-mode driver (service side)
# ---------------------------------------------------------------------------

class GpuCcService(SealedService):
    """The plain (untrusted) GPU driver process serving CC sessions.

    The same request loop as the HIX GPU enclave — so the serving layer
    is backend-agnostic — but with the trust inverted: this process
    relays ciphertext it cannot open.  The loop's open and seal steps
    use the session the device holds for the context (on-die SRAM, per
    the simulation convention above), and every security property is
    enforced by the device (CC firewall, on-die engine, certified
    attestation).
    """

    label = "GPU-CC driver"

    # ------------------------------------------------------------------ boot

    def boot(self) -> "GpuCcService":
        """Bring up the untrusted driver and flip the device into CC mode."""
        self.process = self._kernel.create_process("gpucc-driver")
        self._regions = map_gpu_mmio(self._kernel, self._root_complex,
                                     self._gpu.bdf, self.process)
        # The on-die firewall engages before any tenant data exists; from
        # here on the BAR1 VRAM aperture refuses all host accesses.
        self._gpu.enable_cc()
        self.driver = self._new_driver()
        # Reset to scrub pre-existing state (the device scrubs VRAM and
        # drops contexts; CC mode is sticky across reset by design).
        self.driver.channel.reg_write(REG_RESET, RESET_MAGIC)
        self.driver = self._new_driver()
        self.alive = True
        logger.info("GPU-CC driver up: device=%s cc_mode=%s",
                    self._gpu.bdf, self._gpu.cc_mode)
        return self

    # --------------------------------------------------- session establishment

    def handle_hello(self, end: ChannelEnd) -> None:
        """Relay the 2-party exchange; fetch cert + report from the device.

        The hello and its ack are plaintext: they carry only public DH
        values and signed evidence, and this process couldn't seal them
        anyway — it never holds a key.
        """
        self._check_alive()
        hello = protocol.decode_message(self._receive(end, "hello"))
        a_bytes = bytes.fromhex(hello["dh_a"])
        a_value = dh_bytes_to_int(a_bytes)

        ctx = self.driver.create_context(end.user_process)
        # Two-party DH: both blob slots carry the user's A, so the device
        # derives K = KDF(A^g).  In CC mode its reply holds only C = g^g
        # (the A^g half is suppressed on-die), so this relay learns
        # nothing it can derive the key from.  No trusted aperture exists
        # under the firewall: the reply comes back by DMA (public data).
        reply_raw = self._device_key_exchange(
            ctx, int_to_dh_bytes(a_value) + int_to_dh_bytes(a_value))
        c_bytes = reply_raw[:256]

        cert = issue_device_cert(self._gpu)
        report = device_attestation_report(self._gpu, ctx.ctx_id,
                                           c_bytes, a_bytes)

        session = ServiceSession(session_id=end.user_process.pid,
                                 ctx=ctx, end=end)
        self._admit(session)
        logger.info("CC session %d established: ctx %d",
                    session.session_id, ctx.ctx_id)
        self._send(end, "hello-ack", protocol.encode_message({
            "cert": cert,
            "report": report,
            "dh_c": c_bytes.hex(),
            "ctx_id": ctx.ctx_id,
        }))

    def _session_crypto(self, session: ServiceSession) -> SessionCrypto:
        """The session the device holds for the context.

        The request loop pins it before dispatch, so the acknowledgment
        of a request that tears the context down (ctx destroy,
        shutdown) still seals.
        """
        crypto = self._gpu.context(session.ctx.ctx_id).crypto
        if crypto is None:
            raise ProtocolError(
                f"device holds no session for context {session.ctx.ctx_id}")
        return crypto

    # ------------------------------------------------- staged-frame crypto

    def _open_staged(self, session: ServiceSession, staging_va: int,
                     blob_len: int, gpu_vas: list, lengths: list) -> None:
        self._gpu.open_scatter(self._gpu.context(session.ctx.ctx_id),
                               staging_va, blob_len, gpu_vas, lengths)

    def _seal_staged(self, session: ServiceSession, gpu_vas: list,
                     lengths: list, staging_va: int) -> None:
        self._gpu.seal_gather(self._gpu.context(session.ctx.ctx_id),
                              gpu_vas, lengths, staging_va)


# ---------------------------------------------------------------------------
# The user-side runtime
# ---------------------------------------------------------------------------

class GpuCcApi(SealedClient):
    """The user runtime for GPU-CC: the shared sealed client.

    The user side is modeled as running inside a CPU TEE (a CVM in the
    H100 deployment); its session keys live in Python objects under the
    same on-die-SRAM convention as the engine's.  There is no SGX
    enclave and no local-attestation report — trust in the device comes
    from the certificate chain and the signed firmware measurement.
    """

    name = "gpucc"
    attestation_detail = "device cert chain and attestation report verified"
    key_exchange_detail = ("session key derived (device DH transcript "
                           "bound to report)")

    def __init__(self, kernel: Kernel, process: Process,
                 service: GpuCcService, expected_fw_hash: bytes,
                 clock: Optional[SimClock] = None,
                 costs: Optional[CostModel] = None,
                 suite_name: str = "fast-auth",
                 channel_queue_depth: Optional[int] = None) -> None:
        super().__init__(kernel, process, service, clock=clock, costs=costs,
                         suite_name=suite_name,
                         channel_queue_depth=channel_queue_depth)
        self._expected_fw_hash = expected_fw_hash

    def _handshake(self, end: ChannelEnd) -> Tuple[bytes, int]:
        """Certified device attestation + 2-party key exchange."""
        dh_u = DiffieHellman(seed=b"cc-user-%d" % self._process.pid)
        a_bytes = int_to_dh_bytes(dh_u.public_value)
        ack = self._hello(end, {"dh_a": a_bytes.hex()})
        # Chain first: an emulated GPU fails here (CertChainError), a
        # genuine one proceeds to the transcript + firmware checks.
        k_att = verify_device_cert(ack["cert"])
        c_bytes = bytes.fromhex(ack["dh_c"])
        ctx_id = int(ack["ctx_id"])
        fw_hash = verify_attestation_report(k_att, ack["report"],
                                            c_bytes, a_bytes, ctx_id)
        if fw_hash != self._expected_fw_hash:
            raise AttestationError(
                "GPU firmware measurement does not match the "
                "vendor-published hash (device BIOS was modified)")
        session_key = derive_key(dh_u.raise_value(dh_bytes_to_int(c_bytes)))
        return session_key, ctx_id


# ---------------------------------------------------------------------------
# Backend registration
# ---------------------------------------------------------------------------

class GpuCcBackend(TeeBackend):
    """On-die engines + certified attestation behind an untrusted driver."""

    name = "gpucc"
    attestation = ("vendor device certificate chain + signed firmware "
                   "measurement at session attestation")
    sealed_path = "bounce-buffer DMA staging + on-die AEAD engine"
    mmio_lockdown = False      # no TGMR; the CC firewall disables BAR1
    termination_protection = False  # killing the driver is plain DoS

    def boot(self, machine, device=None) -> GpuCcService:
        return GpuCcService(machine.kernel, machine.root_complex,
                            device or machine.gpu,
                            suite_name=machine.config.suite_name).boot()

    def create_session(self, machine, service, name: str = "app",
                       channel_queue_depth=None) -> GpuCcApi:
        # The user runs in a CPU TEE (no SGX enclave is loaded) and pins
        # the device's attested firmware hash against the value the
        # vendor publishes for that device model.
        return GpuCcApi(machine.kernel, machine.kernel.create_process(name),
                        service, clock=machine.clock, costs=machine.costs,
                        expected_fw_hash=machine.expected_bios_hash_for(
                            service.device),
                        suite_name=machine.config.suite_name,
                        channel_queue_depth=channel_queue_depth)

    def session_costs(self, costs):
        return costs.gpucc_task_init, costs.gpucc_session_setup

    def rpc_round_trip(self, costs) -> float:
        return costs.rpc_round_trip_gpucc()

    def request_overhead(self, costs) -> float:
        return costs.memcpy_request_overhead_gpucc

    def launch_cost(self, costs) -> float:
        return costs.kernel_launch_gpucc

    def h2d_stages(self, costs):
        # Seal in the CPU TEE || bounce-region staging copy || PCIe DMA.
        return ((costs.cpu_aead_bandwidth, costs.gpucc_bounce_bandwidth,
                 costs.pcie_h2d_bandwidth),
                (costs.cpu_aead_setup_latency, costs.dma_setup_latency,
                 costs.dma_setup_latency))

    def d2h_stages(self, costs):
        return ((costs.pcie_d2h_bandwidth, costs.gpucc_bounce_bandwidth,
                 costs.cpu_aead_bandwidth),
                (costs.dma_setup_latency, costs.dma_setup_latency,
                 costs.cpu_aead_setup_latency))

    def device_crypto(self, costs):
        # The fixed-function on-die engine: no kernel dispatch.
        return costs.gpucc_engine_latency, costs.gpucc_engine_bandwidth

    def multiuser_efficiency(self, costs) -> float:
        return costs.gpucc_aead_multiuser_efficiency


BACKEND = register(GpuCcBackend())
