"""Exception hierarchy for the HIX reproduction.

Every layer of the simulated machine raises a subclass of
:class:`ReproError`, so callers can catch at whatever granularity they
need.  Security-relevant denials all derive from :class:`AccessDenied`
(hardware refused an access) or :class:`IntegrityError` (cryptographic
verification failed), mirroring the two protection mechanisms the paper
lists in its TCB table (access restriction vs. memory encryption).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the HIX reproduction."""


# ---------------------------------------------------------------------------
# Hardware-level errors
# ---------------------------------------------------------------------------

class HardwareError(ReproError):
    """Base class for simulated hardware faults."""


class BusError(HardwareError):
    """A physical address was not claimed by DRAM or any MMIO window."""


class AccessDenied(HardwareError):
    """The hardware refused an access (MMU, EPCM, TGMR, root complex)."""


class PageFault(HardwareError):
    """Virtual address has no valid translation in the page table."""


class TlbValidationError(AccessDenied):
    """The page-table walker rejected a translation (SGX/HIX checks)."""


# ---------------------------------------------------------------------------
# PCIe errors
# ---------------------------------------------------------------------------

class PcieError(HardwareError):
    """Base class for PCIe interconnect errors."""


class UnsupportedRequest(PcieError):
    """A TLP could not be routed or was rejected by its target."""


class ConfigWriteRejected(PcieError):
    """A config write was discarded by the MMIO lockdown filter."""


# ---------------------------------------------------------------------------
# SGX / HIX enclave errors
# ---------------------------------------------------------------------------

class SgxError(ReproError):
    """Base class for SGX instruction faults."""


class EnclaveStateError(SgxError):
    """Instruction issued in the wrong enclave lifecycle state."""


class EpcError(SgxError):
    """EPC exhaustion or invalid EPC page operation."""


class HixError(SgxError):
    """Base class for HIX instruction (EGCREATE/EGADD) faults."""


class GpuAlreadyOwned(HixError):
    """EGCREATE targeted a GPU already registered to a GPU enclave."""


class NotAGpu(HixError):
    """EGCREATE targeted a BDF that is not a real hardware GPU."""


class TgmrRegistrationError(HixError):
    """EGADD rejected an invalid virtual/physical MMIO address pair."""


# ---------------------------------------------------------------------------
# Crypto errors
# ---------------------------------------------------------------------------

class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class IntegrityError(CryptoError):
    """Authenticated decryption failed (bad MAC) — tampering detected."""


class ReplayError(CryptoError):
    """A message arrived with a stale nonce — replay detected."""


class AttestationError(CryptoError):
    """Attestation evidence failed verification.

    Carries a structured ``error_kind`` so the serve resilience layer
    classifies backend boot/attest failures uniformly across TEE
    backends (HIX enclave measurement vs GPU-CC device certificates).
    """

    error_kind = "attestation_mismatch"


class CertChainError(AttestationError):
    """A device certificate chain did not verify back to the vendor root.

    GPU-CC attestation trusts a per-device key fused at manufacture and
    endorsed by the vendor CA; an emulated device can at best present a
    self-signed forgery, which fails here.
    """

    error_kind = "cert_chain_invalid"


# ---------------------------------------------------------------------------
# Driver / runtime errors
# ---------------------------------------------------------------------------

class DriverError(ReproError):
    """Base class for GPU driver (Gdev / HIX runtime) errors."""


class OutOfDeviceMemory(DriverError):
    """GPU VRAM allocator could not satisfy a request."""


class InvalidDevicePointer(DriverError):
    """A device pointer does not refer to a live allocation."""


class KernelNotFound(DriverError):
    """A launch referenced a kernel absent from the loaded module."""


class GpuUnavailable(DriverError):
    """The GPU is locked (e.g. after a GPU-enclave kill) or absent."""


class ProtocolError(DriverError):
    """Malformed or out-of-order inter-enclave request."""


class UnknownOperation(ProtocolError):
    """A sealed request named an op outside ``protocol.ALL_OPS``."""


class QueueFullError(ProtocolError):
    """A bounded message queue refused an enqueue (channel backlog)."""


class RequestRejected(DriverError):
    """The GPU enclave returned a structured error reply.

    Carries the reply's machine-readable ``code`` alongside the human
    message, so upper layers (the serving engine) can translate specific
    rejections — resource exhaustion, unknown ops — into their own
    flow-control semantics.
    """

    def __init__(self, message: str, code: str = "driver") -> None:
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Serving-layer errors (repro.serve)
# ---------------------------------------------------------------------------

class ServeError(DriverError):
    """Base class for multi-tenant serving-layer failures."""


class AdmissionError(ServeError):
    """A tenant, session, or allocation was denied by quota/admission."""


class BackpressureError(ServeError):
    """A tenant's request queue is full — caller must retry later."""


class PlacementError(AdmissionError):
    """The fleet router could not place a session on any machine.

    A structured rejection: ``retry_after`` is the router's estimate
    (in virtual seconds) of when the least-loaded machine's backlog
    will have drained enough for a resubmission to succeed — derived
    from observed queue-drain rates, not just per-machine breaker
    cooldowns — and ``error_kind`` carries the resilience-layer
    failure class so clients can reuse their retry policies.
    """

    def __init__(self, message: str, retry_after: float = 0.0,
                 error_kind: str = "quota") -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.error_kind = error_kind
