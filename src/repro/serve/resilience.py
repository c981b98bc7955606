"""Serve-layer resilience: error taxonomy, retry policy, circuit breaker.

The serving engine survives faults instead of reporting them and moving
on: every dispatch failure is classified into a machine-readable error
*kind* (the structured error reply the satellite fix adds), retryable
kinds are re-executed under an exponential-backoff schedule charged in
virtual time, and a per-tenant circuit breaker sheds load when the
failure rate crosses a threshold so a broken backend is not hammered.

Everything here is deterministic.  Backoff jitter comes from a
``random.Random`` seeded from the engine seed and tenant name (string
seeds hash stably via SHA-512, independent of ``PYTHONHASHSEED``), and
the breaker keeps time in virtual seconds — two runs with the same seed
produce bit-identical schedules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from collections import deque

from repro.errors import (
    AdmissionError,
    AttestationError,
    BackpressureError,
    CryptoError,
    GpuUnavailable,
    IntegrityError,
    QueueFullError,
    ReplayError,
    RequestRejected,
)

# Machine-readable failure kinds carried on ServeRequest.error_kind.
KIND_TIMEOUT = "timeout"          # deadline expired on the virtual timeline
KIND_QUEUE_FULL = "queue_full"    # channel/queue backlog (retryable load)
KIND_CRYPTO = "crypto"            # AEAD/replay/attestation failure (tamper)
KIND_DEVICE_LOST = "device_lost"  # GPU enclave or session gone
KIND_QUOTA = "quota"              # admission denial — policy, not a fault
KIND_REJECTED = "rejected"        # structured error reply from the enclave
KIND_DRIVER = "driver"            # other driver/runtime failure
KIND_CIRCUIT_OPEN = "circuit_open"  # shed by the tenant's open breaker
# Attestation failures carry their own structured kinds (set as
# ``error_kind`` on the exception classes in :mod:`repro.errors`), so
# boot/attest failures classify the same way on every TEE backend:
KIND_ATTESTATION = "attestation_mismatch"   # evidence failed verification
KIND_CERT_CHAIN = "cert_chain_invalid"      # chain does not reach the root

#: Kinds that indicate backend ill-health (counted by the breaker).
#: Quota denials are policy decisions and timeouts settle after the
#: execution already returned, so neither trips the breaker.
BREAKER_KINDS = frozenset({KIND_QUEUE_FULL, KIND_CRYPTO, KIND_DEVICE_LOST,
                           KIND_REJECTED, KIND_DRIVER,
                           KIND_ATTESTATION, KIND_CERT_CHAIN})

#: Kinds whose failures warrant a session re-establishment (fresh
#: attestation + key exchange) before the retry: the session or device
#: the request ran against can no longer be trusted or reached.
RECOVERY_KINDS = frozenset({KIND_DEVICE_LOST, KIND_CRYPTO,
                            KIND_ATTESTATION, KIND_CERT_CHAIN})


def classify_failure(exc: BaseException) -> str:
    """Map a dispatch exception to its structured error kind.

    Order matters: the serve-layer errors subclass ``DriverError``, so
    the specific classes are tested before the broad driver bucket.
    """
    if isinstance(exc, AdmissionError):
        return KIND_QUOTA
    if isinstance(exc, (QueueFullError, BackpressureError)):
        return KIND_QUEUE_FULL
    if isinstance(exc, GpuUnavailable):
        return KIND_DEVICE_LOST
    if isinstance(exc, AttestationError):
        # Structured: "attestation_mismatch", or "cert_chain_invalid"
        # for CertChainError — uniform across TEE backends.
        return getattr(exc, "error_kind", KIND_CRYPTO)
    if isinstance(exc, (IntegrityError, ReplayError, CryptoError)):
        return KIND_CRYPTO
    if isinstance(exc, RequestRejected):
        return KIND_REJECTED
    # The runtime raises a plain DriverError when the GPU enclave posted
    # a "gpu-untrusted" note — that is a device loss, not a request bug.
    if "no longer trusted" in str(exc):
        return KIND_DEVICE_LOST
    return KIND_DRIVER


def tenant_rng(seed: int, tenant: str, purpose: str = "retry") -> random.Random:
    """Deterministic per-tenant RNG (stable across processes)."""
    return random.Random(f"{seed}:{tenant}:{purpose}")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter, in virtual time.

    Attempt ``n`` (1-based) that fails with a kind in ``retry_on`` and
    has attempts remaining sleeps ``base_delay * multiplier**(n-1)``
    scaled by ``1 + jitter * U[0,1)`` before re-executing.  The sleep is
    charged to the tenant's virtual timeline as idle (non-host) time, so
    backoff delays victims honestly without inventing host work.
    """

    max_attempts: int = 3
    base_delay: float = 200e-6
    multiplier: float = 2.0
    jitter: float = 0.5
    retry_on: frozenset = frozenset({KIND_QUEUE_FULL, KIND_DEVICE_LOST,
                                     KIND_CRYPTO, KIND_ATTESTATION,
                                     KIND_CERT_CHAIN})

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0.0 or self.jitter < 0.0:
            raise ValueError("base_delay and jitter must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def retries(self, kind: Optional[str], attempts: int) -> bool:
        """Whether a request that failed *kind* on attempt *attempts*
        (1-based count of executions so far) gets another execution."""
        return kind in self.retry_on and attempts < self.max_attempts

    def backoff(self, attempts: int, rng: random.Random) -> float:
        """Virtual seconds to idle before the next execution."""
        delay = self.base_delay * self.multiplier ** max(attempts - 1, 0)
        return delay * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True)
class BreakerConfig:
    """Thresholds for the per-tenant circuit breaker.

    The breaker watches a sliding window of the last ``window``
    execution outcomes.  Once the window is full and the failure
    fraction reaches ``failure_threshold`` it opens for ``cooldown``
    virtual seconds: fresh requests are shed (outcome ``shed``, kind
    ``circuit_open``, ``retry_after`` = remaining cooldown).  After the
    cooldown one probe request passes through (half-open); success
    closes the breaker and clears the window, failure re-opens it.
    """

    window: int = 8
    failure_threshold: float = 0.5
    cooldown: float = 5e-3

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if self.cooldown <= 0.0:
            raise ValueError("cooldown must be > 0")


CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Deterministic failure-rate breaker over virtual time."""

    def __init__(self, config: BreakerConfig) -> None:
        self.config = config
        self.state = CLOSED
        self._outcomes: Deque[bool] = deque(maxlen=config.window)
        self._open_until = 0.0
        self._probing = False
        self.opens = 0
        self.sheds = 0

    def allow(self, now: float) -> Tuple[bool, float]:
        """May a fresh request execute at virtual time *now*?

        Returns ``(allowed, retry_after)``; ``retry_after`` is the
        remaining cooldown when the request is shed, else ``0.0``.
        """
        if self.state == CLOSED:
            return True, 0.0
        if self.state == OPEN:
            if now >= self._open_until:
                self.state = HALF_OPEN
                self._probing = False
            else:
                self.sheds += 1
                return False, self._open_until - now
        # Half-open: exactly one probe may be in flight at a time.
        if self._probing:
            self.sheds += 1
            return False, 0.0
        self._probing = True
        return True, 0.0

    def record_success(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self.state = CLOSED
            self._outcomes.clear()
            self._probing = False
            return
        self._outcomes.append(False)

    def release_probe(self) -> None:
        """The half-open probe ended without a verdict on backend health
        (a quota denial): free its slot so the next fresh request
        probes instead."""
        self._probing = False

    def record_failure(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self._trip(now)
            return
        self._outcomes.append(True)
        if len(self._outcomes) < self.config.window:
            return
        failures = sum(self._outcomes)
        if failures / len(self._outcomes) >= self.config.failure_threshold:
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = OPEN
        self._open_until = now + self.config.cooldown
        self._outcomes.clear()
        self._probing = False
        self.opens += 1
