"""Bounded per-tenant request queues with explicit backpressure.

Each tenant submits :class:`ServeRequest` callables into its own
bounded queue.  A full queue rejects the submission with
:class:`~repro.errors.BackpressureError` — the serving layer never
buffers unboundedly, mirroring the bounded sealed-message queues in
``repro.core.channel`` one level down.  The two levels compose: the
serve queue bounds *accepted but unexecuted* requests, the channel
queue bounds *in-flight sealed messages*, and a channel
``QueueFullError`` surfacing mid-request is translated back into
backpressure by the engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional

from repro.errors import BackpressureError
from repro.obs import metrics as obs_metrics

# Request outcomes, settled by the engine run.
PENDING = "pending"
SERVED = "served"
TIMEOUT = "timeout"
DENIED = "denied"          # quota (AdmissionError) during execution
BACKPRESSURE = "backpressure"  # channel queue overflow during execution
FAILED = "failed"          # structured error reply from the GPU enclave
SHED = "shed"              # dropped by the tenant's open circuit breaker
MIGRATED = "migrated"      # handed to another machine by a fleet drain


@dataclass
class ServeRequest:
    """One unit of tenant work: a callable over the tenant's API handle.

    ``fn`` receives the tenant's (quota-guarded) :class:`HixApi` proxy
    and may issue any number of sealed driver calls; the engine measures
    the simulated time they charge and schedules it on the virtual
    timeline.  ``extra_host_seconds`` adds modeled host time not
    captured by the calls themselves (e.g. launch overhead for launches
    elided by chunk capping — the serving analogue of the harness's
    launch-count correction).

    The optional fast-path metadata is what lets the engine memoize and
    batch the request (see :mod:`repro.serve.memo`): ``memo_key``
    identifies the request's *timing shape* (op + size + config-relevant
    parameters) — requests without one are never memoized; ``batch_key``
    marks runs of consecutive requests whose deferred functional
    execution may be coalesced through the sealed batch protocol, via
    ``batch_fn(api, requests)`` with ``batch_arg`` carrying each
    request's per-item payload.
    """

    label: str
    fn: Callable[[Any], Any]
    timeout: Optional[float] = None
    extra_host_seconds: float = 0.0
    memo_key: Optional[Any] = None
    batch_key: Optional[Any] = None
    batch_arg: Any = None
    batch_fn: Optional[Callable[[Any, Any], None]] = None
    seq: int = -1
    outcome: str = PENDING
    result: Any = None
    error: Optional[str] = None
    host_seconds: float = 0.0
    gpu_seconds: float = 0.0
    #: Structured failure cause (see :mod:`repro.serve.resilience`):
    #: ``timeout`` / ``queue_full`` / ``crypto`` / ``device_lost`` /
    #: ``quota`` / ``rejected`` / ``driver`` / ``circuit_open``.
    error_kind: Optional[str] = None
    #: For retryable rejections (``queue_full``, ``circuit_open``): the
    #: engine's hint, in virtual seconds, for when a resubmission is
    #: likely to succeed — derived from the observed queue drain rate.
    retry_after: Optional[float] = None
    #: How many times the request actually executed (0 if it only ever
    #: charged a memoized split; failures and retries each count one).
    attempts: int = 0
    #: Session epoch the functional execution ran under; bumped on every
    #: session re-establishment, so callers can tell whether two
    #: requests observed the same device state.
    session_epoch: int = 0


@dataclass
class QueueCounters:
    accepted: int = 0
    rejected: int = 0


class RequestQueue:
    """FIFO of pending requests for one tenant, bounded by quota."""

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth!r}")
        self.depth = depth
        self.counters = QueueCounters()
        self._entries: Deque[ServeRequest] = deque()
        self._seq = 0

    def submit(self, request: ServeRequest) -> ServeRequest:
        """Enqueue, or raise :class:`BackpressureError` if full."""
        registry = obs_metrics.registry()
        if len(self._entries) >= self.depth:
            self.counters.rejected += 1
            registry.counter("serve.queue_rejected").inc()
            raise BackpressureError(
                f"request queue full ({self.depth} pending); "
                f"rejected {request.label!r}")
        request.seq = self._seq
        self._seq += 1
        self.counters.accepted += 1
        registry.counter("serve.queue_accepted").inc()
        self._entries.append(request)
        return request

    def pop(self) -> ServeRequest:
        return self._entries.popleft()

    def peek(self) -> Optional[ServeRequest]:
        return self._entries[0] if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self):
        return iter(self._entries)
