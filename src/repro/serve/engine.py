"""The serving engine: N user enclaves multiplexed through one GPU enclave.

This is the tentpole of the serving layer.  Each admitted tenant gets a
real attested session against the shared :class:`GpuEnclaveService` —
its own user enclave, 3-party key exchange, sealed channel, and bounded
message queues — and submits :class:`ServeRequest` callables into its
bounded request queue.  The engine then runs every tenant as a real
:class:`~repro.sim.engine.Process` on the shared discrete-event kernel:

* **Production happens in virtual time.**  A tenant process pulls its
  next request when the kernel schedules it to, so admission checks,
  sealed-request execution, and backpressure stalls of different
  tenants interleave on the shared machine in exactly the order a real
  serving loop would admit them.  Real bytes move, real AEAD
  seals/opens run, the GPU enclave dispatches real driver operations;
  the simulated time each request charges is measured by a fresh
  per-request recording listener (so the measurement is independent of
  the clock's absolute accumulator state — see :class:`_ChargeRecorder`)
  and split into GPU-engine-exclusive seconds (compute, dispatch,
  in-GPU crypto) vs overlappable host seconds.

* **Each tenant is one request state machine** (:class:`_TenantStream`):
  one named step per concern, one code path per request outcome.

* **The engine is the kernel's exclusive Resource.**  Host work of
  different tenants overlaps, GPU visits serialize under the
  configured scheduler, request timeouts expire lazily at dispatch
  time, and ``costs.gpu_context_switch`` is charged on every owner
  change.  The device's own ``gpu_ctx_switch`` charges from the serial
  production order are excluded from the measurements so switches are
  charged exactly once, by the schedule that actually decides them.

Timeout semantics are a modeling choice worth stating: a request whose
GPU visit expires on the virtual timeline already executed functionally
at production time (its allocations, transfers, and kernel effects
persist), but its engine seconds are *not* charged to the makespan —
the served/timed-out accounting reflects what a real serving loop would
have admitted to the engine, while functional state reflects the sealed
protocol's actual execution.

Under concurrent service the in-GPU crypto kernels run on per-chunk
batches too small to fill the SMs, so their measured engine seconds are
derated by ``costs.gpu_aead_multiuser_efficiency`` whenever more than
one tenant is admitted (Section 5.4) — the same assumption the analytic
Figures 8/9 model bakes into its crypto segments, which keeps the two
paths cross-checkable.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import (
    AdmissionError,
    CryptoError,
    DriverError,
    GpuAlreadyOwned,
)
from repro.obs import metrics as obs_metrics
from repro.obs.audit import audit_log
from repro.obs.slo import (
    bad_series,
    good_series,
    latency_series,
    shed_series,
    timeout_series,
)
from repro.obs.timeseries import TimeSeriesSampler
from repro.obs.tracer import span as _span
from repro.serve.queues import (
    BACKPRESSURE,
    DENIED,
    FAILED,
    MIGRATED,
    PENDING,
    SERVED,
    SHED,
    TIMEOUT,
    RequestQueue,
    ServeRequest,
)
from repro.serve.memo import RequestTimingMemo, costs_fingerprint
from repro.serve.report import (
    ServeReport,
    TenantReport,
    build_tenant_report,
    lane_events,
    report_totals,
)
from repro.serve.resilience import (
    KIND_CIRCUIT_OPEN,
    KIND_CRYPTO,
    KIND_DEVICE_LOST,
    KIND_QUEUE_FULL,
    KIND_QUOTA,
    KIND_REJECTED,
    KIND_TIMEOUT,
    BREAKER_KINDS,
    RECOVERY_KINDS,
    BreakerConfig,
    CircuitBreaker,
    RetryPolicy,
    classify_failure,
    tenant_rng,
)
from repro.serve.scheduler import FifoScheduler, Scheduler, make_scheduler
from repro.serve.session import SessionTable, TenantQuota, TenantRecord
from repro.sim.engine import EventClock, LaneRun, TenantLane, WorkUnit

#: Clock categories that occupy the GPU execution engine exclusively.
#: Everything else (ipc, copy pipelines, launches, mmio, session setup,
#: serve dispatch) is host-side work that overlaps across tenants.
GPU_ENGINE_CATEGORIES = frozenset({"gpu_compute", "gpu_dispatch",
                                   "crypto_gpu"})

#: Request-failure kinds that are security evidence: the sealed
#: protocol or the device detected tampering/loss, so the failure is
#: recorded on the audit log (the chaos detection verdict matches
#: injected faults against these records).
SECURITY_FAILURE_KINDS = frozenset({KIND_CRYPTO, KIND_DEVICE_LOST,
                                    KIND_REJECTED, "driver"})

#: Depth of each tenant's sealed channel message queue.  The memo token
#: includes it (a request's timing depends on it), and the
#: ``queue_full`` retry-after hint scales with it.
CHANNEL_QUEUE_DEPTH = 4

#: The telemetry series each settled outcome marks, in order.  Served
#: requests also observe their completion latency.
OUTCOME_SERIES = {
    SERVED: (good_series,),
    TIMEOUT: (bad_series, timeout_series),
    FAILED: (bad_series,),
    DENIED: (shed_series,),
    BACKPRESSURE: (shed_series,),
    SHED: (shed_series,),
}

#: Outcome of an execution that raised, by failure kind: a quota denial
#: and channel backlog are load shedding, everything else a failure.
_FAILURE_OUTCOMES = {KIND_QUOTA: DENIED, KIND_QUEUE_FULL: BACKPRESSURE}

_UNSET = object()


class _ChargeRecorder:
    """Accumulate one measured region's charges from a zero baseline.

    Measuring by subtracting clock snapshots makes the result depend on
    the *absolute* accumulator values (``(X + d) - X`` is not always
    ``d`` in floats), so identical requests measure ulp-differently at
    different clock positions.  A fresh listener accumulates each
    region's charges from 0.0, which makes the measured split a pure
    function of the charge sequence — exactly what the timing memo
    replays, so fast-path and slow-path reports agree bit for bit.

    The production order's incidental ``gpu_ctx_switch`` charges are
    excluded at accumulation time rather than subtracted afterwards:
    they land at interleaving-dependent points in the charge sequence,
    and float addition is not associative, so ``(a + ctx + b) - ctx``
    would leak the interleaving into the last ulp of the host split.
    """

    __slots__ = ("total", "by_category", "_clock")

    #: The one category whose charges depend on cross-tenant production
    #: order.  The virtual schedule charges switches itself, from the
    #: owner changes it actually decides, so measurements drop them.
    EXCLUDED = frozenset({"gpu_ctx_switch"})

    def __init__(self, clock) -> None:
        self._clock = clock
        self.total = 0.0
        self.by_category: Dict[str, float] = {}

    def __enter__(self) -> "_ChargeRecorder":
        self._clock.add_listener(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self._clock.remove_listener(self)

    def __call__(self, start: float, seconds: float, category: str) -> None:
        if category in self.EXCLUDED:
            return
        self.total += seconds
        self.by_category[category] = (
            self.by_category.get(category, 0.0) + seconds)

    def split(self, crypto_eff: float) -> Tuple[float, float]:
        """The measured charge as ``(host_seconds, gpu_engine_seconds)``.

        In-GPU crypto is derated by *crypto_eff* under concurrent
        service (see the module docstring).
        """
        gpu = sum(seconds for category, seconds in self.by_category.items()
                  if category in GPU_ENGINE_CATEGORIES)
        host = self.total - gpu
        if crypto_eff < 1.0:
            crypto = self.by_category.get("crypto_gpu", 0.0)
            gpu += crypto * (1.0 / crypto_eff - 1.0)
        return max(host, 0.0), max(gpu, 0.0)


class _GuardedApi:
    """Quota-enforcing facade over a tenant's :class:`HixApi`.

    Device-memory allocations are charged against the tenant's budget in
    the session table *before* the sealed request is built — a denial
    never reaches the GPU enclave, it is pure serving-layer policy.
    """

    def __init__(self, api, table: SessionTable, record: TenantRecord,
                 tokens: Iterator[int]) -> None:
        self._api = api
        self._table = table
        self._record = record
        self._tokens = tokens
        self._handles: Dict[int, int] = {}

    def cuMemAlloc(self, nbytes: int):
        token = next(self._tokens)
        self._table.charge_memory(self._record, token, nbytes)
        try:
            dptr = self._api.cuMemAlloc(nbytes)
        except DriverError:
            self._table.release_memory(self._record, token)
            raise
        self._handles[dptr.addr] = token
        return dptr

    def cuMemFree(self, dptr) -> None:
        self._api.cuMemFree(dptr)
        token = self._handles.pop(dptr.addr, None)
        if token is not None:
            self._table.release_memory(self._record, token)

    def release_allocations(self) -> None:
        """Release the quota charges of every live allocation: they died
        with the session's enclave context (destroyed with cleanse)."""
        for token in self._handles.values():
            self._table.release_memory(self._record, token)
        self._handles.clear()

    def __getattr__(self, name: str):
        return getattr(self._api, name)


class TenantClient:
    """One tenant's handle on the serving engine.

    Holds the bounded request queue (submission side) and, once the
    engine runs, the tenant's real attested API session.  Several
    clients may share one tenant name — they then share the tenant's
    quota and each consumes one of its ``max_contexts``.
    """

    def __init__(self, name: str, record: TenantRecord) -> None:
        self.name = name
        self.record = record
        self.queue = RequestQueue(record.quota.max_queue_depth)
        self.requests: List[ServeRequest] = []
        self.api: Optional[_GuardedApi] = None
        self.admission_error: Optional[str] = None
        #: Bumped on every session re-establishment after a fault; each
        #: executed request is stamped with the epoch it ran under.
        self.session_epoch = 0
        #: Called with the (guarded) API after a session recovery so the
        #: workload can re-provision device state (allocations, modules)
        #: that died with the old enclave context.
        self.on_recover: Optional[Callable[[Any], None]] = None
        # Served-time accounting feeding the queue-drain retry-after hint.
        self.served_seconds = 0.0
        self.served_count = 0
        #: Cooperative drain (fleet migration): set by
        #: :meth:`request_drain`; the tenant's unit stream finishes its
        #: in-flight work, tears the session down, and hands unexecuted
        #: requests to ``on_drained``.
        self.drain_requested = False
        self.on_drained: Optional[
            Callable[[List[ServeRequest]], None]] = None
        #: Requests handed off to another machine by a cooperative drain.
        self.migrated_away = 0
        #: Set on migrated-in clients: run ``on_recover`` right after
        #: session setup to re-provision device state that stayed behind
        #: (cleansed) on the source machine.
        self.reprovision_on_start = False
        #: When the engine runs with ``capture_units=True``, every
        #: virtual-time unit this tenant charged (session setup, serves,
        #: backoffs, teardown) — the ledger a lite-session profile
        #: replays without any crypto state.
        self.captured_units: Optional[List[WorkUnit]] = None

    def request_drain(self) -> None:
        """Ask the tenant's stream to stop pulling new requests."""
        self.drain_requested = True

    def submit(self, label: str, fn: Callable[[Any], Any],
               timeout: Any = _UNSET,
               extra_host_seconds: float = 0.0,
               memo_key: Any = None, batch_key: Any = None,
               batch_arg: Any = None, batch_fn: Any = None) -> ServeRequest:
        """Queue one request; raises :class:`BackpressureError` if full.

        *timeout* defaults to the tenant quota's ``request_timeout``;
        pass ``None`` explicitly to exempt a single request.  The
        ``memo_key``/``batch_*`` metadata opts the request into the
        engine's timing-memo fast path (see :class:`ServeRequest`).
        """
        if timeout is _UNSET:
            timeout = self.record.quota.request_timeout
        request = ServeRequest(label=label, fn=fn, timeout=timeout,
                               extra_host_seconds=extra_host_seconds,
                               memo_key=memo_key, batch_key=batch_key,
                               batch_arg=batch_arg, batch_fn=batch_fn)
        self.queue.submit(request)
        self.requests.append(request)
        return request

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for request in self.requests:
            counts[request.outcome] = counts.get(request.outcome, 0) + 1
        return counts


class _TenantStream:
    """One tenant's request state machine, pulled by its kernel lane.

    :meth:`run` is the lane's unit stream.  Each ``next()`` happens
    inside a kernel event at the tenant's virtual production time, so
    real sealed requests of different tenants interleave on the shared
    machine in the order a real serving loop would admit them.  Each
    concern is one step; a step that charges time yields its units
    (``yield from``) in production order:

    * :meth:`_admit` opens a context under quota or denies the queue;
    * :meth:`_open_session` attests, exchanges keys, re-provisions;
    * :meth:`_shed` drops a fresh request at an open breaker;
    * :meth:`_replay` charges a memo hit, deferring it to :meth:`_flush`;
    * :meth:`_execute` runs a request over the sealed path, measured;
    * :meth:`_serve` settles a replayed or executed success;
    * :meth:`_fail` settles a failure and retries it, backing off and
      running :meth:`_recover` when the session was lost;
    * :meth:`_teardown` destroys the context; :meth:`_hand_off` gives a
      drained tenant's backlog to its migration target.
    """

    def __init__(self, engine: "ServeEngine", client: "TenantClient",
                 crypto_eff: float) -> None:
        self.engine = engine
        self.client = client
        self.crypto_eff = crypto_eff
        self.kernel = engine._kernel
        self.policy = engine._retry_policy
        self.rng = (tenant_rng(engine._seed, client.name)
                    if self.policy is not None else None)
        self.breaker = (CircuitBreaker(engine._breaker_config)
                        if engine._breaker_config is not None else None)
        self.api: Optional[_GuardedApi] = None
        #: Memo hits whose functional work awaits the next flush.
        self.pending: List[ServeRequest] = []
        #: Failed requests due another execution, ahead of the queue.
        self.retries: Deque[ServeRequest] = deque()

    def run(self) -> Iterator[WorkUnit]:
        """The tenant's unit stream."""
        client = self.client
        if not self._admit():
            return
        yield from self._open_session()
        while client.queue or self.retries or self.pending:
            if client.drain_requested:
                # Cooperative drain: stop pulling work; the hand-off
                # below moves the rest of the backlog to another machine.
                break
            if not (client.queue or self.retries):
                # Only deferred work is left; a group that fails its
                # flush may still be owed retries.
                self._flush()
                continue
            if self.retries:
                # Retries re-execute over the real sealed path — never
                # from the memo, whose entry may describe the dead
                # session the first attempt failed against.
                yield from self._execute(self.retries.popleft(), None)
                continue
            request = client.queue.pop()
            if self.breaker is not None:
                allowed, wait_hint = self.breaker.allow(self.kernel.now)
                if not allowed:
                    yield from self._shed(request, wait_hint)
                    continue
            memo_key = None
            if self.engine._fast_path and request.memo_key is not None:
                memo_key = (request.memo_key, request.extra_host_seconds)
                cached = self.engine.memo.get(memo_key)
                if cached is not None:
                    yield from self._replay(request, *cached)
                    continue
            yield from self._execute(request, memo_key)
        self._flush()
        draining = client.drain_requested
        yield from self._teardown(draining)
        if draining:
            self._hand_off()

    # -- bookkeeping shared by the steps -------------------------------------

    def _mark(self, outcome: str, amount: float = 1.0,
              latency: Optional[float] = None) -> None:
        """Count *amount* requests settling as *outcome* in telemetry."""
        telemetry = self.engine.telemetry
        if telemetry is None:
            return
        now = self.kernel.now
        tenant = self.client.name
        for series in OUTCOME_SERIES[outcome]:
            telemetry.mark(series(tenant), now, amount)
        if latency is not None:
            telemetry.observe(latency_series(tenant), now, latency)

    def _serial_unit(self, charged: _ChargeRecorder, label: str) -> WorkUnit:
        """A measured region as serial host work: any engine seconds it
        charged are folded in rather than scheduled."""
        host, gpu = charged.split(self.crypto_eff)
        return WorkUnit(host + gpu, None, label)

    # -- steps ---------------------------------------------------------------

    def _admit(self) -> bool:
        """Open a context under the tenant's quota, or deny its queue."""
        client = self.client
        try:
            self.engine.table.open_context(client.record)
        except AdmissionError as exc:
            client.admission_error = str(exc)
            kind = classify_failure(exc)
            denied = len(client.queue)
            while client.queue:
                request = client.queue.pop()
                request.outcome = DENIED
                request.error = str(exc)
                request.error_kind = kind
            if denied:
                self._mark(DENIED, denied)
            return False
        return True

    def _open_session(self) -> Iterator[WorkUnit]:
        """Attestation, key exchange and context creation, measured."""
        engine, client = self.engine, self.client
        machine = engine.machine
        with _ChargeRecorder(machine.clock) as charged:
            api = machine.secure_session(
                engine.service, name=client.name,
                channel_queue_depth=CHANNEL_QUEUE_DEPTH)
            with _span("serve.session-setup", "serve", tenant=client.name,
                       backend=machine.config.backend):
                api.cuCtxCreate()
        yield self._serial_unit(charged, "session-setup")
        # Published only now: faults read ``client.api`` at fault time.
        self.api = client.api = _GuardedApi(api, engine.table, client.record,
                                            engine._alloc_tokens)
        if client.reprovision_on_start and client.on_recover is not None:
            # Migrated-in session: device state stayed behind (cleansed)
            # on the source machine, so the workload's recovery hook
            # re-provisions it against the fresh session.
            with _ChargeRecorder(machine.clock) as charged:
                with _span("serve.session-reprovision", "serve",
                           tenant=client.name):
                    client.on_recover(self.api)
            yield self._serial_unit(charged, "reprovision")

    def _shed(self, request: ServeRequest,
              wait_hint: float) -> Iterator[WorkUnit]:
        """The open breaker drops a fresh request unexecuted."""
        request.outcome = SHED
        request.error = "circuit breaker open"
        request.error_kind = KIND_CIRCUIT_OPEN
        request.retry_after = (wait_hint if wait_hint > 0.0
                               else self.engine._queue_retry_after(
                                   self.client))
        obs_metrics.registry().counter("serve.retry.shed").inc()
        self._mark(SHED)
        yield WorkUnit(0.0, None, request.label)

    def _replay(self, request: ServeRequest, host: float,
                gpu: float) -> Iterator[WorkUnit]:
        """A memo hit: charge the cached split now, run it at the next
        :meth:`_flush`."""
        request.host_seconds = host
        request.gpu_seconds = gpu
        request.session_epoch = self.client.session_epoch
        self.pending.append(request)
        yield from self._serve(request)

    def _execute(self, request: ServeRequest,
                 memo_key: Any) -> Iterator[WorkUnit]:
        """Run *request* over the real sealed path, measured from zero."""
        engine = self.engine
        clock = engine.machine.clock
        self._flush()
        request.attempts += 1
        failure: Optional[BaseException] = None
        with _ChargeRecorder(clock) as charged:
            with _span("serve.request", "serve", tenant=self.client.name,
                       request=request.label, seq=request.seq):
                clock.advance(engine.machine.costs.serve_dispatch_latency,
                              "serve_dispatch")
                if request.extra_host_seconds > 0.0:
                    clock.advance(request.extra_host_seconds, "launch")
                try:
                    request.result = request.fn(self.api)
                except (DriverError, CryptoError) as exc:
                    failure = exc
        request.host_seconds, request.gpu_seconds = charged.split(
            self.crypto_eff)
        request.session_epoch = self.client.session_epoch
        if failure is not None:
            yield from self._fail(request, failure)
            return
        if memo_key is not None:
            # Only successful runs are memoized: a failure's timing
            # depends on where it failed, not on the request shape.
            engine.memo.put(memo_key, request.host_seconds,
                            request.gpu_seconds)
        yield from self._serve(request)

    def _serve(self, request: ServeRequest) -> Iterator[WorkUnit]:
        """Settle a request whose (replayed or executed) run succeeded."""
        client = self.client
        host, gpu = request.host_seconds, request.gpu_seconds
        client.served_seconds += host + gpu
        client.served_count += 1
        if self.breaker is not None:
            self.breaker.record_success(self.kernel.now)
        if gpu <= 0.0:
            # Host-only request (malloc/free/module-load): served
            # inline, never visits the engine queue.
            request.outcome = SERVED
            self._mark(SERVED, latency=host)
            yield WorkUnit(host, None, request.label)
            return
        pulled_at, attempts = self.kernel.now, request.attempts

        def settle(outcome: str) -> None:
            if request.attempts != attempts:
                return  # ran again since (deferred flush failed): stale
            if outcome == "served":
                request.outcome = SERVED
                self._mark(SERVED, latency=self.kernel.now - pulled_at
                           + request.gpu_seconds)
            else:
                request.outcome = TIMEOUT
                request.error_kind = KIND_TIMEOUT
                self._mark(TIMEOUT)

        yield WorkUnit(host, gpu, request.label, deadline=request.timeout,
                       on_outcome=settle)

    def _fail(self, request: ServeRequest,
              exc: BaseException) -> Iterator[WorkUnit]:
        """Settle a failed execution; re-queue it if the policy retries."""
        kind = classify_failure(exc)
        request.outcome = _FAILURE_OUTCOMES.get(kind, FAILED)
        request.error = str(exc)
        request.error_kind = kind
        if request.outcome == BACKPRESSURE:
            request.retry_after = self.engine._queue_retry_after(self.client)
        now = self.kernel.now
        if self.breaker is not None:
            if kind in BREAKER_KINDS:
                self.breaker.record_failure(now)
            else:
                # A quota denial is policy, not backend health: no
                # verdict, but a half-open probe slot is free again.
                self.breaker.release_probe()
        self._mark(request.outcome)
        if kind in SECURITY_FAILURE_KINDS:
            audit_log().record(
                "serve.fault_detected", self.client.name, time=now,
                ok=False, detail=f"{request.label}: {request.error}",
                error_kind=kind)
        # A failed request consumed host time only; any engine time it
        # managed to charge is not scheduled.
        yield WorkUnit(request.host_seconds + request.gpu_seconds, None,
                       request.label)
        policy = self.policy
        if policy is None or not policy.retries(kind, request.attempts):
            return
        delay = policy.backoff(request.attempts, self.rng)
        registry = obs_metrics.registry()
        registry.counter("serve.retry.attempts").inc()
        registry.histogram("serve.retry.backoff_seconds").observe(delay)
        yield WorkUnit(delay, None, f"{request.label}:backoff", idle=True)
        if kind in RECOVERY_KINDS:
            yield from self._recover()
        request.outcome = PENDING
        self.retries.append(request)

    def _recover(self) -> Iterator[WorkUnit]:
        """Re-establish the session after enclave/session loss.

        Runs the full trust path again — fresh user enclave, attestation
        of the (possibly re-booted) GPU enclave, 3-party key exchange —
        measured and charged to the tenant like any other work.  Device
        state from the old session is gone (the enclave context was
        destroyed with cleanse), so quota charges for old allocations
        are released, the timing memo is invalidated (stale splits must
        never replay against a fresh session), and the client's
        ``on_recover`` hook re-provisions workload state.
        """
        engine, client = self.engine, self.client
        machine = engine.machine
        with _ChargeRecorder(machine.clock) as charged:
            with _span("serve.session-recovery", "serve",
                       tenant=client.name, backend=machine.config.backend):
                if not engine.service.alive:
                    engine._restore_service()
                self.api.release_allocations()
                api = machine.secure_session(
                    engine.service, name=client.name,
                    channel_queue_depth=CHANNEL_QUEUE_DEPTH)
                api.cuCtxCreate()
                self.api._api = api
                client.session_epoch += 1
                engine.memo.invalidate("session re-established after fault")
                if client.on_recover is not None:
                    client.on_recover(self.api)
        obs_metrics.registry().counter("serve.retry.session_recoveries").inc()
        audit_log().record(
            "serve.session_recovered", client.name, time=self.kernel.now,
            detail=f"session re-established at epoch "
                   f"{client.session_epoch} (fresh attestation + key "
                   f"exchange, memo invalidated)",
            epoch=client.session_epoch)
        yield self._serial_unit(charged, "session-recovery")

    def _flush(self) -> None:
        """Run the deferred functional work of memo-hit requests.

        Real bytes still move through the sealed protocol — runs of
        consecutive requests that share a ``batch_key`` coalesce
        through the batch ops (one AEAD seal/open per fused frame) —
        but the clock is suppressed: their virtual time was already
        charged from the memo, bit-identically to the slow path.

        A group whose deferred execution fails (a fault landed between
        the charge and the flush) fails as one: each request counts an
        attempt and, when the retry policy allows, is re-queued for a
        full slow-path re-execution.
        """
        pending = self.pending
        if not pending:
            return
        with self.engine.machine.clock.suppressed():
            index = 0
            while index < len(pending):
                head = pending[index]
                group = [head]
                if head.batch_key is not None and head.batch_fn is not None:
                    while (index + len(group) < len(pending)
                           and pending[index + len(group)].batch_key
                           == head.batch_key):
                        group.append(pending[index + len(group)])
                try:
                    if len(group) > 1:
                        head.batch_fn(self.api, group)
                    else:
                        head.result = head.fn(self.api)
                except (DriverError, CryptoError) as exc:
                    kind = classify_failure(exc)
                    for request in group:
                        request.attempts += 1
                        request.outcome = FAILED
                        request.error = str(exc)
                        request.error_kind = kind
                        if self.policy is not None and self.policy.retries(
                                kind, request.attempts):
                            self.retries.append(request)
                    self._mark(FAILED, len(group))
                    if kind in SECURITY_FAILURE_KINDS:
                        audit_log().record(
                            "serve.fault_detected", self.client.name,
                            time=self.kernel.now, ok=False,
                            detail=f"deferred flush failed: {exc}",
                            error_kind=kind)
                index += len(group)
        pending.clear()

    def _teardown(self, draining: bool) -> Iterator[WorkUnit]:
        """Destroy the context with cleanse and close the session."""
        engine, client = self.engine, self.client
        with _ChargeRecorder(engine.machine.clock) as charged:
            with _span("serve.teardown", "serve", tenant=client.name):
                try:
                    self.api.cuCtxDestroy()
                except (DriverError, CryptoError):
                    # The session/device died and no retry policy
                    # resurrected it; quota bookkeeping still closes.
                    pass
                if draining:
                    # The target re-provisions its own allocations.
                    self.api.release_allocations()
                engine.table.close_context(client.record)
        # Session teardown is a memo-invalidation point.  Entries are
        # only dropped once the *last* context closes — the splits stay
        # valid between tenants of one run (they share the session
        # configuration), but never outlive the sessions they were
        # measured against.
        if all(record.contexts_open == 0 for record in engine.table.tenants):
            engine.memo.invalidate("all sessions closed")
        audit_log().record(
            "serve.session_closed", client.name, time=self.kernel.now,
            detail="enclave context destroyed with cleanse"
                   + (" (cooperative drain)" if draining else ""),
            epoch=client.session_epoch, drained=draining)
        yield self._serial_unit(charged, "teardown")

    def _hand_off(self) -> None:
        """Give the unexecuted backlog to the drain's migration target.

        Runs at the pull after the teardown unit charged, so the
        target's fresh session setup starts strictly after the source
        session closed — sessions move between isolation domains only
        via full re-establishment.
        """
        client = self.client
        remaining: List[ServeRequest] = list(self.retries)
        while client.queue:
            remaining.append(client.queue.pop())
        if remaining:
            handed = set(map(id, remaining))
            client.requests = [request for request in client.requests
                               if id(request) not in handed]
            for request in remaining:
                request.outcome = MIGRATED
                request.error = None
                request.error_kind = None
        client.migrated_away = len(remaining)
        obs_metrics.registry().counter("serve.migrations.drained").inc()
        if client.on_drained is not None:
            client.on_drained(remaining)


def _captured(units: Iterator[WorkUnit],
              ledger: List[WorkUnit]) -> Iterator[WorkUnit]:
    """Tee each unit's charge (not its callbacks) into *ledger*.

    Replaying the ledger charges virtual time bit-identically without
    touching any crypto state — the lite-session profile.
    """
    for unit in units:
        ledger.append(WorkUnit(unit.host_seconds, unit.gpu_seconds,
                               unit.label, deadline=unit.deadline,
                               idle=unit.idle))
        yield unit


class ServeEngine:
    """Multi-tenant serving loop over one GPU enclave."""

    def __init__(self, machine, service=None,
                 scheduler: Union[str, Scheduler] = "fair",
                 max_tenants: int = 8,
                 default_quota: Optional[TenantQuota] = None,
                 crypto_efficiency: Optional[float] = None,
                 fast_path: bool = True,
                 retry_policy: Optional[RetryPolicy] = None,
                 breaker: Optional[BreakerConfig] = None,
                 seed: int = 0,
                 capture_units: bool = False,
                 telemetry: Optional[TimeSeriesSampler] = None) -> None:
        self._machine = machine
        self._service = (service if service is not None
                         else machine.boot_secure())
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler, machine.costs)
        self._scheduler = scheduler
        self.table = SessionTable(max_tenants=max_tenants,
                                  default_quota=default_quota)
        self._clients: List[TenantClient] = []
        self._alloc_tokens = itertools.count(1)
        self._crypto_efficiency = crypto_efficiency
        self._fast_path = fast_path
        #: Resilience knobs (repro.serve.resilience); both default off,
        #: in which case failures are terminal exactly as before.
        self._retry_policy = retry_policy
        self._breaker_config = breaker
        self._seed = seed
        #: Tee every tenant's charged units into
        #: ``client.captured_units`` (lite-session profile capture).
        self.capture_units = capture_units
        #: Windowed time-series sampler (repro.obs.timeseries).  When
        #: set, the engine attaches it to the run's kernel and records
        #: per-request outcome marks and completion latencies at their
        #: virtual times.  Pure observation: a telemetry-enabled run is
        #: bit-identical in simulated time and reports to a disabled one
        #: (pinned by tests/property/test_prop_telemetry.py).
        self.telemetry = telemetry
        self._kernel: Optional[EventClock] = None
        # Run state between start() and finish() (fleet shared-kernel
        # runs hold several engines open across one kernel drain).
        self._lane_run: Optional[LaneRun] = None
        self._lane_names: List[str] = []
        self._lane_name_set: Set[str] = set()
        self._lane_clients: List[Optional[TenantClient]] = []
        self._crypto_eff = 1.0
        #: Timing memo for the fast path; shared across tenants of one
        #: engine (they share the session configuration the key tokens).
        self.memo = RequestTimingMemo()
        #: The memo's ``(hits, misses)`` when the current run started.
        self._memo_mark = (0, 0)

    def _memo_token(self, crypto_eff: float):
        """Everything that parameterizes what an identical request charges."""
        config = self._machine.config
        return (config.backend, config.suite_name, config.data_inflation,
                CHANNEL_QUEUE_DEPTH, crypto_eff,
                costs_fingerprint(self._machine.costs))

    @property
    def service(self):
        return self._service

    @property
    def machine(self):
        return self._machine

    @property
    def scheduler(self) -> Scheduler:
        return self._scheduler

    @scheduler.setter
    def scheduler(self, scheduler: Scheduler) -> None:
        """Swap the arbitration policy (chaos wraps it adversarially)."""
        self._scheduler = scheduler

    @property
    def clients(self) -> List[TenantClient]:
        return list(self._clients)

    def add_tenant(self, name: str,
                   quota: Optional[TenantQuota] = None) -> TenantClient:
        """Admit *name* (or attach another client to an admitted tenant)."""
        record = self.table.admit(name, quota)
        client = TenantClient(name, record)
        self._clients.append(client)
        return client

    def _resolve_crypto_efficiency(self) -> float:
        if self._crypto_efficiency is not None:
            return self._crypto_efficiency
        if len({c.name for c in self._clients}) > 1:
            return self._machine.backend.multiuser_efficiency(
                self._machine.costs)
        return 1.0

    # -- resilience --------------------------------------------------------

    def _queue_retry_after(self, client: TenantClient) -> float:
        """Retry-after hint for ``queue_full``: how long until the
        channel backlog likely drained.

        The drain rate is the tenant's observed mean service time per
        completed request; the backlog that must drain is bounded by the
        channel queue depth.  Before any request completed, the dispatch
        latency is the only calibrated per-request cost available.
        """
        if client.served_count:
            per_request = client.served_seconds / client.served_count
        else:
            per_request = self._machine.costs.serve_dispatch_latency
        return per_request * CHANNEL_QUEUE_DEPTH

    def _restore_service(self) -> None:
        """Bring back a dead GPU enclave service.

        A killed GPU enclave leaves GECS bound (termination protection,
        Section 4.2.3), so a re-boot attempt raises
        :class:`GpuAlreadyOwned` and the only path back is a cold boot
        — exactly the lifecycle the paper prescribes.
        """
        machine = self._machine
        try:
            self._service = machine.boot_secure()
        except GpuAlreadyOwned:
            machine.cold_boot()
            self._service = machine.boot_secure()
        obs_metrics.registry().counter("serve.retry.service_restores").inc()
        audit_log().record(
            "serve.service_restored", "machine", time=self._kernel.now,
            detail="GPU service re-established after device loss "
                   "(cold boot when GECS stayed bound)",
            backend=machine.config.backend)

    # -- lanes -------------------------------------------------------------

    def _client_lane(self, client: TenantClient) -> TenantLane:
        """*client*'s kernel lane, named uniquely in this run."""
        units = _TenantStream(self, client, self._crypto_eff).run()
        if self.capture_units:
            client.captured_units = []
            units = _captured(units, client.captured_units)
        quota = client.record.quota
        return self._named_lane(
            TenantLane(units=units, weight=quota.weight,
                       max_inflight=quota.max_inflight, name=client.name),
            client)

    def _named_lane(self, lane: TenantLane,
                    client: Optional[TenantClient]) -> TenantLane:
        """Register *lane* under a name unique in this run: its own (or
        ``lane<index>``), suffixed ``#<index>`` if already taken."""
        index = len(self._lane_names)
        name = lane.name or f"lane{index}"
        if name in self._lane_name_set:
            name = f"{name}#{index}"
        lane.name = name
        self._lane_names.append(name)
        self._lane_name_set.add(name)
        self._lane_clients.append(client)
        return lane

    def start(self, kernel: EventClock,
              extra_lanes: Sequence[TenantLane] = ()) -> LaneRun:
        """Prepare this engine's lanes on *kernel* without draining it.

        The fleet tier calls ``start`` on every machine's engine with
        ONE shared kernel, drains it once, then reads each engine's
        :meth:`finish` — the machines' virtual timelines interleave
        instead of running back to back.  ``run`` is exactly
        ``start`` + ``kernel.run()`` + ``finish``, so a bare engine run
        and a 1-machine fleet produce bit-identical reports.

        *extra_lanes* ride along on the same engine Resource without a
        tenant client — the lite-session path (see
        :mod:`repro.fleet.lite`): their charges are analytic, so they
        need no crypto state and their report rows are read straight
        off the lane accounting.
        """
        self._kernel = kernel
        if self.telemetry is not None:
            # Pure observation of the kernel's charges: drives the
            # sampler's window boundaries without scheduling events or
            # advancing any clock, so simulated time is unperturbed.
            self.telemetry.attach(kernel)
        self._scheduler.reset()
        self._crypto_eff = self._resolve_crypto_efficiency()
        # (Re)bind the memo to this run's timing configuration — any
        # cost-model or session-config change invalidates cached splits.
        self.memo.configure(self._memo_token(self._crypto_eff))
        self._memo_mark = (self.memo.hits, self.memo.misses)

        self._lane_names = []
        self._lane_name_set = set()
        self._lane_clients = []
        lanes = [self._client_lane(client) for client in self._clients]
        lanes += [self._named_lane(lane, None) for lane in extra_lanes]
        # A plain FIFO scheduler selects min-(ready, seq) — exactly the
        # kernel-native arbitration — so hand the Resource None and let
        # it use its O(log lanes) head heap instead of an O(lanes) scan
        # per dispatch.  Identical decisions (the scheduler docstring
        # pins the equivalence); only subclasses (chaos wrappers) keep
        # the pluggable path.
        scheduler = self._scheduler
        if type(scheduler) is FifoScheduler:
            scheduler = None
        self._lane_run = LaneRun(lanes, scheduler,
                                 self._machine.costs.gpu_context_switch,
                                 kernel)
        return self._lane_run

    def receive_migration(self, name: str, requests: List[ServeRequest],
                          session_epoch: int,
                          quota: Optional[TenantQuota] = None,
                          on_recover: Optional[Callable[[Any], None]] = None,
                          ) -> TenantClient:
        """Admit a drained-out session mid-run and start serving it.

        The migration protocol's landing half: a fresh
        :class:`TenantClient` at ``session_epoch`` (the source's epoch
        plus one — requests served here are distinguishable from
        pre-drain ones, which keeps the chaos layer's cleanse checks
        meaningful across machines), the source's unexecuted requests
        resubmitted in order, and a new lane — started at the kernel's
        current time — whose stream runs the full trust path
        (attestation, key exchange, ``on_recover`` re-provisioning)
        before serving.  Nothing but the request ledger crosses
        machines: no keys, no device state, no memo entries.
        """
        if self._lane_run is None:
            raise RuntimeError("receive_migration requires a started run")
        client = self.add_tenant(name, quota)
        client.session_epoch = session_epoch
        client.on_recover = on_recover
        client.reprovision_on_start = True
        for request in requests:
            request.outcome = PENDING
            client.queue.submit(request)
            client.requests.append(request)
        self._lane_run.add_lane(self._client_lane(client))
        obs_metrics.registry().counter("serve.migrations.received").inc()
        return client


    def finish(self) -> ServeReport:
        """Assemble the report after the shared kernel has drained."""
        if self._lane_run is None:
            raise RuntimeError("finish requires a started run")
        result = self._lane_run.finish()
        self._lane_run = None
        lane_names = self._lane_names
        gpu_busy = sum(t.gpu_busy for t in result.timelines)
        gpu_utilization = (gpu_busy / result.makespan
                           if result.makespan > 0.0 else 0.0)
        tenants: List[TenantReport] = []
        for index, client in enumerate(self._lane_clients):
            timeline = result.timelines[index]
            if client is not None:
                tenants.append(build_tenant_report(
                    client, lane_names[index], timeline,
                    result.stall_seconds[index]))
            else:
                # Lite lane: no request ledger — the engine-visit
                # accounting is the whole story.
                tenants.append(TenantReport(
                    name=lane_names[index],
                    submitted=result.served[index] + result.timed_out[index],
                    rejected_submits=0,
                    served=result.served[index],
                    timed_out=result.timed_out[index],
                    denied=0, backpressured=0, failed=0,
                    finish_time=timeline.finish_time,
                    gpu_busy=timeline.gpu_busy,
                    host_busy=timeline.host_busy,
                    waits=timeline.waits,
                    stall_seconds=result.stall_seconds[index],
                    peak_memory=0, quota_denials=0))
        report = ServeReport(
            scheduler=self._scheduler.name,
            makespan=result.makespan,
            context_switches=result.context_switches,
            gpu_utilization=gpu_utilization,
            tenants=tenants,
            lane_source=functools.partial(lane_events, lane_names,
                                          result.log),
        )
        if self.telemetry is not None:
            self.telemetry.finalize(report.makespan)
        self._publish_metrics(report)
        return report

    def run(self, kernel: Optional[EventClock] = None) -> ServeReport:
        """Execute every queued request and return the serving report.

        One kernel :class:`~repro.sim.engine.Process` per tenant drives
        the tenant's unit stream to exhaustion over the shared engine
        Resource; the report is read off the kernel's lane accounting.

        *kernel* lets a caller pre-schedule events on the run's event
        clock before the lanes start — the chaos layer's injection
        point.  A fresh kernel with no extra events is exactly the
        default, so an idle chaos harness is a true no-op.
        """
        kernel = kernel if kernel is not None else EventClock()
        self.start(kernel)
        kernel.run()
        return self.finish()

    def _publish_metrics(self, report: ServeReport) -> None:
        """Mirror the run's report into the process metrics registry.

        Counters accumulate across runs (they are process totals, like
        the engine's kernel counters); the gauges describe the most
        recent run.  Pure observability — nothing reads these back into
        scheduling decisions.
        """
        registry = obs_metrics.registry()
        registry.counter(
            f"serve.backend.{self._machine.config.backend}.runs").inc()
        for name, total in report_totals(report).items():
            if total:
                registry.counter(name).inc(total)
        registry.counter("serve.ctx_switches").inc(report.context_switches)
        # The run's memo hits and misses: whether the fast path engaged.
        hits, misses = self._memo_mark
        registry.counter("serve.memo.hits").inc(self.memo.hits - hits)
        registry.counter("serve.memo.misses").inc(self.memo.misses - misses)
        registry.gauge("serve.makespan_seconds").set(report.makespan)
        registry.gauge("serve.gpu_utilization").set(report.gpu_utilization)
        gpu_hist = registry.histogram("serve.request_gpu_seconds")
        host_hist = registry.histogram("serve.request_host_seconds")
        wait_hist = registry.histogram("serve.tenant_wait_seconds")
        for client in self._clients:
            for request in client.requests:
                gpu_hist.observe(request.gpu_seconds)
                host_hist.observe(request.host_seconds)
        for tenant in report.tenants:
            wait_hist.observe(tenant.waits)
