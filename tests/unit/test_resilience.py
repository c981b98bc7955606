"""Unit tests for the serving resilience layer (repro.serve.resilience).

Covers failure classification, the retry/backoff policy, the circuit
breaker's state machine, and the engine-level behaviours built on them:
structured error kinds on failed requests, queue-full retry-after
hints, and transparent retry to eventual success.
"""

import numpy as np
import pytest

from repro.errors import (
    AdmissionError,
    AttestationError,
    BackpressureError,
    CertChainError,
    CryptoError,
    DriverError,
    GpuUnavailable,
    IntegrityError,
    QueueFullError,
    ReplayError,
    RequestRejected,
)
from repro.obs.audit import audit_log
from repro.obs.slo import bad_series, good_series
from repro.obs.timeseries import TimeSeriesSampler
from repro.serve import BreakerConfig, CircuitBreaker, RetryPolicy, ServeEngine
from repro.serve.queues import BACKPRESSURE, DENIED, FAILED, SERVED
from repro.serve.resilience import (
    KIND_ATTESTATION,
    KIND_CERT_CHAIN,
    KIND_CRYPTO,
    KIND_DEVICE_LOST,
    KIND_DRIVER,
    KIND_QUEUE_FULL,
    KIND_QUOTA,
    KIND_REJECTED,
    CLOSED,
    HALF_OPEN,
    OPEN,
    classify_failure,
    tenant_rng,
)
from repro.serve.session import TenantQuota
from repro.system import Machine, MachineConfig


class TestClassifyFailure:
    @pytest.mark.parametrize("exc,kind", [
        (AdmissionError("quota"), KIND_QUOTA),
        (QueueFullError("full"), KIND_QUEUE_FULL),
        (BackpressureError("full"), KIND_QUEUE_FULL),
        (GpuUnavailable("gone"), KIND_DEVICE_LOST),
        (IntegrityError("mac"), KIND_CRYPTO),
        (ReplayError("nonce"), KIND_CRYPTO),
        (AttestationError("quote"), KIND_ATTESTATION),
        (CertChainError("forged"), KIND_CERT_CHAIN),
        (CryptoError("aead"), KIND_CRYPTO),
        (RequestRejected("nope", "EINVAL"), KIND_REJECTED),
        (DriverError("unknown"), KIND_DRIVER),
    ])
    def test_mapping(self, exc, kind):
        assert classify_failure(exc) == kind

    def test_untrusted_gpu_is_device_lost(self):
        exc = DriverError("GPU enclave terminated; GPU no longer trusted")
        assert classify_failure(exc) == KIND_DEVICE_LOST


class TestTenantRng:
    def test_deterministic_per_tenant(self):
        a = tenant_rng(7, "alice").random()
        b = tenant_rng(7, "alice").random()
        assert a == b

    def test_distinct_across_tenants_and_seeds(self):
        draws = {tenant_rng(seed, name).random()
                 for seed in (0, 1) for name in ("alice", "bob")}
        assert len(draws) == 4


class TestRetryPolicy:
    def test_backoff_grows_geometrically(self):
        policy = RetryPolicy(base_delay=1e-3, multiplier=2.0, jitter=0.0)
        rng = tenant_rng(0, "t")
        delays = [policy.backoff(n, rng) for n in (1, 2, 3)]
        assert delays == [1e-3, 2e-3, 4e-3]

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy(base_delay=1e-3, multiplier=1.0, jitter=0.5)
        first = policy.backoff(1, tenant_rng(3, "t"))
        again = policy.backoff(1, tenant_rng(3, "t"))
        assert first == again
        assert 1e-3 <= first <= 1.5e-3

    def test_retries_respects_kind_and_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.retries(KIND_QUEUE_FULL, 1)
        assert policy.retries(KIND_DEVICE_LOST, 2)
        assert not policy.retries(KIND_DEVICE_LOST, 3)
        assert not policy.retries(KIND_QUOTA, 1)

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay": -1e-3},
        {"multiplier": 0.5},
        {"jitter": -0.1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestCircuitBreaker:
    def _tripped(self, config=None):
        breaker = CircuitBreaker(config or BreakerConfig(window=4,
                                                         failure_threshold=0.5,
                                                         cooldown=1e-3))
        for _ in range(4):
            breaker.record_failure(0.0)
        return breaker

    def test_closed_allows(self):
        breaker = CircuitBreaker(BreakerConfig())
        allowed, hint = breaker.allow(0.0)
        assert allowed and hint == 0.0
        assert breaker.state == CLOSED

    def test_trips_at_threshold(self):
        breaker = self._tripped()
        assert breaker.state == OPEN
        assert breaker.opens == 1
        allowed, hint = breaker.allow(0.0)
        assert not allowed
        assert hint == pytest.approx(1e-3)

    def test_half_open_probe_then_close(self):
        breaker = self._tripped()
        allowed, _ = breaker.allow(2e-3)  # past cooldown: one probe
        assert allowed
        assert breaker.state == HALF_OPEN
        breaker.record_success(2e-3)
        assert breaker.state == CLOSED
        assert breaker.allow(2e-3)[0]

    def test_half_open_failure_retrips(self):
        breaker = self._tripped()
        breaker.allow(2e-3)
        breaker.record_failure(2e-3)
        assert breaker.state == OPEN
        assert breaker.opens == 2

    def test_successes_keep_it_closed(self):
        breaker = CircuitBreaker(BreakerConfig(window=4))
        for _ in range(16):
            breaker.record_success(0.0)
        assert breaker.state == CLOSED


def _engine(**kwargs):
    machine = Machine(MachineConfig(data_inflation=4096.0))
    return machine, ServeEngine(machine, scheduler="fifo", **kwargs)


class TestEngineErrorKinds:
    def test_failure_kind_stamped_per_exception(self):
        machine, engine = _engine()
        client = engine.add_tenant("t")

        def rejected(api):
            raise RequestRejected("bad request", "EINVAL")

        def crypto(api):
            raise IntegrityError("tag mismatch")

        ok = client.submit("ok", lambda api: None)
        bad = client.submit("rejected", rejected)
        mac = client.submit("crypto", crypto)
        engine.run()
        assert ok.outcome == SERVED and ok.error_kind is None
        assert bad.outcome == FAILED and bad.error_kind == KIND_REJECTED
        assert mac.outcome == FAILED and mac.error_kind == KIND_CRYPTO

    def test_queue_full_gets_retry_after_hint(self):
        machine, engine = _engine()
        client = engine.add_tenant("t")

        def overflow(api):
            raise QueueFullError("channel queue full")

        request = client.submit("overflow", overflow)
        engine.run()
        assert request.outcome == BACKPRESSURE
        assert request.error_kind == KIND_QUEUE_FULL
        # Drain-rate hint: bounded by depth x per-request estimate.
        assert request.retry_after is not None and request.retry_after > 0.0


class TestEngineRetry:
    def test_transient_failure_retries_to_success(self):
        machine, engine = _engine(
            retry_policy=RetryPolicy(max_attempts=3, jitter=0.0))
        client = engine.add_tenant("t")
        state = {"calls": 0}

        def flaky(api):
            state["calls"] += 1
            if state["calls"] < 3:
                raise QueueFullError("transient")

        request = client.submit("flaky", flaky)
        report = engine.run()
        assert state["calls"] == 3
        assert request.outcome == SERVED
        assert request.attempts == 3
        assert report.tenant("t").retries == 2
        assert report.tenant("t").failed == 0

    def test_retry_budget_exhausts_to_failed(self):
        machine, engine = _engine(
            retry_policy=RetryPolicy(max_attempts=2, jitter=0.0))
        client = engine.add_tenant("t")

        def doomed(api):
            raise QueueFullError("always full")

        request = client.submit("doomed", doomed)
        report = engine.run()
        assert request.outcome == BACKPRESSURE
        assert request.attempts == 2
        assert report.tenant("t").retries == 1
        assert report.tenant("t").backpressured == 1

    def test_backoff_charged_in_virtual_time(self):
        """The retry delay shows up on the serving timeline, not as a
        free do-over: a retried run finishes later than a clean one."""
        quota = TenantQuota(max_queue_depth=8)
        durations = {}
        for flaky_failures in (0, 2):
            machine, engine = _engine(
                retry_policy=RetryPolicy(max_attempts=3, jitter=0.0,
                                         base_delay=5e-4))
            client = engine.add_tenant("t", quota)
            state = {"calls": 0}

            def fn(api, failures=flaky_failures):
                state["calls"] += 1
                if state["calls"] <= failures:
                    raise QueueFullError("transient")

            client.submit("r", fn)
            durations[flaky_failures] = engine.run().makespan
        assert durations[2] > durations[0] + 1e-3


class TestEngineBreaker:
    def test_persistent_failure_sheds_queue(self):
        machine, engine = _engine(
            breaker=BreakerConfig(window=4, failure_threshold=0.5,
                                  cooldown=1.0))
        client = engine.add_tenant("t", TenantQuota(max_queue_depth=32))

        def doomed(api):
            raise RequestRejected("always", "EINVAL")

        requests = [client.submit(f"r{i}", doomed) for i in range(12)]
        report = engine.run()
        tenant = report.tenant("t")
        assert tenant.shed > 0
        assert tenant.failed >= 4  # the window that tripped the breaker
        shed = [r for r in requests if r.outcome == "shed"]
        assert shed and all(r.error_kind == "circuit_open" for r in shed)
        assert all(r.retry_after is not None and r.retry_after > 0.0
                   for r in shed)


HALF_OPEN_BREAKER = BreakerConfig(window=1, failure_threshold=1.0,
                                  cooldown=1e-4)
REJECTED_RETRY = RetryPolicy(retry_on=frozenset({KIND_REJECTED}), jitter=0.0)


def _rejected_once():
    calls = []

    def flaky(api):
        calls.append(None)
        if len(calls) == 1:
            raise RequestRejected("transient", "EAGAIN")
    return flaky


class TestBreakerProbeResolution:
    """The half-open breaker's single probe resolves on every path.

    A one-slot window trips on the first breaker-kind failure; the
    failed request's retry backoff (200 us) outlasts the cooldown
    (100 us), so the next fresh request is the half-open probe.
    Whatever serves or denies that probe must free the slot, or every
    later fresh request is shed as ``circuit_open``.
    """

    def _memo_probe_run(self, fast_path):
        machine, engine = _engine(fast_path=fast_path,
                                  retry_policy=REJECTED_RETRY,
                                  breaker=HALF_OPEN_BREAKER)
        client = engine.add_tenant("t", TenantQuota(max_queue_depth=16))
        state = {}
        data = np.full(4096, 7, dtype=np.uint8)

        def setup(api):
            state["dptr"] = api.cuMemAlloc(4096)

        def upload(api):
            api.cuMemcpyHtoD(state["dptr"], data)

        requests = [client.submit("setup", setup),
                    client.submit("h2d[0]", upload, memo_key=("h2d", 4096)),
                    client.submit("flaky", _rejected_once())]
        requests += [client.submit(f"h2d[{index}]", upload,
                                   memo_key=("h2d", 4096))
                     for index in range(1, 6)]
        requests.append(client.submit(
            "cleanup", lambda api: api.cuMemFree(state["dptr"])))
        report = engine.run()
        return requests, report, engine.memo.stats()

    def test_memo_replayed_probe_closes_breaker(self):
        """The probe is ``h2d[1]``, replayed from the memo on the fast
        path: a replayed success is a success."""
        requests, report, stats = self._memo_probe_run(fast_path=True)
        assert stats["hits"] >= 5  # h2d[1..5] replayed from the memo
        assert [r.outcome for r in requests] == [SERVED] * 9
        assert report.tenant("t").shed == 0

    def test_memo_probe_fast_path_matches_slow_path(self):
        fast, fast_report, _ = self._memo_probe_run(fast_path=True)
        slow, slow_report, _ = self._memo_probe_run(fast_path=False)
        # (``attempts`` differs by design: a memo hit never executes.)
        assert ([(r.outcome, r.host_seconds, r.gpu_seconds) for r in fast]
                == [(r.outcome, r.host_seconds, r.gpu_seconds)
                    for r in slow])
        assert fast_report.makespan == slow_report.makespan
        assert fast_report.context_switches == slow_report.context_switches

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_quota_denied_probe_frees_the_slot(self, fast_path):
        """The probe is an over-quota ``cuMemAlloc``: the denial is
        policy, not backend health, so it gives no verdict — and the
        next fresh request probes instead."""
        machine, engine = _engine(fast_path=fast_path,
                                  retry_policy=REJECTED_RETRY,
                                  breaker=HALF_OPEN_BREAKER)
        client = engine.add_tenant(
            "t", TenantQuota(max_queue_depth=16, device_memory_bytes=8192))
        requests = [client.submit("flaky", _rejected_once()),
                    client.submit("greedy",
                                  lambda api: api.cuMemAlloc(1 << 20))]
        requests += [client.submit(f"small[{index}]",
                                   lambda api: api.cuMemAlloc(4096))
                     for index in range(2)]
        engine.run()
        assert [r.outcome for r in requests] == [
            SERVED, DENIED, SERVED, SERVED]
        assert requests[1].error_kind == KIND_QUOTA


class _MarkRecorder(TimeSeriesSampler):
    """A sampler that also keeps every ``mark`` call's name and amount."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = []

    def mark(self, name, time, amount=1.0):
        self.calls.append((name, amount))
        super().mark(name, time, amount)


class TestDeferredFlushFailure:
    """A memo hit charges its cached split at once and runs its
    functional work later, in the deferred flush.  A fault that lands
    in between fails the flush: the request (or the whole coalesced
    batch group) is failed as one, audited once, and retried in full
    when a policy allows."""

    @staticmethod
    def _launch(api, state):
        api.cuLaunchKernel(state["module"], "builtin.memset32",
                           [state["dptr"], 16, 7], compute_seconds=1e-4)

    def _run(self, group, policy, hog_seconds=0.0, tail=True):
        machine, engine = _engine(
            retry_policy=policy, telemetry=_MarkRecorder(),
            default_quota=TenantQuota(max_queue_depth=16, max_inflight=8))
        if hog_seconds:
            hog = engine.add_tenant("hog")
            hog_state = {}

            def hog_setup(api):
                hog_state["dptr"] = api.cuMemAlloc(4096)
                hog_state["module"] = api.cuModuleLoad(["builtin.memset32"])

            hog.submit("setup", hog_setup)
            hog.submit("long", lambda api: api.cuLaunchKernel(
                hog_state["module"], "builtin.memset32",
                [hog_state["dptr"], 16, 7], compute_seconds=hog_seconds))
        client = engine.add_tenant("t")
        state = {}
        tamper = {"armed": True}

        def setup(api):
            state["dptr"] = api.cuMemAlloc(4096)
            state["module"] = api.cuModuleLoad(["builtin.memset32"])

        def tampered(api, *_):
            if tamper["armed"]:
                tamper["armed"] = False
                raise IntegrityError("reply tag mismatch")
            self._launch(api, state)

        client.submit("setup", setup, extra_host_seconds=1e-3)
        client.submit("warm", lambda api: self._launch(api, state),
                      memo_key=("launch", 16))
        hits = [client.submit(f"hit[{index}]", tampered,
                              memo_key=("launch", 16),
                              batch_key=("launch", id(state)),
                              batch_fn=tampered)
                for index in range(group)]
        if tail:
            # A slow-path request after the hits flushes them before it
            # executes; without one they flush after the queue ran dry.
            client.submit("tail", lambda api: None)
        mark = audit_log().cursor()
        report = engine.run()
        audits = [event for event in audit_log().events_since(mark)
                  if event.kind == "serve.fault_detected"]
        assert all(request.outcome == SERVED for request in client.requests
                   if request not in hits)
        return report, hits, audits, engine.telemetry.calls

    @pytest.mark.parametrize("tail", [True, False])
    @pytest.mark.parametrize("group", [1, 3])
    def test_failed_flush_is_terminal_without_policy(self, group, tail):
        _, hits, audits, marks = self._run(group, policy=None, tail=tail)
        for hit in hits:
            assert (hit.outcome, hit.error_kind, hit.attempts) == (
                FAILED, KIND_CRYPTO, 1)
        assert len(audits) == 1
        assert audits[0].subject == "t"
        assert audits[0].detail == "deferred flush failed: reply tag mismatch"
        assert [call for call in marks if call[0] == bad_series("t")] == [
            (bad_series("t"), group)]

    @pytest.mark.parametrize("tail", [True, False])
    @pytest.mark.parametrize("group", [1, 3])
    def test_failed_flush_retries_in_full_with_policy(self, group, tail):
        """Also when the flush that fails is the last one, after the
        queue ran dry: the retries still run before teardown."""
        _, hits, audits, marks = self._run(
            group, policy=RetryPolicy(jitter=0.0), tail=tail)
        for hit in hits:
            # One failed deferred run plus one slow-path re-execution.
            assert (hit.outcome, hit.error_kind, hit.attempts) == (
                SERVED, KIND_CRYPTO, 2)
        assert len(audits) == 1
        assert audits[0].detail.startswith("deferred flush failed: ")
        assert [call for call in marks if call[0] == bad_series("t")] == [
            (bad_series("t"), group)]

    def test_visit_settling_after_the_flush_keeps_failed(self):
        """The hit's GPU visit queues behind another tenant's 50 ms
        launch, so it settles after the flush already failed the
        request: the stale settlement must not overwrite ``failed``."""
        report, hits, audits, marks = self._run(1, policy=None,
                                                hog_seconds=50e-3)
        # Both of the tenant's visits queued behind the long launch.
        assert report.tenant("t").waits > 2 * 40e-3
        assert hits[0].outcome == FAILED
        assert hits[0].error_kind == KIND_CRYPTO
        assert len(audits) == 1
        assert marks.count((good_series("t"), 1.0)) == report.tenant(
            "t").served == 3
