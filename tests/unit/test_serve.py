"""Unit tests for the multi-tenant serving layer (repro.serve)."""

import pytest

from repro.core.multiuser import Segment, simulate_concurrent
from repro.errors import AdmissionError, BackpressureError, ServeError
from repro.serve import (
    DeficitFairScheduler,
    FifoScheduler,
    RequestQueue,
    RoundRobinScheduler,
    ServeRequest,
    SessionTable,
    TenantLane,
    TenantQuota,
    WorkUnit,
    make_scheduler,
)
from repro.sim.engine import Visit, run_lanes


def _req(label="r"):
    return ServeRequest(label=label, fn=lambda api: None)


class TestRequestQueue:
    def test_fifo_order_and_seq(self):
        queue = RequestQueue(depth=4)
        a, b = queue.submit(_req("a")), queue.submit(_req("b"))
        assert (a.seq, b.seq) == (0, 1)
        assert queue.pop() is a
        assert queue.pop() is b

    def test_backpressure_on_full(self):
        queue = RequestQueue(depth=2)
        queue.submit(_req())
        queue.submit(_req())
        with pytest.raises(BackpressureError):
            queue.submit(_req("overflow"))
        assert queue.counters.accepted == 2
        assert queue.counters.rejected == 1

    def test_backpressure_is_serve_error(self):
        assert issubclass(BackpressureError, ServeError)

    def test_pop_frees_capacity(self):
        queue = RequestQueue(depth=1)
        queue.submit(_req())
        queue.pop()
        queue.submit(_req())  # does not raise

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            RequestQueue(depth=0)


class TestTenantQuota:
    def test_defaults_valid(self):
        TenantQuota()

    @pytest.mark.parametrize("kwargs", [
        {"max_contexts": 0},
        {"device_memory_bytes": -1},
        {"max_inflight": 0},
        {"max_queue_depth": 0},
        {"weight": 0.0},
        {"request_timeout": 0.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TenantQuota(**kwargs)


class TestSessionTable:
    def test_admit_assigns_ids_in_order(self):
        table = SessionTable(max_tenants=4)
        ids = [table.admit(name).tenant_id for name in "abc"]
        assert ids == [0, 1, 2]
        assert [r.name for r in table.tenants] == ["a", "b", "c"]

    def test_admit_idempotent_by_name(self):
        table = SessionTable()
        assert table.admit("t") is table.admit("t")
        assert len(table) == 1

    def test_readmit_with_different_quota_rejected(self):
        table = SessionTable()
        table.admit("t", TenantQuota(max_contexts=1))
        with pytest.raises(AdmissionError, match="different quota"):
            table.admit("t", TenantQuota(max_contexts=2))

    def test_table_full(self):
        table = SessionTable(max_tenants=1)
        table.admit("a")
        with pytest.raises(AdmissionError, match="full"):
            table.admit("b")

    def test_context_cap_enforced_and_counted(self):
        table = SessionTable()
        record = table.admit("t", TenantQuota(max_contexts=2))
        table.open_context(record)
        table.open_context(record)
        with pytest.raises(AdmissionError, match="context cap"):
            table.open_context(record)
        assert record.quota_denials == 1
        table.close_context(record)
        table.open_context(record)  # freed slot is reusable

    def test_close_without_open_rejected(self):
        table = SessionTable()
        with pytest.raises(AdmissionError):
            table.close_context(table.admit("t"))

    def test_memory_budget_and_peak(self):
        table = SessionTable()
        record = table.admit("t", TenantQuota(device_memory_bytes=100))
        table.charge_memory(record, handle=1, nbytes=60)
        with pytest.raises(AdmissionError, match="budget"):
            table.charge_memory(record, handle=2, nbytes=50)
        assert record.quota_denials == 1
        table.charge_memory(record, handle=3, nbytes=40)
        assert record.memory_in_use == 100
        table.release_memory(record, handle=1)
        assert record.memory_in_use == 40
        assert record.peak_memory == 100

    def test_evict_refuses_live_contexts(self):
        table = SessionTable()
        record = table.admit("t")
        table.open_context(record)
        with pytest.raises(AdmissionError, match="open"):
            table.evict("t")
        table.close_context(record)
        table.evict("t")
        assert table.get("t") is None


def _visit(tenant, seq=0, ready=0.0, gpu=1.0, weight=1.0):
    return Visit(tenant=tenant, seq=seq, ready=ready, gpu_seconds=gpu,
                 weight=weight)


class TestSchedulers:
    def test_make_scheduler_names(self):
        assert make_scheduler("fifo").name == "fifo"
        assert make_scheduler("RR").name == "round-robin"
        assert make_scheduler("drr").name == "fair"
        with pytest.raises(ValueError):
            make_scheduler("lottery")

    def test_fair_quantum_from_costs(self):
        from repro.sim.costs import CostModel
        costs = CostModel()
        scheduler = make_scheduler("fair", costs)
        assert scheduler.quantum == costs.serve_fair_quantum

    def test_fifo_breaks_ties_by_seq(self):
        scheduler = FifoScheduler()
        a, b = _visit(0, seq=5), _visit(1, seq=3)
        assert scheduler.select([a, b], None, 0.0) is b

    def test_fifo_prefers_earlier_ready(self):
        scheduler = FifoScheduler()
        a, b = _visit(0, seq=1, ready=2.0), _visit(1, seq=9, ready=1.0)
        assert scheduler.select([a, b], None, 2.0) is b

    def test_round_robin_rotates(self):
        scheduler = RoundRobinScheduler()
        visits = [_visit(0), _visit(1), _visit(2)]
        order = [scheduler.select(visits, None, 0.0).tenant
                 for _ in range(6)]
        assert order == [0, 1, 2, 0, 1, 2]

    def test_drr_requires_positive_quantum(self):
        with pytest.raises(ValueError):
            DeficitFairScheduler(0.0)

    def test_drr_weighted_share(self):
        """Weight-2 tenant gets 2x the engine seconds of weight-1.

        The quantum must be a fraction of the visit size for weights to
        bite: with quantum >= visit every candidate is eligible each
        round and DRR degenerates to plain rotation.
        """
        scheduler = DeficitFairScheduler(quantum=0.5)
        heavy = [_visit(0, gpu=1.0, weight=2.0) for _ in range(30)]
        light = [_visit(1, gpu=1.0, weight=1.0) for _ in range(30)]
        servings = {0: 0, 1: 0}
        for _ in range(18):
            pick = scheduler.select([heavy[servings[0]],
                                     light[servings[1]]], None, 0.0)
            servings[pick.tenant] += 1
        assert servings[0] == 2 * servings[1]

    def test_drr_banks_remainder_for_large_visits(self):
        """A visit bigger than one quantum is eventually served."""
        scheduler = DeficitFairScheduler(quantum=1.0)
        big = _visit(0, gpu=3.5)
        assert scheduler.select([big], None, 0.0) is big

    def test_drr_drops_credit_when_not_backlogged(self):
        scheduler = DeficitFairScheduler(quantum=1.0)
        scheduler.select([_visit(0, gpu=0.5)], None, 0.0)
        # Tenant 0 banked credit; it vanishes once 0 is absent.
        scheduler.select([_visit(1, gpu=0.5)], None, 0.0)
        assert 0 not in scheduler._deficit  # noqa: SLF001


class TestMultiplex:
    def test_host_only_lanes_overlap(self):
        lanes = [TenantLane(units=[WorkUnit(2.0, None)]),
                 TenantLane(units=[WorkUnit(3.0, None)])]
        result = run_lanes(lanes, FifoScheduler(), 0.1)
        assert result.makespan == pytest.approx(3.0)
        assert result.context_switches == 0

    def test_gpu_visits_serialize_with_switches(self):
        lanes = [TenantLane(units=[WorkUnit(0.0, 1.0)]),
                 TenantLane(units=[WorkUnit(0.0, 1.0)])]
        result = run_lanes(lanes, FifoScheduler(), 0.25)
        assert result.makespan == pytest.approx(2.25)
        assert result.context_switches == 1

    def test_same_owner_has_no_switch(self):
        lanes = [TenantLane(units=[WorkUnit(0.0, 1.0), WorkUnit(0.0, 1.0)])]
        result = run_lanes(lanes, FifoScheduler(), 0.25)
        assert result.makespan == pytest.approx(2.0)
        assert result.context_switches == 0

    def test_timeout_expires_queued_visit(self):
        outcomes = []
        lanes = [
            TenantLane(units=[WorkUnit(0.0, 10.0, "hog",
                                       on_outcome=outcomes.append)]),
            TenantLane(units=[WorkUnit(0.1, 1.0, "victim", deadline=0.5,
                                       on_outcome=outcomes.append)]),
        ]
        result = run_lanes(lanes, FifoScheduler(), 0.0)
        assert result.timed_out == [0, 1]
        assert result.served == [1, 0]
        assert set(outcomes) == {"served", "timeout"}
        # The expired visit's engine seconds are not in the makespan.
        assert result.makespan == pytest.approx(10.0)

    def test_inflight_cap_stalls_production(self):
        # Three instant-host units, one slow engine: with cap 1 the
        # lane must stall between visits.
        lanes = [TenantLane(units=[WorkUnit(0.0, 1.0) for _ in range(3)],
                            max_inflight=1)]
        result = run_lanes(lanes, FifoScheduler(), 0.0)
        assert result.makespan == pytest.approx(3.0)
        assert result.stall_seconds[0] == pytest.approx(2.0)

    def test_deeper_inflight_removes_stall(self):
        lanes = [TenantLane(units=[WorkUnit(0.0, 1.0) for _ in range(3)],
                            max_inflight=3)]
        result = run_lanes(lanes, FifoScheduler(), 0.0)
        assert result.makespan == pytest.approx(3.0)
        assert result.stall_seconds[0] == pytest.approx(0.0)

    def test_trace_events_cover_both_kinds(self):
        lanes = [TenantLane(units=[WorkUnit(0.5, 1.0)]),
                 TenantLane(units=[WorkUnit(0.5, 1.0)])]
        result = run_lanes(lanes, FifoScheduler(), 0.1)
        kinds = set(result.log[3::4])
        assert kinds == {"host", "gpu", "ctx_switch"}

    def test_bad_scheduler_rejected(self):
        class Rogue(FifoScheduler):
            def select(self, candidates, resident, now):
                return _visit(99)

        lanes = [TenantLane(units=[WorkUnit(0.0, 1.0)])]
        with pytest.raises(ValueError, match="non-candidate"):
            run_lanes(lanes, Rogue(), 0.0)

    def test_stats_shape_matches_oracle(self):
        users = [[Segment("host", 0.5, "h"), Segment("gpu", 1.0, "g")]
                 for _ in range(2)]
        makespan, timelines, stats = simulate_concurrent(
            users, 0.1, FifoScheduler())
        oracle_makespan, oracle_timelines, oracle_stats = \
            simulate_concurrent(users, 0.1)
        assert makespan == pytest.approx(oracle_makespan)
        assert stats == pytest.approx(oracle_stats)
        for mine, theirs in zip(timelines, oracle_timelines):
            assert mine.gpu_busy == pytest.approx(theirs.gpu_busy)
            assert mine.host_busy == pytest.approx(theirs.host_busy)
            assert mine.finish_time == pytest.approx(theirs.finish_time)
