"""Unit tests for the discrete-event kernel primitives."""

import dataclasses

import pytest

from repro.sim.engine import (
    EventClock,
    PRIO_DISPATCH,
    PRIO_NORMAL,
    PRIO_REDISPATCH,
    Resource,
    TenantLane,
    Visit,
    WorkUnit,
    run_lanes,
)
from tests.property.oracles import Acquire, Process


def pop_order(*entries):
    """Names of ``(name, time, priority, seq)`` entries in heap pop order."""
    clock = EventClock()
    order = []
    for name, time, priority, seq in entries:
        clock.schedule(time, lambda e, name=name: order.append(name),
                       priority=priority, seq=seq)
    clock.run()
    return order


class TestEventOrdering:
    def test_orders_by_time_then_priority_then_seq(self):
        # Each pair is scheduled in reverse, so insertion order never
        # decides.
        assert pop_order(("b", 2.0, PRIO_DISPATCH, 1),
                         ("a", 1.0, PRIO_NORMAL, 0)) == ["a", "b"]
        assert pop_order(("b", 1.0, PRIO_NORMAL, 0),
                         ("a", 1.0, PRIO_DISPATCH, 5)) == ["a", "b"]
        assert pop_order(("b", 1.0, PRIO_REDISPATCH, 1),
                         ("a", 1.0, PRIO_NORMAL, 0)) == ["a", "b"]
        assert pop_order(("b", 1.0, PRIO_NORMAL, 1),
                         ("a", 1.0, PRIO_NORMAL, 0)) == ["a", "b"]

    def test_heap_pop_order(self):
        clock = EventClock()
        order = []
        clock.schedule(2.0, lambda e: order.append("late"))
        clock.schedule(1.0, lambda e: order.append("normal"))
        clock.schedule(1.0, lambda e: order.append("dispatch"),
                       priority=PRIO_DISPATCH)
        assert clock.run() == 2.0
        assert order == ["dispatch", "normal", "late"]

    def test_callback_gets_its_seq_at_its_time(self):
        clock = EventClock()
        seen = []

        def record(seq):
            seen.append((seq, clock.now))

        reserved = clock.allocate_seq()
        assert clock.schedule(2.0, record) is None          # fresh seq
        clock.schedule(1.5, record)                          # fresh seq
        clock.schedule(1.0, record, seq=reserved)            # pre-allocated
        clock.run()
        assert seen == [(reserved, 1.0), (reserved + 2, 1.5),
                        (reserved + 1, 2.0)]


class TestEventClock:
    def test_now_follows_events(self):
        clock = EventClock()
        seen = []
        clock.schedule(3.5, lambda e: seen.append(clock.now))
        clock.run()
        assert seen == [3.5]

    def test_preallocated_seq_keeps_rank(self):
        clock = EventClock()
        early = clock.allocate_seq()
        order = []
        clock.schedule(1.0, lambda e: order.append("fresh"))
        clock.schedule(1.0, lambda e: order.append("reserved"), seq=early)
        clock.run()
        assert order == ["reserved", "fresh"]

    def test_trace_recorder_attaches_unchanged(self):
        """The SimClock listener surface carries over: a recording
        listener sees kernel charges exactly as it sees clock advances."""
        clock = EventClock()
        seen = []
        listener = lambda start, seconds, category: seen.append(
            (start, seconds, category))
        clock.add_listener(listener)
        clock.charge(1.0, 2.0, "gpu")
        clock.remove_listener(listener)
        clock.charge(3.0, 1.0, "after")
        assert seen == [(1.0, 2.0, "gpu")]


def acquire_once(clock, resource, tenant, gpu_seconds, log, ready=None,
                 deadline=None):
    def proc():
        outcome = yield Acquire(resource, Visit(
            tenant=tenant, seq=clock.allocate_seq(),
            ready=clock.now if ready is None else ready,
            gpu_seconds=gpu_seconds, deadline=deadline))
        log.append((tenant, outcome, clock.now))
    return Process(clock, proc())


class TestResource:
    def test_serializes_and_charges_switches(self):
        clock = EventClock()
        engine = Resource(clock, ctx_switch_cost=0.5)
        log = []
        acquire_once(clock, engine, 0, 1.0, log).start(0)
        acquire_once(clock, engine, 1, 1.0, log).start(0)
        clock.run()
        # First occupancy free; one switch when tenant 1 takes over.
        assert engine.switches == 1
        assert log == [(0, "served", 1.0), (1, "served", 2.5)]

    def test_same_owner_no_switch(self):
        clock = EventClock()
        engine = Resource(clock, ctx_switch_cost=0.5)
        log = []
        acquire_once(clock, engine, 7, 1.0, log).start(0)
        acquire_once(clock, engine, 7, 1.0, log).start(0)
        clock.run()
        assert engine.switches == 0
        assert log[-1] == (7, "served", 2.0)

    def test_deadline_expiry_times_out(self):
        clock = EventClock()
        engine = Resource(clock)
        log = []
        acquire_once(clock, engine, 0, 5.0, log).start(0)
        # Ready at 0 with deadline 1.0: by the time the engine frees
        # (t=5) the visit is expired, never served.
        acquire_once(clock, engine, 1, 1.0, log, deadline=1.0).start(0)
        clock.run()
        assert (1, "timeout", 5.0) in log
        assert [entry for entry in log if entry[0] == 1
                and entry[1] == "served"] == []

    def test_non_candidate_scheduler_rejected(self):
        class RogueScheduler:
            def select(self, candidates, resident, now):
                return Visit(tenant=99, seq=0, ready=0.0, gpu_seconds=1.0)

        clock = EventClock()
        engine = Resource(clock, scheduler=RogueScheduler())
        acquire_once(clock, engine, 0, 1.0, []).start(0)
        with pytest.raises(ValueError, match="non-candidate"):
            clock.run()

    def test_equal_copy_of_a_candidate_rejected(self):
        """The pick must be a queue head itself, found by identity: a
        copy equal field by field is not a candidate."""
        class CopyingScheduler:
            def select(self, candidates, resident, now):
                return dataclasses.replace(candidates[0])

        clock = EventClock()
        engine = Resource(clock, scheduler=CopyingScheduler())
        acquire_once(clock, engine, 0, 1.0, []).start(0)
        with pytest.raises(ValueError, match="non-candidate"):
            clock.run()


class TestRunLanes:
    def test_inflight_cap_stalls_host(self):
        # One lane, two instant-host gpu units, cap 1: the second unit's
        # host part must wait for the first visit to finish.
        lane = TenantLane(units=[WorkUnit(0.0, 2.0), WorkUnit(0.0, 1.0)])
        result = run_lanes([lane], None, 0.0)
        assert result.makespan == 3.0
        assert result.stall_seconds == [2.0]

    def test_outcome_callbacks_fire(self):
        outcomes = []
        lane = TenantLane(units=[
            WorkUnit(0.0, 1.0, on_outcome=outcomes.append)])
        result = run_lanes([lane], None, 0.0)
        assert outcomes == ["served"]
        assert result.served == [1]

    def test_lane_names_default_to_index(self):
        result = run_lanes([TenantLane(units=[]),
                            TenantLane(units=[], name="alice")], None, 0.0)
        assert result.names == ["lane0", "alice"]
