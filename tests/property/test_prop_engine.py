"""Differential properties: the unified kernel vs the retired engines.

The discrete-event kernel (:mod:`repro.sim.engine`) replaced three
independent event loops; the originals live on in
:mod:`tests.property.oracles` and this suite pins the kernel against
them:

* native-FIFO kernel runs reproduce the retired
  ``simulate_concurrent`` **exactly on all inputs** — makespan, every
  per-user timeline field, and the stats dict — including tie-saturated
  inputs built from a tiny duration grid with zero-length segments;
* ``simulate_concurrent`` with ``FifoScheduler`` matches the same oracle
  exactly (the tie-break divergence the old multiplexer documented is
  fixed, not tolerated);
* all three schedulers match the retired multiplexer on tie-free
  inputs, including the deadline/backpressure paths the analytic
  oracle does not model;
* the kernel evaluation of the pipelined copy
  (:func:`tests.property.oracles.pipelined_time_events`) equals the
  closed form bit for bit in exact (Fraction) arithmetic;
* the slotted state-machine lanes of :func:`repro.sim.engine.run_lanes`
  reproduce the generator lanes they replaced
  (:class:`tests.property.oracles.GeneratorLaneRun`) on tie-grid lanes
  of every unit kind: the same result, charge log, callback order and
  kernel event count.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.multiuser import (
    Segment,
    segments_to_units,
    simulate_concurrent,
)
from repro.serve.scheduler import (
    DeficitFairScheduler,
    FifoScheduler,
    RoundRobinScheduler,
)
from repro.sim.engine import (
    EventClock,
    LaneRun,
    TenantLane,
    WorkUnit,
    run_lanes,
)
from repro.sim.pipeline import pipelined_time
from tests.property.oracles import (
    BLOCK,
    GeneratorLaneRun,
    Process,
    Wait,
    oracle_multiplex,
    oracle_simulate_concurrent,
    pipelined_time_events,
)

MS = 1e-3
US = 1e-6

# Tie saturation: a tiny duration grid (with genuine zero-length
# segments) makes simultaneous arrivals, completions, and engine-free
# instants the common case rather than the measure-zero one.
tie_durations = st.sampled_from([0.0, 0.5, 1.0, 2.0])
tie_switch_costs = st.sampled_from([0.0, 0.25, 1.0])


@st.composite
def tie_heavy_users(draw):
    """Arbitrary per-user segment lists drawn from the tie grid."""
    n = draw(st.integers(min_value=1, max_value=4))
    users = []
    for _ in range(n):
        m = draw(st.integers(min_value=0, max_value=6))
        users.append([Segment(draw(st.sampled_from(["host", "gpu"])),
                              draw(tie_durations), "s")
                      for _ in range(m)])
    return users


def assert_exactly_equal(mine, oracle):
    """Bitwise equality of (makespan, timelines, stats) triples."""
    makespan, timelines, stats = mine
    o_makespan, o_timelines, o_stats = oracle
    assert makespan == o_makespan
    assert stats == o_stats
    assert len(timelines) == len(o_timelines)
    for timeline, expected in zip(timelines, o_timelines):
        assert timeline.finish_time == expected.finish_time
        assert timeline.gpu_busy == expected.gpu_busy
        assert timeline.host_busy == expected.host_busy
        assert timeline.waits == expected.waits


class TestKernelMatchesAnalyticOracle:
    """Native FIFO == retired ``simulate_concurrent``, ties included."""

    @given(users=tie_heavy_users(), cost=tie_switch_costs)
    @settings(max_examples=300, deadline=None)
    def test_simulate_concurrent_exact(self, users, cost):
        assert_exactly_equal(simulate_concurrent(users, cost),
                             oracle_simulate_concurrent(users, cost))

    @given(users=tie_heavy_users(), cost=tie_switch_costs)
    @settings(max_examples=300, deadline=None)
    def test_fifo_scheduler_exact(self, users, cost):
        """The satellite fix: FIFO serving is oracle-equal on ALL
        inputs, not just tie-free ones."""
        assert_exactly_equal(simulate_concurrent(users, cost, FifoScheduler()),
                             oracle_simulate_concurrent(users, cost))


# Tie-free inputs: durations unique by construction, so arrival,
# completion, and engine-free instants almost surely never coincide
# (sums of distinct floats).  On these the kernel must reproduce the
# retired multiplexer under every scheduler — the kernel changed only
# the simultaneous-event rule.
#
# "Almost surely" is not "surely": float rounding can collapse two
# distinct instants onto one (t + a == t + b with a != b), and on such
# a manufactured tie the kernel's pre-reservation rule and the retired
# multiplexer's drain-then-dispatch rule hand a *stateful* scheduler
# (DRR credit, round-robin rotation) different candidate sets — a
# documented divergence, not a bug.  ``coincident_instants`` detects
# the collapse on the oracle's own timeline so those draws are
# rejected instead of asserted on.
def coincident_instants(oracle_events, deadline=None):
    """True when two timeline instants collapsed onto the same float.

    Arrival instants (host-segment ends) and engine-free instants
    (gpu-segment ends) must all be distinct for the tie-free premise to
    hold; when visits carry a *deadline*, each instant's expiry time
    joins the set (expiry races dispatch the same way arrivals do).
    """
    instants = []
    for _tenant, event in oracle_events:
        if event.category not in ("host", "gpu"):
            continue
        end = event.start + event.duration
        instants.append(end)
        if deadline is not None:
            instants.append(end + deadline)
    return len(instants) != len(set(instants))


@st.composite
def tie_free_users(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    per_user = draw(st.lists(st.integers(min_value=1, max_value=4),
                             min_size=n, max_size=n))
    total = 2 * sum(per_user)
    pool = draw(st.lists(
        st.floats(min_value=20 * US, max_value=2 * MS),
        min_size=total, max_size=total, unique=True))
    users, cursor = [], 0
    for count in per_user:
        segments = []
        for _ in range(count):
            segments.append(Segment("host", pool[cursor], "h"))
            segments.append(Segment("gpu", pool[cursor + 1], "g"))
            cursor += 2
        users.append(segments)
    return users


def fresh_schedulers():
    return st.sampled_from(["fifo", "rr", "fair"])


def build_scheduler(name):
    return {"fifo": FifoScheduler,
            "rr": RoundRobinScheduler,
            "fair": lambda: DeficitFairScheduler(600 * US)}[name]()


class TestKernelMatchesRetiredMultiplexer:
    @given(users=tie_free_users(), cost=st.sampled_from([0.0, 120 * US]),
           name=fresh_schedulers())
    @settings(max_examples=150, deadline=None)
    def test_all_schedulers_exact_on_tie_free_inputs(self, users, cost, name):
        mine = simulate_concurrent(users, cost, build_scheduler(name))
        lanes = [TenantLane(units=segments_to_units(segments),
                            max_inflight=1) for segments in users]
        oracle = oracle_multiplex(lanes, build_scheduler(name), cost)
        assume(not coincident_instants(oracle.events))
        assert_exactly_equal(
            mine, (oracle.makespan, oracle.timelines,
                   {"context_switches": float(oracle.context_switches),
                    "gpu_utilization": (sum(t.gpu_busy
                                            for t in oracle.timelines)
                                        / oracle.makespan
                                        if oracle.makespan > 0 else 0.0)}))

    @given(users=tie_free_users(), name=fresh_schedulers(),
           inflight=st.integers(min_value=1, max_value=3),
           deadline=st.floats(min_value=50 * US, max_value=4 * MS))
    @settings(max_examples=150, deadline=None)
    def test_backpressure_and_deadlines_match(self, users, name, inflight,
                                              deadline):
        """The paths the analytic oracle never had: inflight caps
        (host stalls) and lazy deadline expiry (timeouts)."""
        def lanes():
            return [TenantLane(units=[
                WorkUnit(s.duration, None, s.label) if s.kind == "host"
                else WorkUnit(0.0, s.duration, s.label, deadline=deadline)
                for s in segments], max_inflight=inflight)
                for segments in users]
        mine = run_lanes(lanes(), build_scheduler(name), 120 * US)
        oracle = oracle_multiplex(lanes(), build_scheduler(name), 120 * US)
        assume(not coincident_instants(oracle.events, deadline=deadline))
        assert mine.makespan == oracle.makespan
        assert mine.served == oracle.served
        assert mine.timed_out == oracle.timed_out
        assert mine.stall_seconds == oracle.stall_seconds
        assert mine.context_switches == oracle.context_switches


# Exact rationals keep float association out of the comparison: the
# kernel run and the closed form must agree bit for bit.
fractions = st.fractions(min_value=Fraction(1, 8), max_value=Fraction(40),
                         max_denominator=16)
small_fractions = st.fractions(min_value=0, max_value=Fraction(8),
                               max_denominator=8)


class TestPipelineKernelMatchesClosedForm:
    @given(nbytes=st.fractions(min_value=0, max_value=Fraction(300),
                               max_denominator=8),
           bandwidths=st.lists(fractions, min_size=0, max_size=4),
           chunk=fractions,
           latencies=st.lists(small_fractions, min_size=0, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_exact_in_rational_arithmetic(self, nbytes, bandwidths, chunk,
                                          latencies):
        latencies = latencies[:len(bandwidths)] if bandwidths else latencies
        assert (pipelined_time_events(nbytes, bandwidths, chunk, latencies)
                == pipelined_time(nbytes, bandwidths, chunk, latencies))

    @given(nbytes=st.floats(min_value=0.0, max_value=500.0),
           bandwidths=st.lists(st.floats(min_value=0.5, max_value=20.0),
                               min_size=1, max_size=3),
           chunk=st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_close_in_float_arithmetic(self, nbytes, bandwidths, chunk):
        assert pipelined_time_events(nbytes, bandwidths, chunk) == (
            pytest.approx(pipelined_time(nbytes, bandwidths, chunk),
                          rel=1e-12, abs=1e-12))


# The lane state machine against the generator lane it replaced.  Both
# run over the same EventClock and Resource, so on the tie grid, where
# simultaneous arrivals, completions, expiries and resumes are the
# common case, any difference in the order of schedule calls or seq
# allocations shows up as a different result, charge log or callback
# order.
lane_unit_kinds = st.sampled_from(["idle", "host", "gpu", "gpu+deadline"])


@st.composite
def tie_grid_lane(draw):
    """``(units, max_inflight, weight)`` with every unit kind drawn."""
    units = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(lane_unit_kinds)
        host = draw(tie_durations)
        gpu = None if kind in ("idle", "host") else draw(tie_durations)
        deadline = draw(tie_durations) if kind == "gpu+deadline" else None
        units.append((kind, host, gpu, deadline))
    return (units, draw(st.integers(min_value=1, max_value=3)),
            draw(st.sampled_from([1.0, 2.0])))


def build_lane_scheduler(name):
    if name is None:
        return None  # the Resource's native FIFO
    if name == "fair":
        return DeficitFairScheduler(0.75)  # a quantum on the tie grid
    return build_scheduler(name)


def build_lane(name, drawn, seen):
    """A fresh TenantLane whose callbacks append to *seen*."""
    units, inflight, weight = drawn
    built = []
    for index, (kind, host, gpu, deadline) in enumerate(units):
        label = f"{name}.{index}"
        built.append(WorkUnit(
            host, gpu, label, deadline=deadline, idle=kind == "idle",
            on_outcome=(None if gpu is None else
                        lambda outcome, label=label: seen.append(
                            (label, outcome)))))
    return TenantLane(units=built, weight=weight, max_inflight=inflight,
                      name=name,
                      on_exhausted=lambda now: seen.append((name, now)))


def run_lane_impl(run_cls, lanes, late, scheduler, cost):
    """One kernel run of *lanes* under *run_cls*, plus the lane *late*
    added mid-run; returns (result, events processed, callbacks)."""
    seen = []
    kernel = EventClock()
    run = run_cls([build_lane(f"l{index}", drawn, seen)
                   for index, drawn in enumerate(lanes)],
                  build_lane_scheduler(scheduler), cost, kernel)
    if late is not None:
        at, drawn = late
        kernel.schedule(at, lambda event: run.add_lane(
            build_lane("late", drawn, seen)))
    kernel.run()
    return run.finish(), kernel.events_processed, seen


class TestLanesMatchGeneratorLanes:
    @given(lanes=st.lists(tie_grid_lane(), min_size=1, max_size=4),
           late=st.none() | st.tuples(tie_durations, tie_grid_lane()),
           scheduler=st.sampled_from([None, "fifo", "rr", "fair"]),
           cost=tie_switch_costs)
    @settings(max_examples=300, deadline=None)
    def test_run_lanes_equals_generator_lanes(self, lanes, late, scheduler,
                                              cost):
        mine, events, seen = run_lane_impl(LaneRun, lanes, late, scheduler,
                                           cost)
        oracle, o_events, o_seen = run_lane_impl(GeneratorLaneRun, lanes,
                                                 late, scheduler, cost)
        assert mine.makespan == oracle.makespan
        assert mine.timelines == oracle.timelines
        assert mine.context_switches == oracle.context_switches
        assert mine.served == oracle.served
        assert mine.timed_out == oracle.timed_out
        assert mine.stall_seconds == oracle.stall_seconds
        assert mine.log == [atom for charge in oracle.log
                            for atom in charge]
        assert mine.names == oracle.names
        assert events == o_events
        assert seen == o_seen


class TestProcess:
    """The generator process the pipeline oracle and the generator lane
    run on."""

    def test_wait_chain_advances_virtual_time(self):
        clock = EventClock()
        times = []

        def proc():
            times.append(clock.now)
            yield Wait(1.5)
            times.append(clock.now)
            yield Wait(0.5)
            times.append(clock.now)

        process = Process(clock, proc())
        process.start(0)
        clock.run()
        assert times == [0, 1.5, 2.0]
        assert not process.alive
        assert process.finished_at == 2.0

    def test_block_until_resumed(self):
        clock = EventClock()
        seen = []

        def proc():
            value = yield BLOCK
            seen.append((clock.now, value))

        process = Process(clock, proc())
        process.start(0)
        clock.schedule(4.0, lambda e: process.resume_now(e, "wake"))
        clock.run()
        assert seen == [(4.0, "wake")]

    def test_unknown_yield_rejected(self):
        clock = EventClock()

        def proc():
            yield "nonsense"

        Process(clock, proc()).start(0)
        with pytest.raises(TypeError):
            clock.run()
