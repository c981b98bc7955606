"""Property-based cross-checks: serving schedulers vs the analytic oracle.

``repro.core.multiuser.simulate_concurrent`` is the paper's analytic
multi-user model under native FIFO; given a serving-layer scheduler
(:mod:`repro.serve.scheduler`) it runs the same lanes under that
policy instead.  The schedulers claim specific equivalences with the
native model; this suite pins them down on randomized inputs:

* ``FifoScheduler`` reproduces the oracle's makespan **exactly on all
  inputs** — both paths run on the shared kernel
  (:mod:`repro.sim.engine`), whose single simultaneous-event rule
  closed the historical tie-break divergence (the
  kernel-vs-retired-oracle pins live in ``test_prop_engine.py``);
* on single-visit-per-tenant inputs *every* work-conserving scheduler
  reproduces it exactly (busy periods of a work-conserving server do
  not depend on service order);
* on workload-shaped inputs the deficit-fair scheduler's makespan
  tracks the oracle within a small relative tolerance;
* conserved quantities (per-user host/gpu busy seconds) are exact for
  every scheduler on every input.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.multiuser import Segment, simulate_concurrent
from repro.evalkit.serve_sweep import fair_crosscheck
from repro.serve.scheduler import (
    DeficitFairScheduler,
    FifoScheduler,
    RoundRobinScheduler,
)
from repro.workloads.rodinia import rodinia_workloads

MS = 1e-3
US = 1e-6

durations = st.floats(min_value=20 * US, max_value=2 * MS)
switch_costs = st.sampled_from([0.0, 120 * US, 1 * MS])


def any_scheduler(draw_quantum):
    return st.one_of(
        st.just(FifoScheduler()),
        st.just(RoundRobinScheduler()),
        st.builds(DeficitFairScheduler, draw_quantum))


@st.composite
def identical_users(draw):
    """N identical copies of one alternating host/gpu stream."""
    phases = draw(st.lists(st.tuples(durations, durations),
                           min_size=1, max_size=10))
    stream = []
    for host, gpu in phases:
        stream.append(Segment("host", host, "h"))
        stream.append(Segment("gpu", gpu, "g"))
    n = draw(st.integers(min_value=1, max_value=5))
    return [list(stream) for _ in range(n)]


@st.composite
def arbitrary_users(draw):
    """Independent tenants with unconstrained alternation and ties.

    Zero-length segments and a coarse duration grid make simultaneous
    events common, so this strategy exercises exactly the inputs the
    pre-kernel multiplexer diverged on.
    """
    grid = st.sampled_from([0.0, 50 * US, 100 * US, 1 * MS])
    n = draw(st.integers(min_value=1, max_value=5))
    users = []
    for _ in range(n):
        m = draw(st.integers(min_value=0, max_value=8))
        users.append([Segment(draw(st.sampled_from(["host", "gpu"])),
                              draw(st.one_of(grid, durations)), "s")
                      for _ in range(m)])
    return users


@st.composite
def single_visit_users(draw):
    """Independent tenants, each one host segment then one gpu visit."""
    n = draw(st.integers(min_value=1, max_value=6))
    return [[Segment("host", draw(durations), "h"),
             Segment("gpu", draw(durations), "g")]
            for _ in range(n)]


class TestFifoMatchesOracle:
    @given(users=identical_users(), cost=switch_costs)
    @settings(max_examples=80, deadline=None)
    def test_identical_users_exact(self, users, cost):
        oracle, _, _ = simulate_concurrent(users, cost)
        mine, _, _ = simulate_concurrent(users, cost, FifoScheduler())
        assert mine == oracle

    @given(users=arbitrary_users(), cost=switch_costs)
    @settings(max_examples=200, deadline=None)
    def test_all_inputs_exact(self, users, cost):
        """No tie-free carve-out: FIFO serving equals the analytic
        model bit for bit on every input, per-user fields included."""
        oracle, o_timelines, o_stats = simulate_concurrent(users, cost)
        mine, timelines, stats = simulate_concurrent(
            users, cost, FifoScheduler())
        assert mine == oracle
        assert stats == o_stats
        for timeline, expected in zip(timelines, o_timelines):
            assert timeline.finish_time == expected.finish_time
            assert timeline.waits == expected.waits


class TestSingleVisitOrderInvariance:
    @given(users=single_visit_users(), cost=switch_costs,
           scheduler=any_scheduler(st.floats(min_value=10 * US,
                                             max_value=5 * MS)))
    @settings(max_examples=120, deadline=None)
    def test_any_scheduler_exact(self, users, cost, scheduler):
        """Busy periods are order-invariant: with one visit per tenant
        and no host tail, every work-conserving policy yields the
        oracle's makespan, whatever order it serves the queue in."""
        oracle, _, _ = simulate_concurrent(users, cost)
        mine, _, _ = simulate_concurrent(users, cost, scheduler)
        assert mine == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    @given(users=single_visit_users(), cost=switch_costs)
    @settings(max_examples=40, deadline=None)
    def test_switch_count_is_tenant_count(self, users, cost):
        _, _, stats = simulate_concurrent(users, cost, RoundRobinScheduler())
        assert stats["context_switches"] == len(users) - 1


class TestConservation:
    @given(users=identical_users(), cost=switch_costs,
           scheduler=any_scheduler(st.floats(min_value=10 * US,
                                             max_value=5 * MS)))
    @settings(max_examples=60, deadline=None)
    def test_busy_seconds_conserved(self, users, cost, scheduler):
        """Scheduling reorders work; it never creates or destroys it."""
        _, timelines, _ = simulate_concurrent(users, cost, scheduler)
        for timeline, segments in zip(timelines, users):
            host = sum(s.duration for s in segments if s.kind == "host")
            gpu = sum(s.duration for s in segments if s.kind == "gpu")
            assert timeline.host_busy == pytest.approx(host, abs=1e-12)
            assert timeline.gpu_busy == pytest.approx(gpu, abs=1e-12)

    @given(users=identical_users(), cost=switch_costs)
    @settings(max_examples=40, deadline=None)
    def test_makespan_lower_bound(self, users, cost):
        """The engine is one resource: makespan >= total gpu + switches."""
        makespan, _, stats = simulate_concurrent(
            users, cost, DeficitFairScheduler(600 * US))
        total_gpu = sum(s.duration for u in users for s in u
                        if s.kind == "gpu")
        floor = total_gpu + stats["context_switches"] * cost
        assert makespan >= floor - 1e-9


class TestFairTracksOracleOnWorkloads:
    """Satellite cross-check: DRR with the calibrated quantum stays
    within a small relative band of ``simulate_concurrent`` on the
    actual Figure 8/9 segment inputs (and is exact at one user)."""

    @pytest.mark.parametrize("app", ["backprop", "bfs", "hotspot",
                                     "needleman-wunsch", "srad"])
    @pytest.mark.parametrize("num_users", [2, 4])
    def test_within_tolerance(self, app, num_users):
        workload = {w.name: w for w in rodinia_workloads()}[app]
        result = fair_crosscheck(workload, num_users)
        assert result.relative_delta < 0.02

    def test_single_user_exact(self):
        workload = next(iter(rodinia_workloads()))
        result = fair_crosscheck(workload, 1)
        assert result.fair_makespan == pytest.approx(
            result.oracle_makespan, rel=1e-9)
