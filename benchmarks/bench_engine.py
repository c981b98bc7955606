"""Event-kernel micro-benchmarks: wall-clock cost of the substrate.

Every timing layer now executes on :mod:`repro.sim.engine`, so the
kernel's per-event overhead multiplies through the whole evaluation
(multi-user sweeps, serving runs, pipelined copies).  These benchmarks
isolate the kernel itself: the raw heap, the lane layer under native
FIFO, backpressured lanes, and the pipelined-copy process pair.
"""

import pytest

from repro.sim.engine import EventClock, TenantLane, WorkUnit, run_lanes
from tests.property.oracles import pipelined_time_events

MB = 1 << 20
GB = 1 << 30


@pytest.mark.benchmark(group="engine")
def test_perf_event_heap(benchmark):
    """Schedule + drain 10k bare events (no processes, no resource)."""
    def run():
        clock = EventClock()
        sink = []
        for index in range(10_000):
            clock.schedule(float(index % 97), sink.append)
        clock.run()
        return len(sink)

    assert benchmark(run) == 10_000


def _lanes(num_lanes: int, units: int, max_inflight: int = 1):
    return [TenantLane(units=[
        WorkUnit(100e-6 + index * 1e-6, 200e-6 + index * 2e-6, "u")
        for index in range(units)], max_inflight=max_inflight)
        for _ in range(num_lanes)]


@pytest.mark.benchmark(group="engine")
def test_perf_run_lanes_native_fifo(benchmark):
    """8 lanes x 100 units through one engine, kernel-native FIFO."""
    benchmark(run_lanes, _lanes(8, 100), None, 120e-6)


@pytest.mark.benchmark(group="engine")
def test_perf_run_lanes_backpressured(benchmark):
    """Deep lanes against an inflight cap: the block/resume path."""
    benchmark(run_lanes, _lanes(4, 200, max_inflight=2), None, 120e-6)


@pytest.mark.benchmark(group="engine")
def test_perf_pipeline_events(benchmark):
    """256 chunk processes through a two-stage pipeline."""
    result = benchmark(pipelined_time_events, 256 * MB, [2 * GB, GB], MB,
                       [20e-6, 5e-6])
    assert result > 0.0
