"""Serving-layer micro-benchmarks: wall-clock cost of multiplexing.

Two layers are measured separately: the pure virtual-time scheduling
core (no machine, no crypto — just the event loop and a scheduler), and
a full serving run where every request travels the sealed path.  High
inflation keeps the real byte volume small so the full run measures
serving overhead rather than AEAD throughput (which
``bench_simulator_perf`` covers).
"""

import pytest

from repro.core.multiuser import Segment, simulate_concurrent
from repro.serve.scheduler import DeficitFairScheduler, FifoScheduler

INFLATION = 8192.0


def _users(num_users: int, phases: int = 50):
    stream = []
    for index in range(phases):
        stream.append(Segment("host", 100e-6 + index * 1e-6, "h"))
        stream.append(Segment("gpu", 200e-6 + index * 2e-6, "g"))
    return [list(stream) for _ in range(num_users)]


@pytest.mark.benchmark(group="serve")
def test_perf_multiplex_core_fifo(benchmark):
    users = _users(8)
    benchmark(simulate_concurrent, users, 120e-6, FifoScheduler())


@pytest.mark.benchmark(group="serve")
def test_perf_multiplex_core_fair(benchmark):
    users = _users(8)

    def run():
        scheduler = DeficitFairScheduler(600e-6)
        return simulate_concurrent(users, 120e-6, scheduler)

    benchmark(run)


@pytest.mark.benchmark(group="serve")
def test_perf_serve_engine_two_tenants(benchmark):
    """Full path: 2 tenants x nn through attested sealed sessions."""
    from repro.evalkit.serve_sweep import serve_run
    from repro.workloads import rodinia_workloads

    workload = {w.name: w for w in rodinia_workloads()}["nn"]

    def run():
        report = serve_run(workload, 2, scheduler="fair",
                           inflation=INFLATION)
        assert all(t.served == t.submitted for t in report.tenants)
        return report

    benchmark.pedantic(run, rounds=3, iterations=1)
