"""Observability micro-benchmarks: the cost of tracing, on and off.

The tracer's contract is *zero-cost when disabled*: the ``traced``
wrapper on every layer boundary, like the ``span`` helper, costs one
attribute load and one branch, and computes no span attributes.  These
benchmarks pin that contract in the perf gate — the disabled-tracer HIX
roundtrip must track ``bench_simulator_perf``'s equivalent, the
disabled span helper must stay at branch-cost, and the enabled paths
must stay cheap enough that profiling runs remain practical.
"""

import pytest

from repro import obs
from repro.obs.export import chrome_trace
from repro.obs.tracer import SpanTracer
from repro.sim.clock import SimClock


@pytest.fixture(autouse=True)
def _tracer_state():
    """Every benchmark leaves the process tracer the way it found it."""
    previous = obs.set_tracer(None)
    yield
    obs.set_tracer(previous)


def _hix_machine():
    from repro.system import Machine, MachineConfig
    machine = Machine(MachineConfig())
    service = machine.boot_secure()
    api = machine.secure_session(service, "bench").cuCtxCreate()
    buf = api.cuMemAlloc(64 * 1024)
    payload = b"\xab" * (64 * 1024)
    return machine, api, buf, payload


@pytest.mark.benchmark(group="obs")
def test_perf_hix_roundtrip_tracer_disabled(benchmark):
    """Full instrumented stack with no tracer: the traced wrappers' cost."""
    _machine, api, buf, payload = _hix_machine()

    def run():
        api.cuMemcpyHtoD(buf, payload)
        return api.cuMemcpyDtoH(buf, len(payload))

    assert benchmark(run) == payload


@pytest.mark.benchmark(group="obs")
def test_perf_hix_roundtrip_tracer_enabled(benchmark):
    """Same roundtrip with spans + charge leaves recorded."""
    machine, api, buf, payload = _hix_machine()
    tracer = obs.enable(machine.clock)

    def run():
        tracer.clear()
        api.cuMemcpyHtoD(buf, payload)
        return api.cuMemcpyDtoH(buf, len(payload))

    assert benchmark(run) == payload
    tracer.detach()


@pytest.mark.benchmark(group="obs")
def test_perf_span_helper_disabled(benchmark):
    """obs.span() with no tracer: one load + branch, NULL_SPAN reuse."""
    def run():
        for _ in range(1000):
            with obs.span("op", "bench"):
                pass
        return True

    assert benchmark(run)


@pytest.mark.benchmark(group="obs")
def test_perf_span_tree_enabled(benchmark):
    """1000 nested spans against a live clock-bound tracer."""
    clock = SimClock()
    tracer = SpanTracer()
    tracer.bind_clock(clock)

    def run():
        tracer.clear()
        with tracer.span("root", "bench"):
            for _ in range(1000):
                with tracer.span("child", "bench", k=1):
                    pass
        return len(tracer.roots)

    assert benchmark(run) == 1


@pytest.mark.benchmark(group="obs")
def test_perf_chrome_export_1k_spans(benchmark):
    tracer = SpanTracer()
    with tracer.span("root", "bench", tenant="t0"):
        for index in range(1000):
            tracer.event("leaf", "gpu", float(index), 0.5)
    roots = list(tracer.roots)

    def run():
        return len(chrome_trace(roots)["traceEvents"])

    assert benchmark(run) > 1000
