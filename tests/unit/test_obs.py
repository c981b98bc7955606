"""Unit tests for the observability layer (repro.obs).

Covers the span tracer (nesting, attribute propagation through the
ancestor chain, disabled-tracer no-op), the metrics registry, the
exporters (Chrome trace / JSONL round trips, track layout), and the
two invariants the layer promises: fastpath_counters now includes the
kernel counters, and simulated-time results are bit-identical with
tracing enabled or disabled.
"""

import json

import pytest

from repro import obs
from repro.obs import export, metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_SPAN, Span, SpanTracer
from repro.sim.clock import SimClock


@pytest.fixture(autouse=True)
def _isolated_obs():
    """Fresh registry, no tracer; restore whatever was installed after."""
    previous_tracer = obs.set_tracer(None)
    previous_registry = obs_metrics.registry()
    obs_metrics.reset_registry()
    yield
    obs.set_tracer(previous_tracer)
    obs_metrics.set_registry(previous_registry)


class TestSpanTracer:
    def test_nesting_builds_a_tree(self):
        tracer = SpanTracer()
        with tracer.span("outer", "a"):
            with tracer.span("inner", "b"):
                pass
            with tracer.span("sibling", "c"):
                pass
        (root,) = tracer.roots
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner", "sibling"]
        assert root.children[0].parent is root

    def test_attribute_propagation_through_ancestors(self):
        tracer = SpanTracer()
        with tracer.span("request", "serve", tenant="user0"):
            with tracer.span("copy", "hix") as inner:
                assert inner.attr("tenant") == "user0"
                assert inner.attr("missing", 42) == 42

    def test_clock_charges_become_leaves_under_open_span(self):
        clock = SimClock()
        tracer = SpanTracer()
        tracer.attach(clock)
        with tracer.span("work", "serve"):
            clock.advance(1.5, "gpu_compute")
        tracer.detach()
        (root,) = tracer.roots
        (leaf,) = root.children
        assert leaf.category == "gpu_compute"
        assert leaf.start == pytest.approx(0.0)
        assert leaf.duration == pytest.approx(1.5)

    def test_virtual_time_bounds_from_bound_clock(self):
        clock = SimClock()
        tracer = SpanTracer()
        tracer.bind_clock(clock)
        clock.advance(1.0, "x")
        with tracer.span("op", "a"):
            clock.advance(2.0, "y")
        (root,) = tracer.roots
        assert root.start == pytest.approx(1.0)
        assert root.end == pytest.approx(3.0)
        assert root.wall_seconds >= 0.0

    def test_event_records_completed_span(self):
        tracer = SpanTracer()
        tracer.event("engine.dispatch", "engine", 2.0, 0.5, tenant="t")
        (root,) = tracer.roots
        assert (root.start, root.end) == (2.0, 2.5)
        assert root.attrs["tenant"] == "t"

    def test_find_and_walk(self):
        tracer = SpanTracer()
        with tracer.span("a", "x"):
            with tracer.span("b", "y"):
                pass
        assert tracer.find("b").name == "b"
        assert [s.name for s in tracer.roots[0].walk()] == ["a", "b"]

    def test_disabled_module_span_is_null(self):
        assert obs.tracer() is None
        assert obs.span("anything", "cat", k=1) is NULL_SPAN
        # NULL_SPAN is inert and reusable as a context manager.
        with obs.span("again") as node:
            assert node is NULL_SPAN
        assert NULL_SPAN.attr("k", "d") == "d"

    def test_enable_disable_roundtrip(self):
        clock = SimClock()
        tracer = obs.enable(clock)
        assert obs.tracer() is tracer
        with obs.span("op", "cat"):
            clock.advance(1.0, "x")
        previous = obs.disable()
        assert previous is tracer
        assert obs.tracer() is None
        assert tracer.find("op") is not None

    def test_exceptions_still_close_spans(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            with tracer.span("outer", "a"):
                raise ValueError("boom")
        assert tracer._stack == []


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        hist = registry.histogram("h")
        hist.observe(5e-6)
        hist.observe(0.5)
        snap = registry.snapshot()
        assert snap["c"] == 5
        assert snap["g"] == 2.5
        assert snap["h"]["count"] == 2
        assert snap["h"]["min"] == pytest.approx(5e-6)
        assert snap["h"]["max"] == pytest.approx(0.5)
        assert hist.mean == pytest.approx((5e-6 + 0.5) / 2)

    def test_histogram_bucketing_and_overflow(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_callback_gauge_reads_live_value(self):
        registry = MetricsRegistry()
        box = {"v": 1}
        registry.gauge_fn("live", lambda: box["v"])
        assert registry.snapshot()["live"] == 1
        box["v"] = 7
        assert registry.snapshot()["live"] == 7

    def test_render_flat_text(self):
        registry = MetricsRegistry()
        registry.counter("a.count").inc(3)
        hist = registry.histogram("a.lat", buckets=(1.0,))
        hist.observe(0.5)
        hist.observe(2.0)
        text = registry.render()
        assert "a.count 3" in text
        assert "a.lat{le=1} 1" in text
        assert "a.lat{le=+inf} 1" in text

    def test_reset_registry_installs_fresh(self):
        obs_metrics.registry().counter("old").inc()
        fresh = obs_metrics.reset_registry()
        assert obs_metrics.registry() is fresh
        assert fresh.get("old") is None


def _tree():
    tracer = SpanTracer()
    with tracer.span("request", "serve", tenant="user0", seq=3):
        with tracer.span("copy", "hix", bytes=64):
            pass
        tracer.event("gpu_compute", "gpu_compute", 1.0, 0.5)
    tracer.event("host", "host", 0.0, 1.0, tenant="user0", lane=True)
    return list(tracer.roots)


def _shape(spans):
    return [
        (s.name, s.category, s.start, s.end, dict(s.attrs),
         _shape(s.children))
        for s in spans
    ]


class TestExporters:
    def test_chrome_roundtrip_is_lossless(self):
        roots = _tree()
        payload = export.chrome_trace(roots)
        rebuilt = export.chrome_to_spans(payload)
        assert _shape(rebuilt) == _shape(roots)

    def test_chrome_payload_is_json_and_has_tracks(self):
        payload = export.chrome_trace(_tree())
        text = json.dumps(payload)
        parsed = json.loads(text)
        xs = [e for e in parsed["traceEvents"] if e["ph"] == "X"]
        pids = {e["pid"] for e in xs}
        # lane span -> tenant lanes; request tree -> production track;
        # the anonymous gpu_compute leaf inherits tenant via its parent.
        assert export.TENANT_LANES_PID in pids
        assert export.PRODUCTION_PID in pids

    def test_track_assignment_rules(self):
        hardware = Span("mmu.translate_range", "mmu")
        lane = Span("gpu", "gpu", attrs={"tenant": "t", "lane": True})
        production = Span("serve.request", "serve", attrs={"tenant": "t"})
        assert export._track(hardware)[0] == export.HARDWARE_PID
        assert export._track(lane)[0] == export.TENANT_LANES_PID
        assert export._track(production)[0] == export.PRODUCTION_PID

    def test_jsonl_roundtrip(self):
        roots = _tree()
        rebuilt = export.spans_from_jsonl(export.spans_to_jsonl(roots))
        assert _shape(rebuilt) == _shape(roots)

    def test_lane_spans_reproduce_render_lanes_interleaving(self):
        """A traced serve run's lane spans export as one schedule track
        per tenant holding exactly the lane events ``render_lanes``
        draws for that run."""
        from repro.evalkit.serve_sweep import serve_run
        from repro.sim.trace import render_lanes
        from repro.system import Machine, MachineConfig
        from repro.workloads import MatrixAdd

        machine = Machine(MachineConfig(data_inflation=2048.0))
        tracer = obs.enable(machine.clock)
        try:
            report = serve_run(MatrixAdd(2048), 2, scheduler="fair",
                               inflation=2048.0, machine=machine)
        finally:
            obs.disable()
            tracer.detach()
        payload = export.chrome_trace(tracer.spans())
        tracks = {event["tid"]: event["args"]["name"]
                  for event in payload["traceEvents"]
                  if event["ph"] == "M" and event["name"] == "thread_name"
                  and event["pid"] == export.TENANT_LANES_PID}
        by_tenant = {}
        for event in payload["traceEvents"]:
            if event["ph"] == "X" and event["pid"] == export.TENANT_LANES_PID:
                by_tenant.setdefault(tracks[event["tid"]], []).append(
                    (event["args"]["start_s"], event["args"]["end_s"],
                     event["cat"]))
        assert len(report.lanes) == 2
        assert by_tenant == {
            name: [(e.start, e.end, e.category) for e in events]
            for name, events in report.lanes.items()}
        # The same events render in ASCII: both views describe one schedule.
        text = render_lanes(report.lanes, width=40)
        assert all(name in text for name in report.lanes)

    def test_write_helpers(self, tmp_path):
        roots = _tree()
        registry = MetricsRegistry()
        registry.counter("n").inc(2)
        chrome = export.write_chrome(tmp_path / "a" / "t.json", roots,
                                     metrics=registry)
        jsonl = export.write_jsonl(tmp_path / "t.jsonl", roots)
        metrics = export.write_metrics(tmp_path / "m.json", registry)
        assert json.loads(chrome.read_text())["metrics"]["n"] == 2
        assert len(export.spans_from_jsonl(jsonl.read_text())) == len(roots)
        assert json.loads(metrics.read_text()) == {"n": 2}


class TestInstrumentation:
    def test_fastpath_counters_include_engine_counters(self):
        from repro.sim.trace import fastpath_counters
        from repro.system import Machine, MachineConfig
        machine = Machine(MachineConfig())
        counters = fastpath_counters(machine)
        for key in ("engine_events_processed", "engine_ctx_switches",
                    "engine_deadline_expiries"):
            assert key in counters

    def test_engine_counters_accumulate_on_serve_run(self):
        from repro.serve import ServeEngine, TenantQuota
        from repro.sim.trace import fastpath_counters
        from repro.system import Machine, MachineConfig
        machine = Machine(MachineConfig())
        engine = ServeEngine(machine, scheduler="fifo", max_tenants=2,
                             default_quota=TenantQuota())
        for name in ("a", "b"):
            client = engine.add_tenant(name)
            client.submit("alloc", lambda api: api.cuMemAlloc(4096))
        report = engine.run()
        assert report.makespan > 0.0
        counters = fastpath_counters(machine)
        assert counters["engine_events_processed"] > 0
        snap = obs_metrics.registry().snapshot()
        assert snap["serve.requests_served"] == 2
        assert snap["serve.queue_accepted"] == 2
        assert snap["serve.request_host_seconds"]["count"] == 2
        assert snap["serve.makespan_seconds"] == pytest.approx(
            report.makespan)

    def test_machine_registers_fastpath_gauges(self):
        from repro.system import Machine, MachineConfig
        machine = Machine(MachineConfig())
        machine.mmu.tlb.hits += 3
        assert obs_metrics.registry().snapshot()["fastpath.tlb_hits"] >= 3

    def test_traced_run_single_is_bit_identical(self):
        from repro.evalkit.harness import run_single
        from repro.system import Machine, MachineConfig
        from repro.workloads import MatrixAdd

        workload = MatrixAdd(2048)
        baseline_machine = Machine(MachineConfig(data_inflation=2048.0))
        baseline = run_single(workload, "hix", 2048.0,
                              machine=baseline_machine)

        traced_machine = Machine(MachineConfig(data_inflation=2048.0))
        tracer = obs.enable(traced_machine.clock)
        try:
            traced = run_single(workload, "hix", 2048.0,
                                machine=traced_machine)
        finally:
            obs.disable()
            tracer.detach()
        assert traced.seconds == baseline.seconds
        assert traced.breakdown == baseline.breakdown
        # The trace saw the layers: sgx instructions, aead, request spans.
        categories = {s.category for s in tracer.spans()}
        assert "sgx" in categories
        assert "aead" in categories
        assert "hix" in categories

    def test_traced_serve_run_is_bit_identical(self):
        from repro.evalkit.serve_sweep import serve_run
        from repro.system import Machine, MachineConfig
        from repro.workloads import MatrixAdd

        workload = MatrixAdd(2048)
        baseline = serve_run(workload, 2, scheduler="fair",
                             inflation=2048.0)

        machine = Machine(MachineConfig(data_inflation=2048.0))
        tracer = obs.enable(machine.clock)
        try:
            traced = serve_run(workload, 2, scheduler="fair",
                               inflation=2048.0, machine=machine)
        finally:
            obs.disable()
            tracer.detach()
        assert traced.makespan == baseline.makespan
        assert traced.context_switches == baseline.context_switches
        # Per-tenant lane events match the report's lanes exactly.
        lane_spans = [s for s in tracer.spans()
                      if s.attr("lane") is not None]
        by_tenant = {}
        for span in lane_spans:
            by_tenant.setdefault(span.attr("tenant"), []).append(
                (span.start, span.end, span.category))
        for name, events in traced.lanes.items():
            assert by_tenant[name] == [
                (e.start, e.end, e.category) for e in events]
        # Request spans carry tenant identity down to their leaves.
        request = next(s for s in tracer.spans()
                       if s.name == "serve.request")
        assert request.attr("tenant") in traced.lanes
        assert any(child.attr("tenant") == request.attr("tenant")
                   for child in request.children)

    def test_profile_artifact_roundtrip(self, tmp_path):
        from repro.evalkit.profiles import profile_serve
        from repro.workloads import MatrixAdd
        artifact = profile_serve(MatrixAdd(2048), 2, scheduler="fifo",
                                 inflation=2048.0, out_dir=tmp_path)
        assert artifact.chrome_path is not None
        payload = json.loads(artifact.chrome_path.read_text())
        rebuilt = export.chrome_to_spans(payload)
        assert _shape(rebuilt) == _shape(artifact.spans)
        assert "serve.requests_served" in payload["metrics"]
