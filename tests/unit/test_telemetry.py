"""Unit tests for the virtual-time telemetry stack.

Covers the windowed time-series sampler (:mod:`repro.obs.timeseries`),
the per-tenant SLO/burn-rate engine (:mod:`repro.obs.slo`), the
append-only security audit log (:mod:`repro.obs.audit`), the chaos
detection matcher (:mod:`repro.chaos.detection`), and the dashboard
export (:mod:`repro.obs.dashboard`).
"""

import json

import pytest

from repro.chaos.detection import DetectionCheck, match_detections
from repro.obs.audit import AuditLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    Alert,
    AlertManager,
    SloObjective,
    bad_series,
    good_series,
    latency_series,
    shed_series,
    timeout_series,
)
from repro.obs.timeseries import TimeSeriesSampler
from repro.sim.clock import SimClock


# ---------------------------------------------------------------------------
# TimeSeriesSampler
# ---------------------------------------------------------------------------


class TestTimeSeriesSampler:
    def test_marks_bucket_by_window(self):
        sampler = TimeSeriesSampler(width=1e-3)
        sampler.mark("hits", 0.4e-3)
        sampler.mark("hits", 0.9e-3)
        sampler.mark("hits", 1.1e-3, amount=3.0)
        assert sampler.mark_count("hits", 0) == 2.0
        assert sampler.mark_count("hits", 1) == 3.0
        assert sampler.mark_series("hits") == [(0.0, 2.0), (1e-3, 3.0)]
        assert sampler.rate_series("hits") == [(0.0, 2000.0),
                                               (1e-3, 3000.0)]

    def test_observations_window_quantiles(self):
        sampler = TimeSeriesSampler(width=1e-3)
        for value in (2e-4, 3e-4, 4e-4):
            sampler.observe("lat", 0.5e-3, value)
        sampler.observe("lat", 1.5e-3, 9e-4)
        accum = sampler.accum("lat", 0)
        assert accum.count == 3
        assert accum.min == 2e-4 and accum.max == 4e-4
        assert sampler.quantile("lat", 1, 1.0) == 9e-4
        series = sampler.quantile_series("lat", 0.5)
        assert [start for start, _ in series] == [0.0, 1e-3]

    def test_counter_boundary_deltas(self):
        registry = MetricsRegistry()
        clock = SimClock()
        sampler = TimeSeriesSampler(width=1e-3, registry=registry)
        sampler.attach(clock)
        counter = registry.counter("reqs")
        counter.inc(5)
        clock.advance(1.2e-3, "work")       # crosses boundary 1
        counter.inc(7)
        clock.advance(1.0e-3, "work")       # crosses boundary 2
        sampler.finalize(clock.now)
        series = dict(sampler.counter_series("reqs"))
        assert series[0.0] == 5.0
        assert series[1e-3] == 7.0
        rates = dict(sampler.counter_rate_series("reqs"))
        assert rates[0.0] == 5000.0

    def test_attach_is_idempotent_per_clock(self):
        clock = SimClock()
        sampler = TimeSeriesSampler(width=1e-3)
        sampler.attach(clock)
        sampler.attach(clock)
        assert len(clock._listeners) == 1
        sampler.detach()
        assert clock._listeners == []

    def test_listener_never_schedules(self):
        """The sampler must not perturb the clock it observes: after
        attach, advancing charges leaves simulated time exactly what
        the charges sum to."""
        clock = SimClock()
        TimeSeriesSampler(width=1e-4).attach(clock)
        clock.advance(3.7e-4, "a")
        clock.advance(1.3e-4, "b")
        assert clock.now == 3.7e-4 + 1.3e-4

    def test_to_dict_round_trips_through_json(self):
        sampler = TimeSeriesSampler(width=1e-3)
        sampler.mark("m", 0.1e-3)
        sampler.observe("lat", 0.2e-3, 5e-4)
        payload = json.loads(json.dumps(sampler.to_dict()))
        assert payload["width"] == 1e-3
        assert payload["marks"]["m"][0]["count"] == 1
        assert payload["observed"]["lat"][0]["p99"] == 5e-4

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(width=0.0)


# ---------------------------------------------------------------------------
# SLO engine
# ---------------------------------------------------------------------------


def _sampler_with(tenant, windows):
    """Build a sampler from {window: (good, bad, [latencies])}."""
    sampler = TimeSeriesSampler(width=1e-3)
    for index, (good, bad, latencies) in windows.items():
        time = (index + 0.5) * 1e-3
        if good:
            sampler.mark(good_series(tenant), time, good)
        if bad:
            sampler.mark(bad_series(tenant), time, bad)
        for value in latencies:
            sampler.observe(latency_series(tenant), time, value)
    return sampler


class TestSloEngine:
    def test_burn_rate_needs_both_windows(self):
        # Fast window burns hot but the slow window has seen almost no
        # errors: the two-window rule must stay quiet (blip
        # suppression), then fire once the slow window catches up.
        objective = SloObjective(availability=0.99, fast_windows=1,
                                 slow_windows=4, fast_burn=10.0,
                                 slow_burn=5.0)
        quiet = _sampler_with("t", {0: (99, 1, []), 1: (99, 1, []),
                                    2: (99, 1, []), 3: (20, 5, [])})
        manager = AlertManager(quiet, {"t": objective})
        fast_only = [a for a in manager.evaluate()
                     if a.rule == "burn-rate"]
        hot = _sampler_with("t", {0: (50, 50, []), 1: (50, 50, []),
                                  2: (50, 50, []), 3: (50, 50, [])})
        both = [a for a in AlertManager(hot, {"t": objective}).evaluate()
                if a.rule == "burn-rate"]
        assert not fast_only
        assert both and both[0].firing_at == 1e-3

    def test_latency_rule_fires_and_resolves(self):
        objective = SloObjective(latency_target=1e-3,
                                 latency_quantile=0.99)
        sampler = _sampler_with("t", {0: (1, 0, [5e-4]),
                                      1: (1, 0, [5e-3]),
                                      2: (1, 0, [4e-4])})
        alerts = AlertManager(sampler, {"t": objective}).evaluate()
        latency_alerts = [a for a in alerts if a.rule == "latency"]
        assert len(latency_alerts) == 1
        alert = latency_alerts[0]
        assert alert.firing_at == 2e-3       # boundary closing window 1
        assert alert.resolved_at == 3e-3
        assert not alert.firing

    def test_timeout_and_shed_ratios(self):
        objective = SloObjective(max_timeout_ratio=0.1,
                                 max_shed_ratio=0.2, fast_windows=1)
        sampler = _sampler_with("t", {0: (8, 2, [])})
        sampler.mark(timeout_series("t"), 0.5e-3, 2.0)
        sampler.mark(shed_series("t"), 0.5e-3, 5.0)
        alerts = AlertManager(sampler, {"t": objective}).evaluate()
        causes = " ".join(a.cause for a in alerts)
        assert "serve.timeout.t" in causes
        assert "serve.shed.t" in causes

    def test_alerts_mirror_into_audit(self):
        audit = AuditLog()
        objective = SloObjective(latency_target=1e-3)
        sampler = _sampler_with("t", {0: (1, 0, [5e-3]),
                                      1: (1, 0, [1e-4])})
        AlertManager(sampler, {"t": objective}, audit=audit).evaluate()
        kinds = [event.kind for event in audit]
        assert "alert.firing" in kinds and "alert.resolved" in kinds
        firing = audit.filter(kind="alert.firing")[0]
        assert firing.ok is False and firing.subject == "t"

    def test_report_budget_accounting(self):
        objective = SloObjective(availability=0.9)
        sampler = _sampler_with("t", {0: (60, 20, [2e-4]),
                                      1: (20, 0, [3e-4])})
        report = AlertManager(sampler, {"t": objective}).report()
        row = report.tenants[0]
        assert row.total == 100
        assert row.availability_achieved == 0.8
        assert row.budget_consumed == pytest.approx(2.0)
        assert row.latency_quantile is not None
        assert not report.ok

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SloObjective(availability=1.0)
        with pytest.raises(ValueError):
            SloObjective(fast_windows=3, slow_windows=2)


# ---------------------------------------------------------------------------
# Audit log
# ---------------------------------------------------------------------------


class TestAuditLog:
    def test_append_only_ordering_and_cursor(self):
        log = AuditLog()
        log.record("a", "x", time=1.0)
        mark = log.cursor()
        log.record("b", "y", time=2.0, ok=False, detail="boom", code=7)
        events = log.events_since(mark)
        assert [e.kind for e in events] == ["b"]
        assert events[0].seq == 1
        assert events[0].attrs == {"code": 7}
        assert len(log) == 2

    def test_filter_and_jsonl(self):
        log = AuditLog()
        log.record("a", "x", time=1.0)
        log.record("a", "y", time=2.0)
        log.record("b", "x", time=3.0)
        assert len(log.filter(kind="a")) == 2
        assert len(log.filter(subject="x")) == 2
        assert len(log.filter(kind="a", subject="y")) == 1
        lines = log.to_jsonl().strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[2])["kind"] == "b"


# ---------------------------------------------------------------------------
# Detection matcher
# ---------------------------------------------------------------------------


class _FakeFault:
    def __init__(self, kind, at, tenant=None, fired=True):
        self.kind = kind
        self.at = at
        self.tenant = tenant
        self.fired = fired
        self.label = f"{kind}@{at * 1e3:.1f}ms"
        self.detail = ""


class TestDetectionMatcher:
    def test_audit_match_respects_subject_and_time(self):
        log = AuditLog()
        log.record("serve.fault_detected", "other", time=21e-3, ok=False)
        log.record("serve.fault_detected", "victim", time=19e-3, ok=False)
        log.record("serve.fault_detected", "victim", time=22e-3, ok=False)
        fault = _FakeFault("aead_tamper", at=20e-3, tenant="victim")
        checks = match_detections([fault], log.events, [], bound=8e-3)
        assert checks[0].ok
        assert checks[0].detected_at == 22e-3
        assert checks[0].latency == pytest.approx(2e-3)

    def test_arbitration_faults_need_alerts(self):
        storm = _FakeFault("ctx_storm", at=20e-3)
        starve = _FakeFault("starvation", at=20e-3, tenant="v0")
        alerts = [Alert(rule="latency", tenant="v1", firing_at=21e-3),
                  Alert(rule="latency", tenant="v0", firing_at=23e-3)]
        checks = match_detections([storm, starve], [], alerts, bound=8e-3)
        by_kind = {check.kind: check for check in checks}
        assert by_kind["ctx_storm"].detected_at == 21e-3   # any tenant
        assert by_kind["starvation"].detected_at == 23e-3  # v0 only

    def test_bound_and_missing_evidence_fail(self):
        log = AuditLog()
        log.record("serve.service_restored", "machine", time=40e-3)
        late = _FakeFault("gpu_reset", at=20e-3)
        silent = _FakeFault("session_kill", at=20e-3, tenant="victim")
        unfired = _FakeFault("gpu_reset", at=50e-3, fired=False)
        checks = match_detections([late, silent, unfired], log.events, [],
                                  bound=8e-3)
        assert len(checks) == 2                 # unfired faults skipped
        assert not checks[0].ok and checks[0].detected_at == 40e-3
        assert not checks[1].ok and checks[1].detected_at is None
        assert "NOT DETECTED" in checks[1].render()

    def test_injected_ground_truth_is_not_evidence(self):
        log = AuditLog()
        log.record("chaos.injected", "victim", time=20e-3, ok=False)
        fault = _FakeFault("dma_redirect", at=20e-3, tenant="victim")
        checks = match_detections([fault], log.events, [], bound=8e-3)
        assert not checks[0].ok


# ---------------------------------------------------------------------------
# Dashboard export
# ---------------------------------------------------------------------------


class TestDashboardExport:
    def test_export_writes_three_artifacts(self, tmp_path):
        from repro.obs.dashboard import export_dashboard
        sampler = _sampler_with("t", {0: (5, 1, [2e-4, 8e-4]),
                                      1: (6, 0, [3e-4])})
        manager = AlertManager(
            sampler, {"t": SloObjective(availability=0.99,
                                        latency_target=1e-3)})
        audit = AuditLog()
        audit.record("hix.attestation", "t", time=1e-3)
        paths = export_dashboard(tmp_path, sampler,
                                 report=manager.report(), audit=audit)
        data = json.loads(paths["timeseries"].read_text())
        assert latency_series("t") in data["timeseries"]["observed"]
        assert "slo" in data
        html = paths["dashboard"].read_text()
        assert "<svg" in html and "t" in html
        assert "http" not in html.split("</title>")[1]  # self-contained
        assert json.loads(
            paths["audit"].read_text().strip())["kind"] == "hix.attestation"
