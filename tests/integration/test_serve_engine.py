"""Integration: the multi-tenant serving engine over the real sealed path.

Every request in these tests executes the full machinery — attested
sessions, sealed request/reply, single-copy transfers, enclave-side
dispatch — while the serving layer multiplexes tenants on the virtual
timeline.  This is the Figures 8/9 experiment through the production
command path rather than the analytic segment model.
"""

import pytest

from repro.errors import BackpressureError
from repro.evalkit.serve_sweep import (
    SWEEP_QUOTA,
    fair_crosscheck,
    serve_figure,
    serve_run,
)
from repro.obs import metrics as obs_metrics
from repro.serve import ServeEngine, TenantQuota
from repro.serve.jobs import submit_workload
from repro.system import Machine, MachineConfig
from repro.workloads import rodinia_workloads

INFLATION = 1024.0


def _workload(name="backprop"):
    return {w.name: w for w in rodinia_workloads()}[name]


@pytest.fixture
def machine():
    return Machine(MachineConfig(data_inflation=INFLATION))


class TestServeEngineEndToEnd:
    def test_single_tenant_serves_everything(self, machine):
        engine = ServeEngine(machine, scheduler="fifo",
                             default_quota=SWEEP_QUOTA)
        client = engine.add_tenant("solo")
        submit_workload(client, _workload(), INFLATION, machine.costs)
        report = engine.run()
        tenant = report.tenant("solo")
        assert tenant.served == tenant.submitted > 0
        assert tenant.timed_out == tenant.denied == tenant.failed == 0
        assert report.makespan > 0
        assert report.context_switches == 0

    def test_concurrency_slows_down_sublinearly(self):
        """Two tenants finish later than one, but well under 2x: host
        work overlaps, only the GPU engine serializes (Fig 8 shape)."""
        makespans = {}
        for n in (1, 2):
            report = serve_run(_workload(), n, scheduler="fair",
                               inflation=INFLATION,
                               crypto_efficiency=0.5)
            assert all(t.served == t.submitted for t in report.tenants)
            makespans[n] = report.makespan
        slowdown = makespans[2] / makespans[1]
        assert 1.05 < slowdown < 1.9
        # With >1 tenant the engine changes owner.
        report = serve_run(_workload(), 2, inflation=INFLATION)
        assert report.context_switches > 0

    def test_per_tenant_metrics_and_lanes(self, machine):
        engine = ServeEngine(machine, scheduler="fair",
                             default_quota=SWEEP_QUOTA)
        for name in ("alice", "bob"):
            submit_workload(engine.add_tenant(name), _workload("nn"),
                            INFLATION, machine.costs)
        report = engine.run()
        assert set(report.lanes) == {"alice", "bob"}
        for name in ("alice", "bob"):
            tenant = report.tenant(name)
            assert tenant.gpu_busy > 0 and tenant.host_busy > 0
            assert tenant.peak_memory > 0
            assert report.lanes[name]  # trace events recorded
        rendered = report.render()
        assert "alice" in rendered and "#" in rendered
        # Both tenants' engine seconds agree: identical work, one device.
        assert report.tenant("alice").gpu_busy == pytest.approx(
            report.tenant("bob").gpu_busy, rel=1e-6)

    def test_memo_hits_and_misses_published_per_run(self, machine):
        obs_metrics.reset_registry()
        engine = ServeEngine(machine, default_quota=SWEEP_QUOTA)
        clients = [engine.add_tenant(name) for name in ("alice", "bob")]
        for _ in range(2):
            for client in clients:
                submit_workload(client, _workload("nn"), INFLATION,
                                machine.costs)
            engine.run()
        stats = engine.memo.stats()
        assert stats["hits"] > 0 and stats["misses"] > 0
        registry = obs_metrics.registry()
        assert registry.counter("serve.memo.hits").value == stats["hits"]
        assert registry.counter("serve.memo.misses").value \
            == stats["misses"]

    def test_memory_quota_denies_but_session_survives(self, machine):
        tight = TenantQuota(device_memory_bytes=4096, max_queue_depth=16)
        engine = ServeEngine(machine, default_quota=tight)
        client = engine.add_tenant("small")
        client.submit("too-big", lambda api: api.cuMemAlloc(1 << 20))
        client.submit("fits", lambda api: api.cuMemAlloc(2048))
        report = engine.run()
        tenant = report.tenant("small")
        assert tenant.denied == 1
        assert tenant.served == 1
        assert tenant.quota_denials == 1
        assert client.requests[0].outcome == "denied"
        assert "budget" in client.requests[0].error

    def test_context_cap_denies_second_client(self, machine):
        quota = TenantQuota(max_contexts=1)
        engine = ServeEngine(machine, default_quota=quota)
        first = engine.add_tenant("t")
        second = engine.add_tenant("t")  # same tenant, second context
        first.submit("ok", lambda api: api.cuMemAlloc(4096))
        second.submit("starved", lambda api: api.cuMemAlloc(4096))
        report = engine.run()
        assert second.admission_error is not None
        assert second.requests[0].outcome == "denied"
        assert first.requests[0].outcome == "served"
        # Both clients share one tenant record; reports stay per-lane.
        assert report.tenant("t").served == 1
        assert report.tenant("t#1").denied == 1

    def test_submit_backpressure_at_queue_depth(self, machine):
        engine = ServeEngine(
            machine, default_quota=TenantQuota(max_queue_depth=2))
        client = engine.add_tenant("t")
        client.submit("a", lambda api: None)
        client.submit("b", lambda api: None)
        with pytest.raises(BackpressureError):
            client.submit("c", lambda api: None)
        assert client.queue.counters.rejected == 1

    def test_request_timeout_expires_on_virtual_timeline(self, machine):
        quota = TenantQuota(max_queue_depth=64, request_timeout=1e-6,
                            device_memory_bytes=256 << 20)
        engine = ServeEngine(machine, default_quota=quota)
        for name in ("hog", "victim"):
            submit_workload(engine.add_tenant(name), _workload(),
                            INFLATION, machine.costs)
        report = engine.run()
        timed_out = sum(t.timed_out for t in report.tenants)
        served = sum(t.served for t in report.tenants)
        assert timed_out > 0
        assert served > 0  # host-only requests never expire

    def test_session_table_clean_after_run(self, machine):
        engine = ServeEngine(machine, default_quota=SWEEP_QUOTA)
        submit_workload(engine.add_tenant("t"), _workload("nn"),
                        INFLATION, machine.costs)
        engine.run()
        record = engine.table.get("t")
        assert record.contexts_open == 0
        assert record.memory_in_use == 0
        assert record.peak_memory > 0

    def test_service_shared_and_alive(self, machine):
        engine = ServeEngine(machine, default_quota=SWEEP_QUOTA)
        for index in range(3):
            submit_workload(engine.add_tenant(f"u{index}"), _workload("nn"),
                            INFLATION, machine.costs)
        engine.run()
        assert engine.service.alive
        # Security posture unchanged: the enclave served 3 tenants
        # through sealed sessions on one device.
        assert len(engine.table) == 3


class TestServeSweep:
    def test_figure_shape_matches_analytic(self):
        figure = serve_figure(_workload(), users=(1, 2, 4),
                              inflation=INFLATION)
        serve_rel = figure.series["serve (sealed path)"]
        analytic_rel = figure.series["analytic (Fig 8/9 model)"]
        assert serve_rel[0] == analytic_rel[0] == 1.0
        assert serve_rel == sorted(serve_rel)  # monotone in users
        for mine, model in zip(serve_rel[1:], analytic_rel[1:]):
            assert mine == pytest.approx(model, rel=0.25)

    def test_fair_crosscheck_tight(self):
        result = fair_crosscheck(_workload(), 4)
        assert result.relative_delta < 0.02
        assert "cross-check" in result.render()

    def test_scheduler_choice_changes_schedule_not_work(self):
        reports = {name: serve_run(_workload("nn"), 2, scheduler=name,
                                   inflation=INFLATION,
                                   crypto_efficiency=0.5)
                   for name in ("fifo", "round-robin", "fair")}
        served = {name: sum(t.served for t in r.tenants)
                  for name, r in reports.items()}
        assert len(set(served.values())) == 1  # same work completed
        gpu = {name: sum(t.gpu_busy for t in r.tenants)
               for name, r in reports.items()}
        assert max(gpu.values()) == pytest.approx(min(gpu.values()),
                                                  rel=1e-6)


class TestServeCli:
    def test_serve_command(self, capsys):
        from repro.cli import main
        assert main(["serve", "--users", "2", "--workload", "nn",
                     "--inflation", "1024"]) == 0
        out = capsys.readouterr().out
        assert "2 tenant(s)" in out
        assert "scheduler=fair" in out
        assert "Serve sweep" in out
        assert "cross-check" in out

    def test_serve_single_user_skips_sweep(self, capsys):
        from repro.cli import main
        assert main(["serve", "--users", "1", "--workload", "nn",
                     "--scheduler", "fifo", "--inflation", "1024"]) == 0
        out = capsys.readouterr().out
        assert "1 tenant(s)" in out
        assert "Serve sweep" not in out
