"""Integration tests for the chaos layer (repro.chaos).

Exercises real fault injection against real serving runs: session
eviction with recovery through re-attestation, GPU reset with service
restoration, the named campaigns' three-sided verdicts (security,
fairness, detection), and the determinism contract (same campaign +
same seed => byte-identical rendered report).
"""

from dataclasses import replace

import pytest

from repro.chaos import (
    FaultInjector,
    GpuResetFault,
    SessionKillFault,
    run_campaign,
)
from repro.chaos.campaign import CAMPAIGNS, get_campaign, run_campaign_obj
from repro.chaos.workload import submit_victim_stream
from repro.fleet import Fleet
from repro.obs import metrics as obs_metrics
from repro.serve import BreakerConfig, RetryPolicy, ServeEngine
from repro.serve.queues import SERVED
from repro.serve.session import TenantQuota
from repro.system import Machine, MachineConfig

QUOTA = TenantQuota(max_queue_depth=64, max_inflight=2,
                    device_memory_bytes=8 << 20)


def _engine(tenants=2):
    machine = Machine(MachineConfig(data_inflation=64.0))
    engine = ServeEngine(machine, scheduler="fair", max_tenants=tenants,
                         retry_policy=RetryPolicy(max_attempts=5),
                         breaker=BreakerConfig(window=8,
                                               failure_threshold=0.8,
                                               cooldown=1e-3),
                         seed=0)
    plans = [submit_victim_stream(engine.add_tenant(f"victim{i}", QUOTA),
                                  rounds=2, seed=0)
             for i in range(tenants)]
    return engine, plans


class TestSessionKillRecovery:
    def test_victim_recovers_via_reattestation(self):
        engine, plans = _engine()
        invalidations_before = engine.memo.stats()["invalidations"]
        fault = SessionKillFault(at=20.0e-3, tenant="victim0")
        injector = FaultInjector([fault])
        engine.run(kernel=injector.attach(engine))
        assert fault.fired
        victim = engine.clients[0]
        assert victim.session_epoch >= 1, "session must be re-established"
        assert any(request.outcome == SERVED and request.session_epoch >= 1
                   for request in victim.requests), \
            "requests must complete under the new session"
        assert engine.memo.stats()["invalidations"] > invalidations_before, \
            "session recovery must invalidate the timing memo"
        checks = injector.verify(engine)
        assert checks and all(ok for _, _, ok, _ in checks)

    def test_recovery_counters_published(self):
        obs_metrics.reset_registry()
        engine, plans = _engine()
        injector = FaultInjector([SessionKillFault(at=20.0e-3,
                                                   tenant="victim0")])
        engine.run(kernel=injector.attach(engine))
        snapshot = obs_metrics.registry().snapshot()
        assert snapshot.get("chaos.faults_injected") == 1
        assert snapshot.get("chaos.fault.session_kill") == 1
        assert snapshot.get("serve.retry.session_recoveries", 0) >= 1


class TestFleetInjection:
    def test_fault_fires_only_on_its_machine(self):
        """One injector drives a two-machine fleet: a session kill
        booked for machine 1 evicts the victim the router placed
        there and leaves machine 0's isolation domain untouched."""
        fleet = Fleet(machines=2, scheduler="fair", policy="least-loaded",
                      machine_config=MachineConfig(data_inflation=64.0),
                      max_tenants=2,
                      retry_policy=RetryPolicy(max_attempts=5),
                      breaker=BreakerConfig(window=8,
                                            failure_threshold=0.8,
                                            cooldown=1e-3),
                      seed=0)
        for index in range(4):
            submit_victim_stream(fleet.add_session(f"victim{index}", QUOTA),
                                 rounds=2, seed=0)
        m0, m1 = fleet.machines
        victim = m1.engine.clients[0]
        assert fleet.router.machine_of(victim.name) == 1
        fault = SessionKillFault(at=20.0e-3, tenant=victim.name, machine=1)
        injector = FaultInjector([fault])
        injector.run(fleet)
        assert fault.fired
        assert victim.session_epoch >= 1
        assert all(client.session_epoch == 0
                   for client in m0.engine.clients)
        assert injector.verify(m0.engine, 0) == []
        checks = injector.verify(m1.engine, 1)
        assert checks and all(ok for _, _, ok, _ in checks)

    def test_fault_on_missing_machine_rejected(self):
        """A fault no machine would book must not leave the verdict
        passing with nothing injected."""
        fleet = Fleet(machines=1,
                      machine_config=MachineConfig(data_inflation=64.0))
        injector = FaultInjector([GpuResetFault(at=20.5e-3, machine=1)])
        with pytest.raises(ValueError, match="machine"):
            injector.run(fleet)


class TestGpuResetRecovery:
    def test_service_restored_and_sessions_rebuilt(self):
        engine, plans = _engine()
        dead_service = engine.service
        fault = GpuResetFault(at=20.5e-3)
        engine.run(kernel=FaultInjector([fault]).attach(engine))
        assert fault.fired
        assert engine.service is not dead_service, \
            "the GPU enclave service must have been re-booted"
        assert engine.service.alive
        assert any(client.session_epoch >= 1 for client in engine.clients)
        for plan in plans:
            checks = plan.checks()
            assert checks and all(ok for _, _, ok, _ in checks)

    def test_abuse_tenant_reprovisions_after_reset(self):
        """The timeout-surf tenant's recovery hook re-provisions its
        buffer and module, so its retried launch serves on the new
        session epoch."""
        campaign = replace(
            CAMPAIGNS["storm"], name="storm-reset",
            faults_factory=lambda fleet, shift: [GpuResetFault(at=20.5e-3)])
        result = run_campaign_obj(campaign, seed=0)
        assert result.ok
        surf = result.abuse_plans[0].submitted
        assert any(request.outcome == SERVED and request.session_epoch >= 1
                   for request in surf)


class TestCampaigns:
    def test_known_campaigns_registered(self):
        assert {"churn-reset", "smoke", "storm"} <= set(CAMPAIGNS)
        with pytest.raises(KeyError):
            get_campaign("no-such-campaign")

    def test_smoke_campaign_verdict(self):
        result = run_campaign("smoke", seed=0)
        assert result.ok, result.render()
        assert result.security_ok and result.fairness_ok
        assert result.detection_ok
        assert "gpu_reset" in result.fault_kinds_fired()

    def test_detection_covers_every_fired_fault(self):
        result = run_campaign("smoke", seed=0)
        fired = [fault for fault in result.faults if fault.fired]
        assert len(result.detection) == len(fired)
        for check in result.detection:
            assert check.ok, check.render()
            assert check.detected_at is not None
            assert check.latency is not None
            assert 0.0 <= check.latency <= result.detection_bound
        assert "detection" in result.render()

    def test_churn_reset_campaign(self):
        result = run_campaign("churn-reset", seed=0)
        assert result.ok, result.render()
        # The acceptance bar: at least three distinct fault types fired.
        assert len(result.fault_kinds_fired()) >= 3
        # Residual-memory cleanse: at least one cross-epoch download
        # verified a cleansed buffer.
        names = [check.name for check in result.security]
        assert "victim.cleanse" in names
        assert all(check.ok for check in result.security)

    def test_campaign_deterministic(self):
        first = run_campaign("smoke", seed=0).render()
        second = run_campaign("smoke", seed=0).render()
        assert first == second

    def test_storm_campaign_fairness_side(self):
        result = run_campaign("storm", seed=0)
        assert result.ok, result.render()
        kinds = result.fault_kinds_fired()
        assert "ctx_storm" in kinds and "starvation" in kinds
