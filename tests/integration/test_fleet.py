"""Integration tests for the fleet tier: routing, migration, scale.

These drive the real stack — M machines, each a full isolation domain
with its own SGX unit, PCIe tree, GPU, and serving engine — through
the fleet router on one shared event clock.
"""

import gc
import weakref

import pytest

from repro.backends import backend_names
from repro.chaos.workload import submit_victim_stream
from repro.cli import main
from repro.errors import PlacementError
from repro.evalkit.fleet_sweep import fleet_crosscheck, fleet_run
from repro.fleet import Fleet, LiteProfile
from repro.obs import metrics as obs_metrics
from repro.serve.queues import MIGRATED, SERVED
from repro.sim.engine import EventClock
from repro.system import MachineConfig
from repro.workloads import MatrixAdd

INFLATION = 64.0


def _fleet(machines=2, **kwargs):
    defaults = dict(scheduler="fair", policy="least-loaded",
                    machine_config=MachineConfig(data_inflation=INFLATION),
                    max_tenants=4, seed=0)
    defaults.update(kwargs)
    return Fleet(machines=machines, **defaults)


def _backprop():
    from repro.workloads import rodinia_workloads
    return next(w for w in rodinia_workloads() if w.name == "backprop")


class TestFleetRun:
    def test_sessions_spread_and_all_serve(self):
        fleet = _fleet(machines=2)
        plans = [submit_victim_stream(fleet.add_session(f"user{i}"),
                                      rounds=2, seed=0)
                 for i in range(4)]
        report = fleet.run()
        # Least-loaded placement alternates over the empty fleet.
        assert report.placements == {"user0": 0, "user1": 1,
                                     "user2": 0, "user3": 1}
        assert all(plan.goodput() == 1.0 for plan in plans)
        assert len(report.reports) == 2
        # The merged report carries machine-prefixed rows; per-machine
        # reports keep bare names.
        merged_names = {t.name for t in report.merged.tenants}
        assert "m0/user0" in merged_names and "m1/user1" in merged_names
        # Makespan is the slowest machine, not the sum.
        assert report.makespan == pytest.approx(
            max(r.makespan for r in report.reports))

    def test_independent_isolation_domains(self):
        fleet = _fleet(machines=2)
        fleet.add_session("alice")
        fleet.add_session("bob")
        machines = [m.machine for m in fleet.machines]
        assert machines[0] is not machines[1]
        assert machines[0].gpu is not machines[1].gpu

    def test_capacity_rejection_carries_retry_after(self):
        fleet = _fleet(machines=2, max_tenants=1)
        for i in range(2):
            submit_victim_stream(fleet.add_session(f"user{i}"),
                                 rounds=2, seed=0)
        with pytest.raises(PlacementError) as excinfo:
            fleet.add_session("overflow")
        assert excinfo.value.error_kind == "quota"
        # Both machines hold unserved backlogs, so the queue-drain
        # estimate — and with it the structured hint — is positive.
        assert excinfo.value.retry_after > 0.0

    def test_placement_counts_land_in_the_active_registry(self):
        key = "fleet.placement.least-loaded.placed"
        profile = LiteProfile.from_workload(MatrixAdd(2048)).coalesced(4)
        previous = obs_metrics.registry()
        try:
            first = obs_metrics.reset_registry()
            fleet = _fleet(machines=2)
            assert first.get(key) is None  # nothing placed yet
            fleet.add_lite_session("a", profile)
            second = obs_metrics.reset_registry()
            fleet.add_lite_session("b", profile)
            fleet.add_lite_session("c", profile)
        finally:
            obs_metrics.set_registry(previous)
        assert first.get(key).value == 1
        assert second.get(key).value == 2


class TestMigration:
    def _run_with_migration(self, at=20.5e-3):
        fleet = _fleet(machines=2)
        plans = [submit_victim_stream(fleet.add_session(f"user{i}"),
                                      rounds=3, seed=0)
                 for i in range(2)]
        fleet.plan_migration("user0", target=1, at=at)
        return fleet, plans, fleet.run()

    def test_drain_moves_backlog_and_bumps_epoch(self):
        fleet, plans, report = self._run_with_migration()
        record = report.migrations[0]
        assert record.completed
        assert record.requests_moved > 0
        assert record.drained_at <= record.landed_at
        # Part of the stream served on each side of the move.
        source = next(t for t in report.reports[0].tenants
                      if t.name == "user0")
        target = next(t for t in report.reports[1].tenants
                      if t.name == "user0")
        assert source.served > 0
        assert source.migrated == record.requests_moved
        assert target.served == record.requests_moved
        # Full re-establishment on the target: next session epoch.
        assert record.target_client.session_epoch == 1
        # The router follows the session.
        assert fleet.router.machine_of("user0") == 1

    def test_every_request_lands_served_exactly_once(self):
        fleet, plans, report = self._run_with_migration()
        for request in plans[0].submitted:
            assert request.outcome == SERVED
            assert request.outcome != MIGRATED  # no request left behind
        assert plans[0].goodput() == 1.0

    def test_epoch_spanning_round_reads_cleansed_buffer(self):
        """A round whose upload served on the source and whose download
        served on the target must pass the cleanse check — the secret
        died with the source enclave context."""
        fleet, plans, report = self._run_with_migration()
        checks = plans[0].checks()
        kinds = {name for name, _, _, _ in checks}
        assert "victim.cleanse" in kinds
        assert all(ok for _, _, ok, _ in checks)

    def test_migration_after_stream_end_is_a_noop(self):
        fleet, plans, report = self._run_with_migration(at=10.0)
        record = report.migrations[0]
        assert not record.completed
        assert record.requests_moved == 0
        source = next(t for t in report.reports[0].tenants
                      if t.name == "user0")
        assert source.served == len(plans[0].submitted)
        assert fleet.router.machine_of("user0") == 0


class TestLiteSessions:
    def test_bulk_lite_sessions_spread_and_finish(self):
        profile = LiteProfile.from_workload(MatrixAdd(2048))
        fleet = _fleet(machines=2)
        fleet.add_lite_sessions(profile, 200)
        report = fleet.run()
        served = [sum(t.served for t in r.tenants)
                  for r in report.reports]
        # Every lite lane drained; both machines carried half.  A
        # lane's served count is its GPU visits, so the per-session
        # tally is the profile's GPU-bearing units.
        gpu_units = sum(1 for unit in profile.units
                        if unit.gpu_seconds is not None)
        assert sum(served) == 200 * gpu_units
        assert served[0] == served[1]
        assert report.makespan > 0.0

    def test_merged_lanes_are_each_machines_lanes(self):
        fleet = _fleet(machines=2)
        for i in range(2):
            submit_victim_stream(fleet.add_session(f"user{i}"),
                                 rounds=2, seed=0)
        fleet.add_lite_sessions(LiteProfile.from_workload(MatrixAdd(2048)),
                                4)
        report = fleet.run()
        merged = report.merged.lanes  # read first: built from the machines'
        assert list(merged) == [f"m{i}/{name}"
                                for i, machine in enumerate(report.reports)
                                for name in machine.lanes]
        for i, machine in enumerate(report.reports):
            assert list(machine.lanes) == [t.name for t in machine.tenants]
            assert len(machine.lanes) == 3  # one full, two lite sessions
            for name, events in machine.lanes.items():
                assert events
                assert merged[f"m{i}/{name}"] == events

    def test_admissions_sum_the_profile_once(self):
        class CountedUnits(list):
            passes = 0

            def __iter__(self):
                self.passes += 1
                return super().__iter__()

        units = CountedUnits(LiteProfile.from_workload(MatrixAdd(2048)).units)
        fleet = _fleet(machines=2)
        fleet.add_lite_sessions(LiteProfile(units=units), 100)
        assert units.passes <= 1

    def test_coalesced_profile_preserves_totals(self):
        profile = LiteProfile.from_workload(MatrixAdd(2048))
        folded = profile.coalesced(4)
        assert len(folded.units) <= 4
        assert folded.total_seconds() == pytest.approx(
            profile.total_seconds())
        assert folded.gpu_seconds() == pytest.approx(
            profile.gpu_seconds())


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def _lite_gc_load(sessions: int, profile: LiteProfile):
    """Tracked objects a 4-machine FIFO fleet keeps for *sessions* lite
    sessions: after admission and after every engine built its lanes;
    how many charge-log entries the collector tracks right after the run
    (collections held off until then, so no pass untracked one); and
    what the lanes still keep once the kernel drained."""
    fleet = Fleet(machines=4, scheduler="fifo",
                  machine_config=MachineConfig(data_inflation=8192.0))
    before = _tracked()
    fleet.add_lite_sessions(profile, sessions)
    admitted = _tracked() - before
    kernel = EventClock()
    before = _tracked()
    runs = [machine.engine.start(kernel, extra_lanes=machine.lite_lanes)
            for machine in fleet.machines]
    started = _tracked() - before
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel.run()
        logs = [run.finish().log for run in runs]
        tracked_log = sum(gc.is_tracked(atom) for log in logs
                          for atom in log)
    finally:
        if enabled:
            gc.enable()
    assert all(logs)
    # ``finish`` only reads the lanes, and its results are gone already.
    drained = _tracked() - before
    return admitted, started, tracked_log, drained


class TestLiteGcLoad:
    """The cyclic collector's load per lite session, pinned by counts
    (they do not depend on the host, unlike wall-clock).

    Every tracked object a session keeps alive lengthens each collection
    and brings the next one closer, so a fleet's cost per session grows
    with its population.  A session keeps its lane spec once admitted;
    its kernel lane adds the lane itself and its t=0 wakeup's heap
    entry.  Once the kernel drained, only the lane is left: its heap
    entries are gone and the engine forgot its queue.  The charge log
    holds only atoms.  The deltas between two populations cancel fixed
    costs, and a warm-up run creates the process-wide counters first.
    """

    def test_tracked_objects_per_session(self):
        profile = LiteProfile.from_workload(MatrixAdd(2048)).coalesced(4)
        _lite_gc_load(20, profile)
        small = _lite_gc_load(100, profile)
        large = _lite_gc_load(300, profile)
        # Rounded: a collection untracks a few atom-only containers of
        # its own accord, which shifts a delta by a fraction of one
        # object per session; one more object per session is a whole.
        assert round((large[0] - small[0]) / 200) <= 1
        assert round((large[1] - small[1]) / 200) <= 2
        assert small[2] == large[2] == 0
        assert round((large[3] - small[3]) / 200) <= 1

    def test_finished_run_keeps_no_kernel(self):
        """After ``Fleet.run`` returns, nothing holds its kernel: the
        engines drop it at ``finish``."""
        fleet = _fleet(machines=2, scheduler="fifo")
        submit_victim_stream(fleet.add_session("user0"), rounds=1, seed=0)
        fleet.add_lite_sessions(
            LiteProfile.from_workload(MatrixAdd(2048)).coalesced(4), 4)
        kernel = EventClock()
        alive = weakref.ref(kernel)
        report = fleet.run(kernel)
        del kernel
        gc.collect()
        assert alive() is None
        assert len(report.merged.tenants) == 5


class TestFleetSweep:
    def test_full_crypto_matches_serve_path_decomposition(self):
        check = fleet_crosscheck(_backprop(), 8, machines=4)
        assert check.per_machine_users == [2, 2, 2, 2]
        assert check.oracle_kind == "serve-path"
        # Acceptance: within 7% of the decomposition oracle (measured
        # exact — machines share nothing but the clock).
        assert check.relative_delta <= 0.07
        assert check.analytic_makespan > 0.0

    def test_lite_matches_analytic_model(self):
        check = fleet_crosscheck(_backprop(), 8, machines=4, lite=True)
        assert check.oracle_kind == "analytic"
        assert check.relative_delta <= 0.07

    def test_fleet_run_policies(self):
        for policy in ("quota-pressure", "weighted-hash"):
            report = fleet_run(MatrixAdd(2048), 4, machines=2,
                               policy=policy, inflation=INFLATION,
                               lite=True)
            assert report.policy == policy
            assert len(report.merged.tenants) == 4


class TestFleetChaos:
    @pytest.mark.parametrize("backend", backend_names())
    def test_migration_preserves_two_sided_verdict(self, backend):
        from repro.chaos import run_campaign
        result = run_campaign("fleet-migration", seed=0, backend=backend)
        assert result.security_ok, [c for c in result.security if not c.ok]
        assert result.fairness_ok, [c for c in result.fairness if not c.ok]
        assert result.ok
        # The migration really happened and the traps really armed.
        kinds = result.fault_kinds_fired()
        assert "dma_redirect" in kinds and "gpu_reset" in kinds
        names = {c.name for c in result.security}
        assert "fleet.migration_completed" in names
        assert "victim.cleanse" in names
        assert "dma_redirect.trap_ciphertext_only" in names

    def test_campaign_catalog_lists_fleet(self):
        from repro.chaos import campaign_catalog
        assert "fleet-migration" in campaign_catalog()


class TestFleetCli:
    def test_fleet_smoke(self, capsys):
        assert main(["fleet", "--machines", "2", "--users", "2",
                     "--workload", "matrix-add-2048"]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2 machine(s)" in out

    def test_fleet_migrate_and_crosscheck(self, capsys):
        assert main(["fleet", "--machines", "2", "--users", "2",
                     "--workload", "matrix-add-2048",
                     "--migrate", "--crosscheck"]) == 0
        out = capsys.readouterr().out
        assert "migration user0" in out
        assert "fleet cross-check" in out

    def test_fleet_lite(self, capsys):
        assert main(["fleet", "--machines", "2", "--users", "0",
                     "--lite", "50", "--workload", "matrix-add-2048",
                     "--lite-max-units", "4"]) == 0
        out = capsys.readouterr().out
        assert "sessions=50" in out

    def test_chaos_list_includes_fleet_campaign(self, capsys):
        assert main(["chaos", "--list"]) == 0
        assert "fleet-migration" in capsys.readouterr().out


class TestHeterogeneousFleet:
    """Per-machine configs: mixed TEE backends and mixed VRAM sizes."""

    def _mixed_fleet(self, policy="least-loaded", big_vram=3 * (1 << 30)):
        configs = [
            MachineConfig(data_inflation=INFLATION, backend="hix"),
            MachineConfig(data_inflation=INFLATION, backend="gpucc",
                          vram_size_modeled=big_vram),
        ]
        return Fleet(machines=configs, scheduler="fair", policy=policy,
                     max_tenants=4, seed=0)

    def test_statuses_report_per_machine_backends(self):
        fleet = self._mixed_fleet()
        statuses = fleet.statuses()
        assert [s.backend for s in statuses] == ["hix", "gpucc"]
        assert statuses[1].memory_budget > statuses[0].memory_budget

    def test_mixed_fleet_serves_on_both_backends(self):
        fleet = self._mixed_fleet()
        plans = [submit_victim_stream(fleet.add_session(f"user{i}"),
                                      rounds=2, seed=0)
                 for i in range(4)]
        machines_used = {fleet.router.machine_of(f"user{i}")
                         for i in range(4)}
        assert machines_used == {0, 1}
        report = fleet.run()
        for plan in plans:
            assert plan.goodput() == 1.0
        for name, subject, ok, detail in [c for p in plans
                                          for c in p.checks()]:
            assert ok, f"{name} [{subject}]: {detail}"
        assert report.merged.makespan > 0.0

    def test_memory_fit_places_large_session_on_large_machine(self):
        fleet = self._mixed_fleet(policy="memory-fit")
        small_budget = fleet.statuses()[0].memory_budget
        big = fleet.add_session("bulky", memory_bytes=small_budget + 1)
        assert fleet.router.machine_of("bulky") == 1
        small = fleet.add_session("slim", memory_bytes=1 << 20)
        assert fleet.router.machine_of("slim") is not None
        assert big is not None and small is not None

    def test_least_loaded_spreads_over_mixed_fleet(self):
        fleet = self._mixed_fleet(policy="least-loaded")
        for i in range(4):
            fleet.add_session(f"user{i}", est_seconds=1.0)
        per_machine = [0, 0]
        for i in range(4):
            per_machine[fleet.router.machine_of(f"user{i}")] += 1
        assert per_machine == [2, 2]

    def test_count_plus_config_sequence_is_rejected(self):
        with pytest.raises(ValueError):
            Fleet(machines=[MachineConfig()],
                  machine_config=MachineConfig())

    def test_empty_config_sequence_is_rejected(self):
        with pytest.raises(ValueError):
            Fleet(machines=[])
