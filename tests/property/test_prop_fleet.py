"""Property pins for the fleet tier.

Three structural guarantees:

* **1-machine transparency** — a fleet of one machine with full-crypto
  sessions is bit-for-bit the bare ``ServeEngine.run()``: same report,
  same per-tenant metrics, same per-request outcomes and measured
  splits, for every placement policy.  The router decides placement
  synchronously and ``Fleet.run`` is exactly the engine's
  ``start``/``kernel.run``/``finish`` decomposition, so the fleet
  tier's only trace is *where* sessions went, never *when*.

* **lite charge parity** — replaying a full-crypto session's captured
  unit ledger (``capture_units=True``) through a lite lane charges the
  virtual timeline identically: the lite fleet's makespan equals the
  full run's, exactly.  This is what makes 100k-session lite sweeps
  trustworthy stand-ins for full-crypto populations.

* **exact placement snapshots** — ``Fleet.place`` hands the router
  each machine's reused ``snapshot()``; under any interleaving of
  admissions, submits, runs and flag writes, every router call sees
  snapshots equal to fresh ``status()`` builds, and every session lands
  where a fleet that polls every machine per placement puts it.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import BackpressureError, PlacementError
from repro.fleet import Fleet, LiteProfile
from repro.fleet.router import POLICY_NAMES
from repro.serve import ServeEngine
from repro.serve.jobs import submit_workload
from repro.system import Machine, MachineConfig
from repro.workloads import MatrixAdd
from repro.workloads.base import Workload

REPORT_FIELDS = ("scheduler", "makespan", "context_switches",
                 "gpu_utilization")
TENANT_FIELDS = ("name", "submitted", "rejected_submits", "served",
                 "timed_out", "denied", "backpressured", "failed",
                 "finish_time", "gpu_busy", "host_busy", "waits",
                 "stall_seconds", "peak_memory", "quota_denials",
                 "shed", "retries", "migrated")
REQUEST_FIELDS = ("label", "outcome", "attempts", "error_kind",
                  "host_seconds", "gpu_seconds", "session_epoch")


class SyntheticWorkload(Workload):
    """A phase profile with no functional body — serve jobs only."""

    def __init__(self, modeled_h2d: int, modeled_d2h: int,
                 n_launches: int, compute_seconds: float) -> None:
        self.name = "synthetic"
        self.app_code = "SYN"
        self.modeled_h2d = modeled_h2d
        self.modeled_d2h = modeled_d2h
        self.n_launches = n_launches
        self.compute_seconds = compute_seconds

    def run(self, api, inflation: float = 1.0) -> None:
        raise NotImplementedError("serving decomposition only")


MB = 1 << 20

workloads = st.builds(
    SyntheticWorkload,
    modeled_h2d=st.integers(min_value=0, max_value=2 * MB),
    modeled_d2h=st.integers(min_value=0, max_value=2 * MB),
    n_launches=st.integers(min_value=0, max_value=8),
    compute_seconds=st.floats(min_value=0.0, max_value=1e-3),
)
schedulers = st.sampled_from(["fair", "fifo", "round-robin"])
policies = st.sampled_from(POLICY_NAMES)
user_counts = st.integers(min_value=1, max_value=3)
inflations = st.sampled_from([4096.0, 65536.0])


def _bare_run(workload, users, scheduler, inflation):
    machine = Machine(MachineConfig(data_inflation=inflation))
    engine = ServeEngine(machine, scheduler=scheduler,
                         max_tenants=users, seed=17)
    for index in range(users):
        client = engine.add_tenant(f"user{index}")
        submit_workload(client, workload, inflation, machine.costs,
                        seed=index)
    return engine.run(), engine.clients


def _fleet_run(workload, users, scheduler, policy, inflation):
    fleet = Fleet(machines=1, scheduler=scheduler, policy=policy,
                  machine_config=MachineConfig(data_inflation=inflation),
                  max_tenants=users, seed=17)
    costs = fleet.machines[0].machine.costs
    for index in range(users):
        client = fleet.add_session(f"user{index}")
        submit_workload(client, workload, inflation, costs, seed=index)
    report = fleet.run()
    return report, fleet.machines[0].engine.clients


class TestOneMachineFleetIsTransparent:
    @given(workload=workloads, users=user_counts, scheduler=schedulers,
           policy=policies, inflation=inflations)
    @settings(max_examples=12, deadline=None)
    def test_bit_identical_to_bare_engine(self, workload, users,
                                          scheduler, policy, inflation):
        bare, bare_clients = _bare_run(workload, users, scheduler,
                                       inflation)
        fleet_report, fleet_clients = _fleet_run(workload, users,
                                                 scheduler, policy,
                                                 inflation)
        machine_report = fleet_report.reports[0]
        for field in REPORT_FIELDS:
            assert getattr(machine_report, field) \
                == getattr(bare, field), field
        assert len(machine_report.tenants) == len(bare.tenants)
        for fleet_tenant, bare_tenant in zip(machine_report.tenants,
                                             bare.tenants):
            for field in TENANT_FIELDS:
                assert getattr(fleet_tenant, field) \
                    == getattr(bare_tenant, field), \
                    f"{bare_tenant.name}.{field}"
        for fleet_client, bare_client in zip(fleet_clients, bare_clients):
            assert len(fleet_client.requests) == len(bare_client.requests)
            for fleet_req, bare_req in zip(fleet_client.requests,
                                           bare_client.requests):
                for field in REQUEST_FIELDS:
                    assert getattr(fleet_req, field) \
                        == getattr(bare_req, field), \
                        f"{bare_req.label}.{field}"
        # The fleet-level merge reproduces the single report's numbers.
        assert fleet_report.makespan == bare.makespan
        assert fleet_report.merged.context_switches \
            == bare.context_switches


class TestLiteChargeParity:
    @given(workload=workloads, inflation=inflations)
    @settings(max_examples=10, deadline=None)
    def test_captured_replay_charges_identically(self, workload,
                                                 inflation):
        machine = Machine(MachineConfig(data_inflation=inflation))
        engine = ServeEngine(machine, max_tenants=1, seed=17,
                             capture_units=True)
        client = engine.add_tenant("user0")
        submit_workload(client, workload, inflation, machine.costs,
                        seed=0)
        full = engine.run()

        profile = LiteProfile.from_client(client)
        fleet = Fleet(machines=1,
                      machine_config=MachineConfig(
                          data_inflation=inflation),
                      max_tenants=1, seed=17)
        fleet.add_lite_session("user0", profile)
        lite = fleet.run()
        assert lite.makespan == full.makespan

    @given(workload=workloads, inflation=inflations)
    @settings(max_examples=10, deadline=None)
    def test_analytic_profile_totals_survive_coalescing(self, workload,
                                                        inflation):
        machine = Machine(MachineConfig(data_inflation=inflation))
        engine = ServeEngine(machine, max_tenants=1, seed=17,
                             capture_units=True)
        client = engine.add_tenant("user0")
        submit_workload(client, workload, inflation, machine.costs,
                        seed=0)
        engine.run()
        profile = LiteProfile.from_client(client)
        folded = profile.coalesced(3)
        assert len(folded.units) <= 3
        assert abs(folded.total_seconds()
                   - profile.total_seconds()) < 1e-12
        assert abs(folded.gpu_seconds() - profile.gpu_seconds()) < 1e-12


LITE_PROFILES = (LiteProfile.from_workload(MatrixAdd(2048)),
                 LiteProfile.from_workload(MatrixAdd(1024)))
FLAG_WRITES = (("weight", 0.5), ("weight", 2.0), ("healthy", False),
               ("healthy", True), ("draining", True), ("draining", False))
#: One fleet operation: a kind, weighted toward admissions and submits,
#: and two small integers that pick its arguments.
fleet_ops = st.lists(
    st.tuples(st.sampled_from(("session", "session", "submit", "submit",
                               "lite", "lite", "run", "flag")),
              st.integers(min_value=0, max_value=5),
              st.integers(min_value=0, max_value=5)),
    min_size=4, max_size=20)


def _drive(machines, policy, ops, mode):
    """Apply *ops* to a fresh fleet; return each op's outcome and the
    final placements.

    Every router call must see snapshots equal to fresh statuses.
    *mode* ``"reuse"`` places as shipped; ``"probe"`` also checks every
    machine's snapshot against a fresh status after each op (so a
    missed invalidation shows at the op that caused it); ``"poll"``
    builds every status fresh at every placement: the reference.
    """
    fleet = Fleet(machines=machines, scheduler="fifo", policy=policy,
                  machine_config=MachineConfig(data_inflation=65536.0),
                  max_tenants=2, seed=0)
    if mode == "poll":
        for machine in fleet.machines:
            machine.snapshot = machine.status
    place = fleet.router.place

    def checked_place(spec, statuses):
        assert statuses == [machine.status() for machine in fleet.machines]
        return place(spec, statuses)

    fleet.router.place = checked_place
    clients, outcomes = [], []
    for index, (kind, a, b) in enumerate(ops):
        outcome = None
        try:
            if kind == "session":
                clients.append(fleet.add_session(
                    f"s{index}", memory_bytes=(0, MB, 6 * MB)[a % 3],
                    est_seconds=b * 1e-3))
                outcome = fleet.router.machine_of(f"s{index}")
            elif kind == "submit" and clients:
                fn = ((lambda api: api.cuMemAlloc(4096)) if b % 2
                      else (lambda api: None))
                clients[a % len(clients)].submit(f"r{index}", fn)
            elif kind == "lite":
                outcome = fleet.add_lite_session(
                    f"l{index}", LITE_PROFILES[a % 2],
                    memory_bytes=(0, MB)[b % 2]).index
            elif kind == "run":
                outcome = fleet.run().makespan
            elif kind == "flag":
                attr, value = FLAG_WRITES[b]
                setattr(fleet.machines[a % machines], attr, value)
        except (PlacementError, BackpressureError) as exc:
            outcome = (str(exc), getattr(exc, "retry_after", None))
        outcomes.append(outcome)
        if mode == "probe":
            assert [machine.snapshot() for machine in fleet.machines] \
                == [machine.status() for machine in fleet.machines], op
    return outcomes, dict(fleet.router.placements)


class TestPlacementSnapshotsAreExact:
    @given(machines=st.integers(min_value=1, max_value=4),
           policy=policies, ops=fleet_ops)
    @settings(max_examples=30, deadline=None)
    def test_snapshots_equal_fresh_status_and_polling(self, machines,
                                                      policy, ops):
        polled = _drive(machines, policy, ops, "poll")
        assert _drive(machines, policy, ops, "reuse") == polled
        assert _drive(machines, policy, ops, "probe") == polled
