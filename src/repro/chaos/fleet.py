"""Fleet-tier chaos: session migration under fire, two machines.

The single-machine campaigns prove composed faults against one loaded
engine; this one proves the fleet's migration protocol keeps both
sides of the production verdict while the world breaks around it:

* four victims spread over two machines (least-loaded placement lands
  two on each), every one submitting the verifiable secret-marked
  round-trip stream;
* one victim is drained off machine 0 mid-run and re-established on
  machine 1 — full attestation + key exchange at the next session
  epoch, backlog moved, ``on_recover`` re-provisioning its buffers;
* a DMA-redirect trap fires on EACH machine (so the ciphertext-only
  sweep covers both isolation domains) and a GPU reset hits machine 0
  after the drain, forcing the remaining source victim through
  recovery as well.

The verdict is the same three-sided one the single-machine campaigns
demand — security, fairness, and detection: both fleets run with a
shared :class:`~repro.obs.timeseries.TimeSeriesSampler` (per-tenant
series keep machines apart; the kernel attach is idempotent), and every
injected fault must surface as a matching audit event or SLO alert
within the detection bound.  Migration makes the epoch-aware half of
:meth:`~repro.chaos.workload.VictimPlan.checks` do real work: rounds
whose upload served on the source and whose download served on the
target span session epochs, so they must read the *cleansed* target
buffer — the pre-migration secret may not survive the move.  Fault
events are booked on the fleet's shared kernel via
:meth:`FaultInjector.attach`'s *kernel* parameter, one injector per
machine, each applying faults to its own isolation domain.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.chaos.campaign import (
    CampaignResult,
    SecurityCheck,
    _victim_quota,
    assemble_verdict,
)
from repro.chaos.faults import DmaRedirectFault, Fault, GpuResetFault
from repro.chaos.injector import FaultInjector
from repro.chaos.workload import VictimPlan, submit_victim_stream
from repro.fleet import Fleet, FleetReport
from repro.obs import metrics as obs_metrics
from repro.obs.audit import audit_log
from repro.obs.timeseries import TimeSeriesSampler
from repro.serve.resilience import (
    KIND_CRYPTO,
    KIND_DEVICE_LOST,
    KIND_QUEUE_FULL,
    KIND_REJECTED,
    BreakerConfig,
    RetryPolicy,
)
from repro.sim.engine import EventClock
from repro.system import MachineConfig

FLEET_CAMPAIGN = "fleet-migration"
FLEET_CAMPAIGN_DESCRIPTION = (
    "Two machines, four victims, one drained mid-run and re-established "
    "on the other machine while DMA traps fire on both and a GPU reset "
    "hits the source; three-sided verdict across the whole fleet.")

#: Campaign shape.  Timings are virtual seconds, calibrated against the
#: victim streams at this inflation: with two tenants per machine the
#: interleaved session establishments occupy roughly the first 18.5 ms
#: of each machine's timeline, and the victim rounds then drain over
#: the following ~5 ms.  The traps arm just inside the live window;
#: the migration drain begins mid-rounds, so part of the victim's
#: stream serves on each machine and its spanning rounds exercise the
#: epoch-aware cleanse check; the reset hits the source after the
#: drain, pushing the remaining source victim through recovery too.
VICTIMS = 4
ROUNDS = 3
CHUNK_BYTES = 4096
DATA_INFLATION = 64.0
TRAP_SOURCE_AT = 19.3e-3
TRAP_TARGET_AT = 19.6e-3
MIGRATE_AT = 20.5e-3
RESET_AT = 21.5e-3
FAIRNESS_BOUND = 6.0
GOODPUT_FLOOR = 0.85
#: The stay-behind source victim rides out two recovery cycles (DMA
#: trap, then the reset), so under gpu-cc — whose re-establishment
#: round trips are the slowest — nothing probes the reset device until
#: its retry backoff expires, ~23 virtual ms after the fault.
DETECTION_BOUND = 25.0e-3
#: GPU-CC session establishment (cert-chain verification + the report
#: round trip) runs longer than HIX's, so the whole live window lands
#: later; every scripted time shifts by the same offset to stay inside
#: the live-session window under that backend.
BACKEND_SHIFT = {"hix": 0.0, "gpucc": 6.9e-3}


def _build_fleet(seed: int,
                 backend: str = "hix") -> Tuple[Fleet, List[VictimPlan]]:
    fleet = Fleet(machines=2, scheduler="fair", policy="least-loaded",
                  machine_config=MachineConfig(
                      data_inflation=DATA_INFLATION, backend=backend),
                  max_tenants=VICTIMS,
                  # The source-machine victim that stays behind rides
                  # out TWO recovery cycles (DMA trap, then the GPU
                  # reset), and an upload caught inside the redirected
                  # window can come back as a structured enclave
                  # rejection rather than a device loss — here that
                  # rejection IS the injected fault, so it must retry
                  # through recovery like the other tamper kinds.
                  retry_policy=RetryPolicy(
                      max_attempts=10,
                      retry_on=frozenset({KIND_QUEUE_FULL,
                                          KIND_DEVICE_LOST,
                                          KIND_CRYPTO,
                                          KIND_REJECTED})),
                  breaker=BreakerConfig(window=8, failure_threshold=0.8,
                                        cooldown=1e-3),
                  seed=seed)
    plans: List[VictimPlan] = []
    for index in range(VICTIMS):
        client = fleet.add_session(f"victim{index}", quota=_victim_quota())
        plans.append(submit_victim_stream(
            client, rounds=ROUNDS, chunk_bytes=CHUNK_BYTES, seed=seed))
    return fleet, plans


def _fault_script(fleet: Fleet, migrating: str,
                  shift: float = 0.0) -> List[List[Fault]]:
    """Per-machine fault lists targeting non-migrating victims.

    The migrating victim is mid-drain when the faults land, so the
    targeted faults aim at a victim that *stays* on each machine —
    a fault against a session that already left would record "nothing
    to kill" and fail loudly, which is the wrong kind of loud here.
    """
    by_machine: Dict[int, List[str]] = {0: [], 1: []}
    for index in range(VICTIMS):
        name = f"victim{index}"
        machine = fleet.router.machine_of(name)
        assert machine is not None
        by_machine[machine].append(name)
    source = fleet.router.machine_of(migrating)
    assert source is not None
    target = 1 - source
    stay_source = next(name for name in by_machine[source]
                       if name != migrating)
    stay_target = by_machine[target][0]
    script: List[List[Fault]] = [[], []]
    script[source] = [
        DmaRedirectFault(at=TRAP_SOURCE_AT + shift, tenant=stay_source),
        GpuResetFault(at=RESET_AT + shift),
    ]
    script[target] = [
        DmaRedirectFault(at=TRAP_TARGET_AT + shift, tenant=stay_target),
    ]
    return script


def _victim_finishes(report: FleetReport) -> Dict[str, float]:
    """Per-victim finish time, max across machines.

    A migrated victim has a row on both machines — the source row ends
    at its drain, the target row at its true completion — so the max
    is when the victim's work actually finished.
    """
    finishes: Dict[str, float] = {}
    for machine_report in report.reports:
        for row in machine_report.tenants:
            if not row.name.startswith("victim"):
                continue
            finishes[row.name] = max(finishes.get(row.name, 0.0),
                                     row.finish_time)
    return finishes


def run_fleet_campaign(seed: int = 0,
                       backend: str = "hix") -> CampaignResult:
    """Execute the fleet-migration campaign; same verdict as
    :func:`~repro.chaos.campaign.run_campaign_obj` plus two migration
    checks."""
    obs_metrics.registry().counter("chaos.campaigns_run").inc()

    base_sampler = TimeSeriesSampler()
    baseline_fleet, _ = _build_fleet(seed, backend)
    for machine in baseline_fleet.machines:
        machine.engine.telemetry = base_sampler
    baseline = baseline_fleet.run()

    chaos_sampler = TimeSeriesSampler()
    fleet, plans = _build_fleet(seed, backend)
    for machine in fleet.machines:
        machine.engine.telemetry = chaos_sampler
    migrating = "victim0"
    source = fleet.router.machine_of(migrating)
    assert source is not None
    shift = BACKEND_SHIFT.get(backend, 0.0)
    fleet.plan_migration(migrating, target=1 - source, at=MIGRATE_AT + shift)

    script = _fault_script(fleet, migrating, shift)
    injectors = [FaultInjector(faults) for faults in script]
    kernel = EventClock()
    for machine, injector in zip(fleet.machines, injectors):
        injector.attach(machine.engine, kernel)
    watermark = audit_log().cursor()
    chaos = fleet.run(kernel=kernel)

    record = chaos.migrations[0]
    landed = record.target_client
    migration_checks = [
        SecurityCheck(
            name="fleet.migration_completed",
            subject=migrating,
            ok=record.completed and record.requests_moved > 0,
            detail=(f"{record.requests_moved} request(s) drained and "
                    f"re-established on m{record.plan.target}"
                    if record.completed else
                    "drain never fired — stream finished first "
                    "(timing miscalibrated)")),
        SecurityCheck(
            name="fleet.migration_epoch_bump",
            subject=migrating,
            ok=landed is not None and landed.session_epoch >= 1,
            detail=("target session re-established at epoch "
                    f"{landed.session_epoch}" if landed is not None else
                    "no target client recorded")),
    ]

    base_finish = _victim_finishes(baseline)
    chaos_finish = _victim_finishes(chaos)
    finishes = [(name, base_finish[name], chaos_finish.get(name, 0.0))
                for name in sorted(base_finish)]
    return assemble_verdict(
        FLEET_CAMPAIGN, seed, backend,
        [f"victim{index}" for index in range(VICTIMS)],
        base_sampler, chaos_sampler, watermark, plans,
        [(machine.engine, injector)
         for machine, injector in zip(fleet.machines, injectors)],
        finishes, baseline.merged, chaos.merged,
        fairness_bound=FAIRNESS_BOUND,
        goodput_floor=GOODPUT_FLOOR,
        detection_bound=DETECTION_BOUND,
        extra_security=migration_checks)
