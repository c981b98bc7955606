"""Named chaos campaigns: composed faults + abuse + a three-sided verdict.

A campaign runs the same victim workloads twice on fresh machines:

1. **baseline** — victims alone, no faults, no abuse (resilience knobs
   identical, so the comparison isolates the chaos, not the config);
2. **chaos** — victims plus abusive tenants, with a seeded fault script
   injected at virtual times by :class:`~repro.chaos.injector.FaultInjector`.

The verdict is deliberately three-sided, because production cares about
all three at once:

* **security holds** — every fault's tamper/recovery checks pass, every
  victim round's integrity/cleanse check passes, and no adversary trap
  buffer ever contains a victim secret in plaintext;
* **fairness holds** — each victim's finish-time slowdown versus its
  baseline stays within the campaign's declared bound, and victim
  goodput (served / submitted) stays at or above the declared floor;
* **detection holds** — the monitoring plane *noticed* every injected
  fault: a matching security-audit event or SLO alert exists within the
  campaign's virtual-time detection bound (see
  :mod:`~repro.chaos.detection`).  Victim latency objectives are
  self-calibrated from the baseline run's own telemetry, so the same
  campaign holds on every backend without per-backend thresholds.

Everything is virtual-time and seeded: two runs of the same campaign
with the same seed render byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.abuse import ABUSE_KINDS, AbusePlan
from repro.chaos.detection import (
    DetectionCheck,
    match_detections,
    victim_latency_target,
)
from repro.chaos.faults import Fault
from repro.chaos.injector import FaultInjector
from repro.chaos.workload import (
    SECRET_PREFIX,
    VictimPlan,
    secret_marker,
    submit_victim_stream,
)
from repro.obs import metrics as obs_metrics
from repro.obs.audit import audit_log
from repro.obs.slo import Alert, AlertManager, SloObjective
from repro.obs.timeseries import TimeSeriesSampler
from repro.serve.engine import ServeEngine, ServeReport
from repro.serve.resilience import BreakerConfig, RetryPolicy
from repro.serve.session import TenantQuota
from repro.system import Machine, MachineConfig


@dataclass
class SecurityCheck:
    """One named pass/fail fact contributing to the security verdict."""

    name: str
    subject: str
    ok: bool
    detail: str = ""


@dataclass
class FairnessCheck:
    """One victim's service-quality comparison against its baseline."""

    tenant: str
    baseline_finish: float
    chaos_finish: float
    slowdown: float
    goodput: float
    ok: bool


@dataclass
class Campaign:
    """A reproducible chaos scenario: who runs, what breaks, what must hold."""

    name: str
    description: str
    #: Builds the fault script for this seed's victim tenant names.
    faults_factory: Callable[[List[str]], List[Fault]]
    victims: int = 2
    rounds: int = 3
    chunk_bytes: int = 4096
    #: Abuse streams to run alongside, by kind (see ABUSE_KINDS).
    abuse: Tuple[str, ...] = ()
    scheduler: str = "fair"
    #: TEE backend both runs boot (see :mod:`repro.backends`).
    backend: str = "hix"
    #: Victim finish-time slowdown bound versus the faultless baseline.
    fairness_bound: float = 4.0
    #: Minimum victim served/submitted ratio under chaos.
    goodput_floor: float = 0.9
    #: Maximum virtual seconds between a fault's injection and its
    #: matching alert or audit event (the detection verdict).
    detection_bound: float = 8.0e-3
    data_inflation: float = 64.0
    #: Resilience knobs for both runs.  Campaigns that stack several
    #: faults on one victim need enough attempts to ride out two
    #: recovery cycles, and a breaker tolerant enough not to shed a
    #: victim that is failing *because of the injected faults*.
    retry_policy: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=6))
    breaker: BreakerConfig = field(
        default_factory=lambda: BreakerConfig(window=8,
                                              failure_threshold=0.8,
                                              cooldown=1e-3))

    def victim_names(self) -> List[str]:
        return [f"victim{index}" for index in range(self.victims)]


@dataclass
class CampaignResult:
    """Everything a campaign measured, plus the rendered verdict."""

    campaign: str
    seed: int
    faults: List[Fault]
    security: List[SecurityCheck]
    fairness: List[FairnessCheck]
    baseline: ServeReport
    chaos: ServeReport
    fairness_bound: float
    goodput_floor: float
    abuse_plans: List[AbusePlan] = field(default_factory=list)
    backend: str = "hix"
    detection: List[DetectionCheck] = field(default_factory=list)
    detection_bound: float = 0.0
    alerts: List[Alert] = field(default_factory=list)

    @property
    def security_ok(self) -> bool:
        return all(check.ok for check in self.security)

    @property
    def fairness_ok(self) -> bool:
        return all(check.ok for check in self.fairness)

    @property
    def detection_ok(self) -> bool:
        return all(check.ok for check in self.detection)

    @property
    def ok(self) -> bool:
        return self.security_ok and self.fairness_ok and self.detection_ok

    def fault_kinds_fired(self) -> List[str]:
        return sorted({fault.kind for fault in self.faults if fault.fired})

    def render(self) -> str:
        lines = [f"chaos campaign '{self.campaign}' "
                 f"(seed={self.seed}, backend={self.backend})"]
        lines.append(f"  faults injected: {len([f for f in self.faults if f.fired])}"
                     f"/{len(self.faults)}"
                     f" ({', '.join(self.fault_kinds_fired()) or 'none'})")
        for fault in self.faults:
            state = "fired" if fault.fired else "pending"
            lines.append(f"    [{state}] {fault.label}"
                         + (f" — {fault.detail}" if fault.detail else ""))
        if self.abuse_plans:
            lines.append("  abuse tenants:")
            for plan in self.abuse_plans:
                lines.append(f"    {plan.tenant} ({plan.kind}): "
                             f"{len(plan.submitted)} submitted, "
                             f"{plan.backpressured} backpressured")
        lines.append(f"  security checks ({len(self.security)}):")
        for check in self.security:
            mark = "PASS" if check.ok else "FAIL"
            lines.append(f"    [{mark}] {check.name} [{check.subject}]"
                         + (f": {check.detail}" if check.detail else ""))
        lines.append(f"  fairness (bound {self.fairness_bound:.2f}x slowdown, "
                     f"goodput floor {self.goodput_floor:.0%}):")
        for check in self.fairness:
            mark = "PASS" if check.ok else "FAIL"
            lines.append(
                f"    [{mark}] {check.tenant}: "
                f"{check.baseline_finish * 1e3:.3f} ms -> "
                f"{check.chaos_finish * 1e3:.3f} ms "
                f"({check.slowdown:.2f}x), goodput {check.goodput:.0%}")
        if self.detection:
            lines.append(f"  detection (bound "
                         f"{self.detection_bound * 1e3:.1f} ms):")
            for check in self.detection:
                lines.append(f"    {check.render()}")
        if self.alerts:
            lines.append(f"  alerts fired ({len(self.alerts)}):")
            for alert in self.alerts:
                lines.append(f"    {alert.render()}")
        lines.append(
            f"  verdict: security "
            f"{'PASS' if self.security_ok else 'FAIL'}, "
            f"fairness {'PASS' if self.fairness_ok else 'FAIL'}, "
            f"detection {'PASS' if self.detection_ok else 'FAIL'}"
            f" -> {'OK' if self.ok else 'VIOLATION'}")
        return "\n".join(lines)


def _victim_quota() -> TenantQuota:
    return TenantQuota(max_queue_depth=64, max_inflight=2,
                       device_memory_bytes=8 << 20)


def _abuse_quota(kind: str) -> TenantQuota:
    if kind == "queue_flood":
        # A tight queue is the flood's wall: most submissions bounce.
        return TenantQuota(max_queue_depth=8, max_inflight=1,
                           device_memory_bytes=1 << 20)
    if kind == "quota_probe":
        return TenantQuota(max_queue_depth=16, max_inflight=1,
                           device_memory_bytes=1 << 20)
    # timeout_surf
    return TenantQuota(max_queue_depth=16, max_inflight=1,
                       device_memory_bytes=1 << 20)


def _build_engine(campaign: Campaign, seed: int, with_abuse: bool,
                  telemetry: Optional[TimeSeriesSampler] = None,
                  ) -> Tuple[ServeEngine, List[VictimPlan],
                             List[AbusePlan]]:
    machine = Machine(MachineConfig(data_inflation=campaign.data_inflation,
                                    backend=campaign.backend))
    engine = ServeEngine(machine, scheduler=campaign.scheduler,
                         max_tenants=campaign.victims + len(campaign.abuse),
                         retry_policy=campaign.retry_policy,
                         breaker=campaign.breaker,
                         seed=seed,
                         telemetry=telemetry)
    plans: List[VictimPlan] = []
    for name in campaign.victim_names():
        client = engine.add_tenant(name, _victim_quota())
        plans.append(submit_victim_stream(
            client, rounds=campaign.rounds,
            chunk_bytes=campaign.chunk_bytes, seed=seed))
    abuse_plans: List[AbusePlan] = []
    if with_abuse:
        for index, kind in enumerate(campaign.abuse):
            client = engine.add_tenant(f"abuse-{kind}-{index}",
                                       _abuse_quota(kind))
            abuse_plans.append(ABUSE_KINDS[kind](client, seed=index)
                               if kind == "queue_flood"
                               else ABUSE_KINDS[kind](client))
    return engine, plans, abuse_plans


def _trap_escape_checks(engine: ServeEngine,
                        faults: Sequence[Fault]) -> List[SecurityCheck]:
    """No adversary trap buffer may hold a victim secret in plaintext.

    Traps only ever receive what crossed the untrusted path — sealed
    bytes.  Reading any plaintext marker out of one would mean the
    sealed channel leaked.
    """
    markers = [secret_marker(client.name) for client in engine.clients
               if client.name.startswith("victim")]
    checks: List[SecurityCheck] = []
    adversary = engine.machine.adversary()
    for fault in faults:
        trap = getattr(fault, "trap", None)
        if trap is None:
            continue
        paddr, nbytes = trap
        contents = adversary.read_physical(paddr, nbytes)
        leaked = any(marker in contents for marker in markers)
        prefix_leaked = SECRET_PREFIX in contents
        checks.append(SecurityCheck(
            name=f"{fault.kind}.trap_ciphertext_only",
            subject=fault.tenant or "trap",
            ok=not (leaked or prefix_leaked),
            detail="trap saw only sealed bytes" if not (leaked or prefix_leaked)
            else "victim plaintext found in adversary trap buffer"))
    return checks


def assemble_verdict(name: str, seed: int, backend: str,
                     victims: Sequence[str],
                     base_sampler: TimeSeriesSampler,
                     chaos_sampler: TimeSeriesSampler,
                     watermark: int,
                     plans: Sequence[VictimPlan],
                     domains: Sequence[Tuple[ServeEngine, FaultInjector]],
                     finishes: Sequence[Tuple[str, float, float]],
                     baseline: ServeReport, chaos: ServeReport,
                     fairness_bound: float, goodput_floor: float,
                     detection_bound: float,
                     abuse_plans: Sequence[AbusePlan] = (),
                     extra_security: Sequence[SecurityCheck] = (),
                     ) -> CampaignResult:
    """Grade one finished chaos run on all three sides.

    Both campaign shapes call this: one engine, or a fleet of them.
    *domains* pairs each isolation domain's engine with the injector
    that faulted it.  *finishes* holds one ``(tenant, baseline_finish,
    chaos_finish)`` row per victim, in the order the fairness rows
    render.  *extra_security* follows the per-domain checks.
    *watermark* is the audit cursor taken before the chaos run, so the
    baseline run's routine events can never satisfy a detection match.
    """
    # Latency objectives are calibrated off this seed's own faultless
    # run, so the same campaign holds on every backend (gpu-cc's bounce
    # overhead shifts absolute latencies; the headroom ratio doesn't).
    objectives: Dict[str, SloObjective] = {}
    for victim in victims:
        target = victim_latency_target(base_sampler, victim)
        if target is not None:
            objectives[victim] = SloObjective(availability=0.995,
                                              latency_target=target)

    manager = AlertManager(chaos_sampler, objectives, audit=audit_log())
    manager.evaluate()
    slo_report = manager.report()
    faults = [fault for _, injector in domains for fault in injector.faults]
    detection = match_detections(
        faults, audit_log().events_since(watermark), slo_report.alerts,
        detection_bound)

    security: List[SecurityCheck] = []
    for plan in plans:
        security.extend(SecurityCheck(*check) for check in plan.checks())
    for engine, injector in domains:
        security.extend(SecurityCheck(*check)
                        for check in injector.verify(engine))
        security.extend(_trap_escape_checks(engine, injector.faults))
    security.extend(extra_security)

    fairness: List[FairnessCheck] = []
    goodput_by_name = {plan.tenant: plan.goodput() for plan in plans}
    for tenant, base_finish, chaos_finish in finishes:
        slowdown = chaos_finish / base_finish if base_finish > 0.0 else 1.0
        goodput = goodput_by_name.get(tenant, 1.0)
        fairness.append(FairnessCheck(
            tenant=tenant,
            baseline_finish=base_finish,
            chaos_finish=chaos_finish,
            slowdown=slowdown,
            goodput=goodput,
            ok=slowdown <= fairness_bound and goodput >= goodput_floor))

    return CampaignResult(campaign=name, seed=seed, faults=faults,
                          security=security, fairness=fairness,
                          baseline=baseline, chaos=chaos,
                          fairness_bound=fairness_bound,
                          goodput_floor=goodput_floor,
                          abuse_plans=list(abuse_plans),
                          backend=backend,
                          detection=detection,
                          detection_bound=detection_bound,
                          alerts=slo_report.alerts)


def run_campaign_obj(campaign: Campaign, seed: int = 0) -> CampaignResult:
    """Execute *campaign* and assemble its three-sided verdict."""
    obs_metrics.registry().counter("chaos.campaigns_run").inc()

    base_sampler = TimeSeriesSampler()
    baseline_engine, _, _ = _build_engine(campaign, seed, with_abuse=False,
                                          telemetry=base_sampler)
    baseline = baseline_engine.run()

    chaos_sampler = TimeSeriesSampler()
    engine, plans, abuse_plans = _build_engine(campaign, seed,
                                               with_abuse=True,
                                               telemetry=chaos_sampler)
    injector = FaultInjector(campaign.faults_factory(campaign.victim_names()))
    watermark = audit_log().cursor()
    chaos = injector.run(engine)

    base_by_name = {report.name: report.finish_time
                    for report in baseline.tenants}
    finishes = [(report.name, base_by_name[report.name], report.finish_time)
                for report in chaos.tenants if report.name in base_by_name]
    return assemble_verdict(
        campaign.name, seed, campaign.backend, campaign.victim_names(),
        base_sampler, chaos_sampler, watermark, plans, [(engine, injector)],
        finishes, baseline, chaos,
        fairness_bound=campaign.fairness_bound,
        goodput_floor=campaign.goodput_floor,
        detection_bound=campaign.detection_bound,
        abuse_plans=abuse_plans)


# ---------------------------------------------------------------------------
# Named campaigns.  Fault times are virtual seconds, calibrated against
# the victim streams above: session establishment (attestation + key
# exchange for every tenant) occupies roughly the first 19 ms of the
# timeline at the default inflation, and victim requests then drain over
# the following ~5-8 ms — so the data faults land at 20-23.5 ms, inside
# the live-session window.  A fault that fires against a not-yet or
# no-longer live session records "nothing to kill" in its detail and
# its verify() checks fail, so miscalibration is loud, not silent.
# ---------------------------------------------------------------------------


def _churn_reset_faults(victims: List[str]) -> List[Fault]:
    from repro.chaos.faults import (
        AeadTamperFault,
        DmaRedirectFault,
        GpuResetFault,
        SessionKillFault,
    )
    faults: List[Fault] = [
        SessionKillFault(at=20.0e-3, tenant=victims[0]),
        DmaRedirectFault(at=21.0e-3, tenant=victims[1 % len(victims)]),
        AeadTamperFault(at=22.0e-3, tenant=victims[2 % len(victims)]),
        GpuResetFault(at=23.5e-3),
    ]
    return faults


def _smoke_faults(victims: List[str]) -> List[Fault]:
    from repro.chaos.faults import GpuResetFault
    return [GpuResetFault(at=20.5e-3)]


def _storm_faults(victims: List[str]) -> List[Fault]:
    from repro.chaos.faults import SchedulerStormFault, StarvationFault
    return [
        SchedulerStormFault(at=19.5e-3, duration=3.0e-3),
        StarvationFault(at=23.0e-3, duration=1.5e-3, tenant=victims[0]),
    ]


CAMPAIGNS: Dict[str, Campaign] = {
    "churn-reset": Campaign(
        name="churn-reset",
        description=("Session kill + DMA redirect + AEAD tamper + GPU "
                     "reset against three victims, with queue-flooding "
                     "and quota-probing abuse tenants alongside."),
        faults_factory=_churn_reset_faults,
        victims=3,
        rounds=3,
        abuse=("queue_flood", "quota_probe"),
        fairness_bound=6.0,
        goodput_floor=0.85,
        # Four stacked faults: after three recovery cycles the victims
        # back off, so nothing probes the reset device for ~15 ms of
        # virtual time — detection is bounded by the next probe, not by
        # the monitoring plane.
        detection_bound=20.0e-3,
    ),
    "smoke": Campaign(
        name="smoke",
        description=("CI smoke: one GPU reset mid-run with two abuse "
                     "tenants; asserts the full three-sided verdict fast."),
        faults_factory=_smoke_faults,
        victims=2,
        rounds=2,
        abuse=("queue_flood", "quota_probe"),
        fairness_bound=6.0,
        goodput_floor=0.85,
    ),
    "storm": Campaign(
        name="storm",
        description=("Adversarial arbitration: a context-switch storm "
                     "and a starvation window, plus a timeout-surfing "
                     "abuse tenant; no data faults — the verdict is "
                     "dominated by the fairness side."),
        faults_factory=_storm_faults,
        victims=2,
        rounds=3,
        abuse=("timeout_surf",),
        fairness_bound=8.0,
        goodput_floor=0.85,
        # Arbitration faults are only visible through windowed latency
        # alerts, and gpu-cc's bounce-buffer session setup delays the
        # first victim observations by several virtual milliseconds.
        detection_bound=10.0e-3,
    ),
}


def get_campaign(name: str) -> Campaign:
    try:
        return CAMPAIGNS[name]
    except KeyError:
        known = ", ".join(sorted(campaign_catalog()))
        raise KeyError(f"unknown campaign {name!r} (known: {known})") from None


def campaign_catalog() -> Dict[str, str]:
    """Every runnable campaign name -> description, bespoke ones too."""
    from repro.chaos.fleet import FLEET_CAMPAIGN, FLEET_CAMPAIGN_DESCRIPTION
    catalog = {name: campaign.description
               for name, campaign in CAMPAIGNS.items()}
    catalog[FLEET_CAMPAIGN] = FLEET_CAMPAIGN_DESCRIPTION
    return catalog


def run_campaign(name: str, seed: int = 0,
                 backend: Optional[str] = None) -> CampaignResult:
    """Run the named campaign; the CLI entry point's whole backend.

    Dispatches bespoke campaigns (the fleet-migration one drives a
    :class:`~repro.fleet.Fleet`, not a single engine) before the
    :class:`Campaign`-dataclass flow.  *backend*, when given, overrides
    the campaign's configured TEE backend — every campaign must hold
    its three-sided verdict under every backend.
    """
    from repro.chaos.fleet import FLEET_CAMPAIGN, run_fleet_campaign
    if name == FLEET_CAMPAIGN:
        return run_fleet_campaign(seed, backend=backend or "hix")
    campaign = get_campaign(name)
    if backend is not None and backend != campaign.backend:
        campaign = replace(campaign, backend=backend)
    return run_campaign_obj(campaign, seed)
