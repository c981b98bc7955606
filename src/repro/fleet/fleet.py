"""The fleet tier: M simulated machines behind one router, one clock.

Each :class:`FleetMachine` is a full independent isolation domain — its
own :class:`~repro.system.Machine` (SGX unit, PCIe tree, GPU) and
:class:`~repro.serve.engine.ServeEngine` — but all machines' lanes run
on ONE shared :class:`~repro.sim.engine.EventClock`, so their virtual
timelines interleave the way racks behind a load balancer do, instead
of running back to back.  The paper's trust argument scales unchanged:
machines share nothing but the clock — no keys, no memo entries, no
device state — and a session can only move between machines via full
re-establishment (fresh attestation + key exchange + epoch bump), the
drain-based migration protocol below.

Run shape::

    fleet = Fleet(machines=4, policy="least-loaded")
    client = fleet.add_session("alice")        # routed, full crypto
    client.submit("alice:op", fn)
    fleet.add_lite_sessions(profile, 10_000)   # analytic, no crypto
    fleet.plan_migration("alice", target=2, at=0.030)
    report = fleet.run()                       # one shared kernel drain

A 1-machine fleet with full-crypto sessions is **bit-identical** to a
bare ``ServeEngine.run()`` — the router decides placement synchronously
(no kernel events), and ``Fleet.run`` is exactly the engine's
``start``/``kernel.run``/``finish`` decomposition (pinned by
``tests/property/test_prop_fleet.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.fleet.lite import LiteProfile
from repro.fleet.router import MachineStatus, Router, SessionSpec
from repro.obs import metrics as obs_metrics
from repro.obs.audit import audit_log
from repro.obs.tracer import span as _span
from repro.serve.engine import ServeEngine, TenantClient
from repro.serve.queues import ServeRequest
from repro.serve.report import ServeReport, merge_reports
from repro.serve.resilience import BreakerConfig, RetryPolicy
from repro.serve.session import TenantQuota
from repro.sim.engine import EventClock, TenantLane
from repro.system import Machine, MachineConfig


class FleetMachine:
    """One machine of the fleet: isolation domain + serving engine."""

    def __init__(self, index: int, name: str, machine: Machine,
                 engine: ServeEngine) -> None:
        self.index = index
        self.name = name
        self.machine = machine
        self.engine = engine
        #: Lite-session lanes riding along on this engine's Resource.
        self.lite_lanes: List[TenantLane] = []
        #: Placement-time accounting (the router sees these *before*
        #: any request executed, when the session table is still idle).
        self.reserved_bytes = 0
        self.est_seconds = 0.0
        self.lite_est_seconds = 0.0
        self.weight = 1.0
        self.healthy = True
        self.draining = False
        #: The VRAM the machine's GPU was built with.
        self.memory_budget = machine.config.vram_size_actual
        #: The last :meth:`snapshot`; ``None`` once the fleet books this
        #: machine.
        self._snapshot: Optional[MachineStatus] = None

    def drain_estimate(self) -> float:
        """How long this machine's queued backlog needs to drain.

        Mirrors the engine's per-tenant ``queue_full`` hint at machine
        scope: queued request count times the observed mean service
        time (calibrated dispatch latency before anything completed),
        plus the unstarted lite work — the router's retry-after input.
        """
        costs = self.machine.costs
        total = 0.0
        for client in self.engine.clients:
            if client.served_count:
                per_request = client.served_seconds / client.served_count
            else:
                per_request = costs.serve_dispatch_latency
            total += len(client.queue) * per_request
        return total + self.lite_est_seconds

    def snapshot(self) -> MachineStatus:
        """:meth:`status`, reused while nothing it reads has changed.

        Without a full-crypto client, a machine's status moves only when
        the fleet books it (a placement or its rollback drops the
        snapshot) or one of ``weight``, ``healthy`` and ``draining`` is
        written (compared against the snapshot).  A client's admission,
        submits and runs move the session table, queues, memory and
        served means, so a machine hosting one is rebuilt on every call.
        """
        cached = self._snapshot
        if (cached is None or self.engine.clients
                or cached.weight != self.weight
                or cached.healthy != self.healthy
                or cached.draining != self.draining):
            cached = self._snapshot = self.status()
        return cached

    def status(self) -> MachineStatus:
        """A fresh snapshot of everything the router reads."""
        table = self.engine.table
        return MachineStatus(
            index=self.index,
            name=self.name,
            sessions=len(table),
            capacity=table.max_tenants,
            lite_sessions=len(self.lite_lanes),
            pending_seconds=self.est_seconds + self.lite_est_seconds,
            drain_seconds=self.drain_estimate(),
            memory_committed=self.reserved_bytes + table.memory_in_use(),
            memory_budget=self.memory_budget,
            backend=self.machine.config.backend,
            weight=self.weight,
            draining=self.draining,
            healthy=self.healthy,
        )

    def note_shed_fraction(self, shed: int, submitted: int,
                           threshold: float = 0.5) -> None:
        """Health from breaker/shed signals: a machine shedding more
        than *threshold* of its submissions is marked unhealthy so the
        router stops routing new sessions at it."""
        if submitted > 0 and shed / submitted > threshold:
            self.healthy = False


@dataclass
class MigrationPlan:
    """A scheduled drain-and-move: *tenant* leaves *source* at *at*."""

    tenant: str
    source: int
    target: int
    at: float


@dataclass
class MigrationRecord:
    """What actually happened when a plan fired."""

    plan: MigrationPlan
    drained_at: float = -1.0
    landed_at: float = -1.0
    requests_moved: int = 0
    target_client: Optional[TenantClient] = None

    @property
    def completed(self) -> bool:
        return self.landed_at >= 0.0


@dataclass
class FleetReport:
    """Outcome of one :meth:`Fleet.run`."""

    policy: str
    scheduler: str
    machine_names: List[str]
    reports: List[ServeReport]
    merged: ServeReport
    placements: Dict[str, int]
    migrations: List[MigrationRecord] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return self.merged.makespan

    def render(self, width: int = 60) -> str:
        lines = [
            f"fleet: {len(self.reports)} machine(s), policy={self.policy}, "
            f"scheduler={self.scheduler}, "
            f"makespan={self.makespan * 1e3:.3f} ms, "
            f"sessions={len(self.merged.tenants)}, "
            f"migrations={sum(1 for m in self.migrations if m.completed)}"
            f"/{len(self.migrations)}",
        ]
        for name, report in zip(self.machine_names, self.reports):
            served = sum(t.served for t in report.tenants)
            migrated = sum(t.migrated for t in report.tenants)
            lines.append(
                f"  {name}: {len(report.tenants)} session(s), "
                f"served={served}, migrated={migrated}, "
                f"finish={report.makespan * 1e3:.3f} ms, "
                f"gpu_util={report.gpu_utilization:.1%}")
        return "\n".join(lines)


class Fleet:
    """M machines, one router, one clock."""

    def __init__(self, machines: Union[int, Sequence[MachineConfig]] = 2,
                 scheduler: str = "fair",
                 policy: Union[str, object] = "least-loaded",
                 machine_config: Optional[MachineConfig] = None,
                 max_tenants: int = 8,
                 default_quota: Optional[TenantQuota] = None,
                 crypto_efficiency: Optional[float] = None,
                 fast_path: bool = True,
                 retry_policy: Optional[RetryPolicy] = None,
                 breaker: Optional[BreakerConfig] = None,
                 capture_units: bool = False,
                 seed: int = 0) -> None:
        # ``machines`` is a count (homogeneous fleet, every machine built
        # from ``machine_config``) or a sequence of per-machine
        # MachineConfigs — a heterogeneous fleet mixing TEE backends,
        # VRAM sizes, or suite choices behind one router.
        if isinstance(machines, int):
            if machines < 1:
                raise ValueError("a fleet needs at least one machine")
            base = machine_config if machine_config is not None \
                else MachineConfig()
            configs: List[MachineConfig] = [base] * machines
        else:
            configs = list(machines)
            if not configs:
                raise ValueError("a fleet needs at least one machine")
            if machine_config is not None:
                raise ValueError("pass either a machine count with "
                                 "machine_config or a sequence of "
                                 "per-machine configs, not both")
        self.router = Router(policy)
        self._scheduler_name = scheduler
        self.machines: List[FleetMachine] = []
        for index, config in enumerate(configs):
            machine = Machine(config, index=index)
            engine = ServeEngine(machine, scheduler=scheduler,
                                 max_tenants=max_tenants,
                                 default_quota=default_quota,
                                 crypto_efficiency=crypto_efficiency,
                                 fast_path=fast_path,
                                 retry_policy=retry_policy,
                                 breaker=breaker,
                                 seed=seed + index,
                                 capture_units=capture_units)
            self.machines.append(
                FleetMachine(index, f"m{index}", machine, engine))
        self.plans: List[MigrationPlan] = []
        self._lite_count = 0
        #: ``(registry, its placed counter)``, resolved at the first
        #: placement under each active registry.
        self._placed = None

    # -- placement ----------------------------------------------------------

    def statuses(self) -> List[MachineStatus]:
        return [machine.status() for machine in self.machines]

    def place(self, spec: SessionSpec) -> FleetMachine:
        """Route *spec* through the placement policy; book its costs.

        The router sees each machine's :meth:`FleetMachine.snapshot`,
        equal to a fresh status; after booking, only the chosen
        machine's changed, so only its snapshot is dropped.

        Every decision lands in the registry as a per-policy outcome
        counter (``fleet.placement.<policy>.placed`` / ``.rejected``),
        so a dashboard can tell a router that is admitting from one
        that is bouncing sessions at the door.
        """
        registry = obs_metrics.registry()
        try:
            index = self.router.place(
                spec, [machine.snapshot() for machine in self.machines])
        except Exception:
            registry.counter(
                f"fleet.placement.{self.router.policy_name}.rejected").inc()
            raise
        placed = self._placed
        if placed is None or placed[0] is not registry:
            placed = self._placed = (registry, registry.counter(
                f"fleet.placement.{self.router.policy_name}.placed"))
        placed[1].inc()
        chosen = self.machines[index]
        chosen.reserved_bytes += spec.memory_bytes
        if spec.lite:
            chosen.lite_est_seconds += spec.est_seconds
        else:
            chosen.est_seconds += spec.est_seconds
        chosen._snapshot = None
        return chosen

    def add_session(self, name: str,
                    quota: Optional[TenantQuota] = None,
                    est_seconds: float = 0.0,
                    memory_bytes: int = 0,
                    weight: float = 1.0) -> TenantClient:
        """Admit a full-crypto session; returns its client for submits."""
        spec = SessionSpec(name=name, est_seconds=est_seconds,
                           memory_bytes=memory_bytes, weight=weight)
        chosen = self.place(spec)
        try:
            client = chosen.engine.add_tenant(name, quota)
        except Exception:
            chosen.reserved_bytes -= spec.memory_bytes
            chosen.est_seconds -= spec.est_seconds
            chosen._snapshot = None
            self.router.forget(name)
            obs_metrics.registry().counter(
                f"fleet.placement.{self.router.policy_name}"
                ".rolled_back").inc()
            raise
        return client

    def add_lite_session(self, name: str, profile: LiteProfile,
                         weight: float = 1.0, max_inflight: int = 1,
                         memory_bytes: int = 0) -> FleetMachine:
        """Admit a lite session replaying *profile*; returns its machine."""
        spec = SessionSpec(name=name,
                           est_seconds=profile.total_seconds(),
                           memory_bytes=memory_bytes,
                           weight=weight, lite=True)
        chosen = self.place(spec)
        chosen.lite_lanes.append(
            profile.lane(name, weight=weight, max_inflight=max_inflight))
        self._lite_count += 1
        return chosen

    def add_lite_sessions(self, profile: LiteProfile, count: int,
                          prefix: str = "lite",
                          weight: float = 1.0,
                          max_inflight: int = 1) -> None:
        """Bulk-admit *count* lite sessions replaying *profile*."""
        for index in range(count):
            self.add_lite_session(f"{prefix}{index}", profile,
                                  weight=weight, max_inflight=max_inflight)

    # -- migration ----------------------------------------------------------

    def plan_migration(self, tenant: str, target: int,
                       at: float) -> MigrationPlan:
        """Schedule a drain-based move of *tenant* to machine *target*.

        At virtual time *at* the source session is asked to drain: it
        stops pulling new requests, flushes in-flight work, tears its
        session down (context destroyed with cleanse, quota released),
        and hands the unexecuted backlog to the target — where a fresh
        client at the *next session epoch* re-runs the full trust path
        (attestation, key exchange, ``on_recover`` re-provisioning)
        before serving.  No keys, memo entries, or device state cross
        machines; the epoch bump keeps residual-memory checks exact.
        """
        source = self.router.machine_of(tenant)
        if source is None:
            raise KeyError(f"unknown tenant {tenant!r}")
        if not 0 <= target < len(self.machines):
            raise ValueError(f"no machine {target} in this fleet")
        if target == source:
            raise ValueError(
                f"tenant {tenant!r} already lives on machine {target}")
        plan = MigrationPlan(tenant=tenant, source=source,
                             target=target, at=at)
        self.plans.append(plan)
        return plan

    def _schedule_migration(self, kernel: EventClock, plan: MigrationPlan,
                            record: MigrationRecord) -> None:
        source = self.machines[plan.source]
        target = self.machines[plan.target]
        client = None
        for candidate in source.engine.clients:
            if candidate.name == plan.tenant:
                client = candidate
        if client is None:
            raise KeyError(
                f"tenant {plan.tenant!r} not on machine {plan.source}")
        registry = obs_metrics.registry()

        def handoff(remaining: List[ServeRequest],
                    client: TenantClient = client) -> None:
            # Runs inside the source stream's final kernel event, after
            # its teardown charge: the landing lane starts at kernel.now
            # so target session setup strictly follows source close.
            record.drained_at = kernel.now
            source.draining = False
            with _span("fleet.migration", "fleet", tenant=plan.tenant,
                       source=source.name, target=target.name):
                landed = target.engine.receive_migration(
                    plan.tenant, remaining,
                    session_epoch=client.session_epoch + 1,
                    quota=client.record.quota,
                    on_recover=client.on_recover)
            record.landed_at = kernel.now
            record.requests_moved = len(remaining)
            record.target_client = landed
            self.router.placements[plan.tenant] = plan.target
            registry.counter("fleet.migrations.completed").inc()
            drain_seconds = record.drained_at - plan.at
            registry.histogram("fleet.migration.drain_seconds").observe(
                drain_seconds)
            registry.counter("fleet.migration.requests_moved").inc(
                len(remaining))
            audit_log().record(
                "fleet.migration", plan.tenant, time=record.landed_at,
                detail=(f"drained off {source.name} in "
                        f"{drain_seconds * 1e3:.3f} ms, re-established "
                        f"on {target.name} at epoch "
                        f"{landed.session_epoch} with "
                        f"{len(remaining)} request(s) moved"),
                source=source.name, target=target.name,
                epoch=landed.session_epoch,
                requests_moved=len(remaining))

        def begin(seq: int, client: TenantClient = client) -> None:
            source.draining = True
            client.on_drained = handoff
            client.request_drain()
            registry.counter("fleet.migrations.started").inc()

        kernel.schedule(plan.at, begin)

    # -- execution ----------------------------------------------------------

    def run(self, kernel: Optional[EventClock] = None) -> FleetReport:
        """Drain every machine's lanes over one shared kernel.

        *kernel* lets the chaos layer pre-schedule fault events exactly
        as it does for a bare engine run; faults target one machine of
        the fleet, and the others' isolation domains are unaffected by
        construction (they share nothing but the clock).
        """
        kernel = kernel if kernel is not None else EventClock()
        records = [MigrationRecord(plan=plan) for plan in self.plans]
        with _span("fleet.run", "fleet",
                   machines=len(self.machines),
                   policy=self.router.policy_name):
            for machine in self.machines:
                with _span("fleet.machine-start", "fleet",
                           machine=machine.name):
                    machine.engine.start(kernel,
                                         extra_lanes=machine.lite_lanes)
            for plan, record in zip(self.plans, records):
                self._schedule_migration(kernel, plan, record)
            kernel.run()
            reports = [machine.engine.finish()
                       for machine in self.machines]
        names = [machine.name for machine in self.machines]
        merged = merge_reports(reports, labels=names,
                               scheduler=self._scheduler_name)
        for machine, report in zip(self.machines, reports):
            machine.note_shed_fraction(
                sum(t.shed for t in report.tenants),
                sum(t.submitted for t in report.tenants))
        fleet_report = FleetReport(
            policy=self.router.policy_name,
            scheduler=self._scheduler_name,
            machine_names=names,
            reports=reports,
            merged=merged,
            placements=dict(self.router.placements),
            migrations=records,
        )
        self._publish_metrics(fleet_report)
        return fleet_report

    def _publish_metrics(self, report: FleetReport) -> None:
        registry = obs_metrics.registry()
        registry.gauge("fleet.machines").set(len(report.reports))
        registry.gauge("fleet.sessions").set(len(report.merged.tenants))
        registry.gauge("fleet.makespan_seconds").set(report.makespan)
        moved = sum(record.requests_moved for record in report.migrations
                    if record.completed)
        if moved:
            registry.counter("fleet.requests_migrated").inc(moved)
        for machine, machine_report in zip(self.machines, report.reports):
            registry.gauge(
                f"fleet.machine.{machine.name}.finish_seconds").set(
                    machine_report.makespan)
