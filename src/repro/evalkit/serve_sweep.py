"""Serving-layer sweeps: Figures 8/9 through the real sealed path.

The analytic multi-user model (:mod:`repro.core.multiuser`, driven by
:func:`~repro.evalkit.harness.run_multiuser`) predicts concurrency
curves from derived segments.  This module reproduces the same curves
through the serving engine instead: N tenants with real attested
sessions submit a workload's request stream, every request executes
over the sealed protocol, and the measured per-request costs are
scheduled on the virtual multi-tenant timeline.  The two paths share
the cost model and the crypto derate, so their relative slowdowns are
directly comparable — and :func:`fair_crosscheck` pins the scheduler
core itself against ``simulate_concurrent`` on identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.multiuser import simulate_concurrent
from repro.evalkit.figures import FigureData
from repro.evalkit.harness import (
    DEFAULT_INFLATION,
    HIX,
    run_multiuser,
    user_segments,
)
from repro.serve import ServeEngine, ServeReport, TenantQuota
from repro.serve.jobs import submit_workload
from repro.serve.scheduler import DeficitFairScheduler, Scheduler
from repro.sim.costs import CostModel
from repro.system import Machine, MachineConfig
from repro.workloads.base import Workload

#: Generous per-tenant defaults for sweep runs: the sweeps measure
#: scheduling, so quotas should not be the binding constraint.  The
#: deep in-flight cap matters for fidelity: the analytic segments model
#: the copy pipeline as one host block followed by back-to-back in-GPU
#: crypto chunks, which a tenant can only present to the engine if its
#: chunk uploads pipeline instead of strictly alternating host/gpu
#: (``max_inflight=1`` flattens the concurrency curve by ~20%).
SWEEP_QUOTA = TenantQuota(max_contexts=1, device_memory_bytes=256 << 20,
                          max_inflight=8, max_queue_depth=128)


def serve_run(workload: Workload, num_users: int,
              scheduler: Union[str, Scheduler] = "fair",
              inflation: float = DEFAULT_INFLATION,
              costs: Optional[CostModel] = None,
              quota: Optional[TenantQuota] = None,
              crypto_efficiency: Optional[float] = None,
              machine: Optional[Machine] = None,
              fast_path: bool = True,
              backend: str = "hix",
              telemetry=None) -> ServeReport:
    """One serving run: *num_users* tenants, each submitting *workload*.

    Builds a fresh machine (unless *machine* is supplied — profiling
    runs pass one in so a tracer can already be attached to its clock;
    a supplied machine's configured TEE backend wins over *backend*),
    admits ``user0..userN-1`` with *quota* (default :data:`SWEEP_QUOTA`),
    decomposes the workload into each tenant's request stream, and runs
    the engine.  *telemetry* (a
    :class:`~repro.obs.timeseries.TimeSeriesSampler`) attaches windowed
    time-series collection to the run without perturbing it.
    """
    if machine is None:
        config = MachineConfig(data_inflation=inflation, backend=backend)
        if costs is not None:
            config = MachineConfig(data_inflation=inflation, costs=costs,
                                   backend=backend)
        machine = Machine(config)
    engine = ServeEngine(machine, scheduler=scheduler,
                         max_tenants=max(num_users, 1),
                         default_quota=quota or SWEEP_QUOTA,
                         crypto_efficiency=crypto_efficiency,
                         fast_path=fast_path,
                         telemetry=telemetry)
    for index in range(num_users):
        client = engine.add_tenant(f"user{index}")
        submit_workload(client, workload, inflation, machine.costs,
                        seed=index, backend=machine.config.backend)
    return engine.run()


def serve_figure(workload: Workload,
                 users: Sequence[int] = (1, 2, 4),
                 scheduler: Union[str, Scheduler] = "fair",
                 inflation: float = DEFAULT_INFLATION,
                 costs: Optional[CostModel] = None,
                 backend: str = "hix") -> FigureData:
    """Relative-slowdown concurrency curve, serving path vs analytic.

    Both series are normalized to their own 1-user time.  The serving
    runs pin ``crypto_efficiency`` to the multi-user derate for *every*
    point — the analytic segments derate the in-GPU crypto
    unconditionally, so the 1-user baselines must agree on it for the
    ratios to be comparable (the absolute 1-user serve makespan with
    derate is also what ``run_multiuser(.., 1)`` models).
    """
    costs = costs or CostModel()
    eff = costs.aead_multiuser_efficiency(backend)
    serve_ms, analytic_ms = [], []
    for n in users:
        report = serve_run(workload, n, scheduler=scheduler,
                           inflation=inflation, costs=costs,
                           crypto_efficiency=eff, backend=backend)
        serve_ms.append(report.makespan * 1e3)
        analytic_ms.append(run_multiuser(workload, backend, n, costs) * 1e3)
    serve_rel = [m / serve_ms[0] for m in serve_ms]
    analytic_rel = [m / analytic_ms[0] for m in analytic_ms]
    worst = max(abs(s - a) / a
                for s, a in zip(serve_rel, analytic_rel))
    sched_name = scheduler if isinstance(scheduler, str) else scheduler.name
    return FigureData(
        figure_id="Serve sweep",
        title=f"{workload.name}: relative slowdown vs concurrent users "
              f"(scheduler={sched_name})",
        x_labels=[f"{n}u" for n in users],
        series={"serve (sealed path)": serve_rel,
                "analytic (Fig 8/9 model)": analytic_rel,
                "serve_ms": serve_ms,
                "analytic_ms": analytic_ms},
        unit="x of own 1-user time",
        notes=[f"max relative-slowdown divergence vs the analytic "
               f"model: {worst * 100.0:.1f}%",
               "paper: +45.2% HIX-vs-Gdev degradation at 2 users, "
               "+39.7% at 4 (Figures 8/9)"])


@dataclass
class CrosscheckResult:
    """Fair-scheduler makespan vs the analytic oracle, same inputs."""

    workload: str
    num_users: int
    oracle_makespan: float
    fair_makespan: float
    oracle_switches: int
    fair_switches: int

    @property
    def relative_delta(self) -> float:
        if self.oracle_makespan <= 0.0:
            return 0.0
        return abs(self.fair_makespan - self.oracle_makespan) \
            / self.oracle_makespan

    def render(self) -> str:
        return (f"fair-scheduler cross-check ({self.workload}, "
                f"{self.num_users} users): "
                f"oracle {self.oracle_makespan * 1e3:.3f} ms "
                f"({self.oracle_switches} switches) vs "
                f"fair {self.fair_makespan * 1e3:.3f} ms "
                f"({self.fair_switches} switches), "
                f"delta {self.relative_delta * 100.0:.2f}%")


def fair_crosscheck(workload: Workload, num_users: int,
                    costs: Optional[CostModel] = None) -> CrosscheckResult:
    """Run the DRR scheduler and the analytic oracle on identical inputs.

    Feeds the *same* per-user segment lists (from
    :func:`~repro.evalkit.harness.user_segments`) to
    ``simulate_concurrent`` twice: native FIFO, and the DRR scheduler
    with the calibrated fair quantum.  On these workload-shaped inputs the
    DRR makespan tracks the oracle within a small relative tolerance
    (exactly on single-visit and FIFO-equivalent inputs — see the
    property suite).
    """
    costs = costs or CostModel()
    segments = user_segments(workload, costs, HIX)
    users = [list(segments) for _ in range(num_users)]
    oracle_makespan, _, oracle_stats = simulate_concurrent(
        users, costs.gpu_context_switch)
    fair = DeficitFairScheduler(costs.serve_fair_quantum)
    fair_makespan, _, fair_stats = simulate_concurrent(
        users, costs.gpu_context_switch, fair)
    return CrosscheckResult(
        workload=workload.name,
        num_users=num_users,
        oracle_makespan=oracle_makespan,
        fair_makespan=fair_makespan,
        oracle_switches=int(oracle_stats["context_switches"]),
        fair_switches=int(fair_stats["context_switches"]),
    )
