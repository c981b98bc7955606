"""Serving reports and the one shared per-tenant rollup.

Before this module existed the per-tenant outcome rollup lived twice —
once in :meth:`ServeEngine.run`'s report assembly and once in the
metric-publication loop — and the fleet tier would have added a third
copy for its cross-machine merge.  :func:`build_tenant_report` is now
the single place a :class:`TenantClient`'s request ledger becomes a
:class:`TenantReport` row, :data:`OUTCOME_FIELDS` is the single list of
outcome counters (metrics publication, fleet totals, and renderers all
iterate it), and :func:`merge_reports` is the fleet-level merge that
:mod:`repro.fleet` and the evalkit sweeps share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.serve.queues import (
    BACKPRESSURE,
    DENIED,
    FAILED,
    MIGRATED,
    SERVED,
    SHED,
    TIMEOUT,
)
from repro.sim.engine import LaneLog
from repro.sim.trace import TraceEvent, render_lanes


@dataclass
class TenantReport:
    """Per-tenant serving metrics, all in simulated/virtual seconds."""

    name: str
    submitted: int
    rejected_submits: int
    served: int
    timed_out: int
    denied: int
    backpressured: int
    failed: int
    finish_time: float
    gpu_busy: float
    host_busy: float
    waits: float
    stall_seconds: float
    peak_memory: int
    quota_denials: int
    shed: int = 0
    retries: int = 0
    migrated: int = 0

    def renamed(self, name: str) -> "TenantReport":
        """A shallow copy under *name*, as :func:`copy.copy` makes one
        (``__init__`` only assigns fields), at a third of its cost."""
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__)
        copy.name = name
        return copy


#: Outcome counters of a :class:`TenantReport`, paired with the metric
#: name they publish under.  Engine metric publication, fleet totals,
#: and report merges all iterate this one list — add a counter here and
#: every consumer picks it up.
OUTCOME_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("serve.requests_served", "served"),
    ("serve.requests_timed_out", "timed_out"),
    ("serve.requests_denied", "denied"),
    ("serve.requests_backpressured", "backpressured"),
    ("serve.requests_failed", "failed"),
    ("serve.requests_shed", "shed"),
    ("serve.retry.total", "retries"),
    ("serve.requests_migrated", "migrated"),
)


def build_tenant_report(client, name: str, timeline,
                        stall_seconds: float) -> TenantReport:
    """Roll one client's request ledger + lane timeline into a report row.

    *client* is a :class:`repro.serve.engine.TenantClient`; *timeline*
    the matching :class:`repro.sim.engine.LaneTimeline`.  This is the
    one place outcome strings become report counters — the engine's
    report assembly and the fleet tier's per-machine merge both call
    it, so the two can never drift.
    """
    counts = client.outcome_counts()
    return TenantReport(
        name=name,
        submitted=client.queue.counters.accepted,
        rejected_submits=client.queue.counters.rejected,
        served=counts.get(SERVED, 0),
        timed_out=counts.get(TIMEOUT, 0),
        denied=counts.get(DENIED, 0),
        backpressured=counts.get(BACKPRESSURE, 0),
        failed=counts.get(FAILED, 0),
        finish_time=timeline.finish_time,
        gpu_busy=timeline.gpu_busy,
        host_busy=timeline.host_busy,
        waits=timeline.waits,
        stall_seconds=stall_seconds,
        peak_memory=client.record.peak_memory,
        quota_denials=client.record.quota_denials,
        shed=counts.get(SHED, 0),
        retries=sum(max(request.attempts - 1, 0)
                    for request in client.requests),
        # Drained requests leave the source ledger when handed off (the
        # target re-owns them), so the source counts them separately.
        migrated=counts.get(MIGRATED, 0)
        + getattr(client, "migrated_away", 0),
    )


def build_lite_report(name: str, timeline, stall_seconds: float,
                      served: int, timed_out: int) -> TenantReport:
    """A lite lane's row: no request ledger, just engine-visit counts.
    Positional, in field order: a keyword build costs twice as much."""
    return TenantReport(name, served + timed_out, 0, served, timed_out,
                        0, 0, 0, timeline.finish_time, timeline.gpu_busy,
                        timeline.host_busy, timeline.waits, stall_seconds,
                        0, 0)


def lane_events(names: Sequence[str], log: LaneLog
                ) -> Dict[str, List[TraceEvent]]:
    """Each named lane's trace events, from a run's flat lane log."""
    lanes: Dict[str, List[TraceEvent]] = {name: [] for name in names}
    atoms = iter(log)
    for index, start, seconds, category in zip(atoms, atoms, atoms, atoms):
        lanes[names[index]].append(TraceEvent(start, seconds, category))
    return lanes


@dataclass
class ServeReport:
    """Outcome of one :meth:`ServeEngine.run`.

    :attr:`lanes` (each lane's trace events, for :meth:`render`) is
    built by *lane_source* the first time it is read, then cached: the
    report keeps the run's flat lane log, and a fleet's thousands of
    lite lanes never pay for events nobody draws.
    """

    scheduler: str
    makespan: float
    context_switches: int
    gpu_utilization: float
    tenants: List[TenantReport]
    lane_source: Callable[[], Dict[str, List[TraceEvent]]] = field(
        default=dict, repr=False, compare=False)

    @cached_property
    def lanes(self) -> Dict[str, List[TraceEvent]]:
        return self.lane_source()

    def tenant(self, name: str) -> TenantReport:
        for report in self.tenants:
            if report.name == name:
                return report
        raise KeyError(name)

    def render(self, width: int = 60) -> str:
        lines = [
            f"serve: {len(self.tenants)} tenant(s), "
            f"scheduler={self.scheduler}, "
            f"makespan={self.makespan * 1e3:.3f} ms, "
            f"ctx_switches={self.context_switches}, "
            f"gpu_util={self.gpu_utilization:.1%}",
        ]
        header = (f"{'tenant':>12} {'srv':>4} {'t/o':>4} {'den':>4} "
                  f"{'bp':>4} {'fail':>4} {'finish_ms':>10} "
                  f"{'gpu_ms':>8} {'wait_ms':>8}")
        lines.append(header)
        for t in self.tenants:
            lines.append(
                f"{t.name:>12} {t.served:>4} {t.timed_out:>4} "
                f"{t.denied:>4} {t.backpressured:>4} {t.failed:>4} "
                f"{t.finish_time * 1e3:>10.3f} {t.gpu_busy * 1e3:>8.3f} "
                f"{t.waits * 1e3:>8.3f}")
        if self.lanes:
            lines.append(render_lanes(self.lanes, width=width))
        return "\n".join(lines)


def report_totals(report: ServeReport) -> Dict[str, int]:
    """Outcome totals across a report's tenants, keyed by metric name."""
    return {metric: sum(getattr(t, attr) for t in report.tenants)
            for metric, attr in OUTCOME_FIELDS}


def merge_reports(reports: Sequence[ServeReport],
                  labels: Optional[Sequence[str]] = None,
                  scheduler: str = "",
                  rename: Optional[Callable[[str, str], str]] = None,
                  ) -> ServeReport:
    """Merge per-machine serve reports into one fleet-level report.

    The merged makespan is the max over machines (they ran on one
    shared kernel, so their virtual timelines are directly comparable),
    context switches sum, and GPU utilization is the busy-sum over the
    merged makespan — i.e. utilization *per engine* averaged across the
    fleet.  Tenant rows and lane tracks keep their per-machine identity
    via *rename* (default ``"{label}/{name}"``); per-machine reports
    themselves are left untouched, unprefixed — that is what keeps a
    1-machine fleet bit-identical to a bare engine run.  The merged
    lanes are the machines' own event lists under the renamed keys,
    assembled when first read.
    """
    if labels is None:
        labels = [f"m{index}" for index in range(len(reports))]
    if rename is None:
        def rename(label: str, name: str) -> str:
            return f"{label}/{name}"
    makespan = max((r.makespan for r in reports), default=0.0)
    gpu_busy = sum(t.gpu_busy for r in reports for t in r.tenants)
    engines = max(len(reports), 1)
    parts = list(zip(labels, reports))
    tenants = [row.renamed(rename(label, row.name))
               for label, report in parts for row in report.tenants]

    def lanes() -> Dict[str, List[TraceEvent]]:
        return {rename(label, name): events for label, report in parts
                for name, events in report.lanes.items()}

    return ServeReport(
        scheduler=scheduler or (reports[0].scheduler if reports else ""),
        makespan=makespan,
        context_switches=sum(r.context_switches for r in reports),
        gpu_utilization=(gpu_busy / (makespan * engines)
                         if makespan > 0.0 else 0.0),
        tenants=tenants,
        lane_source=lanes,
    )
