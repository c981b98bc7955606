"""Per-tenant SLOs: error budgets, burn rates, and alert rules.

Objectives (:class:`SloObjective`) are declared per tenant — on
:class:`~repro.serve.session.TenantQuota` or directly on the manager —
and evaluated against the windowed series a
:class:`~repro.obs.timeseries.TimeSeriesSampler` collected during the
run.  Three rule families, all evaluated at window boundaries in
virtual time:

* **multi-window burn rate** (Google-SRE style): the availability error
  budget is ``1 - availability``; the budget burn rate over a window is
  ``bad_ratio / budget``.  An alert fires only when the burn exceeds
  its threshold over BOTH a fast window (catches sudden storms quickly)
  and a slow window (suppresses one-window blips), so detection is both
  prompt and low-noise.
* **windowed latency quantile**: the per-window interpolated quantile
  (:func:`~repro.obs.metrics.bucket_quantile`) exceeds the target.
* **timeout/shed ratio**: deadline expiries or load sheds exceed the
  allowed fraction of traffic over the fast window.

The :class:`AlertManager` walks every touched window, tracks
firing/resolved transitions per ``(rule, tenant)``, stamps each
transition at the closing window boundary's virtual time, attributes a
cause string built from the triggering series and measurements, and
mirrors every transition into the audit log — alerts are themselves
security-relevant evidence (the chaos detection verdict matches
injected faults against them).

Evaluation happens after the kernel drains (pure reads of sampler
state), so the SLO engine — like the sampler — cannot perturb
simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.audit import AuditLog
from repro.obs.metrics import bucket_quantile
from repro.obs.timeseries import TimeSeriesSampler

__all__ = [
    "SloObjective", "Alert", "AlertRule", "BurnRateRule", "LatencyRule",
    "TimeoutRatioRule", "TenantSlo", "SloReport", "AlertManager",
    "latency_series", "good_series", "bad_series", "timeout_series",
    "shed_series",
]


# -- series naming convention (shared with the serve engine) ----------------

def latency_series(tenant: str) -> str:
    """Per-request completion latency observations (seconds)."""
    return f"serve.latency.{tenant}"


def good_series(tenant: str) -> str:
    """Requests that completed within contract (served)."""
    return f"serve.good.{tenant}"


def bad_series(tenant: str) -> str:
    """Requests that burned error budget (failed, timed out)."""
    return f"serve.bad.{tenant}"


def timeout_series(tenant: str) -> str:
    """Deadline expiries (subset of bad)."""
    return f"serve.timeout.{tenant}"


def shed_series(tenant: str) -> str:
    """Load sheds: denials and backpressure rejections."""
    return f"serve.shed.{tenant}"


@dataclass(frozen=True)
class SloObjective:
    """One tenant's service-level objective.

    ``None`` disables a dimension.  Window counts are in sampler
    windows (width set by the sampler, default 1 ms of virtual time).
    """

    availability: Optional[float] = None      # e.g. 0.999
    latency_quantile: float = 0.99
    latency_target: Optional[float] = None    # seconds
    max_timeout_ratio: Optional[float] = None  # fraction of traffic
    max_shed_ratio: Optional[float] = None
    fast_windows: int = 2
    slow_windows: int = 8
    fast_burn: float = 8.0
    slow_burn: float = 2.0

    def __post_init__(self) -> None:
        if self.availability is not None \
                and not 0.0 < self.availability < 1.0:
            raise ValueError("availability must be in (0, 1)")
        if not 0.0 < self.latency_quantile <= 1.0:
            raise ValueError("latency_quantile must be in (0, 1]")
        if self.fast_windows < 1 or self.slow_windows < self.fast_windows:
            raise ValueError("need 1 <= fast_windows <= slow_windows")


@dataclass
class Alert:
    """One firing (and possibly resolved) alert instance."""

    rule: str
    tenant: str
    firing_at: float
    resolved_at: Optional[float] = None
    cause: str = ""
    detail: str = ""

    @property
    def firing(self) -> bool:
        return self.resolved_at is None

    def render(self) -> str:
        state = ("firing" if self.firing
                 else f"resolved t={self.resolved_at * 1e3:.3f}ms")
        return (f"{self.rule:<18} {self.tenant:<14} "
                f"fired t={self.firing_at * 1e3:9.3f}ms  {state}  "
                f"{self.cause}")


class AlertRule:
    """One evaluable condition; subclasses define :meth:`check`."""

    name = "rule"

    def __init__(self, tenant: str, objective: SloObjective) -> None:
        self.tenant = tenant
        self.objective = objective

    def check(self, sampler: TimeSeriesSampler,
              index: int) -> Optional[str]:
        """Cause string when the condition holds at window *index*,
        else ``None``."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    def _trailing(self, sampler: TimeSeriesSampler, series: str,
                  index: int, windows: int) -> float:
        total = 0.0
        for k in range(index - windows + 1, index + 1):
            total += sampler.mark_count(series, k)
        return total


class BurnRateRule(AlertRule):
    """Multi-window availability error-budget burn."""

    name = "burn-rate"

    def _burn(self, sampler: TimeSeriesSampler, index: int,
              windows: int) -> Tuple[float, float]:
        good = self._trailing(sampler, good_series(self.tenant),
                              index, windows)
        bad = self._trailing(sampler, bad_series(self.tenant),
                             index, windows)
        total = good + bad
        if total == 0.0:
            return 0.0, 0.0
        budget = 1.0 - self.objective.availability
        return (bad / total) / budget, total

    def check(self, sampler: TimeSeriesSampler,
              index: int) -> Optional[str]:
        objective = self.objective
        if objective.availability is None:
            return None
        fast, fast_n = self._burn(sampler, index, objective.fast_windows)
        if fast < objective.fast_burn or fast_n == 0.0:
            return None
        slow, slow_n = self._burn(sampler, index, objective.slow_windows)
        if slow < objective.slow_burn or slow_n == 0.0:
            return None
        return (f"burn {fast:.1f}x/{objective.fast_windows}w "
                f"(>= {objective.fast_burn:g}x) and "
                f"{slow:.1f}x/{objective.slow_windows}w "
                f"(>= {objective.slow_burn:g}x) of "
                f"{bad_series(self.tenant)} budget "
                f"(availability {objective.availability:g})")


class LatencyRule(AlertRule):
    """Windowed latency quantile over target."""

    name = "latency"

    def check(self, sampler: TimeSeriesSampler,
              index: int) -> Optional[str]:
        objective = self.objective
        if objective.latency_target is None:
            return None
        estimate = sampler.quantile(latency_series(self.tenant), index,
                                    objective.latency_quantile)
        if estimate is None or estimate <= objective.latency_target:
            return None
        return (f"p{objective.latency_quantile * 100:g}="
                f"{estimate * 1e3:.3f}ms > target "
                f"{objective.latency_target * 1e3:.3f}ms on "
                f"{latency_series(self.tenant)}")


class TimeoutRatioRule(AlertRule):
    """Timeout or shed fraction of traffic over the fast window."""

    name = "timeout-ratio"

    def check(self, sampler: TimeSeriesSampler,
              index: int) -> Optional[str]:
        objective = self.objective
        causes = []
        windows = objective.fast_windows
        good = self._trailing(sampler, good_series(self.tenant),
                              index, windows)
        bad = self._trailing(sampler, bad_series(self.tenant),
                             index, windows)
        for limit, series in (
                (objective.max_timeout_ratio,
                 timeout_series(self.tenant)),
                (objective.max_shed_ratio, shed_series(self.tenant))):
            if limit is None:
                continue
            count = self._trailing(sampler, series, index, windows)
            total = good + bad + (count if series
                                  == shed_series(self.tenant) else 0.0)
            if total > 0.0 and count / total > limit:
                causes.append(f"{series} ratio {count / total:.2f} "
                              f"> {limit:g}")
        return "; ".join(causes) if causes else None


RULE_CLASSES = (BurnRateRule, LatencyRule, TimeoutRatioRule)


@dataclass
class TenantSlo:
    """Error-budget accounting for one tenant over the whole run."""

    tenant: str
    objective: SloObjective
    good: float = 0.0
    bad: float = 0.0
    timeouts: float = 0.0
    sheds: float = 0.0
    latency_quantile: Optional[float] = None
    worst_window_quantile: Optional[float] = None
    alerts: int = 0

    @property
    def total(self) -> float:
        return self.good + self.bad

    @property
    def availability_achieved(self) -> Optional[float]:
        return self.good / self.total if self.total else None

    @property
    def budget_consumed(self) -> Optional[float]:
        """Fraction of the availability error budget burned (>1 means
        the objective was violated overall)."""
        if self.objective.availability is None or not self.total:
            return None
        budget = 1.0 - self.objective.availability
        return (self.bad / self.total) / budget

    def render(self) -> str:
        availability = self.availability_achieved
        budget = self.budget_consumed
        quantile = self.objective.latency_quantile
        parts = [f"{self.tenant:<14}",
                 f"requests={int(self.total):<6}"]
        if availability is not None:
            parts.append(f"avail={availability:.4f}")
        if self.objective.availability is not None:
            parts.append(f"(target {self.objective.availability:g})")
        if budget is not None:
            parts.append(f"budget={budget * 100:6.1f}%")
        if self.latency_quantile is not None:
            parts.append(f"p{quantile * 100:g}="
                         f"{self.latency_quantile * 1e3:.3f}ms")
        if self.objective.latency_target is not None:
            parts.append(
                f"(target {self.objective.latency_target * 1e3:.3f}ms)")
        if self.worst_window_quantile is not None:
            parts.append(f"worst-window="
                         f"{self.worst_window_quantile * 1e3:.3f}ms")
        parts.append(f"alerts={self.alerts}")
        return "  ".join(parts)


@dataclass
class SloReport:
    """Per-tenant budget rows plus the alert timeline."""

    tenants: List[TenantSlo] = field(default_factory=list)
    alerts: List[Alert] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No alert ever fired and no budget overran."""
        if self.alerts:
            return False
        return all(row.budget_consumed is None or row.budget_consumed <= 1.0
                   for row in self.tenants)

    def render(self) -> str:
        lines = ["SLO report"]
        lines.extend("  " + row.render() for row in self.tenants)
        if self.alerts:
            lines.append(f"alerts ({len(self.alerts)}):")
            lines.extend("  " + alert.render() for alert in self.alerts)
        else:
            lines.append("alerts: none")
        return "\n".join(lines)


class AlertManager:
    """Evaluates every tenant's rules at window boundaries."""

    def __init__(self, sampler: TimeSeriesSampler,
                 objectives: Optional[Dict[str, SloObjective]] = None,
                 audit: Optional[AuditLog] = None) -> None:
        self.sampler = sampler
        self.objectives: Dict[str, SloObjective] = dict(objectives or {})
        self.audit = audit
        self.alerts: List[Alert] = []
        self._evaluated = False

    def evaluate(self) -> List[Alert]:
        """Walk every touched window once; idempotent."""
        if self._evaluated:
            return self.alerts
        self._evaluated = True
        first, last = self.sampler.span()
        rules = [cls(tenant, objective)
                 for tenant, objective in sorted(self.objectives.items())
                 for cls in RULE_CLASSES]
        open_alerts: Dict[Tuple[str, str], Alert] = {}
        for index in range(first, last + 1):
            boundary = self.sampler.window_start(index + 1)
            for rule in rules:
                key = (rule.name, rule.tenant)
                cause = rule.check(self.sampler, index)
                active = open_alerts.get(key)
                if cause is not None and active is None:
                    alert = Alert(rule=rule.name, tenant=rule.tenant,
                                  firing_at=boundary, cause=cause)
                    open_alerts[key] = alert
                    self.alerts.append(alert)
                    if self.audit is not None:
                        self.audit.record(
                            "alert.firing", rule.tenant, time=boundary,
                            ok=False, detail=cause, rule=rule.name)
                elif cause is None and active is not None:
                    active.resolved_at = boundary
                    del open_alerts[key]
                    if self.audit is not None:
                        self.audit.record(
                            "alert.resolved", rule.tenant, time=boundary,
                            detail=active.cause, rule=rule.name)
        return self.alerts

    def report(self) -> SloReport:
        """Budget accounting per declared tenant (evaluates first)."""
        alerts = self.evaluate()
        sampler = self.sampler
        rows = []
        for tenant, objective in sorted(self.objectives.items()):
            row = TenantSlo(tenant=tenant, objective=objective)
            row.good = sum(c for _, c in
                           sampler.mark_series(good_series(tenant)))
            row.bad = sum(c for _, c in
                          sampler.mark_series(bad_series(tenant)))
            row.timeouts = sum(c for _, c in
                               sampler.mark_series(timeout_series(tenant)))
            row.sheds = sum(c for _, c in
                            sampler.mark_series(shed_series(tenant)))
            row.alerts = sum(1 for alert in alerts
                             if alert.tenant == tenant)
            windows = sampler._observed.get(latency_series(tenant), {})
            if windows:
                merged = [0] * (len(sampler.buckets) + 1)
                lo: Optional[float] = None
                hi: Optional[float] = None
                worst: Optional[float] = None
                for accum in windows.values():
                    for slot, count in enumerate(accum.counts):
                        merged[slot] += count
                    if accum.min is not None:
                        lo = accum.min if lo is None \
                            else min(lo, accum.min)
                    if accum.max is not None:
                        hi = accum.max if hi is None \
                            else max(hi, accum.max)
                    estimate = accum.quantile(
                        sampler.buckets, objective.latency_quantile)
                    if estimate is not None and (worst is None
                                                 or estimate > worst):
                        worst = estimate
                row.latency_quantile = bucket_quantile(
                    sampler.buckets, merged, objective.latency_quantile,
                    lo=lo, hi=hi)
                row.worst_window_quantile = worst
            rows.append(row)
        return SloReport(tenants=rows, alerts=alerts)
