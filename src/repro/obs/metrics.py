"""The metrics registry: named counters, gauges, and histograms.

One process-wide :class:`MetricsRegistry` subsumes the counters that
used to live scattered across subsystems — the machine fast-path
counters (``repro.sim.trace.fastpath_counters``), the serving layer's
queue and tenant accounting, and the event kernel's own statistics —
behind one ``snapshot()`` API.  The legacy accessors remain as thin
adapters over the same underlying sources.

Design points:

* **Always on, near-zero cost.**  A :class:`Counter` increment is one
  attribute add on a ``__slots__`` object; hot loops batch into a local
  and flush once (see :meth:`repro.sim.engine.EventClock.run`).
* **Callback gauges** let existing plain-int counters (MMU TLB hits,
  DMA byte counts) surface in the registry without moving them: the
  owner registers ``gauge_fn(name, getter)`` and the snapshot calls the
  getter.  Re-registering a name replaces the callback, so the gauges
  always describe the most recently built machine.
* **Explicit-bucket histograms** for latencies: fixed upper bounds, a
  count per bucket plus sum/count/min/max — enough to export and to
  assert distribution shape in tests without quantile estimation.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Dict, Optional, Sequence, Tuple

__all__ = [
    "Counter", "Gauge", "CallbackGauge", "Histogram", "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS", "bucket_quantile",
    "registry", "set_registry", "reset_registry",
]

#: Explicit upper bounds (seconds) for latency histograms: 1 µs .. 10 s.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self):
        return self.value


class Gauge:
    """Last-set value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self):
        return self.value


class CallbackGauge:
    """Gauge whose value is read from a callable at snapshot time."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], float]) -> None:
        self.name = name
        self.fn = fn

    @property
    def value(self):
        return self.fn()

    def snapshot(self):
        return self.fn()


def bucket_quantile(bounds: Sequence[float], counts: Sequence[int],
                    q: float, lo: Optional[float] = None,
                    hi: Optional[float] = None) -> Optional[float]:
    """Estimate the *q*-quantile of a bucketed distribution.

    Inverted-CDF with linear interpolation inside the bucket that holds
    the target rank: the estimate always lands inside that bucket, so
    the error is bounded by its width.  ``lo``/``hi`` are the observed
    min/max (when known): they clamp the estimate and replace the open
    edges — the lower edge of the first bucket and the upper edge of
    the overflow bucket — which would otherwise have to be guessed.
    Returns ``None`` for an empty distribution.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    total = sum(counts)
    if total == 0:
        return None
    # Rank of the target observation under the inverted CDF: the
    # smallest x with CDF(x) >= q, i.e. the ceil(q*n)-th observation
    # (1-based), clamped to at least the first.
    rank = max(1, math.ceil(q * total))
    floor = lo if lo is not None else 0.0
    cumulative = 0
    for index, count in enumerate(counts):
        if count == 0:
            cumulative += count
            continue
        if cumulative + count >= rank:
            lower = bounds[index - 1] if index > 0 else floor
            if index < len(bounds):
                upper = bounds[index]
            else:  # overflow bucket: closed only by the observed max
                upper = hi if hi is not None else bounds[-1]
            lower = max(lower, floor)
            upper = max(upper, lower)
            fraction = (rank - cumulative) / count
            estimate = lower + fraction * (upper - lower)
            if lo is not None:
                estimate = max(estimate, lo)
            if hi is not None:
                estimate = min(estimate, hi)
            return estimate
        cumulative += count
    return hi  # unreachable while sum(counts) == total


class Histogram:
    """Explicit-bucket histogram (cumulative counts at export time).

    ``buckets`` are strictly-increasing upper bounds; observations above
    the last bound land in the implicit overflow bucket.
    """

    __slots__ = ("name", "buckets", "counts", "sum", "count", "min", "max")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be strictly increasing "
                             f"and non-empty, got {bounds!r}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # + overflow
        self.sum = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """File *value* under the first bound >= it; NaN, which no bound
        is >=, goes to the overflow bucket."""
        if value != value:  # NaN
            index = len(self.buckets)
        else:
            index = bisect_left(self.buckets, value)
        self.counts[index] += 1
        self.sum += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-interpolated *q*-quantile (see :func:`bucket_quantile`),
        clamped to the observed ``[min, max]``."""
        return bucket_quantile(self.buckets, self.counts, q,
                               lo=self.min, hi=self.max)

    def snapshot(self) -> Dict[str, object]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Name-keyed registry of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, kind, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        return self._get_or_create(name, Histogram,
                                   lambda: Histogram(name, buckets))

    def gauge_fn(self, name: str, fn: Callable[[], float]) -> CallbackGauge:
        """Register (or replace) a callback gauge under *name*."""
        gauge = CallbackGauge(name, fn)
        self._metrics[name] = gauge
        return gauge

    def get(self, name: str):
        return self._metrics.get(name)

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """One flat dict: metric name -> value (histograms -> sub-dict)."""
        return {name: metric.snapshot()
                for name, metric in sorted(self._metrics.items())}

    def render(self) -> str:
        """Flat text form, one metric per line."""
        lines = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):  # histogram
                lines.append(
                    f"{name} count={value['count']} sum={value['sum']:.9g} "
                    f"min={value['min']} max={value['max']}")
                for bound, count in zip(value["buckets"], value["counts"]):
                    if count:
                        lines.append(f"{name}{{le={bound:g}}} {count}")
                overflow = value["counts"][-1]
                if overflow:
                    lines.append(f"{name}{{le=+inf}} {overflow}")
            elif isinstance(value, float):
                lines.append(f"{name} {value:.9g}")
            else:
                lines.append(f"{name} {value}")
        return "\n".join(lines) if lines else "(no metrics registered)"


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The active process-wide registry."""
    return _REGISTRY


def set_registry(new: MetricsRegistry) -> MetricsRegistry:
    """Swap the active registry; returns the previous one (for tests)."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = new
    return previous


def reset_registry() -> MetricsRegistry:
    """Install a fresh empty registry; returns it."""
    new = MetricsRegistry()
    set_registry(new)
    return new
