"""Virtual-time windowed time-series over the metrics layer.

The registry (:mod:`repro.obs.metrics`) answers "how much, in total";
continuous operation needs "how much, *when*".  This module adds a
:class:`TimeSeriesSampler`: a ring of fixed-width virtual-time windows
per series, fed two ways —

* **direct observations** from instrumented sites (the serve engine
  records per-request latency and outcome marks at their virtual
  completion times), bucketed into the window ``int(time // width)``;
* **boundary samples** of registry counters, captured whenever the
  sampler's high-water mark crosses a window boundary, so cumulative
  counters become per-window deltas and rates.

Determinism is the load-bearing property.  The sampler drives off the
kernel clock's charge listener — a pure *observer* of virtual time.  It
never schedules kernel events (an extra event would consume a sequence
number and perturb same-time tie-breaks), never advances any clock, and
its bookkeeping is insertion-ordered dicts keyed by window index, so a
telemetry-enabled run is bit-identical in simulated time and reports to
a disabled one (pinned by ``tests/property/test_prop_telemetry.py``).

Windows are sparse: only touched windows allocate.  Each observed
window is a registry :class:`~repro.obs.metrics.Histogram` over the
sampler's buckets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    CallbackGauge,
    Counter,
    Histogram,
    MetricsRegistry,
)

__all__ = ["TimeSeriesSampler"]


class TimeSeriesSampler:
    """Fixed-width virtual-time windows per series.

    Attach to any clock exposing ``add_listener(fn)`` with the charge
    signature ``(start, seconds, category)`` — both the event kernel
    (:class:`~repro.sim.engine.EventClock`) and the machine
    :class:`~repro.sim.clock.SimClock` qualify.  Listening is the ONLY
    coupling to the run: the sampler never mutates simulated time.
    """

    def __init__(self, width: float = 1e-3,
                 registry: Optional[MetricsRegistry] = None,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        if width <= 0.0:
            raise ValueError("window width must be positive")
        self.width = width
        self.registry = registry
        self.buckets = tuple(buckets)
        self._marks: Dict[str, Dict[int, float]] = {}
        self._observed: Dict[str, Dict[int, Histogram]] = {}
        #: boundary index -> {counter name: cumulative value}; boundary
        #: *k* is the instant ``k * width``, closing window ``k - 1``.
        self._samples: Dict[int, Dict[str, float]] = {}
        self._hwm = 0.0
        self._next_boundary = width
        self._attached: List[object] = []

    # -- clock coupling ------------------------------------------------------

    def attach(self, clock) -> "TimeSeriesSampler":
        """Start observing *clock*'s charges (baseline-samples counters
        at the current high-water mark first).  Idempotent per clock —
        fleet machines sharing one kernel attach the same sampler once.
        """
        if any(attached is clock for attached in self._attached):
            return self
        if self.registry is not None and not self._samples:
            self._capture(int(round(self._next_boundary / self.width)) - 1)
        clock.add_listener(self._on_charge)
        self._attached.append(clock)
        return self

    def detach(self) -> None:
        for clock in self._attached:
            clock.remove_listener(self._on_charge)
        self._attached.clear()

    def _on_charge(self, start: float, seconds: float,
                   category: str) -> None:
        end = start + seconds
        if end > self._hwm:
            self._advance(end)

    def _advance(self, time: float) -> None:
        while time >= self._next_boundary:
            index = int(round(self._next_boundary / self.width))
            if self.registry is not None:
                self._capture(index)
            self._next_boundary += self.width
        self._hwm = time

    def _capture(self, boundary_index: int) -> None:
        # Callback gauges are sampled too: the machine publishes its
        # monotonic data-plane counters (``fastpath.*``) that way, and
        # reading them at a boundary is as pure as reading a Counter.
        self._samples[boundary_index] = {
            name: metric.value
            for name, metric in self.registry._metrics.items()
            if isinstance(metric, (Counter, CallbackGauge))}

    def finalize(self, end_time: Optional[float] = None) -> None:
        """Close the trailing partial window (captures a final counter
        sample so the last window's rates are reported)."""
        time = self._hwm if end_time is None else max(end_time, self._hwm)
        index = int(time // self.width) + 1
        self._advance(index * self.width)

    # -- recording -----------------------------------------------------------

    def window_of(self, time: float) -> int:
        return int(time // self.width)

    def window_start(self, index: int) -> float:
        return index * self.width

    def mark(self, name: str, time: float, amount: float = 1.0) -> None:
        """Count one (or *amount*) occurrence of *name* at *time*."""
        windows = self._marks.get(name)
        if windows is None:
            windows = self._marks[name] = {}
        index = int(time // self.width)
        windows[index] = windows.get(index, 0.0) + amount

    def observe(self, name: str, time: float, value: float) -> None:
        """Record one *value* observation for *name* at *time*."""
        windows = self._observed.get(name)
        if windows is None:
            windows = self._observed[name] = {}
        index = int(time // self.width)
        histogram = windows.get(index)
        if histogram is None:
            histogram = windows[index] = Histogram(name, self.buckets)
        histogram.observe(value)

    # -- reading -------------------------------------------------------------

    def names(self) -> List[str]:
        counters = ({name for sample in self._samples.values()
                     for name in sample} if self._samples else set())
        return sorted(set(self._marks) | set(self._observed) | counters)

    def span(self) -> Tuple[int, int]:
        """``(first, last)`` touched window indices (inclusive); the
        high-water mark closes the range even when nothing recorded."""
        indices = [index for windows in self._marks.values()
                   for index in windows]
        indices.extend(index for windows in self._observed.values()
                       for index in windows)
        indices.extend(index - 1 for index in self._samples if index > 0)
        if not indices:
            return (0, max(0, int(self._hwm // self.width)))
        return (min(indices), max(max(indices),
                                  int(self._hwm // self.width)))

    def mark_count(self, name: str, index: int) -> float:
        return self._marks.get(name, {}).get(index, 0.0)

    def mark_series(self, name: str) -> List[Tuple[float, float]]:
        windows = self._marks.get(name, {})
        return [(self.window_start(index), windows[index])
                for index in sorted(windows)]

    def rate_series(self, name: str) -> List[Tuple[float, float]]:
        """Per-window occurrence rate (marks per simulated second)."""
        return [(start, count / self.width)
                for start, count in self.mark_series(name)]

    def accum(self, name: str, index: int) -> Optional[Histogram]:
        return self._observed.get(name, {}).get(index)

    def quantile(self, name: str, index: int, q: float) -> Optional[float]:
        histogram = self.accum(name, index)
        return None if histogram is None else histogram.quantile(q)

    def quantile_series(self, name: str, q: float
                        ) -> List[Tuple[float, float]]:
        windows = self._observed.get(name, {})
        series = []
        for index in sorted(windows):
            estimate = windows[index].quantile(q)
            if estimate is not None:
                series.append((self.window_start(index), estimate))
        return series

    def counter_series(self, name: str) -> List[Tuple[float, float]]:
        """Per-window delta of a boundary-sampled registry counter."""
        boundaries = sorted(self._samples)
        series = []
        for prev, cur in zip(boundaries, boundaries[1:]):
            before = self._samples[prev].get(name)
            after = self._samples[cur].get(name)
            if after is None:
                continue
            delta = after - (before if before is not None else 0.0)
            series.append((self.window_start(cur - 1), delta))
        return series

    def counter_rate_series(self, name: str) -> List[Tuple[float, float]]:
        return [(start, delta / self.width)
                for start, delta in self.counter_series(name)]

    # -- export --------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dump: every series, window-start keyed."""
        observed = {}
        for name, windows in sorted(self._observed.items()):
            observed[name] = [{
                "t": self.window_start(index),
                "count": accum.count,
                "sum": accum.sum,
                "min": accum.min,
                "max": accum.max,
                "p50": accum.quantile(0.50),
                "p99": accum.quantile(0.99),
            } for index, accum in sorted(windows.items())]
        return {
            "width": self.width,
            "marks": {name: [{"t": t, "count": c}
                             for t, c in self.mark_series(name)]
                      for name in sorted(self._marks)},
            "observed": observed,
            "counters": {name: [{"t": t, "delta": d}
                                for t, d in self.counter_series(name)]
                         for name in self.names()
                         if self.counter_series(name)},
        }
