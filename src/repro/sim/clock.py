"""Simulated clock with per-category time accounting.

Every timed operation in the machine (PCIe transfer, AES pass, kernel
execution, enclave transition, ...) charges simulated seconds to the
machine's :class:`SimClock`, tagged with a category string.  The
evaluation harness reads both the total elapsed time and the breakdown —
the breakdown is what lets the figure generators decompose execution the
way the paper's Figure 6/7 bars do (init / copy / crypto / compute).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List


@dataclass
class TimeBreakdown:
    """Immutable snapshot of per-category simulated time."""

    total: float
    by_category: Dict[str, float]

    def __sub__(self, earlier: "TimeBreakdown") -> "TimeBreakdown":
        cats: Dict[str, float] = dict(earlier.by_category)
        merged = {
            key: self.by_category.get(key, 0.0) - cats.get(key, 0.0)
            for key in set(self.by_category) | set(cats)
        }
        merged = {key: value for key, value in merged.items() if value != 0.0}
        return TimeBreakdown(self.total - earlier.total, merged)


class SimClock:
    """Monotonic simulated clock with category accounting.

    The clock is a plain accumulator: ``advance(dt, category)`` moves
    simulated time forward.  Concurrency (e.g. multi-user GPU sharing) is
    handled by the discrete-event kernel in :mod:`repro.sim.engine`,
    which computes makespans from per-operation durations rather than by
    advancing a shared clock from multiple actors; the kernel's
    :class:`~repro.sim.engine.EventClock` exposes this class's listener
    surface, so trace consumers work against either clock.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._by_category: Dict[str, float] = defaultdict(float)
        self._listeners: List = []
        self._suppressed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def add_listener(self, listener) -> None:
        """Register ``listener(start, seconds, category)`` for every charge.

        Used by :class:`~repro.obs.tracer.SpanTracer` to record charges
        as leaf spans without instrumenting every call site.
        """
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        self._listeners.remove(listener)

    def advance(self, seconds: float, category: str = "other") -> float:
        """Charge *seconds* of simulated time to *category*.

        Returns the new simulated time.  Negative charges are rejected —
        simulated time is monotonic.
        """
        if seconds < 0.0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        if self._suppressed:
            return self._now
        start = self._now
        self._now += seconds
        self._by_category[category] += seconds
        for listener in self._listeners:
            listener(start, seconds, category)
        return self._now

    @contextmanager
    def suppressed(self):
        """Discard every charge made inside the ``with`` block.

        Used by the serving fast path to *functionally* replay deferred
        (memoized) requests: the real bytes still move through the
        sealed protocol, but their virtual time was already charged from
        the memo, so the replay must not advance the clock again.
        """
        self._suppressed += 1
        try:
            yield self
        finally:
            self._suppressed -= 1

    def snapshot(self) -> TimeBreakdown:
        """Return an immutable snapshot of the accounting so far."""
        return TimeBreakdown(self._now, dict(self._by_category))

    def elapsed_since(self, snap: TimeBreakdown) -> TimeBreakdown:
        """Return the time charged since *snap* was taken."""
        return self.snapshot() - snap
