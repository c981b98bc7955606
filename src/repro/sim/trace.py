"""Lane timelines of simulated-time charges, and the fast-path gauges.

A :class:`TraceEvent` is one (start, duration, category) charge; the
serving engine collects them per tenant lane and :func:`render_lanes`
draws them as an ASCII timeline.  Charges recorded as spans, with
parents and attributes, come from
:class:`repro.obs.tracer.SpanTracer` (``repro trace``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class TraceEvent:
    """One simulated-time charge."""

    start: float
    duration: float
    category: str

    @property
    def end(self) -> float:
        return self.start + self.duration


def _time_axis(events: "List[TraceEvent]", width: int):
    """Shared axis scaling for the ASCII renderers.

    Returns ``(span_seconds, column)`` where ``column(t)`` maps a
    timestamp to a cell in ``[0, width - 1]``.  A trace whose events all
    occupy one instant (a single zero-duration event, or several at the
    same time) has a genuine zero span: everything maps to column 0 and
    the caller's header reports ``0.000 ms`` instead of the epsilon-
    inflated span the renderers used to fake.
    """
    t0 = min(e.start for e in events)
    t1 = max(e.end for e in events)
    span = t1 - t0
    if span <= 0.0:
        return 0.0, lambda t: 0
    scale = (width - 1) / span
    return span, lambda t: int((t - t0) * scale)


#: Glyphs for :func:`render_lanes`; unknown categories render as ``*``.
LANE_GLYPHS = {
    "host": ".",
    "gpu": "#",
    "ctx_switch": "x",
}


def render_lanes(lanes: "dict[str, List[TraceEvent]]",
                 width: int = 60) -> str:
    """ASCII timeline with one row per named lane (e.g. per tenant).

    Every lane mixes categories on one row — host work as ``.``, exclusive
    GPU-engine time as ``#``, context switches as ``x`` — so concurrent
    tenants' interleaving on the shared engine is visible at a glance.
    Later-drawn glyphs win inside a cell, with engine time drawn last so
    the serialized resource always shows through.
    """
    all_events = [e for events in lanes.values() for e in events]
    if not all_events:
        return "(empty lanes)"
    span, column = _time_axis(all_events, width)
    label_width = max(len(name) for name in lanes)
    lines = [f"lanes: {span * 1e3:.3f} ms "
             f"(host '.', gpu '#', ctx switch 'x')"]
    draw_order = {"host": 0, "ctx_switch": 1, "gpu": 2}
    for name, events in lanes.items():
        row = [" "] * width
        for event in sorted(events,
                            key=lambda e: draw_order.get(e.category, 0)):
            glyph = LANE_GLYPHS.get(event.category, "*")
            lo = column(event.start)
            hi = column(event.end)
            for index in range(lo, max(hi, lo) + 1):
                row[index] = glyph
        lines.append(f"{name:>{label_width}} |{''.join(row)}|")
    return "\n".join(lines)


#: The machine data-plane counters, as (name, getter) pairs — the one
#: source both the legacy :func:`fastpath_counters` accessor and the
#: registry gauges (``fastpath.*``) are built from.
FASTPATH_GAUGES = (
    ("tlb_hits", lambda m: m.mmu.tlb.hits),
    ("tlb_misses", lambda m: m.mmu.tlb.misses),
    ("mmu_range_pages", lambda m: m.mmu.range_pages),
    ("mmu_coalesced_runs", lambda m: m.mmu.coalesced_runs),
    ("iommu_coalesced_runs", lambda m: m.iommu.coalesced_runs),
    ("dma_bytes_read", lambda m: m.dma.bytes_read),
    ("dma_bytes_written", lambda m: m.dma.bytes_written),
    ("phys_zero_copy_bytes", lambda m: m.phys_mem.zero_copy_bytes),
    ("phys_pages_dropped", lambda m: m.phys_mem.pages_dropped),
)

#: Event-kernel counters surfaced alongside the machine fast path: the
#: registry counter name and the key it gets in the legacy dict.
ENGINE_COUNTERS = (
    ("engine.events_processed", "engine_events_processed"),
    ("engine.ctx_switches", "engine_ctx_switches"),
    ("engine.deadline_expiries", "engine_deadline_expiries"),
)


def register_fastpath_gauges(machine, registry=None) -> None:
    """Publish *machine*'s data-plane counters as ``fastpath.*`` gauges.

    Called by :class:`repro.system.Machine` on construction.  Names are
    fixed, so the registry always describes the most recently built
    machine — the sensible default for a process profiling one testbed.
    """
    from repro.obs import metrics as obs_metrics
    registry = registry if registry is not None else obs_metrics.registry()
    for name, getter in FASTPATH_GAUGES:
        registry.gauge_fn(f"fastpath.{name}",
                          (lambda m=machine, g=getter: g(m)))


def fastpath_counters(machine) -> "dict[str, int]":
    """Wall-clock fast-path statistics of a machine's data plane.

    These counters track how the *simulator* moved bytes (TLB service,
    run coalescing, zero-copy page drops, DMA volumes) — they have no
    effect on simulated time, and are surfaced so runs can confirm the
    fast path actually engaged (e.g. a TLB hit rate near 1.0 and a
    nonzero coalesce count on any steady-state workload).

    This is now a thin adapter over two registry-backed sources: the
    per-machine ``fastpath.*`` gauges (read directly off *machine* via
    the shared :data:`FASTPATH_GAUGES` spec) and the event kernel's
    process-wide counters (events processed, context switches charged,
    deadline expiries) from :func:`repro.obs.metrics.registry` — the
    kernel counters cover every :class:`~repro.sim.engine.EventClock`
    run in this process, since kernels are created per run, not per
    machine.
    """
    from repro.obs import metrics as obs_metrics
    counters = {name: getter(machine) for name, getter in FASTPATH_GAUGES}
    registry = obs_metrics.registry()
    for metric_name, key in ENGINE_COUNTERS:
        metric = registry.get(metric_name)
        counters[key] = int(metric.value) if metric is not None else 0
    return counters
