"""Concurrent multi-user execution model (paper Section 4.5, Figures 8-9).

Pre-Volta GPUs execute one context at a time; when several user enclaves
share the GPU, their command streams interleave through context
switches, and under HIX every data transfer adds in-GPU cryptography
kernels to the stream — "the overheads from the cryptography kernel
execution itself, increased context switches, and resource
underutilization for small data cryptography" (Section 5.4).

The model is a small discrete-event simulation: each user is a sequence
of :class:`Segment`\\ s — ``host`` work (CPU/crypto/transfer prep that
overlaps freely across users) and ``gpu`` work (serialized on the single
GPU engine, FIFO-arbitrated, paying a context-switch cost whenever the
engine changes owner).  The evaluation harness converts a workload's
phase profile into segments via the cost model and reads off makespans.

Since the timing-layer unification this module is a thin adapter over
the shared discrete-event kernel (:mod:`repro.sim.engine`): each user
becomes a kernel lane of single-segment work units and the GPU is the
kernel's exclusive :class:`~repro.sim.engine.Resource`.  The pre-kernel
heapq implementation lives on as the reference oracle in
``tests/property/oracles.py``, and the property suite pins this adapter
to it exactly — makespan, per-user timelines, and stats — on arbitrary
tie-heavy inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.sim.engine import LaneTimeline, TenantLane, WorkUnit, run_lanes


@dataclass(frozen=True)
class Segment:
    """One phase of a user's execution."""

    kind: str        # "host" or "gpu"
    duration: float  # seconds
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("host", "gpu"):
            raise ValueError(f"segment kind must be host|gpu, got {self.kind!r}")
        if self.duration < 0:
            raise ValueError("segment duration must be non-negative")


def segments_to_units(segments: Sequence[Segment]) -> List[WorkUnit]:
    """One work unit per segment (no merging, exact ordering)."""
    return [WorkUnit(segment.duration, None, segment.label)
            if segment.kind == "host"
            else WorkUnit(0.0, segment.duration, segment.label)
            for segment in segments]


def simulate_concurrent(users: Sequence[Sequence[Segment]],
                        ctx_switch_cost: float, scheduler=None,
                        ) -> Tuple[float, List[LaneTimeline],
                                   Dict[str, float]]:
    """Simulate *users* sharing one GPU; returns (makespan, per-user, stats).

    Host segments of different users overlap fully (each user has a CPU
    core — the testbed is 4C/8T for at most 4 users).  GPU segments
    queue FIFO on the engine, or in the order a serving-layer
    *scheduler* picks; a context switch is charged whenever the
    engine's resident context changes (including the first occupancy of
    a previously-used engine, matching Fermi's save/restore behaviour
    between non-empty contexts).

    Executes on the shared kernel (:func:`repro.sim.engine.run_lanes`);
    native FIFO and ``FifoScheduler`` are both pinned exactly — ties
    included — to the retired heapq oracle by the property suite.
    """
    lanes = [TenantLane(units=segments_to_units(segments), max_inflight=1)
             for segments in users]
    result = run_lanes(lanes, scheduler, ctx_switch_cost)
    timelines = result.timelines
    stats = {
        "context_switches": float(result.context_switches),
        "gpu_utilization": (sum(t.gpu_busy for t in timelines)
                            / result.makespan if result.makespan > 0 else 0.0),
    }
    return result.makespan, timelines, stats
