"""Pluggable GPU-engine schedulers for the serving layer.

A scheduler arbitrates the one exclusive resource in the system — the
GPU execution engine — among the ready queue heads of the admitted
tenants.  It sees only :class:`~repro.sim.engine.Visit` objects and
the current engine owner, so the same scheduler drives both the pure
virtual-time cross-checks
(:func:`~repro.core.multiuser.simulate_concurrent` with a scheduler)
and the real sealed-request serving engine.

Three policies ship with the reproduction:

* ``fifo`` — global arrival order; identical to the shared kernel's
  native arbitration, and therefore exactly equal to the paper's
  analytic multi-user model
  (:func:`repro.core.multiuser.simulate_concurrent`) on all inputs,
  simultaneous-event ties included.
* ``round-robin`` — rotate ownership across tenants regardless of how
  much engine time each visit consumes.
* ``fair`` — deficit-weighted round robin (DRR): tenants accumulate
  engine-time credit each round in proportion to their quota weight and
  a visit is served once its tenant's credit covers it.  Because the
  virtual timeline charges ``costs.gpu_context_switch`` on every owner
  change, DRR's extra rotation shows up honestly in the makespan.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence

from repro.sim.engine import Visit

# Rotation modulus for round-robin distance; tenant ids are small table
# indices, so any bound far above the tenant count works.
_WRAP = 1 << 30


class Scheduler(ABC):
    """Arbitrates ready GPU visits; stateful across ``select`` calls."""

    name = "scheduler"

    @abstractmethod
    def select(self, candidates: Sequence[Visit], resident: Optional[int],
               now: float) -> Visit:
        """Pick one of *candidates* (never empty) to own the engine next.

        *resident* is the tenant currently resident on the engine (None
        before first occupancy); choosing a different tenant costs a
        context switch.  *now* is the virtual dispatch time.
        """

    def reset(self) -> None:
        """Forget rotation/credit state (called between runs)."""


class FifoScheduler(Scheduler):
    """Global arrival order — the analytic model's implicit policy."""

    name = "fifo"

    def select(self, candidates: Sequence[Visit], resident: Optional[int],
               now: float) -> Visit:
        return min(candidates, key=lambda v: (v.ready, v.seq))


def _rotation_key(tenant: int, last: Optional[int]) -> int:
    """Distance from the last-served tenant, so ownership rotates."""
    if last is None:
        return tenant
    return (tenant - last - 1) % _WRAP


class RoundRobinScheduler(Scheduler):
    """Rotate engine ownership across tenants, one visit per turn."""

    name = "round-robin"

    def __init__(self) -> None:
        self._last: Optional[int] = None

    def select(self, candidates: Sequence[Visit], resident: Optional[int],
               now: float) -> Visit:
        visit = min(candidates,
                    key=lambda v: (_rotation_key(v.tenant, self._last), v.seq))
        self._last = visit.tenant
        return visit

    def reset(self) -> None:
        self._last = None


class DeficitFairScheduler(Scheduler):
    """Deficit-weighted round robin over GPU-engine seconds.

    Classic DRR adapted to a continuous resource: each round, every
    backlogged tenant's credit grows by ``quantum * weight``; the first
    tenant in rotation order whose credit covers its head visit is
    served and pays the visit's engine seconds from its credit.  Credit
    of tenants with nothing pending is dropped (a tenant cannot bank
    idle time), which is what makes the policy fair rather than merely
    proportional.

    On single-visit-per-tenant inputs every work-conserving policy —
    this one included — reproduces ``simulate_concurrent`` exactly
    (busy periods of a work-conserving server are order-invariant); on
    workload-shaped multi-visit inputs DRR's reordering perturbs the
    makespan by well under a percent, which is the tolerance the
    cross-check suite pins down.
    """

    name = "fair"

    def __init__(self, quantum: float) -> None:
        if quantum <= 0.0:
            raise ValueError(f"DRR quantum must be positive, got {quantum!r}")
        self.quantum = quantum
        self._deficit: Dict[int, float] = {}
        self._last: Optional[int] = None

    def select(self, candidates: Sequence[Visit], resident: Optional[int],
               now: float) -> Visit:
        order: List[Visit] = sorted(
            candidates,
            key=lambda v: (_rotation_key(v.tenant, self._last), v.seq))
        backlogged = {v.tenant for v in candidates}
        self._deficit = {tenant: credit for tenant, credit
                         in self._deficit.items() if tenant in backlogged}
        while True:
            for visit in order:
                credit = (self._deficit.get(visit.tenant, 0.0)
                          + self.quantum * visit.weight)
                if credit + 1e-12 >= visit.gpu_seconds:
                    self._deficit[visit.tenant] = max(
                        credit - visit.gpu_seconds, 0.0)
                    self._last = visit.tenant
                    return visit
                self._deficit[visit.tenant] = credit

    def reset(self) -> None:
        self._deficit.clear()
        self._last = None


def make_scheduler(name: str, costs=None) -> Scheduler:
    """Build a scheduler by policy name (``fifo``/``round-robin``/``fair``).

    The fair scheduler's quantum comes from ``costs.serve_fair_quantum``
    when a cost model is given, so CLI/evalkit runs stay consistent with
    the machine's calibration.
    """
    key = name.strip().lower().replace("_", "-")
    if key == "fifo":
        return FifoScheduler()
    if key in ("rr", "round-robin", "roundrobin"):
        return RoundRobinScheduler()
    if key in ("fair", "drr", "deficit"):
        if costs is not None:
            return DeficitFairScheduler(costs.serve_fair_quantum)
        from repro.sim.costs import CostModel
        return DeficitFairScheduler(CostModel().serve_fair_quantum)
    raise ValueError(f"unknown scheduler {name!r} "
                     "(expected fifo, round-robin, or fair)")


SCHEDULER_NAMES = ("fifo", "round-robin", "fair")
