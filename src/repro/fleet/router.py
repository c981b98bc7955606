"""The fleet's front door: pluggable session placement with health.

A :class:`Router` decides which simulated machine a new session lands
on.  Placement is synchronous policy — no kernel events are consumed —
so a 1-machine fleet stays bit-identical to a bare engine run: the
router's only trace is *where* sessions went, never *when*.

Policies see immutable :class:`MachineStatus` snapshots and return one
of them (or ``None`` when nothing fits, which the router turns into a
structured :class:`~repro.errors.PlacementError`).  Every policy breaks
ties by machine index, so placement is deterministic for a given fleet
state — seeded reproducibility holds across the whole tier.

Rejections carry a ``retry_after`` hint derived from the fleet's
queue-drain estimates (the minimum over machines of how long their
current backlog needs to drain at the observed per-request service
rate), not just per-machine breaker cooldowns — a caller that backs
off by the hint resubmits when *some* machine is plausibly open.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

from repro.errors import PlacementError
from repro.serve.resilience import KIND_CIRCUIT_OPEN, KIND_QUOTA


@dataclass
class SessionSpec:
    """What the router knows about a session before placing it."""

    name: str
    #: Estimated total service seconds (0.0 = unknown); feeds the
    #: least-loaded policy and the machine's pending-work accounting.
    est_seconds: float = 0.0
    #: Peak device-memory footprint the session will charge, in real
    #: (post-inflation) bytes; feeds the memory-fit policy.
    memory_bytes: int = 0
    weight: float = 1.0
    #: Lite sessions charge analytic costs without crypto state and do
    #: not consume a session-table slot, so capacity checks skip them.
    lite: bool = False


@dataclass
class MachineStatus:
    """One machine's placement-relevant state, snapshotted."""

    index: int
    name: str
    sessions: int            # full-crypto sessions admitted
    capacity: int            # session-table cap (max_tenants)
    lite_sessions: int = 0
    pending_seconds: float = 0.0   # estimated unserved work
    drain_seconds: float = 0.0     # backlog / observed service rate
    memory_committed: int = 0      # reserved + in-use device bytes
    memory_budget: int = 0         # machine VRAM (real bytes)
    backend: str = "hix"           # TEE backend (repro.backends)
    weight: float = 1.0
    draining: bool = False
    healthy: bool = True

    @property
    def memory_free(self) -> int:
        return max(self.memory_budget - self.memory_committed, 0)


class LeastLoadedPolicy:
    """Least estimated pending work; session count breaks ties."""

    name = "least-loaded"

    def select(self, spec: SessionSpec,
               candidates: Sequence[MachineStatus]
               ) -> Optional[MachineStatus]:
        return min(candidates,
                   key=lambda m: (m.pending_seconds,
                                  m.sessions + m.lite_sessions, m.index))


class QuotaPressurePolicy:
    """Lowest session-table occupancy fraction (quota headroom)."""

    name = "quota-pressure"

    def select(self, spec: SessionSpec,
               candidates: Sequence[MachineStatus]
               ) -> Optional[MachineStatus]:
        def pressure(m: MachineStatus):
            used = (m.sessions / m.capacity) if m.capacity else 1.0
            return (used, m.pending_seconds, m.index)
        return min(candidates, key=pressure)


class MemoryFitPolicy:
    """Best fit by free device memory: tightest slot that still fits."""

    name = "memory-fit"

    def select(self, spec: SessionSpec,
               candidates: Sequence[MachineStatus]
               ) -> Optional[MachineStatus]:
        fits = [m for m in candidates
                if m.memory_free >= spec.memory_bytes]
        if not fits:
            return None
        return min(fits, key=lambda m: (m.memory_free - spec.memory_bytes,
                                        m.index))


class WeightedHashPolicy:
    """Weighted rendezvous hashing: sticky, deterministic, spreadable.

    Each (session, machine) pair hashes to a uniform draw; the machine
    with the highest ``weight``-scaled draw wins.  A session name maps
    to the same machine for any fleet containing it — the stateless
    affinity a fleet front door wants — while weights shift the share
    of the keyspace each machine owns.  ``zlib.crc32`` keeps the draw
    independent of ``PYTHONHASHSEED``.
    """

    name = "weighted-hash"

    def select(self, spec: SessionSpec,
               candidates: Sequence[MachineStatus]
               ) -> Optional[MachineStatus]:
        def score(m: MachineStatus):
            draw = zlib.crc32(f"{spec.name}|{m.name}".encode("utf-8"))
            unit = (draw + 1) / (0xFFFFFFFF + 2)  # (0, 1) exclusive
            return (-(m.weight / -math.log(unit)), m.index)
        return min(candidates, key=score)


POLICIES = {
    policy.name: policy
    for policy in (LeastLoadedPolicy, QuotaPressurePolicy,
                   MemoryFitPolicy, WeightedHashPolicy)
}
POLICY_NAMES = tuple(sorted(POLICIES))


def make_policy(name: str):
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown placement policy {name!r}; "
            f"choose from {', '.join(POLICY_NAMES)}") from None


class Router:
    """Admission + placement over a fleet's machine statuses."""

    def __init__(self, policy: Union[str, object] = "least-loaded") -> None:
        if isinstance(policy, str):
            policy = make_policy(policy)
        self.policy = policy
        #: The decision ledger: each admitted session's machine index.
        self.placements: Dict[str, int] = {}

    @property
    def policy_name(self) -> str:
        return getattr(self.policy, "name", type(self.policy).__name__)

    @staticmethod
    def retry_after(statuses: Sequence[MachineStatus]) -> float:
        """Queue-drain hint: when the least-backlogged machine opens up."""
        drains = [m.drain_seconds for m in statuses]
        return min(drains) if drains else 0.0

    def place(self, spec: SessionSpec,
              statuses: Sequence[MachineStatus]) -> int:
        """Pick a machine index for *spec*, or raise PlacementError."""
        if spec.name in self.placements:
            raise PlacementError(
                f"session {spec.name!r} already placed on machine "
                f"{self.placements[spec.name]}")
        eligible = [m for m in statuses
                    if m.healthy and not m.draining]
        if not eligible:
            raise PlacementError(
                "no healthy machine available "
                f"({len(statuses)} draining/unhealthy)",
                retry_after=self.retry_after(statuses),
                error_kind=KIND_CIRCUIT_OPEN)
        if not spec.lite:
            eligible = [m for m in eligible if m.sessions < m.capacity]
            if not eligible:
                raise PlacementError(
                    f"every machine at its session capacity; "
                    f"cannot place {spec.name!r}",
                    retry_after=self.retry_after(statuses),
                    error_kind=KIND_QUOTA)
        chosen = self.policy.select(spec, eligible)
        if chosen is None:
            raise PlacementError(
                f"no machine fits {spec.name!r} "
                f"({spec.memory_bytes} bytes device memory)",
                retry_after=self.retry_after(statuses),
                error_kind=KIND_QUOTA)
        self.placements[spec.name] = chosen.index
        return chosen.index

    def forget(self, name: str) -> None:
        """Drop a placement (session ended or migrated away)."""
        self.placements.pop(name, None)

    def machine_of(self, name: str) -> Optional[int]:
        return self.placements.get(name)
