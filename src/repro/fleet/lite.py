"""Lite sessions: analytic cost charging without per-tenant crypto.

A full-crypto tenant is expensive to simulate — real attestation, key
exchange, AEAD seals on every request — which caps sweeps at hundreds
of tenants.  A :class:`LiteProfile` is the timing skeleton of such a
session: the exact sequence of :class:`~repro.sim.engine.WorkUnit`
charges it places on the virtual timeline, with no keys, channels, or
device state behind them.  Replaying the profile through a plain
kernel lane charges virtual time **bit-identically** to the full
session it was captured from (pinned by the charge-parity property in
``tests/property/test_prop_fleet.py``), at the cost of one generator
per lane instead of one enclave session — which is what lets fleet
sweeps scale to 10k–1M simulated users.

Two ways to build one:

* :meth:`LiteProfile.from_client` — replay a ledger captured from a
  full-crypto run (``ServeEngine(capture_units=True)``).  Exact.
* :meth:`LiteProfile.from_workload` — derive units from the analytic
  Figures 8/9 segment model; no machine needed at all.  This is the
  same model ``evalkit.fleet_sweep`` cross-checks fleet makespans
  against.

Profiles are immutable in practice and lanes share the unit list, so a
100k-session sweep holds one profile, not 100k copies.  For extreme
scales :meth:`coalesced` folds consecutive units into at most
``max_units`` buckets — total host and GPU seconds are preserved
exactly, interleaving granularity is traded for event count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.multiuser import segments_to_units
from repro.sim.costs import CostModel
from repro.sim.engine import TenantLane, WorkUnit
from repro.workloads.base import Workload


@dataclass
class LiteProfile:
    """A replayable unit ledger for lightweight sessions."""

    units: List[WorkUnit]
    label: str = "lite"

    @classmethod
    def from_client(cls, client, label: str = "") -> "LiteProfile":
        """Profile from a full-crypto client's captured unit ledger.

        *client* must have run under ``ServeEngine(capture_units=True)``
        — its ``captured_units`` is the exact charge sequence the
        session placed on the timeline (session setup, every serve,
        backoffs, teardown).  Replaying it charges identically.
        """
        if client.captured_units is None:
            raise ValueError(
                f"client {client.name!r} has no captured units; run its "
                "engine with capture_units=True first")
        return cls(units=list(client.captured_units),
                   label=label or f"lite:{client.name}")

    @classmethod
    def from_workload(cls, workload: Workload,
                      costs: Optional[CostModel] = None,
                      mode: str = "hix",
                      label: str = "") -> "LiteProfile":
        """Profile from the analytic segment model (no machine needed).

        Uses the same per-user host/gpu segment decomposition the
        Figures 8/9 multi-user model schedules — so a fleet of these
        profiles under FIFO is *the analytic model*, machine-sharded.
        """
        # Imported here: evalkit's package __init__ pulls in the serve
        # sweeps, and this module is imported by repro.fleet's own
        # __init__ — a module-level import would tie the two packages'
        # import orders together for no benefit.
        from repro.evalkit.harness import GDEV, HIX, user_segments
        costs = costs or CostModel()
        mode_name = {"hix": HIX, "gdev": GDEV}.get(mode, mode)
        segments = user_segments(workload, costs, mode_name)
        return cls(units=segments_to_units(segments),
                   label=label or f"lite:{workload.name}")

    # -- derived views ------------------------------------------------------

    def total_seconds(self) -> float:
        """Total virtual seconds the profile charges (host + gpu)."""
        return sum(unit.host_seconds + (unit.gpu_seconds or 0.0)
                   for unit in self.units)

    def gpu_seconds(self) -> float:
        return sum(unit.gpu_seconds or 0.0 for unit in self.units)

    def coalesced(self, max_units: int = 8) -> "LiteProfile":
        """Fold the ledger into at most *max_units* units.

        Consecutive units merge by summing host and GPU seconds (a
        merged unit is host-then-gpu, like any unit), so totals are
        preserved exactly while the kernel event count drops by the
        fold factor — the knob that makes 100k+-session sweeps cheap.
        Deadlines and idle flags do not survive folding; profiles that
        need them should replay uncoalesced.
        """
        if max_units < 1:
            raise ValueError("max_units must be >= 1")
        if len(self.units) <= max_units:
            return self
        folded: List[WorkUnit] = []
        per_bucket = -(-len(self.units) // max_units)  # ceil division
        for start in range(0, len(self.units), per_bucket):
            bucket = self.units[start:start + per_bucket]
            host = sum(unit.host_seconds for unit in bucket)
            gpu = sum(unit.gpu_seconds or 0.0 for unit in bucket)
            folded.append(WorkUnit(host, gpu if gpu > 0.0 else None,
                                   f"{self.label}[{len(folded)}]"))
        return LiteProfile(units=folded, label=self.label)

    def lane(self, name: str, weight: float = 1.0,
             max_inflight: int = 1,
             on_exhausted=None) -> TenantLane:
        """A kernel lane replaying this profile.

        Lanes share the profile's unit list (units are never mutated by
        the kernel), so a million lanes cost a million generators, not
        a million ledgers.
        """
        return TenantLane(units=self.units, weight=weight,
                          max_inflight=max_inflight, name=name,
                          on_exhausted=on_exhausted)
