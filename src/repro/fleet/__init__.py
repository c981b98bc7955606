"""Cluster-scale multi-GPU serving behind a fleet router (repro.fleet).

The serving layer drives N tenants through one GPU enclave; this tier
drives M such machines behind a placement router, on one shared event
clock:

* :mod:`~repro.fleet.router` — session admission + pluggable placement
  (least-loaded, quota-pressure, memory-fit, weighted-hash) with
  per-machine health, and structured rejections carrying queue-drain
  ``retry_after`` hints;
* :mod:`~repro.fleet.lite` — lightweight sessions charging analytic
  costs with no per-tenant crypto state (10k–1M-user sweeps);
* :mod:`~repro.fleet.fleet` — the :class:`Fleet` itself: shared-kernel
  multi-machine runs, drain-based session migration with full
  re-establishment on the target, merged fleet reports.
"""

from repro.fleet.fleet import (
    Fleet,
    FleetMachine,
    FleetReport,
    MigrationPlan,
    MigrationRecord,
)
from repro.fleet.lite import LiteProfile
from repro.fleet.router import (
    POLICY_NAMES,
    MachineStatus,
    Router,
    SessionSpec,
    make_policy,
)

__all__ = [
    "Fleet",
    "FleetMachine",
    "FleetReport",
    "MigrationPlan",
    "MigrationRecord",
    "LiteProfile",
    "POLICY_NAMES",
    "MachineStatus",
    "Router",
    "SessionSpec",
    "make_policy",
]
