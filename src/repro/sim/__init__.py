"""Simulation kernel: virtual time, cost model, and pipeline math.

The HIX reproduction is a *functional* simulator — real bytes move through
the simulated PCIe fabric and real kernels execute on real (numpy) data —
but performance is reported in *simulated seconds* charged on a
:class:`~repro.sim.clock.SimClock` by a calibrated
:class:`~repro.sim.costs.CostModel`.  This mirrors the paper's prototype,
which emulated the new hardware in KVM/QEMU and measured the resulting
software stack.

Concurrency — multi-user contention, multi-tenant serving, fleet-scale
lite sessions — executes on the discrete-event kernel in
:mod:`repro.sim.engine` (:class:`~repro.sim.engine.EventClock`,
:class:`~repro.sim.engine.Resource`, and the
:class:`~repro.sim.engine.WorkUnit` lanes of
:func:`~repro.sim.engine.run_lanes`), whose primitives are re-exported
here.
"""

from repro.sim.clock import SimClock, TimeBreakdown
from repro.sim.costs import CostModel
from repro.sim.engine import (
    EventClock,
    LaneResult,
    Resource,
    TenantLane,
    Visit,
    WorkUnit,
    run_lanes,
)
from repro.sim.pipeline import pipelined_time, serial_time

__all__ = [
    "SimClock",
    "TimeBreakdown",
    "CostModel",
    "EventClock",
    "LaneResult",
    "Resource",
    "TenantLane",
    "Visit",
    "WorkUnit",
    "run_lanes",
    "pipelined_time",
    "serial_time",
]
