"""FaultInjector: schedule fault scripts onto a fleet run's clock.

Every campaign runs on a :class:`~repro.fleet.Fleet`, whose machines'
engines share one :class:`~repro.sim.engine.EventClock`.  The injector
builds that kernel, and for each machine, in index order, books the
machine's point faults (``fault.machine``) as kernel events at their
virtual fire times and wires its window faults (storms, starvation)
into an :class:`~repro.chaos.faults.AdversarialArbitration` wrapper
around that machine's scheduler; then it hands the kernel to the
fleet's run.  With an empty fault list nothing is scheduled and no
wrapper is installed — the chaos layer is then bit-for-bit invisible
(pinned by ``tests/property/test_prop_chaos_noop.py``).

Fault firings are observable: each increments ``chaos.faults_injected``
and ``chaos.fault.<kind>`` in the metrics registry, appends a
``chaos.injected`` ground-truth record to the security audit log (the
reference the detection verdict measures latency against — never
evidence of detection itself), and, when the span tracer is active,
drops a zero-duration ``chaos.<kind>`` marker event at the fire time so
exported traces show exactly when the world broke.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.chaos.faults import (
    AdversarialArbitration,
    ChaosContext,
    Fault,
    SchedulerStormFault,
    StarvationFault,
)
from repro.obs import metrics as obs_metrics
from repro.obs.audit import audit_log
from repro.obs.tracer import STATE as _OBS
from repro.sim.engine import EventClock


class FaultInjector:
    """Compose a fault script with one fleet run."""

    def __init__(self, faults: Sequence[Fault] = ()) -> None:
        self.faults: List[Fault] = list(faults)

    def _on(self, machine: int) -> List[Fault]:
        return [fault for fault in self.faults if fault.machine == machine]

    def attach(self, engine, kernel: Optional[EventClock] = None,
               machine: int = 0) -> EventClock:
        """Schedule *machine*'s faults, applied to *engine*, on *kernel*.

        Builds a fresh :class:`EventClock` unless *kernel* is given;
        :meth:`run` passes one shared clock for every machine.
        """
        if kernel is None:
            kernel = EventClock()
        faults = self._on(machine)
        ctx = ChaosContext(engine)
        lane_of = {client.name: index
                   for index, client in enumerate(engine.clients)}

        window_faults = [fault for fault in faults
                         if isinstance(fault, (SchedulerStormFault,
                                               StarvationFault))]
        if window_faults:
            # Installed once; left in place for the whole run.  The
            # wrapper delegates verbatim outside its windows.
            arbitration = AdversarialArbitration(engine.scheduler)
            for fault in window_faults:
                if isinstance(fault, SchedulerStormFault):
                    arbitration.add_storm(fault.at, fault.duration)
                else:
                    arbitration.add_starvation(
                        fault.at, fault.duration, lane_of[fault.tenant])
            engine.scheduler = arbitration

        registry = obs_metrics.registry()
        for fault in faults:
            def fire(seq: int, fault: Fault = fault) -> None:
                fault.fired = True
                fault.apply(ctx)
                registry.counter("chaos.faults_injected").inc()
                registry.counter(f"chaos.fault.{fault.kind}").inc()
                audit_log().record(
                    "chaos.injected", fault.tenant or "machine",
                    time=kernel.now, ok=False, detail=fault.label,
                    fault_kind=fault.kind)
                tracer = _OBS.tracer
                if tracer is not None:
                    tracer.event(f"chaos.{fault.kind}", "chaos",
                                 kernel.now, 0.0, fault=fault.label,
                                 tenant=fault.tenant or "",
                                 detail=fault.detail)

            kernel.schedule(fault.at, fire)
        return kernel

    def run(self, fleet):
        """Attach every machine of *fleet*, in index order, on one fresh
        kernel and execute the fleet's run under injection."""
        stray = [fault.label for fault in self.faults
                 if not 0 <= fault.machine < len(fleet.machines)]
        if stray:
            # Never booked, such a fault would leave the verdict
            # passing with nothing injected.
            raise ValueError(f"faults name a machine this "
                             f"{len(fleet.machines)}-machine fleet lacks: "
                             f"{stray}")
        kernel = EventClock()
        for machine in fleet.machines:
            self.attach(machine.engine, kernel, machine.index)
        return fleet.run(kernel=kernel)

    def verify(self, engine, machine: int = 0) -> List[tuple]:
        """Collect the post-run security checks of every fault that
        fired on *machine*, whose engine is *engine*."""
        ctx = ChaosContext(engine)
        checks: List[tuple] = []
        for fault in self._on(machine):
            if fault.fired:
                checks.extend(fault.verify(ctx))
        return checks
