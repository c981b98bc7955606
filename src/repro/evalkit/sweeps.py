"""Parameter sweeps over the cost model.

Generic machinery for sensitivity studies: run one workload across a
range of values for any :class:`~repro.sim.costs.CostModel` parameter
and collect Gdev/HIX times.  The A4 ablation (AEAD bandwidth) is one
instance; users can sweep PCIe rates, context-switch costs, chunk sizes,
or anything else the model exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.evalkit.harness import GDEV, HIX, run_single
from repro.evalkit.report import render_table
from repro.sim.costs import CostModel
from repro.system import Machine, MachineConfig
from repro.workloads.base import Workload


@dataclass
class SweepPoint:
    value: float
    gdev_seconds: float
    hix_seconds: float

    @property
    def slowdown(self) -> float:
        return self.hix_seconds / self.gdev_seconds


@dataclass
class SweepResult:
    parameter: str
    workload: str
    points: List[SweepPoint] = field(default_factory=list)

    def render(self) -> str:
        rows = [[f"{p.value:g}", f"{p.gdev_seconds * 1e3:.2f}",
                 f"{p.hix_seconds * 1e3:.2f}", f"{p.slowdown:.3f}x"]
                for p in self.points]
        return render_table(
            f"Sweep: {self.workload} vs {self.parameter}",
            [self.parameter, "Gdev (ms)", "HIX (ms)", "slowdown"], rows)

    def monotone_decreasing_slowdown(self) -> bool:
        slowdowns = [p.slowdown for p in self.points]
        return all(a >= b - 1e-9 for a, b in zip(slowdowns, slowdowns[1:]))


def sweep_cost_parameter(workload: Workload, parameter: str,
                         values: Sequence[float],
                         inflation: float = 256.0) -> SweepResult:
    """Run *workload* on both stacks for each parameter value."""
    if not hasattr(CostModel(), parameter):
        raise ValueError(f"CostModel has no parameter {parameter!r}")
    result = SweepResult(parameter=parameter, workload=workload.name)
    for value in values:
        costs = CostModel().with_overrides(**{parameter: value})
        gdev = run_single(workload, GDEV, inflation,
                          machine=Machine(MachineConfig(
                              data_inflation=inflation, costs=costs)))
        hix = run_single(workload, HIX, inflation,
                         machine=Machine(MachineConfig(
                             data_inflation=inflation, costs=costs)))
        result.points.append(SweepPoint(value=value,
                                        gdev_seconds=gdev.seconds,
                                        hix_seconds=hix.seconds))
    return result
