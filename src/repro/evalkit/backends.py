"""Side-by-side evaluation of the pluggable TEE backends.

One page answering "what do I give up, and what do I gain, by picking
HIX over GPU-CC (or vice versa)?" for a workload:

* single-user simulated time per backend, with the overhead each pays
  over the untrusted Gdev baseline;
* the multi-tenant concurrency curve through the sealed serving path
  (the Figures 8/9 protocol, once per backend);
* the Section 5.5 attack matrix executed under both backends, verdict
  classes aligned per attack so the threat-model differences (e.g.
  GPU-CC tolerating MMIO remaps that HIX must block) read directly.

Exposed on the CLI as ``python -m repro backends compare``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends import backend_names
from repro.evalkit.figures import FigureData
from repro.evalkit.harness import (
    DEFAULT_INFLATION,
    GDEV,
    RunResult,
    run_single,
)
from repro.evalkit.report import render_table
from repro.evalkit.security import (
    BACKEND_LABELS,
    AttackResult,
    run_attack_matrix,
)
from repro.evalkit.serve_sweep import serve_figure
from repro.sim.costs import CostModel
from repro.workloads.base import Workload

def _verdict_class(verdict: str) -> str:
    """Collapse ``BLOCKED (reason)`` to its class for tabular alignment."""
    return verdict.split(" (", 1)[0]


@dataclass
class BackendComparison:
    """Everything :func:`compare_backends` measured, render-ready."""

    workload: str
    backends: Tuple[str, ...]
    users: Tuple[int, ...]
    single: Dict[str, RunResult]
    serve: Dict[str, FigureData] = field(default_factory=dict)
    attacks: Dict[str, List[AttackResult]] = field(default_factory=dict)

    def _label(self, backend: str) -> str:
        return BACKEND_LABELS.get(backend, backend)

    def single_user_table(self) -> str:
        baseline = self.single[GDEV].seconds
        rows: List[List[object]] = [
            ["gdev (untrusted)", f"{self.single[GDEV].milliseconds:.3f}", "—"]]
        for backend in self.backends:
            result = self.single[backend]
            overhead = (result.seconds / baseline - 1.0) * 100.0 \
                if baseline > 0 else 0.0
            rows.append([self._label(backend),
                         f"{result.milliseconds:.3f}",
                         f"{overhead:+.1f}%"])
        return render_table(
            f"Single-user simulated time: {self.workload}",
            ["backend", "time (ms)", "vs gdev"], rows)

    def serve_table(self) -> str:
        headers = ["users"]
        for backend in self.backends:
            label = self._label(backend)
            headers += [f"{label} (ms)", f"{label} (rel)"]
        rows: List[List[object]] = []
        for index, n in enumerate(self.users):
            row: List[object] = [f"{n}u"]
            for backend in self.backends:
                figure = self.serve[backend]
                row.append(f"{figure.series['serve_ms'][index]:.3f}")
                row.append(
                    f"{figure.series['serve (sealed path)'][index]:.2f}x")
            rows.append(row)
        return render_table(
            f"Sealed-path serving makespan: {self.workload} "
            "(rel = x of own 1-user time)",
            headers, rows)

    def attack_table(self) -> str:
        headers = ["attack"] + [self._label(b) for b in self.backends] \
            + ["defended"]
        rows: List[List[object]] = []
        columns = [self.attacks[b] for b in self.backends]
        for per_backend in zip(*columns):
            name = per_backend[0].name
            verdicts = [_verdict_class(r.secure) for r in per_backend]
            defended = "yes" if all(r.defended for r in per_backend) \
                else "NO"
            rows.append([name] + verdicts + [defended])
        return render_table(
            "Attack matrix by backend (verdict classes; run "
            "`repro attacks --backend <b>` for full reasons)",
            headers, rows)

    def render(self) -> str:
        sections = [self.single_user_table()]
        if self.serve:
            sections.append(self.serve_table())
        if self.attacks:
            sections.append(self.attack_table())
        return "\n\n".join(sections)

    @property
    def all_defended(self) -> bool:
        return all(r.defended
                   for results in self.attacks.values() for r in results)


def compare_backends(workload: Workload,
                     users: Sequence[int] = (1, 2, 4),
                     inflation: float = DEFAULT_INFLATION,
                     costs: Optional[CostModel] = None,
                     backends: Optional[Sequence[str]] = None,
                     scheduler: str = "fair",
                     with_serve: bool = True,
                     with_attacks: bool = True) -> BackendComparison:
    """Measure *workload* under every backend and align the results.

    Single-user runs are functional (the workload really executes on a
    fresh machine per backend); the serving sweep and attack matrix are
    optional because they dominate the runtime for large user counts.
    *backends* defaults to every registered backend.
    """
    backends = backend_names() if backends is None else tuple(backends)
    costs = costs or CostModel()
    single = {GDEV: run_single(workload, GDEV, inflation)}
    for backend in backends:
        single[backend] = run_single(workload, backend, inflation)
    serve: Dict[str, FigureData] = {}
    if with_serve:
        for backend in backends:
            serve[backend] = serve_figure(
                workload, users=tuple(users), scheduler=scheduler,
                inflation=inflation, costs=costs, backend=backend)
    attacks: Dict[str, List[AttackResult]] = {}
    if with_attacks:
        for backend in backends:
            attacks[backend] = run_attack_matrix(backend)
    return BackendComparison(
        workload=workload.name,
        backends=backends,
        users=tuple(users),
        single=single,
        serve=serve,
        attacks=attacks,
    )
