"""Reproduction validation: every paper-shape claim, checked in one call.

:func:`validate_reproduction` runs the full evaluation and grades each
claim from the paper's results section against the measured values.
The benchmark drivers assert the same conditions; this module exists so
CI, the CLI (``python -m repro validate``), and downstream users can run
the whole acceptance suite programmatically and get a structured report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.evalkit.figures import figure6, figure7, figure8, figure9
from repro.evalkit.report import render_table
from repro.evalkit.security import SUCCEEDS, run_attack_matrix


@dataclass
class Claim:
    """One paper claim and its measured verdict."""

    claim: str
    paper: str
    measured: str
    holds: bool


@dataclass
class ValidationReport:
    claims: List[Claim] = field(default_factory=list)

    def add(self, claim: str, paper: str, measured: str, holds: bool) -> None:
        self.claims.append(Claim(claim, paper, measured, holds))

    @property
    def all_hold(self) -> bool:
        return all(claim.holds for claim in self.claims)

    def render(self) -> str:
        rows = [[c.claim, c.paper, c.measured, "OK" if c.holds else "FAIL"]
                for c in self.claims]
        verdict = ("ALL CLAIMS HOLD" if self.all_hold
                   else "SOME CLAIMS FAILED")
        return render_table(
            f"Reproduction validation — {verdict}",
            ["Claim", "Paper", "Measured", ""], rows)


def validate_reproduction(inflation: float = 256.0,
                          progress: Optional[Callable[[str], None]] = None
                          ) -> ValidationReport:
    """Run everything; return the graded claim list."""
    note = progress or (lambda _msg: None)
    report = ValidationReport()

    note("Figure 6 (matrix microbenchmarks)...")
    panels = figure6(inflation=inflation)
    add, mul = panels["add"], panels["mul"]
    mean_add = sum(add.series["slowdown_x"]) / len(add.series["slowdown_x"])
    report.add("matrix add crypto-bound slowdown", "~2.5x",
               f"{mean_add:.2f}x mean", 1.8 <= mean_add <= 3.2)
    mul_large = mul.series["slowdown_x"][-1]
    report.add("matrix mul overhead @11264", "+6.34%",
               f"{(mul_large - 1) * 100:+.1f}%", mul_large < 1.10)
    report.add("add overhead grows with size / mul shrinks", "crossover",
               "both directions correct",
               add.series["slowdown_x"][0] < add.series["slowdown_x"][-1]
               and mul.series["slowdown_x"][0] > mul.series["slowdown_x"][-1])

    note("Figure 7 (Rodinia single-user)...")
    fig7 = figure7(inflation=inflation)
    overhead = dict(zip(fig7.x_labels, fig7.series["overhead_pct"]))
    mean = sum(overhead.values()) / len(overhead)
    report.add("Rodinia mean overhead", "+26.8%", f"{mean:+.1f}%",
               20.0 <= mean <= 35.0)
    report.add("BP overhead", "+81.5%", f"{overhead['BP']:+.1f}%",
               abs(overhead["BP"] - 81.5) < 10.0)
    report.add("NW overhead", "+70.1%", f"{overhead['NW']:+.1f}%",
               abs(overhead["NW"] - 70.1) < 10.0)
    report.add("PF worst case", "+154%", f"{overhead['PF']:+.1f}%",
               overhead["PF"] > 100.0
               and overhead["PF"] == max(overhead.values()))
    report.add("GS comparable", "~0%", f"{overhead['GS']:+.1f}%",
               abs(overhead["GS"]) < 10.0)
    report.add("HS/LUD/NN faster under HIX", "faster",
               ", ".join(f"{app} {overhead[app]:+.1f}%"
                         for app in ("HS", "LUD", "NN")),
               all(overhead[app] < 0 for app in ("HS", "LUD", "NN")))

    note("Figures 8/9 (multi-user)...")
    for figure, users, paper_pct in ((figure8(), 2, 45.2),
                                     (figure9(), 4, 39.7)):
        gdev, hix = figure.series["Gdev"], figure.series["HIX"]
        degradation = (sum(hix) / len(hix)) / (sum(gdev) / len(gdev)) - 1
        report.add(f"HIX vs parallel Gdev ({users} users)",
                   f"+{paper_pct}%", f"{degradation * 100:+.1f}%",
                   abs(degradation * 100 - paper_pct) < 12.0)
        beats_sequential = all(
            h < s for h, s in zip(hix, figure.series["HIX-sequential"]))
        report.add(f"parallel beats sequential ({users} users)",
                   "always", "all apps" if beats_sequential else "violated",
                   beats_sequential)

    note("Section 5.5 (attack matrix)...")
    attacks = run_attack_matrix()
    defended = sum(1 for a in attacks if a.defended)
    report.add("attack classes defended", "all (6 classes)",
               f"{defended}/{len(attacks)} attacks",
               all(a.baseline.startswith(SUCCEEDS)
                   and not a.secure.startswith(SUCCEEDS) for a in attacks))
    return report
