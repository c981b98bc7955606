"""Evaluation kit: regenerates every table and figure of the paper.

* :mod:`repro.evalkit.harness` — runs one workload on one stack and
  returns simulated-time results with the paper's breakdown categories.
* :mod:`repro.evalkit.figures` — Figures 6-9 series generators.
* :mod:`repro.evalkit.tables` — Tables 1-5.
* :mod:`repro.evalkit.security` — the Section 5.5 attack matrix, executed.
* :mod:`repro.evalkit.serve_sweep` — Figures 8/9 concurrency curves
  reproduced through the multi-tenant serving engine (sealed path).
* :mod:`repro.evalkit.report` — plain-text rendering shared by the
  benchmark harness and EXPERIMENTS.md generation.
"""

import importlib

#: Public name -> the evalkit module defining it.  Names load on first
#: use (PEP 562), so importing one evalkit module loads no other.
_EXPORTS = {name: module for module, names in (
    ("harness", ("run_single", "run_multiuser", "RunResult")),
    ("serve_sweep", ("serve_run", "serve_figure", "fair_crosscheck",
                     "CrosscheckResult")),
    ("report", ("render_table", "render_series")),
    ("sweeps", ("sweep_cost_parameter", "SweepResult")),
    ("validation", ("validate_reproduction", "ValidationReport")),
) for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
