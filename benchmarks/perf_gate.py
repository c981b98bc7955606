"""Perf-regression gate over the simulator micro-benchmarks.

Runs the micro-benchmark suites in :data:`BENCH_FILES` (via
pytest-benchmark, one process per file), compares each benchmark's best (minimum) time
against the recorded baseline in
``benchmarks/baselines/simulator_perf.json``, and reports any that
exceed the tolerance band.

Usage::

    python -m benchmarks.perf_gate                   # report-only
    python -m benchmarks.perf_gate --strict          # exit 1 on regression
    python -m benchmarks.perf_gate --update-baseline # re-record baseline

Report-only mode is for CI, where shared-runner hardware variance makes
hard wall-clock limits flaky; developers run ``--strict`` locally before
refreshing the baseline.  The baseline is machine-specific: re-record it
(``--update-baseline``) when benchmarking hardware changes, and include
the refreshed file with any PR that intentionally changes performance.

These are *wall-clock* numbers only.  Simulated-time outputs (figures,
tables) are governed by the cost model and are checked bit-exactly by
the regular test suite, not here.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Every file here feeds one shared baseline; add new suites to the
#: list and re-record with ``--update-baseline``.  Chaos-enabled runs
#: (``repro.chaos`` campaigns) are deliberately NOT benched here: a
#: campaign runs every workload twice (baseline + chaos) and its
#: wall-clock is dominated by fault-recovery churn, so it is exempt
#: from the serve perf baseline (CI covers it with the smoke-campaign
#: verdict instead — see docs/RESILIENCE.md).
BENCH_FILES = [
    Path(__file__).resolve().parent / "bench_simulator_perf.py",
    Path(__file__).resolve().parent / "bench_serve.py",
    Path(__file__).resolve().parent / "bench_engine.py",
    Path(__file__).resolve().parent / "bench_obs.py",
    Path(__file__).resolve().parent / "bench_telemetry.py",
    Path(__file__).resolve().parent / "bench_fleet.py",
    Path(__file__).resolve().parent / "bench_backends.py",
]
BASELINE_FILE = (Path(__file__).resolve().parent
                 / "baselines" / "simulator_perf.json")

#: A benchmark regresses when its best time exceeds baseline * (1 + tol).
#: Wall-clock medians wobble; minima are stable to ~10-20% on an idle
#: machine, so 50% headroom separates noise from real regressions.
DEFAULT_TOLERANCE = 0.50


def run_benchmarks() -> Dict[str, float]:
    """Run the micro-benchmark suite; return {name: best_seconds}.

    Each file runs in its own pytest process, one after another: in one
    shared process, what earlier suites leave on the heap slows later
    ones (a suite read up to 1.9x its time alone), so a report could
    not tell a regression from interference.
    """
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    results: Dict[str, float] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in BENCH_FILES:
            json_path = Path(tmp) / f"{path.stem}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", str(path), "-q",
                 "--benchmark-only", f"--benchmark-json={json_path}"],
                cwd=REPO_ROOT, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stdout.write(proc.stdout)
                raise SystemExit(f"benchmark run of {path.name} failed "
                                 f"(exit {proc.returncode})")
            payload = json.loads(json_path.read_text())
            results.update((bench["name"], bench["stats"]["min"])
                           for bench in payload["benchmarks"])
    return results


def load_baseline() -> Dict[str, float]:
    if not BASELINE_FILE.exists():
        return {}
    return json.loads(BASELINE_FILE.read_text())["benchmarks"]


def save_baseline(results: Dict[str, float]) -> None:
    BASELINE_FILE.parent.mkdir(parents=True, exist_ok=True)
    BASELINE_FILE.write_text(json.dumps({
        "note": ("best-of-run (min) seconds per benchmark; "
                 "machine-specific — refresh with "
                 "`python -m benchmarks.perf_gate --update-baseline`"),
        "benchmarks": {name: results[name] for name in sorted(results)},
    }, indent=2) + "\n")


def compare(results: Dict[str, float], baseline: Dict[str, float],
            tolerance: float) -> Tuple[bool, List[Tuple[str, float, float]]]:
    """Print the comparison table.

    Returns ``(ok, regressions)`` where *regressions* lists
    ``(name, baseline_seconds, current_seconds)`` for every benchmark
    over the tolerance band (a disappeared benchmark counts with a
    current time of ``inf``), sorted worst-ratio first.
    """
    regressions: List[Tuple[str, float, float]] = []
    width = max(len(name) for name in results)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  "
          f"{'delta':>10}  {'ratio':>7}  verdict")
    for name in sorted(results):
        current = results[name]
        base = baseline.get(name)
        if base is None:
            print(f"{name:<{width}}  {'-':>12}  {current * 1e6:>10.1f}us  "
                  f"{'-':>10}  {'-':>7}  NEW (no baseline)")
            continue
        ratio = current / base
        if ratio > 1.0 + tolerance:
            verdict = f"REGRESSION (> +{tolerance:.0%})"
            regressions.append((name, base, current))
        elif ratio < 1.0 - tolerance:
            verdict = "improved (consider refreshing baseline)"
        else:
            verdict = "ok"
        print(f"{name:<{width}}  {base * 1e6:>10.1f}us  "
              f"{current * 1e6:>10.1f}us  {(current - base) * 1e6:>+8.1f}us  "
              f"{ratio:>6.2f}x  {verdict}")
    for name in sorted(set(baseline) - set(results)):
        print(f"{name:<{width}}  benchmark disappeared from the suite")
        regressions.append((name, baseline[name], float("inf")))
    regressions.sort(key=lambda entry: entry[2] / entry[1], reverse=True)
    return not regressions, regressions


def describe_worst(regressions: List[Tuple[str, float, float]]) -> str:
    """Human-readable blame line for the worst regressor."""
    name, base, current = regressions[0]
    if current == float("inf"):
        return f"worst regressor: {name} (disappeared from the suite)"
    return (f"worst regressor: {name} "
            f"({base * 1e6:.1f}us -> {current * 1e6:.1f}us, "
            f"{current / base:.2f}x baseline, "
            f"+{(current - base) * 1e6:.1f}us)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf_gate",
        description="run simulator micro-benchmarks against the baseline")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero on regression (local runs)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="record current results as the new baseline")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed slowdown fraction "
                             f"(default {DEFAULT_TOLERANCE})")
    args = parser.parse_args(argv)

    results = run_benchmarks()
    if args.update_baseline:
        save_baseline(results)
        print(f"baseline recorded: {BASELINE_FILE.relative_to(REPO_ROOT)} "
              f"({len(results)} benchmarks)")
        return 0

    baseline = load_baseline()
    if not baseline:
        print("no baseline recorded; run with --update-baseline first")
        return 1 if args.strict else 0
    ok, regressions = compare(results, baseline, args.tolerance)
    if ok:
        print("perf gate: PASS")
        return 0
    blame = describe_worst(regressions)
    if args.strict:
        print(f"perf gate: FAIL (strict mode) — {len(regressions)} "
              f"regression(s); {blame}")
        return 1
    print(f"perf gate: {len(regressions)} regression(s) reported "
          f"(report-only mode; use --strict to enforce) — {blame}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
