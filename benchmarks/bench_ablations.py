"""Ablation benchmarks for the design choices DESIGN.md calls out.

A1  copy pipelining (Section 5.2): chunked encrypt||transfer vs serial.
A2  single-copy memcpy (Section 4.4.2) vs the naive double-copy design.
A3  per-user GPU contexts (Section 4.5): context-switch cost sweep, and
    the Volta-style "no context switch" future-work projection.
A4  CPU AEAD bandwidth sensitivity: where the add/mul crossover moves.
"""

import pytest

from repro.evalkit.figures import ablation_pipelining, ablation_single_copy
from repro.evalkit.harness import GDEV, HIX, run_multiuser, run_single
from repro.evalkit.report import render_table
from repro.evalkit.sweeps import sweep_cost_parameter
from repro.sim.costs import CostModel
from repro.workloads import MatrixAdd
from repro.workloads.rodinia import BackProp, Pathfinder

INFLATION = 256.0


@pytest.mark.benchmark(group="ablations")
def test_a1_pipelining(benchmark, publish):
    data = benchmark.pedantic(ablation_pipelining,
                              kwargs={"inflation": INFLATION},
                              rounds=1, iterations=1)
    publish("ablation_a1_pipelining", data.render())
    assert data.series["pipelined-4MB"][0] < data.series["serial"][0]
    # Finer chunks help slightly more (less fill time), then plateau.
    assert (data.series["pipelined-1MB"][0]
            <= data.series["pipelined-4MB"][0] + 1e-6)


@pytest.mark.benchmark(group="ablations")
def test_a2_single_copy(benchmark, publish):
    data = benchmark.pedantic(ablation_single_copy,
                              kwargs={"inflation": INFLATION},
                              rounds=1, iterations=1)
    publish("ablation_a2_single_copy", data.render())
    single = data.series["single-copy (HIX)"][0]
    double = data.series["double-copy (naive)"][0]
    assert double > 1.25 * single  # the copy+re-encrypt tax is material


def _a3_rows():
    rows = []
    for label, overrides in (
            ("Fermi (120us switch)", {}),
            ("slow switch (500us)", {"gpu_context_switch": 500e-6}),
            ("Volta-style (no switch, full-rate crypto)",
             {"gpu_context_switch": 0.0,
              "gpu_aead_multiuser_efficiency": 1.0})):
        costs = CostModel().with_overrides(**overrides)
        workload = BackProp()
        gdev = run_multiuser(workload, GDEV, 2, costs)
        hix = run_multiuser(workload, HIX, 2, costs)
        rows.append([label, f"{gdev * 1e3:.2f}", f"{hix * 1e3:.2f}",
                     f"{(hix / gdev - 1) * 100:+.1f}%"])
    return rows


@pytest.mark.benchmark(group="ablations")
def test_a3_context_switching(benchmark, publish):
    rows = benchmark.pedantic(_a3_rows, rounds=1, iterations=1)
    publish("ablation_a3_context_switching", render_table(
        "Ablation A3: 2-user BP makespan vs context-switch model",
        ["GPU model", "Gdev (ms)", "HIX (ms)", "HIX overhead"], rows))
    # The paper's expectation: Volta-style concurrency shrinks the gap.
    fermi_overhead = float(rows[0][3].rstrip("%"))
    volta_overhead = float(rows[2][3].rstrip("%"))
    assert volta_overhead < fermi_overhead


def _a4_rows():
    labels = ("1.0 GB/s", "1.9 GB/s (default)", "6.0 GB/s (matches PCIe)")
    sweep = sweep_cost_parameter(
        MatrixAdd(8192), "cpu_aead_bandwidth",
        [gbps * (1 << 30) for gbps in (1.0, 1.9, 6.0)], inflation=INFLATION)
    return [[label, f"{point.gdev_seconds * 1e3:.1f}",
             f"{point.hix_seconds * 1e3:.1f}", f"{point.slowdown:.2f}x"]
            for label, point in zip(labels, sweep.points)]


@pytest.mark.benchmark(group="ablations")
def test_a4_aead_bandwidth_sensitivity(benchmark, publish):
    rows = benchmark.pedantic(_a4_rows, rounds=1, iterations=1)
    publish("ablation_a4_aead_bandwidth", render_table(
        "Ablation A4: matrix-add 8192 vs CPU AEAD bandwidth",
        ["SGX-SSL OCB throughput", "Gdev (ms)", "HIX (ms)", "slowdown"],
        rows))
    slowdowns = [float(row[3].rstrip("x")) for row in rows]
    # Faster crypto monotonically closes the gap; at PCIe-rate crypto the
    # encrypt stage hides behind the transfer entirely.
    assert slowdowns[0] > slowdowns[1] > slowdowns[2]


@pytest.mark.benchmark(group="ablations")
def test_a5_worst_case_pf_breakdown(benchmark, publish):
    """Where PF's +154% (paper) / +131% (here) actually goes."""
    result = benchmark.pedantic(
        run_single, args=(Pathfinder(), HIX, INFLATION),
        rounds=1, iterations=1)
    rows = sorted(((k, f"{v * 1e3:.2f}") for k, v in
                   result.breakdown.items()), key=lambda r: -float(r[1]))
    publish("ablation_a5_pf_breakdown", render_table(
        "Ablation A5: pathfinder (HIX) simulated-time breakdown",
        ["category", "ms"], rows))
    categories = dict(result.breakdown)
    # The secure copy dominates — PF is the transfer-bound worst case.
    assert categories["copy_h2d"] > 0.5 * result.seconds
