"""Self-tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench`` (about
a minute).  They pin what makes the benchmark's numbers trustworthy:
traced and untraced operations compute the same simulated outputs as
the committed golden values, work counts repeat exactly, every layer
boundary still exists and fires on the workload meant to exercise it,
a non-default seed passes the invariants, and the command keeps the
output contract ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads(run.GOLDEN.read_text())

#: Layers each workload exists to exercise (see README.md): a boundary
#: that stops firing here means the workload no longer measures it.
EXERCISED = {
    "serve-sealed": {"system", "sgx", "osmodel", "gpu", "sim", "crypto",
                     "hw", "pcie", "gdev", "core", "backends", "serve",
                     "obs"},
    "fleet-lite": {"system", "sim", "fleet", "serve"},
    "sealed-io": {"system", "crypto", "hw", "pcie", "gpu", "gdev", "core",
                  "backends"},
    "chaos-churn": {"system", "sgx", "osmodel", "sim", "serve", "obs",
                    "chaos", "core", "backends"},
}

#: Wrapped entry points no workload reaches, by attribute name.  They
#: stay wrapped so the counts and layer times stay complete if a later
#: change routes work through them.
UNREACHED = {
    "cuInit": "no workload calls it; cuCtxCreate attests directly",
    "alloc_pages": "the services allocate through alloc_dma_buffer",
    "share_mapping": "no workload shares memory between processes",
    "eenter": "enclave entry is not modelled on these paths",
    "eexit": "enclave exit is not modelled on these paths",
    "egdestroy": "no workload tears a GPU enclave down",
    "add_lane": "mid-run lane admission is fleet migration, not driven",
}

_passes = {}


def traced_twice(name: str):
    """Two traced passes on the default seed, computed once per name."""
    if name not in _passes:
        workload = workloads.WORKLOADS[name]
        inputs = workload.inputs(run.DEFAULT_SEED)
        _passes[name] = [run.traced_pass(tracing, workload, inputs)
                         for _ in range(2)]
    return _passes[name]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_and_traced_outputs_match_golden(name):
    workload = workloads.WORKLOADS[name]
    untraced = run.run_op(workload, workload.inputs(run.DEFAULT_SEED))
    assert untraced.problems == []
    assert untraced.stats == GOLDEN[name]
    for results, _, _ in traced_twice(name):
        for result in results:
            assert result.problems == []
            assert result.stats == untraced.stats


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first, second = traced_twice(name)
    counts = first[2] + second[2]
    assert all(c == counts[0] for c in counts[1:])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layers_fire_on_their_workload(name):
    counts = traced_twice(name)[0][2][0]
    silent = sorted(layer for layer in EXERCISED[name]
                    if counts[f"{layer}.calls"] == 0)
    assert not silent, f"{name}: no wrapped call fired in {silent}"


def test_every_boundary_fires_somewhere():
    fired = set()
    for name in workloads.WORKLOADS:
        for _, tracers, _ in traced_twice(name):
            for tracer in tracers:
                fired.update(tracing.fired_boundaries(tracer))
    declared = {b.name for b in tracing.discover_boundaries()
                if b.attr not in UNREACHED}
    assert not declared - fired, (
        f"boundaries that no workload reaches: {sorted(declared - fired)}")


def test_tracer_restores_every_original():
    from repro.system import Machine
    boundaries = tracing.discover_boundaries()
    before = {(id(b.owner), b.attr): vars(b.owner).get(b.attr)
              for b in boundaries}
    with tracing.Tracer(boundaries):
        assert getattr(Machine.__init__, "_perfbench_original", None)
    after = {(id(b.owner), b.attr): vars(b.owner).get(b.attr)
             for b in boundaries}
    assert after == before


def test_missing_boundary_is_named():
    from repro.system import Machine
    ghost = tracing.Boundary(Machine, "no_such_entry_point")
    with pytest.raises(tracing.BoundaryMissing, match="no_such_entry_point"):
        with tracing.Tracer([ghost]):
            pass


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_non_default_seed_passes_invariants(name):
    workload = workloads.WORKLOADS[name]
    op = run.run_op(workload, workload.inputs(7))
    assert op.problems == []
    assert op.stats != GOLDEN[name]
    if name != "chaos-churn":
        # Seeds permute a fixed multiset: the work served is the same.
        default = run.run_op(workload, workload.inputs(run.DEFAULT_SEED))
        assert op.requests == default.requests


def test_benchmark_json_lists_what_the_command_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    name = "sealed-io"
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(run.DEFAULT_SEED)
    ops = [run.run_op(workload, inputs) for _ in range(2)]
    e2e = run.end_to_end_metrics(ops)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (metric, unit) for metric, (_, unit) in e2e.items()]
    results, tracers, counts = traced_twice(name)[0]
    layers = run.per_layer_metrics(tracing, ops, results, tracers, counts)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (metric, unit) for metric, (_, unit) in layers.items()]


def _command(cwd: Path, *extra: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sealed-io",
         "--seed", "3", "--seconds", "0.1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_command_prints_the_result_contract():
    done = _command(ROOT, "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _command(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
