"""Exact work counts of the repository benchmark, pinned.

Each ``perfbench`` workload runs one traced operation on seed 1, and
the 43 count, byte and ratio metrics that ``perfbench.run.op_counts``
derives from it (per-layer call counts, kernel events, status calls,
AEAD calls and bytes, TLB fills, memo hits, audit events, ...) must
equal ``tests/property/golden/perfbench_counts.json``.  Host time is
not among them, so the counts are machine-independent and compared
with ``==``: a change that moves one is either a bug or a deliberate
re-pin, explained where the change is recorded.

The tracer, the operation runner and the count derivation are
perfbench's own (``perfbench/tracing.py``, ``perfbench/run.py``), so
this pin measures exactly what the benchmark's ``--trace 1`` pass
reports.  To re-capture after a deliberate change, run from the repo
root (about 4 s)::

    PYTHONPATH=src python -m tests.integration.test_work_counts
"""

import json
import pathlib

import pytest

from perfbench import run, tracing, workloads

GOLDEN = (pathlib.Path(__file__).resolve().parent.parent / "property"
          / "golden" / "perfbench_counts.json")
SEED = 1


def traced_counts(name, boundaries):
    """The work counts of one traced *name* operation on :data:`SEED`."""
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer(boundaries)
    with tracer:
        result = run.run_op(workload, workload.inputs(SEED))
    assert result.problems == [], result.problems
    return run.op_counts(tracing, tracer)


def capture():
    boundaries = tracing.discover_boundaries()
    return {name: traced_counts(name, boundaries)
            for name in workloads.WORKLOADS}


@pytest.fixture(scope="module")
def boundaries():
    # Discovery boots probe machines, so it runs once, before any
    # operation resets the telemetry.
    return tracing.discover_boundaries()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_work_counts_match_golden(name, boundaries):
    golden = json.loads(GOLDEN.read_text())[name]
    counts = traced_counts(name, boundaries)
    moved = {metric: (golden.get(metric), counts.get(metric))
             for metric in sorted(set(golden) | set(counts))
             if golden.get(metric) != counts.get(metric)}
    assert not moved, f"{name}: (golden, now) per moved count: {moved}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
