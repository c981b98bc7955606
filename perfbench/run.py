"""Repo benchmark: what the HIX simulator costs to run, in host time.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-sealed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload fleet-lite --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --all --seconds 2           # every workload
    python3 perfbench/run.py --update-golden             # re-pin golden.json

One run builds the named workload's inputs from ``--seed``, runs one
operation on the default seed and checks its simulated outputs
bit-for-bit against ``golden.json``, then repeats operations on the
given seed for ``--seconds`` (at least three), resetting the process
telemetry before each.  Every operation's simulated outputs must match
the run's first (or the golden, on the default seed) and pass the
workload's invariants; one that does not counts as failed.

With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics (medians over the run).  With ``--trace 1`` a traced
pass follows the untraced repetitions and the JSON carries the
per-layer metrics instead; the spans of the last traced run of each
workload are written to ``perfbench/out/spans-<workload>.jsonl``.  See
README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"
DEFAULT_SEED = 0
#: Untraced operations per run, at least (medians need a few samples).
MIN_OPS = 3
#: The traced pass repeats operations for at least this long.
TRACE_SECONDS = 2.0
#: Nominal host seconds of :func:`reference_seconds`; every reported
#: time is scaled to the host speed at which the loop takes this long.
REFERENCE_SECONDS = 0.010
MIB = 1 << 20
_BLOCK = bytes(range(256)) * 256
_LARGE = _BLOCK * 16


def _load():
    """Import the benchmark modules against this checkout's sources."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import tracing, workloads
    return tracing, workloads


def reset_telemetry() -> None:
    """Fresh process-global metrics registry and audit log."""
    from repro.obs.audit import reset_audit_log
    from repro.obs.metrics import reset_registry
    reset_registry()
    reset_audit_log()


def run_op(workload, inputs):
    """One operation on a clean heap and fresh telemetry; sets wall_s."""
    gc.collect()
    reset_telemetry()
    start = time.perf_counter()
    result = workload.run(inputs)
    result.wall_s = time.perf_counter() - start
    return result


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value) -> None:
        self.key = key
        self.value = value


def reference_seconds() -> float:
    """Median host seconds of three runs of :func:`_reference_loop`.

    A shared host changes speed in phases of seconds to a minute;
    timing this loop next to every operation measures the host's
    current speed, which the reported times are scaled by.  The median
    drops a run that a single preemption hit.
    """
    return statistics.median(_reference_loop() for _ in range(3))


def _reference_loop() -> float:
    """Host seconds of a fixed loop in the simulator's own mix of work:
    a heap of tuples, a dict of small objects, hashing, and bytes
    copies from 64 bytes to 1 MiB."""
    start = time.perf_counter()
    heap, table = [], {}
    for index in range(6000):
        heapq.heappush(heap, (index * 7919 % 1009, index))
        table[index % 512] = _Cell(index, str(index))
    while heap:
        heapq.heappop(heap)
    buffer = bytearray(_BLOCK)
    for index in range(20):
        buffer[index * 100:index * 100 + 64] = _BLOCK[index:index + 64]
        hashlib.sha256(buffer).digest()
    for index in range(4):
        large = bytearray(_LARGE)
        large[0] = index
        bytes(large)
    return time.perf_counter() - start


def repeat(operation, seconds: float, minimum: int):
    """Call *operation* for *seconds* (at least *minimum* times).

    Each result gets ``scale``: the nominal reference time over the
    mean of the reference loop's times just before and just after it.
    """
    results = []
    before = reference_seconds()
    start = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start < seconds:
        result = operation()
        after = reference_seconds()
        result.scale = 2 * REFERENCE_SECONDS / (before + after)
        result.reference_s = (before + after) / 2
        before = after
        results.append(result)
    return results


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures = []

    def check(self, label: str, op, reference, what: str,
              extra=()) -> None:
        self.attempted += 1
        problems = list(op.problems) + list(extra)
        if op.stats != reference:
            problems.append(f"simulated outputs differ from {what}")
        if problems:
            self.failures.append((label, problems))


def op_counts(tracing, tracer) -> dict:
    """Exact work counts of one traced operation (telemetry was reset
    before it, and its machines and engines were built inside it)."""
    from repro.obs.audit import audit_log
    from repro.obs.metrics import registry
    from repro.sim.trace import fastpath_counters

    def counter(name: str) -> int:
        metric = registry().get(name)
        return int(metric.value) if metric is not None else 0

    def tagged(name: str) -> int:
        return tracer.counts.get(name, 0)

    fast = {}
    for machine in tracer.captured.get("machines", []):
        for key, value in fastpath_counters(machine).items():
            fast[key] = fast.get(key, 0) + value
    engines = {id(e): e for e in tracer.captured.get("engines", [])}
    memo = [engine.memo.stats() for engine in engines.values()]
    hits = sum(stats["hits"] for stats in memo)
    misses = sum(stats["misses"] for stats in memo)
    tlb_hits = fast.get("tlb_hits", 0)
    tlb_misses = fast.get("tlb_misses", 0)
    log = audit_log()
    _, calls = tracing.layer_totals(tracer)
    counts = {f"{layer}.calls": calls.get(layer, 0)
              for layer in tracing.LAYERS}
    counts.update({
        "system.machines_built": tagged("system.machines_built"),
        "sgx.instructions": tagged("sgx.instructions"),
        "osmodel.pages_allocated": tagged("osmodel.pages_allocated"),
        "sim.events": counter("engine.events_processed"),
        "sim.ctx_switches": counter("engine.ctx_switches"),
        "sim.deadline_expiries": counter("engine.deadline_expiries"),
        "fleet.placements": tagged("fleet.placements"),
        "fleet.status_calls": tagged("fleet.status_calls"),
        "crypto.aead_calls": tagged("crypto.aead_calls"),
        "crypto.aead_bytes": tagged("crypto.aead_bytes"),
        "hw.tlb_hits": tlb_hits,
        "hw.tlb_misses": tlb_misses,
        "hw.tlb_hit_ratio": _ratio(tlb_hits, tlb_misses),
        "hw.dma_bytes": (fast.get("dma_bytes_read", 0)
                         + fast.get("dma_bytes_written", 0)),
        "hw.zero_copy_bytes": fast.get("phys_zero_copy_bytes", 0),
        "hw.coalesced_runs": (fast.get("mmu_coalesced_runs", 0)
                              + fast.get("iommu_coalesced_runs", 0)),
        "pcie.tlps": tracing.tlp_count(tracer),
        "serve.memo_hits": hits,
        "serve.memo_misses": misses,
        "serve.memo_hit_ratio": _ratio(hits, misses),
        "serve.batch_frames": tagged("serve.batch_frames"),
        "serve.batch_items": tagged("serve.batch_items"),
        "serve.retries": counter("serve.retry.total"),
        "serve.shed": counter("serve.requests_shed"),
        "serve.recoveries": counter("serve.retry.session_recoveries"),
        "obs.audit_events": len(log),
        "obs.alerts_fired": len(log.filter(kind="alert.firing")),
        "chaos.faults_fired": counter("chaos.faults_injected"),
    })
    return counts


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def traced_pass(tracing, workload, inputs):
    """Traced operations for at least TRACE_SECONDS.

    Returns ``(results, tracers, counts)``: one tracer and one count
    dict per operation, in order.
    """
    boundaries = tracing.discover_boundaries()
    tracers, counts = [], []

    def traced_op():
        tracer = tracing.Tracer(boundaries)
        with tracer:
            result = run_op(workload, inputs)
        tracers.append(tracer)
        counts.append(op_counts(tracing, tracer))
        return result

    results = repeat(traced_op, TRACE_SECONDS, 1)
    return results, tracers, counts


def per_layer_metrics(tracing, ops, results, tracers, counts) -> dict:
    metrics = {}
    n = len(tracers)
    self_total = {}
    for tracer, result in zip(tracers, results):
        self_s, _ = tracing.layer_totals(tracer)
        for layer, seconds in self_s.items():
            self_total[layer] = (self_total.get(layer, 0.0)
                                 + seconds * result.scale)
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (self_total.get(layer, 0.0) / n, "s")
    for name, value in counts[0].items():
        unit = ("ratio" if name.endswith("_ratio")
                else "bytes" if name.endswith("_bytes") else "count")
        metrics[name] = (value, unit)
    for backend in ("hix", "gpucc"):
        streams = [(op.per_backend[backend], op.scale) for op in ops
                   if backend in op.per_backend]
        calls = [s * scale for stream, scale in streams
                 for s in stream["call_s"]]
        moved = sum(stream["bytes"] for stream, _ in streams)
        seconds = sum(calls)
        metrics[f"call_ms_p50.{backend}"] = (
            statistics.median(calls) * 1e3 if calls else 0.0, "ms")
        metrics[f"call_ms_p99.{backend}"] = (
            _p99(calls) * 1e3 if calls else 0.0, "ms")
        metrics[f"sealed_mb_per_s.{backend}"] = (
            moved / MIB / seconds if seconds else 0.0, "MiB/s")
    traced = sum(result.wall_s * result.scale for result in results) / n
    untraced = statistics.median(op.wall_s * op.scale for op in ops)
    metrics["trace_overhead"] = (traced / untraced, "x")
    return metrics


def _p99(values) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def end_to_end_metrics(ops) -> dict:
    latencies = [s * op.scale for op in ops for s in op.latencies_s]
    return {
        "setup_s": (statistics.median(op.setup_s * op.scale for op in ops),
                    "s"),
        "requests_per_s": (statistics.median(
            op.requests / (op.traffic_s * op.scale) for op in ops), "1/s"),
        "latency_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def run_workload(tracing, workload, seed: int, seconds: float, trace: bool,
                 golden: dict) -> dict:
    ledger = Ledger()
    # The default-seed operation is the warm-up and the golden check.
    first = run_op(workload, workload.inputs(DEFAULT_SEED))
    ledger.check("default-seed op", first, golden, "golden.json")
    inputs = workload.inputs(seed)
    ops = repeat(lambda: run_op(workload, inputs), seconds, MIN_OPS)
    reference = golden if seed == DEFAULT_SEED else ops[0].stats
    what = "golden.json" if seed == DEFAULT_SEED else "the run's first op"
    for index, op in enumerate(ops):
        ledger.check(f"op {index}", op, reference, what)
    metrics = end_to_end_metrics(ops)
    samples = {"ops": len(ops),
               "latency samples": sum(len(op.latencies_s) for op in ops),
               "reference loop ms (median)": round(statistics.median(
                   op.reference_s for op in ops) * 1e3, 3)}
    if trace:
        results, tracers, counts = traced_pass(tracing, workload, inputs)
        for index, result in enumerate(results):
            differ = (["work counts differ from the first traced op"]
                      if counts[index] != counts[0] else [])
            ledger.check(f"traced op {index}", result, reference,
                         "the untraced ops", differ)
        metrics = per_layer_metrics(tracing, ops, results, tracers, counts)
        samples["traced ops"] = len(tracers)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload.name}.jsonl"
        tracing.write_spans(tracers, spans, tracers[0].spans[0][1]
                            if tracers[0].spans else 0.0)
        samples["spans"] = f"{sum(len(t.spans) for t in tracers)} -> {spans}"
    return {"ledger": ledger, "metrics": metrics, "samples": samples}


def report(name: str, outcome: dict) -> None:
    ledger = outcome["ledger"]
    print(f"== {name}")
    for key, value in outcome["samples"].items():
        print(f"  {key}: {value}")
    rate = len(ledger.failures) / ledger.attempted
    print(f"  error_rate: {rate:.4f} ({len(ledger.failures)} failed of "
          f"{ledger.attempted} attempted operations)")
    for label, problems in ledger.failures:
        for problem in problems:
            print(f"  FAILED {label}: {problem}")
    for metric, (value, unit) in outcome["metrics"].items():
        shown = (f"{value:>16d}" if isinstance(value, int)
                 else f"{value:>16.6f}")
        print(f"  {metric:<28} {shown} {unit}")


def update_golden(workloads) -> None:
    golden = {}
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.inputs(DEFAULT_SEED)
        op, again = run_op(workload, inputs), run_op(workload, inputs)
        if op.problems or op.stats != again.stats:
            raise SystemExit(f"{name}: refusing to pin a failing or "
                             f"non-repeating op: {op.problems}")
        golden[name] = op.stats
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    tracing, workloads = _load()
    if args.update_golden:
        update_golden(workloads)
        return 0
    if args.all:
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)} (or pass --all)")
    golden = json.loads(GOLDEN.read_text())
    attempted = failed = 0
    metrics = {}
    for name in names:
        outcome = run_workload(tracing, workloads.WORKLOADS[name], args.seed,
                               args.seconds, bool(args.trace), golden[name])
        report(name, outcome)
        attempted += outcome["ledger"].attempted
        failed += len(outcome["ledger"].failures)
        prefix = f"{name}." if args.all else ""
        metrics.update({f"{prefix}{metric}": {"value": value, "unit": unit}
                        for metric, (value, unit)
                        in outcome["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
