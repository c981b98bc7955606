"""The four benchmark workloads: inputs, one operation, and its checks.

Every workload is a closed loop: the benchmark process issues each
call after the previous one returns, with no threads or subprocesses.
An *operation* is one set-up phase (build the machines or fleet, boot
their TEE services, attest where the workload needs it) followed by
one traffic phase.  Host seconds of both phases are measured separately; simulated
(virtual) outputs are returned as ``stats`` and are only ever a
correctness check, never a performance metric.

``inputs(seed)`` permutes a fixed multiset of inputs (app to tenant,
profile order, call sizes, payload bytes), so every seed does the same
amount of work and runs on different seeds compare.  The exception is
chaos-churn, whose seed is the campaign seed: it only reseeds victim
payload bytes and retry jitter (a seed moves a campaign by at most one
kernel event in about 250).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.chaos.campaign import run_campaign
from repro.evalkit.serve_sweep import SWEEP_QUOTA
from repro.fleet import Fleet, LiteProfile
from repro.serve import ServeEngine, jobs
from repro.system import Machine, MachineConfig
from repro.workloads import MatrixAdd, rodinia_workloads

from perfbench.tracing import Tracer, setup_boundaries

BACKENDS = ("hix", "gpucc")
KIB = 1024


def _normal(stats):
    """JSON round trip, so stats compare equal to the committed golden."""
    return json.loads(json.dumps(stats))


def _report_stats(report) -> Dict:
    """Simulated outputs of one ServeReport (per-tenant rows in order)."""
    return {
        "makespan": report.makespan,
        "context_switches": report.context_switches,
        "gpu_utilization": report.gpu_utilization,
        "tenants": [[t.name, t.submitted, t.served, t.finish_time, t.waits]
                    for t in report.tenants],
    }


def _unserved(report, where: str) -> List[str]:
    return [f"{where}: {t.name} served {t.served} of {t.submitted}"
            for t in report.tenants
            if t.served != t.submitted or t.submitted == 0]


@dataclass
class OpResult:
    """One operation: host seconds, served work, simulated outputs."""

    setup_s: float
    traffic_s: float
    #: Requests served: serve/fleet report ``served`` totals, or calls.
    requests: int
    #: Host seconds per latency sample (the traffic phase, or one call).
    latencies_s: List[float]
    stats: Dict
    #: Failed seed-independent invariants; empty when the op is correct.
    problems: List[str] = field(default_factory=list)
    #: sealed-io only: per-backend call seconds and plaintext bytes moved.
    per_backend: Dict[str, Dict] = field(default_factory=dict)
    #: Host seconds of the whole operation, set by the caller.
    wall_s: float = 0.0
    #: Host-speed factor and reference-loop seconds (set by the caller).
    scale: float = 1.0
    reference_s: float = 0.0


class ServeSealed:
    """8 tenants x one Rodinia app each, on a HIX and a GPU-CC machine."""

    name = "serve-sealed"
    why = ("repeated request shapes engage the timing memo and sealed "
           "batch coalescing; serve-engine and memo changes show here")
    APPS = ("backprop", "bfs", "gaussian", "hotspot", "lud",
            "needleman-wunsch", "nn", "pathfinder")
    INFLATION = 256.0

    def inputs(self, seed: int):
        by_name = {w.name: w for w in rodinia_workloads()}
        rng = random.Random(seed)
        apps = list(self.APPS)
        rng.shuffle(apps)
        payload_seeds = list(range(len(apps)))
        rng.shuffle(payload_seeds)
        return [(by_name[app], payload_seed)
                for app, payload_seed in zip(apps, payload_seeds)]

    def run(self, inputs) -> OpResult:
        start = time.perf_counter()
        engines = []
        for backend in BACKENDS:
            machine = Machine(MachineConfig(data_inflation=self.INFLATION,
                                            backend=backend))
            engines.append(ServeEngine(machine, scheduler="fair",
                                       max_tenants=len(inputs),
                                       default_quota=SWEEP_QUOTA))
        ready = time.perf_counter()
        reports = []
        for engine in engines:
            machine = engine.machine
            for index, (app, payload_seed) in enumerate(inputs):
                client = engine.add_tenant(f"user{index}")
                jobs.submit_workload(client, app, self.INFLATION,
                                     machine.costs, seed=payload_seed,
                                     backend=machine.config.backend)
            reports.append(engine.run())
        done = time.perf_counter()
        stats, problems, served = {}, [], 0
        for backend, report in zip(BACKENDS, reports):
            stats[backend] = _report_stats(report)
            stats[backend]["apps"] = [app.name for app, _ in inputs]
            problems += _unserved(report, backend)
            served += sum(t.served for t in report.tenants)
        return OpResult(ready - start, done - ready, served, [done - ready],
                        _normal(stats), problems)


class FleetLite:
    """5,000 lite sessions on a 4-machine least-loaded FIFO fleet."""

    name = "fleet-lite"
    why = ("no crypto and no memo: event kernel and router placement do "
           "the work, so sim and fleet changes show and data-path ones "
           "must not")
    SESSIONS = 5_000
    MACHINES = 4
    INFLATION = 8192.0
    #: Workloads whose analytic profiles the sessions replay, coalesced
    #: to 4 units each.
    PROFILES = ("matrix-add-2048", "nn", "pathfinder", "gaussian")

    def inputs(self, seed: int):
        sources = {w.name: w for w in rodinia_workloads()}
        sources["matrix-add-2048"] = MatrixAdd(2048)
        profiles = [LiteProfile.from_workload(sources[name]).coalesced(4)
                    for name in self.PROFILES]
        order = [index % len(profiles) for index in range(self.SESSIONS)]
        random.Random(seed).shuffle(order)
        return [profiles[index] for index in order]

    def run(self, inputs) -> OpResult:
        start = time.perf_counter()
        fleet = Fleet(machines=self.MACHINES, scheduler="fifo",
                      policy="least-loaded",
                      machine_config=MachineConfig(
                          data_inflation=self.INFLATION))
        ready = time.perf_counter()
        for index, profile in enumerate(inputs):
            fleet.add_lite_session(f"lite{index}", profile)
        report = fleet.run()
        done = time.perf_counter()
        merged = report.merged
        problems = _unserved(merged, "fleet")
        if len(merged.tenants) != len(inputs):
            problems.append(f"fleet: {len(merged.tenants)} sessions reported "
                            f"for {len(inputs)} admitted")
        rows = repr([(t.name, t.served, t.finish_time, t.waits)
                     for t in merged.tenants]).encode()
        stats = {
            "makespan": merged.makespan,
            "context_switches": merged.context_switches,
            "gpu_utilization": merged.gpu_utilization,
            "machines": [[name, r.makespan, r.context_switches,
                          r.gpu_utilization, len(r.tenants)]
                         for name, r in zip(report.machine_names,
                                            report.reports)],
            "served": sum(t.served for t in merged.tenants),
            "tenants_sha256": hashlib.sha256(rows).hexdigest(),
        }
        return OpResult(ready - start, done - ready, stats["served"],
                        [done - ready], _normal(stats), problems)


class SealedIo:
    """Attested sessions on both backends, then a stream of sealed calls."""

    name = "sealed-io"
    why = ("the sealed data path alone (copies both ways plus launches): "
           "crypto, MMU/IOMMU/DMA, PCIe, GPU and client changes show here")
    #: Call sizes: 4 KiB to 1 MiB, four of each.
    SIZES = tuple(size * KIB for size in (4, 16, 64, 256, 1024)) * 4
    LAUNCH_WORDS = 256

    def inputs(self, seed: int):
        items = [(size, random.Random(index).randbytes(size))
                 for index, size in enumerate(self.SIZES)]
        random.Random(seed).shuffle(items)
        return items

    def run(self, inputs) -> OpResult:
        start = time.perf_counter()
        sessions = []
        for backend in BACKENDS:
            machine = Machine(MachineConfig(backend=backend))
            api = machine.secure_session(machine.boot_secure(), name="io")
            api.cuCtxCreate()
            sessions.append((backend, machine, api,
                             api.cuMemAlloc(max(self.SIZES)),
                             api.cuModuleLoad(["builtin.memset32"]),
                             api.cuMemAlloc(4 * self.LAUNCH_WORDS)))
        ready = time.perf_counter()
        clock = time.perf_counter
        stats, problems, per_backend, latencies = {}, [], {}, []
        for backend, machine, api, buf, module, scratch in sessions:
            calls, sim, moved = [], [], 0
            for size, payload in inputs:
                t0, v0 = clock(), machine.clock.now
                api.cuMemcpyHtoD(buf, payload)
                t1, v1 = clock(), machine.clock.now
                out = api.cuMemcpyDtoH(buf, size)
                t2, v2 = clock(), machine.clock.now
                api.cuLaunchKernel(module, "builtin.memset32",
                                   [scratch, self.LAUNCH_WORDS, size])
                t3, v3 = clock(), machine.clock.now
                if bytes(out[:size]) != payload:
                    problems.append(f"{backend}: DtoH of {size} bytes did "
                                    "not return the bytes written")
                calls += [t1 - t0, t2 - t1, t3 - t2]
                sim.append([size, v1 - v0, v2 - v1, v3 - v2])
                moved += 2 * size
            per_backend[backend] = {"call_s": calls, "bytes": moved}
            latencies += calls
            stats[backend] = sim
        # Traffic is the host time inside the calls, without the checks.
        return OpResult(ready - start, sum(latencies), len(latencies),
                        latencies, _normal(stats), problems, per_backend)


class ChaosChurn:
    """The churn-reset campaign on HIX, then on GPU-CC."""

    name = "chaos-churn"
    why = ("the only workload running retries, session re-establishment, "
           "breakers, fault injection and the audit/SLO/alert plane")
    CAMPAIGN = "churn-reset"

    def inputs(self, seed: int):
        return seed

    def run(self, inputs) -> OpResult:
        # The campaign builds its fresh machines itself, so set-up is
        # the host time spent inside machine construction and service
        # boot, measured at those two entry points; it is also part of
        # the traffic phase, which is the whole campaign pair.
        start = time.perf_counter()
        with Tracer(setup_boundaries()) as tracer:
            results = [run_campaign(self.CAMPAIGN, inputs, backend)
                       for backend in BACKENDS]
        done = time.perf_counter()
        setup = sum(end - begin for _, begin, end, parent in tracer.spans
                    if parent < 0)
        stats, problems, served = {}, [], 0
        for backend, result in zip(BACKENDS, results):
            if not result.ok:
                problems.append(f"{backend}: campaign verdict "
                                f"security={result.security_ok} "
                                f"fairness={result.fairness_ok} "
                                f"detection={result.detection_ok}")
            stats[backend] = {
                "ok": [result.security_ok, result.fairness_ok,
                       result.detection_ok],
                "faults_fired": result.fault_kinds_fired(),
                "detection_latency": [check.latency
                                      for check in result.detection],
                "baseline": _report_stats(result.baseline),
                "chaos": _report_stats(result.chaos),
            }
            served += sum(t.served for report in (result.baseline,
                                                  result.chaos)
                          for t in report.tenants)
        return OpResult(setup, done - start, served, [done - start],
                        _normal(stats), problems)


WORKLOADS = {w.name: w for w in (ServeSealed(), FleetLite(), SealedIo(),
                                 ChaosChurn())}
