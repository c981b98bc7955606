"""Command-line interface: ``python -m repro <command>``.

Gives downstream users one entry point to every experiment::

    python -m repro tables                 # Tables 1-5
    python -m repro figures 7              # regenerate Figure 7
    python -m repro attacks                # the Section 5.5 attack matrix
    python -m repro ablations              # design-choice ablations
    python -m repro run pathfinder --mode hix   # one workload, w/ breakdown
    python -m repro serve --users 4        # multi-tenant serving demo
    python -m repro backends compare       # HIX vs GPU-CC, side by side
    python -m repro chaos --campaign churn-reset  # fault-injection campaign
    python -m repro trace serve --users 2  # export a Perfetto profile
    python -m repro metrics                # metrics registry snapshot
    python -m repro list                   # available workloads
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _workload_by_name(name: str):
    from repro.workloads import MatrixAdd, MatrixMul, rodinia_workloads
    catalog = {w.name: w for w in rodinia_workloads()}
    catalog.update({w.app_code.lower(): w for w in rodinia_workloads()})
    for dim in (2048, 4096, 8192, 11264):
        catalog[f"matrix-add-{dim}"] = MatrixAdd(dim)
        catalog[f"matrix-mul-{dim}"] = MatrixMul(dim)
    workload = catalog.get(name.lower())
    if workload is None:
        raise SystemExit(
            f"unknown workload {name!r}; try: {', '.join(sorted(catalog))}")
    return workload


def cmd_tables(args) -> int:
    from repro.evalkit.tables import all_tables
    for table in all_tables():
        print(table.render())
        print()
    return 0


def cmd_figures(args) -> int:
    from repro.evalkit import figures
    which = args.figure
    if which in ("6", "all"):
        panels = figures.figure6(inflation=args.inflation)
        print(panels["add"].render())
        print()
        print(panels["mul"].render())
        print()
    if which in ("7", "all"):
        print(figures.figure7(inflation=args.inflation).render())
        print()
    if which in ("8", "all"):
        print(figures.figure8().render())
        print()
    if which in ("9", "all"):
        print(figures.figure9().render())
        print()
    return 0


def cmd_attacks(args) -> int:
    from repro.backends import backend_names
    from repro.evalkit.security import (
        render_attack_matrix,
        run_attack_matrix,
    )
    backends = backend_names() if args.backend == "all" else [args.backend]
    ok = True
    for index, backend in enumerate(backends):
        if index:
            print()
        results = run_attack_matrix(backend)
        print(render_attack_matrix(results))
        ok = ok and all(r.defended for r in results)
    return 0 if ok else 1


def cmd_backends(args) -> int:
    """Compare the TEE backends: timing, serving curve, attack matrix."""
    from repro.evalkit.backends import compare_backends
    workload = _workload_by_name(args.workload)
    users = sorted({int(n) for n in args.users.split(",") if n})
    comparison = compare_backends(workload, users=users,
                                  inflation=args.inflation,
                                  with_serve=not args.no_serve,
                                  with_attacks=not args.no_attacks)
    print(comparison.render())
    if comparison.attacks and not comparison.all_defended:
        return 1
    return 0


def cmd_ablations(args) -> int:
    from repro.evalkit.figures import ablation_pipelining, ablation_single_copy
    print(ablation_pipelining(inflation=args.inflation).render())
    print()
    print(ablation_single_copy(inflation=args.inflation).render())
    return 0


def cmd_run(args) -> int:
    from repro.evalkit.harness import run_single
    from repro.sim.trace import fastpath_counters
    from repro.system import Machine, MachineConfig
    workload = _workload_by_name(args.workload)
    machine = Machine(MachineConfig(data_inflation=args.inflation))
    result = run_single(workload, args.mode, args.inflation, machine=machine)
    print(f"{workload.name} on {args.mode}: "
          f"{result.milliseconds:.3f} ms simulated")
    for category, seconds in sorted(result.breakdown.items(),
                                    key=lambda kv: -kv[1]):
        print(f"  {category:<16} {seconds * 1e3:10.3f} ms")
    print(f"  launches: {result.actual_launches} functional "
          f"/ {result.modeled_launches} modeled")
    counters = fastpath_counters(machine)
    lookups = counters["tlb_hits"] + counters["tlb_misses"]
    hit_rate = counters["tlb_hits"] / lookups if lookups else 0.0
    print("  fast path (wall-clock only; no effect on simulated time):")
    print(f"    tlb: {counters['tlb_hits']} hits / "
          f"{counters['tlb_misses']} misses ({hit_rate:.1%} hit rate)")
    print(f"    coalesced runs: {counters['mmu_coalesced_runs']} mmu / "
          f"{counters['iommu_coalesced_runs']} iommu")
    print(f"    dma bytes: {counters['dma_bytes_read']} read / "
          f"{counters['dma_bytes_written']} written")
    print(f"    zero-copy reads: {counters['phys_zero_copy_bytes']} bytes; "
          f"pages dropped by cleanse: {counters['phys_pages_dropped']}")
    print(f"    engine: {counters['engine_events_processed']} events, "
          f"{counters['engine_ctx_switches']} ctx switches, "
          f"{counters['engine_deadline_expiries']} deadline expiries")
    return 0


def cmd_serve(args) -> int:
    """Serve N tenants through the sealed path and report the schedule."""
    from repro.evalkit.serve_sweep import (
        fair_crosscheck,
        serve_figure,
        serve_run,
    )
    workload = _workload_by_name(args.workload)
    report = serve_run(workload, args.users, scheduler=args.scheduler,
                       inflation=args.inflation, backend=args.backend)
    print(report.render())
    if args.users > 1:
        print()
        users = sorted({1, max(args.users // 2, 1), args.users})
        print(serve_figure(workload, users=users, scheduler=args.scheduler,
                           inflation=args.inflation,
                           backend=args.backend).render())
        print()
        print(fair_crosscheck(workload, args.users).render())
    return 0


def cmd_fleet(args) -> int:
    """Serve a session population over a routed multi-machine fleet."""
    from repro.evalkit.fleet_sweep import fleet_crosscheck
    from repro.evalkit.serve_sweep import SWEEP_QUOTA
    from repro.fleet import Fleet, LiteProfile
    from repro.serve.jobs import submit_workload
    from repro.system import MachineConfig
    workload = _workload_by_name(args.workload)
    config = MachineConfig(data_inflation=args.inflation,
                           backend=args.backend)
    fleet = Fleet(machines=args.machines, scheduler=args.scheduler,
                  policy=args.policy, machine_config=config,
                  max_tenants=max(args.users, 1),
                  default_quota=SWEEP_QUOTA)
    costs = fleet.machines[0].machine.costs
    for index in range(args.users):
        client = fleet.add_session(f"user{index}")
        submit_workload(client, workload, args.inflation, costs, seed=index,
                        backend=args.backend)
    if args.lite:
        profile = LiteProfile.from_workload(workload, costs)
        if args.lite_max_units:
            profile = profile.coalesced(args.lite_max_units)
        fleet.add_lite_sessions(profile, args.lite, prefix="lite")
    if args.migrate:
        if args.machines < 2 or not args.users:
            raise SystemExit("--migrate needs >= 2 machines and >= 1 user")
        tenant = "user0"
        source = fleet.router.machine_of(tenant)
        fleet.plan_migration(tenant,
                             target=(source + 1) % args.machines,
                             at=args.migrate_at)
    report = fleet.run()
    print(report.render())
    if args.migrate:
        for record in report.migrations:
            plan = record.plan
            status = (f"completed at {record.landed_at * 1e3:.3f} ms, "
                      f"{record.requests_moved} request(s) moved"
                      if record.completed else
                      "not fired (stream finished before the drain point)")
            print(f"migration {plan.tenant}: m{plan.source} -> "
                  f"m{plan.target} at {plan.at * 1e3:.3f} ms: {status}")
    if args.crosscheck and args.users:
        print()
        print(fleet_crosscheck(workload, args.users, machines=args.machines,
                               scheduler=args.scheduler, policy=args.policy,
                               inflation=args.inflation).render())
    return 0


def cmd_trace(args) -> int:
    """Run a demo/serve workload under the span tracer; export profiles."""
    from repro.evalkit.profiles import profile_serve, profile_single
    workload = _workload_by_name(args.workload)
    if args.what == "serve":
        artifact = profile_serve(workload, args.users,
                                 scheduler=args.scheduler,
                                 inflation=args.inflation,
                                 out_dir=args.out)
        print(artifact.result.render())
    else:
        artifact = profile_single(workload, args.mode, args.inflation,
                                  out_dir=args.out)
        result = artifact.result
        print(f"{workload.name} on {args.mode}: "
              f"{result.milliseconds:.3f} ms simulated")
    print(artifact.describe())
    return 0


def cmd_metrics(args) -> int:
    """Run a workload, then print the metrics registry snapshot."""
    from repro.evalkit.harness import run_single
    from repro.obs import metrics as obs_metrics
    from repro.obs.timeseries import TimeSeriesSampler
    from repro.system import Machine, MachineConfig
    obs_metrics.reset_registry()
    workload = _workload_by_name(args.workload)
    machine = Machine(MachineConfig(data_inflation=args.inflation))
    sampler = None
    if args.window:
        sampler = TimeSeriesSampler(width=args.window * 1e-3,
                                    registry=obs_metrics.registry())
        sampler.attach(machine.clock)
    run_single(workload, args.mode, args.inflation, machine=machine)
    registry = obs_metrics.registry()
    if args.json:
        import json
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    else:
        print(registry.render())
    if sampler is not None:
        sampler.finalize(machine.clock.now)
        print()
        print(f"windowed rates ({args.window:g} ms windows):")
        for name in sampler.names():
            series = sampler.counter_rate_series(name)
            if not any(rate for _, rate in series):
                continue
            points = "  ".join(f"{start * 1e3:.1f}ms:{rate:,.0f}/s"
                               for start, rate in series if rate)
            print(f"  {name:<36} {points}")
    return 0


def cmd_costs(args) -> int:
    from dataclasses import fields
    from repro.sim.costs import CostModel
    costs = CostModel()
    print("Calibrated cost model (repro.sim.costs.CostModel):")
    for field in fields(CostModel):
        if field.name == "extras":
            continue
        value = getattr(costs, field.name)
        if "bandwidth" in field.name:
            print(f"  {field.name:<32} {value / (1 << 30):8.2f} GB/s")
        elif isinstance(value, float):
            print(f"  {field.name:<32} {value * 1e6:10.1f} us")
        else:
            print(f"  {field.name:<32} {value}")
    return 0


def cmd_report(args) -> int:
    """Assemble benchmarks/out/*.txt into one experiment report."""
    import pathlib
    out_dir = pathlib.Path(args.artifacts)
    artifacts = sorted(out_dir.glob("*.txt"))
    if not artifacts:
        print(f"no artifacts in {out_dir}; run "
              f"`pytest benchmarks/ --benchmark-only` first")
        return 1
    for path in artifacts:
        print(path.read_text())
        print("-" * 72)
    return 0


def cmd_validate(args) -> int:
    from repro.evalkit.validation import validate_reproduction
    report = validate_reproduction(inflation=args.inflation,
                                   progress=lambda msg: print(msg))
    print()
    print(report.render())
    return 0 if report.all_hold else 1


def cmd_slo(args) -> int:
    """Serve a workload with telemetry, evaluate SLOs, report budgets."""
    from repro.evalkit.serve_sweep import serve_run
    from repro.obs import metrics as obs_metrics
    from repro.obs.audit import audit_log, reset_audit_log
    from repro.obs.dashboard import export_dashboard
    from repro.obs.slo import AlertManager, SloObjective
    from repro.obs.timeseries import TimeSeriesSampler
    obs_metrics.reset_registry()
    reset_audit_log()
    workload = _workload_by_name(args.workload)
    sampler = TimeSeriesSampler(width=args.window * 1e-3,
                                registry=obs_metrics.registry())
    report = serve_run(workload, args.users, scheduler=args.scheduler,
                       inflation=args.inflation, backend=args.backend,
                       telemetry=sampler)
    objective = SloObjective(
        availability=args.availability,
        latency_target=(args.latency_target_ms * 1e-3
                        if args.latency_target_ms is not None else None))
    manager = AlertManager(
        sampler,
        {f"user{index}": objective for index in range(args.users)},
        audit=audit_log())
    slo_report = manager.report()
    print(report.render())
    print()
    print(slo_report.render())
    if args.dashboard:
        paths = export_dashboard(args.dashboard, sampler, report=slo_report,
                                 audit=audit_log(),
                                 title=f"{workload.name} x{args.users} "
                                       f"({args.backend})")
        print()
        for kind, path in sorted(paths.items()):
            print(f"  wrote {kind}: {path}")
    if args.expect_alert:
        fired = len(slo_report.alerts)
        print(f"\nexpected >= 1 alert: {fired} fired "
              f"-> {'OK' if fired else 'MISSING'}")
        return 0 if fired else 1
    return 0


def cmd_alerts(args) -> int:
    """Run a chaos campaign; print its alert/audit timeline and the
    detection verdict (exit status follows detection)."""
    from repro.chaos import run_campaign
    from repro.obs.audit import audit_log
    result = run_campaign(args.campaign, seed=args.seed,
                          backend=args.backend)
    print(f"campaign '{result.campaign}' (seed={result.seed}, "
          f"backend={result.backend})")
    print(f"\nalerts ({len(result.alerts)}):")
    for alert in result.alerts:
        print(f"  {alert.render()}")
    if not result.alerts:
        print("  none")
    print(f"\ndetection (bound {result.detection_bound * 1e3:.1f} ms):")
    for check in result.detection:
        print(f"  {check.render()}")
    print("\naudit tail:")
    print(audit_log().render(limit=args.audit_tail))
    print(f"\ndetection verdict: "
          f"{'PASS' if result.detection_ok else 'FAIL'}")
    return 0 if result.detection_ok else 1


def cmd_chaos(args) -> int:
    """Run a named chaos campaign and print the three-sided verdict."""
    from repro.chaos import campaign_catalog, run_campaign
    if args.list:
        catalog = campaign_catalog()
        print("chaos campaigns:")
        for name in sorted(catalog):
            print(f"  {name:<16} {catalog[name]}")
        return 0
    result = run_campaign(args.campaign, seed=args.seed,
                          backend=args.backend)
    print(result.render())
    return 0 if result.ok else 1


def cmd_list(args) -> int:
    from repro.workloads import MATRIX_SIZES, rodinia_workloads
    print("Rodinia applications (Table 5):")
    for workload in rodinia_workloads():
        print(f"  {workload.name:<18} ({workload.app_code}) "
              f"{workload.problem_desc}")
    print("Matrix microbenchmarks (Table 4):")
    for dim in MATRIX_SIZES:
        print(f"  matrix-add-{dim}, matrix-mul-{dim}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Light: the harness loads no other evalkit module.
    from repro.backends import backend_names
    from repro.evalkit.harness import DEFAULT_INFLATION, MODES
    from repro.serve.scheduler import SCHEDULER_NAMES
    backend_choices = list(backend_names())

    parser = argparse.ArgumentParser(
        prog="repro",
        description="HIX (ASPLOS'19) reproduction: experiments and demos")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables 1-5").set_defaults(
        fn=cmd_tables)

    figures = sub.add_parser("figures", help="regenerate Figures 6-9")
    figures.add_argument("figure", choices=["6", "7", "8", "9", "all"],
                         nargs="?", default="all")
    figures.add_argument("--inflation", type=float,
                         default=DEFAULT_INFLATION)
    figures.set_defaults(fn=cmd_figures)

    attacks = sub.add_parser("attacks",
                             help="execute the Section 5.5 attack matrix")
    attacks.add_argument("--backend", choices=backend_choices + ["all"],
                         default="hix",
                         help="TEE backend to run the secure leg on "
                         "('all' runs the matrix once per backend)")
    attacks.set_defaults(fn=cmd_attacks)

    backends = sub.add_parser(
        "backends", help="compare the TEE backends (HIX vs GPU-CC): "
        "single-user timing, sealed-path serving curve, attack verdicts")
    backends.add_argument("action", choices=["compare"])
    backends.add_argument("--workload", default="backprop")
    backends.add_argument("--users", default="1,2,4",
                          help="comma-separated tenant counts for the "
                          "serving sweep")
    backends.add_argument("--inflation", type=float,
                          default=DEFAULT_INFLATION)
    backends.add_argument("--no-serve", action="store_true",
                          help="skip the multi-tenant serving sweep")
    backends.add_argument("--no-attacks", action="store_true",
                          help="skip the attack matrices")
    backends.set_defaults(fn=cmd_backends)

    ablations = sub.add_parser("ablations", help="design-choice ablations")
    ablations.add_argument("--inflation", type=float,
                           default=DEFAULT_INFLATION)
    ablations.set_defaults(fn=cmd_ablations)

    run = sub.add_parser("run", help="run one workload")
    run.add_argument("workload")
    run.add_argument("--mode", choices=MODES, default="hix")
    run.add_argument("--inflation", type=float, default=DEFAULT_INFLATION)
    run.set_defaults(fn=cmd_run)

    serve = sub.add_parser(
        "serve", help="multi-tenant serving demo (Figures 8/9 through "
        "the sealed protocol path)")
    serve.add_argument("--users", type=int, default=4)
    serve.add_argument("--workload", default="backprop")
    serve.add_argument("--scheduler", choices=SCHEDULER_NAMES,
                       default="fair")
    serve.add_argument("--inflation", type=float, default=DEFAULT_INFLATION)
    serve.add_argument("--backend", choices=backend_choices, default="hix",
                       help="TEE backend the machine boots")
    serve.set_defaults(fn=cmd_serve)

    # Light module (dataclasses + zlib only) — safe to import eagerly
    # for the choices list without dragging in the serve stack.
    from repro.fleet.router import POLICY_NAMES
    fleet = sub.add_parser(
        "fleet", help="cluster-scale serving: M machines behind a "
        "placement router on one event clock")
    fleet.add_argument("--machines", type=int, default=4)
    fleet.add_argument("--users", type=int, default=8,
                       help="full-crypto sessions routed over the fleet")
    fleet.add_argument("--workload", default="backprop")
    fleet.add_argument("--policy", choices=list(POLICY_NAMES),
                       default="least-loaded")
    fleet.add_argument("--scheduler", choices=SCHEDULER_NAMES,
                       default="fair")
    fleet.add_argument("--inflation", type=float, default=DEFAULT_INFLATION)
    fleet.add_argument("--backend", choices=backend_choices, default="hix",
                       help="TEE backend every fleet machine boots")
    fleet.add_argument("--lite", type=int, default=0, metavar="N",
                       help="additionally admit N lite (analytic-profile) "
                       "sessions")
    fleet.add_argument("--lite-max-units", type=int, default=0,
                       help="coalesce each lite profile to at most this "
                       "many units (0 = uncoalesced)")
    fleet.add_argument("--migrate", action="store_true",
                       help="demo: drain user0 off its machine mid-run and "
                       "re-establish it on the next one")
    fleet.add_argument("--migrate-at", type=float, default=0.010,
                       help="virtual seconds at which the demo migration "
                       "drain begins")
    fleet.add_argument("--crosscheck", action="store_true",
                       help="also pin the run against the per-machine "
                       "analytic multi-user model")
    fleet.set_defaults(fn=cmd_fleet)

    trace = sub.add_parser(
        "trace", help="run under the span tracer and export a "
        "Perfetto-loadable profile")
    trace.add_argument("what", choices=["demo", "serve"],
                       help="'demo': one single-user run; 'serve': a "
                       "multi-tenant serving run with per-tenant tracks")
    trace.add_argument("--workload", default="backprop")
    trace.add_argument("--mode", choices=MODES, default="hix")
    trace.add_argument("--users", type=int, default=2)
    trace.add_argument("--scheduler", choices=SCHEDULER_NAMES,
                       default="fair")
    trace.add_argument("--inflation", type=float, default=DEFAULT_INFLATION)
    trace.add_argument("--out", default="benchmarks/out/profiles",
                       help="directory for the exported artifacts")
    trace.set_defaults(fn=cmd_trace)

    metrics = sub.add_parser(
        "metrics", help="run one workload and print the metrics registry")
    metrics.add_argument("--workload", default="backprop")
    metrics.add_argument("--mode", choices=MODES, default="hix")
    metrics.add_argument("--inflation", type=float,
                         default=DEFAULT_INFLATION)
    metrics.add_argument("--json", action="store_true",
                         help="print the snapshot as JSON")
    metrics.add_argument("--window", type=float, default=0.0,
                         help="also print windowed counter rates at this "
                              "virtual-time window width (ms); 0 = off")
    metrics.set_defaults(fn=cmd_metrics)

    slo = sub.add_parser(
        "slo", help="serve a workload with windowed telemetry and "
        "evaluate per-tenant SLOs (error budgets, burn rates, alerts)")
    slo.add_argument("--workload", default="backprop")
    slo.add_argument("--users", type=int, default=2)
    slo.add_argument("--scheduler", choices=SCHEDULER_NAMES,
                     default="fair")
    slo.add_argument("--inflation", type=float, default=DEFAULT_INFLATION)
    slo.add_argument("--backend", choices=backend_choices, default="hix")
    slo.add_argument("--window", type=float, default=1.0,
                     help="window width in virtual milliseconds")
    slo.add_argument("--availability", type=float, default=0.999,
                     help="availability objective (0-1)")
    slo.add_argument("--latency-target-ms", type=float, default=None,
                     help="p99 latency target in virtual ms (None = off)")
    slo.add_argument("--dashboard", default=None, metavar="DIR",
                     help="export timeseries.json + dashboard.html + "
                          "audit.jsonl to DIR")
    slo.add_argument("--expect-alert", action="store_true",
                     help="exit nonzero unless at least one alert fired "
                          "(CI smoke for the alert pipeline)")
    slo.set_defaults(fn=cmd_slo)

    alerts = sub.add_parser(
        "alerts", help="run a chaos campaign and print its alert/audit "
        "timeline plus the fault-detection verdict")
    alerts.add_argument("--campaign", default="smoke")
    alerts.add_argument("--seed", type=int, default=0)
    alerts.add_argument("--backend", choices=backend_choices, default=None)
    alerts.add_argument("--audit-tail", type=int, default=40,
                        help="audit events to print")
    alerts.set_defaults(fn=cmd_alerts)

    chaos = sub.add_parser(
        "chaos", help="run a fault-injection campaign against the "
        "serving stack and assert the three-sided verdict "
        "(security holds AND victim service quality holds AND every "
        "fault is detected by an alert or audit event in bounded "
        "virtual time)")
    chaos.add_argument("--campaign", default="churn-reset",
                       help="campaign name (see --list)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--backend", choices=backend_choices, default=None,
                       help="override the campaign's TEE backend")
    chaos.add_argument("--list", action="store_true",
                       help="list known campaigns and exit")
    chaos.set_defaults(fn=cmd_chaos)

    sub.add_parser("list", help="list available workloads").set_defaults(
        fn=cmd_list)

    validate = sub.add_parser(
        "validate", help="grade every paper claim against measured values")
    validate.add_argument("--inflation", type=float,
                          default=DEFAULT_INFLATION)
    validate.set_defaults(fn=cmd_validate)

    sub.add_parser("costs", help="print the calibrated cost model"
                   ).set_defaults(fn=cmd_costs)

    report = sub.add_parser(
        "report", help="assemble benchmark artifacts into one report")
    report.add_argument("--artifacts", default="benchmarks/out")
    report.set_defaults(fn=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
