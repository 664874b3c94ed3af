"""Command-line interface: run jobs, experiments, and traces.

Usage (after install)::

    python -m repro frameworks
    python -m repro fio --framework delibak --rw randread --bs 4096 --iodepth 4
    python -m repro experiment table2
    python -m repro trace --framework delibak --rw randwrite
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .bench import breakdown, cachebench, experiments, qosbench
from .deliba import FRAMEWORKS, PoolSpec, build_framework, framework_by_name
from .units import kib
from .workloads import FioJob

#: Experiment name -> callable.
EXPERIMENTS = {
    "breakdown": breakdown.exp_breakdown,
    "cache": cachebench.exp_cache,
    "fig3": experiments.exp_fig3,
    "fig4": experiments.exp_fig4,
    "fig6": experiments.exp_fig6,
    "fig7": experiments.exp_fig7,
    "fig8": experiments.exp_fig8,
    "fig9": experiments.exp_fig9,
    "table1": experiments.exp_table1,
    "table2": experiments.exp_table2,
    "table3": experiments.exp_table3,
    "power": experiments.exp_power,
    "qos": qosbench.exp_qos,
    "realworld": experiments.exp_realworld,
    "headline": experiments.exp_headline,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DeLiBA-K reproduction: simulated storage-stack experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("frameworks", help="list the stack generations")

    fio = sub.add_parser("fio", help="run one fio-style job")
    fio.add_argument("--framework", default="delibak", choices=sorted(FRAMEWORKS))
    fio.add_argument("--rw", default="randread",
                     choices=["read", "write", "randread", "randwrite", "randrw"])
    fio.add_argument("--bs", type=int, default=kib(4), help="block size in bytes")
    fio.add_argument("--iodepth", type=int, default=4)
    fio.add_argument("--nrequests", type=int, default=200)
    fio.add_argument("--pool", default="replicated", choices=["replicated", "erasure"])
    fio.add_argument("--seed", type=int, default=0)
    fio.add_argument("--metrics", action="store_true",
                     help="collect and print per-layer metrics after the run")
    fio.add_argument("--cache-mode", metavar="MODE",
                     help="interpose the client block cache: pt, wt, wb, or wa")
    fio.add_argument("--cache-lines", type=int, default=512,
                     help="cache capacity in lines (with --cache-mode)")

    exp = sub.add_parser("experiment", help="reproduce one paper table/figure")
    exp.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"])

    sweep = sub.add_parser("sweep", help="parameter sweep over frameworks/workloads")
    sweep.add_argument("--frameworks", nargs="+", default=["deliba2", "delibak"],
                       choices=sorted(FRAMEWORKS))
    sweep.add_argument("--rw", nargs="+", default=["randread", "randwrite"])
    sweep.add_argument("--bs", nargs="+", type=int, default=[kib(4), kib(64)])
    sweep.add_argument("--iodepth", nargs="+", type=int, default=[1, 4])
    sweep.add_argument("--pool", default="replicated", choices=["replicated", "erasure"])
    sweep.add_argument("--csv", help="also write the grid to this CSV path")

    cache = sub.add_parser("cache", help="client block cache: mode sweep and invariants")
    cache.add_argument("--smoke", action="store_true",
                       help="seeded invariant run; exit nonzero if pass-through is not "
                            "event-identical, the hit-ratio curve dips, skew does not "
                            "help, or write-back loses to write-through on hot writes")
    cache.add_argument("--seed", type=int, default=0)
    cache.add_argument("--nrequests", type=int, default=300)

    chaos = sub.add_parser("chaos", help="fault-tolerance datapath under chaos injection")
    chaos.add_argument("--smoke", action="store_true",
                       help="small seeded crash run; exit nonzero if any I/O error "
                            "surfaces, no retry/failover fires, or runs diverge")
    chaos.add_argument("--power-loss", action="store_true",
                       help="seeded power-loss scenario: cut a primary's power "
                            "mid-run, WAL-replay it back in; exit nonzero on any "
                            "client error, missing replay, or run divergence")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--nrequests", type=int, default=300)

    csim = sub.add_parser(
        "crashsim", help="crash-point explorer: durability invariants across power cuts"
    )
    csim.add_argument("--smoke", action="store_true",
                      help="bounded matrix (replicated + EC); exit nonzero on any "
                           "durability violation, unexercised replay path, or "
                           "digest divergence between two same-seed runs")
    csim.add_argument("--seed", type=int, default=0)
    csim.add_argument("--points", type=int, default=0,
                      help="max crash points per pool kind (0 = default for mode)")
    csim.add_argument("--pool", default="both", choices=["replicated", "ec", "both"])
    csim.add_argument("--report", metavar="PATH",
                      help="also write a JSON violation report (CI artifact)")

    qos = sub.add_parser("qos", help="multi-tenant QoS: mClock fairness on shared OSD pools")
    qos.add_argument("--smoke", action="store_true",
                     help="seeded 3-tenant fairness battery vs FIFO baseline; exit "
                          "nonzero if the reservation floor, limit ceiling, 3:1 weight "
                          "split, work conservation, or run determinism fails")
    qos.add_argument("--seed", type=int, default=0)
    qos.add_argument("--tenants", type=int, default=16,
                     help="tenant count for the mixed-profile sweep (min 16)")
    qos.add_argument("--report", metavar="PATH",
                     help="also write the report to this file (CI artifact)")

    recov = sub.add_parser("recover", help="online self-healing: kill/revive under client IO")
    recov.add_argument("--smoke", action="store_true",
                       help="seeded kill+revive run (replicated and EC); exit nonzero on "
                            "any client hard-failure, read mismatch, dirty scrub, or "
                            "run divergence")
    recov.add_argument("--seed", type=int, default=0)
    recov.add_argument("--nobjects", type=int, default=24)

    gold = sub.add_parser("golden", help="check canonical runs against recorded digests")
    gold.add_argument("--update", action="store_true",
                      help="re-record the digests instead of checking them")

    replay = sub.add_parser("replay", help="replay an I/O trace file")
    replay.add_argument("trace_file")
    replay.add_argument("--framework", default="delibak", choices=sorted(FRAMEWORKS))
    replay.add_argument("--iodepth", type=int, default=4)

    from .obs.profile import PROFILE_SCENARIOS

    prof = sub.add_parser(
        "profile", help="causal tracing: critical-path attribution + resource telemetry"
    )
    prof.add_argument("scenario", nargs="?", default="randwrite",
                      choices=sorted(PROFILE_SCENARIOS))
    prof.add_argument("--framework", default="delibak", choices=sorted(FRAMEWORKS))
    prof.add_argument("--bs", type=int, default=kib(4))
    prof.add_argument("--iodepth", type=int, default=4)
    prof.add_argument("--nrequests", type=int, default=60)
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--smoke", action="store_true",
                      help="run the CI scenario grid; exit nonzero if any trace is "
                           "incomplete, inexact, schema-invalid, or nondeterministic")
    prof.add_argument("--export", metavar="PATH",
                      help="write span lanes + counter tracks as Perfetto JSON")
    prof.add_argument("--flamegraph", metavar="PATH",
                      help="write critical-path folded stacks (flamegraph.pl input)")
    prof.add_argument("--export-trees", metavar="PATH",
                      help="write the raw span forest as nested JSON")
    prof.add_argument("--prom", metavar="PATH",
                      help="write the metrics registry as Prometheus text exposition")

    health = sub.add_parser(
        "health", help="always-on cluster health: slow ops, SLO burn, root causes"
    )
    health.add_argument("scenario", nargs="?", default="randwrite",
                        choices=sorted(PROFILE_SCENARIOS))
    health.add_argument("--framework", default="delibak", choices=sorted(FRAMEWORKS))
    health.add_argument("--bs", type=int, default=kib(4))
    health.add_argument("--iodepth", type=int, default=4)
    health.add_argument("--nrequests", type=int, default=60)
    health.add_argument("--seed", type=int, default=0)
    health.add_argument("--smoke", action="store_true",
                        help="CI gate: clean run must stay HEALTH_OK and event-neutral, "
                             "chaos must flag slow ops with exact root causes, report "
                             "must be deterministic across same-seed runs")
    health.add_argument("--report", metavar="PATH",
                        help="write the deterministic JSON health report (CI artifact)")
    health.add_argument("--prom", metavar="PATH",
                        help="write the metrics registry as Prometheus text exposition")

    trace = sub.add_parser("trace", help="six-stage I/O lifecycle breakdown")
    trace.add_argument("--framework", default="delibak", choices=sorted(FRAMEWORKS))
    trace.add_argument("--rw", default="randwrite",
                       choices=["read", "write", "randread", "randwrite"])
    trace.add_argument("--bs", type=int, default=kib(4))
    trace.add_argument("--nrequests", type=int, default=50)
    trace.add_argument("--export", metavar="PATH",
                       help="write spans as Chrome trace-event JSON (chrome://tracing)")
    trace.add_argument("--export-csv", metavar="PATH",
                       help="write spans as flat CSV")
    return parser


def _cmd_frameworks() -> int:
    print(f"{'name':14s} {'label':9s} {'api':10s} {'driver':9s} {'tcp':14s} hw")
    for name in sorted(FRAMEWORKS):
        cfg = FRAMEWORKS[name]
        print(
            f"{name:14s} {cfg.label:9s} {cfg.api:10s} {cfg.driver:9s} "
            f"{cfg.client_stack.name:14s} {'yes' if cfg.hardware else 'no'}"
        )
    return 0


def _cmd_fio(args) -> int:
    cfg = framework_by_name(args.framework)
    job = FioJob("cli", args.rw, bs=args.bs, iodepth=args.iodepth, nrequests=args.nrequests)
    pool = PoolSpec(kind=args.pool)
    object_size = job.bs if pool.kind == "erasure" else None
    cache_cfg = None
    if args.cache_mode:
        from .cache import CacheConfig, parse_cache_mode

        cache_cfg = CacheConfig(
            mode=parse_cache_mode(args.cache_mode), capacity_lines=args.cache_lines
        )
    fw = build_framework(
        cfg, pool_spec=pool, object_size=object_size, seed=args.seed, metrics=args.metrics,
        cache=cache_cfg,
    )
    proc = fw.env.process(fw.run_fio(job), name=f"{cfg.name}:{job.name}")
    fw.env.run()
    if not proc.ok:
        raise proc.value
    result = proc.value
    print(f"{cfg.label}: {args.rw} bs={args.bs} iodepth={args.iodepth} x{result.ios}")
    print(f"  mean latency : {result.mean_latency_us():9.1f} us")
    for q in (50, 90, 99, 99.9):
        print(f"  p{q:<12}: {result.percentile_latency_us(q):9.1f} us")
    print(f"  throughput   : {result.throughput_mb_s():9.1f} MB/s")
    print(f"  KIOPS        : {result.kiops():9.2f}")
    if fw.cache is not None:
        s = fw.cache.stats()
        print(f"  cache [{s['mode']}]   : hit {100 * s['hit_ratio']:.1f}%  "
              f"promotions {s['promotions']}  evictions {s['evictions']}  "
              f"flushes {s['flushed_lines']}  bypasses {s['seq_bypasses']}")
    if args.metrics:
        print()
        print(fw.metrics.render(end_ns=fw.env.now))
    return 0


def _cmd_experiment(name: str) -> int:
    names = sorted(EXPERIMENTS) if name == "all" else [name]
    for n in names:
        print(EXPERIMENTS[n]().render())
        print()
    return 0


def _cmd_chaos(args) -> int:
    from .bench.chaos import chaos_smoke, exp_chaos, power_loss_smoke

    if args.power_loss:
        code, report = power_loss_smoke(seed=args.seed, nrequests=min(args.nrequests, 80))
        print(report)
        return code
    if args.smoke:
        code, report = chaos_smoke(seed=args.seed, nrequests=min(args.nrequests, 80))
        print(report)
        return code
    print(exp_chaos(seed=args.seed).render())
    return 0


def _cmd_crashsim(args) -> int:
    from .bench.crashsim import crashsim_smoke, exp_crashsim

    if args.smoke:
        code, report = crashsim_smoke(
            seed=args.seed,
            max_points=args.points or 6,
            pool=args.pool,
            report_path=args.report or "",
        )
        print(report)
        if args.report:
            print(f"[report written to {args.report}]")
        return code
    print(exp_crashsim(seed=args.seed, max_points=args.points, pool=args.pool).render())
    return 0


def _cmd_cache(args) -> int:
    from .bench.cachebench import cache_smoke, exp_cache

    if args.smoke:
        code, report = cache_smoke(seed=args.seed, nreq=min(args.nrequests, 200))
        print(report)
        return code
    print(exp_cache(seed=args.seed, nreq=args.nrequests).render())
    return 0


def _cmd_qos(args) -> int:
    from .bench.qosbench import exp_qos, qos_smoke

    if args.smoke:
        code, report = qos_smoke(seed=args.seed)
    else:
        code, report = 0, exp_qos(seed=args.seed, ntenants=args.tenants).render()
    print(report)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report + "\n")
        print(f"[report written to {args.report}]")
    return code


def _cmd_recover(args) -> int:
    from .bench.recovery import exp_recovery, recover_smoke

    if args.smoke:
        code, report = recover_smoke(seed=args.seed, nobjects=min(args.nobjects, 12))
        print(report)
        return code
    print(exp_recovery(seed=args.seed).render())
    return 0


def _cmd_golden(args) -> int:
    from .bench import golden

    if args.update:
        for name, digest in golden.record().items():
            print(f"{name}: recorded {digest}")
        return 0
    ok, lines = golden.check()
    for line in lines:
        print(line)
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    from .bench import export_csv
    from .bench.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        frameworks=args.frameworks,
        rw_modes=args.rw,
        block_sizes=args.bs,
        iodepths=args.iodepth,
        pool=args.pool,
    )
    result = run_sweep(spec)
    print(result.render())
    if args.csv:
        path = export_csv(result, args.csv)
        print(f"[csv written to {path}]")
    return 0


def _cmd_replay(args) -> int:
    from .workloads import load_trace

    cfg = framework_by_name(args.framework)
    fw = build_framework(cfg)
    bios = load_trace(args.trace_file)
    proc = fw.env.process(fw.engine.run(bios, args.iodepth))
    fw.env.run()
    result = proc.value
    print(f"{cfg.label}: replayed {result.ios} I/Os from {args.trace_file}")
    print(f"  mean latency : {result.mean_latency_us():9.1f} us")
    print(f"  throughput   : {result.throughput_mb_s():9.1f} MB/s")
    return 0


def _cmd_health(args) -> int:
    import pathlib

    from .bench.healthbench import health_smoke, run_health

    if args.smoke:
        code, text, chaos = health_smoke(seed=args.seed)
        print(text)
        if args.report:
            path = pathlib.Path(args.report)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(chaos.to_json(include_trees=True))
            print(f"[health report written to {path}]")
        return code
    report = run_health(
        args.scenario,
        framework=args.framework,
        bs=args.bs,
        iodepth=args.iodepth,
        nrequests=args.nrequests,
        seed=args.seed,
    )
    print(report.render())
    if args.report:
        path = pathlib.Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.to_json(include_trees=True))
        print(f"[health report written to {path}]")
    if args.prom:
        path = pathlib.Path(args.prom)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.prometheus)
        print(f"[prometheus exposition written to {path}]")
    return 0


def _cmd_profile(args) -> int:
    from .obs.profile import profile_smoke, run_profile

    if args.smoke:
        code, report = profile_smoke(
            export_path=args.export, flame_path=args.flamegraph, seed=args.seed
        )
        print(report)
        return code
    report = run_profile(
        args.scenario,
        framework=args.framework,
        bs=args.bs,
        iodepth=args.iodepth,
        nrequests=args.nrequests,
        seed=args.seed,
    )
    print(report.render())
    if args.export:
        print(f"[perfetto trace written to {report.export(args.export)}]")
    if args.flamegraph:
        print(f"[folded stacks written to {report.export_flamegraph(args.flamegraph)}]")
    if args.export_trees:
        print(f"[span forest written to {report.export_trees(args.export_trees)}]")
    if args.prom:
        print(f"[prometheus exposition written to {report.export_prometheus(args.prom)}]")
    return 0


def _cmd_trace(args) -> int:
    cfg = framework_by_name(args.framework)
    if not cfg.hardware:
        print("trace: lifecycle stages are instrumented for the hardware stacks",
              file=sys.stderr)
        return 2
    fw = build_framework(cfg, obs=True)
    job = FioJob("trace", args.rw, bs=args.bs, iodepth=1, nrequests=args.nrequests)
    proc = fw.env.process(fw.run_fio(job))
    fw.env.run()
    result = proc.value
    print(f"{result.ios} x {args.rw} bs={args.bs}: mean {result.mean_latency_us():.1f} us")
    print(fw.tracer.breakdown_table())
    if args.export:
        path = fw.tracer.export_chrome_trace(args.export)
        print(f"[chrome trace written to {path}]")
    if args.export_csv:
        path = fw.tracer.export_csv(args.export_csv)
        print(f"[span csv written to {path}]")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "frameworks":
        return _cmd_frameworks()
    if args.command == "fio":
        return _cmd_fio(args)
    if args.command == "experiment":
        return _cmd_experiment(args.name)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "crashsim":
        return _cmd_crashsim(args)
    if args.command == "qos":
        return _cmd_qos(args)
    if args.command == "recover":
        return _cmd_recover(args)
    if args.command == "golden":
        return _cmd_golden(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "health":
        return _cmd_health(args)
    if args.command == "trace":
        return _cmd_trace(args)
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
