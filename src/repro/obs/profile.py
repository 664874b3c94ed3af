"""End-to-end profiling runs: causal traces -> attribution report.

``run_profile`` builds a framework with the causal tracer and metrics
enabled, drives one workload scenario under the resource sampler
(``drive_scenario``, shared with the health runs), then turns the
resulting span forest into the full observability deliverable: exact
critical-path attribution per stage and resource kind, streaming latency
digests, straggler-slack accounting, continuous telemetry summaries, and
Perfetto/flamegraph exports.

This is the engine behind ``python -m repro profile`` and ``python -m
repro smoke profile``.  The attribution is *exact*: for every completed
request the per-stage nanoseconds partition the measured end-to-end
latency with no residual (``verify_exact`` raises otherwise), so shares
in the report always sum to 100%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..deliba import PoolSpec, build_framework, framework_by_name
from ..errors import BenchmarkError
from ..units import kib, mib
from ..workloads.fio import FioJob
from .critical_path import CriticalPath, aggregate_attribution, analyze, stragglers, verify_exact
from .digest import StreamingDigest
from .export import (
    export_flamegraph,
    export_perfetto,
    export_prometheus,
    export_span_trees,
    folded_stacks,
    to_perfetto,
    validate_trace_document,
)
from .sampler import (
    DEFAULT_INTERVAL_NS,
    ResourceSampler,
    install_framework_probes,
    telemetry_summary,
)

#: Message-fault probabilities for the ``chaos`` scenario (the same mix
#: as the bench chaos "lossy-fabric" schedule, so retry/backoff legs
#: reliably appear in the span trees).
_CHAOS_DROP_P = 0.02
_CHAOS_DUP_P = 0.01
_CHAOS_CORRUPT_P = 0.01


@dataclass(frozen=True)
class ProfileScenario:
    """One named profiling workload."""

    name: str
    rw: str
    pool: str = "replicated"
    #: Lossy-fabric chaos testbed (3x4 OSDs, retry policy with timeouts).
    chaos: bool = False
    description: str = ""


PROFILE_SCENARIOS: dict[str, ProfileScenario] = {
    s.name: s
    for s in (
        ProfileScenario("randread", "randread", description="random 4K reads, replicated pool"),
        ProfileScenario("randwrite", "randwrite", description="random 4K writes, replicated pool"),
        ProfileScenario("read", "read", description="sequential reads, replicated pool"),
        ProfileScenario("write", "write", description="sequential writes, replicated pool"),
        ProfileScenario("ec-read", "randread", pool="erasure",
                        description="random reads, k+m erasure pool (gather/decode path)"),
        ProfileScenario("ec-write", "randwrite", pool="erasure",
                        description="random writes, k+m erasure pool (encode/shard path)"),
        ProfileScenario("chaos", "randrw", chaos=True,
                        description="lossy fabric: drops/dups/corruption exercise retry legs"),
    )
}

#: Render order for datapath stages; anything else (root self-time,
#: future layers) sorts after these under its own name.
_STAGE_ORDER = (
    "api", "rings", "dmq", "uifd", "nbd", "daemon", "placement",
    "qdma", "accel", "fabric", "complete",
)


def _display_stage(stage: str) -> str:
    """Root self-time segments carry the op name; report them as "api"."""
    return "api" if stage in ("read", "write") else stage


@dataclass
class ProfileReport:
    """Everything one profiling run produced, plus the raw material for
    exports (span forest + metrics registry)."""

    scenario: str
    framework: str
    label: str
    rw: str
    bs: int
    iodepth: int
    ios: int
    errors: int
    complete: int
    incomplete: int
    #: Exact per-stage / per-kind attribution, ns (sums to total latency).
    by_stage: dict[str, int]
    by_kind: dict[str, int]
    folded: dict[tuple, int]
    total_digest: StreamingDigest
    stage_digests: dict[str, StreamingDigest]
    #: gating-leg name -> (fan-outs gated, total sibling slack ns).
    straggler_slack: dict[str, tuple[int, int]]
    telemetry: dict[str, dict[str, float]]
    samples_taken: int
    latencies_match: bool
    roots: list = field(repr=False)
    paths: list = field(repr=False)
    registry: object = field(repr=False)
    end_ns: int = 0

    # -- exports ------------------------------------------------------------------

    def perfetto(self) -> dict:
        return to_perfetto(self.roots, self.registry, self.end_ns)

    def export(self, path):
        return export_perfetto(self.roots, path, self.registry, self.end_ns)

    def export_flamegraph(self, path):
        return export_flamegraph(self.folded, path)

    def export_trees(self, path):
        return export_span_trees(self.roots, path)

    def export_prometheus(self, path):
        """Metrics registry as Prometheus text exposition (0.0.4)."""
        return export_prometheus(self.registry, path, self.end_ns)

    # -- rendering ----------------------------------------------------------------

    def render(self) -> str:
        total_ns = sum(self.by_stage.values())
        n = max(self.complete, 1)
        pct = self.total_digest.percentiles()
        lines = [
            f"profile {self.scenario}: {self.label} ({self.framework}) "
            f"{self.ios} x {self.rw} bs={self.bs} iodepth={self.iodepth}",
            f"  requests : {self.complete} traced complete, {self.incomplete} incomplete, "
            f"{self.errors} errors",
            f"  latency  : mean {self.total_digest.mean / 1000.0:8.1f} us   "
            f"p50 {pct['p50'] / 1000.0:8.1f}   p95 {pct['p95'] / 1000.0:8.1f}   "
            f"p99 {pct['p99'] / 1000.0:8.1f}   p999 {pct['p999'] / 1000.0:8.1f}",
            "",
            "critical-path attribution (exact: shares sum to 100.0%):",
            f"  {'stage':12s} {'total_us':>10s} {'share%':>7s} {'mean_us':>9s} "
            f"{'p50_us':>8s} {'p95_us':>8s} {'p99_us':>8s}",
        ]
        display: dict[str, int] = {}
        for stage, ns in self.by_stage.items():
            key = _display_stage(stage)
            display[key] = display.get(key, 0) + ns
        order = {name: i for i, name in enumerate(_STAGE_ORDER)}
        for stage in sorted(display, key=lambda s: (order.get(s, len(order)), s)):
            ns = display[stage]
            digest = self.stage_digests.get(stage)
            p = digest.percentiles() if digest else {"p50": 0, "p95": 0, "p99": 0}
            lines.append(
                f"  {stage:12s} {ns / 1000.0:10.1f} {100.0 * ns / total_ns if total_ns else 0.0:6.1f}% "
                f"{ns / n / 1000.0:9.2f} {p['p50'] / 1000.0:8.1f} "
                f"{p['p95'] / 1000.0:8.1f} {p['p99'] / 1000.0:8.1f}"
            )
        lines.append(
            f"  {'TOTAL':12s} {total_ns / 1000.0:10.1f} {100.0:6.1f}% {total_ns / n / 1000.0:9.2f}"
        )
        lines.append("")
        lines.append("attribution by resource kind:")
        for kind in sorted(self.by_kind, key=self.by_kind.get, reverse=True):
            ns = self.by_kind[kind]
            lines.append(
                f"  {kind:12s} {ns / 1000.0:10.1f} {100.0 * ns / total_ns if total_ns else 0.0:6.1f}%"
            )
        if self.straggler_slack:
            lines.append("")
            lines.append("straggler slack (fan-outs gated by one slow leg):")
            for leg in sorted(self.straggler_slack,
                              key=lambda g: self.straggler_slack[g][1], reverse=True):
                count, slack_ns = self.straggler_slack[leg]
                lines.append(
                    f"  {leg:12s} gated {count:4d} fan-out(s), "
                    f"sibling slack {slack_ns / 1000.0:10.1f} us total"
                )
        if self.telemetry:
            lines.append("")
            lines.append(f"resource telemetry ({self.samples_taken} samples, mean / peak):")
            for name in sorted(self.telemetry):
                stats = self.telemetry[name]
                lines.append(f"  {name:28s} {stats['mean']:10.3f} / {stats['peak']:10.3f}")
        return "\n".join(lines)


def drive_scenario(
    scn: ProfileScenario,
    job_prefix: str,
    framework: str,
    bs: int,
    iodepth: int,
    nrequests: int,
    seed: int,
    interval_ns: int,
    health=None,
):
    """Build ``scn``'s traced, metered stack and run its job, named
    ``<job_prefix>.<scenario>`` (the name seeds the workload's RNG), under
    the resource sampler; an attached ``health`` layer is polled as the
    ``health.status`` gauge, which schedules no simulation event.
    Returns ``(fw, RunResult, sampler)``."""
    cfg = framework_by_name(framework)
    if scn.chaos:
        # Lazy import: repro.bench.__init__ imports breakdown, which
        # imports this module — a module-level import would cycle.
        from ..bench.chaos import _chaos_cluster_spec
        from ..osd import FaultInjector

        cluster_spec = _chaos_cluster_spec(seed, cfg.client_stack)
        pool_spec = PoolSpec(kind="replicated", size=3)
    else:
        cluster_spec = None
        pool_spec = PoolSpec(kind=scn.pool)
    object_size = bs if pool_spec.kind == "erasure" else None
    fw = build_framework(
        cfg,
        pool_spec=pool_spec,
        cluster_spec=cluster_spec,
        object_size=object_size,
        seed=seed,
        obs=True,
        metrics=True,
        health=health,
    )
    if scn.chaos:
        FaultInjector(fw.cluster).set_message_faults(
            drop_p=_CHAOS_DROP_P, duplicate_p=_CHAOS_DUP_P, corrupt_p=_CHAOS_CORRUPT_P
        )
    job_kwargs = {"size": mib(32)} if scn.chaos else {}
    name = f"{job_prefix}.{scn.name}"
    job = FioJob(name, scn.rw, bs=bs, iodepth=iodepth, nrequests=nrequests, **job_kwargs)
    sampler = ResourceSampler(fw.env, fw.metrics, interval_ns)
    install_framework_probes(sampler, fw)
    if fw.health is not None:
        sampler.add_gauge("health.status", fw.health.poll)
    proc = fw.env.process(fw.run_fio(job), name=name)
    sampler.drive()
    if not proc.ok:
        raise proc.value
    return fw, proc.value, sampler


def run_profile(
    scenario: Union[str, ProfileScenario],
    framework: str = "delibak",
    bs: int = kib(4),
    iodepth: int = 4,
    nrequests: int = 60,
    seed: int = 0,
    interval_ns: int = DEFAULT_INTERVAL_NS,
) -> ProfileReport:
    """Run one scenario under full observability and attribute it.

    Raises :class:`BenchmarkError` if any completed request's critical
    path fails the exactness check — that invariant is the product, not
    a best-effort diagnostic.
    """
    scn = PROFILE_SCENARIOS[scenario] if isinstance(scenario, str) else scenario
    fw, result, sampler = drive_scenario(
        scn, "profile", framework, bs, iodepth, nrequests, seed, interval_ns
    )
    tracer = fw.tracer
    roots = tracer.complete_trees()
    incomplete = tracer.incomplete_trees()
    paths: list[CriticalPath] = []
    for root in roots:
        path = analyze(root)
        problem = verify_exact(path)
        if problem is not None:
            raise BenchmarkError(
                f"inexact critical path for request span {root.span_id}: {problem}"
            )
        paths.append(path)

    by_stage, by_kind, folded = aggregate_attribution(paths)
    total_digest = StreamingDigest()
    stage_digests: dict[str, StreamingDigest] = {}
    for path in paths:
        total_digest.add(path.total_ns)
        for stage, ns in path.by_stage().items():
            stage_digests.setdefault(_display_stage(stage), StreamingDigest()).add(ns)

    slack_by_leg: dict[str, tuple[int, int]] = {}
    for root in roots:
        for report in stragglers(root):
            count, total = slack_by_leg.get(report.gating.name, (0, 0))
            slack_by_leg[report.gating.name] = (
                count + 1,
                total + sum(s for _, s in report.slack),
            )

    # The trees must agree with the measured latencies sample-for-sample:
    # each completed root's duration equals the engine-recorded latency.
    latencies_match = sorted(result.latencies_ns) == sorted(r.duration_ns for r in roots)

    return ProfileReport(
        scenario=scn.name,
        framework=fw.config.name,
        label=fw.config.label,
        rw=scn.rw,
        bs=bs,
        iodepth=iodepth,
        ios=result.ios,
        errors=result.errors,
        complete=len(roots),
        incomplete=len(incomplete),
        by_stage=by_stage,
        by_kind=by_kind,
        folded=folded,
        total_digest=total_digest,
        stage_digests=stage_digests,
        straggler_slack=slack_by_leg,
        telemetry=telemetry_summary(fw.metrics, fw.env.now),
        samples_taken=sampler.samples_taken,
        latencies_match=latencies_match,
        roots=roots,
        paths=paths,
        registry=fw.metrics,
        end_ns=fw.env.now,
    )


#: Scenarios the profile smoke runs (covers replication fan-out, EC
#: encode/shard dispatch, and chaos retry legs).
SMOKE_SCENARIOS = ("randwrite", "randread", "ec-write", "chaos")


def profile_smoke(
    export_path=None,
    flame_path=None,
    seed: int = 0,
    nrequests: int = 40,
) -> tuple[int, str]:
    """Seeded CI smoke across the scenario grid.

    Checks, per scenario: every request traced to a complete tree,
    attribution exact (enforced inside :func:`run_profile`), span-tree
    durations identical to the measured latencies, exported Perfetto
    document schema-clean, flamegraph non-empty, and the full export
    byte-identical across two same-seed runs.  Returns
    ``(exit_code, report)``.
    """
    import json

    from ..bench.tables import smoke_verdict  # lazy: repro.bench imports this module

    problems: list[str] = []
    rows = [f"{'scenario':10s} {'ios':>4s} {'trees':>6s} {'p99_us':>8s} "
            f"{'lat==tree':>9s} {'schema':>6s} {'determ':>6s}"]
    first_report: Optional[ProfileReport] = None
    for name in SMOKE_SCENARIOS:
        report = run_profile(name, seed=seed, nrequests=nrequests)
        rerun = run_profile(name, seed=seed, nrequests=nrequests)
        if first_report is None:
            first_report = report
        doc = report.perfetto()
        schema_problems = validate_trace_document(doc)
        deterministic = (
            json.dumps(doc, sort_keys=True)
            == json.dumps(rerun.perfetto(), sort_keys=True)
            and [r.to_dict() for r in report.roots] == [r.to_dict() for r in rerun.roots]
        )
        if report.complete < 1:
            problems.append(f"{name}: no complete span trees")
        if report.incomplete:
            problems.append(f"{name}: {report.incomplete} request(s) never completed")
        if report.errors:
            problems.append(f"{name}: {report.errors} client-visible I/O errors")
        if not report.latencies_match:
            problems.append(f"{name}: span-tree durations != measured latencies")
        if schema_problems:
            problems.append(f"{name}: perfetto schema: {schema_problems[:3]}")
        if not deterministic:
            problems.append(f"{name}: export not deterministic across same-seed runs")
        if not folded_stacks(report.folded).strip():
            problems.append(f"{name}: empty flamegraph")
        rows.append(
            f"{name:10s} {report.ios:4d} {report.complete:6d} "
            f"{report.total_digest.quantile(0.99) / 1000.0:8.1f} "
            f"{'yes' if report.latencies_match else 'NO':>9s} "
            f"{'ok' if not schema_problems else 'BAD':>6s} "
            f"{'yes' if deterministic else 'NO':>6s}"
        )
    if export_path is not None and first_report is not None:
        first_report.export(export_path)
        rows.append(f"[perfetto trace written to {export_path}]")
    if flame_path is not None and first_report is not None:
        first_report.export_flamegraph(flame_path)
        rows.append(f"[folded stacks written to {flame_path}]")
    return smoke_verdict(
        "\n".join(rows), problems,
        f"{len(SMOKE_SCENARIOS)} scenarios, attribution exact, exports deterministic",
    )
