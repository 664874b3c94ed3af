"""The benchmark's workloads: what each one builds, runs and checks.

A workload is a list of *cells*.  A cell is one freshly built stack
running one closed-loop fio job in virtual time (``iodepth`` I/Os
outstanding, one job).  ``run_repeat`` runs every cell of a workload
once, in this process, and returns the measurements and the outcome of
the correctness checks as a JSON-ready dict.

This module imports ``repro`` only inside functions: the child process
that calls :func:`run_repeat` times ``import repro`` as part of set-up.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import math
import random
import resource
from dataclasses import dataclass, replace
from typing import Optional

import layers
from hostclock import HostClock

KIB = 1024
MIB = 1024 * KIB

#: Payload byte the fio job writes and the byte prefill writes
#: (``FioJob.make_bios`` and ``FrameworkInstance.prefill``).
JOB_BYTE = 0x5A
PREFILL_BYTE = 0xA5
#: Bytes read back per sampled block.
CHECK_BYTES = 4 * KIB
#: Sampled blocks per workload: job-written, prefilled-only, never written.
READBACK_QUOTAS = (256, 128, 128)

#: Fault workload testbed: 3 hosts x 4 OSDs, 3 replicas on distinct hosts.
FAULT_HOSTS = 3
FAULT_OSDS_PER_HOST = 4
FAULT_PG_NUM = 64
#: Kill the primary of object 0 after this share of the I/Os and revive
#: it after the second share.
KILL_AT = 0.3
REVIVE_AT = 0.6

#: Table II column order in ``paper_data`` (seq-read, seq-write, rand-read, rand-write).
TABLE2_MODES = ("read", "write", "randread", "randwrite")


@dataclass(frozen=True)
class Cell:
    """One stack plus the fio job it runs."""

    label: str
    framework: str
    rw: str
    bs: int
    iodepth: int
    nrequests: int
    size: int
    pool: str = "replicated"
    replicas: int = 2
    rwmixread: float = 0.5
    #: Per-OSD write-ahead log on (``ClusterSpec.durability``).
    durable: bool = False
    #: Kill/revive schedule with recovery, metrics and health on.
    faults: bool = False
    #: Table II reference latency (us) for this cell, if it has one.
    paper_us: Optional[float] = None

    @property
    def scrub(self) -> bool:
        """Deep-scrub the pool after the run (the WAL and fault cells)."""
        return self.durable or self.faults


def _paper_grid() -> tuple:
    """Table II: 4 KiB at iodepth 1.  Each cell works on 400 KiB, the
    span its 100 sequential I/Os cover (100 EC objects on the EC pools).
    The dense store grows each object up to its highest written byte, so
    on larger spans the random cells' peak RSS moved with the seed (3.4%
    between seeds on 4 MiB), while the paper error stays at 24%."""
    from repro.bench import paper_data

    cells = []
    for pool, table, frameworks in (
        ("replicated", paper_data.TABLE2_REPLICATION, ("deliba1", "deliba2", "delibak")),
        ("erasure", paper_data.TABLE2_ERASURE, ("deliba2", "delibak")),
    ):
        for fw in frameworks:
            for rw, paper_us in zip(TABLE2_MODES, table[fw]):
                cells.append(
                    Cell(
                        f"{fw}-{pool}-{rw}", fw, rw, bs=4 * KIB, iodepth=1, nrequests=100,
                        size=400 * KIB, pool=pool, paper_us=paper_us,
                    )
                )
    return tuple(cells)


#: The workloads that run one stack.
SINGLE_CELLS = {
    "rep-randrw-4k": Cell(
        "rep-randrw-4k", "delibak", "randrw", bs=4 * KIB, iodepth=4, nrequests=6000,
        size=256 * MIB, rwmixread=0.7,
    ),
    "ec-randwrite-4k": Cell(
        "ec-randwrite-4k", "delibak", "randwrite", bs=4 * KIB, iodepth=4, nrequests=2000,
        size=64 * MIB, pool="erasure",
    ),
    "seqwrite-128k-wal": Cell(
        "seqwrite-128k-wal", "delibak", "write", bs=128 * KIB, iodepth=4, nrequests=1500,
        size=192 * MIB, durable=True,
    ),
    # 6000 I/Os, not fewer: the kill and revive delay 15-25 I/Os by
    # milliseconds, and at 3000 I/Os the p99 sat on the edge of that tail.
    "recover-kill-revive": Cell(
        "recover-kill-revive", "delibak", "randrw", bs=4 * KIB, iodepth=4, nrequests=6000,
        size=64 * MIB, replicas=3, faults=True,
    ),
}


def cells(name: str, smoke: bool = False) -> tuple:
    """The cells of workload ``name``; ``smoke`` runs the same cells
    about ten times smaller (every code path still runs)."""
    out = _paper_grid() if name == "paper-grid" else (SINGLE_CELLS[name],)
    if smoke:
        out = tuple(replace(c, nrequests=max(10, c.nrequests // 10)) for c in out)
    return out


# -- building ------------------------------------------------------------------


def build(cell: Cell, seed: int, obs: bool = False):
    """A fresh framework instance for ``cell`` (set-up, not measured)."""
    from repro.deliba import FRAMEWORKS, PoolSpec, build_framework
    from repro.osd import ClusterSpec, DurabilityConfig, OpPolicy, OsdConfig
    from repro.units import ms

    config = FRAMEWORKS[cell.framework]
    if cell.faults:
        spec = ClusterSpec(
            num_server_hosts=FAULT_HOSTS,
            osds_per_host=FAULT_OSDS_PER_HOST,
            op_policy=OpPolicy(timeout_ns=ms(20), max_attempts=12),
            osd_config=OsdConfig(subop_timeout_ns=ms(5)),
            client_stack=config.client_stack,
            seed=seed,
        )
        pool_spec = PoolSpec(kind=cell.pool, size=cell.replicas, pg_num=FAULT_PG_NUM)
    else:
        spec = ClusterSpec(
            durability=DurabilityConfig() if cell.durable else None,
            client_stack=config.client_stack,
            seed=seed,
        )
        pool_spec = PoolSpec(kind=cell.pool, size=cell.replicas)
    fw = build_framework(
        config,
        pool_spec=pool_spec,
        cluster_spec=spec,
        object_size=cell.bs if cell.pool == "erasure" else None,
        obs=obs,
        metrics=cell.faults,
        health=cell.faults,
    )
    if cell.faults:
        fw.cluster.enable_recovery()
    return fw


def make_bios(cell: Cell, fw) -> list:
    """The job's bio stream, drawn from the stack's seeded fio stream
    (the same stream ``FrameworkInstance.run_fio`` uses)."""
    from repro.workloads import FioJob

    job = FioJob(
        cell.label, cell.rw, bs=cell.bs, iodepth=cell.iodepth, size=cell.size,
        nrequests=cell.nrequests, rwmixread=cell.rwmixread,
    )
    return job.make_bios(fw.rng.stream(f"fio.{job.name}.j0"), payload_byte=JOB_BYTE)


def _run_process(env, gen, name: str, clock: Optional[HostClock] = None):
    """Run ``gen`` as a process until the event queue drains (timed on
    ``clock`` if given); returns its value."""
    proc = env.process(gen, name=name)
    if clock is None:
        env.run()
    else:
        clock.run(env)
    if not proc.ok:
        raise proc.value
    return proc.value


def prefill(fw, cell: Cell, bios: list, clock: HostClock) -> set:
    """Write every block the job reads; returns the prefilled block indices."""
    from repro.blk import IoOp

    offsets = sorted({b.offset for b in bios if b.op == IoOp.READ})
    if offsets:
        _run_process(fw.env, fw.prefill(offsets, cell.bs), "bench.prefill", clock)
    return {off // cell.bs for off in offsets}


# -- the measured phase ----------------------------------------------------------


@dataclass
class CellRun:
    """What one cell's measured phase produced."""

    latencies_ns: list
    errors: int
    #: Virtual time from the first submission to the last completion.
    job_ns: int
    #: Virtual time from the kill until recovery converged after the revive.
    recovery_ns: Optional[int] = None


def run_job(fw, cell: Cell, bios: list, clock: HostClock) -> CellRun:
    """The measured phase: the job, plus the fault schedule where it runs."""
    if not cell.faults:
        result = _run_process(
            fw.env, fw.engine.run(bios, cell.iodepth), f"bench.{cell.label}", clock
        )
        return CellRun(result.latencies_ns, result.errors, result.elapsed_ns)
    return _run_faulted(fw, cell, bios, clock)


def _run_faulted(fw, cell: Cell, bios: list, clock: HostClock) -> CellRun:
    """Kill the primary of object 0 after ``KILL_AT`` of the I/Os, revive
    it after ``REVIVE_AT``, and wait until recovery converges."""
    env = fw.env
    cluster = fw.cluster
    victim = fw.image.client.compute_placement(fw.pool, fw.image.object_name(0))[0]
    kill_at = int(len(bios) * KILL_AT)
    revive_at = int(len(bios) * REVIVE_AT)
    marks = {}

    def converge():
        yield from cluster.recovery.wait_converged()
        marks["converged"] = env.now

    def schedule():
        results = []
        results.append((yield from fw.engine.run(bios[:kill_at], cell.iodepth)))
        marks["kill"] = env.now
        cluster.fail_osd(victim)
        results.append((yield from fw.engine.run(bios[kill_at:revive_at], cell.iodepth)))
        cluster.monitor.revive_osd(victim)
        watcher = env.process(converge(), name="bench.converge")
        results.append((yield from fw.engine.run(bios[revive_at:], cell.iodepth)))
        yield watcher
        return results

    parts = _run_process(env, schedule(), f"bench.{cell.label}", clock)
    latencies = [lat for part in parts for lat in part.latencies_ns]
    return CellRun(
        latencies,
        sum(p.errors for p in parts),
        parts[-1].finished_at - parts[0].started_at,
        marks["converged"] - marks["kill"],
    )


# -- correctness checks ------------------------------------------------------------


def readback_sample(cell: Cell, written: set, prefilled: set, seed: int, quotas) -> list:
    """Seeded sample of block indices: job-written, prefilled only, never written."""
    rng = random.Random(f"readback:{seed}:{cell.label}")
    blocks = cell.size // cell.bs
    untouched = [b for b in range(blocks) if b not in written and b not in prefilled]
    groups = [sorted(written), sorted(prefilled - written), untouched]
    picked = []
    for group, quota in zip(groups, quotas):
        picked += rng.sample(group, min(quota, len(group)))
    # Top up from whatever is left when a group is short.
    taken = set(picked)
    rest = [b for b in range(blocks) if b not in taken]
    picked += rng.sample(rest, min(len(rest), max(0, sum(quotas) - len(picked))))
    return sorted(picked)


def expected_block(block: int, written: set, prefilled: set) -> int:
    if block in written:
        return JOB_BYTE
    if block in prefilled:
        return PREFILL_BYTE
    return 0


def check_cell(fw, cell: Cell, bios: list, run: CellRun, prefilled: set, seed: int,
               quotas) -> list[str]:
    """Every correctness check for one cell; returns the problems found."""
    from repro.blk import IoOp
    from repro.osd import Scrubber, shard_object_name

    problems = []
    if len(run.latencies_ns) != len(bios):
        problems.append(
            f"{cell.label}: {len(run.latencies_ns)} of {len(bios)} I/Os completed"
        )
    written = {b.offset // cell.bs for b in bios if b.op == IoOp.WRITE}
    sample = readback_sample(cell, written, prefilled, seed, quotas)
    rng = random.Random(f"readback-offset:{seed}:{cell.label}")
    env = fw.env
    ec = cell.pool == "erasure"
    live = [d for o, d in fw.cluster.daemons.items() if fw.cluster.osdmap.osds[o].up]
    reads = []
    for block in sample:
        want = expected_block(block, written, prefilled)
        # A 4 KiB window inside the block (EC objects are read whole).
        within = 0 if ec else rng.randrange(cell.bs // CHECK_BYTES) * CHECK_BYTES
        offset = block * cell.bs + within
        if ec and want == 0:
            # A never-written EC object is a hole: no OSD may hold a shard of it.
            name = fw.image.object_name(offset // fw.image.object_size)
            holders = [
                d.osd_id for d in live
                for rank in range(fw.pool.size) if shard_object_name(name, rank) in d.store
            ]
            if holders:
                problems.append(f"{cell.label}: unwritten block {block} has shards on {holders}")
            continue
        reads.append((block, offset, min(CHECK_BYTES, cell.bs), want))

    def read_back():
        bad = []
        for block, offset, length, want in reads:
            data = yield from fw.image.read(offset, length)
            if data != bytes([want]) * length:
                bad.append(block)
        return bad

    bad = _run_process(env, read_back(), "bench.readback")
    if bad:
        problems.append(f"{cell.label}: {len(bad)} of {len(reads)} blocks read back wrong, "
                        f"first {bad[:5]}")
    if cell.scrub:
        report = _run_process(
            env, Scrubber(env, fw.cluster.monitor).scrub(fw.pool, deep=True), "bench.scrub"
        )
        if not report.clean:
            problems.append(
                f"{cell.label}: deep scrub found {len(report.inconsistencies)} inconsistencies"
            )
    if cell.faults and not fw.cluster.recovery.converged:
        problems.append(f"{cell.label}: recovery did not converge")
    return problems


# -- reductions ----------------------------------------------------------------------


def latency_digest(latencies_ns: list) -> str:
    """Order-sensitive fingerprint of a latency stream (sample-for-sample)."""
    return hashlib.sha256(",".join(map(str, latencies_ns)).encode()).hexdigest()[:16]


def percentile_us(latencies_ns: list, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(latencies_ns), q)) / 1000.0


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one repeat -------------------------------------------------------------------------


def run_repeat(name: str, seed: int, smoke: bool = False, mode: str = "untraced") -> dict:
    """Run every cell of workload ``name`` once and check the outputs.

    ``mode`` is ``untraced`` (end-to-end metrics), ``layers`` (pass A:
    host self time per layer from wrappers around each layer's entry
    points) or ``stages`` (pass B: virtual-time critical path per stage
    from the causal tracer).  Set-up starts with ``import repro``; host
    times are kept both as wall seconds (``*_raw_s``) and in reference
    seconds (see ``hostclock``).
    """
    clock = HostClock()
    clock.call(importlib.import_module, "repro.deliba")
    todo = cells(name, smoke)
    quotas = tuple(math.ceil(q / len(todo)) for q in READBACK_QUOTAS)
    tracer = None
    if mode == "layers":
        tracer = layers.LayerTracer()
        tracer.install()
    setup = list(clock.take())
    measured = [0.0, 0.0]
    events = events_window = 0
    latencies: list = []
    errors = 0
    job_ns = 0
    recovery_ns = None
    paper_errs = []
    problems: list[str] = []
    rss_mb = 0.0
    stats: dict = {}
    crit: dict = {}
    for cell in todo:
        fw = clock.call(build, cell, seed, obs=mode == "stages")
        bios = make_bios(cell, fw)
        prefilled = prefill(fw, cell, bios, clock)
        clock.call(gc.collect)
        setup = [a + b for a, b in zip(setup, clock.take())]
        seq0 = fw.env._seq
        if tracer:
            before = layers.snapshot(fw)
            tracer.begin(fw.env)
        run = run_job(fw, cell, bios, clock)
        measured = [a + b for a, b in zip(measured, clock.take())]
        if tracer:
            tracer.end()
            layers.accumulate(stats, layers.snapshot(fw), before, run.job_ns)
        rss_mb = max(rss_mb, peak_rss_mb())
        events += fw.env._seq
        events_window += fw.env._seq - seq0
        latencies += run.latencies_ns
        errors += run.errors
        job_ns += run.job_ns
        if run.recovery_ns is not None:
            recovery_ns = run.recovery_ns
        if cell.paper_us is not None:
            mean_us = sum(run.latencies_ns) / len(run.latencies_ns) / 1000.0
            paper_errs.append(abs(mean_us - cell.paper_us) / cell.paper_us)
        if mode == "stages":
            problems += stage_attribution(fw, crit)
        problems += check_cell(fw, cell, bios, run, prefilled, seed, quotas)
        # Free this stack before the next is built: peak RSS is per stack.
        del fw, bios
        gc.collect()
    out = {
        "workload": name,
        "seed": seed,
        "mode": mode,
        "setup_raw_s": setup[0],
        "setup_s": setup[1],
        "measured_raw_s": measured[0],
        "measured_s": measured[1],
        "ios": len(latencies),
        "attempted": sum(c.nrequests for c in todo),
        "failed": errors,
        "peak_rss_mb": rss_mb,
        "sim": {
            "sim_kiops": len(latencies) / job_ns * 1e6,
            "sim_p50_us": percentile_us(latencies, 50),
            "sim_p99_us": percentile_us(latencies, 99),
        },
        "events": events,
        "events_window": events_window,
        "latency_digest": latency_digest(latencies),
        "problems": problems,
    }
    if paper_errs:
        out["sim"]["paper_err_pct"] = 100.0 * sum(paper_errs) / len(paper_errs)
    if recovery_ns is not None:
        out["sim"]["recovery_sim_ms"] = recovery_ns / 1e6
    if tracer:
        out["layers"] = tracer.report(stats, measured[0])
        out["spans"] = tracer.chrome_trace()
        out["spans_dropped"] = tracer.dropped
    if mode == "stages":
        out["crit"] = {stage: ns / len(latencies) / 1000.0 for stage, ns in crit.items()}
    return out


#: Critical-path stages reported as ``crit.<stage>_us``, in datapath
#: order (``repro.obs.profile`` renders the same order).
CRIT_STAGES = (
    "api", "rings", "dmq", "uifd", "nbd", "daemon", "placement",
    "qdma", "accel", "fabric", "complete",
)


def stage_attribution(fw, crit: dict) -> list[str]:
    """Pass B: add each completed request's exact critical path to
    ``crit`` (stage -> ns); returns exactness problems."""
    from repro.obs.critical_path import analyze, verify_exact

    problems = []
    tracer = fw.tracer
    if tracer.incomplete_trees():
        problems.append(f"{len(tracer.incomplete_trees())} span trees never completed")
    for root in tracer.complete_trees():
        path = analyze(root)
        problem = verify_exact(path)
        if problem is not None:
            problems.append(f"inexact critical path for span {root.span_id}: {problem}")
            continue
        for stage, ns in path.by_stage().items():
            # Root self time carries the op name; it is the "api" stage.
            stage = "api" if stage in ("read", "write") else stage
            stage = stage if stage in CRIT_STAGES else "other"
            crit[stage] = crit.get(stage, 0) + ns
    return problems
