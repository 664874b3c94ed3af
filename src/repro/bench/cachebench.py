"""Cache-tier experiment: hit ratio and latency across modes/capacities.

Runs the full DeLiBA-K stack (io_uring -> blk-mq -> UIFD -> fabric ->
OSDs) with the Open-CAS-style client cache interposed, over Zipf-skewed
and uniform random workloads, and reports per-mode hit ratios, mean
latency, and throughput against an uncached baseline on the identical
cluster/seed.

``cache_smoke`` is the CI gate.  It checks the properties that make the
cache *trustworthy*, not merely fast:

* **pass-through identity** — a PT cache produces the bit-identical
  latency stream an uncached stack does (same seed), i.e. the tier adds
  zero events unless enabled;
* **hit-ratio monotonicity** — growing the cache never lowers the Zipf
  hit ratio;
* **skew sensitivity** — Zipf traffic hits more than uniform traffic at
  equal capacity (the cache actually exploits skew);
* **write-back wins skewed writes** — WB mean latency beats WT when the
  same hot blocks are rewritten (absorbing rewrites is WB's whole job).
"""

from __future__ import annotations

import hashlib
from typing import Optional

from ..cache import CacheConfig, CacheMode
from ..deliba import FRAMEWORKS, PoolSpec, build_framework
from ..units import kib, mib
from ..workloads import ZipfJob
from .experiments import ExperimentResult
from .tables import smoke_verdict

#: Framework the cache rides on in these benches (the paper's fastest).
CACHE_FRAMEWORK = "delibak"
#: Cache line used throughout (two 4 KiB blocks per line keeps fills cheap).
LINE_SIZE = kib(8)
#: Capacity sweep for the hit-ratio curve, in lines.
CAPACITY_SWEEP = (16, 64, 256, 1024)


def _job(rw: str, theta: float, nreq: int, name: str) -> ZipfJob:
    return ZipfJob(
        name=name, rw=rw, bs=kib(4), iodepth=4, size=mib(16), nrequests=nreq, theta=theta
    )


def run_cache_case(
    job: ZipfJob,
    cache: Optional[CacheConfig],
    seed: int = 0,
    prefill: bool = True,
):
    """Build a fresh stack (cached or not), run one job.

    Returns ``(RunResult, stats_dict)`` where ``stats_dict`` is the
    cache's counter snapshot (empty for an uncached run).
    """
    fw = build_framework(
        FRAMEWORKS[CACHE_FRAMEWORK],
        pool_spec=PoolSpec(),
        image_size=mib(32),
        seed=seed,
        cache=cache,
    )
    proc = fw.env.process(fw.run_fio(job, prefill=prefill), name=f"cache:{job.name}")
    fw.env.run()
    if not proc.ok:
        raise proc.value
    return proc.value, (fw.cache.stats() if fw.cache else {})


def _latency_digest(result) -> str:
    """Order-sensitive digest of the per-I/O latency stream."""
    h = hashlib.sha256()
    for lat in result.latencies_ns:
        h.update(lat.to_bytes(8, "little"))
    return h.hexdigest()[:16]


def _cfg(mode: CacheMode, capacity_lines: int = 256, **kw) -> CacheConfig:
    return CacheConfig(mode=mode, line_size=LINE_SIZE, capacity_lines=capacity_lines, **kw)


def exp_cache(seed: int = 0, nreq: int = 300) -> ExperimentResult:
    """Mode sweep + capacity curve over Zipf and uniform traffic."""
    res = ExperimentResult(
        "CACHE",
        "Client block cache: mode sweep and hit-ratio curve",
        ["config", "workload", "hit%", "mean us", "MB/s", "flushes", "bypasses"],
    )
    read_job = _job("randread", 0.99, nreq, "zipf-read")
    mix_job = _job("randrw", 0.99, nreq, "zipf-mix")
    base, _ = run_cache_case(read_job, None, seed=seed)
    res.rows.append(
        ["uncached", read_job.name, "-", f"{base.mean_latency_us():.1f}",
         f"{base.throughput_mb_s():.1f}", "-", "-"]
    )
    for mode in (CacheMode.PASS_THROUGH, CacheMode.WRITE_THROUGH,
                 CacheMode.WRITE_BACK, CacheMode.WRITE_AROUND):
        job = read_job if mode is CacheMode.PASS_THROUGH else mix_job
        cfg = _cfg(mode, cleaning="alru" if mode is CacheMode.WRITE_BACK else "nop")
        r, stats = run_cache_case(job, cfg, seed=seed)
        res.rows.append(
            [f"cache-{mode.value}", job.name, f"{100 * stats['hit_ratio']:.1f}",
             f"{r.mean_latency_us():.1f}", f"{r.throughput_mb_s():.1f}",
             str(stats["flushed_lines"]), str(stats["seq_bypasses"])]
        )
    for lines in CAPACITY_SWEEP:
        _, stats = run_cache_case(read_job, _cfg(CacheMode.WRITE_THROUGH, lines), seed=seed)
        res.rows.append(
            [f"wt-{lines}ln", read_job.name, f"{100 * stats['hit_ratio']:.1f}",
             "-", "-", "-", "-"]
        )
    res.notes = (
        "Zipf theta=0.99 over a 16 MiB working set; capacity rows sweep the "
        "WT hit-ratio curve. PT rides the identical datapath as uncached."
    )
    return res


def cache_smoke(seed: int = 0, nreq: int = 200) -> tuple[int, str]:
    """Seeded CI smoke over the cache invariants.

    Returns ``(exit_code, report)``; nonzero when any invariant fails.
    """
    problems: list[str] = []
    lines: list[str] = ["== cache smoke =="]

    # 1. Pass-through identity: same seed, bit-identical latency stream.
    read_job = _job("randread", 0.99, nreq, "zipf-read")
    bare, _ = run_cache_case(read_job, None, seed=seed)
    pt, pt_stats = run_cache_case(read_job, _cfg(CacheMode.PASS_THROUGH), seed=seed)
    bare_digest, pt_digest = _latency_digest(bare), _latency_digest(pt)
    lines.append(f"pass-through digest {pt_digest} vs uncached {bare_digest}")
    if bare_digest != pt_digest:
        problems.append(f"PT not event-identical: {pt_digest} != {bare_digest}")
    if pt_stats and (pt_stats["read_hits"] or pt_stats["read_misses"]):
        problems.append("PT mode touched cache counters")

    # 2. Hit ratio monotone non-decreasing with capacity (Zipf reads).
    curve = []
    for cap in CAPACITY_SWEEP:
        _, stats = run_cache_case(read_job, _cfg(CacheMode.WRITE_THROUGH, cap), seed=seed)
        curve.append((cap, stats["hit_ratio"]))
    lines.append("hit-ratio curve: " + ", ".join(f"{c}ln={h:.3f}" for c, h in curve))
    for (c1, h1), (c2, h2) in zip(curve, curve[1:]):
        if h2 < h1 - 1e-9:
            problems.append(f"hit ratio fell growing {c1}->{c2} lines: {h1:.3f}->{h2:.3f}")

    # 3. Zipf skew beats uniform at equal capacity.
    uniform_job = _job("randread", 0.0, nreq, "uniform-read")
    _, zipf_stats = run_cache_case(read_job, _cfg(CacheMode.WRITE_THROUGH, 64), seed=seed)
    _, uni_stats = run_cache_case(uniform_job, _cfg(CacheMode.WRITE_THROUGH, 64), seed=seed)
    lines.append(
        f"zipf hit {zipf_stats['hit_ratio']:.3f} vs uniform {uni_stats['hit_ratio']:.3f} @64ln"
    )
    if zipf_stats["hit_ratio"] <= uni_stats["hit_ratio"]:
        problems.append(
            f"zipf hit ratio {zipf_stats['hit_ratio']:.3f} not above "
            f"uniform {uni_stats['hit_ratio']:.3f}"
        )

    # 4. WB absorbs skewed rewrites that WT pays the fabric for.
    write_job = _job("randwrite", 1.2, nreq, "zipf-write")
    wt, _ = run_cache_case(write_job, _cfg(CacheMode.WRITE_THROUGH), seed=seed, prefill=False)
    wb, wb_stats = run_cache_case(
        write_job, _cfg(CacheMode.WRITE_BACK, cleaning="alru"), seed=seed, prefill=False
    )
    lines.append(
        f"skewed-write mean: wb {wb.mean_latency_us():.1f} us vs wt {wt.mean_latency_us():.1f} us"
        f" (wb flushed {wb_stats['flushed_lines']})"
    )
    if wb.mean_latency_us() >= wt.mean_latency_us():
        problems.append(
            f"write-back ({wb.mean_latency_us():.1f} us) not faster than "
            f"write-through ({wt.mean_latency_us():.1f} us) on skewed writes"
        )

    return smoke_verdict("\n".join(lines), problems, "all cache invariants hold")
