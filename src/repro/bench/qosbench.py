"""Multi-tenant QoS experiment: mClock fairness on the live cluster.

Closed-loop tenants (each a :class:`~repro.osd.client.RadosClient` with
a fixed iodepth of outstanding 4 KiB replicated writes) hammer a shared
OSD pool through the :mod:`repro.osd.qos` admission gates.  The smoke
battery is the cluster-level counterpart of the pure-virtual-time
differential harness (``tests/qos_harness.py``): a reservation-heavy,
a weight-heavy, and a limit-capped tenant saturate the pool and the
run must prove the floor, the weight split, the ceiling, and work
conservation against an unscheduled FIFO baseline — deterministically,
with identical digests across same-seed runs.

``exp_qos`` widens the battery into the many-tenant (>= 16) mixed-
profile sweep: every tenant gets one of four archetype profiles and the
table reports achieved IOPS, reservation-phase share, and queue waits
per tenant.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from ..osd import ClusterSpec, OsdConfig, QosConfig, QosSpec, build_cluster
from ..sim import Environment, MetricsRegistry
from ..units import ms, us
from .experiments import ExperimentResult
from .tables import smoke_verdict

#: Testbed: two server hosts x two OSDs, 3-way replication, with the
#: per-op CPU cost raised so the OSD worker pools (where the admission
#: gates sit) are the bottleneck rather than the client NIC — small
#: enough for CI, scarce enough that a handful of tenants saturates it
#: and the scheduler decides who runs.
SERVERS = 2
OSDS_PER_HOST = 2
PG_NUM = 16
BS = 4096
OSD_CONFIG = OsdConfig(op_cost_ns=us(50))

#: Each logical write is a direct replicated write: three gated ops
#: (one per replica OSD), every one carrying the tenant's tag — the
#: distributed rho/delta bookkeeping is what keeps the *cluster-wide*
#: floor and ceiling right even though three independent gates serve
#: the flow.  QoS specs are denominated in gated-op IOPS; divide by
#: REPLICATION for client-write IOPS.
REPLICATION = 3

#: The three-profile battery (mirrors tests/test_qos_differential.py):
#: a 60k-op/s floor (20k writes/s), a weight-heavy tenant, and a
#: ceiling at 18k ops/s (6k writes/s) that binds well below the capped
#: tenant's fair share.
RES_IOPS = 60_000.0
CAP_IOPS = 18_000.0
#: Smoke tolerances: cap overshoot factor, 3:1 split +/-, share of FIFO aggregate.
CAP_SLACK = 1.02
SPLIT_TOLERANCE = 0.3
FIFO_SHARE = 0.95
BATTERY = {
    "gold": (QosSpec(reservation_iops=RES_IOPS, weight=1), 16),
    "silver": (QosSpec(weight=3), 16),
    "bronze": (QosSpec(weight=3, limit_iops=CAP_IOPS), 16),
}

#: Weight-split scenario: two otherwise-identical saturating tenants at
#: 3:1 weights must split the pool 3:1 (within 10%).
WEIGHT_PAIR = {
    "heavy": (QosSpec(weight=3), 24),
    "light": (QosSpec(weight=1), 24),
}

DURATION = ms(60)
WARMUP = ms(20)


@dataclass
class TenantStats:
    """One tenant's outcome over the measurement window."""

    name: str
    iops: float  # client writes/s
    op_iops: float  # gated ops/s (= iops * REPLICATION) — spec units
    total_writes: int
    res_ops: int
    sched_ops: int
    mean_wait_us: float
    limit_waits: int


@dataclass
class QosRunStats:
    """Outcome of one multi-tenant scenario run."""

    tenants: dict[str, TenantStats]
    aggregate_iops: float
    reservation_phase: int
    priority_phase: int
    limit_waits: int
    digest: str


def _worker(env, client, pool, payload, counts, stop, wid):
    """Process: one closed-loop stream of direct replicated writes.

    Direct replication: the client writes all three replicas itself, so
    each logical write is three *top-level* gated ops and neither arm
    (QoS or bare FIFO pools) can wedge on primaries holding slots
    across sub-op round-trips."""
    i = 0
    while not stop["flag"]:
        name = f"{client.tenant}.{wid}.obj{i % 4}"
        yield from client.write_replicated(pool, name, payload, direct=True)
        counts[client.tenant] += 1
        i += 1


def run_qos_scenario(
    tenants: dict[str, tuple[Optional[QosSpec], int]],
    seed: int = 0,
    duration_ns: int = DURATION,
    warmup_ns: int = WARMUP,
    qos: bool = True,
) -> QosRunStats:
    """Run one closed-loop multi-tenant scenario; measure post-warmup.

    ``tenants`` maps tenant name -> (QosSpec or None, iodepth).  With
    ``qos=False`` the same load runs against the bare FIFO worker pools
    (the work-conservation baseline).
    """
    env = Environment()
    metrics = env.metrics = MetricsRegistry()
    spec = ClusterSpec(
        num_server_hosts=SERVERS, osds_per_host=OSDS_PER_HOST,
        osd_config=OSD_CONFIG, seed=seed,
    )
    cluster = build_cluster(env, spec)
    pool = cluster.create_replicated_pool("pool", pg_num=PG_NUM, size=3)
    if qos:
        config = QosConfig(tenants={
            name: s for name, (s, _depth) in tenants.items() if s is not None
        })
        cluster.enable_qos(config)

    payload = bytes(BS)
    counts = {name: 0 for name in tenants}
    stop = {"flag": False}
    snap: dict[str, dict[str, int]] = {}

    for name, (_spec, depth) in tenants.items():
        client = cluster.new_client(f"tenant.{name}")
        client.tenant = name
        for wid in range(depth):
            env.process(
                _worker(env, client, pool, payload, counts, stop, wid),
                name=f"qos.{name}.{wid}",
            )

    def controller():
        yield env.timeout(warmup_ns)
        snap["warm"] = dict(counts)
        yield env.timeout(duration_ns - warmup_ns)
        snap["end"] = dict(counts)
        stop["flag"] = True

    env.process(controller(), name="qos.controller")
    env.run()

    window_s = (duration_ns - warmup_ns) / 1e9
    stats: dict[str, TenantStats] = {}
    for name in tenants:
        done = snap["end"][name] - snap["warm"][name]
        ops = metrics.counter(f"qos.tenant.{name}.ops").value
        res = metrics.counter(f"qos.tenant.{name}.res_ops").value
        wait = metrics.distribution(f"qos.tenant.{name}.queue_wait_ns")
        stats[name] = TenantStats(
            name=name,
            iops=done / window_s,
            op_iops=done * REPLICATION / window_s,
            total_writes=snap["end"][name],
            res_ops=res,
            sched_ops=ops,
            mean_wait_us=wait.mean() / 1e3,
            limit_waits=metrics.counter("qos.limit_waits").value,
        )
    aggregate = sum(s.iops for s in stats.values())

    fingerprint = hashlib.sha256()
    fingerprint.update(
        repr((
            sorted(snap["warm"].items()),
            sorted(snap["end"].items()),
            metrics.counter("qos.phase.reservation").value,
            metrics.counter("qos.phase.priority").value,
            metrics.counter("qos.limit_waits").value,
            env.now,
        )).encode()
    )
    return QosRunStats(
        tenants=stats,
        aggregate_iops=aggregate,
        reservation_phase=metrics.counter("qos.phase.reservation").value,
        priority_phase=metrics.counter("qos.phase.priority").value,
        limit_waits=metrics.counter("qos.limit_waits").value,
        digest=fingerprint.hexdigest()[:16],
    )


def _profile_label(spec: Optional[QosSpec]) -> str:
    if spec is None:
        return "default"
    parts = []
    if spec.reservation_iops:
        parts.append(f"res={spec.reservation_iops:g}")
    parts.append(f"w={spec.weight:g}")
    if spec.limit_iops is not None:
        parts.append(f"lim={spec.limit_iops:g}")
    return ",".join(parts)


def mixed_profiles(ntenants: int = 16) -> dict[str, tuple[Optional[QosSpec], int]]:
    """The >= 16-tenant sweep: four archetypes, round-robin."""
    archetypes = (
        QosSpec(reservation_iops=9_000, weight=1),
        QosSpec(weight=4),
        QosSpec(weight=2, limit_iops=6_000),
        None,  # default client profile
    )
    return {
        f"t{i:02d}": (archetypes[i % len(archetypes)], 4) for i in range(ntenants)
    }


def exp_qos(smoke: bool = False, seed: int = 0, ntenants: int = 16) -> ExperimentResult:
    """Many-tenant mixed-profile fairness sweep (>= 16 tenants)."""
    tenants = mixed_profiles(max(ntenants, 16))
    run = run_qos_scenario(
        tenants, seed=seed, duration_ns=ms(30) if smoke else DURATION,
        warmup_ns=ms(10) if smoke else WARMUP,
    )
    res = ExperimentResult(
        "qos",
        f"mClock fairness: {len(tenants)} tenants, mixed profiles, shared pool",
        ["tenant", "profile", "IOPS", "res%", "wait_us"],
    )
    for name, (spec, _depth) in tenants.items():
        s = run.tenants[name]
        res_share = 100 * s.res_ops / s.sched_ops if s.sched_ops else 0.0
        res.rows.append([
            name, _profile_label(spec), round(s.iops), round(res_share, 1),
            round(s.mean_wait_us, 1),
        ])
    res.notes = (
        f"aggregate {run.aggregate_iops:,.0f} IOPS; phases: "
        f"{run.reservation_phase} reservation / {run.priority_phase} priority; "
        f"{run.limit_waits} limit waits; digest {run.digest}"
    )
    return res


def qos_smoke(seed: int = 0) -> tuple[int, str]:
    """Seeded CI battery; returns ``(exit_code, report)``.

    Three tenants (reservation-heavy / weight-heavy / limit-capped)
    saturate the shared pool.  Nonzero when any fairness property
    fails: gold below its floor, bronze above its cap, a 3:1 weight
    pair splitting off-ratio by more than 10%, aggregate throughput
    under 95% of the unscheduled FIFO baseline, or two same-seed runs
    diverging.
    """
    battery = run_qos_scenario(BATTERY, seed=seed)
    rerun = run_qos_scenario(BATTERY, seed=seed)
    fifo = run_qos_scenario(BATTERY, seed=seed, qos=False)
    pair = run_qos_scenario(WEIGHT_PAIR, seed=seed)

    problems = []
    gold = battery.tenants["gold"]
    bronze = battery.tenants["bronze"]
    if gold.op_iops < RES_IOPS:
        problems.append(
            f"gold below reservation floor: {gold.op_iops:,.0f} < {RES_IOPS:,.0f} op-IOPS"
        )
    ceiling = CAP_SLACK * CAP_IOPS
    if bronze.op_iops > ceiling:
        problems.append(
            f"bronze above limit ceiling: {bronze.op_iops:,.0f} > {ceiling:,.0f} op-IOPS"
        )
    heavy = pair.tenants["heavy"].iops
    light = pair.tenants["light"].iops
    ratio = heavy / light if light else float("inf")
    if abs(ratio - 3.0) > SPLIT_TOLERANCE:
        problems.append(f"weight split off-ratio: {heavy:,.0f}/{light:,.0f} = {ratio:.2f}, want 3.0 +/- {SPLIT_TOLERANCE}")
    work_floor = FIFO_SHARE * fifo.aggregate_iops
    if battery.aggregate_iops < work_floor:
        problems.append(
            f"not work-conserving: {battery.aggregate_iops:,.0f} < {work_floor:,.0f} IOPS "
            f"({FIFO_SHARE:.0%} of FIFO)"
        )
    if battery.digest != rerun.digest:
        problems.append(
            f"nondeterministic: digests {battery.digest} != {rerun.digest}"
        )
    if battery.reservation_phase == 0:
        problems.append("no reservation-phase dispatches: floor never exercised")
    if battery.limit_waits == 0:
        problems.append("no limit waits: ceiling never exercised")

    res = ExperimentResult(
        "qos-smoke",
        "3-tenant fairness battery vs FIFO baseline",
        ["tenant", "profile", "IOPS", "fifo IOPS", "res%", "wait_us"],
    )
    for name, (spec, _depth) in BATTERY.items():
        s = battery.tenants[name]
        f = fifo.tenants[name]
        res_share = 100 * s.res_ops / s.sched_ops if s.sched_ops else 0.0
        res.rows.append([
            name, _profile_label(spec), round(s.iops), round(f.iops),
            round(res_share, 1), round(s.mean_wait_us, 1),
        ])
    report = res.render()
    report += (
        f"\nweight pair: heavy {heavy:,.0f} / light {light:,.0f} IOPS "
        f"(ratio {ratio:.2f}); aggregate {battery.aggregate_iops:,.0f} vs FIFO "
        f"{fifo.aggregate_iops:,.0f} IOPS"
    )
    return smoke_verdict(
        report, problems,
        f"floor {gold.op_iops:,.0f} >= {RES_IOPS:,.0f} op-IOPS, cap {bronze.op_iops:,.0f} "
        f"<= {ceiling:,.0f} op-IOPS ({CAP_IOPS:,.0f} + {CAP_SLACK - 1:.0%}), split "
        f"{ratio:.2f} within 3.0 +/- {SPLIT_TOLERANCE}, aggregate "
        f"{battery.aggregate_iops:,.0f} >= {work_floor:,.0f} IOPS ({FIFO_SHARE:.0%} of "
        f"FIFO), deterministic (digest {battery.digest})",
    )
