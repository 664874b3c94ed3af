"""Chaos experiment: availability and tail latency under injected faults.

Runs the full DeLiBA-K stack (io_uring -> blk-mq -> UIFD -> fabric ->
OSDs) through a randrw workload while the :class:`FaultInjector` crashes
replicas mid-run, drops/duplicates/corrupts fabric messages, or flaps
host links.  Reports per-scenario availability (fraction of I/Os that
completed without a client-visible error), error rate, tail latency, and
the fault-path counters (retries, failovers, timeouts, absorbed write
replays) against a fault-free baseline on the identical cluster shape.

Everything draws from named sim RNG substreams, so a scenario replays
bit-identically for a given seed — the determinism check below runs the
crash scenario twice and compares digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..deliba import FRAMEWORKS, PoolSpec, build_framework
from ..osd import ClusterSpec, DurabilityConfig, FaultInjector, OpPolicy, OsdConfig
from ..units import kib, mib, ms, us
from ..workloads import FioJob
from .experiments import ExperimentResult
from .tables import smoke_verdict

#: Cluster shape: three server hosts so a size-3 pool keeps one replica
#: per host and losing one OSD still leaves two copies.
CHAOS_SERVERS = 3
CHAOS_OSDS_PER_HOST = 4
#: Heartbeat cadence: probe every 400 us, declare down after 300 us.
HB_INTERVAL_NS = us(400)
HB_GRACE_NS = us(300)


@dataclass(frozen=True)
class ChaosScenario:
    """One fault schedule applied to a run."""

    name: str
    #: Fabric message-fault probabilities (0 = off).
    drop_p: float = 0.0
    duplicate_p: float = 0.0
    corrupt_p: float = 0.0
    #: Crash the primary of the image's first object mid-run.
    crash_replica: bool = False
    #: Flap one server host's links mid-run (3 cycles of 300 us each way).
    flap_host: bool = False
    #: Run monitor heartbeats so crashes are *detected*, not injected.
    heartbeats: bool = False
    #: Cut power to the primary of the image's first object mid-run,
    #: then restore it after ``POWER_OUTAGE_NS`` (durable WAL replay).
    power_loss: bool = False


SCENARIOS = (
    ChaosScenario("baseline"),
    ChaosScenario("crash-replica", crash_replica=True, heartbeats=True),
    ChaosScenario("lossy-fabric", drop_p=0.02, duplicate_p=0.01, corrupt_p=0.01),
    ChaosScenario("flaky-link", flap_host=True),
    ChaosScenario("power-loss", heartbeats=True, power_loss=True),
)

#: How long a power-loss outage lasts before power is restored.
POWER_OUTAGE_NS = ms(2)


@dataclass
class ChaosRunStats:
    """Outcome of one scenario run."""

    scenario: str
    ios: int
    errors: int
    error_rate: float
    p50_us: float
    p99_us: float
    p999_us: float
    throughput_mb_s: float
    retries: int
    timeouts: int
    failovers: int
    degraded_reads: int
    replays: int
    msg_dropped: int
    msg_duplicated: int
    msg_corrupted: int
    link_drops: int
    osds_marked_down: int
    digest: str
    #: Power-loss path counters (trailing defaults: fault-free scenarios
    #: and their golden digests predate these fields).
    power_loss_retries: int = 0
    wal_replays: int = 0

    @property
    def availability(self) -> float:
        """Fraction of I/Os that completed without a client-visible error."""
        return 1.0 - self.error_rate


def _chaos_cluster_spec(seed: int, client_stack, durable: bool = False) -> ClusterSpec:
    """Chaos testbed: 3 hosts x 4 OSDs, retry policy with a real timeout
    (silently dropped messages must not hang an op), and an OSD sub-op
    deadline so a primary never strands on a lost replica write.

    ``durable`` attaches the WAL commit pipeline to every OSD (required
    by the power-loss scenario; off elsewhere so the fault-free golden
    digests stay byte-identical)."""
    return ClusterSpec(
        num_server_hosts=CHAOS_SERVERS,
        osds_per_host=CHAOS_OSDS_PER_HOST,
        client_stack=client_stack,
        osd_config=OsdConfig(subop_timeout_ns=ms(1)),
        op_policy=OpPolicy(timeout_ns=ms(2), max_attempts=6),
        durability=DurabilityConfig() if durable else None,
        seed=seed,
    )


def _drive(fw, job, injector, scenario: ChaosScenario, crash_after_ops: int):
    """Process: prefill, arm the fault schedule, run the measured job."""
    from ..blk import IoOp

    bios = job.make_bios(fw.rng.stream(f"fio.{job.name}.j0"))
    read_offsets = sorted({b.offset for b in bios if b.op == IoOp.READ})
    if read_offsets:
        yield from fw.prefill(read_offsets, job.bs)
    env = fw.env
    cluster = fw.cluster
    done = {"flag": False}

    if scenario.heartbeats:
        cluster.monitor.start_heartbeats(HB_INTERVAL_NS, HB_GRACE_NS)
    if scenario.crash_replica:
        # Crash the primary of the first object once the measured run is
        # underway (ops_served past the post-prefill watermark).
        victim = fw.image.client.compute_placement(fw.pool, fw.image.object_name(0))[0]
        ops_at_start = cluster.total_ops_served()

        def _crash_trigger():
            while not done["flag"]:
                if cluster.total_ops_served() - ops_at_start >= crash_after_ops:
                    injector.crash_osd(victim)
                    return
                yield env.timeout(us(100))

        env.process(_crash_trigger(), name="chaos.crash-trigger")
    if scenario.flap_host:
        injector.flap_link(cluster.server_hosts[-1], us(300), us(300), count=3)
    if scenario.power_loss:
        # Cut power to the first object's primary mid-run: the volatile
        # cache resolves under seeded fates, in-flight ops bounce with
        # the retryable AGAIN status, heartbeats detect the outage, and
        # after POWER_OUTAGE_NS the OSD replays its WAL and rejoins.
        victim = fw.image.client.compute_placement(fw.pool, fw.image.object_name(0))[0]
        ops_at_start = cluster.total_ops_served()

        def _power_trigger():
            while not done["flag"]:
                if cluster.total_ops_served() - ops_at_start >= crash_after_ops:
                    injector.power_loss(victim)
                    yield env.timeout(POWER_OUTAGE_NS)
                    injector.restore_power(victim)
                    return
                yield env.timeout(us(100))

        env.process(_power_trigger(), name="chaos.power-trigger")

    try:
        result = yield from fw.engine.run(bios, job.iodepth)
    finally:
        done["flag"] = True
        if scenario.heartbeats:
            cluster.monitor.stop_heartbeats()
    return result


def run_chaos_scenario(
    scenario: ChaosScenario, seed: int = 0, nrequests: int = 300
) -> ChaosRunStats:
    """Build a fresh chaos testbed, run one scenario, collect stats."""
    cfg = FRAMEWORKS["delibak"]
    fw = build_framework(
        cfg,
        pool_spec=PoolSpec(kind="replicated", size=3),
        cluster_spec=_chaos_cluster_spec(
            seed, cfg.client_stack, durable=scenario.power_loss
        ),
        seed=seed,
        metrics=True,
    )
    injector = FaultInjector(fw.cluster)
    if scenario.drop_p or scenario.duplicate_p or scenario.corrupt_p:
        injector.set_message_faults(
            drop_p=scenario.drop_p,
            duplicate_p=scenario.duplicate_p,
            corrupt_p=scenario.corrupt_p,
        )
    job = FioJob(
        name="chaos", rw="randrw", bs=kib(4), iodepth=8, nrequests=nrequests, size=mib(32)
    )
    crash_after = int(0.6 * nrequests)
    proc = fw.env.process(
        _drive(fw, job, injector, scenario, crash_after), name=f"chaos.{scenario.name}"
    )
    fw.env.run()
    if not proc.ok:
        raise proc.value
    result = proc.value

    client = fw.image.client
    faults = fw.cluster.fabric.faults
    replays = sum(d.replays_absorbed for d in fw.cluster.daemons.values())
    fingerprint = hashlib.sha256()
    fingerprint.update(repr(tuple(result.latencies_ns)).encode())
    fingerprint.update(
        repr((result.errors, client.retries, client.timeouts, client.failovers,
              client.degraded_reads, replays)).encode()
    )
    return ChaosRunStats(
        scenario=scenario.name,
        ios=result.ios,
        errors=result.errors,
        error_rate=result.error_rate(),
        p50_us=result.percentile_latency_us(50),
        p99_us=result.percentile_latency_us(99),
        p999_us=result.percentile_latency_us(99.9),
        throughput_mb_s=result.throughput_mb_s(),
        retries=client.retries,
        timeouts=client.timeouts,
        failovers=client.failovers,
        degraded_reads=client.degraded_reads,
        replays=replays,
        msg_dropped=faults.dropped if faults else 0,
        msg_duplicated=faults.duplicated if faults else 0,
        msg_corrupted=faults.corrupted if faults else 0,
        link_drops=fw.cluster.fabric.link_drops,
        osds_marked_down=len(fw.cluster.monitor.failures_detected),
        digest=fingerprint.hexdigest()[:16],
        power_loss_retries=client.power_loss_retries,
        wal_replays=sum(
            d.wal.replays for d in fw.cluster.daemons.values() if d.wal is not None
        ),
    )


def _result_table(stats: list[ChaosRunStats]) -> ExperimentResult:
    res = ExperimentResult(
        "chaos",
        "fault-tolerance datapath: availability + tails under injected faults",
        ["scenario", "ios", "err", "avail%", "p50us", "p99us", "p999us",
         "MB/s", "retry", "t/o", "fover", "replay", "drop", "ploss"],
    )
    for s in stats:
        res.rows.append([
            s.scenario, s.ios, s.errors, round(100.0 * s.availability, 3),
            round(s.p50_us, 1), round(s.p99_us, 1), round(s.p999_us, 1),
            round(s.throughput_mb_s, 1), s.retries, s.timeouts, s.failovers,
            s.replays, s.msg_dropped + s.link_drops, s.power_loss_retries,
        ])
    return res


def exp_chaos(smoke: bool = False, seed: int = 0) -> ExperimentResult:
    """Run every chaos scenario plus a determinism double-run."""
    return chaos_table(smoke, seed)[1]


def chaos_table(smoke: bool = False, seed: int = 0) -> tuple[int, ExperimentResult]:
    """:func:`exp_chaos` with an exit code: nonzero when the same-seed
    rerun of the crash-replica scenario produced a different digest."""
    nreq = 80 if smoke else 300
    stats = [run_chaos_scenario(s, seed=seed, nrequests=nreq) for s in SCENARIOS]
    by_name = {s.scenario: s for s in stats}
    rerun = run_chaos_scenario(SCENARIOS[1], seed=seed, nrequests=nreq)
    deterministic = rerun.digest == by_name["crash-replica"].digest
    res = _result_table(stats)
    crash = by_name["crash-replica"]
    ploss = by_name["power-loss"]
    res.notes = (
        f"crash-replica: {crash.osds_marked_down} OSD(s) heartbeat-detected down, "
        f"{crash.retries} retries + {crash.failovers} read failovers, "
        f"{crash.errors} client-visible errors; "
        f"power-loss: {ploss.power_loss_retries} AGAIN-bounced ops retried, "
        f"{ploss.wal_replays} WAL replay(s), {ploss.errors} errors; "
        f"determinism (same seed, two runs): "
        f"{'PASS' if deterministic else 'FAIL'} (digest {crash.digest})"
    )
    return (0 if deterministic else 1), res


def chaos_smoke(seed: int = 0, nrequests: int = 80) -> tuple[int, str]:
    """Seeded CI smoke: crash a replica mid-run and check the invariants.

    Returns ``(exit_code, report)``; nonzero when any invariant fails:
    zero client-visible errors, at least one retry or failover exercised,
    and bit-identical stats across two same-seed runs.
    """
    first = run_chaos_scenario(SCENARIOS[1], seed=seed, nrequests=nrequests)
    second = run_chaos_scenario(SCENARIOS[1], seed=seed, nrequests=nrequests)
    problems = []
    if first.errors:
        problems.append(f"expected 0 client-visible errors, got {first.errors}")
    if first.retries + first.failovers == 0:
        problems.append("fault path never exercised (0 retries and 0 failovers)")
    if first.digest != second.digest:
        problems.append(
            f"nondeterministic: digests {first.digest} != {second.digest}"
        )
    return smoke_verdict(
        _result_table([first]).render(), problems,
        f"{first.ios} I/Os, 0 errors, {first.retries} retries, "
        f"{first.failovers} failovers, deterministic (digest {first.digest})",
    )


def power_loss_smoke(seed: int = 0, nrequests: int = 80) -> tuple[int, str]:
    """Seeded CI smoke: cut a primary's power mid-run, replay, rejoin.

    Returns ``(exit_code, report)``; nonzero when any invariant fails:
    zero client-visible errors (AGAIN bounces must be retried to
    success), exactly one WAL replay on the revived OSD, and
    bit-identical stats across two same-seed runs.
    """
    scenario = SCENARIOS[4]
    first = run_chaos_scenario(scenario, seed=seed, nrequests=nrequests)
    second = run_chaos_scenario(scenario, seed=seed, nrequests=nrequests)
    problems = []
    if first.errors:
        problems.append(f"expected 0 client-visible errors, got {first.errors}")
    if first.wal_replays != 1:
        problems.append(f"expected exactly 1 WAL replay, got {first.wal_replays}")
    if first.power_loss_retries + first.retries + first.failovers == 0:
        problems.append("power-loss path never exercised (no bounced ops)")
    if first.digest != second.digest:
        problems.append(
            f"nondeterministic: digests {first.digest} != {second.digest}"
        )
    return smoke_verdict(
        _result_table([first]).render(), problems,
        f"{first.ios} I/Os survived a {POWER_OUTAGE_NS // 1000} us "
        f"power outage with 0 errors, {first.power_loss_retries} AGAIN-bounced "
        f"ops retried, {first.wal_replays} WAL replay, deterministic "
        f"(digest {first.digest})",
    )
