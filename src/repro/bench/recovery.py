"""Self-healing experiment: recovery under live client IO.

Exercises the online recovery subsystem (``repro.osd.recovery``): kill
an OSD mid-workload, let the PG state machine peer and the background
agents backfill every missing copy through the real fabric, then revive
(or expand) and converge again — all while a client keeps reading and
writing the same objects.  Reports recovery time, bytes moved, client
IO served while degraded, and the availability invariant (zero client
hard-failures throughout).

The throttle sweep measures the client-vs-recovery tradeoff the
:class:`~repro.osd.recovery.RecoveryConfig` knobs expose: in-flight
window, bytes/s cap, and client-priority backoff.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from ..errors import StorageError
from ..osd import (
    ClusterSpec,
    DurabilityConfig,
    OpPolicy,
    OsdConfig,
    RecoveryConfig,
    Scrubber,
    build_cluster,
)
from ..sim import Environment, MetricsRegistry
from ..units import ms, us
from .experiments import ExperimentResult
from .tables import smoke_verdict

#: Testbed: two server hosts x four OSDs (small enough for CI, large
#: enough that one OSD's loss remaps a good fraction of the PGs).
SERVERS = 2
OSDS_PER_HOST = 4
PG_NUM = 16
#: Client op policy: short timeouts + generous retries so IO against a
#: just-killed OSD fails over instead of hanging or surfacing an error.
OP_POLICY = OpPolicy(timeout_ns=ms(20), max_attempts=12)
OSD_CONFIG = OsdConfig(subop_timeout_ns=ms(5))


@dataclass(frozen=True)
class RecoveryScenario:
    """One kill/heal schedule applied to a run."""

    name: str
    pool_kind: str = "replicated"  # or "ec"
    kill: tuple[int, ...] = (3,)
    revive: bool = False
    config: Optional[RecoveryConfig] = None
    #: Kill by cutting power instead of wiping: the OSD keeps its WAL
    #: and store, so the revive replays the log and recovery ships only
    #: the ops missed since the crash epoch (log-based delta recovery)
    #: instead of unconditionally backfilling every object.
    power_cycle: bool = False


SCENARIOS = (
    RecoveryScenario("rep-kill1", "replicated", kill=(3,)),
    RecoveryScenario("rep-kill1-revive", "replicated", kill=(3,), revive=True),
    RecoveryScenario("ec-kill1", "ec", kill=(3,)),
    RecoveryScenario("ec-kill1-revive", "ec", kill=(3,), revive=True),
)

#: Power-cycle counterpart of ``rep-kill1-revive``, kept out of
#: ``SCENARIOS`` (its delta push is intentionally tiny): the revived OSD
#: replays its WAL, so only objects written during the outage move.
DELTA_SCENARIO = RecoveryScenario(
    "rep-power-cycle", "replicated", kill=(3,), revive=True, power_cycle=True
)

#: Throttle sweep: same revive scenario, different RecoveryConfigs.
THROTTLE_CONFIGS = (
    ("window1", RecoveryConfig(max_inflight_ops=1)),
    ("window8", RecoveryConfig(max_inflight_ops=8)),
    ("capped", RecoveryConfig(max_inflight_ops=8, bytes_per_sec=20_000_000)),
    ("yield", RecoveryConfig(max_inflight_ops=8, client_priority=True)),
)


@dataclass
class RecoveryRunStats:
    """Outcome of one scenario run."""

    scenario: str
    objects: int
    recovery_ns: int
    bytes_pushed: int
    objects_recovered: int
    pgs_recovered: int
    trims: int
    client_ios: int
    client_failures: int
    degraded_placements: int
    gate_waits: int
    read_mismatches: int
    scrub_clean: bool
    unrecoverable: int
    pg_states: dict
    digest: str


def _build(
    seed: int,
    pool_kind: str,
    config: Optional[RecoveryConfig],
    durable: bool = False,
):
    env = Environment()
    metrics = env.metrics = MetricsRegistry()
    spec = ClusterSpec(
        num_server_hosts=SERVERS,
        osds_per_host=OSDS_PER_HOST,
        op_policy=OP_POLICY,
        osd_config=OSD_CONFIG,
        durability=DurabilityConfig() if durable else None,
        seed=seed,
    )
    cluster = build_cluster(env, spec)
    if pool_kind == "replicated":
        pool = cluster.create_replicated_pool("pool", pg_num=PG_NUM, size=3)
    else:
        pool = cluster.create_erasure_pool("pool", pg_num=PG_NUM, k=4, m=2)
    manager = cluster.enable_recovery(config or RecoveryConfig())
    return env, metrics, cluster, pool, manager


def write_object(client, pool, name, data):
    """Process: direct whole-object write, replicated or EC by ``pool``'s type."""
    if pool.pool_type.value == "replicated":
        yield from client.write_replicated(pool, name, data, direct=True)
    else:
        yield from client.write_ec(pool, name, data, direct=True)


def read_object(client, pool, name, length):
    """Process: read ``length`` bytes of object ``name`` from offset 0."""
    if pool.pool_type.value == "replicated":
        data = yield from client.read_replicated(pool, name, 0, length)
    else:
        data = yield from client.read_ec(pool, name, length, direct=True)
    return data


def _client_load(env, client, pool, payload, stats, stop):
    """Process: keep reading and rewriting objects until told to stop.

    Every IO that raises counts as a hard failure — the availability
    invariant is that this stays zero while the cluster heals."""
    names = sorted(payload)
    i = 0
    while not stop["flag"]:
        name = names[i % len(names)]
        try:
            if i % 3 == 2:
                yield from write_object(client, pool, name, payload[name])
            else:
                got = yield from read_object(client, pool, name, len(payload[name]))
                if got != payload[name]:
                    stats["mismatches"] += 1
            stats["ios"] += 1
        except StorageError:
            stats["failures"] += 1
        i += 1
        yield env.timeout(us(200))


def run_recovery_scenario(
    scenario: RecoveryScenario, seed: int = 0, nobjects: int = 24
) -> RecoveryRunStats:
    """Build a fresh testbed, run one kill/heal schedule, collect stats."""
    env, metrics, cluster, pool, manager = _build(
        seed, scenario.pool_kind, scenario.config, durable=scenario.power_cycle
    )
    client = cluster.new_client()
    verifier = cluster.new_client("verifier")
    payload = {
        f"obj{i:03d}": bytes([(i * 7 + j) % 251 for j in range(4096)])
        for i in range(nobjects)
    }
    load_stats = {"ios": 0, "failures": 0, "mismatches": 0}
    stop = {"flag": False}
    out: dict = {}

    def main():
        for name, data in payload.items():
            yield from write_object(client, pool, name, data)
        env.process(
            _client_load(env, client, pool, payload, load_stats, stop),
            name="recovery.load",
        )
        t0 = env.now
        for osd_id in scenario.kill:
            if scenario.power_cycle:
                # Power cut, not a wipe: the daemon stops with the AGAIN
                # status, the volatile cache resolves under seeded
                # fates, and the map marks it down so IO re-places.
                cluster.power_loss_osd(osd_id)
                cluster.osdmap.mark_down(osd_id)
            else:
                cluster.fail_osd(osd_id)
        yield from manager.wait_converged()
        if scenario.revive:
            for osd_id in scenario.kill:
                if scenario.power_cycle:
                    cluster.power_on_osd(osd_id)
                else:
                    cluster.monitor.revive_osd(osd_id)
            yield from manager.wait_converged()
        out["recovery_ns"] = env.now - t0
        stop["flag"] = True
        # Verify through a second client: every byte identical.
        mismatches = 0
        for name, data in payload.items():
            got = yield from read_object(verifier, pool, name, len(data))
            if got != data:
                mismatches += 1
        out["read_mismatches"] = mismatches
        scrubber = Scrubber(env, cluster.monitor)
        report = yield from scrubber.scrub(pool, deep=True)
        out["scrub_clean"] = report.clean

    proc = env.process(main(), name=f"recovery.{scenario.name}")
    env.run()
    if not proc.ok:
        raise proc.value

    fingerprint = hashlib.sha256()
    fingerprint.update(
        repr((
            out["recovery_ns"],
            metrics.counter("recovery.bytes_pushed").value,
            metrics.counter("recovery.objects_recovered").value,
            metrics.counter("recovery.trims").value,
            load_stats["ios"],
            load_stats["failures"],
            sorted(manager.pg_states().items()),
        )).encode()
    )
    return RecoveryRunStats(
        scenario=scenario.name,
        objects=nobjects,
        recovery_ns=out["recovery_ns"],
        bytes_pushed=metrics.counter("recovery.bytes_pushed").value,
        objects_recovered=metrics.counter("recovery.objects_recovered").value,
        pgs_recovered=manager.pgs_recovered,
        trims=metrics.counter("recovery.trims").value,
        client_ios=load_stats["ios"],
        client_failures=load_stats["failures"],
        degraded_placements=client.degraded_placements,
        gate_waits=metrics.counter("recovery.write_gate_waits").value,
        read_mismatches=out["read_mismatches"] + load_stats["mismatches"],
        scrub_clean=out["scrub_clean"],
        unrecoverable=manager.objects_unrecoverable,
        pg_states=manager.pg_states(),
        digest=fingerprint.hexdigest()[:16],
    )


def _result_table(stats: list[RecoveryRunStats]) -> ExperimentResult:
    res = ExperimentResult(
        "recover",
        "online self-healing: recovery under live client IO",
        ["scenario", "objs", "rec_ms", "pushMB", "moved", "pgs", "trim",
         "cIO", "cFail", "degr", "gate", "clean"],
    )
    for s in stats:
        res.rows.append([
            s.scenario, s.objects, round(s.recovery_ns / 1e6, 2),
            round(s.bytes_pushed / 1e6, 2), s.objects_recovered,
            s.pgs_recovered, s.trims, s.client_ios, s.client_failures,
            s.degraded_placements, s.gate_waits,
            "y" if s.scrub_clean and not s.read_mismatches else "N",
        ])
    return res


def exp_recovery(smoke: bool = False, seed: int = 0) -> ExperimentResult:
    """All kill/heal scenarios plus the recovery-throttle sweep."""
    nobjects = 12 if smoke else 24
    stats = [run_recovery_scenario(s, seed=seed, nobjects=nobjects) for s in SCENARIOS]
    res = _result_table(stats)
    sweep = []
    for tag, config in THROTTLE_CONFIGS:
        s = run_recovery_scenario(
            RecoveryScenario(f"rep-revive-{tag}", "replicated", kill=(3,),
                             revive=True, config=config),
            seed=seed, nobjects=nobjects,
        )
        sweep.append(f"{tag}: {s.recovery_ns / 1e6:.2f} ms, {s.client_ios} client IOs")
    delta = run_recovery_scenario(DELTA_SCENARIO, seed=seed, nobjects=nobjects)
    full = next(s for s in stats if s.scenario == "rep-kill1-revive")
    res.notes = (
        "throttle sweep (rep-kill1-revive): " + "; ".join(sweep)
        + f"; delta recovery (rep-power-cycle, WAL replay): "
        f"{delta.bytes_pushed / 1e6:.3f} MB pushed vs "
        f"{full.bytes_pushed / 1e6:.3f} MB full backfill"
    )
    return res


def recover_smoke(seed: int = 0, nobjects: int = 12) -> tuple[int, str]:
    """Seeded CI smoke: kill + revive under client load, both pool kinds.

    Returns ``(exit_code, report)``; nonzero when any invariant fails:
    zero client hard-failures while degraded, byte-identical reads
    through a second client, clean deep scrub, recovery bytes actually
    moved through the fabric, and bit-identical stats across two
    same-seed runs.
    """
    scenarios = [SCENARIOS[1], SCENARIOS[3]]  # rep + ec, kill then revive
    stats = [run_recovery_scenario(s, seed=seed, nobjects=nobjects) for s in scenarios]
    rerun = run_recovery_scenario(scenarios[0], seed=seed, nobjects=nobjects)
    problems = []
    for s in stats:
        if s.client_failures:
            problems.append(f"{s.scenario}: {s.client_failures} client hard-failures")
        if s.read_mismatches:
            problems.append(f"{s.scenario}: {s.read_mismatches} read mismatches")
        if not s.scrub_clean:
            problems.append(f"{s.scenario}: deep scrub found inconsistencies")
        if s.bytes_pushed == 0:
            problems.append(f"{s.scenario}: no recovery bytes moved through the fabric")
        if s.unrecoverable:
            problems.append(f"{s.scenario}: {s.unrecoverable} unrecoverable objects")
    if rerun.digest != stats[0].digest:
        problems.append(
            f"nondeterministic: digests {stats[0].digest} != {rerun.digest}"
        )
    return smoke_verdict(
        _result_table(stats).render(), problems,
        f"{sum(s.client_ios for s in stats)} client IOs under "
        f"recovery, 0 hard-failures, scrub clean, deterministic "
        f"(digest {stats[0].digest})",
    )
