"""Deterministic crash-point explorer (ALICE/CrashMonkey-style).

Systematically verifies the crash consistency of the WAL commit pipeline
(``repro.osd.wal``): run a scripted workload once crash-free to record
the victim OSD's **persistence-ordering events** (journal appends,
extent stages, barriers, background applies), enumerate crash points
from that timeline, and for each point rebuild the identical same-seed
testbed, cut the victim's power at exactly that instant, replay the WAL,
let log-based delta recovery converge, and check the durability
invariants through an independent client:

* every **acked** write is durable (its bytes, or a later write's, are
  what the cluster serves);
* every **unacked** write is atomic — readers see old bytes or new
  bytes, never a torn hybrid and never a value that was never written;
* lazily derived checksums verify on every surviving store key;
* a deep scrub of the pool comes back clean.

All randomness (torn-write fates, media jitter) draws from the seeded
cluster RNG streams, so the whole matrix — crash instants included — is
byte-for-byte reproducible; the smoke check runs one matrix twice and
compares digests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..errors import StorageError
from ..osd import (
    ClusterSpec,
    DurabilityConfig,
    FaultInjector,
    OpPolicy,
    OsdConfig,
    Scrubber,
    build_cluster,
)
from ..sim import Environment, MetricsRegistry
from ..units import ms, us
from .experiments import ExperimentResult
from .recovery import read_object, write_object
from .tables import smoke_verdict

#: Testbed: two server hosts x three OSDs — small enough that one crash
#: point's full build/run/verify cycle stays cheap, large enough for a
#: size-3 replicated pool and a k=2+1 EC pool to place fully.
SERVERS = 2
OSDS_PER_HOST = 3
PG_NUM = 8
#: Heartbeat cadence while a point runs: the power loss must be
#: *detected* so clients re-place instead of retrying into the outage.
HB_INTERVAL_NS = us(400)
HB_GRACE_NS = us(300)

#: Scripted workload: objects under (deferred path) and over (commit
#: path) the WAL defer threshold, each written twice (v0 then v1) so
#: crash points land between versions, mid-append, and mid-apply.
WORKLOAD = (
    ("small0", 4096),
    ("small1", 4096),
    ("small2", 4096),
    ("big0", 65536),
    ("big1", 65536),
    ("big2", 65536),
)
WRITE_GAP_NS = us(50)


def _pattern(index: int, round_no: int, size: int) -> bytes:
    """Deterministic per-(object, version) payload."""
    return bytes([(index * 31 + round_no * 101 + j) % 251 for j in range(size)])


@dataclass
class CrashPointResult:
    """Outcome of one crash point."""

    crash_ns: int
    acked: int
    unacked: int
    violations: list[str]
    torn_detected: int
    records_replayed: int
    records_discarded: int
    keys_dropped: int


@dataclass
class CrashSimStats:
    """Outcome of one pool's crash-point matrix."""

    pool_kind: str
    candidate_points: int
    explored_points: int
    points: list[CrashPointResult] = field(default_factory=list)
    digest: str = ""

    @property
    def violations(self) -> list[str]:
        return [v for p in self.points for v in p.violations]

    @property
    def torn_detected(self) -> int:
        return sum(p.torn_detected for p in self.points)

    @property
    def records_replayed(self) -> int:
        return sum(p.records_replayed for p in self.points)


def _build(seed: int, pool_kind: str):
    env = Environment()
    env.metrics = MetricsRegistry()
    spec = ClusterSpec(
        num_server_hosts=SERVERS,
        osds_per_host=OSDS_PER_HOST,
        op_policy=OpPolicy(timeout_ns=ms(2), max_attempts=8),
        osd_config=OsdConfig(subop_timeout_ns=ms(1)),
        # More adversarial than the defaults: tear as often as we
        # persist, so the checksum/healing paths get real coverage.
        durability=DurabilityConfig(persist_p=0.35, tear_p=0.35, record_events=True),
        seed=seed,
    )
    cluster = build_cluster(env, spec)
    if pool_kind == "replicated":
        pool = cluster.create_replicated_pool("pool", pg_num=PG_NUM, size=3)
    else:
        pool = cluster.create_erasure_pool("pool", pg_num=PG_NUM, k=2, m=1)
    manager = cluster.enable_recovery()
    return env, cluster, pool, manager


def _workload(env, client, pool, journal):
    """Process: the scripted write sequence, journaling ack outcomes.

    ``journal[name]`` is the ordered list of write attempts; a write
    that raises (it lost its race with the power cut and exhausted
    retries) stays ``acked=False`` — its bytes may or may not survive,
    and the invariant checker accepts either, but never a torn mix.
    """
    for round_no in (0, 1):
        for i, (name, size) in enumerate(WORKLOAD):
            entry = {"data": _pattern(i, round_no, size), "acked": False}
            journal[name].append(entry)
            try:
                yield from write_object(client, pool, name, entry["data"])
                entry["acked"] = True
            except StorageError:
                pass
            yield env.timeout(WRITE_GAP_NS)


def _acceptable_values(entries) -> tuple[list[bytes], bool]:
    """(acceptable final contents, absence allowed) for one object.

    The last acked value must survive; any *later* unacked write may
    have landed (old-or-new atomicity).  With no acked write at all,
    absence (or zeros) is also legal, as is any unacked value.
    """
    last_acked = -1
    for i, e in enumerate(entries):
        if e["acked"]:
            last_acked = i
    if last_acked < 0:
        return [e["data"] for e in entries], True
    return [entries[last_acked]["data"]] + [
        e["data"] for e in entries[last_acked + 1 :]
    ], False


def harvest_crash_points(seed: int, pool_kind: str, max_points: int) -> tuple[list[int], int, int]:
    """Phase A: crash-free run; enumerate crash points from the victim's
    persistence-ordering events.

    Candidates are each event instant +1 ns plus the midpoints between
    consecutive events (crashing *between* orderings is where torn and
    reordered states hide).  Returns ``(points, candidates, victim)``.
    """
    env, cluster, pool, _manager = _build(seed, pool_kind)
    client = cluster.new_client()
    journal = {name: [] for name, _ in WORKLOAD}
    victim = client.compute_placement(pool, WORKLOAD[0][0])[0]

    def main():
        cluster.monitor.start_heartbeats(HB_INTERVAL_NS, HB_GRACE_NS)
        yield from _workload(env, client, pool, journal)
        cluster.monitor.stop_heartbeats()

    proc = env.process(main(), name="crashsim.harvest")
    env.run()
    if not proc.ok:
        raise proc.value
    events = cluster.daemons[victim].wal.events
    times = sorted({t for t, _kind, _seq in events})
    candidates: set[int] = set()
    for i, t in enumerate(times):
        candidates.add(t + 1)
        if i + 1 < len(times):
            mid = (t + times[i + 1]) // 2
            if mid > t:
                candidates.add(mid)
    points = sorted(candidates)
    total = len(points)
    if total > max_points:
        # Even deterministic subsample across the timeline.
        step = total / max_points
        points = [points[int(k * step)] for k in range(max_points)]
    return points, total, victim


def run_crash_point(seed: int, pool_kind: str, victim: int, crash_ns: int) -> CrashPointResult:
    """Phase B: identical testbed, power cut at ``crash_ns``, replay,
    delta recovery, then the invariant checks."""
    env, cluster, pool, manager = _build(seed, pool_kind)
    client = cluster.new_client()
    verifier = cluster.new_client("verifier")
    injector = FaultInjector(cluster)
    journal = {name: [] for name, _ in WORKLOAD}
    out: dict = {}

    def main():
        cluster.monitor.start_heartbeats(HB_INTERVAL_NS, HB_GRACE_NS)
        cut = injector.schedule(
            [(crash_ns, lambda: injector.power_loss(victim))], name="crashsim.cut"
        )
        yield from _workload(env, client, pool, journal)
        if not cut.triggered:
            yield cut
        out["replay"] = injector.restore_power(victim)
        yield from manager.wait_converged()
        cluster.monitor.stop_heartbeats()
        # -- invariant checks --
        violations = []
        reads = {}
        for i, (name, size) in enumerate(WORKLOAD):
            acceptable, may_be_absent = _acceptable_values(journal[name])
            try:
                got = yield from read_object(verifier, pool, name, size)
            except StorageError:
                got = None
            if got is None or got == b"\x00" * size:
                reads[name] = "absent"
                if not may_be_absent:
                    violations.append(
                        f"{pool_kind}@{crash_ns}: {name} lost an acked write"
                    )
                continue
            reads[name] = hashlib.sha256(got).hexdigest()[:12]
            if not any(got == v for v in acceptable):
                kind = (
                    "torn/invented state"
                    if any(len(v) == len(got) for v in acceptable)
                    else "wrong content"
                )
                violations.append(f"{pool_kind}@{crash_ns}: {name} served {kind}")
        # Lazy checksums must verify on every surviving key, cluster-wide.
        for osd_id, daemon in sorted(cluster.daemons.items()):
            for key in daemon.store.object_names():
                if not daemon.store.verify(key):
                    violations.append(
                        f"{pool_kind}@{crash_ns}: osd.{osd_id} key {key} checksum bad"
                    )
        report = yield from Scrubber(env, cluster.monitor).scrub(pool, deep=True)
        if not report.clean:
            violations.append(f"{pool_kind}@{crash_ns}: deep scrub unclean")
        if cluster.daemons[victim].wal.replays != 1:
            violations.append(
                f"{pool_kind}@{crash_ns}: expected exactly one WAL replay, "
                f"got {cluster.daemons[victim].wal.replays}"
            )
        out["violations"] = violations
        out["reads"] = reads

    proc = env.process(main(), name=f"crashsim.point@{crash_ns}")
    env.run()
    if not proc.ok:
        raise proc.value
    replay = out["replay"]
    acked = sum(1 for es in journal.values() for e in es if e["acked"])
    unacked = sum(1 for es in journal.values() for e in es if not e["acked"])
    result = CrashPointResult(
        crash_ns=crash_ns,
        acked=acked,
        unacked=unacked,
        violations=out["violations"],
        torn_detected=replay.torn_detected,
        records_replayed=replay.records_replayed,
        records_discarded=replay.records_discarded,
        keys_dropped=replay.keys_dropped,
    )
    result._reads = out["reads"]  # carried for the matrix digest
    return result


def run_crashsim(pool_kind: str, seed: int = 0, max_points: int = 12) -> CrashSimStats:
    """Full matrix for one pool kind: harvest, explore, digest."""
    points, candidates, victim = harvest_crash_points(seed, pool_kind, max_points)
    stats = CrashSimStats(
        pool_kind=pool_kind, candidate_points=candidates, explored_points=len(points)
    )
    fingerprint = hashlib.sha256()
    for crash_ns in points:
        result = run_crash_point(seed, pool_kind, victim, crash_ns)
        stats.points.append(result)
        fingerprint.update(
            repr((crash_ns, result.acked, result.unacked, len(result.violations),
                  sorted(result._reads.items()))).encode()
        )
    stats.digest = fingerprint.hexdigest()[:16]
    return stats


def _result_table(all_stats: list[CrashSimStats]) -> ExperimentResult:
    res = ExperimentResult(
        "crashsim",
        "crash-point exploration: durability invariants across power-cut instants",
        ["pool", "cand", "explored", "acked", "unacked", "torn", "replayed",
         "discarded", "dropped", "violations"],
    )
    for s in all_stats:
        res.rows.append([
            s.pool_kind, s.candidate_points, s.explored_points,
            sum(p.acked for p in s.points), sum(p.unacked for p in s.points),
            s.torn_detected, s.records_replayed,
            sum(p.records_discarded for p in s.points),
            sum(p.keys_dropped for p in s.points), len(s.violations),
        ])
    return res


def exp_crashsim(seed: int = 0, max_points: int = 16, pool: str = "both") -> ExperimentResult:
    """Crash-point matrices (replicated and/or EC) as an experiment."""
    kinds = ["replicated", "ec"] if pool == "both" else [pool]
    all_stats = [run_crashsim(k, seed=seed, max_points=max_points) for k in kinds]
    res = _result_table(all_stats)
    notes = []
    for s in all_stats:
        dropped = s.candidate_points - s.explored_points
        notes.append(
            f"{s.pool_kind}: {s.explored_points}/{s.candidate_points} crash points "
            f"(subsampled {dropped} out), {len(s.violations)} violations, "
            f"digest {s.digest}"
        )
    res.notes = "; ".join(notes)
    return res


def crashsim_smoke(
    seed: int = 0, max_points: int = 6, pool: str = "both", report_path: str = ""
) -> tuple[int, str]:
    """Seeded CI smoke: bounded matrix, both pool kinds, invariants on.

    Returns ``(exit_code, report)``; nonzero when any durability
    invariant is violated at any explored crash point, when the explorer
    never exercised the interesting machinery (no torn writes detected,
    no records replayed), or when two same-seed runs of the replicated
    matrix disagree (determinism).  ``report_path`` additionally writes
    a JSON violation report and names it in the report's last line.
    """
    kinds = ["replicated", "ec"] if pool == "both" else [pool]
    all_stats = [run_crashsim(k, seed=seed, max_points=max_points) for k in kinds]
    rerun = run_crashsim(kinds[0], seed=seed, max_points=max_points)
    problems = []
    for s in all_stats:
        for v in s.violations:
            problems.append(f"durability violation: {v}")
    if sum(s.records_replayed for s in all_stats) == 0:
        problems.append("no WAL records replayed across the whole matrix")
    if rerun.digest != all_stats[0].digest:
        problems.append(
            f"nondeterministic: digests {all_stats[0].digest} != {rerun.digest}"
        )
    code, report = smoke_verdict(
        _result_table(all_stats).render(), problems,
        f"{sum(s.explored_points for s in all_stats)} crash points explored "
        f"({' + '.join(s.pool_kind for s in all_stats)}), 0 durability "
        f"violations, {sum(s.torn_detected for s in all_stats)} torn writes "
        f"detected+handled, deterministic (digest {all_stats[0].digest})",
    )
    if report_path:
        payload = {
            "seed": seed,
            "max_points": max_points,
            "pools": {
                s.pool_kind: {
                    "candidate_points": s.candidate_points,
                    "explored_points": s.explored_points,
                    "violations": s.violations,
                    "torn_detected": s.torn_detected,
                    "records_replayed": s.records_replayed,
                    "digest": s.digest,
                }
                for s in all_stats
            },
            "determinism": "PASS" if rerun.digest == all_stats[0].digest else "FAIL",
            "result": "FAIL" if problems else "PASS",
            "problems": problems,
        }
        with open(report_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        report += f"\n[report written to {report_path}]"
    return code, report
