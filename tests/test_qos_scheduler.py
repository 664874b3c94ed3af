"""Multi-tenant QoS unit and cluster-integration tests.

Tag algebra (``MClockQueue``), distributed-tag bookkeeping
(``TenantTracker``), the per-OSD admission gate's interrupt safety, and
the end-to-end wiring: tenant identity surviving retry/failover legs,
recovery routed through its service class, heartbeats on the ``system``
class, and ``client_priority`` turning QoS on.
"""

import pytest

from repro.errors import StorageError
from repro.osd import (
    CLASS_RECOVERY,
    ClusterSpec,
    MClockQueue,
    OpPolicy,
    OsdConfig,
    OsdQosScheduler,
    QosConfig,
    QosSpec,
    QosTag,
    RecoveryConfig,
    TenantTracker,
    build_cluster,
)
from repro.osd.qos import PHASE_PRIORITY, PHASE_RESERVATION
from repro.sim import Environment, MetricsRegistry
from repro.units import ms, us

CHAOS_POLICY = OpPolicy(timeout_ns=ms(20), max_attempts=12)
CHAOS_OSD = OsdConfig(subop_timeout_ns=ms(5))


def run(env, gen):
    p = env.process(gen)
    env.run()
    if not p.ok:
        raise p.value
    return p.value


# --- QosSpec validation -------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(StorageError):
        QosSpec(weight=0)
    with pytest.raises(StorageError):
        QosSpec(weight=-1)
    with pytest.raises(StorageError):
        QosSpec(reservation_iops=-5)
    with pytest.raises(StorageError):
        QosSpec(limit_iops=0)
    with pytest.raises(StorageError):
        QosSpec(reservation_iops=2000, limit_iops=1000)
    # dmClock invariant: reservation == limit is the tightest legal pin.
    QosSpec(reservation_iops=1000, limit_iops=1000)


def test_spec_spacings():
    s = QosSpec(reservation_iops=1000, weight=2, limit_iops=4000)
    assert s.r_spacing == 1_000_000
    assert s.p_spacing == 500_000_000
    assert s.l_spacing == 250_000
    assert QosSpec().r_spacing is None
    assert QosSpec().l_spacing is None
    # Absurdly high rates clamp at 1 ns, never 0 (tags must advance).
    assert QosSpec(reservation_iops=1e12).r_spacing == 1


def test_tag_flow_and_derive():
    t = QosTag("alice")
    assert t.flow() == ("client", "alice")
    assert QosTag(svc=CLASS_RECOVERY).flow() == (CLASS_RECOVERY, "")
    # Background classes ignore any tenant string: one flow per class.
    assert QosTag("alice", CLASS_RECOVERY).flow() == (CLASS_RECOVERY, "")
    d = t.derive()
    assert d is not t and d.flow() == t.flow()
    # derive() resets the per-send rho/delta to their defaults.
    t.rho, t.delta = 7, 9
    assert (t.derive().rho, t.derive().delta) == (1, 1)


# --- MClockQueue tag algebra --------------------------------------------------------


def test_first_arrival_is_immediately_eligible():
    q = MClockQueue(QosConfig(tenants={"a": QosSpec(reservation_iops=1000)}))
    q.push("x", ("client", "a"), now=5_000)
    item, key, phase, lag = q.pop(5_000)
    assert item == "x" and key == ("client", "a")
    assert phase == PHASE_RESERVATION and lag == 0


def test_reservation_spacing_paces_dispatch():
    # 1000 IOPS reservation = one reservation credit per ms.
    q = MClockQueue(QosConfig(tenants={"a": QosSpec(reservation_iops=1000)}))
    flow = ("client", "a")
    for i in range(3):
        q.push(i, flow, now=0)
    assert q.pop(0)[0] == 0  # first: tag = now
    got = q.pop(0)
    # Second item's R tag is 1 ms out; at t=0 it can only go in the
    # priority phase (weight 1 default).
    assert got[2] == PHASE_PRIORITY
    item, _key, phase, lag = q.pop(ms(2))
    assert item == 2 and phase == PHASE_RESERVATION


def test_priority_dispatch_backdates_reservation_tags():
    # r_shift: weight-phase work counts toward the reservation, so a
    # flow served early does not later double-dip its floor.
    q = MClockQueue(QosConfig(tenants={"a": QosSpec(reservation_iops=1000)}))
    flow = ("client", "a")
    for i in range(3):
        q.push(i, flow, now=0)
    q.pop(0)  # reservation (tag = now)
    q.pop(0)  # priority -> shifts R tags back one spacing
    # Item 2's raw R tag was 2 ms; after the shift it is effectively
    # 1 ms, so it becomes reservation-eligible a full spacing early.
    item, _key, phase, _lag = q.pop(ms(1))
    assert item == 2 and phase == PHASE_RESERVATION


def test_limit_blocks_and_next_eligible():
    q = MClockQueue(QosConfig(tenants={"a": QosSpec(limit_iops=1000)}))
    flow = ("client", "a")
    q.push(0, flow, now=0)
    q.push(1, flow, now=0)
    assert q.pop(0)[0] == 0  # first: L = now
    assert q.pop(0) is None  # second: L = 1 ms, not eligible yet
    assert q.next_eligible(0) == ms(1)
    assert q.pop(ms(1))[0] == 1
    assert q.next_eligible(ms(1)) is None


def test_reservation_ignores_limit_tag():
    # res == limit pins the flow to exactly its reservation rate; the
    # reservation phase must still fire on schedule.
    q = MClockQueue(QosConfig(tenants={"a": QosSpec(reservation_iops=1000, limit_iops=1000)}))
    flow = ("client", "a")
    q.push(0, flow, now=0)
    q.push(1, flow, now=0)
    q.pop(0)
    item, _key, phase, _lag = q.pop(ms(1))
    assert item == 1 and phase == PHASE_RESERVATION


def test_weight_ratio_orders_priority_phase():
    q = MClockQueue(QosConfig(tenants={
        "heavy": QosSpec(weight=3), "light": QosSpec(weight=1),
    }))
    for i in range(8):
        q.push(("h", i), ("client", "heavy"), now=0)
        q.push(("l", i), ("client", "light"), now=0)
    order = []
    for _ in range(8):
        order.append(q.pop(ms(100))[0][0])
    # 3:1 weights => heavy gets ~3 of every 4 dispatches.
    assert order.count("h") >= 5


def test_arrival_seq_breaks_ties_deterministically():
    q = MClockQueue(QosConfig())
    q.push("first", ("client", "a"), now=0)
    q.push("second", ("client", "b"), now=0)
    assert q.pop(0)[0] == "first"
    assert q.pop(0)[0] == "second"


def test_discard_withdraws_without_refund():
    q = MClockQueue(QosConfig(tenants={"a": QosSpec(limit_iops=1000)}))
    flow = ("client", "a")
    q.push(0, flow, now=0)
    q.push(1, flow, now=0)
    assert len(q) == 2
    assert q.discard(flow, 0)
    assert len(q) == 1
    assert not q.discard(flow, 99)
    # Item 1 keeps its original L tag (1 ms): no refund for the discard.
    assert q.pop(0) is None
    assert q.pop(ms(1))[0] == 1


def test_untagged_ops_share_default_flow():
    q = MClockQueue(QosConfig())
    q.push("x", ("client", ""), now=0)
    assert q.pop(0)[1] == ("client", "")


# --- TenantTracker (distributed tags) -----------------------------------------------


class _FakeOp:
    def __init__(self, tag):
        self.qos = tag


def test_tracker_stamps_completions_per_destination():
    tr = TenantTracker()
    flow_tag = QosTag("a")
    # First send anywhere: no history, rho/delta floor at 1 (borrowed).
    op = _FakeOp(flow_tag.derive())
    tr.stamp(op, "osd.0")
    assert (op.qos.rho, op.qos.delta) == (1, 1)
    # Three completions land: two priority, one reservation.
    tr.account(flow_tag, PHASE_PRIORITY)
    tr.account(flow_tag, PHASE_PRIORITY)
    tr.account(flow_tag, PHASE_RESERVATION)
    op2 = _FakeOp(flow_tag.derive())
    tr.stamp(op2, "osd.0")
    # Three completions less the spacing the first send borrowed.  The
    # one reservation completion just repays rho's borrow, so rho floors
    # at 1 again (borrowed anew).
    assert op2.qos.delta == 2 and op2.qos.rho == 1
    # A different destination has seen nothing sent yet, so it gets the
    # full completion history.
    op3 = _FakeOp(flow_tag.derive())
    tr.stamp(op3, "osd.1")
    assert op3.qos.delta == 3
    # Re-stamp to osd.0 with no new completions: floors back to 1.
    op4 = _FakeOp(flow_tag.derive())
    tr.stamp(op4, "osd.0")
    assert (op4.qos.rho, op4.qos.delta) == (1, 1)
    assert tr.completions(("client", "a")) == (3, 1)


def test_tracker_ignores_phase_none():
    tr = TenantTracker()
    tag = QosTag("a")
    tr.account(tag, 0)  # synthetic timeout reply: no feedback
    assert tr.completions(("client", "a")) == (0, 0)


def test_tracker_repays_borrowed_spacings():
    # Sends that saw no completion advance the tags one spacing each on
    # credit; later completions pay that back before counting, so the
    # advances add up to the completions seen, not to more.
    tr = TenantTracker()
    tag = QosTag("a")

    def send():
        op = _FakeOp(tag.derive())
        tr.stamp(op, "osd.0")
        return op.qos.rho

    def complete(n):
        for _ in range(n):
            tr.account(tag, PHASE_RESERVATION)

    rhos = [send(), send(), send()]  # nothing completed: borrow 3
    complete(2)
    rhos.append(send())  # 2 seen <= 3 owed: floor at 1, still owe 2
    complete(4)
    rhos.append(send())  # 4 seen - 2 owed
    assert rhos == [1, 1, 1, 1, 2]
    assert sum(rhos) == tr.completions(("client", "a"))[1]


# --- admission gate -----------------------------------------------------------------


def test_admission_gate_caps_inflight_and_releases():
    env = Environment()
    sched = OsdQosScheduler(env, 0, capacity=1, config=QosConfig())
    order = []

    def op(name, hold_ns):
        yield from sched.admit(_FakeOp(QosTag(name)))
        order.append(("start", name, env.now))
        yield env.timeout(hold_ns)
        sched.release()
        order.append(("done", name, env.now))

    env.process(op("a", us(10)))
    env.process(op("b", us(10)))
    env.run()
    assert [e[:2] for e in order] == [
        ("start", "a"), ("done", "a"), ("start", "b"), ("done", "b"),
    ]
    assert sched.inflight == 0


def test_interrupted_waiter_does_not_leak_slot():
    # An op killed while queued (OSD crash path) must withdraw its
    # entry; dispatching it anyway would strand an inflight credit.
    env = Environment()
    sched = OsdQosScheduler(env, 0, capacity=1, config=QosConfig())

    def holder():
        yield from sched.admit(_FakeOp(QosTag("a")))
        yield env.timeout(us(50))
        sched.release()

    def victim():
        yield from sched.admit(_FakeOp(QosTag("b")))
        sched.release()

    env.process(holder())
    v = env.process(victim())

    def killer():
        yield env.timeout(us(10))
        v.interrupt(RuntimeError("crash"))

    env.process(killer())
    env.run()
    assert sched.inflight == 0
    assert len(sched.queue) == 0


def test_limit_wake_timer_resumes_blocked_queue():
    env = Environment()
    sched = OsdQosScheduler(
        env, 0, capacity=4,
        config=QosConfig(tenants={"a": QosSpec(limit_iops=1000)}),
    )
    times = []

    def op():
        yield from sched.admit(_FakeOp(QosTag("a")))
        times.append(env.now)
        sched.release()

    for _ in range(3):
        env.process(op())
    env.run()
    # 1000 IOPS limit: dispatches at 0, 1 ms, 2 ms even though all four
    # worker slots were free the whole time.
    assert times == [0, ms(1), ms(2)]


# --- cluster integration ------------------------------------------------------------


def build(pool_kind="replicated", qos=None, **kw):
    env = Environment()
    metrics = env.metrics = MetricsRegistry()
    spec = ClusterSpec(
        num_server_hosts=2, osds_per_host=4,
        op_policy=CHAOS_POLICY, osd_config=CHAOS_OSD, **kw,
    )
    cluster = build_cluster(env, spec)
    if pool_kind == "replicated":
        pool = cluster.create_replicated_pool("pool", pg_num=16, size=3)
    else:
        pool = cluster.create_erasure_pool("pool", pg_num=16, k=4, m=2)
    if qos is not None:
        cluster.enable_qos(qos)
    return env, metrics, cluster, pool


def test_tenant_ops_attributed_in_metrics():
    env, metrics, cluster, pool = build(qos=QosConfig())
    client = cluster.new_client()

    def io():
        for i in range(5):
            yield from client.write_replicated(pool, f"o{i}", b"x" * 4096, tenant="alice")

    run(env, io())
    # 5 logical writes = 5 gated primary ops, all alice.  The REP_WRITE
    # fan-out rides the express sub-op lane: already arbitrated (and
    # charged) at the primary's gate, it is not admitted again.
    assert metrics.counter("qos.tenant.alice.ops").value == 5
    assert metrics.counter("qos.tenant.default.ops").value == 0


def test_client_default_tenant_attribute():
    env, metrics, cluster, pool = build(qos=QosConfig())
    client = cluster.new_client()
    client.tenant = "vm7"

    def io():
        yield from client.write_replicated(pool, "o", b"x" * 4096)

    run(env, io())
    assert metrics.counter("qos.tenant.vm7.ops").value == 1


@pytest.mark.parametrize("pool_kind", ["replicated", "ec"])
def test_failover_legs_inherit_tenant_tag(pool_kind):
    """Satellite regression: after the primary dies, the retry/failover
    legs must still carry the originating op's QoS identity — an
    anonymous leg would show up under ``qos.tenant.default``."""
    env, metrics, cluster, pool = build(pool_kind, qos=QosConfig())
    client = cluster.new_client()
    name = "victim-obj"
    data = bytes(range(256)) * 16

    def io():
        if pool_kind == "replicated":
            yield from client.write_replicated(pool, name, data, direct=True, tenant="t1")
        else:
            yield from client.write_ec(pool, name, data, direct=True, tenant="t1")
        primary = [
            o for o in client.compute_placement(pool, name) if o >= 0
        ][0]
        cluster.fail_osd(primary)
        if pool_kind == "replicated":
            got = yield from client.read_replicated(pool, name, 0, len(data), tenant="t1")
        else:
            got = yield from client.read_ec(pool, name, len(data), direct=True, tenant="t1")
        assert bytes(got) == data

    before = metrics.counter("qos.tenant.default.ops").value
    run(env, io())
    assert metrics.counter("qos.tenant.t1.ops").value > 0
    # Every op of the failover read stayed attributed: nothing anonymous.
    assert metrics.counter("qos.tenant.default.ops").value == before


def test_recovery_rides_recovery_service_class():
    """Satellite: ``client_priority`` routes recovery through the QoS
    ``recovery`` class (and auto-enables QoS) instead of polling the
    CPU queue."""
    env = Environment()
    metrics = env.metrics = MetricsRegistry()
    spec = ClusterSpec(
        num_server_hosts=2, osds_per_host=4,
        op_policy=CHAOS_POLICY, osd_config=CHAOS_OSD,
    )
    cluster = build_cluster(env, spec)
    pool = cluster.create_replicated_pool("pool", pg_num=16, size=3)
    cluster.enable_recovery(RecoveryConfig(client_priority=True))
    assert cluster.qos is not None  # auto-enabled
    client = cluster.new_client()

    def io():
        for i in range(8):
            yield from client.write_replicated(
                pool, f"o{i}", bytes([i]) * 4096, direct=True, tenant="t"
            )
        victim = next(iter(cluster.osdmap.up_osds()))
        cluster.fail_osd(victim)
        deadline = env.now + ms(500)
        while env.now < deadline and not all(
            pg.state.value in ("active", "recovered")
            for pg in cluster.recovery.pgs.values()
        ):
            yield env.timeout(ms(5))

    run(env, io())
    assert metrics.counter("qos.class.recovery.ops").value > 0


def test_heartbeats_ride_system_class():
    env, metrics, cluster, pool = build(qos=QosConfig())
    cluster.monitor.start_heartbeats(interval_ns=us(500), grace_ns=us(300))

    def tick():
        yield env.timeout(ms(3))
        cluster.monitor.stop_heartbeats()

    run(env, tick())
    assert metrics.counter("qos.class.system.ops").value > 0
    assert metrics.counter("qos.class.system.res_ops").value > 0


def test_attach_after_enable():
    # Clients and OSDs created after enable_qos() are wired on creation.
    env, metrics, cluster, pool = build(qos=QosConfig())
    late_client = cluster.new_client("late")
    assert late_client.qos_tracker is not None
    new_id = cluster.add_osd(cluster.server_hosts[0])
    assert cluster.daemons[new_id].qos is not None


def test_saturating_primaries_do_not_deadlock():
    """Express sub-op lane regression: a primary holds its worker slot
    across the replica round-trip, so with single-thread pools two
    mutually-replicating primaries would wedge the whole cluster if
    REP_WRITE sub-ops had to queue for the same slots."""
    env = Environment()
    env.metrics = MetricsRegistry()
    spec = ClusterSpec(
        num_server_hosts=2, osds_per_host=2, osd_config=OsdConfig(op_threads=1)
    )
    cluster = build_cluster(env, spec)
    pool = cluster.create_replicated_pool("pool", pg_num=16, size=3)
    cluster.enable_qos(QosConfig())
    client = cluster.new_client()
    done = {"n": 0}

    def writer(w):
        for i in range(6):
            yield from client.write_replicated(
                pool, f"w{w}.o{i}", b"x" * 4096, tenant=f"t{w % 4}"
            )
            done["n"] += 1

    procs = [env.process(writer(w), name=f"w{w}") for w in range(12)]
    env.run()
    for p in procs:
        if not p.ok:
            raise p.value
    assert done["n"] == 72


def test_qos_off_means_no_schedulers():
    env, metrics, cluster, pool = build()
    assert cluster.qos is None
    assert all(d.qos is None for d in cluster.daemons.values())
    client = cluster.new_client()
    assert client.qos_tracker is None

    def io():
        yield from client.write_replicated(pool, "o", b"x" * 4096)

    run(env, io())
    assert metrics.counter("qos.tenant.default.ops").value == 0
