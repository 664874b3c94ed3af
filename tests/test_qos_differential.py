"""Differential scheduler tests: FIFO vs mClock on identical arrivals.

The headline property suite: one deterministic arrival trace replayed
through both policies (``tests/qos_harness.py``), with fairness asserted
as exact, reproducible properties — reservation floors, weight-
proportional surplus, limit ceilings, work conservation — plus per-op
queue-wait attribution showing exactly who paid for whom.
"""

from tests.qos_harness import (
    FifoQueue,
    differential,
    open_loop_trace,
    replay,
    replay_cluster,
    wait_diffs,
)
from repro.osd.qos import MClockQueue, QosConfig, QosSpec
from repro.units import ms, us

WORKERS = 4
SERVICE_NS = 10 * us(1)  # 10 us/op => 400k IOPS pool capacity
DURATION = ms(20)
#: Measurement window skips the first 5 ms of tag warmup.
W0, W1 = ms(5), ms(20)

#: The three-profile battery: a reservation-heavy tenant, a weight-heavy
#: tenant, and a limit-capped tenant, each offering 200k IOPS against a
#: 400k pool (1.5x saturated).
BATTERY = QosConfig(tenants={
    "res": QosSpec(reservation_iops=150_000, weight=1),
    "wgt": QosSpec(weight=3),
    "cap": QosSpec(weight=3, limit_iops=50_000),
})
OFFERED = {
    ("client", "res"): 200_000.0,
    ("client", "wgt"): 200_000.0,
    ("client", "cap"): 200_000.0,
}


def battery():
    trace = open_loop_trace(OFFERED, DURATION)
    return differential(BATTERY, trace, WORKERS, SERVICE_NS)


def test_fifo_baseline_is_flow_blind():
    fifo, _ = battery()
    rates = [fifo.flows[k].rate_iops(W0, W1) for k in OFFERED]
    # FIFO splits equally: identical offered load, identical service.
    assert max(rates) - min(rates) < 0.02 * max(rates)


def test_reservation_floor_exact():
    _, mc = battery()
    got = mc.flows[("client", "res")].rate_iops(W0, W1)
    # The 150k floor is met exactly (open-loop arrivals at fixed
    # spacing: the reservation clock dispatches one op per spacing).
    assert got >= 150_000
    # ...and FIFO does not meet it (133k each), so the floor is the
    # scheduler's doing, not slack capacity.
    fifo, _ = battery()
    assert fifo.flows[("client", "res")].rate_iops(W0, W1) < 140_000


def test_limit_ceiling_exact():
    _, mc = battery()
    got = mc.flows[("client", "cap")].rate_iops(W0, W1)
    assert got <= 50_000
    # The cap binds tightly: within one spacing of the ceiling.
    assert got >= 49_000


def test_weight_flow_absorbs_surplus():
    _, mc = battery()
    # Capacity 400k - 150k reserved - 50k capped = 200k surplus; "wgt"
    # offers exactly 200k and, with the dominant weight, gets all of it.
    got = mc.flows[("client", "wgt")].rate_iops(W0, W1)
    assert got >= 0.95 * 200_000


def test_work_conservation():
    fifo, mc = battery()
    # Same trace, same pool: mClock completes at least 95% of FIFO's
    # total work (the limit is the only non-work-conserving knob, and
    # the other tenants' offered load covers what "cap" gives up).
    assert mc.total_dispatched() >= 0.95 * fifo.total_dispatched()


def test_weight_proportional_split_within_10pct():
    # No reservations or limits: two saturating flows at 3:1 weights
    # split the pool 3:1, within 10%.
    config = QosConfig(tenants={
        "heavy": QosSpec(weight=3), "light": QosSpec(weight=1),
    })
    offered = {("client", "heavy"): 300_000.0, ("client", "light"): 300_000.0}
    trace = open_loop_trace(offered, DURATION)
    _, mc = differential(config, trace, WORKERS, SERVICE_NS)
    heavy = mc.flows[("client", "heavy")].rate_iops(W0, W1)
    light = mc.flows[("client", "light")].rate_iops(W0, W1)
    assert abs(heavy / light - 3.0) < 0.3
    # And the pool stays saturated: weights redistribute, never throttle.
    assert heavy + light >= 0.99 * 400_000


def test_per_op_wait_attribution():
    fifo, mc = battery()
    diffs = wait_diffs(fifo, mc)
    assert len(diffs) == mc.total_dispatched()
    by_flow = {}
    for op_id, d in diffs.items():
        flow = mc.per_op[op_id][2]
        by_flow.setdefault(flow, []).append(d)
    mean = {k: sum(v) / len(v) for k, v in by_flow.items()}
    # The reservation and weight tenants gained latency (negative wait
    # diffs) and the capped tenant paid for it — who subsidizes whom is
    # visible per op, not just in aggregate.
    assert mean[("client", "res")] < 0
    assert mean[("client", "wgt")] < 0
    assert mean[("client", "cap")] > 0


def test_replay_is_deterministic():
    t1 = open_loop_trace(OFFERED, DURATION)
    t2 = open_loop_trace(OFFERED, DURATION)
    assert t1 == t2
    r1 = replay(MClockQueue(BATTERY), t1, WORKERS, SERVICE_NS)
    r2 = replay(MClockQueue(BATTERY), t2, WORKERS, SERVICE_NS)
    assert r1.per_op == r2.per_op
    assert {k: v.dispatched for k, v in r1.flows.items()} == {
        k: v.dispatched for k, v in r2.flows.items()
    }
    f1 = replay(FifoQueue(), t1, WORKERS, SERVICE_NS)
    f2 = replay(FifoQueue(), t2, WORKERS, SERVICE_NS)
    assert f1.per_op == f2.per_op


def test_underload_is_invisible():
    # Below capacity, with no limits, mClock must not delay anyone:
    # every op dispatches on arrival under both policies.
    config = QosConfig(tenants={"a": QosSpec(reservation_iops=10_000), "b": QosSpec()})
    offered = {("client", "a"): 50_000.0, ("client", "b"): 50_000.0}
    trace = open_loop_trace(offered, DURATION)
    fifo, mc = differential(config, trace, WORKERS, SERVICE_NS)
    assert all(d == 0 for d in wait_diffs(fifo, mc).values())
    assert all(s.max_wait_ns == 0 for s in mc.flows.values())


def test_one_server_distributed_tags_reduce_to_mclock():
    # With one server every completion lands where the flow sends, so
    # dmClock's rho/delta must reduce to plain mClock: identical dispatch
    # times.  "a" sends faster than its ops complete, so most of its
    # sends see no new completion; flooring those at one spacing without
    # repaying it ran a's R tags ahead and cut its 140k floor to ~126k.
    config = QosConfig(tenants={
        "a": QosSpec(reservation_iops=140_000, weight=0.5),
        "b": QosSpec(weight=0.5),
        "c": QosSpec(reservation_iops=60_000, weight=0.5),
        "d": QosSpec(weight=1),
    })
    offered = {
        ("client", "a"): 180_000.0,
        ("client", "b"): 20_000.0,
        ("client", "c"): 185_000.0,
        ("client", "d"): 128_000.0,
    }
    trace = open_loop_trace(offered, ms(10))
    mc = replay(MClockQueue(config), trace, WORKERS, SERVICE_NS)
    dm = replay_cluster(
        config, [(a.time, a.flow, 0) for a in trace], servers=1,
        workers=WORKERS, service_ns=SERVICE_NS,
    )
    assert {k: v.dispatch_times for k, v in dm.items()} == {
        k: v.dispatch_times for k, v in mc.flows.items()
    }
    assert dm[("client", "a")].rate_iops(ms(5), ms(10)) >= 140_000
