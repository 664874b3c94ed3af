"""Direct fabric delivery and single-event call deadlines.

The fabric calls each messenger's demux at delivery time, request
handlers untrack themselves, and a call with a deadline waits on its one
pending event.  ``tests/fabric_reference.py`` keeps the inbox ``Store``,
the demux loop process and the ``any_of`` deadline they replaced.  The
property here requires the same handler start instants and call results
from both under random request streams with crashes, corruption and
duplicates; that reference keeps every deadline queued until it fires,
where a call now withdraws its deadline when it returns.  The other
tests pin the deadline tie rule, the withdrawal (nothing stays queued
after an answered call) and the one path that keeps a deadline (a
caller interrupted while it waits), and the events and process starts
one I/O costs on a ``delibak`` or stock Ceph stack.
"""

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.deliba import DELIBAK, SOFTWARE_CEPH, PoolSpec, build_framework
from repro.errors import NetworkError
from repro.net import KERNEL_TCP, RTL_TCP, Network
from repro.osd.fabric import Fabric, MessageFaults, Messenger
from repro.osd.ops import OpKind, OsdOp, OsdReply
from repro.sim import Environment, RngStream
from repro.status import BlkStatus
from repro.units import kib, ms, us
from repro.workloads.fio import FioJob

from .fabric_reference import ReferenceFabric, ReferenceMessenger


def _serve(self, op, src):
    """Handler: log the start, work ``op.length`` ns, reply ``op.offset`` bytes."""
    self.starts.append((self.entity, op.op_id, self.env.now))
    yield self.env.timeout(op.length)
    yield from self.reply_to(src, OsdReply(op.op_id, True, data=bytes(op.offset)))


class Server(Messenger):
    on_request = _serve


class ReferenceServer(ReferenceMessenger):
    on_request = _serve


def _run(fabric_cls, server_cls, hosts, calls, crashes, faults, seed):
    """Drive three messengers through ``calls`` and ``crashes``; return
    the fabric, every handler start and every call's result."""
    env = Environment()
    net = Network(env)
    fabric = fabric_cls(env, net)
    for host in sorted(set(hosts)):
        net.add_host(host)
    if faults:
        fabric.faults = MessageFaults(RngStream(seed, "faults"), *faults)
    starts = []
    msgrs = []
    for i, host in enumerate(hosts):
        fabric.register(f"e{i}", host, KERNEL_TCP)
        msgr = server_cls(env, fabric, f"e{i}")
        msgr.starts = starts
        msgr.start()
        msgrs.append(msgr)

    # Crashes are scheduled before any traffic, so a crash comes first
    # among the events of its instant.
    def crash(at, who, status, down_ns):
        yield env.timeout(at)
        msgrs[who].stop(status)
        if down_ns is not None:
            yield env.timeout(down_ns)
            msgrs[who].start()

    for at, who, power, down_ns in crashes:
        env.process(crash(at, who, BlkStatus.AGAIN if power else BlkStatus.TRANSPORT, down_ns))

    def caller(op_id, at, src, dst, size, work, reply_size, timeout_ns):
        yield env.timeout(at)
        op = OsdOp(OpKind.PING, 0, "obj", offset=reply_size, length=work,
                   data=bytes(size) if size else None, op_id=op_id)
        reply = yield from msgrs[src].call(f"e{dst}", op, timeout_ns=timeout_ns)
        return env.now, reply.ok, reply.status, reply.error, len(reply.data or b"")

    procs = [
        env.process(caller(op_id, at, src, (src + off) % 3, size, work, reply_size, timeout_ns))
        for op_id, (at, src, off, size, work, reply_size, timeout_ns) in enumerate(calls, 1)
    ]
    env.run()
    return fabric, starts, [p.value if p.processed else None for p in procs]


instants = st.one_of(st.integers(0, 12).map(us(5).__mul__), st.integers(0, us(60)))
calls_st = st.lists(
    st.tuples(
        instants,
        st.integers(0, 2),                       # source messenger
        st.integers(1, 2),                       # destination offset
        st.sampled_from([0, 1000, kib(4), kib(16)]),
        st.sampled_from([0, 1, us(3), us(10)]),  # handler work
        st.sampled_from([0, kib(4)]),            # reply payload
        st.one_of(st.none(), st.integers(us(10), us(120))),
    ),
    min_size=1,
    max_size=10,
)
crashes_st = st.lists(
    st.tuples(instants, st.integers(0, 2), st.booleans(),
              st.one_of(st.none(), st.integers(1, us(40)))),
    max_size=2,
)
#: (drop, duplicate, corrupt) probabilities, or no fault injection.
faults_st = st.one_of(
    st.none(),
    st.tuples(st.sampled_from([0.0, 0.1]), st.sampled_from([0.0, 0.3]),
              st.sampled_from([0.0, 0.3])),
)
#: Three messengers on two or three hosts (a shared host uses loopback).
hosts_st = st.sampled_from([("h0", "h1", "h2"), ("h0", "h1", "h0")])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(  # a crash and a restart with calls in flight both to and from the crashed entity
    hosts=("h0", "h1", "h2"),
    calls=[(0, 0, 1, kib(4), us(10), kib(4), us(30)), (0, 1, 1, 0, 0, 0, None),
           (us(5), 2, 1, 0, us(3), 0, us(100))],
    crashes=[(us(20), 0, False, us(10))],
    faults=None,
    seed=0,
)
@example(  # every cross-host message duplicated or corrupted
    hosts=("h0", "h1", "h0"),
    calls=[(0, 0, 1, kib(4), 0, 0, None), (0, 1, 1, 1000, 1, kib(4), us(60)),
           (us(5), 2, 2, 0, 0, 0, None)],
    crashes=[],
    faults=(0.0, 0.5, 0.5),
    seed=3,
)
@given(hosts=hosts_st, calls=calls_st, crashes=crashes_st, faults=faults_st,
       seed=st.integers(0, 2**16))
def test_direct_delivery_matches_inbox_reference(hosts, calls, crashes, faults, seed):
    ref, *want = _run(ReferenceFabric, ReferenceServer, hosts, calls, crashes, faults, seed)
    # The models order the work of one nanosecond differently (see
    # fabric_reference and the pin below): keep runs in which no arrival
    # shares its instant with another arrival or a handler's reply.
    work = {op_id: call[4] for op_id, call in enumerate(calls, 1)}
    replies = {t + work[op_id] for _, op_id, t in want[0] if work[op_id]}
    arrivals = ref.arrivals
    assume(len(set(arrivals)) == len(arrivals) and not replies.intersection(arrivals))
    _, *got = _run(Fabric, Server, hosts, calls, crashes, faults, seed)
    assert got[0] == want[0], "handler starts differ"
    assert got[1] == want[1], "call results differ"


def test_envelopes_of_one_instant_are_handled_in_arrival_order():
    """Three loopback requests land at once: two for e0, then one for e2.
    Direct delivery starts their handlers in that order; the inbox loop
    started e2's before e0's second."""
    calls = [(0, 2, 1, 0, 0, 0, None), (0, 2, 1, 0, 0, 0, None), (0, 0, 2, 0, 0, 0, None)]
    hosts = ("h0", "h1", "h0")
    _, starts, _ = _run(Fabric, Server, hosts, calls, [], None, 0)
    assert [(entity, op_id) for entity, op_id, _ in starts] == [("e0", 1), ("e0", 2), ("e2", 3)]
    assert len({t for _, _, t in starts}) == 1
    _, starts, _ = _run(ReferenceFabric, ReferenceServer, hosts, calls, [], None, 0)
    assert [(entity, op_id) for entity, op_id, _ in starts] == [("e0", 1), ("e2", 3), ("e0", 2)]


def _fabric(n):
    env = Environment()
    net = Network(env)
    fabric = Fabric(env, net)
    for i in range(n):
        net.add_host(f"h{i}")
        fabric.register(f"e{i}", f"h{i}", RTL_TCP)
    return env, fabric


def _ping(timeout_ns):
    """e0 calls e1, whose handler replies at once.  Returns how long the
    call waited after its request was delivered (when its deadline
    starts), its reply, and e0's messenger."""
    env, fabric = _fabric(2)
    client, server = Server(env, fabric, "e0"), Server(env, fabric, "e1")
    client.starts = server.starts = []
    client.start()
    server.start()

    def caller():
        reply = yield from client.call("e1", OsdOp(OpKind.PING, 0, "obj"), timeout_ns=timeout_ns)
        return env.now, reply

    proc = env.process(caller())
    env.run()
    (_, _, delivered_at), = server.starts
    done, reply = proc.value
    return done - delivered_at, reply, client


def test_reply_landing_at_the_deadline_instant_times_out():
    rtt, reply, _ = _ping(None)
    assert reply.ok
    # The reply reaches e0 exactly at the deadline, which was scheduled
    # first: the caller gets TIMEOUT and the reply is dropped.
    waited, reply, client = _ping(rtt)
    assert waited == rtt
    assert reply.status is BlkStatus.TIMEOUT and not reply.ok
    assert client._pending == {}
    waited, reply, _ = _ping(rtt + 1)
    assert reply.ok and waited == rtt


def _pair():
    """e0 (a client) and e1 (a server), started."""
    env, fabric = _fabric(2)
    client, server = Server(env, fabric, "e0"), Server(env, fabric, "e1")
    client.starts = server.starts = []
    client.start()
    server.start()
    return env, client, server


def test_an_answered_call_withdraws_its_deadline():
    """1,000 calls in a row, each with a 20 ms deadline and answered at
    once: no deadline stays queued after its reply, so a drained run ends
    at the last reply, not 20 ms later."""
    env, client, _ = _pair()
    queued, answered = [], []

    def caller():
        for _ in range(1000):
            reply = yield from client.call("e1", OsdOp(OpKind.PING, 0, "obj"), timeout_ns=ms(20))
            assert reply.ok
            queued.append(len(env._queue))
            answered.append(env.now)

    env.process(caller())
    env.run()
    assert queued == [0] * 1000
    assert env.now == answered[-1] == 11_404_000
    assert client._pending == {}
    # The withdrawn deadlines were scheduled all the same.
    assert env._seq == 10_001


def test_an_interrupted_caller_keeps_its_deadline():
    """A caller killed while it waits leaves its deadline queued; the
    deadline still drops the pending entry, and the late reply is
    discarded."""
    env, client, server = _pair()

    def caller():
        yield from client.call("e1", OsdOp(OpKind.PING, 0, "obj", length=us(100)),
                               timeout_ns=us(20))

    proc = env.process(caller())
    while not server.starts:
        env.step()
    (_, _, delivered_at), = server.starts
    proc.interrupt("killed")
    env.run(until=delivered_at + us(20) - 1)
    assert not proc.ok and len(client._pending) == 1
    env.run(until=delivered_at + us(20))
    assert client._pending == {}
    env.run()
    assert client._pending == {}


def test_delivery_to_an_entity_with_no_receiver_raises():
    env, fabric = _fabric(2)
    env.process(fabric.send("e0", "e1", 100, "hello"))
    with pytest.raises(NetworkError, match="no receiver"):
        env.run()


def test_cross_host_message_costs_three_events():
    env, fabric = _fabric(2)
    arrived = []
    fabric.attach("e1", arrived.append)
    before = env._seq
    env.process(fabric.send("e0", "e1", kib(4), "op"))
    env.run()
    assert [envelope.payload for envelope in arrived] == ["op"]
    # TX, switch, and arrival plus RX as one event, plus the sending
    # process's start.
    assert env._seq - before == 1 + 3


ONE_WRITE = FioJob("w", "write", bs=kib(4), nrequests=1, size=kib(64))
ONE_READ = FioJob("r", "read", bs=kib(4), nrequests=1, size=kib(64))
EC_POOL = PoolSpec(kind="erasure", k=4, m=2)


def _job_cost(fw, job, monkeypatch):
    """Events scheduled and processes started by a one-I/O fio job."""
    env = fw.env
    starts = []
    process = Environment.process

    def counted(env, generator, name=""):
        starts.append(name)
        return process(env, generator, name)

    before = env._seq
    proc = env.process(fw.run_fio(job, prefill=False))
    monkeypatch.setattr(Environment, "process", counted)
    env.run()
    assert proc.value.ios == 1 and proc.value.errors == 0
    return env._seq - before, len(starts)


def _prefilled(fw):
    fw.env.process(fw.prefill([0], kib(4)))
    fw.env.run()
    return fw


# Each sub-op fan-out of n legs is one env.gather: 3 events and no
# process, where a process per leg and their all_of join took 2n + 1.
# The processes left are request handlers, the blk-mq drain an insert
# kicks, the driver's queue_rq and the io_uring completion.


def test_one_direct_ec_write_event_budget(monkeypatch):
    fw = build_framework(DELIBAK, pool_spec=EC_POOL, object_size=kib(4))
    fw.image.direct = True
    assert _job_cost(fw, ONE_WRITE, monkeypatch) == (93, 9)


def test_one_direct_ec_read_budget(monkeypatch):
    fw = _prefilled(build_framework(DELIBAK, pool_spec=EC_POOL, object_size=kib(4)))
    fw.image.direct = True
    assert _job_cost(fw, ONE_READ, monkeypatch) == (70, 7)


def test_one_direct_replicated_write_budget(monkeypatch):
    fw = build_framework(DELIBAK, pool_spec=PoolSpec(size=3))
    fw.image.direct = True
    assert _job_cost(fw, ONE_WRITE, monkeypatch) == (61, 6)


def test_one_primary_write_budget(monkeypatch):
    """Stock Ceph: the primary joins its two peer legs and its local apply."""
    fw = build_framework(SOFTWARE_CEPH, pool_spec=PoolSpec(size=3))
    assert not fw.image.direct
    assert _job_cost(fw, ONE_WRITE, monkeypatch) == (46, 5)


def test_one_two_object_rbd_write_budget(monkeypatch):
    """One 8 KiB write over 4 KiB objects: the image joins two object
    legs, and each joins its two replica legs."""
    fw = build_framework(DELIBAK, object_size=kib(4))
    fw.image.direct = True
    job = FioJob("w", "write", bs=kib(8), nrequests=1, size=kib(64))
    assert _job_cost(fw, job, monkeypatch) == (77, 7)


def test_one_replicated_read_event_budget(monkeypatch):
    fw = _prefilled(build_framework(DELIBAK))
    assert _job_cost(fw, ONE_READ, monkeypatch) == (37, 4)
