"""The express wire path against the event-driven link model it replaced.

:class:`repro.net.Link` is an analytic FIFO reservation with a memoized
cost per payload size, and :meth:`repro.net.Network.transfer` carries a
message with one timeout to the switch and one event at the receiver.
``tests/net_reference.py`` keeps the old model (a ``Resource`` per link,
a process per message).  These tests require the same delivery instant
for every message, the same link counters at every instant and the same
tapped frames, under random load of network and fabric messages (RX
costs of every stack profile, duplicated copies) and mid-run bandwidth
changes, and pin what the express path is for: fewer events per fabric
message.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import ProcessKilled
from repro.net import HLS_TCP, KERNEL_TCP, RTL_TCP, Message, Network
from repro.osd.fabric import Fabric, MessageFaults
from repro.sim import Environment, RngStream
from repro.units import kib, us

from .net_reference import ReferenceNetwork, ReferenceWireFabric

MAX_T = 40_000
STACKS = (KERNEL_TCP, HLS_TCP, RTL_TCP)
LIVE = (Network, Fabric)
REFERENCE = (ReferenceNetwork, ReferenceWireFabric)


def _run(model, n_hosts, offers, changes, reads, sends=(), stacks=(0,), duplicate_p=0.0,
         tapped=False):
    """Drive one network and fabric ``model`` through ``offers``
    (network messages), ``sends`` (fabric messages between entities
    ``e<i>`` on hosts ``h<i>``, on the stack profiles ``stacks`` picks,
    each duplicated with probability ``duplicate_p``) and ``changes``.
    Return each network message's delivery instant, the link counters
    at each read instant, every fabric delivery's (send, instant), the
    frames a tap saw (if ``tapped``) and the network's delivered count."""
    net_cls, fabric_cls = model
    env = Environment()
    net = net_cls(env)
    fabric = fabric_cls(env, net)
    if duplicate_p:
        fabric.faults = MessageFaults(RngStream(0, "faults"), duplicate_p=duplicate_p)
    arrivals = []
    for i in range(n_hosts):
        net.add_host(f"h{i}")
        fabric.register(f"e{i}", f"h{i}", STACKS[stacks[i % len(stacks)]])
        fabric.attach(f"e{i}", lambda envelope: arrivals.append((envelope.payload, env.now)))
    frames = []
    if tapped:
        net.taps.append(lambda m: frames.append((m.src, m.dst, m.size, m.sent_at, m.delivered_at)))
    links = [link for h in net.hosts.values() for link in (h.uplink, h.downlink)]

    def offer(at, msg):
        yield env.timeout(at)
        yield env.process(net.send(msg))

    def change(at, host, factor):
        yield env.timeout(at)
        node = net.host(f"h{host}")
        for link in (node.uplink, node.downlink):
            link.bandwidth_bps = net.bandwidth_bps / factor

    def post(at, k, src, dst, size):
        yield env.timeout(at)
        yield from fabric.send(f"e{src}", f"e{dst}", size, k)

    msgs = []
    for at, src, dst, size in offers:
        msg = Message(f"h{src}", f"h{(src + dst) % n_hosts}", size)
        msgs.append(msg)
        env.process(offer(at, msg))
    for k, (at, src, dst, size) in enumerate(sends):
        env.process(post(at, k, src, (src + dst) % n_hosts, size))
    for at, host, factor in changes:
        env.process(change(at, host % n_hosts, factor))
    counters = []
    for t in sorted(reads):
        env.run(until=t)
        counters.append([(l.bytes_sent, l.frames_sent, l.queue_len) for l in links])
    env.run()
    counters.append([(l.bytes_sent, l.frames_sent, l.queue_len) for l in links])
    return ([m.delivered_at for m in msgs], counters, sorted(arrivals), sorted(frames),
            net.messages_delivered)


#: Serialization time of an empty message at the default bandwidth.
GRID_NS = 31


def _offers(instants, sizes):
    return st.lists(
        st.tuples(instants, st.integers(0, 3), st.integers(1, 3), sizes),
        min_size=1,
        max_size=14,
    )


#: Offers as (instant, source host, destination offset, payload bytes).
#: On the grid, serialization times are multiples of the offer spacing,
#: so messages often reach the switch in the same nanosecond, where the
#: forwarding order decides who waits.
offers_st = st.one_of(
    _offers(st.integers(0, MAX_T // 2), st.integers(0, kib(20))),
    _offers(st.integers(0, 10).map(GRID_NS.__mul__), st.integers(0, 6).map((38).__mul__)),
)
changes_st = st.lists(
    st.tuples(st.integers(0, MAX_T // 2), st.integers(0, 3), st.sampled_from([0.5, 2.0, 4.0])),
    max_size=3,
)
reads_st = st.lists(st.integers(0, MAX_T), max_size=8)


#: Fabric sends, in the shape of ``offers``: fewer, on the same two grids.
sends_st = st.one_of(
    st.lists(st.tuples(st.integers(0, MAX_T // 2), st.integers(0, 3), st.integers(1, 3),
                       st.integers(0, kib(20))), max_size=8),
    st.lists(st.tuples(st.integers(0, 10).map(GRID_NS.__mul__), st.integers(0, 3),
                       st.integers(1, 3), st.integers(0, 6).map((38).__mul__)), max_size=8),
)
stacks_st = st.lists(st.integers(0, len(STACKS) - 1), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(  # a message queued on its uplink ties with one that started earlier
    n_hosts=4,
    offers=[(0, 0, 3, 0), (0, 0, 2, 0), (0, 1, 1, 38)],
    changes=[],
    reads=[3600],
    sends=[],
    stacks=[0],
    duplicate_p=0.0,
    tapped=False,
)
@example(  # at equal starts, a message that waited on its uplink goes second
    n_hosts=3,
    offers=[(0, 0, 1, 190), (0, 0, 1, 0), (186, 2, 2, 0)],
    changes=[],
    reads=[],
    sends=[],
    stacks=[0],
    duplicate_p=0.0,
    tapped=False,
)
@example(  # fabric messages on all three stacks, duplicated and tapped,
    # while host 1's links slow down, then speed up, with messages in flight
    n_hosts=3,
    offers=[(0, 1, 1, kib(4)), (2000, 2, 2, kib(4))],
    changes=[(3000, 1, 4.0), (9000, 1, 0.5)],
    reads=[3000, 6000, 12000],
    sends=[(0, 0, 1, kib(4)), (0, 1, 1, kib(4)), (1000, 2, 2, kib(16)), (2500, 0, 1, kib(4)),
           (3000, 1, 2, 0)],
    stacks=[0, 1, 2],
    duplicate_p=0.5,
    tapped=True,
)
@given(n_hosts=st.integers(3, 4), offers=offers_st, changes=changes_st, reads=reads_st,
       sends=sends_st, stacks=stacks_st, duplicate_p=st.sampled_from([0.0, 0.5]),
       tapped=st.booleans())
def test_express_path_matches_reference(n_hosts, offers, changes, reads, sends, stacks,
                                        duplicate_p, tapped):
    offers = [(at, src % n_hosts, off % n_hosts or 1, size) for at, src, off, size in offers]
    sends = [(at, src % n_hosts, off % n_hosts or 1, size) for at, src, off, size in sends]
    args = (n_hosts, offers, changes, reads, sends, stacks, duplicate_p, tapped)
    got = _run(LIVE, *args)
    want = _run(REFERENCE, *args)
    assert got[0] == want[0], "delivery instants differ"
    assert got[1] == want[1], "link counters differ"
    assert got[2] == want[2], "fabric deliveries differ"
    assert got[3] == want[3], "tapped frames differ"
    assert got[4] == want[4], "delivered counts differ"
    # Each copy on the wire is delivered, and tapped, once.
    assert got[4] == len(offers) + len(got[2])
    assert len(got[3]) == (got[4] if tapped else 0)


def _fabric(n_hosts):
    """A fabric with entity ``e<i>`` on host ``h<i>``, all on the RTL stack."""
    env = Environment()
    net = Network(env)
    fabric = Fabric(env, net)
    for i in range(n_hosts):
        net.add_host(f"h{i}")
        fabric.register(f"e{i}", f"h{i}", RTL_TCP)
    return env, net, fabric


def _killed_sender_run(kill: bool):
    """e0 sends 64 KiB to e2; 60 us later e1 sends it 4 KiB, which reaches
    the switch while the big message holds h2's downlink.  With ``kill``,
    e0's sending process dies 30 us in, its message still on the wire."""
    env, net, fabric = _fabric(3)
    inbox = []
    fabric.attach("e2", lambda envelope: inbox.append(envelope.payload))
    sender = env.process(fabric.send("e0", "e2", kib(64), "big"))

    def follower():
        yield env.timeout(us(60))
        yield from fabric.send("e1", "e2", kib(4), "small")
        return env.now

    late = env.process(follower())
    if kill:

        def killer():
            yield env.timeout(us(30))
            sender.interrupt("crashed")

        env.process(killer())
    env.run()
    return net, sender, late.value, inbox


def test_killed_sender_message_still_holds_the_receivers_downlink():
    net, sender, done, inbox = _killed_sender_run(kill=True)
    assert isinstance(sender.value, ProcessKilled)
    assert inbox == ["small"]  # the killed message is never delivered
    # The follower queued behind the killed message on h2's downlink.
    link = net.host("h2").downlink
    hop_and_switch = net.hop_ns + net.switch_ns
    ser_big, ser_small = link.serialization_ns(kib(64)), link.serialization_ns(kib(4))
    big_at_switch = RTL_TCP.tx_ns(kib(64)) + ser_big + hop_and_switch
    small_at_switch = us(60) + RTL_TCP.tx_ns(kib(4)) + ser_small + hop_and_switch
    downlink_free = big_at_switch + ser_big
    assert small_at_switch < downlink_free
    assert done == downlink_free + ser_small + net.hop_ns + RTL_TCP.rx_ns(kib(4))
    # Exactly as if the sender had lived.
    _, _, done_alive, inbox_alive = _killed_sender_run(kill=False)
    assert inbox_alive == ["big", "small"]
    assert done_alive == done


def test_cross_host_fabric_send_schedules_at_most_six_events():
    env, net, fabric = _fabric(2)
    arrived = []
    fabric.attach("e1", arrived.append)
    before = env._seq
    env.process(fabric.send("e0", "e1", kib(4), "op"))
    env.run()
    assert [envelope.payload for envelope in arrived] == ["op"]
    # Minus the sending process's own start and finish events.
    assert env._seq - before - 2 <= 6


def test_duplicate_copy_is_delivered_after_the_original():
    class Always:
        def uniform(self, lo, hi):
            return 0.5

    env, net, fabric = _fabric(2)
    arrived = []
    fabric.attach("e1", arrived.append)
    fabric.faults = MessageFaults(rng=Always(), duplicate_p=1.0)
    env.process(fabric.send("e0", "e1", kib(4), "op"))
    env.run()
    assert [e.payload for e in arrived] == ["op", "op"]
    assert fabric.faults.duplicated == 1
    assert net.messages_delivered == 2
