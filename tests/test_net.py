"""Tests for links, the star network, and TCP stack cost profiles."""

import pytest

from repro.errors import NetworkError
from repro.net import (
    ETHERNET_FRAME_OVERHEAD,
    HLS_TCP,
    KERNEL_TCP,
    PAPER_BANDWIDTH_BPS,
    RTL_TCP,
    Link,
    Message,
    Network,
    stack_by_name,
)
from repro.sim import Environment
from repro.units import SEC, gbps, kib, us


def make_net(n_hosts=2, **kw):
    env = Environment()
    net = Network(env, **kw)
    for i in range(n_hosts):
        net.add_host(f"h{i}")
    return env, net


# --- message ---------------------------------------------------------------


def test_message_size_validation():
    with pytest.raises(ValueError):
        Message("a", "b", -1)


def test_message_ids_unique():
    a = Message("a", "b", 10)
    b = Message("a", "b", 10)
    assert a.msg_id != b.msg_id


def test_message_latency_unset():
    assert Message("a", "b", 10).latency_ns == -1


# --- link ------------------------------------------------------------------------


def test_link_validation():
    env = Environment()
    with pytest.raises(NetworkError):
        Link(env, 0, 100)
    with pytest.raises(NetworkError):
        Link(env, 1e9, -1)
    with pytest.raises(NetworkError):
        Link(env, 1e9, 0, mtu=10)


def test_link_wire_bytes_framing():
    env = Environment()
    link = Link(env, gbps(10), 0, mtu=1500)
    assert link.wire_bytes(100) == 100 + ETHERNET_FRAME_OVERHEAD
    assert link.wire_bytes(3000) == 3000 + 2 * ETHERNET_FRAME_OVERHEAD


def test_link_serialization_time():
    env = Environment()
    link = Link(env, gbps(10), 0)  # 1.25 GB/s
    # 1250 bytes + 38 overhead = 1288 B -> 1030.4 ns
    assert abs(link.serialization_ns(1250) - 1030) <= 1


def test_link_fifo_contention():
    env = Environment()
    link = Link(env, 1e9, 0, mtu=9000)  # 1 GB/s, no propagation
    # Offered together, ~1000ns each: they arrive one serialization apart.
    times = [link.reserve(1000 - ETHERNET_FRAME_OVERHEAD) for _ in range(3)]
    # Serialized back-to-back: roughly 1us, 2us, 3us.
    assert times[1] - times[0] >= 900
    assert times[2] - times[1] >= 900


# --- network -----------------------------------------------------------------------


def test_network_duplicate_host():
    env, net = make_net(1)
    with pytest.raises(NetworkError):
        net.add_host("h0")


def test_network_unknown_host():
    env, net = make_net(1)
    with pytest.raises(NetworkError):
        net.host("nope")


def test_network_delivery_and_latency():
    env, net = make_net(2)
    msg = Message("h0", "h1", 4096)
    sent = env.process(net.send(msg))
    env.run()
    assert msg.delivered_at > 0
    assert net.messages_delivered == 1
    assert sent.value is msg
    # Latency = 2 serializations + 2 hops + switch.
    assert msg.latency_ns == net.min_latency_ns(4096)


def test_network_min_latency_reasonable():
    env, net = make_net(2)
    # 4kB at 9.8 Gb/s: ~3.4us serialization x2 + ~3.5us fixed => ~10us.
    lat = net.min_latency_ns(4096)
    assert us(5) < lat < us(20)


def test_network_throughput_cap():
    """Sustained offered load above line rate caps at ~9.8 Gb/s."""
    env, net = make_net(2)
    n_msgs = 200
    size = kib(128)

    # Pipelined transfers: uplink serialization becomes the bottleneck.
    for _ in range(n_msgs):
        env.process(net.send(Message("h0", "h1", size)))
    env.run()
    elapsed = env.now
    achieved_bps = n_msgs * size / (elapsed / SEC)
    assert achieved_bps <= PAPER_BANDWIDTH_BPS * 1.01
    assert achieved_bps >= PAPER_BANDWIDTH_BPS * 0.85


def test_network_incast_contention():
    """Two senders to one receiver share the receiver's downlink."""
    env, net = make_net(3)
    done = []

    def sender(env, src):
        yield env.process(net.send(Message(src, "h2", kib(64))))
        done.append(env.now)

    env.process(sender(env, "h0"))
    env.process(sender(env, "h1"))
    env.run()
    solo = net.min_latency_ns(kib(64))
    assert done[0] < solo * 1.2
    assert done[1] > solo * 1.4  # queued behind the first on h2's downlink


# --- tcp -------------------------------------------------------------------------------


def test_stack_by_name():
    assert stack_by_name("kernel-tcp") is KERNEL_TCP
    assert stack_by_name("rtl-fpga-tcp") is RTL_TCP
    with pytest.raises(NetworkError):
        stack_by_name("quic")


def test_stack_cost_ordering():
    # The whole point: rtl < hls < kernel for any message size.
    for size in (0, 4096, 131072):
        assert RTL_TCP.tx_ns(size) < HLS_TCP.tx_ns(size) < KERNEL_TCP.tx_ns(size)


def test_network_utilization_report():
    env, net = make_net(2)
    for _ in range(20):
        env.process(net.send(Message("h0", "h1", kib(64))))
    env.run()
    report = net.utilization_report(env.now)
    # The sender's uplink and receiver's downlink carried the traffic.
    assert report["h0-up"] > 1.0  # Gb/s
    assert report["h1-down"] > 1.0
    assert report["h1-up"] == 0.0
    with pytest.raises(NetworkError):
        net.utilization_report(0)
