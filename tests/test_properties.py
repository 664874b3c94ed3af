"""Cross-layer property tests (hypothesis): conservation and invariants.

These exercise compositions of subsystems with randomized inputs:
no lost or duplicated I/Os through the block layer, FIFO delivery on the
fabric, EC+CRUSH durability round trips, and metric self-consistency.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import UringEngine, UringMode
from repro.blk import Bio, BlkMqConfig, BlockLayer, IoOp, Request
from repro.ec import ReedSolomon
from repro.host import HostKernel
from repro.net.stack import KERNEL_TCP
from repro.net.topology import Network
from repro.osd.fabric import Fabric
from repro.sim import Environment
from repro.units import us


class CountingDriver:
    """Null driver that records every request exactly once."""

    def __init__(self, env, service_ns=us(15)):
        self.env = env
        self.service_ns = service_ns
        self.completed_ids = []
        self.bytes = 0

    def queue_rq(self, request: Request) -> None:
        def complete(env):
            yield env.timeout(self.service_ns)
            self.completed_ids.append(request.req_id)
            self.bytes += request.size
            request.completed_at = env.now
            request.completion.succeed(request)

        self.env.process(complete(self.env))


@st.composite
def bio_batches(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    bios = []
    for _ in range(n):
        op = draw(st.sampled_from([IoOp.READ, IoOp.WRITE]))
        sector = draw(st.integers(min_value=0, max_value=1 << 20)) * 8
        size = draw(st.sampled_from([4096, 8192, 16384]))
        data = b"\x00" * size if op == IoOp.WRITE else None
        bios.append(Bio(op, sector, size, data=data))
    return bios


@given(bio_batches(), st.booleans())
@settings(max_examples=30, deadline=None)
def test_blk_mq_conserves_requests(bios, merging):
    """Every bio's bytes reach the driver exactly once, regardless of
    merging/elevator configuration."""
    env = Environment()
    kernel = HostKernel(env, num_cores=4)
    driver = CountingDriver(env)
    blk = BlockLayer(
        env, kernel, driver.queue_rq,
        BlkMqConfig(scheduler="mq-deadline" if merging else "none", merge_enabled=merging),
    )
    reqs = []

    def submit(env):
        core = kernel.cpus.core(0)
        for bio in bios:
            req = yield from blk.submit_bio(core, bio)
            if req not in reqs:
                reqs.append(req)
        blk.flush_plug(core)
        for req in reqs:
            yield req.completion

    env.process(submit(env))
    env.run()
    assert sorted(driver.completed_ids) == sorted(r.req_id for r in reqs)
    assert len(set(driver.completed_ids)) == len(driver.completed_ids)
    assert driver.bytes == sum(b.size for b in bios)


@given(bio_batches(), st.integers(min_value=1, max_value=12))
@settings(max_examples=25, deadline=None)
def test_uring_engine_conserves_ios(bios, iodepth):
    """The engine completes every bio exactly once at any depth."""
    env = Environment()
    kernel = HostKernel(env, num_cores=8)
    driver = CountingDriver(env)
    blk = BlockLayer(env, kernel, driver.queue_rq, BlkMqConfig(scheduler="none", merge_enabled=False))
    engine = UringEngine(env, kernel, blk, num_instances=3, mode=UringMode.SQPOLL)
    proc = env.process(engine.run(bios, iodepth))
    env.run()
    assert proc.ok
    result = proc.value
    assert result.ios == len(bios)
    assert result.bytes_moved == sum(b.size for b in bios)
    assert all(lat > 0 for lat in result.latencies_ns)


@given(st.lists(st.integers(min_value=64, max_value=65536), min_size=1, max_size=20))
@settings(max_examples=25, deadline=None)
def test_fabric_fifo_per_sender(sizes):
    """Messages between one entity pair arrive in send order."""
    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("b")
    fabric = Fabric(env, net)
    fabric.register("src", "a", KERNEL_TCP)
    fabric.register("dst", "b", KERNEL_TCP)
    received = []
    fabric.attach("dst", lambda envelope: received.append(envelope.payload))

    def sender(env):
        for i, size in enumerate(sizes):
            yield from fabric.send("src", "dst", size, payload=i)

    env.process(sender(env))
    env.run()
    assert received == list(range(len(sizes)))


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.binary(min_size=1, max_size=512),
    st.integers(min_value=0, max_value=999),
)
@settings(max_examples=40, deadline=None)
def test_ec_durability_property(k, m, data, seed):
    """Any m erasures are recoverable; m+1 never silently succeed."""
    import random

    rs = ReedSolomon(k, m)
    shards = rs.encode(data)
    rng = random.Random(seed)
    lost = rng.sample(range(k + m), m)
    damaged = [None if i in lost else s for i, s in enumerate(shards)]
    assert rs.decode(damaged, len(data)) == data
    # One more loss than the design limit must raise, not corrupt.
    extra = next(i for i in range(k + m) if i not in lost)
    damaged[extra] = None
    from repro.errors import DecodeError

    with pytest.raises(DecodeError):
        rs.decode(damaged, len(data))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_crush_epoch_cache_transparency(x):
    """Cached and uncached placements are identical within an epoch."""
    from repro.crush import PlacementEngine, build_flat_cluster, replicated_rule

    cmap, root = build_flat_cluster(8)
    eng = PlacementEngine(cmap)
    rule = replicated_rule(root)
    first = eng.pg_to_osds(1, x % 64, 64, rule, 3)
    second = eng.pg_to_osds(1, x % 64, 64, rule, 3)
    assert first == second
    assert eng.placement_was_cached if hasattr(eng, "placement_was_cached") else True
    assert eng.hits >= 1


def test_run_result_metric_consistency():
    """throughput x elapsed == bytes, KIOPS x elapsed == ios."""
    from repro.api import RunResult

    r = RunResult(latencies_ns=[1000] * 50, started_at=0, finished_at=1_000_000, bytes_moved=50 * 4096)
    assert r.throughput_mb_s() * (r.elapsed_ns / 1e9) * 1e6 == pytest.approx(r.bytes_moved)
    assert r.kiops() * (r.elapsed_ns / 1e9) * 1e3 == pytest.approx(r.ios)
    assert r.p99_latency_us() >= r.mean_latency_us() * 0.99
