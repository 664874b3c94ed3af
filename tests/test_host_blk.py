"""Tests for the host cost model and the blk-mq block layer."""

import pytest

from repro.blk import (
    DMQ_CONFIG,
    Bio,
    BlkMqConfig,
    BlockLayer,
    IoOp,
    MqDeadlineScheduler,
    NoneScheduler,
    Request,
    scheduler_factory,
)
from repro.errors import BlockLayerError, SimulationError
from repro.host import HostKernel, SKYLAKE
from repro.sim import Environment
from repro.units import us


class NullDriver:
    """Completes requests after a fixed service time."""

    def __init__(self, env, service_ns=us(10)):
        self.env = env
        self.service_ns = service_ns
        self.seen: list[Request] = []

    def queue_rq(self, request: Request) -> None:
        self.seen.append(request)

        def complete(env):
            yield env.timeout(self.service_ns)
            request.completed_at = env.now
            request.completion.succeed(request)

        self.env.process(complete(self.env), name=f"null.{request.req_id}")


def make_stack(config=None, service_ns=us(10)):
    env = Environment()
    kernel = HostKernel(env, num_cores=8)
    driver = NullDriver(env, service_ns)
    blk = BlockLayer(env, kernel, driver.queue_rq, config)
    return env, kernel, blk, driver


# --- host ------------------------------------------------------------------


def test_cpu_core_accounting():
    env = Environment()
    kernel = HostKernel(env, num_cores=2)

    def proc(env):
        yield from kernel.cpus.core(0).run(1000)

    env.process(proc(env))
    env.run()
    assert kernel.cpus.core(0).busy_ns == 1000
    assert kernel.cpus.total_busy_ns() == 1000


def test_cpu_core_exclusive():
    env = Environment()
    kernel = HostKernel(env, num_cores=1)
    ends = []

    def proc(env):
        yield from kernel.cpus.core(0).run(1000)
        ends.append(env.now)

    env.process(proc(env))
    env.process(proc(env))
    env.run()
    assert ends == [1000, 2000]


def test_cpu_pick_core_affinity():
    env = Environment()
    kernel = HostKernel(env, num_cores=4)
    assert kernel.cpus.pick_core(2).core_id == 2
    ids = {kernel.cpus.pick_core().core_id for _ in range(4)}
    assert ids == {0, 1, 2, 3}  # round robin covers all


def test_cpu_validation():
    env = Environment()
    kernel = HostKernel(env, num_cores=2)
    with pytest.raises(SimulationError):
        kernel.cpus.core(5)

    def bad(env):
        yield from kernel.cpus.core(0).run(-1)

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_host_cost_counters():
    env = Environment()
    kernel = HostKernel(env, num_cores=2)

    def proc(env):
        core = kernel.cpus.core(0)
        yield from kernel.syscall(core)
        yield from kernel.context_switch(core)
        yield from kernel.copy(core, 4096)

    env.process(proc(env))
    env.run()
    assert kernel.syscalls == 1
    assert kernel.context_switches == 1
    assert kernel.bytes_copied == 4096


def test_copy_cost_scales_with_size():
    assert SKYLAKE.copy_ns(4096) < SKYLAKE.copy_ns(131072)
    assert SKYLAKE.copy_ns(0) == 0


# --- bio / request ----------------------------------------------------------------


def test_bio_validation():
    with pytest.raises(BlockLayerError):
        Bio(IoOp.READ, -1, 4096)
    with pytest.raises(BlockLayerError):
        Bio(IoOp.READ, 0, 100)  # not sector aligned
    with pytest.raises(BlockLayerError):
        Bio(IoOp.WRITE, 0, 4096, data=b"short")


def test_bio_geometry():
    bio = Bio(IoOp.READ, 8, 4096)
    assert bio.offset == 4096
    assert bio.end_sector == 16


def test_request_merge():
    r = Request([Bio(IoOp.READ, 0, 4096)])
    nxt = Bio(IoOp.READ, 8, 4096)
    assert r.can_merge(nxt)
    r.merge(nxt)
    assert r.size == 8192
    assert not r.can_merge(Bio(IoOp.WRITE, 16, 4096, data=b"\x00" * 4096))
    with pytest.raises(BlockLayerError):
        r.merge(Bio(IoOp.READ, 100, 4096))


def test_request_mixed_ops_rejected():
    with pytest.raises(BlockLayerError):
        Request([Bio(IoOp.READ, 0, 4096), Bio(IoOp.WRITE, 8, 4096, data=b"\x00" * 4096)])


def test_request_data_concatenation():
    r = Request([Bio(IoOp.WRITE, 0, 512, data=b"a" * 512)])
    r.merge(Bio(IoOp.WRITE, 1, 512, data=b"b" * 512))
    assert r.data() == b"a" * 512 + b"b" * 512


# --- schedulers ----------------------------------------------------------------------


def test_scheduler_factory():
    assert isinstance(scheduler_factory("none"), NoneScheduler)
    assert isinstance(scheduler_factory("mq-deadline"), MqDeadlineScheduler)
    with pytest.raises(BlockLayerError):
        scheduler_factory("bfq")


def test_none_scheduler_fifo():
    s = NoneScheduler()
    r1, r2 = Request([Bio(IoOp.READ, 0, 512)]), Request([Bio(IoOp.READ, 8, 512)])
    s.insert(r1, 0)
    s.insert(r2, 0)
    assert s.next_request(0) is r1
    assert s.next_request(0) is r2
    assert s.next_request(0) is None


def test_mq_deadline_prefers_reads():
    s = MqDeadlineScheduler()
    w = Request([Bio(IoOp.WRITE, 0, 512, data=b"\x00" * 512)])
    r = Request([Bio(IoOp.READ, 8, 512)])
    s.insert(w, 0)
    s.insert(r, 0)
    assert s.next_request(1) is r
    assert s.next_request(1) is w


def test_mq_deadline_write_starvation_bound():
    s = MqDeadlineScheduler(writes_starved=2)
    w = Request([Bio(IoOp.WRITE, 0, 512, data=b"\x00" * 512)])
    reads = [Request([Bio(IoOp.READ, 8 * (i + 1), 512)]) for i in range(5)]
    s.insert(w, 0)
    for r in reads:
        s.insert(r, 0)
    popped = [s.next_request(1) for _ in range(3)]
    assert w in popped  # write dispatched before all reads drain


def test_mq_deadline_expired_write_first():
    s = MqDeadlineScheduler(write_expire_ns=100)
    w = Request([Bio(IoOp.WRITE, 0, 512, data=b"\x00" * 512)])
    r = Request([Bio(IoOp.READ, 8, 512)])
    s.insert(w, 0)
    s.insert(r, 0)
    assert s.next_request(200) is w  # write deadline passed


def test_mq_deadline_validation():
    with pytest.raises(BlockLayerError):
        MqDeadlineScheduler(read_expire_ns=0)


# --- blk-mq -----------------------------------------------------------------------------


def run_bios(env, kernel, blk, bios, core_id=0):
    done = []

    def proc(env):
        core = kernel.cpus.core(core_id)
        reqs = []
        for bio in bios:
            req = yield from blk.submit_bio(core, bio)
            if req not in reqs:
                reqs.append(req)
        blk.flush_plug(core)
        for req in reqs:
            yield req.completion
        done.append(env.now)

    env.process(proc(env))
    env.run()
    return done


def test_blk_mq_completes_requests():
    env, kernel, blk, driver = make_stack()
    run_bios(env, kernel, blk, [Bio(IoOp.READ, 0, 4096)])
    assert len(driver.seen) == 1
    assert driver.seen[0].completed_at > 0
    assert blk.bios_submitted == 1


def test_blk_mq_merges_contiguous_bios():
    env, kernel, blk, driver = make_stack(BlkMqConfig(merge_enabled=True))
    bios = [Bio(IoOp.WRITE, 8 * i, 4096, data=b"\x00" * 4096) for i in range(4)]
    run_bios(env, kernel, blk, bios)
    assert blk.merges >= 1
    assert len(driver.seen) < 4


def test_dmq_never_merges_and_bypasses_elevator():
    env, kernel, blk, driver = make_stack(DMQ_CONFIG)
    bios = [Bio(IoOp.READ, 8 * i, 4096) for i in range(4)]
    run_bios(env, kernel, blk, bios)
    assert blk.merges == 0
    assert len(driver.seen) == 4
    assert isinstance(blk.hctxs[0].scheduler, NoneScheduler)


def test_dmq_submit_cheaper_than_default():
    def submit_cpu(config):
        env, kernel, blk, _ = make_stack(config)
        run_bios(env, kernel, blk, [Bio(IoOp.READ, 0, 4096)])
        return kernel.cpus.total_busy_ns()

    assert submit_cpu(DMQ_CONFIG) < submit_cpu(BlkMqConfig(merge_enabled=False))


def test_tag_exhaustion_backpressure():
    env = Environment()
    kernel = HostKernel(env, num_cores=2)
    driver = NullDriver(env, service_ns=us(100))
    blk = BlockLayer(env, kernel, driver.queue_rq, BlkMqConfig(
        num_hw_queues=1, tags_per_queue=2, scheduler="none", merge_enabled=False))
    bios = [Bio(IoOp.READ, 1000 * i, 4096) for i in range(6)]
    run_bios(env, kernel, blk, bios)
    # All eventually dispatched despite only 2 tags.
    assert len(driver.seen) == 6
    dispatch_times = sorted(r.dispatched_at for r in driver.seen)
    assert dispatch_times[-1] >= us(200)  # third wave waited for tags


def test_per_core_hctx_mapping():
    env, kernel, blk, driver = make_stack(
        BlkMqConfig(num_hw_queues=4, scheduler="none", merge_enabled=False)
    )
    run_bios(env, kernel, blk, [Bio(IoOp.READ, 0, 4096)], core_id=2)
    assert blk.hctxs[2].dispatched == 1
    assert blk.hctxs[0].dispatched == 0


def test_blk_config_validation():
    env = Environment()
    kernel = HostKernel(env)
    with pytest.raises(BlockLayerError):
        BlockLayer(env, kernel, lambda r: None, BlkMqConfig(num_hw_queues=0))
