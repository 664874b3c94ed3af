"""Tests for the io_uring rings and all five API engines."""

import pytest

from repro.api import (
    IoUring,
    LibAioEngine,
    MmapEngine,
    PosixAioEngine,
    Ring,
    SyncEngine,
    UringEngine,
    UringMode,
)
from repro.api.uring.sqe import Sqe, UringOp
from repro.blk import Bio, BlkMqConfig, BlockLayer, IoOp
from repro.deliba import build_framework, framework_by_name
from repro.errors import ApiError, RingFullError
from repro.host import HostKernel
from repro.osd import FaultInjector, OpPolicy
from repro.sim import Environment
from repro.status import BlkStatus
from repro.units import kib, ms, us
from repro.workloads import FioJob


class NullDriver:
    def __init__(self, env, service_ns=us(20)):
        self.env = env
        self.service_ns = service_ns
        self.completed = 0

    def queue_rq(self, request):
        def complete(env):
            yield env.timeout(self.service_ns)
            request.completed_at = env.now
            self.completed += 1
            request.completion.succeed(request)

        self.env.process(complete(self.env))


def make_stack(service_ns=us(20), blk_config=None):
    env = Environment()
    kernel = HostKernel(env, num_cores=8)
    driver = NullDriver(env, service_ns)
    blk = BlockLayer(
        env,
        kernel,
        driver.queue_rq,
        blk_config or BlkMqConfig(scheduler="none", merge_enabled=False),
    )
    return env, kernel, blk, driver


def bios_seq(n, size=4096, op=IoOp.READ):
    out = []
    for i in range(n):
        data = b"\x00" * size if op == IoOp.WRITE else None
        out.append(Bio(op, i * (size // 512), size, data=data))
    return out


def run_engine(engine, bios, iodepth):
    env = engine.env
    p = env.process(engine.run(bios, iodepth))
    env.run()
    if not p.ok:
        raise p.value
    return p.value


# --- ring --------------------------------------------------------------------


def test_ring_power_of_two_required():
    with pytest.raises(ApiError):
        Ring(10)
    with pytest.raises(ApiError):
        Ring(0)


def test_ring_push_pop_fifo():
    r = Ring(4)
    for i in range(4):
        r.push(i)
    assert r.is_full
    assert [r.pop() for _ in range(4)] == [0, 1, 2, 3]
    assert r.is_empty


def test_ring_overflow_raises():
    r = Ring(2)
    r.push(1)
    r.push(2)
    with pytest.raises(RingFullError):
        r.push(3)


def test_ring_underflow_raises():
    with pytest.raises(ApiError):
        Ring(2).pop()


def test_ring_wraparound_indices():
    r = Ring(4)
    # Force many wraps.
    for i in range(100):
        r.push(i)
        assert r.pop() == i
    assert r.head == r.tail == 100


def test_ring_32bit_wrap():
    r = Ring(2)
    r.head = r.tail = 0xFFFFFFFF
    r.push("x")
    assert r.tail == 0  # wrapped
    assert len(r) == 1
    assert r.pop() == "x"


def test_ring_peek_and_pop_many():
    r = Ring(8)
    for i in range(5):
        r.push(i)
    assert r.peek() == 0
    assert r.pop_many(3) == [0, 1, 2]
    assert r.space == 6


def test_sqe_validation():
    with pytest.raises(ApiError):
        Sqe(UringOp.READ, 0, 0, 4096, 1)  # no bio
    with pytest.raises(ApiError):
        Sqe(UringOp.NOP, 0, 0, -1, 1)


# --- io_uring instance ----------------------------------------------------------


@pytest.mark.parametrize("mode", list(UringMode))
def test_uring_single_io_roundtrip(mode):
    env, kernel, blk, driver = make_stack()
    ring = IoUring(env, kernel, blk, entries=8, mode=mode)
    got = []

    def proc(env):
        ring.prepare_many(bios_seq(1))
        yield from ring.submit()
        cqes = yield from ring.wait_cqes(1)
        got.extend(cqes)

    env.process(proc(env))
    env.run()
    assert len(got) == 1
    assert got[0].ok
    assert got[0].res == 4096


def test_uring_sqpoll_saves_syscalls():
    env, kernel, blk, _ = make_stack()
    ring = IoUring(env, kernel, blk, entries=8, mode=UringMode.SQPOLL)

    def proc(env):
        ring.prepare_many(bios_seq(4))
        yield from ring.submit()
        yield from ring.wait_cqes(4)

    env.process(proc(env))
    env.run()
    assert kernel.syscalls == 0
    assert ring.syscalls_saved == 1


def test_uring_batching_one_syscall_per_batch():
    env, kernel, blk, _ = make_stack()
    ring = IoUring(env, kernel, blk, entries=16, mode=UringMode.POLL)

    def proc(env):
        ring.prepare_many(bios_seq(8))
        yield from ring.submit()
        yield from ring.wait_cqes(8, max_cqes=8)

    env.process(proc(env))
    env.run()
    assert kernel.syscalls == 1  # one enter for 8 I/Os


def test_uring_fixed_buffers_skip_copies():
    def copies(fixed):
        env, kernel, blk, _ = make_stack()
        ring = IoUring(env, kernel, blk, entries=8, mode=UringMode.POLL, fixed_buffers=fixed)

        def proc(env):
            ring.prepare_many([Bio(IoOp.WRITE, 0, 4096, data=b"\x00" * 4096)])
            yield from ring.submit()
            yield from ring.wait_cqes(1)

        env.process(proc(env))
        env.run()
        return kernel.bytes_copied

    assert copies(fixed=True) == 0
    assert copies(fixed=False) == 4096


def test_uring_sq_full_raises():
    env, kernel, blk, _ = make_stack()
    ring = IoUring(env, kernel, blk, entries=2, mode=UringMode.POLL)
    ring.prepare_many(bios_seq(1))
    ring.prepare_many(bios_seq(1))
    with pytest.raises(RingFullError):
        ring.prepare_many(bios_seq(1))


def test_uring_wait_validation():
    env, kernel, blk, _ = make_stack()
    ring = IoUring(env, kernel, blk, entries=2)

    def proc(env):
        yield from ring.wait_cqes(0)

    env.process(proc(env))
    with pytest.raises(ApiError):
        env.run()


# --- engines -----------------------------------------------------------------------


def test_uring_engine_runs_all_ios():
    env, kernel, blk, driver = make_stack()
    engine = UringEngine(env, kernel, blk, num_instances=3)
    result = run_engine(engine, bios_seq(30), iodepth=6)
    assert result.ios == 30
    assert result.bytes_moved == 30 * 4096
    assert driver.completed == 30
    assert result.mean_latency_us() > 0


def test_uring_engine_instances_pinned_to_distinct_cores():
    env, kernel, blk, _ = make_stack()
    engine = UringEngine(env, kernel, blk, num_instances=3, pin_cores=True)
    cores = {inst.core.core_id for inst in engine.instances}
    assert len(cores) == 3


def test_uring_engine_validation():
    env, kernel, blk, _ = make_stack()
    with pytest.raises(ApiError):
        UringEngine(env, kernel, blk, num_instances=0)
    engine = UringEngine(env, kernel, blk)
    with pytest.raises(ApiError):
        run_engine(engine, [], 1)
    with pytest.raises(ApiError):
        run_engine(engine, bios_seq(1), 0)


@pytest.mark.parametrize(
    "engine_cls", [SyncEngine, LibAioEngine, PosixAioEngine, MmapEngine]
)
def test_legacy_engines_complete_all_ios(engine_cls):
    env, kernel, blk, driver = make_stack()
    engine = engine_cls(env, kernel, blk)
    result = run_engine(engine, bios_seq(10, op=IoOp.WRITE), iodepth=4)
    assert result.ios == 10
    assert result.bytes_moved == 10 * 4096


class FailingDriver(NullDriver):
    """Completes every request with an I/O error."""

    def queue_rq(self, request):
        request.fail(BlkStatus.IOERR, "injected")
        super().queue_rq(request)


class HealthProbe:
    def __init__(self):
        self.seen = []
        self.osd_seen = []

    def observe_client(self, op_class, tenant, latency_ns, ok, root):
        self.seen.append(ok)

    def observe_osd(self, osd_id, op_class, tenant, latency_ns, ok):
        self.osd_seen.append(osd_id)


@pytest.mark.parametrize(
    "engine_cls", [SyncEngine, LibAioEngine, PosixAioEngine, MmapEngine, UringEngine]
)
@pytest.mark.parametrize("driver_cls", [NullDriver, FailingDriver])
def test_every_engine_accounts_completions_alike(engine_cls, driver_cls):
    """One completion path: a failed I/O counts as an error and moves no
    bytes, and the health layer sees every completion.  Only the
    io_uring engine used to; the others counted a failed write's bytes
    as moved and never fed health."""
    env = Environment()
    kernel = HostKernel(env, num_cores=8)
    blk = BlockLayer(env, kernel, driver_cls(env).queue_rq,
                     BlkMqConfig(scheduler="none", merge_enabled=False))
    env.health = HealthProbe()
    result = run_engine(engine_cls(env, kernel, blk), bios_seq(10, op=IoOp.WRITE), iodepth=4)
    ok = driver_cls is NullDriver
    assert result.ios == 10
    assert result.errors == (0 if ok else 10)
    assert result.bytes_moved == (10 * 4096 if ok else 0)
    assert env.health.seen == [ok] * 10


def test_env_health_sees_client_and_osd_completions():
    """One run's ``env.health`` hears both completion paths: every I/O the
    engine reaps and every op an OSD daemon serves, with no hook set on
    the block layer or on any daemon."""
    fw = build_framework(framework_by_name("delibak"))
    fw.env.health = probe = HealthProbe()
    job = FioJob("probe", "randwrite", bs=kib(4), iodepth=4, nrequests=10)
    run_engine(fw.engine, job.make_bios(fw.rng.stream("fio.probe.j0")), iodepth=4)
    assert probe.seen == [True] * 10
    assert len(probe.osd_seen) == fw.cluster.total_ops_served() > 0


@pytest.mark.parametrize("framework", ["deliba2", "software-ceph"])
def test_sync_stack_counts_failed_ios_and_feeds_health(framework):
    """A sync-engine stack (D2 over NBD, software Ceph over the stock
    driver) with every message lost: the 20 writes fail, move no bytes,
    and reach the health layer's SLO tracking."""
    fw = build_framework(framework_by_name(framework), health=True)
    fw.image.client.policy = OpPolicy(timeout_ns=ms(1), max_attempts=1)
    FaultInjector(fw.cluster).set_message_faults(drop_p=1.0)
    job = FioJob("lossy", "randwrite", bs=kib(4), iodepth=4, nrequests=20)
    result = run_engine(fw.engine, job.make_bios(fw.rng.stream("fio.lossy.j0")), iodepth=4)
    assert (result.errors, result.bytes_moved) == (20, 0)
    slo = fw.health.slo.summary(fw.env.now)[""]
    assert (slo["total"], slo["errors"]) == (20, 20)


def test_sync_engine_charges_syscall_per_io():
    env, kernel, blk, _ = make_stack()
    engine = SyncEngine(env, kernel, blk)
    run_engine(engine, bios_seq(5), iodepth=1)
    assert kernel.syscalls == 5
    assert kernel.context_switches >= 10  # sleep+wake per I/O


def test_libaio_batches_submissions():
    env, kernel, blk, _ = make_stack()
    engine = LibAioEngine(env, kernel, blk, batch_size=8)
    run_engine(engine, bios_seq(8), iodepth=8)
    # 1 submit + getevents calls; far fewer than 8 syscalls per io.
    assert kernel.syscalls < 8


def test_posix_aio_slowest_per_io_overhead():
    def cpu_time(engine_cls):
        env, kernel, blk, _ = make_stack()
        engine = engine_cls(env, kernel, blk)
        run_engine(engine, bios_seq(10, op=IoOp.WRITE), iodepth=1)
        return kernel.cpus.total_busy_ns()

    assert cpu_time(PosixAioEngine) > cpu_time(SyncEngine)


def test_uring_lower_latency_than_sync():
    def mean_latency(make_engine):
        env, kernel, blk, _ = make_stack()
        engine = make_engine(env, kernel, blk)
        result = run_engine(engine, bios_seq(20), iodepth=1)
        return result.mean_latency_us()

    uring = mean_latency(lambda e, k, b: UringEngine(e, k, b, num_instances=1))
    sync = mean_latency(SyncEngine)
    assert uring < sync


def test_uring_engine_higher_iops_at_depth():
    def kiops(make_engine):
        env, kernel, blk, _ = make_stack()
        engine = make_engine(env, kernel, blk)
        result = run_engine(engine, bios_seq(200), iodepth=16)
        return result.kiops()

    uring = kiops(lambda e, k, b: UringEngine(e, k, b, num_instances=3))
    sync = kiops(SyncEngine)
    assert uring > sync


def test_mmap_rereads_are_cheap():
    env, kernel, blk, driver = make_stack()
    engine = MmapEngine(env, kernel, blk)
    bios = bios_seq(1)
    run_engine(engine, bios, iodepth=1)
    first_backend_reads = driver.completed
    # Same pages again: no new backend I/O.
    engine2_result = run_engine(engine, bios_seq(1), iodepth=1)
    assert driver.completed == first_backend_reads
    assert engine2_result.ios == 1


# --- linked SQEs -----------------------------------------------------------------


def test_linked_sqes_execute_in_order():
    """IOSQE_IO_LINK: each chained I/O starts only after its predecessor
    completes (no overlap, unlike independent submissions)."""
    from repro.api.uring.sqe import IOSQE_IO_LINK

    env, kernel, blk, driver = make_stack(service_ns=us(50))
    ring = IoUring(env, kernel, blk, entries=8, mode=UringMode.POLL)
    done = []

    orig = driver.queue_rq

    def tracking(request):
        request.dispatched_tracked = env.now
        done.append(("dispatch", env.now))
        orig(request)

    blk.hctxs[0].queue_rq = tracking

    def proc(env):
        ring.prepare_many(bios_seq(1), flags=IOSQE_IO_LINK)
        ring.prepare_many(bios_seq(1), flags=IOSQE_IO_LINK)
        ring.prepare_many(bios_seq(1))
        yield from ring.submit()
        yield from ring.wait_cqes(3, max_cqes=3)

    env.process(proc(env))
    env.run()
    dispatches = [t for kind, t in done if kind == "dispatch"]
    assert len(dispatches) == 3
    # Strictly serialized: each dispatch after the previous service time.
    assert dispatches[1] - dispatches[0] >= us(50)
    assert dispatches[2] - dispatches[1] >= us(50)


def test_unlinked_sqes_overlap():
    env, kernel, blk, driver = make_stack(service_ns=us(50))
    ring = IoUring(env, kernel, blk, entries=8, mode=UringMode.POLL)

    def proc(env):
        ring.prepare_many(bios_seq(3))
        yield from ring.submit()
        yield from ring.wait_cqes(3, max_cqes=3)

    env.process(proc(env))
    env.run()
    # Three overlapped 50us services finish well under 3x50us + overheads.
    assert env.now < us(120)


def test_linked_chain_cancels_after_failure():
    from repro.api.uring.sqe import ECANCELED, IOSQE_IO_LINK

    env, kernel, blk, driver = make_stack()

    # Driver that fails every request.
    def failing(request):
        def complete(env):
            yield env.timeout(us(5))
            request.error = "EIO"
            request.completion.succeed(request)

        env.process(complete(env))

    blk.hctxs[0].queue_rq = failing
    ring = IoUring(env, kernel, blk, entries=8, mode=UringMode.POLL)
    got = []

    def proc(env):
        ring.prepare_many(bios_seq(1), flags=IOSQE_IO_LINK)
        ring.prepare_many(bios_seq(1), flags=IOSQE_IO_LINK)
        ring.prepare_many(bios_seq(1))
        yield from ring.submit()
        cqes = yield from ring.wait_cqes(3, max_cqes=3)
        got.extend(cqes)

    env.process(proc(env))
    env.run()
    results = sorted(c.res for c in got)
    # First fails with -EIO (-5); the two linked successors are cancelled.
    assert results == [ECANCELED, ECANCELED, -5]
