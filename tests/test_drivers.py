"""Unit tests for the three block-device drivers (UIFD, NBD, rbd kmod)."""

import pytest

from repro.blk import Bio, IoOp, Request
from repro.deliba import DELIBA1, DELIBA2, DELIBAK, build_framework
from repro.driver import (
    DELIBA1_NBD,
    DELIBA2_NBD,
    NbdConfig,
    NbdDriver,
    RbdKmodDriver,
    UifdConfig,
    UifdDriver,
)
from repro.errors import DriverError
from repro.fpga import Accelerator, PcieLink, QdmaEngine, spec_by_name
from repro.host import HostKernel
from repro.osd import ClusterSpec, RBDImage, build_cluster
from repro.sim import Environment
from repro.units import kib, mib


def stack(pool_kind="replicated"):
    env = Environment()
    cluster = build_cluster(env, ClusterSpec(num_server_hosts=2, osds_per_host=4))
    if pool_kind == "replicated":
        pool = cluster.create_replicated_pool("p", pg_num=32, size=2)
        objsize = mib(4)
    else:
        pool = cluster.create_erasure_pool("p", pg_num=32, k=2, m=1)
        objsize = kib(4)
    client = cluster.new_client()
    image = RBDImage("img", mib(16), pool, client, object_size=objsize)
    kernel = HostKernel(env)
    return env, cluster, image, kernel


def fpga_parts(env):
    qdma = QdmaEngine(env, PcieLink(env))
    crush = Accelerator(env, spec_by_name("straw2"))
    ec = Accelerator(env, spec_by_name("rs_encoder"))
    return qdma, crush, ec


def run_request(env, driver, bio):
    request = Request([bio])
    request.submitted_at = env.now
    request.completion = env.event()
    driver.queue_rq(request)
    env.run()
    assert request.completion.processed
    return request


def write_bio(offset=0, size=kib(4), seq=False):
    return Bio(IoOp.WRITE, offset // 512, size, data=b"\xAB" * size, sequential=seq)


def read_bio(offset=0, size=kib(4)):
    return Bio(IoOp.READ, offset // 512, size)


# --- config data ---------------------------------------------------------------


def test_nbd_generation_configs():
    assert DELIBA1_NBD.crossings == 6 and DELIBA1_NBD.copies == 6
    assert DELIBA1_NBD.passive_offload
    assert DELIBA2_NBD.crossings == 2 and DELIBA2_NBD.copies == 5
    assert not DELIBA2_NBD.passive_offload


# --- uifd ------------------------------------------------------------------------


def test_uifd_hardware_requires_fpga():
    env, cluster, image, kernel = stack()
    with pytest.raises(DriverError):
        UifdDriver(env, kernel, image, hardware=True)


def test_uifd_ec_requires_rs_accel():
    env, cluster, image, kernel = stack("erasure")
    qdma, crush, _ = fpga_parts(env)
    with pytest.raises(DriverError):
        UifdDriver(env, kernel, image, qdma=qdma, crush_accel=crush, hardware=True)


def test_uifd_hw_write_and_read_roundtrip():
    env, cluster, image, kernel = stack()
    qdma, crush, ec = fpga_parts(env)
    driver = UifdDriver(env, kernel, image, qdma=qdma, crush_accel=crush, ec_accel=ec)
    run_request(env, driver, write_bio())
    req = run_request(env, driver, read_bio())
    assert driver.requests_completed == 2
    assert req.completed_at > 0
    # Data actually reached the OSDs.
    name = image.object_name(0)
    assert any(name in d.store for d in cluster.daemons.values())


def test_uifd_hw_uses_qdma_descriptors():
    env, cluster, image, kernel = stack()
    qdma, crush, ec = fpga_parts(env)
    driver = UifdDriver(env, kernel, image, qdma=qdma, crush_accel=crush, ec_accel=ec)
    run_request(env, driver, write_bio())
    assert driver.queue.descriptors_processed == 1
    assert crush.invocations == 1


def test_uifd_sw_mode_no_qdma_needed():
    env, cluster, image, kernel = stack()
    driver = UifdDriver(env, kernel, image, hardware=False)
    run_request(env, driver, write_bio())
    assert driver.requests_completed == 1


@pytest.mark.parametrize("hardware", [True, False], ids=["hardware", "software"])
def test_uifd_irq_completion_costs_more(hardware):
    """An MSI-X interrupt costs more than a polled completion ring in
    hardware mode; software mode has no ring, so the flag changes nothing."""
    def latency(polled):
        env, cluster, image, kernel = stack()
        qdma, crush, ec = fpga_parts(env) if hardware else (None, None, None)
        driver = UifdDriver(
            env, kernel, image, UifdConfig(polled_completion=polled),
            qdma=qdma, crush_accel=crush, ec_accel=ec, hardware=hardware,
        )
        req = run_request(env, driver, write_bio())
        return req.completed_at

    if hardware:
        assert latency(polled=True) < latency(polled=False)
    else:
        assert latency(polled=True) == latency(polled=False)


def test_uifd_sriov_function_binding():
    env, cluster, image, kernel = stack()
    qdma, crush, ec = fpga_parts(env)
    UifdDriver(env, kernel, image, qdma=qdma, crush_accel=crush, ec_accel=ec, function=3)
    assert len(qdma.queues_of_function(3)) == 1


# --- nbd --------------------------------------------------------------------------


def test_nbd_hardware_requires_fpga():
    env, cluster, image, kernel = stack()
    with pytest.raises(DriverError):
        NbdDriver(env, kernel, image, hardware=True)


def test_nbd_charges_crossings_and_copies():
    env, cluster, image, kernel = stack()
    qdma, crush, ec = fpga_parts(env)
    driver = NbdDriver(env, kernel, image, NbdConfig(crossings=6, copies=6),
                       qdma=qdma, crush_accel=crush, ec_accel=ec)
    run_request(env, driver, write_bio())
    assert kernel.context_switches >= 6
    assert kernel.bytes_copied >= 6 * kib(4)


def test_nbd_daemon_serializes_requests():
    env, cluster, image, kernel = stack()
    qdma, crush, ec = fpga_parts(env)
    driver = NbdDriver(env, kernel, image, DELIBA2_NBD,
                       qdma=qdma, crush_accel=crush, ec_accel=ec)
    reqs = []
    for i in range(3):
        r = Request([write_bio(offset=i * kib(64))])
        r.submitted_at = env.now
        r.completion = env.event()
        driver.queue_rq(r)
        reqs.append(r)
    env.run()
    times = sorted(r.completed_at for r in reqs)
    # One daemon thread: completions spaced by at least the op round trip.
    assert times[1] - times[0] > 10_000
    assert times[2] - times[1] > 10_000


def test_nbd_passive_offload_slower_than_datapath():
    def latency(cfg):
        env, cluster, image, kernel = stack()
        qdma, crush, ec = fpga_parts(env)
        driver = NbdDriver(env, kernel, image, cfg, qdma=qdma, crush_accel=crush, ec_accel=ec)
        return run_request(env, driver, write_bio()).completed_at

    passive = latency(NbdConfig(crossings=2, copies=5, passive_offload=True))
    inline = latency(NbdConfig(crossings=2, copies=5, passive_offload=False))
    assert passive > inline


def test_nbd_software_mode():
    env, cluster, image, kernel = stack()
    driver = NbdDriver(env, kernel, image, DELIBA2_NBD, hardware=False)
    run_request(env, driver, write_bio())
    assert driver.requests_completed == 1


# --- rbd kmod ----------------------------------------------------------------------


def test_rbd_kmod_roundtrip():
    env, cluster, image, kernel = stack()
    driver = RbdKmodDriver(env, kernel, image)
    run_request(env, driver, write_bio())
    req = run_request(env, driver, read_bio())
    assert req.completed_at > 0
    assert driver.requests_completed == 2


def test_rbd_kmod_charges_percall_placement():
    """Stock path: the full CRUSH cost on every request (uncached)."""
    env, cluster, image, kernel = stack()
    driver = RbdKmodDriver(env, kernel, image)
    r1 = run_request(env, driver, write_bio(offset=0))
    start = env.now
    r2 = Request([write_bio(offset=0)])
    r2.submitted_at = env.now
    r2.completion = env.event()
    driver.queue_rq(r2)
    env.run()
    # Second identical request still pays ~48us of placement.
    assert r2.completed_at - start > 48_000


# --- cross-driver shape ----------------------------------------------------------------


def test_driver_latency_ordering_matches_generations():
    def latency(config):
        fw = build_framework(config)
        from repro.workloads import FioJob
        job = FioJob("x", "randwrite", bs=kib(4), iodepth=1, nrequests=15)
        proc = fw.env.process(fw.run_fio(job))
        fw.env.run()
        return proc.value.mean_latency_us()

    assert latency(DELIBAK) < latency(DELIBA2) < latency(DELIBA1)


# --- cmac network monitoring -------------------------------------------------------


def test_cmac_monitor_counts_flows():
    from repro.driver import CmacNetworkMonitor
    from repro.net import Message, Network

    env = Environment()
    net = Network(env)
    for h in ("a", "b", "c"):
        net.add_host(h)
    monitor = CmacNetworkMonitor(env, net)
    monitor.attach()
    for _ in range(5):
        net.send_async(Message("a", "b", 4096))
    net.send_async(Message("c", "b", 1024))
    env.run()
    assert monitor.total_frames == 6
    assert monitor.flows[("a", "b")].frames == 5
    assert monitor.flows[("a", "b")].bytes == 5 * 4096
    top = monitor.top_talkers(1)
    assert top[0].src == "a"
    assert "a -> b" in monitor.report()
    # The mirror actually passed through the CMAC.
    assert monitor.cmac.frames_rx == 6


def test_cmac_monitor_observes_cluster_traffic():
    """Attach the monitor to a live cluster and watch real op flows."""
    from repro.driver import CmacNetworkMonitor
    from repro.osd import ClusterSpec, build_cluster

    env = Environment()
    cluster = build_cluster(env, ClusterSpec(num_server_hosts=2, osds_per_host=2))
    pool = cluster.create_replicated_pool("p", pg_num=16, size=2)
    client = cluster.new_client()
    monitor = CmacNetworkMonitor(env, cluster.network)
    monitor.attach()

    def io(env):
        for i in range(5):
            yield from client.write_replicated(pool, f"o{i}", b"x" * 4096, direct=True)

    env.process(io(env))
    env.run()
    assert monitor.total_frames > 0
    # Client-to-server flows dominate (writes carry the payload).
    assert any(s.src == "clienthost0" for s in monitor.top_talkers())


def test_cmac_monitor_attach_detach():
    from repro.driver import CmacNetworkMonitor
    from repro.errors import DriverError
    from repro.net import Message, Network

    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("b")
    monitor = CmacNetworkMonitor(env, net)
    with pytest.raises(DriverError):
        monitor.detach()
    monitor.attach()
    with pytest.raises(DriverError):
        monitor.attach()
    monitor.detach()
    net.send_async(Message("a", "b", 512))
    env.run()
    assert monitor.total_frames == 0  # detached: nothing observed
