"""Tests for the metrics registry and its wiring through the stack."""

import pytest

from repro.deliba import DELIBAK, FRAMEWORKS, build_framework
from repro.osd import ClusterSpec, build_cluster
from repro.sim import (
    NULL_METRICS,
    Counter,
    Distribution,
    Environment,
    Gauge,
    LatencyRecorder,
    MetricsError,
    MetricsRegistry,
    NullMetricsRegistry,
    ThroughputMeter,
    TimeSeries,
)
from repro.units import kib
from repro.workloads import FioJob


# --- registry unit tests ------------------------------------------------------


def test_registry_get_or_create():
    reg = MetricsRegistry()
    c = reg.counter("blk.bios")
    c.add(3)
    assert reg.counter("blk.bios") is c
    assert reg.counter("blk.bios").value == 3


def test_registry_all_instrument_types():
    reg = MetricsRegistry()
    assert isinstance(reg.counter("a.c"), Counter)
    assert isinstance(reg.gauge("a.g"), Gauge)
    assert isinstance(reg.distribution("a.d"), Distribution)
    assert isinstance(reg.latency("a.l"), LatencyRecorder)
    assert isinstance(reg.meter("a.m"), ThroughputMeter)
    assert isinstance(reg.timeseries("a.t"), TimeSeries)
    assert len(reg) == 6


def test_registry_type_conflict_rejected():
    reg = MetricsRegistry()
    reg.counter("x.y")
    with pytest.raises(MetricsError):
        reg.gauge("x.y")


def test_registry_invalid_names_rejected():
    reg = MetricsRegistry()
    for bad in ("", ".leading", "trailing."):
        with pytest.raises(MetricsError):
            reg.counter(bad)


def test_registry_lookup_and_prefix():
    reg = MetricsRegistry()
    reg.counter("blk.hwq0.dispatched")
    reg.counter("blk.hwq1.dispatched")
    reg.counter("net.messages")
    assert "blk.hwq0.dispatched" in reg
    assert reg.names("blk.") == ["blk.hwq0.dispatched", "blk.hwq1.dispatched"]
    assert list(reg.collect("net.")) == ["net.messages"]
    with pytest.raises(MetricsError):
        reg.get("nope")


def test_empty_registry_is_truthy():
    # ``build_framework`` tests its ``metrics`` argument for truth; an
    # empty caller-supplied registry must not read as "metrics off".
    assert bool(MetricsRegistry())
    assert bool(NullMetricsRegistry())


def test_registry_snapshot_flattens():
    reg = MetricsRegistry()
    reg.counter("c").add(2)
    reg.gauge("g").set(1.5)
    reg.distribution("d").record(4)
    reg.latency("l").record(2_000)
    m = reg.meter("m")
    m.start(0)
    m.record(kib(4), 1_000)
    reg.timeseries("t").record(0, 2.0)
    snap = reg.snapshot(end_ns=10)
    assert snap["c"] == 2
    assert snap["g"] == 1.5
    assert snap["d"]["mean"] == pytest.approx(4.0)
    assert snap["l"]["mean_us"] == pytest.approx(2.0)
    assert snap["m"]["ops"] == 1
    assert snap["t"]["time_weighted_mean"] == pytest.approx(2.0)


def test_registry_render():
    reg = MetricsRegistry()
    reg.counter("blk.bios").add(5)
    out = reg.render()
    assert "blk.bios" in out and "5" in out
    assert MetricsRegistry().render() == "(no metrics registered)"


# --- null registry ------------------------------------------------------------


def test_null_registry_shares_noop_instruments():
    assert NULL_METRICS.counter("a") is NULL_METRICS.counter("b")
    c = NULL_METRICS.counter("a")
    c.add(10)
    assert c.value == 0
    m = NULL_METRICS.meter("m")
    m.start(5)
    m.record(kib(4), 10)
    assert m.ops == 0 and m.start_ns is None
    ts = NULL_METRICS.timeseries("t")
    ts.record(0, 1.0)
    assert ts.times == []
    assert len(NULL_METRICS) == 0


# --- framework wiring ---------------------------------------------------------


def _run_job(metrics):
    fw = build_framework(DELIBAK, metrics=metrics)
    job = FioJob("m", "randwrite", bs=kib(4), iodepth=2, nrequests=20)
    proc = fw.env.process(fw.run_fio(job))
    fw.env.run()
    assert proc.ok
    return fw, proc.value


def test_framework_registers_layer_metrics():
    fw, _ = _run_job(metrics=True)
    reg = fw.metrics
    for name in (
        "blk.hwq0.depth",
        "blk.bios_submitted",
        "uring.sqe_batch_size",
        "uring.sqes_submitted",
        "driver.uifd.requests",
        "fpga.qdma.h2c_bytes",
        "net.messages",
        "osd.0.op_latency",
        "api.io_uring.throughput",
        "framework.m.throughput",
    ):
        assert name in reg, f"{name} missing"
    assert reg.counter("blk.bios_submitted").value == 20
    assert reg.counter("uring.sqes_submitted").value == 20
    assert reg.counter("net.messages").value > 0
    osd_ops = sum(reg.counter(n).value for n in reg.names("osd.") if n.endswith(".ops"))
    assert osd_ops == fw.cluster.total_ops_served()


def test_framework_throughput_meter_windows():
    fw, result = _run_job(metrics=True)
    meter = fw.metrics.meter("framework.m.throughput")
    assert meter.ops == 1  # one job-level record of the merged result
    assert meter.bytes == result.bytes_moved
    eng = fw.metrics.meter("api.io_uring.throughput")
    assert eng.ops == result.ios
    # Window opens at submission start, so the engine rate matches the
    # RunResult's own accounting.
    assert eng.mb_per_sec() == pytest.approx(result.throughput_mb_s(), rel=1e-6)


def test_framework_queue_depth_summary():
    fw, _ = _run_job(metrics=True)
    depth = fw.blk.queue_depth_summary(fw.env.now)
    assert depth and all(v >= 0.0 for v in depth.values())
    # Disabled framework: the null time series never records.
    fw_off, _ = _run_job(metrics=False)
    assert fw_off.blk.queue_depth_summary(fw_off.env.now) == {}


def test_metrics_disabled_results_bit_identical():
    _, on = _run_job(metrics=True)
    _, off = _run_job(metrics=False)
    assert on.latencies_ns == off.latencies_ns
    assert on.bytes_moved == off.bytes_moved
    assert on.started_at == off.started_at
    assert on.finished_at == off.finished_at


@pytest.mark.parametrize("name", sorted(FRAMEWORKS))
def test_every_framework_counts_its_driver_requests(name):
    """Every stack's driver records into the run's registry.  The NBD
    driver (D1, D2, D2-sw) and the stock rbd driver (software Ceph) used
    to be built without it and registered no ``driver.*`` metric."""
    fw = build_framework(FRAMEWORKS[name], metrics=True)
    job = FioJob("d", "randwrite", bs=kib(4), iodepth=2, nrequests=8)
    proc = fw.env.process(fw.run_fio(job))
    fw.env.run()
    assert proc.ok
    assert fw.metrics.counter(f"driver.{fw.driver.name}.requests").value == proc.value.ios == 8


def test_layers_built_without_a_registry_record_into_env_metrics():
    """No layer takes a registry argument: a cluster built on an env whose
    ``env.metrics`` is a registry records its network, client and OSD
    instruments there."""
    env = Environment()
    env.metrics = reg = MetricsRegistry()
    cluster = build_cluster(env, ClusterSpec(num_server_hosts=2, osds_per_host=2))
    pool = cluster.create_replicated_pool("p", pg_num=8, size=2)
    client = cluster.new_client()
    env.process(client.write_replicated(pool, "obj", b"x" * kib(4), direct=True))
    env.run()
    assert reg.counter("net.messages").value > 0
    assert reg.counter("client.placement_cache.misses").value == 1
    osd_ops = sum(reg.counter(n).value for n in reg.names("osd.") if n.endswith(".ops"))
    assert osd_ops == cluster.total_ops_served() == 2


def test_shared_registry_across_frameworks():
    reg = MetricsRegistry()
    fw = build_framework(DELIBAK, metrics=reg)
    assert fw.metrics is reg
    assert "net.messages" in reg
