"""ResourceSampler edge cases: mid-interval run ends, empty runs, and
the client NIC probes of a framework."""

import pytest

from repro.cache import CacheConfig, CacheMode
from repro.deliba import FRAMEWORKS, build_framework
from repro.obs.sampler import ResourceSampler, install_framework_probes, telemetry_summary
from repro.sim import Environment, MetricsRegistry
from repro.units import kib, us
from repro.workloads import FioJob


def _busy(env, duration_ns):
    yield env.timeout(duration_ns)


def test_run_ending_mid_interval_still_samples_the_tail():
    """A run whose last event lands between grid points must still get a
    final sample at (or after) that event — the clock stops where the
    heap drains, not at the next grid multiple."""
    env = Environment()
    registry = MetricsRegistry()
    sampler = ResourceSampler(env, registry, interval_ns=us(10))
    ticks = []
    sampler.add_gauge("obs.t", lambda: ticks.append(env.now) or float(len(ticks)))
    env.process(_busy(env, us(25)))  # ends at 25 us: mid third interval
    sampler.drive()
    assert env.peek() is None
    # Samples at 0, 10, 20 us on the grid, plus the post-drain read.
    assert sampler.samples_taken == 4
    assert ticks[:3] == [0, us(10), us(20)]
    assert ticks[-1] >= us(25)
    series = registry.get("obs.t")
    assert list(series.times) == ticks


def test_zero_event_run_takes_exactly_one_sample():
    """No events at all: drive() must not spin — one sample at t=0."""
    env = Environment()
    registry = MetricsRegistry()
    sampler = ResourceSampler(env, registry, interval_ns=us(10))
    sampler.add_gauge("obs.idle", lambda: 0.0)
    sampler.drive()
    assert env.now == 0
    assert sampler.samples_taken == 1
    assert list(registry.get("obs.idle").times) == [0]


def test_zero_request_workload_yields_empty_but_valid_series():
    """Probes over a run with no I/O record flat series, and rate probes
    (which need two samples for a delta) stay well-formed."""
    env = Environment()
    registry = MetricsRegistry()
    sampler = ResourceSampler(env, registry, interval_ns=us(10))
    counter = {"v": 0}
    sampler.add_rate("obs.rate", lambda: counter["v"])
    env.process(_busy(env, us(30)))
    sampler.drive()
    series = registry.get("obs.rate")
    # First sample has no previous value -> one fewer rate point than
    # samples; all zeros since the counter never moved.
    assert len(series.times) == sampler.samples_taken - 1
    assert all(v == 0.0 for v in series.values)
    assert series.time_weighted_mean(env.now) == 0.0


@pytest.mark.parametrize("cache", [None, CacheMode.WRITE_BACK], ids=["nocache", "wb"])
@pytest.mark.parametrize("framework", ["delibak", "deliba2", "software-ceph"])
def test_framework_probes_include_client_nic(framework, cache):
    """The client entity (``client0``) lives on host ``clienthost0``: the
    probes must resolve the host through the fabric, not by entity name."""
    fw = build_framework(
        FRAMEWORKS[framework], metrics=True,
        cache=CacheConfig(mode=cache) if cache else None,
    )
    sampler = ResourceSampler(fw.env, fw.metrics)
    names = install_framework_probes(sampler, fw)
    assert {"obs.net.client.up_util", "obs.net.client.down_util"} <= set(names)


def test_client_nic_utilization_is_a_fraction_of_line_rate():
    """Link bandwidth is in bytes/s: a busy write stream keeps the client
    uplink's mean utilization within the line rate (8x over it when the
    scale treated bytes/s as bits/s)."""
    fw = build_framework(FRAMEWORKS["delibak"], metrics=True)
    sampler = ResourceSampler(fw.env, fw.metrics)
    install_framework_probes(sampler, fw)
    job = FioJob("nic", "randwrite", bs=kib(16), iodepth=4, nrequests=40)
    proc = fw.env.process(fw.run_fio(job))
    sampler.drive()
    assert proc.ok
    up = telemetry_summary(fw.metrics, fw.env.now)["obs.net.client.up_util"]
    assert 0.1 < up["mean"] <= 1.0
