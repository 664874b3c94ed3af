"""Unit tests for RNG streams and measurement monitors."""

import numpy as np
import pytest

from repro.sim import Counter, LatencyRecorder, RngRegistry, ThroughputMeter, TimeSeries
from repro.units import MB, SEC


def test_rng_streams_reproducible():
    a = RngRegistry(42).stream("osd.0")
    b = RngRegistry(42).stream("osd.0")
    assert [a.randint(0, 1000) for _ in range(10)] == [b.randint(0, 1000) for _ in range(10)]
    assert a.np.integers(0, 1 << 30, 5).tolist() == b.np.integers(0, 1 << 30, 5).tolist()


def test_rng_streams_independent_by_name():
    reg = RngRegistry(42)
    a = reg.stream("osd.0")
    b = reg.stream("osd.1")
    assert [a.randint(0, 10**9) for _ in range(5)] != [b.randint(0, 10**9) for _ in range(5)]


def test_rng_stream_cached():
    reg = RngRegistry(1)
    assert reg.stream("x") is reg.stream("x")


def test_rng_master_seed_changes_draws():
    a = RngRegistry(1).stream("s")
    b = RngRegistry(2).stream("s")
    assert [a.randint(0, 10**9) for _ in range(5)] != [b.randint(0, 10**9) for _ in range(5)]


def test_lognormal_ns_mean_close():
    s = RngRegistry(7).stream("svc")
    samples = [s.lognormal_ns(10_000, sigma=0.1) for _ in range(4000)]
    assert abs(np.mean(samples) - 10_000) / 10_000 < 0.05
    assert min(samples) >= 1


def test_lognormal_ns_memoized_mu_keeps_every_draw():
    a = RngRegistry(3).stream("svc")
    b = RngRegistry(3).stream("svc")
    for mean, sigma in [(10_000, 0.1), (250.5, 0.3), (10_000, 0.1), (7, 0.05)] * 3:
        mu = float(np.log(mean)) - 0.5 * sigma * sigma
        assert a.lognormal_ns(mean, sigma) == max(1, int(round(b.py.lognormvariate(mu, sigma))))


def test_lognormal_ns_zero_mean():
    s = RngRegistry(7).stream("svc")
    assert s.lognormal_ns(0) == 0


def test_counter():
    c = Counter("ops")
    c.add()
    c.add(4)
    assert c.value == 5


def test_latency_recorder_stats():
    rec = LatencyRecorder("lat")
    for v in [1000, 2000, 3000, 4000]:
        rec.record(v)
    assert rec.count == 4
    assert rec.mean_us() == pytest.approx(2.5)
    assert rec.min_us() == pytest.approx(1.0)
    assert rec.max_us() == pytest.approx(4.0)
    assert rec.percentile_us(50) == pytest.approx(2.5)


def test_latency_recorder_empty():
    rec = LatencyRecorder()
    assert rec.mean_us() == 0.0
    assert rec.percentile_us(99) == 0.0


def test_throughput_meter():
    m = ThroughputMeter("tp")
    m.start(0)
    for i in range(1, 11):
        m.record(4096, i * SEC // 10)
    assert m.ops == 10
    assert m.bytes == 40960
    assert m.mb_per_sec() == pytest.approx(40960 / MB, rel=1e-6)
    assert m.kiops() == pytest.approx(0.01, rel=1e-6)


def test_throughput_meter_explicit_window():
    m = ThroughputMeter()
    m.record(MB, 0)
    m.record(MB, 1)
    assert m.mb_per_sec(elapsed_ns=SEC) == pytest.approx(2.0)


def test_throughput_meter_empty():
    m = ThroughputMeter()
    assert m.mb_per_sec() == 0.0
    assert m.kiops() == 0.0


def test_time_series_weighted_mean():
    ts = TimeSeries("qd")
    ts.record(0, 0.0)
    ts.record(10, 10.0)  # value 0 held for 10
    ts.record(20, 0.0)  # value 10 held for 10
    assert ts.time_weighted_mean() == pytest.approx(5.0)


def test_time_series_single_sample():
    ts = TimeSeries()
    ts.record(5, 3.0)
    assert ts.time_weighted_mean() == 3.0


def test_throughput_meter_window_opens_at_submission():
    # Regression: the window must not open lazily at the first completion.
    # One op submitted at t=0 completing at t=1s is 1 op/s, not "0 ns of
    # window" (old behavior: start_ns set by record(), elapsed 0, rates
    # degenerate; with 2 ops the first op's service time vanished,
    # inflating MB/s and KIOPS at low op counts).
    m = ThroughputMeter()
    m.start(0)
    m.record(MB, SEC)
    assert m.elapsed_ns == SEC
    assert m.mb_per_sec() == pytest.approx(1.0)
    assert m.kiops() == pytest.approx(1e-3)


def test_throughput_meter_small_n_not_inflated():
    m = ThroughputMeter()
    m.start(0)
    m.record(MB, SEC)       # first op: 1 s of service time
    m.record(MB, 2 * SEC)   # second op, 1 s later
    # Lazy-start would measure 2 MB over 1 s = 2 MB/s; the true rate
    # over the submission window is 1 MB/s.
    assert m.mb_per_sec() == pytest.approx(1.0)


def test_throughput_meter_record_without_start_has_no_window():
    m = ThroughputMeter()
    m.record(MB, SEC)
    assert m.start_ns is None
    assert m.elapsed_ns == 0
    assert m.mb_per_sec() == 0.0
    assert m.kiops() == 0.0
    # Totals still accumulate for explicit-duration reporting.
    assert m.ops == 1 and m.bytes == MB


def test_time_series_weighted_mean_with_end():
    ts = TimeSeries("qd")
    ts.record(0, 4.0)
    ts.record(10, 0.0)
    # Without end_ns the final sample has zero weight.
    assert ts.time_weighted_mean() == pytest.approx(4.0)
    # Holding the last value until t=20 halves the mean.
    assert ts.time_weighted_mean(end_ns=20) == pytest.approx(2.0)
    # end_ns before the last sample changes nothing.
    assert ts.time_weighted_mean(end_ns=5) == pytest.approx(4.0)


def test_time_series_single_sample_with_end():
    ts = TimeSeries()
    ts.record(5, 3.0)
    assert ts.time_weighted_mean(end_ns=25) == pytest.approx(3.0)
