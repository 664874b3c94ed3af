"""The always-on health layer: detector, flight recorder, cluster model,
SLO burn, Prometheus exposition, and the end-to-end smoke properties."""

import json
from types import SimpleNamespace

import pytest

from repro.bench.healthbench import health_smoke, run_health
from repro.cli import main
from repro.obs.critical_path import analyze
from repro.obs.export import (
    escape_label_value,
    prometheus_name,
    to_prometheus,
)
from repro.obs.flight import FlightRecorder, root_cause
from repro.obs.health import (
    HEALTH_ERR,
    HEALTH_OK,
    HEALTH_WARN,
    HealthConfig,
    HealthLayer,
    SloConfig,
    SloTracker,
)
from repro.obs.slowop import SlowOpConfig, SlowOpDetector
from repro.sim import Environment, MetricsRegistry
from repro.units import ms, us


# -- slow-op detector ------------------------------------------------------------


def test_detector_budget_flags_immediately():
    det = SlowOpDetector(SlowOpConfig(budget_ns={"write": us(100)}))
    assert det.observe("write", us(50), end_ns=0) is None
    rec = det.observe("write", us(200), end_ns=10)
    assert rec is not None
    assert rec.op_class == "write"
    assert rec.threshold_ns == us(100)
    assert det.flagged == 1


def test_detector_adaptive_threshold_arms_after_min_samples():
    det = SlowOpDetector(SlowOpConfig(p99_multiple=3.0, min_samples=10))
    # Cold class: no threshold, nothing can be flagged.
    assert det.threshold_ns("read") is None
    for _ in range(10):
        assert det.observe("read", us(100), end_ns=0) is None
    threshold = det.threshold_ns("read")
    assert threshold is not None and threshold >= us(100)
    assert det.observe("read", threshold + 1, end_ns=0) is not None


def test_detector_threshold_excludes_the_judged_sample():
    """The outlier must not raise the bar it is being judged against."""
    det = SlowOpDetector(SlowOpConfig(p99_multiple=3.0, min_samples=5))
    for _ in range(5):
        det.observe("w", us(10), end_ns=0)
    before = det.threshold_ns("w")
    rec = det.observe("w", ms(50), end_ns=0)
    assert rec is not None and rec.threshold_ns == before


def test_detector_bounds_and_summary():
    det = SlowOpDetector(SlowOpConfig(budget_ns={"w": 10}, max_records=4))
    for i in range(10):
        det.observe("w", 100 + i, end_ns=i)
    assert det.flagged == 10
    assert len(det.records) == 4  # oldest dropped
    assert [r.seq for r in det.records] == [7, 8, 9, 10]
    summary = det.class_summary()
    assert summary["w"]["count"] == 10
    assert summary["w"]["threshold_ns"] >= 10


def test_detector_config_validation():
    with pytest.raises(ValueError):
        SlowOpConfig(p99_multiple=1.0)
    with pytest.raises(ValueError):
        SlowOpConfig(min_samples=0)


# -- flight recorder -------------------------------------------------------------


def _make_tree():
    """Hand-built slow write: 800 ns osd.3 rpc + 100 ns backoff inside
    fabric, 100 ns root self-time; total 1000 ns."""
    from repro.obs.context import CausalTracer

    tracer = CausalTracer(Environment())
    root = tracer.start_root("write")
    fabric = root.child("fabric", "stage", start_ns=0)
    fabric.record("osd.3", "rpc", 0, 800, attempt=2)
    fabric.record("backoff", "wait", 800, 900, attempt=2)
    fabric.finish(900)
    root.finish(1000)
    return root


def test_flight_ring_is_bounded():
    rec = FlightRecorder(capacity=4)
    for _ in range(10):
        rec.retain(_make_tree())
    assert len(rec.ring) == 4
    assert rec.retained == 10


def test_flight_promote_without_tree_counts_missed():
    from repro.obs.slowop import SlowOpRecord

    rec = FlightRecorder()
    record = SlowOpRecord(1, "w", "client", "", 1000, 500, 0)
    assert rec.promote(record, None) is None
    assert rec.missed == 1 and rec.promoted == 0


def test_flight_dump_bound_keeps_newest():
    from repro.obs.slowop import SlowOpRecord

    rec = FlightRecorder(max_dumps=2)
    for i in range(5):
        record = SlowOpRecord(i + 1, "w", "client", "", 1000, 500, 0)
        rec.promote(record, _make_tree())
    assert rec.promoted == 5
    assert [d.record.seq for d in rec.dumps] == [4, 5]


def test_root_cause_matches_independent_analysis():
    root = _make_tree()
    cause = root_cause(root)
    path = analyze(root)
    # Ground truth: the report's partition is exactly the analyzer's.
    assert cause.exact
    assert cause.total_ns == path.total_ns == 1000
    assert cause.by_stage == path.by_stage()
    expected_gating = max(sorted(path.by_stage()), key=lambda s: path.by_stage()[s])
    assert cause.gating_stage == expected_gating == "fabric"
    assert cause.gating_stack == ("write", "fabric", "osd.3")
    assert cause.gating_span_ns == 800
    assert cause.attempts == 2
    assert cause.backoff_share == pytest.approx(0.1)
    text = cause.render()
    assert "gated 90.0% by write/fabric/osd.3" in text
    assert "attempt=2" in text and "backoff 10.0%" in text


# -- SLO burn tracking -----------------------------------------------------------


def test_slo_burn_rate_latency_and_availability():
    cfg = SloConfig(latency_target_ns=us(100), latency_objective=0.9,
                    availability_objective=0.99, fast_window_ns=us(10),
                    slow_window_ns=us(100))
    tracker = SloTracker(cfg)
    # 10 ops, 5 over target -> bad fraction 0.5, budget 0.1 -> burn 5.
    for i in range(10):
        tracker.observe("t", us(50) if i < 5 else us(500), ok=True, now_ns=us(5))
    assert tracker.burn_rate("t", us(10), us(5)) == pytest.approx(5.0, rel=0.1)
    # Errors burn availability budget: 1/10 errors vs 0.01 budget -> 10.
    tracker2 = SloTracker(cfg)
    for i in range(10):
        tracker2.observe("t", us(10), ok=(i != 0), now_ns=us(5))
    assert tracker2.burn_rate("t", us(10), us(5)) == pytest.approx(10.0, rel=0.01)


def test_slo_window_eviction_and_merge():
    cfg = SloConfig(latency_target_ns=us(100), fast_window_ns=us(10),
                    slow_window_ns=us(30))
    tracker = SloTracker(cfg)
    for t_us in (5, 15, 25, 105):
        tracker.observe("t", us(50), ok=True, now_ns=us(t_us))
    # Old buckets retired: only the recent window's sample remains.
    digest, total, errors = tracker.window("t", cfg.slow_window_ns, us(110))
    assert total == 1 and errors == 0
    assert digest.count == 1


def test_slo_config_validation():
    with pytest.raises(ValueError):
        SloConfig(latency_objective=1.0)
    with pytest.raises(ValueError):
        SloConfig(fast_window_ns=us(50), slow_window_ns=us(10))


# -- cluster health model --------------------------------------------------------


def _stub_cluster(pg_states=(), queue_depths=(), wal_depths=(), down=()):
    daemons = {}
    for i, depth in enumerate(queue_depths):
        wal_depth = wal_depths[i] if i < len(wal_depths) else None
        daemons[i] = SimpleNamespace(
            cpu=SimpleNamespace(queue_len=depth),
            wal=None if wal_depth is None else SimpleNamespace(log_depth=wal_depth),
        )
    osds = {
        i: SimpleNamespace(up=i not in down)
        for i in range(max(len(queue_depths), 1))
    }
    pgs = {
        i: SimpleNamespace(state=SimpleNamespace(value=state))
        for i, state in enumerate(pg_states)
    }
    return SimpleNamespace(
        daemons=daemons,
        osdmap=SimpleNamespace(osds=osds),
        recovery=SimpleNamespace(pgs=pgs) if pgs else None,
        qos=None,
    )


def test_health_checks_pg_osd_wal():
    env = Environment()
    layer = HealthLayer(env, HealthConfig(osd_queue_warn=4, wal_backlog_warn=8))
    layer.cluster = _stub_cluster(
        pg_states=("active", "degraded", "backfilling", "incomplete"),
        queue_depths=(0, 6),
        wal_depths=(None, 20),
        down=(1,),
    )
    checks = {c.code: c for c in layer.evaluate(0)}
    assert checks["PG_INCOMPLETE"].severity == HEALTH_ERR
    assert checks["PG_DEGRADED"].count == 2
    assert checks["OSD_DOWN"].detail == ["osd.1"]
    assert checks["OSD_QUEUE_BACKLOG"].count == 1
    assert checks["WAL_BACKLOG"].detail == ["osd.1: 20 un-trimmed records"]
    layer.checks = checks
    assert layer.status() == HEALTH_ERR


def test_health_ok_when_sources_clean():
    env = Environment()
    layer = HealthLayer(env)
    layer.cluster = _stub_cluster(pg_states=("active", "recovered"), queue_depths=(0, 0))
    assert layer.evaluate(0) == []
    assert layer.poll() == 0.0
    assert layer.status() == HEALTH_OK


def test_health_slo_check_severity_split():
    env = Environment()
    slo = SloConfig(latency_target_ns=us(10), latency_objective=0.99,
                    fast_window_ns=us(10), slow_window_ns=us(100),
                    fast_burn_warn=2.0, slow_burn_warn=2.0)
    layer = HealthLayer(env, HealthConfig(slo=slo))
    # Everything over target in both windows -> fast AND slow hot -> ERR.
    for i in range(20):
        layer.slo.observe("t", us(100), ok=True, now_ns=us(5 * i))
    checks = {c.code: c for c in layer.evaluate(us(99))}
    assert checks["SLO_BURN:t"].severity == HEALTH_ERR


def test_health_qos_floor_and_ceiling():
    env = Environment()
    layer = HealthLayer(env)
    slo_cfg = layer.slo.config_for("hungry")
    layer.cluster = SimpleNamespace(
        daemons={},
        osdmap=SimpleNamespace(osds={}),
        recovery=None,
        qos=SimpleNamespace(config=SimpleNamespace(tenants={
            "starved": SimpleNamespace(reservation_iops=1e9, limit_iops=None),
            "hungry": SimpleNamespace(reservation_iops=0.0, limit_iops=1.0),
        })),
    )
    now = slo_cfg.slow_window_ns
    # One op for the starved tenant (way under its floor), many for the
    # capped one (way over 1 iops).
    layer.slo.observe("starved", us(10), ok=True, now_ns=now - 1)
    for i in range(50):
        layer.slo.observe("hungry", us(10), ok=True, now_ns=now - 1)
    checks = {c.code: c for c in layer.evaluate(now)}
    assert checks["QOS_FLOOR_MISS"].count == 1
    assert "starved" in checks["QOS_FLOOR_MISS"].detail[0]
    assert checks["QOS_LIMIT_EXCEEDED"].count == 1
    assert "hungry" in checks["QOS_LIMIT_EXCEEDED"].detail[0]


def test_health_cache_dirty_check():
    env = Environment()
    layer = HealthLayer(env, HealthConfig(cache_dirty_warn=0.5))
    layer.cache = SimpleNamespace(store=SimpleNamespace(dirty_count=6, capacity_lines=10))
    checks = {c.code: c for c in layer.evaluate(0)}
    assert checks["CACHE_DIRTY"].severity == HEALTH_WARN


def test_health_metrics_registered():
    env = Environment()
    registry = MetricsRegistry()
    layer = HealthLayer(env, metrics=registry)
    layer.observe_client("write", "", us(100), True, None)
    layer.poll()
    assert registry.get("health.client_ops").value == 1
    assert registry.get("health.status_level").value == 0.0


# -- Prometheus exposition (satellite 2) ----------------------------------------


def test_prometheus_name_sanitization():
    assert prometheus_name("qos.limit_waits") == "repro_qos_limit_waits"
    assert prometheus_name("osd.3.op_latency") == "repro_osd_3_op_latency"
    assert prometheus_name("a-b c@d") == "repro_a_b_c_d"
    # Leading digit survives via the prefix; no prefix gets the guard.
    assert prometheus_name("3col") == "repro_3col"
    assert prometheus_name("3col", prefix="") == "_3col"


def test_prometheus_label_escaping():
    assert escape_label_value('a"b') == 'a\\"b'
    assert escape_label_value("a\\b") == "a\\\\b"
    assert escape_label_value("a\nb") == "a\\nb"


def test_prometheus_page_preserves_original_names():
    registry = MetricsRegistry()
    registry.counter("osd.3.ops").add(7)
    registry.gauge("cache.hit_ratio").set(0.5)
    registry.latency("osd.3.op_latency").record(us(120))
    page = to_prometheus(registry)
    assert 'repro_osd_3_ops{metric="osd.3.ops"} 7' in page
    assert 'repro_cache_hit_ratio{metric="cache.hit_ratio"} 0.5' in page
    assert 'repro_osd_3_op_latency_count{metric="osd.3.op_latency"} 1' in page
    assert 'quantile="0.99"' in page
    # Deterministic: two renders are byte-identical.
    assert page == to_prometheus(registry)


# -- end-to-end: neutrality, detection, determinism ------------------------------


@pytest.fixture(scope="module")
def chaos_report():
    return run_health("chaos", nrequests=30, seed=0)


def test_clean_run_is_neutral_and_healthy():
    with_health = run_health("randwrite", nrequests=20, seed=0)
    without = run_health("randwrite", nrequests=20, seed=0, attach_health=False)
    assert with_health.latencies_ns == without.latencies_ns
    assert with_health.health.status == HEALTH_OK
    assert with_health.health.flight["promoted"] == 0
    assert with_health.health.flight["missed"] == 0
    assert with_health.health.flight["retained"] == 20
    assert with_health.health.polls == with_health.samples_taken


def test_chaos_flags_slow_ops_with_correct_gating_layer(chaos_report):
    dumps = chaos_report.health.slow_ops
    assert dumps, "chaos run must flag at least one slow op"
    for dump in dumps:
        # Ground truth: recompute the critical path independently and
        # check the auto report attributed the same gating layer.
        path = analyze(dump.root)
        by_stage = path.by_stage()
        expected = max(sorted(by_stage), key=lambda s: by_stage[s])
        assert dump.cause.exact
        assert dump.cause.gating_stage == expected
        assert dump.cause.total_ns == dump.root.duration_ns
        # Chaos slowness comes from fabric retries: the report must say
        # so, with the retry leg visible.
        assert dump.cause.gating_stage == "fabric"
        assert dump.cause.gating_stack[1] == "fabric"
        assert dump.record.latency_ns > dump.record.threshold_ns


def test_chaos_report_deterministic(chaos_report):
    rerun = run_health("chaos", nrequests=30, seed=0)
    assert chaos_report.digest() == rerun.digest()
    assert chaos_report.to_json() == rerun.to_json()


def test_report_json_roundtrip(chaos_report):
    doc = json.loads(chaos_report.to_json(include_trees=True))
    assert doc["health"]["status"] in (HEALTH_OK, HEALTH_WARN, HEALTH_ERR)
    assert doc["health"]["slow_ops"]
    first = doc["health"]["slow_ops"][0]
    assert first["cause"]["gating_stage"]
    assert first["tree"]["end_ns"] >= first["tree"]["start_ns"]
    assert doc["health"]["op_classes"]


def test_health_smoke_passes(tmp_path):
    report_path = tmp_path / "health.json"
    code, text = health_smoke(nrequests=30, report_path=str(report_path))
    assert code == 0, text
    assert "HEALTH SMOKE PASS" in text
    assert json.loads(report_path.read_text())["health"]["slow_ops"]


def test_cli_health_report(tmp_path, capsys):
    report_path = tmp_path / "health.json"
    code = main([
        "health", "chaos", "--nrequests", "30", "--report", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "cluster health:" in out
    assert "gated" in out
    doc = json.loads(report_path.read_text())
    assert doc["scenario"] == "chaos"
