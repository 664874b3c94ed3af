"""``tools/work_counts.py``: the work-count, host-time and RSS gate of the perf smoke.

The gate itself runs in CI after ``benchmarks/perf/run.py --smoke
--trace 1``; these tests check that the recorded counts and host values
(times and peak RSS) cover every workload and count metric the benchmark
declares, that the comparison reports each kind of difference and each
host value past its bound, and that ``--update`` records both from one
record.
"""

import copy
import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "work_counts.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("work_counts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


work_counts = _load_tool()


def _golden():
    return json.loads(work_counts.GOLDEN.read_text())


def test_golden_covers_every_workload_and_count_metric():
    spec = json.loads(work_counts.SPEC.read_text())
    golden = _golden()
    assert golden["run"] == {"seed": 0, "smoke": True}
    assert sorted(golden["workloads"]) == sorted(w["name"] for w in spec["workloads"])
    names = work_counts.count_metrics()
    assert "sim.events" in names and "sim.processes" in names
    for counts in golden["workloads"].values():
        assert sorted(counts) == sorted(names)


def test_compare_reports_every_difference():
    golden = _golden()
    assert work_counts.compare(golden, copy.deepcopy(golden)) == []
    got = copy.deepcopy(golden)
    got["workloads"]["ec-randwrite-4k"]["sim.events"] += 1
    del got["workloads"]["paper-grid"]
    problems = work_counts.compare(golden, got)
    assert len(problems) == 2
    assert problems[0].startswith("ec-randwrite-4k sim.events: recorded ")
    assert problems[1] == "paper-grid: not in the record"
    got = copy.deepcopy(golden)
    got["run"]["seed"] = 1
    assert len(work_counts.compare(golden, got)) == 1


def test_counts_read_a_traced_record(tmp_path):
    names = work_counts.count_metrics()
    layers = {name: 7 for name in names}
    record = {"args": {"seed": 0, "smoke": True, "trace": 1},
              "results": {"w": {"per_layer": dict(layers, **{"sim.self_ms": 1.5})}}}
    path = tmp_path / "20260101T000000-seed0.json"
    path.write_text(json.dumps(record))
    (tmp_path / "trace-w.json").write_text("{}")
    assert work_counts.find_record(tmp_path) == path
    got = work_counts.counts(json.loads(path.read_text()), names)
    assert got == {"run": {"seed": 0, "smoke": True}, "workloads": {"w": layers}}


def _with_host(golden, workload, name, value):
    got = copy.deepcopy(golden)
    got["host"][workload][name] = value
    return got


def test_golden_records_host_times_for_every_workload():
    golden = _golden()
    assert sorted(golden["host"]) == sorted(golden["workloads"])
    for times in golden["host"].values():
        assert sorted(times) == sorted(work_counts.HOST_METRICS)
        assert all(value > 0 for value in times.values())


def test_host_time_past_its_bound_fails_naming_workload_and_metric():
    golden = _golden()
    floor = golden["host"]["rep-randrw-4k"]["ios_per_host_s"] / 3
    [line] = work_counts.compare(
        golden, _with_host(golden, "rep-randrw-4k", "ios_per_host_s", floor * 0.999))
    assert line.startswith("rep-randrw-4k ios_per_host_s: ") and "under the floor" in line
    ceiling = golden["host"]["paper-grid"]["setup_s"] * 3
    [line] = work_counts.compare(
        golden, _with_host(golden, "paper-grid", "setup_s", ceiling * 1.001))
    assert line.startswith("paper-grid setup_s: ") and "over the ceiling" in line


def test_host_time_exactly_at_its_bound_passes():
    golden = _golden()
    got = copy.deepcopy(golden)
    for times in got["host"].values():
        times["ios_per_host_s"] /= 3
        times["setup_s"] *= 3
    assert work_counts.compare(golden, got) == []


def test_workload_with_no_recorded_host_time_fails():
    golden = _golden()
    want = copy.deepcopy(golden)
    del want["host"]["ec-randwrite-4k"]
    assert work_counts.compare(want, golden) == [
        f"ec-randwrite-4k {name}: no recorded value (run with --update)"
        for name in work_counts.HOST_METRICS
    ]


def test_peak_rss_over_its_bound_fails_naming_workload_and_metric():
    golden = _golden()
    ceiling = golden["host"]["recover-kill-revive"]["peak_rss_mb"] * 1.5
    [line] = work_counts.compare(
        golden, _with_host(golden, "recover-kill-revive", "peak_rss_mb", ceiling * 1.001))
    assert line.startswith("recover-kill-revive peak_rss_mb: ") and "over the ceiling" in line
    assert line.endswith(" x 1.5)")


def test_peak_rss_exactly_at_its_bound_passes():
    golden = _golden()
    got = copy.deepcopy(golden)
    for values in got["host"].values():
        values["peak_rss_mb"] *= 1.5
    assert work_counts.compare(golden, got) == []


def test_missing_recorded_peak_rss_fails():
    golden = _golden()
    want = copy.deepcopy(golden)
    del want["host"]["recover-kill-revive"]["peak_rss_mb"]
    assert work_counts.compare(want, golden) == [
        "recover-kill-revive peak_rss_mb: no recorded value (run with --update)"
    ]


def test_golden_peak_rss_fails_the_dense_recovery_reading():
    """The recorded bound rejects the 77.4 MB that a smoke
    ``recover-kill-revive`` read when recovery shipped dense copies."""
    golden = _golden()
    [line] = work_counts.compare(
        golden, _with_host(golden, "recover-kill-revive", "peak_rss_mb", 77.4))
    assert line.startswith("recover-kill-revive peak_rss_mb: 77.4, over the ceiling")


def _write_record(directory, ios_per_host_s, setup_s, peak_rss_mb=40.0):
    names = work_counts.count_metrics()
    e2e = {"ios_per_host_s": {"value": ios_per_host_s}, "setup_s": {"value": setup_s},
           "peak_rss_mb": {"value": peak_rss_mb}}
    record = {"args": {"seed": 0, "smoke": True, "trace": 1},
              "results": {"w": {"per_layer": {name: 7 for name in names}, "e2e": e2e}}}
    path = directory / "20260101T000000-seed0.json"
    path.write_text(json.dumps(record))
    return path


def test_update_records_counts_and_host_times_from_one_record(tmp_path, monkeypatch):
    golden = tmp_path / "work_counts.json"
    monkeypatch.setattr(work_counts, "GOLDEN", golden)
    path = _write_record(tmp_path, 1500.0, 0.25)
    assert work_counts.main(["--update", str(tmp_path)]) == 0
    assert json.loads(golden.read_text()) == {
        "run": {"seed": 0, "smoke": True},
        "workloads": {"w": {name: 7 for name in work_counts.count_metrics()}},
        "host": {"w": {"ios_per_host_s": 1500.0, "setup_s": 0.25, "peak_rss_mb": 40.0}},
    }
    assert work_counts.main([str(path)]) == 0
    _write_record(tmp_path, 499.0, 0.25)
    assert work_counts.main([str(path)]) == 1
    _write_record(tmp_path, 1500.0, 0.76)
    assert work_counts.main([str(path)]) == 1
    _write_record(tmp_path, 1500.0, 0.25, peak_rss_mb=60.1)
    assert work_counts.main([str(path)]) == 1
