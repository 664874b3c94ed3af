"""``tools/work_counts.py``: the exact work-count gate of the perf smoke.

The gate itself runs in CI after ``benchmarks/perf/run.py --smoke
--trace 1``; these tests check that the recorded counts cover every
workload and count metric the benchmark declares, and that the
comparison reports each kind of difference.
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
