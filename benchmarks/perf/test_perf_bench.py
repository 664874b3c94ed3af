"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_listed_workload_has_cells():
    for w in SPEC["workloads"]:
        assert workloads.cells(w["name"], smoke=True), w["name"]


def test_emitted_metric_names_equal_the_spec(tmp_path):
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ec-randwrite-4k", "--smoke",
         "--repeats", "1", "--trace", "1", "--out", str(record)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    result = json.loads(record.read_text())["results"]["ec-randwrite-4k"]
    assert set(result["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(result["e2e"])
    for name, m in result["e2e"].items():
        assert m["unit"] and m["n"] == 1, name


# -- self time on a toy environment ---------------------------------------------------------


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Outer:
    """Outer layer: spends 2 ms per resume around a nested inner generator."""

    def __init__(self, env, inner):
        self.env = env
        self.inner = inner

    def serve(self, rounds: int):
        for _ in range(rounds):
            _busy(0.002)
            yield from self.inner.work()
            yield self.env.timeout(10)


class Inner:
    """Inner layer: 1 ms before and after parking in virtual time, and a
    plain call into a third layer."""

    def __init__(self, env, leaf):
        self.env = env
        self.leaf = leaf

    def work(self):
        _busy(0.001)
        yield self.env.timeout(5)
        self.leaf.compute()
        _busy(0.001)


class Leaf:
    def compute(self):
        _busy(0.0005)


def test_self_times_sum_to_the_measured_total():
    from repro.sim import Environment

    entries = (
        layers.Entry("api", f"{__name__}:Outer", ("serve",)),
        layers.Entry("osd", f"{__name__}:Inner", ("work",)),
        layers.Entry("store", f"{__name__}:Leaf", ("compute",)),
    )
    tracer = layers.LayerTracer()
    tracer.install(entries)
    try:
        env = Environment()
        inner = Inner(env, Leaf())
        tracer.begin(env)
        for _ in range(3):
            env.process(Outer(env, inner).serve(4))
        t0 = time.perf_counter()
        env.run()
        total_ms = (time.perf_counter() - t0) * 1e3
        tracer.end()
    finally:
        tracer.uninstall()
    self_ms = tracer.window_self_ms()
    # 3 processes x 4 rounds: 2 ms outer, 2 ms inner, 0.5 ms leaf each.
    for layer, busy_ms in (("api", 24.0), ("osd", 24.0), ("store", 6.0)):
        assert busy_ms <= self_ms[layer] < busy_ms + 4.0, (layer, self_ms)
    rest = total_ms - sum(self_ms.values())
    assert 0.0 <= rest < 5.0
    assert tracer.window_calls("Leaf.compute", parent="Inner.work") == 12
    doc = tracer.chrome_trace()
    assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == 3 + 12 + 12
    from repro.obs.export import validate_trace_document

    assert validate_trace_document(doc) == []


# -- compare.py verdicts ----------------------------------------------------------------------


def _record(values: list, failed: int, metric: str) -> list:
    return [
        {"results": {"w": {"attempted": 1000, "failed": failed,
                           "e2e": {metric: {"value": v}}}}}
        for v in values
    ]


def _verdict(base, change, failed=(0, 0), metric="ios_per_host_s") -> tuple[str, bool]:
    rows, regressed = compare.compare(
        _record(base, failed[0], metric), _record(change, failed[1], metric), SPEC
    )
    (row,) = rows
    return row["verdict"], regressed


def test_compare_clear_win():
    base = [1000 + i for i in range(10)]
    change = [1500 + i for i in range(10)]
    assert _verdict(base, change) == ("better", False)
    assert _verdict(change, base) == ("worse", True)


def test_compare_tie():
    base = [1000, 1010, 990, 1005, 995, 1002, 998, 1001, 999, 1003]
    assert _verdict(base, list(reversed(base))) == ("unchanged", False)


def test_compare_unresolved_when_spread_exceeds_bound():
    base = [700, 1300, 800, 1200, 900, 1100, 1000, 1250, 750, 1050]
    change = [1150, 750, 1250, 850, 1050, 950, 1300, 700, 1000, 900]
    assert _verdict(base, change) == ("unresolved", False)


def test_compare_wide_spread_does_not_hide_a_regression():
    base = [700, 1300, 800, 1200, 900, 1100, 1000, 1250, 750, 1050]
    change = [0.8 * v for v in base]
    assert _verdict(base, change) == ("worse", True)


def test_compare_holds_simulated_metrics_exact():
    base = [70.0] * 10
    assert _verdict(base, base, metric="sim_p99_us") == ("unchanged", False)
    assert _verdict(base, [70.07] * 10, metric="sim_p99_us") == ("worse", True)
    assert _verdict(base, [69.93] * 10, metric="sim_p99_us") == ("better", False)


def test_compare_failure_share_regression():
    same = [1000 + i for i in range(10)]
    assert _verdict(same, same, failed=(0, 3)) == ("unchanged", True)
