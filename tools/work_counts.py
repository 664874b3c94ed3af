#!/usr/bin/env python
"""Check a benchmark record's work counts against their recorded values.

The per-layer metrics that ``BENCHMARK.json`` gives the unit ``count``
(``sim.events``, ``sim.processes``, ``net.msgs``, ``osd.ops``, ...) are
exact: the simulator is deterministic, so the same code and seed yield
the same counts on any host.  This compares them, workload by workload,
with ``tests/golden/work_counts.json``.  Any difference fails: a change
that adds simulator work shows up here even when host timing hides it,
and a change that removes work re-records the file, so its diff shows
the drop.

Run:  python benchmarks/perf/run.py --smoke --trace 1 --out DIR
      python tools/work_counts.py DIR              (exit 1 on any difference)
      python tools/work_counts.py --update DIR     (re-record the counts)

``RECORD`` is a record file, or a directory whose newest record is used.
"""

from __future__ import annotations

import argparse
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "work_counts.json"
SPEC = ROOT / "BENCHMARK.json"


def count_metrics() -> list[str]:
    """Names of the per-layer metrics ``BENCHMARK.json`` counts in units."""
    spec = json.loads(SPEC.read_text())
    return [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]


def find_record(path: pathlib.Path) -> pathlib.Path:
    """``path`` itself, or the newest ``*-seed*.json`` record in it."""
    if path.is_dir():
        records = sorted(path.glob("*-seed*.json"))
        if not records:
            raise SystemExit(f"no benchmark record in {path}")
        return records[-1]
    return path


def counts(record: dict, names: list[str]) -> dict:
    """The run's seed and size, and ``{workload: {metric: value}}``."""
    if not record["args"].get("trace"):
        raise SystemExit("the record has no per-layer metrics: run the benchmark with --trace 1")
    workloads = {
        workload: {name: result["per_layer"][name] for name in names}
        for workload, result in record["results"].items()
    }
    run = {"seed": record["args"]["seed"], "smoke": record["args"]["smoke"]}
    return {"run": run, "workloads": workloads}


def compare(want: dict, got: dict) -> list[str]:
    """One line per run setting, workload or metric that differs."""
    if want["run"] != got["run"]:
        return [f"recorded for a {want['run']} run, the record is a {got['run']} run"]
    want, got = want["workloads"], got["workloads"]
    problems = []
    for workload in sorted(set(want) | set(got)):
        if workload not in got:
            problems.append(f"{workload}: not in the record")
            continue
        if workload not in want:
            problems.append(f"{workload}: no recorded counts (run with --update)")
            continue
        for name in sorted(set(want[workload]) | set(got[workload])):
            w, g = want[workload].get(name), got[workload].get(name)
            if w != g:
                problems.append(f"{workload} {name}: recorded {w}, got {g}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("record", type=pathlib.Path, help="record file or directory")
    parser.add_argument("--update", action="store_true", help="re-record the counts")
    args = parser.parse_args(argv)
    path = find_record(args.record)
    record = json.loads(path.read_text())
    got = counts(record, count_metrics())
    if args.update:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"recorded the work counts of {len(got['workloads'])} workloads from {path}")
        return 0
    problems = compare(json.loads(GOLDEN.read_text()), got)
    for line in problems:
        print(f"DIFF {line}")
    total = sum(len(m) for m in got["workloads"].values())
    verdict = f"{len(problems)} differ" if problems else "all match"
    print(f"work counts: {total} over {len(got['workloads'])} workloads vs {GOLDEN.name}: {verdict}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
