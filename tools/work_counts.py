#!/usr/bin/env python
"""Check a benchmark record's work counts, host times and peak RSS
against their recorded values.

The per-layer metrics that ``BENCHMARK.json`` gives the unit ``count``
(``sim.events``, ``sim.processes``, ``net.msgs``, ``osd.ops``, ...) are
exact: the simulator is deterministic, so the same code and seed yield
the same counts on any host.  This compares them, workload by workload,
with ``tests/golden/work_counts.json``.  Any difference fails: a change
that adds simulator work shows up here even when host timing hides it,
and a change that removes work re-records the file, so its diff shows
the drop.

Host time catches what the counts cannot: a change that makes the same
work slower.  Each workload's ``ios_per_host_s`` must reach a third of
the value recorded beside its counts, and its ``setup_s`` stay within
three times the recorded one.  Both are in the benchmark's reference
seconds, which correct for the speed of the host, and the factor leaves
room for the spread of a single smoke repeat (five runs of one tree on a
2-vCPU VM read up to 26% apart).

Peak RSS catches a change that keeps more bytes alive: each workload's
``peak_rss_mb`` must stay within 1.5 times its recorded value.  A smoke
run's RSS is steadier than its timing, and the tighter factor still
fails a workload that materializes its objects: ``recover-kill-revive``
read 77.4 MB when recovery shipped dense 4 MiB copies, against 40.3 MB
with extent images, and every other workload reads 40 to 41 MB.

Run:  python benchmarks/perf/run.py --smoke --trace 1 --out DIR
      python tools/work_counts.py DIR              (exit 1 on any difference)
      python tools/work_counts.py --update DIR     (re-record counts and host values)

``RECORD`` is a record file, or a directory whose newest record is used.
"""

from __future__ import annotations

import argparse
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "work_counts.json"
SPEC = ROOT / "BENCHMARK.json"
#: Host metric -> (True when higher is better, how far it may stray from
#: its recorded value in its worse direction).
HOST_METRICS = {
    "ios_per_host_s": (True, 3.0),
    "setup_s": (False, 3.0),
    "peak_rss_mb": (False, 1.5),
}


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


def host_values(record: dict) -> dict:
    """``{workload: {metric: value}}``: the record's host medians."""
    return {
        workload: {name: round(result["e2e"][name]["value"], 3) for name in HOST_METRICS}
        for workload, result in record["results"].items()
    }


def compare(want: dict, got: dict) -> list[str]:
    """One line per run setting, workload or count that differs, and per
    host value outside its bound or with none recorded."""
    if want["run"] != got["run"]:
        return [f"recorded for a {want['run']} run, the record is a {got['run']} run"]
    problems = []
    counts_want, counts_got = want["workloads"], got["workloads"]
    for workload in sorted(set(counts_want) | set(counts_got)):
        if workload not in counts_got:
            problems.append(f"{workload}: not in the record")
            continue
        if workload not in counts_want:
            problems.append(f"{workload}: no recorded counts (run with --update)")
            continue
        for name in sorted(set(counts_want[workload]) | set(counts_got[workload])):
            w, g = counts_want[workload].get(name), counts_got[workload].get(name)
            if w != g:
                problems.append(f"{workload} {name}: recorded {w}, got {g}")
    for workload, values in sorted(got["host"].items()):
        for name, (higher, factor) in HOST_METRICS.items():
            value = values[name]
            recorded = want.get("host", {}).get(workload, {}).get(name)
            if recorded is None:
                problems.append(f"{workload} {name}: no recorded value (run with --update)")
                continue
            floor, ceiling = recorded / factor, recorded * factor
            if higher and value < floor:
                problems.append(f"{workload} {name}: {value:.4g}, under the floor {floor:.4g} "
                                f"(recorded {recorded:.4g} / {factor:g})")
            elif not higher and value > ceiling:
                problems.append(f"{workload} {name}: {value:.4g}, over the ceiling {ceiling:.4g} "
                                f"(recorded {recorded:.4g} x {factor:g})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("record", type=pathlib.Path, help="record file or directory")
    parser.add_argument("--update", action="store_true",
                        help="re-record the counts and host values")
    args = parser.parse_args(argv)
    path = find_record(args.record)
    record = json.loads(path.read_text())
    got = dict(counts(record, count_metrics()), host=host_values(record))
    if args.update:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"recorded the work counts and host values of {len(got['workloads'])} "
              f"workloads from {path}")
        return 0
    problems = compare(json.loads(GOLDEN.read_text()), got)
    for line in problems:
        print(f"DIFF {line}")
    total = sum(len(m) for m in got["workloads"].values())
    verdict = f"{len(problems)} differ" if problems else "all match"
    print(f"work counts: {total} over {len(got['workloads'])} workloads, and their host "
          f"times and peak RSS, vs {GOLDEN.name}: {verdict}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
