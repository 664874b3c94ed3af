"""The repository benchmark: five workloads, end-to-end and per-layer metrics.

    python benchmarks/perf/run.py [--seed N] [--repeats 3] [--seconds S]
        [--workloads a,b | --workload a] [--smoke] [--trace [0|1]] [--out PATH]

Each repeat of each workload runs in its own child process, one at a time
(the simulator is single-threaded).  A workload repeats at least
``--repeats`` times and until ``--seconds`` have passed; host metrics are
the median over its repeats.  Every simulated (virtual-time) metric must
read the same on every repeat.  ``--trace`` adds two passes per workload:
pass A times each layer's entry points on the host, pass B attributes
virtual time to datapath stages; both must reproduce the untraced
latencies sample for sample.

Prints ``workload metric value unit n=<samples>`` lines, writes a JSON
record to ``--out`` (a ``.json`` file, or a directory to put one in), and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
``metrics`` that ``BENCHMARK.json`` lists (end-to-end ones, or per-layer
ones under ``--trace``).  Exits non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_OUT = ROOT / "benchmarks" / "results" / "perf"
#: Every child must have finished this long after the run started.
BUDGET_S = 170.0

#: Units of the end-to-end metrics ``BENCHMARK.json`` leaves out: they
#: exist on one workload only, or read 0.
UNLISTED_UNITS = {
    "paper_err_pct": "%",
    "recovery_sim_ms": "ms",
    "io_fail_frac": "fraction",
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(workload: str, seed: int, mode: str, smoke: bool, deadline: float,
              trace_out=None) -> dict:
    """One repeat in a fresh interpreter; killed if it runs past ``deadline``."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    if smoke:
        cmd.append("--smoke")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} ({mode}) exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def _host_stats(values: list, wall: list | None = None) -> dict:
    """Median, min, max and samples; ``wall`` adds the median of the same
    quantity in wall seconds, to show where it parts from reference seconds."""
    out = {"value": statistics.median(values), "min": min(values), "max": max(values),
           "n": len(values), "samples": values}
    if wall is not None:
        out["wall"] = statistics.median(wall)
    return out


def summarize(samples: list, units: dict) -> tuple[dict, list]:
    """End-to-end metrics of one workload's untraced repeats, and the
    problems found (failed checks, or simulated results that differ
    between repeats)."""
    first = samples[0]
    problems = [p for s in samples for p in s["problems"]]
    for s in samples[1:]:
        for key in ("sim", "events", "latency_digest"):
            if s[key] != first[key]:
                problems.append(f"{key} differs between repeats: {first[key]} != {s[key]}")
    metrics = {
        "ios_per_host_s": _host_stats([s["ios"] / s["measured_s"] for s in samples],
                                      [s["ios"] / s["measured_raw_s"] for s in samples]),
        "setup_s": _host_stats([s["setup_s"] for s in samples],
                               [s["setup_raw_s"] for s in samples]),
        "peak_rss_mb": _host_stats([s["peak_rss_mb"] for s in samples]),
    }
    sim = dict(first["sim"], io_fail_frac=first["failed"] / first["attempted"])
    for name, value in sim.items():
        metrics[name] = {"value": value, "n": len(samples)}
    for name, m in metrics.items():
        m["unit"] = units[name]
    return metrics, problems


def per_layer(samples: list, layers: dict, stages: dict) -> tuple[dict, list]:
    """Per-layer metrics from pass A (``layers``) and pass B (``stages``)."""
    problems = list(layers["problems"]) + list(stages["problems"])
    for name, run in (("pass A", layers), ("pass B", stages)):
        if run["latency_digest"] != samples[0]["latency_digest"]:
            problems.append(f"{name} latencies differ from the untraced run")
    out = dict(layers["layers"])
    if out["sim.self_ms"] < 0:
        problems.append(f"layer self times exceed the traced host time by {-out['sim.self_ms']} ms")
    out["sim.events"] = samples[0]["events"]
    out["sim.host_ns_per_event"] = statistics.median(
        s["measured_s"] * 1e9 / s["events_window"] for s in samples
    )
    untraced_s = statistics.median(s["measured_s"] for s in samples)
    out["trace.overhead_pct"] = 100.0 * (layers["measured_s"] / untraced_s - 1.0)
    for stage in workloads.CRIT_STAGES + ("other",):
        out[f"crit.{stage}_us"] = stages["crit"].get(stage, 0.0)
    return out, problems


def run_workload(name: str, args, deadline: float, units: dict) -> dict:
    """Untraced repeats of one workload, plus the traced passes under ``--trace``."""
    samples = []
    started = time.monotonic()
    while len(samples) < args.repeats or time.monotonic() - started < args.seconds:
        samples.append(run_child(name, args.seed, "untraced", args.smoke, deadline))
    e2e, problems = summarize(samples, units)
    result = {"e2e": e2e, "problems": problems, "repeats": samples,
              "attempted": sum(s["attempted"] for s in samples),
              "failed": sum(s["failed"] for s in samples)}
    if args.trace:
        trace_dir = args.out if args.out.suffix != ".json" else args.out.parent
        layers = run_child(name, args.seed, "layers", args.smoke, deadline,
                           trace_out=trace_dir / f"trace-{name}.json")
        stages = run_child(name, args.seed, "stages", args.smoke, deadline)
        result["per_layer"], more = per_layer(samples, layers, stages)
        result["problems"] += more
        result["trace_file"] = layers.get("trace_file")
        result["spans_dropped"] = layers["spans_dropped"]
    return result


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def write_record(record: dict, out: pathlib.Path) -> pathlib.Path:
    if out.suffix != ".json":
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
        out = out / f"{stamp}-seed{record['args']['seed']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return out


def print_lines(name: str, result: dict, spec_units: dict) -> None:
    for metric, m in result["e2e"].items():
        extra = f" min={m['min']:.6g} max={m['max']:.6g}" if "min" in m else ""
        extra += f" wall={m['wall']:.6g}" if "wall" in m else ""
        print(f"{name} {metric} {m['value']:.6g} {m['unit']} n={m['n']}{extra}")
    for metric, value in result.get("per_layer", {}).items():
        print(f"{name} {metric} {value:.6g} {spec_units.get(metric, '')} n=1")
    for problem in result["problems"]:
        print(f"{name} CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int,
                        help="least repeats per workload (default 3, or 1 with --smoke)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating each workload until this many seconds pass")
    parser.add_argument("--workloads", help="comma-separated workload names (default: all)")
    parser.add_argument("--workload", action="append", default=[], help="one workload name")
    parser.add_argument("--smoke", action="store_true", help="same code paths, ~10x smaller")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run the two traced passes and report per-layer metrics")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help="record file (.json) or directory")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.repeats is None:
        args.repeats = 1 if args.smoke else 3
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload + (args.workloads.split(",") if args.workloads else [])
    names = names or known
    unknown = [n for n in names if n not in known]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {known}")
    e2e_units = dict(UNLISTED_UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"]})
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    results = {}
    deadline = time.monotonic() + BUDGET_S * len(names)
    try:
        for name in names:
            results[name] = run_workload(name, args, deadline, e2e_units)
            print_lines(name, results[name], layer_units)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    correct = not any(r["problems"] for r in results.values())

    record = {"schema": 1, "host": host_info(), "results": results,
              "args": {"seed": args.seed, "repeats": args.repeats, "seconds": args.seconds,
                       "smoke": args.smoke, "trace": args.trace}}
    print(f"record: {write_record(record, args.out)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for name, result in results.items():
        values = result.get("per_layer", {}) if args.trace else {
            k: m["value"] for k, m in result["e2e"].items()
        }
        prefix = "" if len(results) == 1 else f"{name}."
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
