"""Abstract headline reproduction: up to 3.2x IOPS / 3.45x throughput.

Doubles as the simulator's perf-regression harness (``--smoke``): a
reduced headline grid is run under a wall-clock measurement, normalized
by an in-process calibration loop (so the check is stable across
machines of different speed), and compared against the baseline recorded
in ``BENCH_3.json`` at the repository root.  CI fails the build when the
normalized wall-clock regresses by more than ``--tolerance`` (default
20%).

Usage::

    python benchmarks/bench_headline.py --smoke                  # check vs baseline
    python benchmarks/bench_headline.py --smoke --record-as baseline
    python benchmarks/bench_headline.py --smoke --record-as pre_pr
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import time

BENCH_JSON = pathlib.Path(__file__).resolve().parents[1] / "BENCH_3.json"

#: Reduced grid driven by the smoke run: both comparison frameworks over
#: the 4k/64k random cells (the hot cells of the paper grid), plus one
#: EC cell so the encode path is inside the measured window.
SMOKE_CELLS = (
    # (framework, rw, bs, iodepth, nrequests, pool)
    ("deliba2", "randread", 4096, 4, 80, "replicated"),
    ("deliba2", "randwrite", 4096, 4, 80, "replicated"),
    ("delibak", "randread", 4096, 4, 80, "replicated"),
    ("delibak", "randwrite", 4096, 4, 80, "replicated"),
    ("delibak", "randread", 65536, 4, 80, "replicated"),
    ("delibak", "randwrite", 65536, 4, 80, "replicated"),
    ("delibak", "randwrite", 4096, 4, 80, "erasure"),
)


def test_headline_speedups(benchmark, report):
    from repro.bench import exp_headline

    result = benchmark.pedantic(exp_headline, rounds=1, iterations=1)
    report(result)
    speedups = {row[0]: row[1] for row in result.rows}
    assert 2.0 < speedups["max throughput speedup"] < 5.5
    assert 2.0 < speedups["max IOPS speedup"] < 5.5


# -- smoke harness -----------------------------------------------------------


def _calibrate() -> float:
    """Seconds for a fixed CPU-bound reference loop (median of 3).

    The mix mirrors the simulator's instruction profile — pure-Python
    control flow, hashing, and small NumPy kernels — so the normalized
    wall-clock (workload / calibration) is comparable across machines.
    """
    import numpy as np

    samples = []
    buf = bytes(range(256)) * 256  # 64 KiB
    arr = np.arange(65536, dtype=np.uint8).reshape(256, 256)
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc ^= i * 3
        for _ in range(50):
            hashlib.sha256(buf).hexdigest()
            np.bitwise_xor(arr, arr[::-1]).sum()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[1]


def _run_cells() -> float:
    """Wall-clock seconds for one pass over the smoke grid (best of 2)."""
    from repro.bench.experiments import _run

    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        for fw, rw, bs, iodepth, nreq, pool in SMOKE_CELLS:
            _run(fw, rw, bs, iodepth, nreq, pool)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def run_smoke() -> dict:
    """One measured smoke pass; returns the result record."""
    calib_s = _calibrate()
    wall_s = _run_cells()
    return {
        "wall_s": round(wall_s, 4),
        "calib_s": round(calib_s, 4),
        "normalized": round(wall_s / calib_s, 4),
        "cells": len(SMOKE_CELLS),
    }


def _load() -> dict:
    if BENCH_JSON.exists():
        return json.loads(BENCH_JSON.read_text())
    return {"bench": "bench_headline --smoke", "schema": 1}


def _save(doc: dict) -> None:
    BENCH_JSON.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="run the perf-regression smoke")
    parser.add_argument(
        "--record-as",
        metavar="KEY",
        help="record this run under KEY in BENCH_3.json (e.g. baseline, pre_pr) "
        "instead of checking for a regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="max allowed normalized wall-clock regression vs baseline (default 0.20)",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("only --smoke mode is scriptable; use pytest for the full benchmark")

    result = run_smoke()
    doc = _load()
    print(
        f"smoke: wall {result['wall_s']}s over {result['cells']} cells, "
        f"calibration {result['calib_s']}s, normalized {result['normalized']}"
    )

    if args.record_as:
        doc[args.record_as] = result
        if "pre_pr" in doc and args.record_as != "pre_pr":
            doc["speedup_vs_pre_pr"] = round(
                doc["pre_pr"]["normalized"] / result["normalized"], 3
            )
        _save(doc)
        print(f"recorded as {args.record_as!r} in {BENCH_JSON}")
        return 0

    baseline = doc.get("baseline")
    if baseline is None:
        print("no baseline recorded in BENCH_3.json; run with --record-as baseline first")
        return 2
    doc["current"] = result
    if "pre_pr" in doc:
        doc["speedup_vs_pre_pr"] = round(doc["pre_pr"]["normalized"] / result["normalized"], 3)
    _save(doc)
    limit = baseline["normalized"] * (1.0 + args.tolerance)
    verdict = "PASS" if result["normalized"] <= limit else "FAIL"
    print(
        f"regression check: current {result['normalized']} vs baseline "
        f"{baseline['normalized']} (limit {limit:.4f}): {verdict}"
    )
    if "speedup_vs_pre_pr" in doc:
        print(f"speedup vs pre-PR build: {doc['speedup_vs_pre_pr']}x")
    return 0 if verdict == "PASS" else 1


if __name__ == "__main__":
    raise SystemExit(main())
