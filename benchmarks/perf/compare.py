"""Compare two sets of benchmark records: did a change move any metric?

    python benchmarks/perf/compare.py BASE.json... -- CHANGE.json...

Each file is a record ``run.py`` wrote for one invocation; run the two
sides alternately with identical settings, at least ten of each, and
list them in run order so the n-th base run pairs with the n-th change
run.  For every (workload, end-to-end metric) row the table gives each
side's median and quartiles, the pairs the change won, and a verdict:

* ``better``: the change won at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the distance
  between the base's quartiles;
* ``worse``: the change's median is worse than the base's by more than the
  bound;
* ``unresolved``: either side's quartile distance is wider than the
  metric's bound, and not every change run beats every base run;
* ``unchanged``: anything else.

The host metrics take their bounds from ``BENCHMARK.json``.  Every other
metric is a simulated result that repeats exactly on one seed, so it must
not move at all (bound 0).  Host time rows also show the wall-clock
medians, so a gap between wall and reference seconds can be seen.  The
share of failed I/Os is compared too.  Exits 1 when a row is ``worse`` or
the change fails a larger share of its I/Os than the base.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9
#: Metrics measured on the host; the rest are simulated.
HOST_METRICS = ("ios_per_host_s", "setup_s", "peak_rss_mb")


def quartiles(values: list) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list, change: list, better: str, bound: float) -> tuple[str, int]:
    """The verdict for one row, and the number of pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    allowed = bound * abs(b_med)
    wide = max(b_q3 - b_q1, c_q3 - c_q1) > allowed
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    gain = sign * (c_med - b_med)
    if wins >= WIN_SHARE * min(len(base), len(change)) and gain > max(b_q3 - b_q1, 0.0):
        return "better", wins
    if gain < -allowed:
        return "worse", wins
    if wide and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def failure_share(records: list) -> float:
    attempted = sum(r["attempted"] for rec in records for r in rec["results"].values())
    failed = sum(r["failed"] for rec in records for r in rec["results"].values())
    return failed / attempted if attempted else 0.0


def compare(base: list, change: list, spec: dict) -> tuple[list, bool]:
    """Rows for every (workload, metric) both sides report, and whether
    the change regressed (a ``worse`` row or a higher failure share)."""
    listed = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for workload in base[0]["results"]:
        if workload not in change[0]["results"]:
            continue
        for metric in base[0]["results"][workload]["e2e"]:
            better = listed[metric]["better"] if metric in listed else "lower"
            bound = listed[metric]["bound"] if metric in HOST_METRICS else 0.0
            sides = [[rec["results"][workload]["e2e"][metric] for rec in side]
                     for side in (base, change)]
            b, c = ([m["value"] for m in side] for side in sides)
            result, wins = verdict(b, c, better, bound)
            row = {"workload": workload, "metric": metric, "base": quartiles(b),
                   "change": quartiles(c), "wins": wins, "pairs": min(len(b), len(c)),
                   "verdict": result}
            if all("wall" in m for side in sides for m in side):
                row["wall"] = tuple(statistics.median(m["wall"] for m in side) for side in sides)
            rows.append(row)
    regressed = any(r["verdict"] == "worse" for r in rows)
    regressed = regressed or failure_share(change) > failure_share(base)
    return rows, regressed


def _fmt(q: tuple) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base_paths, change_paths = argv[:split], argv[split + 1:]
    if not base_paths or not change_paths:
        print("need at least one record on each side of --", file=sys.stderr)
        return 2
    base = [json.loads(pathlib.Path(p).read_text()) for p in base_paths]
    change = [json.loads(pathlib.Path(p).read_text()) for p in change_paths]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, regressed = compare(base, change, spec)
    print(f"{'workload':22s} {'metric':16s} {'base median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'won':>7s}  {'verdict':10s}  wall base -> change")
    for r in rows:
        wall = ""
        if "wall" in r:
            b, c = r["wall"]
            wall = f"{b:.6g} -> {c:.6g} ({100.0 * (c / b - 1.0):+.1f}%)"
        print(f"{r['workload']:22s} {r['metric']:16s} {_fmt(r['base']):34s} "
              f"{_fmt(r['change']):34s} {r['wins']:>3d}/{r['pairs']:<3d}  {r['verdict']:10s}  "
              f"{wall}")
    print(f"failed I/O share: base {failure_share(base):.6g}, change {failure_share(change):.6g}")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
