"""One repeat of one workload in a fresh interpreter.

    python benchmarks/perf/child.py WORKLOAD SEED MODE [--smoke] [--trace-out PATH]

MODE is ``untraced``, ``layers`` or ``stages`` (see ``workloads.run_repeat``).
Prints the repeat's result as one JSON line.  ``run.py`` starts one child
per repeat, one at a time, so every repeat pays its own set-up and
reports its own peak RSS.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=("untraced", "layers", "stages"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", help="write pass A's Chrome trace here")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out = workloads.run_repeat(args.workload, args.seed, smoke=args.smoke, mode=args.mode)
    doc = out.pop("spans", None)
    if doc is not None:
        from repro.obs.export import validate_trace_document

        out["problems"] += [f"chrome trace: {p}" for p in validate_trace_document(doc)[:5]]
        if args.trace_out:
            path = pathlib.Path(args.trace_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc))
            out["trace_file"] = path.name
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
