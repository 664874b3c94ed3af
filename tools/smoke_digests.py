#!/usr/bin/env python
"""Check the smoke outputs against their recorded digests.

Each row is one ``python -m repro`` command.  It runs in its own fresh
directory ``build/smokes/<row>/`` (wiped first, so report paths in its
output are relative), must exit 0, and is hashed over its stdout plus
every file it writes there; its stdout is also kept there as
``stdout.txt``.  Rows are separate processes in separate directories, so
they run concurrently (one thread per CPU) without touching each other's
digests; results print in ``ROWS`` order.  The hashes are compared with
``tests/golden/smokes.sha256``, which pins these outputs byte for byte
across changes that claim to move no simulated event.

Run:  python tools/smoke_digests.py             (exit 1 on any mismatch)
      python tools/smoke_digests.py --update    (re-record the digests)
      python tools/smoke_digests.py qos-smoke   (only the named rows)
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "smokes.sha256"
OUT = ROOT / "build" / "smokes"

#: (row name, ``python -m repro`` arguments, files the command writes).
ROWS = (
    ("chaos-smoke", ["smoke", "chaos"], ()),
    ("chaos-power-loss", ["smoke", "power-loss"], ()),
    ("chaos-seed0", ["chaos", "--seed", "0"], ()),
    ("crashsim-smoke", ["smoke", "crashsim"], ("crashsim-report.json",)),
    ("recover-smoke", ["smoke", "recover"], ()),
    ("qos-smoke", ["smoke", "qos"], ()),
    ("cache-smoke", ["smoke", "cache"], ()),
    ("health-smoke", ["smoke", "health"], ("health-report.json",)),
    ("experiment-table2", ["experiment", "table2"], ()),
    ("experiment-fig7", ["experiment", "fig7"], ()),
    # The only rows that run the NBD and UIFD host-CPU stages (the D2-sw
    # and D-K-sw stacks).
    ("experiment-fig3", ["experiment", "fig3"], ()),
    ("experiment-fig4", ["experiment", "fig4"], ()),
    ("trace-export", ["trace", "--export", "trace.json"], ("trace.json",)),
    ("profile-smoke", ["smoke", "profile"], ("profile-trace.json", "profile.folded")),
    # Stock Ceph's primary-mediated ops: the replicated row sends `write`
    # ops that the primary forwards as `rep_write` sub-ops; the EC row
    # sends `ec_write`/`ec_read` that fan out `shard_write`/`shard_read`.
    ("fio-software-ceph-rep",
     ["fio", "--framework", "software-ceph", "--rw", "randrw", "--iodepth", "8",
      "--nrequests", "200", "--metrics"], ()),
    ("fio-software-ceph-ec",
     ["fio", "--framework", "software-ceph", "--rw", "randrw", "--iodepth", "8",
      "--nrequests", "200", "--metrics", "--pool", "erasure"], ()),
)


def run_row(args: list, files: tuple, workdir: pathlib.Path) -> tuple[int, str, str]:
    """Run one row in ``workdir`` (wiped first); return (exit code,
    digest, stderr tail)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args], cwd=workdir, env=env, capture_output=True
    )
    (workdir / "stdout.txt").write_bytes(proc.stdout)
    digest = hashlib.sha256(proc.stdout)
    for name in files:
        path = workdir / name
        digest.update(b"\0" + name.encode() + b"\0")
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
    return proc.returncode, digest.hexdigest(), proc.stderr.decode(errors="replace")[-2000:]


def load(path: pathlib.Path) -> dict:
    if not path.exists():
        return {}
    rows = (line.split() for line in path.read_text().splitlines() if line.strip())
    return {name: digest for digest, name in rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", nargs="*", help="row names (default: all)")
    parser.add_argument("--update", action="store_true", help="re-record the digests")
    args = parser.parse_args(argv)
    unknown = set(args.rows) - {name for name, _, _ in ROWS}
    if unknown:
        parser.error(f"unknown rows: {', '.join(sorted(unknown))}")
    rows = [row for row in ROWS if not args.rows or row[0] in args.rows]
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        futures = [pool.submit(run_row, cmd, files, OUT / name) for name, cmd, files in rows]
        results = [future.result() for future in futures]
    recorded = load(GOLDEN)
    failed = 0
    for (name, cmd, _files), (rc, digest, stderr) in zip(rows, results):
        if rc != 0:
            print(f"FAIL {name}: `python -m repro {' '.join(cmd)}` exited {rc}\n{stderr}")
            failed += 1
            continue
        if args.update:
            recorded[name] = digest
            print(f"recorded {name} {digest[:16]}")
        elif recorded.get(name) == digest:
            print(f"ok   {name} {digest[:16]}")
        else:
            print(f"FAIL {name}: {digest[:16]} != recorded {recorded.get(name, '<none>')[:16]}")
            failed += 1
    if args.update:
        GOLDEN.write_text("".join(f"{recorded[n]}  {n}\n" for n, _, _ in ROWS if n in recorded))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
