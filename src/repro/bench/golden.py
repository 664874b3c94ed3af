"""Golden-trace determinism: event-level digests of canonical runs.

The perf work on the hot paths (placement caching, batched uring
submit/reap, vectorized EC, sim-core tightening) is only shippable if it
changes **no simulated event**: every latency sample, retry count, and
table cell must come out byte-identical.  This module pins that down
with digests of four canonical runs:

* ``fig6`` — the replication-mode hardware throughput grid (the paper's
  headline figure): digests the raw experiment rows across three
  framework generations, 16 workload cells each.
* ``chaos-smoke`` — the seeded crash-a-replica-mid-run scenario: digests
  the full latency stream plus every fault-path counter (the same
  fingerprint the chaos determinism check uses).
* ``trace-view`` — the six-stage Chrome trace and CSV exports of seeded
  traced runs (UIFD and NBD stacks, a tenant-tagged job, and a merging
  block layer), so the stage view stays byte-identical.
* ``span-forest`` — the raw span-tree dump of the ``randwrite`` and
  ``chaos`` profile scenarios.

Recorded digests live in ``tests/golden/``; ``python -m repro golden``
re-runs the canonical runs and compares (``--update`` re-records).  The
tier-1 test ``tests/test_golden_trace.py`` runs the same check, so any
optimization that perturbs the event stream fails CI.
"""

from __future__ import annotations

import hashlib
import pathlib
import tempfile
from typing import Optional

#: Default location of the recorded digests (inside the test tree).
GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[3] / "tests" / "golden"

#: Canonical chaos-smoke parameters (must match the recorded digest).
CHAOS_SEED = 0
CHAOS_NREQUESTS = 80


def fig6_digest() -> str:
    """Digest of the fig6 experiment's raw rows (not the rendering).

    Hashes ``(headers, rows, notes)`` via ``repr`` so presentation-layer
    changes (column widths, table borders) cannot mask or fake an
    event-stream change: every cell is a simulated measurement.
    """
    from .experiments import exp_fig6

    res = exp_fig6()
    blob = repr((res.headers, res.rows, res.notes)).encode()
    return hashlib.sha256(blob).hexdigest()


def chaos_smoke_digest(seed: int = CHAOS_SEED, nrequests: int = CHAOS_NREQUESTS) -> str:
    """Event-level digest of the canonical crash-replica chaos run.

    Reuses :class:`~repro.bench.chaos.ChaosRunStats`' fingerprint, which
    covers the complete latency stream and all fault-path counters.
    """
    from .chaos import SCENARIOS, run_chaos_scenario

    stats = run_chaos_scenario(SCENARIOS[1], seed=seed, nrequests=nrequests)
    return stats.digest


#: ``trace-view`` jobs: (framework, rw, tenant, merging block layer).
TRACE_VIEW_RUNS = (
    ("delibak", "randrw", "", False),
    ("deliba2", "randrw", "", False),
    ("delibak", "randwrite", "gold", False),
    ("delibak", "write", "", True),
)

#: Profile scenarios whose span forests ``span-forest`` digests.
SPAN_FOREST_SCENARIOS = ("randwrite", "chaos")


def trace_view_digest() -> str:
    """Digest of the six-stage Chrome-trace JSON and CSV exports.

    Each :data:`TRACE_VIEW_RUNS` job runs seeded on a traced stack; the
    merging variant drives one io_uring instance into stock mq-deadline
    with back-merging, so most of its bios merge into earlier requests.
    """
    from dataclasses import replace

    from ..blk import BlkMqConfig
    from ..deliba import build_framework, framework_by_name
    from ..units import kib
    from ..workloads.fio import FioJob

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        for i, (framework, rw, tenant, merging) in enumerate(TRACE_VIEW_RUNS):
            config = framework_by_name(framework)
            if merging:
                config = replace(config, blk=BlkMqConfig(), uring_instances=1)
            fw = build_framework(config, seed=0, obs=True)
            job = FioJob("trace", rw, bs=kib(4), iodepth=4, nrequests=24, tenant=tenant)
            proc = fw.env.process(fw.run_fio(job))
            fw.env.run()
            if not proc.ok:
                raise proc.value
            digest.update(fw.tracer.export_chrome_trace(out / f"{i}.json").read_bytes())
            digest.update(fw.tracer.export_csv(out / f"{i}.csv").read_bytes())
    return digest.hexdigest()


def span_forest_digest() -> str:
    """Digest of ``export_span_trees`` for the :data:`SPAN_FOREST_SCENARIOS`
    profile runs on the DeLiBA-K stack."""
    from ..obs.export import export_span_trees
    from ..obs.profile import run_profile

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in SPAN_FOREST_SCENARIOS:
            report = run_profile(scenario, framework="delibak")
            path = export_span_trees(report.roots, pathlib.Path(tmp) / f"{scenario}.json")
            digest.update(path.read_bytes())
    return digest.hexdigest()


#: Canonical run name -> (digest file name, digest function).
CANONICAL_RUNS = {
    "fig6": ("fig6.sha256", fig6_digest),
    "chaos-smoke": ("chaos-smoke.sha256", chaos_smoke_digest),
    "trace-view": ("trace-view.sha256", trace_view_digest),
    "span-forest": ("span-forest.sha256", span_forest_digest),
}


def read_golden(name: str, directory: Optional[pathlib.Path] = None) -> Optional[str]:
    """Recorded digest for ``name`` (None when not yet recorded)."""
    directory = directory or GOLDEN_DIR
    path = directory / CANONICAL_RUNS[name][0]
    if not path.exists():
        return None
    return path.read_text().strip()


def record(directory: Optional[pathlib.Path] = None) -> dict[str, str]:
    """Run every canonical run and write its digest file."""
    directory = directory or GOLDEN_DIR
    directory.mkdir(parents=True, exist_ok=True)
    out = {}
    for name, (fname, fn) in CANONICAL_RUNS.items():
        digest = fn()
        (directory / fname).write_text(digest + "\n")
        out[name] = digest
    return out


def check(directory: Optional[pathlib.Path] = None) -> tuple[bool, list[str]]:
    """Re-run the canonical runs against the recorded digests.

    Returns ``(ok, report_lines)``; missing recordings count as failures
    (run with ``--update`` first).
    """
    directory = directory or GOLDEN_DIR
    ok = True
    lines = []
    for name, (_fname, fn) in CANONICAL_RUNS.items():
        want = read_golden(name, directory)
        got = fn()
        if want is None:
            ok = False
            lines.append(f"{name}: NOT RECORDED (got {got})")
        elif got != want:
            ok = False
            lines.append(f"{name}: MISMATCH recorded={want} got={got}")
        else:
            lines.append(f"{name}: OK ({got[:16]}...)" if len(got) > 20 else f"{name}: OK ({got})")
    return ok, lines
