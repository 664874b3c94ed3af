"""Client block cache: hit-ratio/mode sweep.

Not a paper figure — validates the Open-CAS-style cache tier added in
front of the RBD image.  As a pytest benchmark it runs the full mode
sweep and asserts the qualitative shape (write-back beats write-through
on a skewed mix, the hit-ratio curve never dips as capacity grows).  The
seeded invariant battery, including the pass-through identity check, is
``python -m repro smoke cache``.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_cache.py
"""

from __future__ import annotations


def test_cache_mode_sweep(report):
    from repro.bench.cachebench import exp_cache

    result = exp_cache()
    report(result)
    rows = {r[0]: r for r in result.rows}
    # Pass-through is indistinguishable from uncached.
    assert rows["cache-pt"][3] == rows["uncached"][3], "PT changed mean latency"
    assert rows["cache-pt"][4] == rows["uncached"][4], "PT changed throughput"
    # Write-back beats write-through on the skewed mix (same workload row).
    assert float(rows["cache-wb"][3]) < float(rows["cache-wt"][3])
    # Hit ratio never falls as the capacity sweep grows.
    curve = [float(rows[f"wt-{n}ln"][2]) for n in (16, 64, 256, 1024)]
    assert all(a <= b + 1e-9 for a, b in zip(curve, curve[1:]))
    # A warm write-back cache actually flushed dirty data in the background.
    assert int(rows["cache-wb"][5]) > 0

