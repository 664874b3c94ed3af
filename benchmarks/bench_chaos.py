"""Chaos reproduction: availability and tail latency under injected faults.

Not a paper figure — validates the fault-tolerance datapath: a replica
crash mid-run must be absorbed by retry/failover with zero client-visible
errors, and message-level chaos must cost tail latency, not correctness.
"""

from repro.bench.chaos import exp_chaos


def test_chaos_fault_tolerance(report):
    result = exp_chaos(smoke=True)
    report(result)
    rows = {r[0]: r for r in result.rows}
    # Every scenario completes with full availability (errors are retried
    # away, never surfaced to the client).
    for name, row in rows.items():
        assert row[2] == 0, f"{name}: {row[2]} client-visible errors"
        assert row[3] == 100.0, f"{name}: availability {row[3]}%"
    # The crash scenario actually exercised the fault path.
    crash = rows["crash-replica"]
    assert crash[8] + crash[10] > 0, "crash run saw no retries or failovers"
    # Faults cost tail latency: lossy fabric p99 well above baseline p99.
    assert rows["lossy-fabric"][5] > rows["baseline"][5]
    assert "determinism (same seed, two runs): PASS" in result.notes
