"""Table II reproduction: 4 kB end-to-end latency across hardware stacks."""

from repro.bench import exp_table2
from repro.bench.paper_data import TABLE2_ERASURE, TABLE2_REPLICATION


def test_table2_latency(report):
    result = exp_table2()
    report(result)
    rows = {(r[0], r[1]): r[2:6] for r in result.rows}
    # Orderings: D-K < D2 < D1 on every replication column.
    for col in range(4):
        assert rows[("replicated", "D-K")][col] < rows[("replicated", "D2")][col]
        assert rows[("replicated", "D2")][col] < rows[("replicated", "D1")][col]
        assert rows[("erasure", "D-K")][col] < rows[("erasure", "D2")][col]
    # Magnitudes near the paper's cells.  EC gets a looser bound: the
    # paper's EC latencies sit *below* its replication ones (48 us
    # seq-read), which a k-shard gather cannot mechanistically beat; see
    # EXPERIMENTS.md.
    for (pool, label, paper) in (
        ("replicated", "D-K", TABLE2_REPLICATION["delibak"]),
        ("replicated", "D2", TABLE2_REPLICATION["deliba2"]),
        ("replicated", "D1", TABLE2_REPLICATION["deliba1"]),
        ("erasure", "D-K", TABLE2_ERASURE["delibak"]),
        ("erasure", "D2", TABLE2_ERASURE["deliba2"]),
    ):
        cap = 1.8 if pool == "replicated" else 2.1
        for measured, reference in zip(rows[(pool, label)], paper):
            assert 0.5 < measured / reference < cap, (
                f"{pool}/{label}: {measured} us vs paper {reference} us"
            )
