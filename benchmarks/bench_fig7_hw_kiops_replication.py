"""Fig. 7 reproduction: hardware replication KIOPS, D1/D2/D-K."""

from repro.bench import exp_fig7
from repro.bench.paper_data import HEADLINE_IOPS_SPEEDUP
from repro.units import kib


def test_fig7_hw_kiops_replication(report):
    result = exp_fig7()
    report(result)
    grid = {(r[0], r[1]): r[2:5] for r in result.rows}
    for key, (d1, d2, dk) in grid.items():
        assert dk > d2 > 0, f"{key}: ordering broken"
    # Small-block random KIOPS gain should be in the headline's 3.2x league.
    _, d2, dk = grid[("rand-write", kib(4))]
    assert 2.0 < dk / d2 < 5.0, f"KIOPS speedup {dk / d2:.2f} vs paper ~{HEADLINE_IOPS_SPEEDUP}"
