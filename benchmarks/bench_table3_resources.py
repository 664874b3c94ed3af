"""Table III reproduction: U280 resource utilization."""

import pytest

from repro.bench import exp_table3
from repro.bench.paper_data import TABLE3_RMS, TABLE3_STATIC


def test_table3_resources(report):
    result = exp_table3()
    report(result)
    rows = {r[0]: r for r in result.rows}
    for module, paper in TABLE3_STATIC.items():
        assert rows[module][2] == paper[0]  # LUT counts match exactly
        assert rows[module][3] == pytest.approx(paper[1], abs=0.35)
    for rm, paper in TABLE3_RMS.items():
        assert rows[rm][3] == pytest.approx(paper[1], abs=0.35)
