"""Section V-c reproduction: full-load power with/without DFX."""

import pytest

from repro.bench import exp_power
from repro.bench.paper_data import POWER_NO_PR_W, POWER_WITH_PR_W


def test_power_scenarios(report):
    result = exp_power()
    report(result)
    no_pr = result.rows[0][1]
    with_pr = result.rows[1][1]
    assert no_pr == pytest.approx(POWER_NO_PR_W, abs=8)
    assert with_pr == pytest.approx(POWER_WITH_PR_W, abs=8)
    assert no_pr - with_pr > 15  # PR saves ~25 W
