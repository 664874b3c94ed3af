"""Fig. 9 reproduction: hardware EC KIOPS, D2 vs D-K."""

from repro.bench import exp_fig9


def test_fig9_hw_kiops_ec(report):
    result = exp_fig9()
    report(result)
    grid = {(r[0], r[1]): (r[2], r[3]) for r in result.rows}
    for key, (d2, dk) in grid.items():
        assert dk > d2, f"{key}: D-K {dk} !> D2 {d2}"
    # Related work cites D-K peaking at ~59 KIOPS: check the small-block peak
    # is in that order of magnitude.
    peak = max(dk for _, dk in grid.values())
    assert 15 < peak < 200, f"D-K peak KIOPS {peak} implausible vs paper's ~59"
