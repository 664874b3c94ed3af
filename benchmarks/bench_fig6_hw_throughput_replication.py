"""Fig. 6 reproduction: hardware replication throughput, D1/D2/D-K."""

from repro.bench import exp_fig6
from repro.units import kib


def test_fig6_hw_throughput_replication(report):
    result = exp_fig6()
    report(result)
    grid = {(r[0], r[1]): r[2:5] for r in result.rows}  # (d1, d2, dk)
    # D-K wins every cell; D2 beats D1 on random writes.
    for key, (d1, d2, dk) in grid.items():
        assert dk > d2, f"{key}: D-K {dk} !> D2 {d2}"
    d1, d2, dk = grid[("rand-write", kib(4))]
    assert d2 > d1
    # Paper checkpoints: 4 kB rand-write speedup ~3.45x, 128 kB seq-write ~2x.
    assert 2.0 < dk / d2 < 5.0, f"rand-write 4k speedup {dk / d2:.2f} vs paper 3.45"
    _, d2s, dks = grid[("seq-write", kib(128))]
    assert 1.5 < dks / d2s < 3.2, f"seq-write 128k speedup {dks / d2s:.2f} vs paper 2.0"
