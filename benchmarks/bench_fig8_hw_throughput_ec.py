"""Fig. 8 reproduction: hardware EC throughput, D2 vs D-K."""

from repro.bench import exp_fig8


def test_fig8_hw_throughput_ec(report):
    result = exp_fig8()
    report(result)
    for row in result.rows:
        workload, bs, d2, dk = row
        assert dk > d2, f"{workload}@{bs}: D-K {dk} !> D2 {d2}"
