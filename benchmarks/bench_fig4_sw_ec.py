"""Fig. 4 reproduction: software baselines, erasure-coding mode."""

from repro.bench import exp_fig4
from repro.units import kib


def test_fig4_sw_ec(report):
    result = exp_fig4()
    report(result)
    lat = {(r[1], r[2]): (r[3], r[4]) for r in result.rows if r[0] == "latency-us"}
    for workload in ("rand-read", "rand-write"):
        d2, dk = lat[(workload, kib(4))]
        assert dk < d2, f"{workload}: D-K sw {dk} !< D2 sw {d2}"
    # EC throughput gains noted against the paper's 2.4x / 2.88x.
    assert "x (paper" in result.notes
