"""Fig. 3 reproduction: software baselines, replication mode.

Latency and throughput of 4 kB and 128 kB I/Os with DeLiBA-K's io_uring
host stack vs DeLiBA-2's NBD stack, both without FPGA acceleration.
"""

from repro.bench import exp_fig3
from repro.units import kib


def test_fig3_sw_replication(report):
    result = exp_fig3()
    report(result)
    lat = {(r[1], r[2]): (r[3], r[4]) for r in result.rows if r[0] == "latency-us"}
    # DeLiBA-K's software stack must beat DeLiBA-2's on every 4 kB workload.
    for workload in ("seq-read", "seq-write", "rand-read", "rand-write"):
        d2, dk = lat[(workload, kib(4))]
        assert dk < d2, f"{workload}: D-K sw {dk} !< D2 sw {d2}"
    # Paper checkpoint: rand-read 4 kB drops from ~130 to ~85 us.
    d2, dk = lat[("rand-read", kib(4))]
    assert 0.5 < dk / 85.0 < 1.5, f"D-K sw rand-read {dk} too far from paper 85 us"
    assert 0.5 < d2 / 130.0 < 1.5, f"D2 sw rand-read {d2} too far from paper 130 us"
