"""Abstract/Section V reproduction: ~30% execution-time reduction on
real-world OLAP/OLTP workloads."""

from repro.bench import exp_realworld


def test_realworld_olap_oltp(report):
    result = exp_realworld()
    report(result)
    for row in result.rows:
        workload, d2, dk, reduction, _paper = row
        assert dk < d2, f"{workload}: D-K {dk} !< D2 {d2}"
        pct = float(reduction.rstrip("%"))
        assert 15 <= pct <= 45, f"{workload}: reduction {pct}% too far from paper's ~30%"
