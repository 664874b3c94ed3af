"""Abstract headline reproduction: up to 3.2x IOPS / 3.45x throughput."""


def test_headline_speedups(report):
    from repro.bench import exp_headline

    result = exp_headline()
    report(result)
    speedups = {row[0]: row[1] for row in result.rows}
    assert 2.0 < speedups["max throughput speedup"] < 5.5
    assert 2.0 < speedups["max IOPS speedup"] < 5.5
