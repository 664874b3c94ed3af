"""Table I reproduction: per-kernel SW profile vs RTL vs FPGA execution."""

from repro.bench import exp_table1
from repro.bench.paper_data import TABLE1


def test_table1_kernels(report):
    result = exp_table1()
    report(result)
    measured = {row[0]: row[5] for row in result.rows}
    for kernel, paper_row in TABLE1.items():
        paper_hw = paper_row[4]
        assert abs(measured[kernel] - paper_hw) / paper_hw < 0.25, (
            f"{kernel}: simulated standalone {measured[kernel]} us vs paper {paper_hw} us"
        )
