"""Section VI comparison points: tail latency and peak IOPS.

The paper positions DeLiBA-K against Electrode (99th-percentile 49 us,
65K IOPS; DeLiBA-K: 40 us p99, 59K IOPS max) and UrsaX (<100 us 4 kB
random I/O).  This bench measures the simulated DeLiBA-K's p99 latency
and peak small-block KIOPS and checks they land in the cited league.
"""

from repro.bench.paper_data import MAX_KIOPS_DELIBAK, P99_LATENCY_US_DELIBAK
from repro.deliba import DELIBAK, run_job_on
from repro.units import kib, mib
from repro.workloads import FioJob


def run_related_work():
    lat = run_job_on(
        DELIBAK, FioJob("p99", "randread", bs=kib(4), iodepth=1, nrequests=200, size=mib(64))
    )
    peak = run_job_on(
        DELIBAK, FioJob("peak", "randread", bs=kib(4), iodepth=16, nrequests=400, size=mib(64))
    )
    return {
        "p99_us": lat.p99_latency_us(),
        "mean_us": lat.mean_latency_us(),
        "peak_kiops": peak.kiops(),
    }


def test_related_work_comparison(report):
    m = run_related_work()
    from repro.bench.experiments import ExperimentResult

    result = ExperimentResult(
        "related-work",
        "Section VI comparison points (D-K)",
        ["metric", "measured", "paper"],
        [
            ["p99 latency (4 kB rand-read, us)", round(m["p99_us"], 1), P99_LATENCY_US_DELIBAK],
            ["mean latency (us)", round(m["mean_us"], 1), "~64 (Table II)"],
            ["peak small-block KIOPS", round(m["peak_kiops"], 1), MAX_KIOPS_DELIBAK],
        ],
        notes="paper cites p99 40 us vs Electrode's 49 us, and 59K IOPS max; "
        "UrsaX does <100 us 4 kB I/O — D-K must stay well under that.",
    )
    report(result)
    # In the cited league: p99 under UrsaX's 100 us.  Peak KIOPS runs
    # above the paper's 59K because the prototype's per-request FSM
    # serialization ceiling is not modeled (our card pipelines requests);
    # require the same order of magnitude.
    assert m["p99_us"] < 100.0
    assert MAX_KIOPS_DELIBAK / 3 < m["peak_kiops"] < MAX_KIOPS_DELIBAK * 5
