"""Tests for the six-stage lifecycle view and the command-line interface."""

import pytest

from repro.cli import main
from repro.deliba import DELIBA2, DELIBAK, build_framework
from repro.errors import ReproError
from repro.obs import STAGES, CausalTracer
from repro.sim import Environment
from repro.units import kib
from repro.workloads import FioJob


def _request(tracer, rid):
    """A root filed under block-layer request ``rid``."""
    return tracer.start_root("write", req_id=rid)


# --- stage view unit tests ----------------------------------------------------


def test_tracer_begin_end_span():
    env = Environment()
    tracer = CausalTracer(env)
    span = _request(tracer, 1).child("fabric", "net")
    env.run(until=500)
    span.finish()
    assert tracer.summary()["fabric"] == pytest.approx(0.5)


def test_tracer_record_retrospective():
    tracer = CausalTracer(Environment())
    _request(tracer, 7).record("qdma", "dma", 100, 400)
    assert tracer.summary()["qdma"] == pytest.approx(0.3)


def test_tracer_record_validation():
    tracer = CausalTracer(Environment())
    with pytest.raises(ReproError):
        _request(tracer, 1).record("qdma", "dma", 400, 100)


def test_tracer_summary_and_total():
    tracer = CausalTracer(Environment())
    first = _request(tracer, 1)
    first.record("fabric", "net", 0, 60_000)
    first.record("qdma", "dma", 60_000, 62_000)
    first.finish(end_ns=62_000)
    second = _request(tracer, 2)
    second.record("fabric", "net", 0, 40_000)
    second.finish(end_ns=40_000)
    summary = tracer.summary()
    assert summary["fabric"] == pytest.approx(50.0)
    assert summary["qdma"] == pytest.approx(2.0)
    assert first.duration_ns == 62_000
    # The sum row sets the stage means (50 + 2 us) against the mean
    # latency of the completed requests (51 us).
    assert tracer.breakdown_table().splitlines()[-2].startswith(
        "sum          52.00  102.0% of 51.00 us"
    )


def test_tracer_empty_summary():
    assert CausalTracer(Environment()).summary() == {}


def test_breakdown_table_renders():
    tracer = CausalTracer(Environment())
    _request(tracer, 1).record("fabric", "net", 0, 50_000)
    out = tracer.breakdown_table()
    assert "fabric" in out and "%" in out


# --- stage view integration ----------------------------------------------------


def test_traced_framework_covers_stages():
    fw = build_framework(DELIBAK, obs=True)
    job = FioJob("t", "randwrite", bs=kib(4), iodepth=1, nrequests=10)
    proc = fw.env.process(fw.run_fio(job))
    fw.env.run()
    assert proc.ok
    summary = fw.tracer.summary()
    for stage in ("rings", "qdma", "accel", "fabric", "complete"):
        assert stage in summary, f"stage {stage} missing from {summary}"
    # Fabric (network + OSD) must dominate the 4 kB write path.
    assert summary["fabric"] > 0.5 * sum(summary.values())
    # Stage sum roughly accounts for end-to-end latency.
    assert sum(summary.values()) <= proc.value.mean_latency_us() * 1.1


def test_breakdown_table_shows_cost_outside_the_stages():
    """On the NBD stack the daemon's IPC crossings and copies lie outside
    the six stages; the sum row shows the gap to the measured mean."""
    fw = build_framework(DELIBA2, obs=True)
    job = FioJob("t", "randwrite", bs=kib(4), iodepth=1, nrequests=20)
    proc = fw.env.process(fw.run_fio(job))
    fw.env.run()
    assert proc.ok
    mean_us = proc.value.mean_latency_us()
    staged = sum(v for k, v in fw.tracer.summary().items() if k != "incomplete")
    assert staged < 0.9 * mean_us
    sum_row = fw.tracer.breakdown_table().splitlines()[-1]
    assert sum_row.startswith("sum")
    assert f"{staged / mean_us:.1%} of {mean_us:.2f} us mean request latency" in sum_row


def test_untraced_framework_has_no_tracer():
    fw = build_framework(DELIBAK)
    assert fw.tracer is None


def test_stage_names_canonical():
    assert STAGES == ("rings", "dmq", "qdma", "accel", "fabric", "complete")


# --- cli -------------------------------------------------------------------------


def test_cli_frameworks(capsys):
    assert main(["frameworks"]) == 0
    out = capsys.readouterr().out
    assert "delibak" in out and "rtl-fpga-tcp" in out


def test_cli_fio(capsys):
    code = main(["fio", "--framework", "delibak", "--rw", "randread",
                 "--nrequests", "20", "--iodepth", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean latency" in out and "MB/s" in out


def test_cli_fio_erasure_pool(capsys):
    code = main(["fio", "--framework", "delibak", "--rw", "randwrite",
                 "--pool", "erasure", "--nrequests", "10"])
    assert code == 0


def test_cli_experiment_power(capsys):
    assert main(["experiment", "power"]) == 0
    out = capsys.readouterr().out
    assert "195" in out


def test_cli_trace(capsys):
    assert main(["trace", "--nrequests", "10"]) == 0
    out = capsys.readouterr().out
    assert "fabric" in out


def test_cli_trace_rejects_software_framework(capsys):
    assert main(["trace", "--framework", "software-ceph"]) == 2


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_cli_fio_prints_percentiles(capsys):
    assert main(["fio", "--nrequests", "30", "--iodepth", "2"]) == 0
    out = capsys.readouterr().out
    assert "p99" in out


def test_cli_replay(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("W 0 4096\nR 0 4096\n")
    assert main(["replay", str(trace), "--iodepth", "1"]) == 0
    out = capsys.readouterr().out
    assert "replayed 2 I/Os" in out


def test_cli_sweep(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    code = main(["sweep", "--frameworks", "delibak", "--rw", "randread",
                 "--bs", "4096", "--iodepth", "1", "--csv", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "sweep" in out and csv_path.exists()
