"""Tests for the six-stage exports (Chrome trace JSON, CSV) and their
edge cases."""

import csv
import json

import pytest

from repro.cli import main
from repro.deliba import DELIBAK, build_framework
from repro.obs import STAGES, CausalTracer, stage_spans, stage_tenants
from repro.sim import Environment
from repro.units import kib
from repro.workloads import FioJob


def _traced_run(nrequests=10, seed=0):
    fw = build_framework(DELIBAK, obs=True, seed=seed)
    job = FioJob("t", "randwrite", bs=kib(4), iodepth=1, nrequests=nrequests)
    proc = fw.env.process(fw.run_fio(job))
    fw.env.run()
    assert proc.ok
    return fw


# --- chrome trace export ------------------------------------------------------


def test_chrome_trace_is_valid_json(tmp_path):
    fw = _traced_run()
    path = fw.tracer.export_chrome_trace(tmp_path / "trace.json")
    doc = json.loads(path.read_text())
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert spans
    for e in spans:
        assert e["name"] in STAGES
        assert e["ts"] >= 0 and e["dur"] >= 0
        assert e["pid"] == 0 and isinstance(e["tid"], int)
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert meta and meta[0]["args"]["name"]


def test_chrome_trace_span_nesting_and_ordering(tmp_path):
    fw = _traced_run()
    doc = fw.tracer.to_chrome_trace()
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    # Global stream is ordered by start time.
    starts = [e["args"]["start_ns"] for e in spans]
    assert starts == sorted(starts)
    # Each stage renders as its own lane (tid = canonical stage index).
    for e in spans:
        assert e["tid"] == STAGES.index(e["name"])
    # Per request: spans are well-formed, begin with ring submission, and
    # the completion stage ends the lifecycle.
    by_req = {}
    for e in spans:
        by_req.setdefault(e["args"]["request_id"], []).append(e)
    assert len(by_req) == 10
    for rid, evs in by_req.items():
        for e in evs:
            assert e["args"]["end_ns"] >= e["args"]["start_ns"]
        assert evs[0]["name"] == "rings"
        last_end = max(e["args"]["end_ns"] for e in evs)
        complete = [e for e in evs if e["name"] == "complete"]
        assert complete and complete[-1]["args"]["end_ns"] == last_end
        # Stage spans nest inside the request's total window.
        lo = evs[0]["args"]["start_ns"]
        assert all(e["args"]["start_ns"] >= lo for e in evs)


def test_csv_export_matches_span_stream(tmp_path):
    fw = _traced_run()
    path = fw.tracer.export_csv(tmp_path / "spans.csv")
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["request_id", "tenant", "stage", "start_ns", "end_ns", "duration_ns"]
    body = rows[1:]
    assert len(body) == len(stage_spans(fw.tracer.roots))
    for rid, tenant, stage, start, end, dur in body:
        assert stage in STAGES
        assert int(end) - int(start) == int(dur)


def test_tenant_tags_thread_into_chrome_lanes_and_csv(tmp_path):
    tracer = CausalTracer(Environment())
    first = tracer.start_root("write", req_id=1)
    first.record("rings", "stage", 0, 10)
    first.record("complete", "stage", 10, 20)
    second = tracer.start_root("write", req_id=2, tenant="tenant-a")
    second.record("rings", "stage", 5, 15)
    second.record("complete", "stage", 15, 25)
    tracer.start_root("write", req_id=3, tenant="")  # empty tag: untagged
    assert stage_tenants(tracer.roots) == {2: "tenant-a"}

    doc = tracer.to_chrome_trace()
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    lanes = {e["args"]["name"]: e["tid"]
             for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    # Untagged request stays on the base stage lanes; tagged request
    # gets per-tenant lanes named "<stage> [<tenant>]".
    untagged = [e for e in spans if e["args"]["request_id"] == 1]
    tagged = [e for e in spans if e["args"]["request_id"] == 2]
    assert {e["tid"] for e in untagged} == {STAGES.index("rings"), STAGES.index("complete")}
    assert all("tenant" not in e["args"] for e in untagged)
    assert {e["tid"] for e in tagged} == {lanes["rings [tenant-a]"], lanes["complete [tenant-a]"]}
    assert all(e["args"]["tenant"] == "tenant-a" for e in tagged)
    # Tenant lanes never collide with the base block (0..len(STAGES)).
    assert min(lanes["rings [tenant-a]"], lanes["complete [tenant-a]"]) > len(STAGES)

    path = tracer.export_csv(tmp_path / "spans.csv")
    with path.open() as fh:
        rows = list(csv.reader(fh))
    by_req = {row[0]: row[1] for row in rows[1:]}
    assert by_req == {"1": "", "2": "tenant-a"}


def test_tenant_tag_flows_from_fio_job_to_export():
    fw = build_framework(DELIBAK, obs=True, seed=0)
    job = FioJob("t", "randwrite", bs=kib(4), iodepth=1, nrequests=5, tenant="gold")
    proc = fw.env.process(fw.run_fio(job))
    fw.env.run()
    assert proc.ok
    assert set(stage_tenants(fw.tracer.roots).values()) == {"gold"}
    doc = fw.tracer.to_chrome_trace()
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert spans and all(e["args"]["tenant"] == "gold" for e in spans)
    names = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
             and e["name"] == "thread_name"}
    assert any(n.endswith("[gold]") for n in names)


def test_export_deterministic_across_seeded_runs(tmp_path):
    a = _traced_run(seed=7)
    b = _traced_run(seed=7)
    assert json.dumps(a.tracer.to_chrome_trace()) == json.dumps(b.tracer.to_chrome_trace())


def test_cli_trace_export(tmp_path, capsys):
    out_json = tmp_path / "out.json"
    out_csv = tmp_path / "out.csv"
    code = main(["trace", "--nrequests", "5",
                 "--export", str(out_json), "--export-csv", str(out_csv)])
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["traceEvents"]
    assert out_csv.read_text().startswith("request_id,tenant,stage")


# --- stage view edge cases ----------------------------------------------------


def test_unclosed_spans_excluded_from_export():
    env = Environment()
    tracer = CausalTracer(env)
    root = tracer.start_root("write", req_id=1)
    rings = root.child("rings", "stage")
    env.run(until=100)
    rings.finish()
    root.child("fabric", "net")  # never closed
    tracer.start_root("write").record("rings", "stage", 0, 5)  # never reached blk-mq
    assert [(rid, s.name) for rid, s in stage_spans(tracer.roots)] == [(1, "rings")]


def test_nested_distinct_stages_allowed():
    env = Environment()
    tracer = CausalTracer(env)
    root = tracer.start_root("write", req_id=1)
    fabric = root.child("fabric", "net")
    accel = root.child("accel", "compute")  # overlaps fabric: fine, distinct stage
    env.run(until=50)
    accel.finish()
    env.run(until=80)
    fabric.finish()
    summary = tracer.summary()
    assert summary["fabric"] == pytest.approx(0.08)
    assert summary["accel"] == pytest.approx(0.05)


def test_zero_duration_span_counts_in_summary():
    tracer = CausalTracer(Environment())
    tracer.start_root("write", req_id=1).record("dmq", "queue", 100, 100)  # instantaneous
    tracer.start_root("write", req_id=2).record("dmq", "queue", 100, 300)
    summary = tracer.summary()
    # Both requests entered dmq; dropping the zero-duration visit would
    # report 0.2 us instead of the true 0.1 us mean.
    assert summary["dmq"] == pytest.approx(0.1)


def test_summary_and_table_on_empty_trace():
    tracer = CausalTracer(Environment())
    assert tracer.summary() == {}
    assert "stage" in tracer.breakdown_table()


def test_summary_on_single_request():
    tracer = CausalTracer(Environment())
    tracer.start_root("write", req_id=1).record("fabric", "net", 0, 4_000)
    summary = tracer.summary()
    # The request never reached "complete", so the summary says so
    # explicitly instead of silently dropping it from the denominator.
    assert summary == {"fabric": pytest.approx(4.0), "incomplete": 1}
    table = tracer.breakdown_table()
    assert "100.0%" in table
    assert "never reached complete" in table


def test_export_empty_tracer(tmp_path):
    tracer = CausalTracer(Environment())
    doc = tracer.to_chrome_trace()
    assert [e["ph"] for e in doc["traceEvents"]] == ["M"]
    path = tracer.export_csv(tmp_path / "empty.csv")
    assert path.read_text().strip() == "request_id,tenant,stage,start_ns,end_ns,duration_ns"
