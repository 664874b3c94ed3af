"""The null span and null tracer: what every layer of an untraced stack
sees instead of a span tree."""

import pytest

from repro.deliba import DELIBAK, build_framework
from repro.obs import NULL_SPAN, NULL_TRACER, FlightRecorder, wrap_span
from repro.obs.slowop import SlowOpRecord
from repro.sim import Environment
from repro.units import kib
from repro.workloads import FioJob


def test_null_span_returns_itself_and_keeps_nothing():
    assert NULL_SPAN.child("fabric", "net", attempt=2) is NULL_SPAN
    assert NULL_SPAN.record("qdma", "dma", 400, 100, dir="h2c") is NULL_SPAN
    assert NULL_SPAN.finish(end_ns=500, ok=False, moved=3) is None
    assert NULL_SPAN.annotate(req_id=7, tenant="gold") is None
    assert dict(NULL_SPAN.meta) == {} and not NULL_SPAN.complete
    with pytest.raises(AttributeError):
        NULL_SPAN.end_ns = 5


def test_null_span_meta_cannot_be_written():
    with pytest.raises(TypeError):
        NULL_SPAN.meta["merged_bios"] = 1
    assert dict(NULL_SPAN.meta) == {}


def test_null_tracer_leaves_ops_untouched():
    from repro.blk import Bio, IoOp, Request

    bio = Bio(IoOp.WRITE, 0, kib(4), tenant="gold")
    request = Request([bio])
    NULL_TRACER.open_root(bio)
    NULL_TRACER.bind_request(request, bio)
    assert "obs_span" not in vars(bio) and "obs_span" not in vars(request)
    assert bio.obs_span is NULL_SPAN and request.obs_span is NULL_SPAN


def test_untraced_run_adds_no_per_bio_state():
    fw = build_framework(DELIBAK, seed=0)
    bios = FioJob("t", "randwrite", bs=kib(4), iodepth=4, nrequests=12).make_bios(
        fw.rng.stream("null")
    )
    proc = fw.env.process(fw.engine.run(bios, 4))
    fw.env.run()
    assert proc.ok and proc.value.ios == 12
    assert all("obs_span" not in vars(bio) for bio in bios)


def test_traced_run_gives_each_bio_its_own_root():
    fw = build_framework(DELIBAK, seed=0, obs=True)
    bios = FioJob("t", "randwrite", bs=kib(4), iodepth=4, nrequests=12).make_bios(
        fw.rng.stream("null")
    )
    proc = fw.env.process(fw.engine.run(bios, 4))
    fw.env.run()
    assert proc.ok
    roots = {id(bio.obs_span) for bio in bios}
    assert len(roots) == 12 and roots == {id(root) for root in fw.tracer.roots}


def test_flight_recorder_treats_null_span_as_no_tree():
    recorder = FlightRecorder(capacity=4)
    recorder.retain(NULL_SPAN)
    assert recorder.retained == 0 and len(recorder.ring) == 0
    record = SlowOpRecord(
        seq=1, op_class="write", origin="client", tenant="", latency_ns=9_000,
        threshold_ns=1_000, end_ns=9_000,
    )
    assert recorder.promote(record, NULL_SPAN) is None
    assert recorder.missed == 1 and recorder.promoted == 0


def test_wrap_span_with_null_span_is_a_passthrough():
    env = Environment()

    def leg():
        yield env.timeout(10)
        return "done"

    proc = env.process(wrap_span(NULL_SPAN, leg()))
    env.run()
    assert proc.value == "done" and env.now == 10
