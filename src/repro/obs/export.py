"""Span-tree and telemetry export: Perfetto-compatible JSON + folded stacks.

The document uses the Chrome trace-event format Perfetto ingests
natively.  Lanes are real this time (satellite of ISSUE 5): each
datapath layer gets its own thread track, each OSD fan-out leg gets a
per-target lane under its layer, and every ``obs.*`` TimeSeries
becomes a counter track on its own process — so a replicated write's
three replica legs render as three parallel bars instead of one
overdrawn rectangle.

pid layout:
  0 — request span trees (one tid per lane, metadata-named)
  1 — resource counter tracks

The same forest also renders as the paper's six-stage lifecycle view
(:data:`STAGES`): a per-stage latency summary, a Chrome trace with one
lane per stage (plus per-tenant lanes) and a flat CSV of stage spans.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from .context import SpanNode

SPAN_PID = 0
COUNTER_PID = 1

_FANOUT_KINDS = frozenset({"rpc", "fanout"})


class _LaneTable:
    """Stable lane (tid) assignment: first-seen order, so two seeded
    runs export byte-identical documents."""

    def __init__(self):
        self.lanes: dict[str, int] = {}

    def tid(self, lane: str) -> int:
        tid = self.lanes.get(lane)
        if tid is None:
            tid = len(self.lanes)
            self.lanes[lane] = tid
        return tid


def _lane_for(span: SpanNode, depth: int, parent_lane: str) -> str:
    if depth == 0:
        return "op"
    if depth == 1:
        return span.name
    if span.kind in _FANOUT_KINDS:
        return f"{parent_lane}/{span.name}"
    return parent_lane


def _emit_span(span: SpanNode, depth: int, parent_lane: str, lanes: _LaneTable, events: list, root_id: int) -> None:
    lane = _lane_for(span, depth, parent_lane)
    if span.end_ns >= 0:
        event = {
            "name": span.name,
            "cat": span.kind,
            "ph": "X",
            # Trace-event timestamps are microseconds; keep ns resolution.
            "ts": span.start_ns / 1000.0,
            "dur": (span.end_ns - span.start_ns) / 1000.0,
            "pid": SPAN_PID,
            "tid": lanes.tid(lane),
            "args": {
                "span_id": span.span_id,
                "root_id": root_id,
                "start_ns": span.start_ns,
                "end_ns": span.end_ns,
            },
        }
        for key in sorted(span.meta):
            value = span.meta[key]
            if isinstance(value, (int, float, str, bool)):
                event["args"][key] = value
        events.append(event)
    for child in span.children:
        _emit_span(child, depth + 1, lane, lanes, events, root_id)


def to_perfetto(roots: Iterable[SpanNode], registry=None, end_ns: Optional[int] = None) -> dict:
    """Build the full trace document: span lanes + counter tracks."""
    from ..sim.monitor import TimeSeries

    lanes = _LaneTable()
    lanes.tid("op")  # the root lane always exists and always leads
    events: list[dict] = []
    for root in roots:
        _emit_span(root, 0, "op", lanes, events, root_id=root.span_id)
    events.sort(key=lambda e: (e["ts"], e["tid"], e["args"]["span_id"]))

    meta: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": SPAN_PID,
            "tid": 0,
            "args": {"name": "repro datapath"},
        }
    ]
    for lane, tid in lanes.lanes.items():
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": SPAN_PID,
                "tid": tid,
                "args": {"name": lane},
            }
        )

    counters: list[dict] = []
    if registry is not None:
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": COUNTER_PID,
                "tid": 0,
                "args": {"name": "resources"},
            }
        )
        for name, metric in registry.collect("obs.").items():
            if not isinstance(metric, TimeSeries):
                continue
            for t, v in zip(metric.times, metric.values):
                if end_ns is not None and t > end_ns:
                    break
                counters.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": t / 1000.0,
                        "pid": COUNTER_PID,
                        "tid": 0,
                        "args": {"value": v},
                    }
                )
    return {"traceEvents": meta + events + counters, "displayTimeUnit": "ns"}


def export_perfetto(roots: Iterable[SpanNode], path, registry=None, end_ns: Optional[int] = None) -> Path:
    path = Path(path)
    path.write_text(json.dumps(to_perfetto(roots, registry, end_ns), indent=1))
    return path


#: Keys every "X" event must carry for Perfetto to lane it correctly.
_REQUIRED_SPAN_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args")


def validate_trace_document(doc: dict) -> list[str]:
    """Schema check for exported documents (used by the profile smoke).

    Returns a list of problems; empty means the document is well-formed:
    every span event complete and non-negative, every referenced lane
    named by metadata, counters numeric and time-ordered per series.
    """
    problems: list[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    named_lanes: set[tuple[int, int]] = set()
    for e in events:
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            if not e.get("args", {}).get("name"):
                problems.append(f"unnamed thread metadata: {e!r}")
            named_lanes.add((e.get("pid"), e.get("tid")))
    counter_clock: dict[tuple, float] = {}
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph == "X":
            missing = [k for k in _REQUIRED_SPAN_KEYS if k not in e]
            if missing:
                problems.append(f"event {i}: missing {missing}")
                continue
            if e["ts"] < 0 or e["dur"] < 0:
                problems.append(f"event {i}: negative ts/dur")
            if (e["pid"], e["tid"]) not in named_lanes:
                problems.append(f"event {i}: lane ({e['pid']},{e['tid']}) has no thread_name")
            args = e["args"]
            if "start_ns" in args and "end_ns" in args and args["end_ns"] < args["start_ns"]:
                problems.append(f"event {i}: end_ns < start_ns")
        elif ph == "C":
            value = e.get("args", {}).get("value")
            if not isinstance(value, (int, float)):
                problems.append(f"counter {i}: non-numeric value")
                continue
            key = (e.get("pid"), e.get("name"))
            last = counter_clock.get(key)
            if last is not None and e["ts"] < last:
                problems.append(f"counter {i}: timestamps go backwards for {e.get('name')}")
            counter_clock[key] = e["ts"]
        elif ph != "M":
            problems.append(f"event {i}: unknown phase {ph!r}")
    return problems


def folded_stacks(folded: dict[tuple[str, ...], int]) -> str:
    """Render an aggregated folded mapping as flamegraph.pl input.

    One line per stack — ``root;stage;leaf <ns>`` — sorted
    lexicographically so the output is diff-stable.
    """
    lines = [f"{';'.join(stack)} {ns}" for stack, ns in folded.items() if ns > 0]
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def export_flamegraph(folded: dict[tuple[str, ...], int], path) -> Path:
    path = Path(path)
    path.write_text(folded_stacks(folded))
    return path


# -- Prometheus text exposition ---------------------------------------------------

#: Valid Prometheus metric-name characters; everything else becomes "_".
_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LEADING = re.compile(r"^[^a-zA-Z_:]")


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """Sanitize a dotted registry name into a legal Prometheus identifier.

    ``qos.limit_waits`` -> ``repro_qos_limit_waits``.  The exposition
    format requires ``[a-zA-Z_:][a-zA-Z0-9_:]*``; dotted names (and OSD
    ids like ``osd.3.op_latency``) violate it, so dots and any other
    illegal characters map to ``_`` and a leading digit gets the prefix
    in front.  The *original* name is preserved as a label by
    :func:`to_prometheus`, so the mapping stays reversible.
    """
    sanitized = _PROM_INVALID.sub("_", name)
    if prefix:
        sanitized = f"{prefix}_{sanitized}"
    if _PROM_LEADING.match(sanitized):
        sanitized = f"_{sanitized}"
    return sanitized


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash, double
    quote, and line feed must be backslash-escaped."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_number(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _prom_line(prom: str, labels: dict[str, str], value) -> str:
    body = ",".join(
        f'{k}="{escape_label_value(str(v))}"' for k, v in labels.items()
    )
    return f"{prom}{{{body}}} {_prom_number(value)}"


def to_prometheus(registry, end_ns: Optional[int] = None, prefix: str = "repro") -> str:
    """Render a whole :class:`~repro.sim.metrics.MetricsRegistry` as
    Prometheus text exposition (version 0.0.4).

    Every instrument keeps its dotted registry name in the ``metric``
    label (sanitized identifiers are lossy: ``a.b`` and ``a_b`` would
    otherwise collide).  Distributions and latency recorders expose
    ``_count``/``_sum`` plus fixed quantiles; time series expose their
    time-weighted mean closed at ``end_ns``.  Output is sorted, so two
    same-seed runs render byte-identical pages.
    """
    from ..sim.monitor import (
        Counter,
        Distribution,
        Gauge,
        LatencyRecorder,
        ThroughputMeter,
        TimeSeries,
    )

    lines: list[str] = []
    for name, metric in registry.items():
        prom = prometheus_name(name, prefix)
        labels = {"metric": name}
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {prom} counter")
            lines.append(_prom_line(prom, labels, metric.value))
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {prom} gauge")
            lines.append(_prom_line(prom, labels, metric.value))
        elif isinstance(metric, (Distribution, LatencyRecorder)):
            lines.append(f"# TYPE {prom} summary")
            samples = metric.samples
            for q in (0.5, 0.99):
                value = metric.percentile(q * 100) if isinstance(metric, Distribution) \
                    else metric.percentile_us(q * 100) * 1000.0
                lines.append(_prom_line(prom, {**labels, "quantile": repr(q)}, value))
            lines.append(_prom_line(f"{prom}_count", labels, len(samples)))
            lines.append(_prom_line(f"{prom}_sum", labels, sum(samples)))
        elif isinstance(metric, ThroughputMeter):
            lines.append(f"# TYPE {prom}_ops counter")
            lines.append(_prom_line(f"{prom}_ops", labels, metric.ops))
            lines.append(f"# TYPE {prom}_bytes counter")
            lines.append(_prom_line(f"{prom}_bytes", labels, metric.bytes))
        elif isinstance(metric, TimeSeries):
            lines.append(f"# TYPE {prom} gauge")
            lines.append(_prom_line(prom, labels, metric.time_weighted_mean(end_ns)))
    return "\n".join(lines) + ("\n" if lines else "")


def export_prometheus(registry, path, end_ns: Optional[int] = None) -> Path:
    """Write the exposition page; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_prometheus(registry, end_ns))
    return path


def export_span_trees(roots: Iterable[SpanNode], path) -> Path:
    """Raw nested JSON dump of the trees (for tooling and the
    double-run determinism test)."""
    path = Path(path)
    path.write_text(json.dumps([r.to_dict() for r in roots], indent=1))
    return path


# -- the six-stage lifecycle view -------------------------------------------------

#: The six numbered optimizations of the paper's architecture figure, in
#: report order: ``rings`` (io_uring submission/completion handling),
#: ``dmq`` (the multi-queue block layer), ``qdma`` (descriptor + DMA over
#: PCIe), ``accel`` (replication/EC accelerator compute), ``fabric``
#: (network + OSD service) and ``complete`` (completion delivery back
#: to the application).
STAGES = ("rings", "dmq", "qdma", "accel", "fabric", "complete")

_STAGE_INDEX = {stage: i for i, stage in enumerate(STAGES)}


def stage_spans(roots: Iterable[SpanNode]) -> list[tuple[int, SpanNode]]:
    """(request id, span) for every closed stage span of the forest.

    A stage span is a closed top-level child of a root named after one
    of :data:`STAGES`; it files under the root's block-layer request id
    (``req_id``).  A bio merged into an earlier request carries that
    request's id, so its ``complete`` span files under the request;
    roots that never reached the block layer have no id and no stages.

    Ordered by start time, then request id, then canonical stage order
    (then end time): a pure function of the simulated run, so two
    seeded runs export identical streams.
    """
    spans = [
        (root.meta["req_id"], span)
        for root in roots
        if "req_id" in root.meta
        for span in root.children
        if span.name in _STAGE_INDEX and span.end_ns >= 0
    ]
    spans.sort(key=lambda e: (e[1].start_ns, e[0], _STAGE_INDEX[e[1].name], e[1].end_ns))
    return spans


def stage_tenants(roots: Iterable[SpanNode]) -> dict[int, str]:
    """Request id -> tenant label, for QoS-tagged requests."""
    return {
        root.meta["req_id"]: root.meta["tenant"]
        for root in roots
        if "req_id" in root.meta and root.meta.get("tenant")
    }


def stage_summary(roots: Iterable[SpanNode]) -> dict[str, float]:
    """Mean microseconds per stage across all traced requests.

    Every request that *entered* a stage counts toward that stage's
    mean, including zero-duration visits — filtering those out would
    silently bias stage shares upward.

    Requests that never reached ``complete`` (failed by chaos, or in
    flight when the run ended) are surfaced under the ``"incomplete"``
    key as a plain count: dropping them silently would bias chaos-run
    breakdowns toward the survivors.
    """
    per_request: dict[int, dict[str, int]] = {}
    for rid, span in stage_spans(roots):
        stages = per_request.setdefault(rid, {})
        stages[span.name] = stages.get(span.name, 0) + span.duration_ns
    out: dict[str, float] = {}
    for stage in STAGES:
        vals = [stages[stage] for stages in per_request.values() if stage in stages]
        if vals:
            out[stage] = sum(vals) / len(vals) / 1000.0
    incomplete = sum(1 for stages in per_request.values() if "complete" not in stages)
    if incomplete:
        out["incomplete"] = incomplete
    return out


def stage_breakdown_table(roots: Iterable[SpanNode]) -> str:
    """Render the mean per-stage latency contribution.

    The ``sum`` row sets the six-stage total against the mean latency of
    the completed requests: the uncovered rest is time outside the six
    stages (API entry, driver CPU, the NBD daemon's crossings and
    copies).
    """
    roots = list(roots)
    summary = stage_summary(roots)
    incomplete = summary.pop("incomplete", 0)
    total = sum(summary.values()) or 1.0
    lines = ["stage      mean-us   share"]
    for stage in STAGES:
        if stage in summary:
            lines.append(f"{stage:10s} {summary[stage]:7.2f}  {summary[stage] / total:6.1%}")
    latencies = [root.duration_ns for root in roots if root.complete]
    mean_us = sum(latencies) / len(latencies) / 1000.0 if latencies else 0.0
    if summary and mean_us > 0:
        staged = sum(summary.values())
        lines.append(
            f"{'sum':10s} {staged:7.2f}  {staged / mean_us:6.1%} of {mean_us:.2f} us "
            f"mean request latency"
        )
    if incomplete:
        lines.append(f"(+{int(incomplete)} request(s) never reached complete)")
    return "\n".join(lines)


def to_stage_trace(roots: Iterable[SpanNode]) -> dict:
    """The stage spans as a Chrome trace-event object (JSON-ready).

    Complete ("X") events, one per span, timestamps in microseconds.
    Each *stage* renders as its own named track (``tid`` = canonical
    stage index): Perfetto then shows six readable lanes with every
    request's visit to a layer on that layer's lane, instead of one
    unreadable track per request.  The owning request stays in
    ``args.request_id``.

    QoS-tagged requests additionally split into per-tenant lanes —
    ``"fabric [tenant-a]"`` — with stable tids assigned by sorted tenant
    name, and carry ``args.tenant``, so a multi-tenant run's
    interference pattern is visible per tenant rather than collapsed
    into one anonymous lane.
    """
    roots = list(roots)
    request_tenants = stage_tenants(roots)
    # Deterministic tenant lane blocks after the base stages; tid
    # len(STAGES) stays unused, so tids match earlier exports.
    tenants = sorted(set(request_tenants.values()))
    tenant_base = {
        tenant: len(STAGES) + 1 + i * len(STAGES) for i, tenant in enumerate(tenants)
    }
    events = []
    for rid, span in stage_spans(roots):
        tenant = request_tenants.get(rid, "")
        stage_idx = _STAGE_INDEX[span.name]
        tid = tenant_base[tenant] + stage_idx if tenant else stage_idx
        event = {
            "name": span.name,
            "cat": "io",
            "ph": "X",
            "ts": span.start_ns / 1000.0,
            "dur": span.duration_ns / 1000.0,
            "pid": 0,
            "tid": tid,
            "args": {"request_id": rid, "start_ns": span.start_ns, "end_ns": span.end_ns},
        }
        if tenant:
            event["args"]["tenant"] = tenant
        events.append(event)
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro I/O lifecycle"},
        }
    ]
    used_tids = {e["tid"] for e in events}
    lane_names = dict(_STAGE_INDEX)
    for tenant in tenants:
        for stage, idx in _STAGE_INDEX.items():
            lane_names[f"{stage} [{tenant}]"] = tenant_base[tenant] + idx
    for lane, tid in lane_names.items():
        if tid in used_tids:
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": lane},
                }
            )
    return {"traceEvents": events + meta, "displayTimeUnit": "ns"}


def export_stage_trace(roots: Iterable[SpanNode], path) -> Path:
    """Write the stage Chrome trace-event JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_stage_trace(roots), indent=1))
    return path


def export_stage_csv(roots: Iterable[SpanNode], path) -> Path:
    """Write the flat stage-span table: one row per closed stage span."""
    roots = list(roots)
    tenants = stage_tenants(roots)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["request_id", "tenant", "stage", "start_ns", "end_ns", "duration_ns"])
        for rid, span in stage_spans(roots):
            writer.writerow([
                rid, tenants.get(rid, ""), span.name,
                span.start_ns, span.end_ns, span.duration_ns,
            ])
    return path
