"""Causal trace context: one span *tree* per workload operation.

:class:`CausalTracer` grows one :class:`SpanNode` tree per workload
operation:

* the **root** is opened where the op enters the kernel interface: at
  SQE preparation (io_uring), at the blocking syscall (read/write), or,
  for engines that do not pre-stamp one, when the bio enters blk-mq;
* each datapath layer appends a **child** covering its own interval
  (``rings``, ``dmq``, ``uifd``/``nbd``, ``qdma``, ``accel``,
  ``fabric``, ``complete``);
* every fan-out — bio split across objects, replication fan-out, EC
  shard dispatch, primary sub-ops — and every retry/failover leg under
  an :class:`repro.osd.policy.OpPolicy` adds one child per leg, so the
  tree records *why* the op took as long as it did.

The paper's six-stage lifecycle view (Fig. 2) is a projection of these
trees, computed by :mod:`repro.obs.export`; the tracer's ``summary``,
``breakdown_table`` and Chrome/CSV exports render it.

On an untraced run ``env.tracer`` stays
:data:`repro.sim.metrics.NULL_TRACER`, whose ops carry
:data:`NULL_SPAN`: a stateless span that takes every call and records
nothing, so hook sites need no tracing conditionals (the way
:data:`repro.sim.NULL_METRICS` stands in for instruments).

Span recording never creates simulation events: timestamps are read
from ``env.now`` and everything else is plain Python bookkeeping, so a
run with the causal tracer enabled produces the exact same event
stream (and therefore the same golden digests) as a run without it.

Span ids come from a per-tracer counter, so two seeded runs export
identical trees — the double-run determinism tests rely on it.
"""

from __future__ import annotations

import itertools
import pathlib
from types import MappingProxyType
from typing import Iterator, Optional, Union

from ..errors import ReproError
from .export import (
    export_stage_csv,
    export_stage_trace,
    stage_breakdown_table,
    stage_summary,
    to_stage_trace,
)


class SpanNode:
    """One node of a causal span tree."""

    __slots__ = ("span_id", "name", "kind", "start_ns", "end_ns", "parent", "children", "meta", "_tracer")

    def __init__(
        self,
        tracer: "CausalTracer",
        span_id: int,
        name: str,
        kind: str,
        start_ns: int,
        parent: Optional["SpanNode"] = None,
        meta: Optional[dict] = None,
    ):
        self._tracer = tracer
        self.span_id = span_id
        self.name = name
        #: Resource class the span occupies: "stage", "queue", "service",
        #: "compute", "dma", "net", "rpc", "fanout", "wait", "driver", ...
        self.kind = kind
        self.start_ns = start_ns
        #: -1 while open; :meth:`finish` extends monotonically, so layers
        #: that learn about completion at different times may all call it.
        self.end_ns = -1
        self.parent = parent
        self.children: list[SpanNode] = []
        self.meta: dict = meta or {}

    # -- lifecycle ---------------------------------------------------------------

    def child(self, name: str, kind: str = "span", start_ns: Optional[int] = None, **meta) -> "SpanNode":
        """Open a child span starting now (or at ``start_ns``)."""
        node = SpanNode(
            self._tracer,
            self._tracer._next_span_id(),
            name,
            kind,
            self._tracer.env.now if start_ns is None else start_ns,
            parent=self,
            meta=meta or None,
        )
        self.children.append(node)
        return node

    def record(self, name: str, kind: str, start_ns: int, end_ns: int, **meta) -> "SpanNode":
        """Append an already-closed child (retrospective instrumentation)."""
        if end_ns < start_ns:
            raise ReproError(f"span {name!r} ends before it starts")
        node = self.child(name, kind, start_ns=start_ns, **meta)
        node.end_ns = end_ns
        return node

    def finish(self, end_ns: Optional[int] = None, ok: bool = True, **meta) -> None:
        """Close (or extend) the span.

        ``end_ns`` defaults to the current clock.  Repeated calls keep
        the *latest* end: the block layer closes a request's root when
        the driver completes it, and the io_uring engine extends it to
        the CQE reap — both simply call ``finish()``.
        """
        end = self._tracer.env.now if end_ns is None else end_ns
        if end > self.end_ns:
            self.end_ns = end
        if not ok:
            self.meta["error"] = True
        if meta:
            self.meta.update(meta)

    def annotate(self, **meta) -> None:
        """Attach metadata without touching timestamps."""
        self.meta.update(meta)

    # -- inspection --------------------------------------------------------------

    @property
    def complete(self) -> bool:
        """True once the span has an end timestamp."""
        return self.end_ns >= 0

    @property
    def duration_ns(self) -> int:
        """Span length (0 while still open)."""
        return max(0, self.end_ns - self.start_ns) if self.end_ns >= 0 else 0

    def walk(self) -> Iterator["SpanNode"]:
        """Pre-order traversal of this subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["SpanNode"]:
        """Every descendant (including self) with the given name."""
        return [s for s in self.walk() if s.name == name]

    def to_dict(self) -> dict:
        """JSON-ready nested representation (deterministic key order)."""
        out = {
            "span_id": self.span_id,
            "name": self.name,
            "kind": self.kind,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
        }
        if self.meta:
            out["meta"] = {k: self.meta[k] for k in sorted(self.meta)}
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:
        state = f"{self.start_ns}..{self.end_ns}" if self.complete else f"{self.start_ns}.."
        return f"<SpanNode #{self.span_id} {self.name}/{self.kind} {state} kids={len(self.children)}>"


class NullSpan:
    """The span of an untraced op: takes every call, keeps nothing.

    ``child`` and ``record`` return the null span itself, ``finish`` and
    ``annotate`` ignore their arguments, and ``meta`` is a read-only
    empty mapping, so the one shared instance can stand in at every hook
    site without any state leaking between ops.
    """

    __slots__ = ()

    start_ns = 0
    meta = MappingProxyType({})
    complete = False

    def child(self, name: str, kind: str = "span", start_ns: Optional[int] = None, **meta) -> "NullSpan":
        return self

    def record(self, name: str, kind: str, start_ns: int, end_ns: int, **meta) -> "NullSpan":
        return self

    def finish(self, end_ns: Optional[int] = None, ok: bool = True, **meta) -> None:
        pass

    def annotate(self, **meta) -> None:
        pass

    def __repr__(self) -> str:
        return "NULL_SPAN"


#: The shared null span (see :class:`NullSpan`).
NULL_SPAN = NullSpan()


class CausalTracer:
    """Records one causal span tree per workload operation.

    Layers reach the trees through the ops they handle (``bio``,
    ``request`` and RADOS-op ``obs_span`` attributes); the tracer opens
    the roots and renders the six-stage view of the forest.
    """

    def __init__(self, env):
        self.env = env
        #: Root spans in creation (= submission) order.
        self.roots: list[SpanNode] = []
        self._span_ids = itertools.count(1)

    def _next_span_id(self) -> int:
        return next(self._span_ids)

    def start_root(self, name: str, kind: str = "op", start_ns: Optional[int] = None, **meta) -> SpanNode:
        """Open a new request tree rooted now (or at ``start_ns``)."""
        root = SpanNode(
            self,
            self._next_span_id(),
            name,
            kind,
            self.env.now if start_ns is None else start_ns,
            meta=meta or None,
        )
        self.roots.append(root)
        return root

    def open_root(self, bio) -> None:
        """Root ``bio``'s tree now, where its API engine submits it."""
        bio.obs_span = self.start_root(bio.op.value, size=bio.size)
        if bio.tenant:
            bio.obs_span.annotate(tenant=bio.tenant)

    def bind_request(self, request, bio) -> None:
        """Make the tree of ``bio`` (rooted now if its engine opened
        none) the tree of the blk-mq ``request`` built from it."""
        root = bio.obs_span
        if root is NULL_SPAN:
            root = bio.obs_span = self.start_root(bio.op.value, size=bio.size)
        root.annotate(req_id=request.req_id)
        if bio.tenant:
            root.annotate(tenant=bio.tenant)
        request.obs_span = root

    def complete_trees(self) -> list[SpanNode]:
        """Roots whose end-to-end interval is closed."""
        return [r for r in self.roots if r.complete]

    def incomplete_trees(self) -> list[SpanNode]:
        """Roots that never completed (op failed mid-flight / run ended)."""
        return [r for r in self.roots if not r.complete]

    # -- the six-stage view ------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Mean microseconds per stage (see :func:`~repro.obs.export.stage_summary`)."""
        return stage_summary(self.roots)

    def breakdown_table(self) -> str:
        """Mean per-stage latency contribution, and how much of the mean
        request latency the six stages cover."""
        return stage_breakdown_table(self.roots)

    def to_chrome_trace(self) -> dict:
        """The stage spans as a Chrome trace-event object (one lane per
        stage, plus per-tenant lanes)."""
        return to_stage_trace(self.roots)

    def export_chrome_trace(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the stage Chrome trace-event JSON; returns the path written."""
        return export_stage_trace(self.roots, path)

    def export_csv(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the flat stage-span table; returns the path written."""
        return export_stage_csv(self.roots, path)


def wrap_span(span: Union[SpanNode, NullSpan], gen):
    """Process: run ``gen`` to completion, closing ``span`` either way.

    Used to time fan-out legs joined by ``env.gather`` (RBD per-object
    legs, an OSD primary's local apply): the span closes when the leg
    finishes, with the error flag set if it raised.  A gather leg has no
    :class:`~repro.sim.Process`, so code that needs ``env.active_process``
    or an interrupt handle (request handlers, WAL applies) stays a
    process.  With :data:`NULL_SPAN` this is a transparent passthrough,
    so call sites need no tracing conditionals around the join.
    """
    try:
        result = yield from gen
    except BaseException:
        span.finish(ok=False)
        raise
    span.finish()
    return result
