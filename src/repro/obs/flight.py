"""Tail-sampling flight recorder: keep recent span trees, dump slow ones.

Always-on tracing must not pay full-dump cost for every request.  The
recorder holds a bounded ring of recently completed causal span trees
(cheap: the trees already exist, the ring only holds references) and
*promotes to a full dump only the requests the slow-op detector flags*.
Steady fault-free state therefore costs one deque append per request,
while every flagged op arrives with its complete span tree plus an
auto-generated critical-path root-cause report, e.g.::

    gated 71.3% by fabric/osd.3/wal-flush (service), attempt=2, backoff 11.0%

built from the same exact attribution :func:`repro.obs.critical_path.analyze`
computes for ``python -m repro profile``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .context import NULL_SPAN, SpanNode
from .critical_path import analyze, verify_exact
from .slowop import SlowOpRecord

#: Span kinds that represent retry/backoff waiting rather than work.
_WAIT_KINDS = frozenset({"wait"})


@dataclass
class RootCauseReport:
    """Machine-readable critical-path explanation of one slow op."""

    total_ns: int
    #: Top-level layer -> attributed ns (exact partition of total_ns).
    by_stage: dict[str, int]
    #: The layer owning the largest share.
    gating_stage: str
    gating_share: float
    #: Deepest span stack owning the largest single-span share.
    gating_stack: tuple[str, ...]
    gating_span_ns: int
    #: Highest retry attempt observed anywhere in the tree (1 = first try).
    attempts: int
    #: Share of the critical path spent in backoff/wait spans.
    backoff_share: float
    exact: bool

    def render(self) -> str:
        parts = [
            f"gated {100.0 * self.gating_share:.1f}% by "
            f"{'/'.join(self.gating_stack)}"
        ]
        if self.attempts > 1:
            parts.append(f"attempt={self.attempts}")
        if self.backoff_share > 0.0:
            parts.append(f"backoff {100.0 * self.backoff_share:.1f}%")
        return ", ".join(parts)

    def to_dict(self) -> dict:
        return {
            "total_ns": self.total_ns,
            "by_stage": {k: self.by_stage[k] for k in sorted(self.by_stage)},
            "gating_stage": self.gating_stage,
            "gating_share": round(self.gating_share, 6),
            "gating_stack": list(self.gating_stack),
            "gating_span_ns": self.gating_span_ns,
            "attempts": self.attempts,
            "backoff_share": round(self.backoff_share, 6),
            "exact": self.exact,
            "text": self.render(),
        }


def root_cause(root: SpanNode) -> RootCauseReport:
    """Exact critical-path attribution of one completed tree, summarized.

    The gating *stage* is the top-level layer with the largest share of
    the partition; the gating *stack* is the full path to the single
    span that owns the most nanoseconds (ties broken by stack name so
    two seeded runs report identically).
    """
    path = analyze(root)
    exact = verify_exact(path) is None
    by_stage = path.by_stage()
    total = path.total_ns or 1

    gating_stage = ""
    if by_stage:
        gating_stage = max(sorted(by_stage), key=lambda s: by_stage[s])
    gating_share = by_stage.get(gating_stage, 0) / total

    by_stack: dict[tuple[str, ...], int] = {}
    backoff_ns = 0
    for seg in path.segments:
        by_stack[seg.stack] = by_stack.get(seg.stack, 0) + seg.duration_ns
        if seg.span.kind in _WAIT_KINDS or seg.span.name == "backoff":
            backoff_ns += seg.duration_ns
    gating_stack: tuple[str, ...] = (root.name,)
    gating_span_ns = 0
    if by_stack:
        gating_stack = max(sorted(by_stack), key=lambda s: by_stack[s])
        gating_span_ns = by_stack[gating_stack]

    attempts = 1
    for span in root.walk():
        value = span.meta.get("attempt")
        if isinstance(value, int) and value > attempts:
            attempts = value

    return RootCauseReport(
        total_ns=path.total_ns,
        by_stage=by_stage,
        gating_stage=gating_stage,
        gating_share=gating_share,
        gating_stack=gating_stack,
        gating_span_ns=gating_span_ns,
        attempts=attempts,
        backoff_share=backoff_ns / total,
        exact=exact,
    )


@dataclass
class SlowOpDump:
    """One promoted slow op: detector record + tree + root cause."""

    record: SlowOpRecord
    root: SpanNode = field(repr=False)
    cause: RootCauseReport

    def to_dict(self, include_tree: bool = False) -> dict:
        out = {
            "record": self.record.to_dict(),
            "cause": self.cause.to_dict(),
        }
        if include_tree:
            out["tree"] = self.root.to_dict()
        return out


class FlightRecorder:
    """Bounded ring of recent span trees; dumps only what was flagged."""

    def __init__(self, capacity: int = 64, max_dumps: int = 32):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_dumps < 1:
            raise ValueError(f"max_dumps must be >= 1, got {max_dumps}")
        self.ring: deque[SpanNode] = deque(maxlen=capacity)
        self.max_dumps = max_dumps
        self.dumps: list[SlowOpDump] = []
        self.retained = 0
        self.promoted = 0
        #: Flagged ops whose tree was unavailable (untraced stack, or
        #: already evicted) — counted, never silently dropped.
        self.missed = 0

    def retain(self, root: Optional[SpanNode]) -> None:
        """Remember one completed tree (cheap: reference only).

        An untraced op's :data:`NULL_SPAN` (or ``None``) is no tree."""
        if root is None or root is NULL_SPAN:
            return
        self.ring.append(root)
        self.retained += 1

    def promote(self, record: SlowOpRecord, root: Optional[SpanNode]) -> Optional[SlowOpDump]:
        """Dump the flagged request's tree with its root-cause report.

        ``root`` may be passed directly (completion-path callers still
        hold it); a flagged record without a tree is counted in
        :attr:`missed` so overhead accounting stays honest.
        """
        if root is None or not root.complete:
            self.missed += 1
            return None
        dump = SlowOpDump(record=record, root=root, cause=root_cause(root))
        self.promoted += 1
        self.dumps.append(dump)
        if len(self.dumps) > self.max_dumps:
            del self.dumps[: len(self.dumps) - self.max_dumps]
        return dump

    def stats(self) -> dict:
        return {
            "ring_capacity": self.ring.maxlen,
            "ring_occupancy": len(self.ring),
            "retained": self.retained,
            "promoted": self.promoted,
            "missed": self.missed,
            "dumps_kept": len(self.dumps),
        }
