"""The multi-queue block layer (blk-mq) and the DeLiBA-K DMQ variant.

Structure mirrors Linux (paper Figure 1): per-CPU *software contexts*
(ctx) feed *hardware contexts* (hctx), each with a bounded tag set that
matches a driver hardware queue.  Submission runs on the issuing CPU
core; dispatch pulls from the elevator while tags are free and pushes to
the driver; completion frees the tag and re-drains.

**DMQ** (DeLiBA-K's modified layer, paper Section III-B) is the same
machinery configured with: elevator bypass (``none`` + zero-cost plug),
one hctx per CPU so an io_uring instance pinned to core N owns hctx N
exclusively, and a smaller fixed submit cost (no shared-state locking).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Generator, Optional

from ..errors import BlockLayerError
from ..host import HostKernel
from ..host.cpu import CpuCore
from ..obs.context import NULL_TRACER
from ..sim import NULL_METRICS, Environment, Semaphore
from .bio import Bio, Request
from .scheduler import scheduler_factory

#: Driver interface: queue_rq(request) -> None.  The driver must fire
#: ``request.completion`` (created by the block layer) when done.
QueueRq = Callable[[Request], None]


@dataclass(frozen=True)
class BlkMqConfig:
    """Shape and cost parameters of one block-layer instance."""

    num_hw_queues: int = 4
    tags_per_queue: int = 256
    #: Fixed CPU per bio through submit (bio alloc, ctx lock, accounting).
    submit_cost_ns: int = 900
    scheduler: str = "mq-deadline"
    #: Attempt back-merging of contiguous bios in the plug list.
    merge_enabled: bool = True


#: DeLiBA-K's DMQ: scheduler bypass + per-core queues + slim submit path.
DMQ_CONFIG = BlkMqConfig(
    num_hw_queues=28,
    tags_per_queue=2048,
    submit_cost_ns=350,
    scheduler="none",
    merge_enabled=False,
)


class HardwareContext:
    """One hctx: elevator + tag set + dispatch into the driver."""

    def __init__(
        self,
        env: Environment,
        index: int,
        config: BlkMqConfig,
        queue_rq: QueueRq,
        metrics=None,
    ):
        self.env = env
        self.index = index
        self.config = config
        self.scheduler = scheduler_factory(config.scheduler)
        self.tags = Semaphore(env, config.tags_per_queue, name=f"hctx{index}.tags")
        self.queue_rq = queue_rq
        self.dispatched = 0
        self._draining = False
        metrics = metrics or NULL_METRICS
        self._m_dispatched = metrics.counter(f"blk.hwq{index}.dispatched")
        self._m_req_errors = metrics.counter("blk.request_errors")
        #: In-flight request count (tags in use) over time.
        self.depth_series = metrics.timeseries(f"blk.hwq{index}.depth")

    def insert(self, request: Request) -> None:
        """Insert into the elevator and kick the dispatch drain."""
        self.scheduler.insert(request, self.env.now)
        self.kick()

    def kick(self) -> None:
        """Start a drain pass unless one is already running."""
        if not self._draining:
            self.env.process(self._drain(), name=f"hctx{self.index}.drain")

    def _drain(self) -> Generator:
        if self._draining:
            return
        self._draining = True
        try:
            while len(self.scheduler) and self.tags.tokens > 0:
                yield self.tags.acquire()
                request = self.scheduler.next_request(self.env.now)
                if request is None:
                    self.tags.release()
                    break
                request.dispatched_at = self.env.now
                self.dispatched += 1
                self._m_dispatched.add()
                self.depth_series.record(self.env.now, self.config.tags_per_queue - self.tags.tokens)
                request.obs_span.record(
                    "dmq", "queue", request.submitted_at, self.env.now, hctx=self.index
                )
                self.queue_rq(request)
                self._arm_tag_release(request)
        finally:
            self._draining = False

    def _arm_tag_release(self, request: Request) -> None:
        completion = request.completion
        if completion is None:
            raise BlockLayerError(f"request {request.req_id} dispatched without completion event")
        if completion.processed:
            self._on_complete(request)
        else:
            completion.callbacks.append(lambda _ev: self._on_complete(request))

    def _on_complete(self, request: Request) -> None:
        self.tags.release()
        self.depth_series.record(self.env.now, self.config.tags_per_queue - self.tags.tokens)
        failed = bool(request.status or request.error)
        if failed:
            self._m_req_errors.add()
        # Close the tree at driver completion; the API engine's reaper
        # may extend it to CQE delivery afterwards.
        request.obs_span.finish(ok=not failed)
        # Freed capacity may unblock queued work.  An empty elevator
        # needs no drain: the next insert kicks its own.
        if len(self.scheduler):
            self.kick()


class BlockLayer:
    """blk-mq entry point used by the API engines."""

    def __init__(
        self,
        env: Environment,
        kernel: HostKernel,
        queue_rq: QueueRq,
        config: Optional[BlkMqConfig] = None,
        tracer=None,
        metrics=None,
    ):
        self.env = env
        self.kernel = kernel
        #: Causal tracer the engines root their ops' span trees in
        #: (the null tracer when the stack is untraced).
        self.tracer = tracer or NULL_TRACER
        #: MetricsRegistry shared by the whole stack (no-op by default).
        self.metrics = metrics or NULL_METRICS
        #: Set by ``repro.obs.health.HealthLayer.attach``: client-side
        #: completion accounting shared by every engine over this layer
        #: (numjobs > 1 builds extra engines, one block layer).
        self.health = None
        self.config = config or BlkMqConfig()
        if self.config.num_hw_queues < 1:
            raise BlockLayerError("need at least one hardware queue")
        self.hctxs = [
            HardwareContext(env, i, self.config, queue_rq, metrics=self.metrics)
            for i in range(self.config.num_hw_queues)
        ]
        self.bios_submitted = 0
        self.merges = 0
        self._m_bios = self.metrics.counter("blk.bios_submitted")
        self._m_merges = self.metrics.counter("blk.merges")
        #: Per-core plug lists: core_id -> {op value -> last request}, so
        #: flush_plug touches only the flushing core's entries.
        self._plug: dict[int, dict[str, Request]] = {}
        #: Per-layer request ids (deterministic across runs in a process).
        self._req_ids = itertools.count(1)
        #: Submit cost is uniform: every hctx runs the same scheduler type.
        self._submit_cost_ns = (
            self.config.submit_cost_ns + self.hctxs[0].scheduler.insert_cost_ns
        )

    def _hctx_for(self, core: CpuCore) -> HardwareContext:
        """The submitting core's own hctx (core_id % num_hw_queues)."""
        return self.hctxs[core.core_id % len(self.hctxs)]

    def _plug_for(self, core_id: int) -> dict[str, Request]:
        plugged = self._plug.get(core_id)
        if plugged is None:
            plugged = self._plug[core_id] = {}
        return plugged

    def submit_bio(self, core: CpuCore, bio: Bio) -> Generator:
        """Process: push one bio through submit; returns the request.

        With merging enabled, the request parks in the per-core *plug
        list* (as in Linux) so immediately following contiguous bios can
        back-merge; callers must ``flush_plug`` when they stop submitting
        (the engines flush where a real task would ``io_schedule``).

        The returned request's ``completion`` event is created here and
        fired by the driver; the caller decides how to wait (interrupt
        vs. poll), so completion-path CPU is charged by the waiter.
        """
        self.bios_submitted += 1
        self._m_bios.add()
        yield from core.run(self._submit_cost_ns)
        if not self.config.merge_enabled:
            request = self._new_request(bio)
            self._hctx_for(core).insert(request)
            return request
        plugged = self._plug_for(core.core_id)
        last = plugged.get(bio.op.value)
        if last is not None and last.dispatched_at < 0 and last.can_merge(bio):
            self._merge(last, bio)
            return last
        if last is not None:
            self._hctx_for(core).insert(last)  # evict the plugged request
        request = self._new_request(bio)
        plugged[bio.op.value] = request
        return request

    def _new_request(self, bio: Bio) -> Request:
        # Ids come from the per-layer counter, not the module-global one:
        # every run numbers its requests from 1, so traced span streams
        # are identical across seeded runs within one process.
        request = Request([bio], req_id=next(self._req_ids))
        request.submitted_at = self.env.now
        request.completion = self.env.event()
        # The request's tree is the one its head bio was submitted in.
        self.tracer.bind_request(request, bio)
        return request

    def _merge(self, request: Request, bio: Bio) -> None:
        """Back-merge ``bio`` into the plugged ``request``."""
        request.merge(bio)
        self.merges += 1
        self._m_merges.add()
        request.obs_span.annotate(merged_bios=len(request.bios) - 1)
        # The merged bio completes with the request: its own tree files
        # under the request's id.
        bio.obs_span.annotate(req_id=request.req_id)

    def flush_plug(self, core: CpuCore) -> None:
        """Push the core's plugged requests into their hardware queues.

        Engines call this where a real task would block (io_schedule) or
        finish a submission batch.
        """
        plugged = self._plug.get(core.core_id)
        if not plugged:
            return
        hctx = self._hctx_for(core)
        for op in list(plugged):
            hctx.insert(plugged.pop(op))

    def total_dispatched(self) -> int:
        """Requests handed to the driver so far."""
        return sum(h.dispatched for h in self.hctxs)

    def queue_depth_summary(self, end_ns: Optional[int] = None) -> dict[str, float]:
        """Time-weighted mean in-flight depth per active hardware queue.

        The window is closed at ``end_ns`` (default: the current clock)
        so the final depth sample carries its real weight.
        """
        end = self.env.now if end_ns is None else end_ns
        return {
            f"hwq{h.index}": h.depth_series.time_weighted_mean(end)
            for h in self.hctxs
            if h.depth_series.times
        }