"""Multi-instance io_uring engine (DeLiBA-K's host-side configuration).

DeLiBA-K creates several io_uring instances via repeated
``io_uring_setup`` calls and binds each one's submission thread to a
dedicated CPU core (paper Section III-A; three instances in the shipped
configuration).  The engine shards the bio stream round-robin across
instances, keeps ``iodepth`` I/Os in flight overall, and submits in
batches so one ``io_uring_enter`` (or none, under SQPOLL) covers many
I/Os.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional, Sequence

from ...blk import Bio, BlockLayer
from ...errors import ApiError
from ...host import HostKernel
from ...obs.context import NULL_SPAN
from ...sim import Environment
from ..base import AioEngine, RunResult
from .instance import IoUring, UringCosts, UringMode

#: Completion record of a CQE that never went through ``_post_cqe``.
_NOT_POSTED = (0, NULL_SPAN)


class UringEngine(AioEngine):
    """The io_uring API engine."""

    name = "io_uring"

    def __init__(
        self,
        env: Environment,
        kernel: HostKernel,
        blk: BlockLayer,
        num_instances: int = 3,
        entries: int = 256,
        mode: UringMode = UringMode.SQPOLL,
        batch_size: int = 16,
        pin_cores: bool = True,
        fixed_buffers: bool = True,
        costs: Optional[UringCosts] = None,
    ):
        super().__init__(env, kernel, blk)
        if num_instances < 1:
            raise ApiError(f"need >= 1 instance, got {num_instances}")
        if batch_size < 1:
            raise ApiError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.mode = mode
        self._m_errors = self.metrics.counter(f"api.{self.name}.errors")
        self.instances = [
            IoUring(
                env,
                kernel,
                blk,
                entries=entries,
                mode=mode,
                core=kernel.cpus.pick_core(i if pin_cores else None),
                costs=costs,
                fixed_buffers=fixed_buffers,
                name=f"uring{i}",
            )
            for i in range(num_instances)
        ]

    def run(self, bios: Sequence[Bio], iodepth: int) -> Generator:
        """Process: drive ``bios`` through the instances; see base class."""
        self._validate(bios, iodepth)
        result = RunResult(started_at=self.env.now)
        meter = self.open_throughput_meter()
        # Use at most ``iodepth`` instances so total inflight never
        # exceeds the requested depth; shard bios round-robin among them.
        active = self.instances[: min(len(self.instances), iodepth)]
        shards: list[deque] = [deque() for _ in active]
        for i, bio in enumerate(bios):
            shards[i % len(active)].append(bio)
        # Split the depth budget, spreading any remainder over the first
        # instances so total inflight equals exactly ``iodepth``.
        base, extra = divmod(iodepth, len(active))
        procs = [
            self.env.process(
                self._drive(inst, shard, base + (1 if i < extra else 0), result, meter),
                name=f"{inst.name}.drive",
            )
            for i, (inst, shard) in enumerate(zip(active, shards))
            if shard
        ]
        yield self.env.all_of(procs)
        result.finished_at = self.env.now
        return result

    def _drive(
        self, inst: IoUring, shard: deque, depth: int, result: RunResult, meter
    ) -> Generator:
        """One submitter thread: batch-fill SQ, submit, reap, refill."""
        submit_times: dict[int, int] = {}
        sizes: dict[int, int] = {}
        health = self.blk.health
        bios: dict[int, object] = {}
        inflight = 0
        while shard or inflight:
            # Batched fill: the push count is bounded by four independent
            # limits, so take the min once instead of re-checking all four
            # per bio (identical count to the one-at-a-time loop).
            pushed = min(len(shard), depth - inflight, inst.sq.space, self.batch_size)
            if pushed > 0:
                batch = [shard.popleft() for _ in range(pushed)]
                now = self.env.now
                for sqe, bio in zip(inst.prepare_many(batch), batch):
                    submit_times[sqe.user_data] = now
                    sizes[sqe.user_data] = bio.size
                    if health is not None:
                        bios[sqe.user_data] = bio
                inflight += pushed
                yield from inst.submit()
            if inflight:
                cqes = yield from inst.wait_cqes(wait_nr=1, max_cqes=self.batch_size)
                for cqe in cqes:
                    # Close the causal tree at the reap: root duration now
                    # equals the recorded latency.  (A cancelled link-chain
                    # SQE never posted through _post_cqe: no stage to close.)
                    t0, root = inst._complete_t0.pop(cqe.user_data, _NOT_POSTED)
                    root.record("complete", "stage", t0, self.env.now)
                    root.finish(ok=cqe.ok)
                    latency = self.env.now - submit_times.pop(cqe.user_data)
                    result.latencies_ns.append(latency)
                    if health is not None:
                        bio = bios.pop(cqe.user_data)
                        health.observe_client(bio.op.value, bio.tenant, latency, cqe.ok, root)
                    nbytes = sizes.pop(cqe.user_data)
                    if cqe.ok:
                        result.bytes_moved += nbytes
                        meter.record(nbytes, self.env.now)
                    else:
                        # Failed I/O: fio-style, count it but move no bytes.
                        result.errors += 1
                        self._m_errors.add()
                    inflight -= 1

    def total_syscalls_saved(self) -> int:
        """SQPOLL submissions that needed no syscall."""
        return sum(i.syscalls_saved for i in self.instances)
