"""Traditional blocking ``read()``/``write()`` engine.

Each I/O is one syscall; the calling thread blocks until completion
(sleep + IRQ wakeup = two context switches), and buffered I/O pays a
full user/kernel data copy in each direction.  Concurrency requires
multiple threads (fio's ``numjobs``), each burning its own scheduling
overhead — the model of the "decades-old" API whose costs Section II
quantifies.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Sequence

from ..blk import Bio, BlockLayer, IoOp
from ..host import HostKernel
from ..sim import Environment
from .base import AioEngine, RunResult


class SyncEngine(AioEngine):
    """Blocking read/write with a thread pool of ``iodepth`` workers."""

    name = "sync-rw"

    def __init__(self, env: Environment, kernel: HostKernel, blk: BlockLayer, buffered: bool = True):
        super().__init__(env, kernel, blk)
        #: Buffered I/O copies data through the page cache; O_DIRECT skips it.
        self.buffered = buffered

    def run(self, bios: Sequence[Bio], iodepth: int) -> Generator:
        self._validate(bios, iodepth)
        result = RunResult(started_at=self.env.now)
        meter = self.open_throughput_meter()
        queue = deque(bios)
        workers = [
            self.env.process(self._worker(queue, result, tid, meter), name=f"sync.t{tid}")
            for tid in range(min(iodepth, len(bios)))
        ]
        yield self.env.all_of(workers)
        result.finished_at = self.env.now
        return result

    def _worker(self, queue: deque, result: RunResult, tid: int, meter) -> Generator:
        core = self.kernel.cpus.pick_core()
        while queue:
            bio = queue.popleft()
            start = self.env.now
            yield from self._blocking_io(core, bio)
            result.latencies_ns.append(self.env.now - start)
            result.bytes_moved += bio.size
            meter.record(bio.size, self.env.now)

    def _blocking_io(self, core, bio: Bio) -> Generator:
        # The causal tree is rooted at the syscall, so its duration is
        # the latency the worker measures.
        self.blk.tracer.open_root(bio)
        # Syscall entry.
        yield from self.kernel.syscall(core)
        if self.buffered and bio.op == IoOp.WRITE:
            yield from self.kernel.copy(core, bio.size)
        request = yield from self.blk.submit_bio(core, bio)
        self.blk.flush_plug(core)
        # The thread sleeps; completion raises an interrupt and wakes it.
        yield from self.kernel.context_switch(core)
        yield request.completion
        t0 = self.env.now
        yield from self.kernel.interrupt(core)
        yield from self.kernel.context_switch(core)
        if self.buffered and bio.op == IoOp.READ:
            yield from self.kernel.copy(core, bio.size)
        # Completion delivery: IRQ + wakeup (+ read copy-out).
        root = bio.obs_span
        root.record("complete", "stage", t0, self.env.now)
        root.finish(ok=not (request.status or request.error))
