"""POSIX AIO (``aio_read``/``aio_write``), glibc thread-pool flavor.

glibc implements POSIX AIO entirely in user space: every request is
handed to a pool thread that performs a *blocking* read/write, and
completion is delivered by signal.  That stacks thread hand-off and
signal costs on top of the synchronous path — the "nearly 30 years old"
API Section II cites ("POSIX is dead").
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Sequence

from ..blk import Bio, BlockLayer, IoOp
from ..host import HostKernel
from ..sim import Environment
from .base import AioEngine, RunResult

#: glibc's default AIO thread-pool size (aio_threads tunable).
DEFAULT_POOL_THREADS = 20


class PosixAioEngine(AioEngine):
    """User-space thread-pool AIO with signal completion."""

    name = "posix-aio"

    def __init__(
        self,
        env: Environment,
        kernel: HostKernel,
        blk: BlockLayer,
        pool_threads: int = DEFAULT_POOL_THREADS,
    ):
        super().__init__(env, kernel, blk)
        self.pool_threads = pool_threads

    def run(self, bios: Sequence[Bio], iodepth: int) -> Generator:
        self._validate(bios, iodepth)
        result = RunResult(started_at=self.env.now)
        meter = self.open_throughput_meter()
        queue = deque(bios)
        threads = min(self.pool_threads, iodepth, len(bios))
        yield self.env.gather(self._pool_thread(queue, result, meter) for _ in range(threads))
        result.finished_at = self.env.now
        return result

    def _pool_thread(self, queue: deque, result: RunResult, meter) -> Generator:
        core = self.kernel.cpus.pick_core()
        while queue:
            bio = queue.popleft()
            start = self.env.now
            # Hand-off from the submitter to the pool thread.
            yield from self.kernel.context_switch(core)
            # The pool thread does a plain blocking syscall.
            yield from self.kernel.syscall(core)
            if bio.op == IoOp.WRITE:
                yield from self.kernel.copy(core, bio.size)
            request = yield from self.blk.submit_bio(core, bio)
            self.blk.flush_plug(core)
            yield from self.kernel.context_switch(core)
            yield request.completion
            yield from self.kernel.interrupt(core)
            yield from self.kernel.context_switch(core)
            if bio.op == IoOp.READ:
                yield from self.kernel.copy(core, bio.size)
            # Completion delivery by signal to the submitter.
            yield from self.kernel.context_switch(core)
            self._complete(result, meter, bio, self.env.now - start, request.ok, bio.obs_span)
