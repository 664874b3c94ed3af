"""Linux native AIO (libaio): ``io_submit`` / ``io_getevents``.

Asynchronous, but every submission batch and every completion harvest is
still a syscall, and the interface only supports O_DIRECT (unbuffered)
access — the limitation Section II calls out.  Each iocb costs a small
control-structure copy; data moves without a copy thanks to O_DIRECT.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Sequence

from ..blk import Bio, BlockLayer
from ..errors import ApiError
from ..host import HostKernel
from ..sim import Environment, Event
from .base import AioEngine, RunResult

#: Bytes of one struct iocb copied into the kernel per submission.
IOCB_BYTES = 64


class LibAioEngine(AioEngine):
    """io_submit / io_getevents event loop."""

    name = "libaio"

    def __init__(
        self,
        env: Environment,
        kernel: HostKernel,
        blk: BlockLayer,
        batch_size: int = 16,
    ):
        super().__init__(env, kernel, blk)
        if batch_size < 1:
            raise ApiError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size

    def run(self, bios: Sequence[Bio], iodepth: int) -> Generator:
        self._validate(bios, iodepth)
        result = RunResult(started_at=self.env.now)
        meter = self.open_throughput_meter()
        core = self.kernel.cpus.pick_core()
        queue = deque(bios)
        inflight: dict[int, tuple[int, Bio]] = {}  # req_id -> (t0, bio)
        completed: deque = deque()  # completed requests
        waiter: list[Event] = []

        def on_done(request):
            completed.append(request)
            if waiter and not waiter[0].triggered:
                waiter.pop(0).succeed()

        while queue or inflight:
            # io_submit: one syscall for up to batch_size iocbs.
            batch = []
            while queue and len(inflight) < iodepth and len(batch) < self.batch_size:
                batch.append(queue.popleft())
            if batch:
                yield from self.kernel.syscall(core)
                yield from self.kernel.copy(core, IOCB_BYTES * len(batch))
                for bio in batch:
                    request = yield from self.blk.submit_bio(core, bio)
                    inflight[request.req_id] = (self.env.now, bio)
                    req = request  # bind for closure

                    def make_cb(r):
                        return lambda _ev: on_done(r)

                    if request.completion.processed:
                        on_done(request)
                    else:
                        request.completion.callbacks.append(make_cb(request))
                self.blk.flush_plug(core)
            # io_getevents: syscall; blocks (sleep+wake) if nothing ready.
            yield from self.kernel.syscall(core)
            if not completed and inflight:
                yield from self.kernel.context_switch(core)
                ev = self.env.event()
                waiter.append(ev)
                yield ev
                yield from self.kernel.interrupt(core)
                yield from self.kernel.context_switch(core)
            while completed:
                request = completed.popleft()
                t0, bio = inflight.pop(request.req_id)
                self._complete(result, meter, bio, self.env.now - t0, request.ok, bio.obs_span)
        result.finished_at = self.env.now
        return result
