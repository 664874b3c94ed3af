"""Memory-mapped file I/O engine.

Reads are served through page faults (with fault-around batching);
writes dirty mapped pages (a memcpy) and become durable via ``msync``,
which blocks on writeback.  Captures the trade-off of Crotty et al.'s
"are you sure you want to use mmap?" critique cited in Section II:
no syscalls on the hot path, but page-fault storms on random access and
no control over writeback.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Sequence

from ..blk import Bio, BlockLayer, IoOp
from ..host import HostKernel
from ..sim import Environment
from .base import AioEngine, RunResult

PAGE = 4096
#: Pages mapped per fault by fault-around.
FAULT_AROUND_PAGES = 16


class MmapEngine(AioEngine):
    """mmap + msync block I/O."""

    name = "mmap"

    def __init__(self, env: Environment, kernel: HostKernel, blk: BlockLayer):
        super().__init__(env, kernel, blk)
        self._resident: set[int] = set()  # page numbers in the mapping

    def run(self, bios: Sequence[Bio], iodepth: int) -> Generator:
        self._validate(bios, iodepth)
        result = RunResult(started_at=self.env.now)
        meter = self.open_throughput_meter()
        queue = deque(bios)
        yield self.env.gather(
            self._worker(queue, result, meter) for _ in range(min(iodepth, len(bios)))
        )
        result.finished_at = self.env.now
        return result

    def _pages(self, bio: Bio) -> range:
        first = bio.offset // PAGE
        last = (bio.offset + bio.size - 1) // PAGE
        return range(first, last + 1)

    def _worker(self, queue: deque, result: RunResult, meter) -> Generator:
        core = self.kernel.cpus.pick_core()
        while queue:
            bio = queue.popleft()
            start = self.env.now
            ok = True  # resident pages cannot fail
            if bio.op == IoOp.READ:
                yield from self._fault_in(core, bio)
                # Touching resident pages is a memcpy out of the mapping.
                yield from self.kernel.copy(core, bio.size)
            else:
                yield from self._fault_in(core, bio)
                yield from self.kernel.copy(core, bio.size)
                # msync(MS_SYNC): blocking writeback of the dirtied range.
                yield from self.kernel.syscall(core)
                request = yield from self.blk.submit_bio(core, bio)
                self.blk.flush_plug(core)
                yield from self.kernel.context_switch(core)
                yield request.completion
                yield from self.kernel.context_switch(core)
                ok = request.ok
            self._complete(result, meter, bio, self.env.now - start, ok, bio.obs_span)

    def _fault_in(self, core, bio: Bio) -> Generator:
        """Fault the bio's pages in, fault-around style."""
        missing = [p for p in self._pages(bio) if p not in self._resident]
        if not missing:
            return
        faults = 0
        covered: set[int] = set()
        for page in missing:
            if page in covered:
                continue
            faults += 1
            for around in range(page, page + FAULT_AROUND_PAGES):
                covered.add(around)
        for _ in range(faults):
            yield from core.run(self.kernel.costs.page_fault_ns)
        # One backing read for the whole faulted extent.
        fault_bio = Bio(IoOp.READ, bio.sector, max(PAGE, bio.size), sequential=bio.sequential)
        request = yield from self.blk.submit_bio(core, fault_bio)
        self.blk.flush_plug(core)
        yield from self.kernel.context_switch(core)
        yield request.completion
        yield from self.kernel.context_switch(core)
        self._resident.update(covered)
