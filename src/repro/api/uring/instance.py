"""One io_uring instance: SQ + CQ rings and the three completion modes.

Modes (paper Section III-A):

* ``INTERRUPT`` — classic: the waiter sleeps and is woken by an IRQ;
* ``POLL`` — the application busy-checks the CQ (no IRQ);
* ``SQPOLL`` — additionally, a kernel poller thread pinned to the
  instance's core drains the SQ, so steady-state submission needs **no
  syscalls at all**.  DeLiBA-K runs this mode ("kernel-polled").

The rings are real data structures; costs come from the host model:
``io_uring_enter`` is one syscall regardless of batch size (the batching
win), SQE kernel handling is charged per entry, and fixed-buffer opcodes
skip the user/kernel copy (the zero-copy win).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Generator, Optional

from ...blk import Bio, BlockLayer, IoOp
from ...errors import ApiError
from ...host import HostKernel
from ...status import BlkStatus
from ...host.cpu import CpuCore
from ...sim import Environment, Event
from .ring import Ring
from .sqe import ECANCELED, IOSQE_IO_LINK, Cqe, Sqe, UringOp

_user_data = itertools.count(1)


class UringMode(Enum):
    """Completion/submission mode of an instance."""

    INTERRUPT = "interrupt"
    POLL = "poll"
    SQPOLL = "sqpoll"


@dataclass(frozen=True)
class UringCosts:
    """Per-event CPU costs of the io_uring machinery."""

    #: Fill one SQE in user space (struct write into the mapped ring).
    prep_sqe_ns: int = 90
    #: Kernel-side fetch+validate+dispatch of one SQE inside enter/poller.
    kernel_sqe_ns: int = 350
    #: Post one CQE.
    post_cqe_ns: int = 120
    #: Reap one CQE in user space.
    reap_cqe_ns: int = 80
    #: Latency between an SQ tail bump and the SQPOLL thread noticing.
    sqpoll_wake_ns: int = 400


def _record_rings(bio: Bio, request) -> None:
    """Attribute SQE prep -> block-layer entry to the ``rings`` stage of
    the request ``bio`` opened (a bio merged into an earlier request has
    no rings stage of its own)."""
    if request.bios[0] is bio:
        root = bio.obs_span
        root.record("rings", "stage", root.start_ns, request.submitted_at)


class IoUring:
    """One ring pair bound to a CPU core."""

    def __init__(
        self,
        env: Environment,
        kernel: HostKernel,
        blk: BlockLayer,
        entries: int = 256,
        mode: UringMode = UringMode.SQPOLL,
        core: Optional[CpuCore] = None,
        costs: Optional[UringCosts] = None,
        fixed_buffers: bool = True,
        name: str = "uring0",
    ):
        self.env = env
        self.kernel = kernel
        self.blk = blk
        self.mode = mode
        self.costs = costs or UringCosts()
        self.fixed_buffers = fixed_buffers
        self.name = name
        #: Core this instance is bound to (sched_setaffinity in the paper).
        self.core = core or kernel.cpus.pick_core()
        self.sq = Ring(entries)
        self.cq = Ring(2 * entries)
        self._inflight: dict[int, Sqe] = {}
        #: user_data -> (completion fire time, the bio's span tree): the
        #: reaper closes the tree's ``complete`` stage from these.
        self._complete_t0: dict[int, tuple[int, object]] = {}
        self._cq_waiter: Optional[Event] = None
        self._sq_kick: Optional[Event] = None
        self._sqpoll_proc = None
        self.syscalls_saved = 0
        self.sqes_submitted = 0
        self.cqes_reaped = 0
        metrics = blk.metrics
        self._m_batch = metrics.distribution("uring.sqe_batch_size")
        self._m_sqes = metrics.counter("uring.sqes_submitted")
        self._m_cqes = metrics.counter("uring.cqes_reaped")
        self._m_saved = metrics.counter("uring.syscalls_saved")
        if mode == UringMode.SQPOLL:
            self._sqpoll_proc = env.process(self._sqpoll_loop(), name=f"{name}.sqpoll")

    # -- application side -------------------------------------------------------

    def prepare(self, bio: Bio, flags: int = 0) -> Sqe:
        """Fill the next SQE for ``bio`` (raises :class:`RingFullError`).

        Pass ``flags=IOSQE_IO_LINK`` to chain this SQE to the next one:
        the kernel starts the successor only after this I/O completes,
        and cancels the rest of the chain (``-ECANCELED``) on failure.
        """
        if bio.op == IoOp.READ:
            opcode = UringOp.READ_FIXED if self.fixed_buffers else UringOp.READ
        else:
            opcode = UringOp.WRITE_FIXED if self.fixed_buffers else UringOp.WRITE
        sqe = Sqe(
            opcode=opcode,
            fd=0,
            offset=bio.offset,
            length=bio.size,
            user_data=next(_user_data),
            flags=flags,
            bio=bio,
        )
        # The causal tree is rooted where the application hands the op
        # to the kernel interface: SQE preparation.
        self.blk.tracer.open_root(bio)
        self.sq.push(sqe)
        return sqe

    def prepare_many(self, bios: list[Bio], flags: int = 0) -> list[Sqe]:
        """Fill SQEs for a whole batch of bios in one call.

        Equivalent to calling :meth:`prepare` per bio (same SQEs, same
        user_data order) with the per-call overhead hoisted out of the
        loop; all-or-nothing on SQ space.
        """
        open_root = self.blk.tracer.open_root
        fixed = self.fixed_buffers
        sqes = []
        for bio in bios:
            if bio.op == IoOp.READ:
                opcode = UringOp.READ_FIXED if fixed else UringOp.READ
            else:
                opcode = UringOp.WRITE_FIXED if fixed else UringOp.WRITE
            open_root(bio)
            sqes.append(
                Sqe(
                    opcode=opcode,
                    fd=0,
                    offset=bio.offset,
                    length=bio.size,
                    user_data=next(_user_data),
                    flags=flags,
                    bio=bio,
                )
            )
        self.sq.push_many(sqes)
        return sqes

    def submit(self) -> Generator:
        """Process: make queued SQEs visible to the kernel.

        Interrupt/poll modes call ``io_uring_enter`` (one syscall for the
        whole batch); SQPOLL just bumps the tail and the poller thread
        picks the entries up without any syscall.
        """
        batch = len(self.sq)
        if batch == 0:
            return 0
        self._m_batch.record(batch)
        # Filling the SQEs burns app CPU regardless of mode.
        yield from self.core.run(self.costs.prep_sqe_ns * batch)
        if self.mode == UringMode.SQPOLL:
            self.syscalls_saved += 1
            self._m_saved.add()
            if self._sq_kick is not None and not self._sq_kick.triggered:
                self._sq_kick.succeed()
            return batch
        # One syscall covers the entire batch: this is the batching win.
        yield from self.kernel.syscall(self.core)
        yield from self._kernel_drain_sq(self.core)
        return batch

    # -- kernel side ------------------------------------------------------------------

    def _kernel_drain_sq(self, core: CpuCore) -> Generator:
        sq = self.sq
        kernel_sqe_ns = self.costs.kernel_sqe_ns
        inflight = self._inflight
        while not sq.is_empty:
            sqe = sq.pop()
            if not sqe.flags & IOSQE_IO_LINK:
                # Fast path: unlinked SQE (the steady-state case) — no
                # chain list, straight to the block layer.
                yield from core.run(kernel_sqe_ns)
                if not sqe.is_fixed_buffer and sqe.bio.op == IoOp.WRITE:
                    # Unregistered buffers pay a user->kernel copy.
                    yield from self.kernel.copy(core, sqe.length)
                inflight[sqe.user_data] = sqe
                self.sqes_submitted += 1
                self._m_sqes.add()
                request = yield from self.blk.submit_bio(core, sqe.bio)
                _record_rings(sqe.bio, request)
                self._arm_completion(sqe, request)
                continue
            # Collect a link chain: consecutive SQEs joined by IO_LINK.
            chain: list[Sqe] = [sqe]
            while chain[-1].flags & IOSQE_IO_LINK and not sq.is_empty:
                chain.append(sq.pop())
            for sqe in chain:
                yield from core.run(kernel_sqe_ns)
                if not sqe.is_fixed_buffer and sqe.bio.op == IoOp.WRITE:
                    yield from self.kernel.copy(core, sqe.length)
                inflight[sqe.user_data] = sqe
                self.sqes_submitted += 1
                self._m_sqes.add()
            if len(chain) == 1:
                # A trailing IO_LINK with nothing behind it: plain dispatch.
                request = yield from self.blk.submit_bio(core, chain[0].bio)
                _record_rings(chain[0].bio, request)
                self._arm_completion(chain[0], request)
            else:
                self.env.process(self._run_chain(chain, core), name=f"{self.name}.link")
        self.blk.flush_plug(core)

    def _run_chain(self, chain: list[Sqe], core: CpuCore) -> Generator:
        """Dispatch a link chain strictly in order; cancel after a failure."""
        failed = False
        for sqe in chain:
            if failed:
                yield from self.core.run(self.costs.post_cqe_ns)
                self._inflight.pop(sqe.user_data, None)
                self.cq.push(Cqe(user_data=sqe.user_data, res=ECANCELED))
                self._wake_cq_waiter()
                continue
            request = yield from self.blk.submit_bio(core, sqe.bio)
            _record_rings(sqe.bio, request)
            self.blk.flush_plug(core)
            yield request.completion
            if request.error or request.status:
                failed = True
            yield from self._post_cqe(sqe, request)

    def _arm_completion(self, sqe: Sqe, request) -> None:
        def on_complete(_ev) -> None:
            self.env.process(self._post_cqe(sqe, request), name=f"{self.name}.cqe")

        if request.completion.processed:
            on_complete(None)
        else:
            request.completion.callbacks.append(on_complete)

    def _post_cqe(self, sqe: Sqe, request) -> Generator:
        self._complete_t0[sqe.user_data] = (self.env.now, sqe.bio.obs_span)
        yield from self.core.run(self.costs.post_cqe_ns)
        if not sqe.is_fixed_buffer and sqe.bio.op == IoOp.READ:
            yield from self.kernel.copy(self.core, sqe.length)
        # blk_status_to_errno(): per-bio status -> negative errno in res.
        status = request.status_for(sqe.bio)
        if not status and request.error:
            # Legacy string-only failure (no status set): generic -EIO.
            status = BlkStatus.IOERR
        res = sqe.length if not status else -status.errno
        self._inflight.pop(sqe.user_data, None)
        self.cq.push(Cqe(user_data=sqe.user_data, res=res))
        if self.mode == UringMode.INTERRUPT:
            yield from self.kernel.interrupt(self.core)
        self._wake_cq_waiter()

    def _wake_cq_waiter(self) -> None:
        if self._cq_waiter is not None and not self._cq_waiter.triggered:
            self._cq_waiter.succeed()
            self._cq_waiter = None

    def _sqpoll_loop(self) -> Generator:
        """Kernel poller thread pinned to this instance's core."""
        while True:
            if self.sq.is_empty:
                self._sq_kick = self.env.event()
                yield self._sq_kick
                self._sq_kick = None
                # Poller notices the tail bump after a short poll gap.
                yield self.env.timeout(self.costs.sqpoll_wake_ns)
            yield from self._kernel_drain_sq(self.core)

    # -- completion reaping ------------------------------------------------------------

    def reap(self, max_cqes: int) -> Generator:
        """Process: harvest up to ``max_cqes`` available CQEs (no waiting)."""
        cqes = self.cq.pop_many(max_cqes)
        if cqes:
            yield from self.core.run(self.costs.reap_cqe_ns * len(cqes))
            self.cqes_reaped += len(cqes)
            self._m_cqes.add(len(cqes))
        return cqes

    def wait_cqes(self, wait_nr: int = 1, max_cqes: int = 64) -> Generator:
        """Process: block/poll until >= ``wait_nr`` CQEs, then reap.

        POLL/SQPOLL modes busy-check the CQ (poll cost per check);
        INTERRUPT mode sleeps and pays wakeup costs.
        """
        if wait_nr < 1:
            raise ApiError(f"wait_nr must be >= 1, got {wait_nr}")
        collected: list[Cqe] = []
        while len(collected) < wait_nr and len(collected) < max_cqes:
            if not self.cq.is_empty:
                got = yield from self.reap(max_cqes - len(collected))
                collected.extend(got)
                continue
            # Empty CQ: pay the wait cost, then RE-CHECK before arming the
            # waiter — a CQE posted during the yield must not be missed
            # (the arm happens synchronously after the emptiness check).
            if self.mode == UringMode.INTERRUPT:
                yield from self.kernel.context_switch(self.core)  # sleep
                if self.cq.is_empty:
                    self._cq_waiter = self.env.event()
                    yield self._cq_waiter
                yield from self.kernel.context_switch(self.core)  # wake
            else:
                yield from self.kernel.poll_once(self.core)
                if self.cq.is_empty:
                    self._cq_waiter = self.env.event()
                    yield self._cq_waiter
        return collected
