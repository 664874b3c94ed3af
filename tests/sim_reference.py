"""Event-driven references for :class:`repro.sim.Resource`,
:meth:`repro.sim.Environment.gather` and
:meth:`repro.sim.Environment.cancel`.

``ReferenceResource`` is the resource the free-slot grant replaced:
every claim, even of a free slot, is granted by an event that the
claiming process waits on.  It keeps that model's one fix: a claim
granted at the instant its process is interrupted, before the process
resumes, is released.  The differential property in
``test_sim_express.py`` requires both to give every process the same
outcome at the same instant, and the same ``count``/``queue_len`` at
every read instant.

``reference_gather`` is the process-per-leg join that ``env.gather``
replaced in the sub-op fan-out and the other joins; the property in
``test_sim_gather.py`` requires both to step every generator at the same
instant in the same order.

``ReferenceEnvironment`` never withdraws an event: its ``cancel`` drops
the event's callbacks and leaves it queued, so it still fires, as a
no-op, at its instant, as every answered call's deadline did before
calls withdrew them.  The property in ``test_sim_cancel.py`` requires
``Environment.cancel`` to give every other callback the same instant and
order, and the same sequence numbers.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Generator

from repro.sim import Environment, Event


class ReferenceRequest(Event):
    """A claim on one slot; its event fires when the slot is granted."""

    __slots__ = ("resource", "priority", "_order")

    def __init__(self, resource: "ReferenceResource", priority: int):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self._order = next(resource._counter)

    def __lt__(self, other: "ReferenceRequest") -> bool:
        return (self.priority, self._order) < (other.priority, other._order)

    def _cancel_on_interrupt(self) -> None:
        if not self.triggered:
            self.resource.cancel(self)
        elif not self.processed and self in self.resource._users:
            self.resource.release(self)


class ReferenceResource:
    """``capacity`` slots and a priority/FIFO queue; every grant is an event."""

    def __init__(self, env: Environment, capacity: int = 1):
        self.env = env
        self.capacity = capacity
        self._users: set = set()
        self._waiting: list = []
        self._counter = itertools.count()

    @property
    def count(self) -> int:
        return len(self._users)

    @property
    def queue_len(self) -> int:
        return len(self._waiting)

    def request(self, priority: int = 0) -> ReferenceRequest:
        req = ReferenceRequest(self, priority)
        if len(self._users) < self.capacity and not self._waiting:
            self._users.add(req)
            req.succeed(req)
        else:
            heapq.heappush(self._waiting, req)
        return req

    def acquire(self, priority: int = 0) -> Generator[Event, Any, ReferenceRequest]:
        req = self.request(priority)
        yield req
        return req

    def release(self, request: ReferenceRequest) -> None:
        self._users.remove(request)
        while self._waiting and len(self._users) < self.capacity:
            req = heapq.heappop(self._waiting)
            self._users.add(req)
            req.succeed(req)

    def cancel(self, request: ReferenceRequest) -> None:
        if request in self._waiting:
            self._waiting.remove(request)
            heapq.heapify(self._waiting)

    def using(self, duration: int, priority: int = 0) -> Generator[Event, Any, None]:
        req = self.request(priority)
        yield req
        try:
            yield self.env.timeout(duration)
        finally:
            self.release(req)


def reference_gather(env: Environment, generators) -> Generator[Event, Any, list]:
    """Process: run each generator as a process, wait for all of them,
    and return their values in order (or fail with the first failure)."""
    procs = [env.process(gen) for gen in generators]
    results = yield env.all_of(procs)
    return [results[proc] for proc in procs]


class ReferenceEnvironment(Environment):
    """An environment whose ``cancel`` leaves the event queued."""

    def cancel(self, event: Event) -> None:
        if event.triggered and not event.processed:
            event.callbacks = []
