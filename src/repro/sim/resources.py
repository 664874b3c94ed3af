"""Shared-resource primitives for the DES kernel.

:class:`Resource` models a server with fixed capacity and a FIFO (or
priority) wait queue — used for CPU cores, device channels, PCIe credits,
and the like.  A process does::

    req = yield from resource.acquire()
    try:
        ...   # holding one slot
    finally:
        resource.release(req)

or, with automatic release, ``yield from resource.using(duration)``.  A
free slot is granted at once, with no event; only a claim that has to
wait is queued and resumed by an event.  ``request()`` is the evented
form: its event fires once the slot is granted, even a free one.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Generator

from ..errors import SimulationError
from .core import Environment, Event

_new = object.__new__


class Request(Event):
    """A pending claim on one unit of a :class:`Resource`."""

    __slots__ = ("resource", "priority", "_order")

    def __init__(self, resource: "Resource", priority: int):
        self.env = resource.env
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._processed = False
        self.resource = resource
        self.priority = priority
        self._order = next(resource._counter)

    def __lt__(self, other: "Request") -> bool:
        return (self.priority, self._order) < (other.priority, other._order)

    def _cancel_on_interrupt(self) -> None:
        """Withdraw this claim when the waiting process is interrupted
        (hook called by :meth:`Process.interrupt`).

        A claim granted at this instant, whose process has not resumed
        yet, already holds its slot: release it, or nobody ever will.
        """
        if not self._triggered:
            self.resource.cancel(self)
        elif not self._processed and self in self.resource._users:
            self.resource.release(self)


class Resource:
    """A counted resource with ``capacity`` slots and a priority/FIFO queue.

    Lower ``priority`` values are served first; equal priorities are FIFO.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._waiting: list[Request] = []
        self._counter = itertools.count()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self, priority: int = 0) -> Request:
        """Claim one slot; the returned event fires once granted."""
        req = Request(self, priority)
        if len(self._users) < self.capacity and not self._waiting:
            self._users.add(req)
            req.succeed(req)
        else:
            heapq.heappush(self._waiting, req)
        return req

    def acquire(self, priority: int = 0) -> Generator[Event, Any, Request]:
        """Process: claim one slot and return the granted request.

        A free slot is taken with no event; otherwise the claim queues
        and this waits for its grant.  An interrupt while queued
        withdraws the claim.
        """
        req = self._claim(priority)
        if not req._processed:
            yield req
        return req

    def _claim(self, priority: int) -> Request:
        """A claim granted at once (already processed, no event) when a
        slot is free and nobody waits, else one queued for its grant."""
        users = self._users
        if len(users) >= self.capacity or self._waiting:
            return self.request(priority)
        req = _new(Request)
        req.env = self.env
        req.callbacks = None
        req._value = req
        req._ok = req._triggered = req._processed = True
        req.resource = self
        req.priority = priority
        req._order = next(self._counter)
        users.add(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot and wake the next waiter."""
        if request not in self._users:
            raise SimulationError(f"release() of a request not holding {self.name or 'resource'}")
        self._users.remove(request)
        self._grant_next()

    def cancel(self, request: Request) -> None:
        """Abandon a request that has not been granted yet."""
        if request in self._users:
            raise SimulationError("cancel() on a granted request; use release()")
        try:
            self._waiting.remove(request)
            heapq.heapify(self._waiting)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            req = heapq.heappop(self._waiting)
            if req._triggered:  # cancelled or interrupted
                continue
            self._users.add(req)
            req.succeed(req)

    def using(self, duration: int, priority: int = 0) -> Generator[Event, Any, None]:
        """Hold one slot for ``duration`` ns (acquire, wait, release)."""
        req = self._claim(priority)
        if not req._processed:
            yield req
        try:
            yield self.env.timeout(duration)
        finally:
            # release(), inline.  A request that holds no slot gets
            # release()'s error.
            try:
                self._users.remove(req)
            except KeyError:
                self.release(req)
            if self._waiting:
                self._grant_next()

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name!r} {len(self._users)}/{self.capacity} busy,"
            f" {len(self._waiting)} waiting>"
        )


class SemaphoreAcquire(Event):
    """A pending take of one :class:`Semaphore` token."""

    __slots__ = ("_semaphore",)

    def __init__(self, semaphore: "Semaphore"):
        super().__init__(semaphore.env)
        self._semaphore = semaphore

    def _cancel_on_interrupt(self) -> None:
        """Withdraw this take when the waiting process is interrupted
        (hook called by :meth:`Process.interrupt`).

        A token granted at this instant, whose process has not resumed
        yet, was taken for a process that will never use it: return it.
        """
        if not self._triggered:
            self._semaphore._waiting.remove(self)
        elif not self._processed:
            self._semaphore.release()


class Semaphore:
    """A counted token pool; ``acquire`` events fire FIFO as tokens free up."""

    def __init__(self, env: Environment, tokens: int, name: str = ""):
        if tokens < 0:
            raise SimulationError(f"Semaphore tokens must be >= 0, got {tokens}")
        self.env = env
        self.name = name
        self._tokens = tokens
        self._waiting: deque[SemaphoreAcquire] = deque()

    @property
    def tokens(self) -> int:
        """Currently available tokens."""
        return self._tokens

    def acquire(self) -> SemaphoreAcquire:
        """Take one token; fires immediately if one is available.

        An interrupt while waiting withdraws the take, and returns a
        token granted at that instant.
        """
        ev = SemaphoreAcquire(self)
        if self._tokens > 0 and not self._waiting:
            self._tokens -= 1
            ev.succeed()
        else:
            self._waiting.append(ev)
        return ev

    def release(self, n: int = 1) -> None:
        """Return ``n`` tokens, waking waiters in FIFO order."""
        if n < 1:
            raise SimulationError(f"release() needs n >= 1, got {n}")
        self._tokens += n
        while self._waiting and self._tokens > 0:
            self._tokens -= 1
            self._waiting.popleft().succeed()
