"""Reference mailbox: the event-based ``Store`` the simulator once shipped.

A frozen copy of ``Store``, ``StorePut`` and ``StoreGet`` from the
former ``repro.sim.store``, kept because ``tests/fabric_reference.py``
queues its deliveries in per-entity inboxes.  Only the imports differ;
``FilterStore`` was not kept, so nothing reads ``StoreGet.filter``.  The
simulator hands each message straight to its receiver, so no code under
``src/`` uses a mailbox.

The original module docstring follows.

Buffered message stores for the DES kernel.

:class:`Store` is an optionally bounded FIFO of arbitrary items with
event-based ``put``/``get`` — the building block for NIC queues,
descriptor rings, and inter-process mailboxes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim import Environment, Event


class StorePut(Event):
    """Pending insertion of ``item`` into a store."""

    __slots__ = ("item", "_store")

    def __init__(self, env: Environment, item: Any, store: "Store"):
        super().__init__(env)
        self.item = item
        self._store = store

    def _cancel_on_interrupt(self) -> None:
        """Withdraw this put when the waiting process is interrupted
        (hook called by :meth:`Process.interrupt`)."""
        if not self.triggered:
            try:
                self._store._putters.remove(self)
            except ValueError:
                pass


class StoreGet(Event):
    """Pending removal of one item from a store."""

    __slots__ = ("filter", "_store")

    def __init__(
        self,
        env: Environment,
        store: "Store",
        filter: Optional[Callable[[Any], bool]] = None,
    ):
        super().__init__(env)
        self.filter = filter
        self._store = store

    def _cancel_on_interrupt(self) -> None:
        """Withdraw this claim so a later ``put`` is never handed to a
        dead process (which would silently swallow the item)."""
        if not self.triggered:
            try:
                self._store._getters.remove(self)
            except ValueError:
                pass


class Store:
    """FIFO of items with optional capacity; puts block when full."""

    def __init__(self, env: Environment, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"Store capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._putters: deque[StorePut] = deque()
        self._getters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        """True when a put would block."""
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the returned event fires once accepted."""
        ev = StorePut(self.env, item, self)
        self._putters.append(ev)
        self._dispatch()
        return ev

    def get(self) -> StoreGet:
        """Remove the oldest item; the event's value is the item."""
        ev = StoreGet(self.env, self)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def try_get(self) -> Any:
        """Non-blocking get: the oldest item, or None when empty."""
        if not self.items:
            return None
        item = self.items.popleft()
        self._dispatch()
        return item

    def _admit_puts(self) -> bool:
        moved = False
        while self._putters and (self.capacity is None or len(self.items) < self.capacity):
            put = self._putters.popleft()
            self.items.append(put.item)
            put.succeed()
            moved = True
        return moved

    def _serve_gets(self) -> bool:
        moved = False
        while self._getters and self.items:
            get = self._getters.popleft()
            get.succeed(self.items.popleft())
            moved = True
        return moved

    def _dispatch(self) -> None:
        # Alternate until neither side can make progress; a get freeing a
        # slot can unblock a put and vice versa.
        while self._admit_puts() | self._serve_gets():
            pass

