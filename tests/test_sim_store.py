"""Unit tests for the reference mailbox ``Store`` (``store_reference.py``)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment

from .store_reference import Store


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((env.now, item))

    def producer(env):
        yield env.timeout(25)
        yield store.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(25, "x")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer(env):
        yield store.put("a")
        times.append(("a", env.now))
        yield store.put("b")  # blocks until a get frees the slot
        times.append(("b", env.now))

    def consumer(env):
        yield env.timeout(40)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert times == [("a", 0), ("b", 40)]


def test_store_capacity_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Store(env, capacity=0)


def test_store_try_get():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None
    store.put("v")
    env.run()
    assert store.try_get() == "v"
    assert store.try_get() is None


def test_store_is_full():
    env = Environment()
    store = Store(env, capacity=2)
    store.put(1)
    store.put(2)
    env.run()
    assert store.is_full
    assert len(store) == 2


def test_try_get_unblocks_putter():
    env = Environment()
    store = Store(env, capacity=1)
    done = []

    def producer(env):
        yield store.put(1)
        yield store.put(2)
        done.append(env.now)

    env.process(producer(env))
    env.run()
    assert not done  # second put blocked
    assert store.try_get() == 1
    env.run()
    assert done == [0]


def test_interrupted_getter_does_not_swallow_items():
    """Killing a process that waits on get() must withdraw its claim:
    the next put goes to a live getter, not into a dead process's event
    (which silently lost the item — the revived-messenger hang)."""
    env = Environment()
    store = Store(env)
    got = []

    def waiter(env):
        got.append((yield store.get()))

    doomed = env.process(waiter(env))

    def driver(env):
        yield env.timeout(1)
        doomed.interrupt("crashed")
        yield env.timeout(1)
        env.process(waiter(env))
        yield env.timeout(1)
        yield store.put("payload")

    env.process(driver(env))
    env.run()
    assert got == ["payload"]
    assert not store._getters


def test_interrupted_putter_withdraws_offer():
    """Killing a process blocked on a full store's put() must withdraw
    the pending item: draining the store afterwards yields only what
    live producers offered."""
    env = Environment()
    store = Store(env, capacity=1)
    store.put("held")

    def blocked_producer(env):
        yield store.put("doomed")

    doomed = env.process(blocked_producer(env))
    got = []

    def driver(env):
        yield env.timeout(1)
        doomed.interrupt("crashed")
        yield env.timeout(1)
        got.append(store.try_get())
        got.append(store.try_get())

    env.process(driver(env))
    env.run()
    assert got == ["held", None]
    assert not store._putters
