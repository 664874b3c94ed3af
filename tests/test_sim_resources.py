"""Unit tests for Resource and Semaphore."""

import pytest

from repro.errors import ProcessKilled, SimulationError
from repro.sim import Environment, Resource, Semaphore


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_serializes_access():
    env = Environment()
    res = Resource(env, capacity=1)
    spans = []

    def worker(env, wid):
        req = res.request()
        yield req
        start = env.now
        yield env.timeout(10)
        res.release(req)
        spans.append((wid, start, env.now))

    for wid in range(3):
        env.process(worker(env, wid))
    env.run()
    assert spans == [(0, 0, 10), (1, 10, 20), (2, 20, 30)]


def test_resource_parallel_capacity_two():
    env = Environment()
    res = Resource(env, capacity=2)
    finish = []

    def worker(env, wid):
        yield from res.using(10)
        finish.append((wid, env.now))

    for wid in range(4):
        env.process(worker(env, wid))
    env.run()
    assert finish == [(0, 10), (1, 10), (2, 20), (3, 20)]


def test_resource_priority_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env):
        req = res.request()
        yield req
        yield env.timeout(100)
        res.release(req)

    def worker(env, wid, prio, delay):
        yield env.timeout(delay)
        yield from res.using(1, priority=prio)
        order.append(wid)

    env.process(holder(env))
    # Submitted in order 0,1,2 but priorities 2,0,1 => served 1,2,0.
    env.process(worker(env, 0, 2, 1))
    env.process(worker(env, 1, 0, 2))
    env.process(worker(env, 2, 1, 3))
    env.run()
    assert order == [1, 2, 0]


def test_resource_release_unowned_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    env.run()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_resource_cancel_waiting_request():
    env = Environment()
    res = Resource(env, capacity=1)
    first = res.request()
    second = res.request()
    assert res.queue_len == 1
    res.cancel(second)
    assert res.queue_len == 0
    with pytest.raises(SimulationError):
        res.cancel(first)  # already granted


def test_resource_using_releases_on_completion():
    env = Environment()
    res = Resource(env, capacity=1)

    def worker(env):
        yield from res.using(5)

    env.process(worker(env))
    env.run()
    assert res.count == 0


def test_semaphore_tokens_flow():
    env = Environment()
    sem = Semaphore(env, tokens=2)
    acquired_at = []

    def taker(env, wid):
        yield sem.acquire()
        acquired_at.append((wid, env.now))

    for wid in range(4):
        env.process(taker(env, wid))

    def releaser(env):
        yield env.timeout(50)
        sem.release(2)

    env.process(releaser(env))
    env.run()
    assert acquired_at == [(0, 0), (1, 0), (2, 50), (3, 50)]
    assert sem.tokens == 0


def test_semaphore_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Semaphore(env, tokens=-1)
    sem = Semaphore(env, tokens=1)
    with pytest.raises(SimulationError):
        sem.release(0)


def _semaphore_run(kill_at):
    """One token held from t=0 to t=10; waiters ``a`` and ``b`` queue at
    t=1 and ``a`` is interrupted at ``kill_at``.  Returns (event log,
    tokens left)."""
    env = Environment()
    sem = Semaphore(env, tokens=1)
    log = []

    def holder(env):
        yield sem.acquire()
        yield env.timeout(10)
        sem.release()

    def waiter(env, tag):
        yield env.timeout(1)
        try:
            yield sem.acquire()
        except ProcessKilled:
            log.append((tag, "killed", env.now))
            return
        log.append((tag, "got", env.now))
        yield env.timeout(5)
        sem.release()

    env.process(holder(env))
    a = env.process(waiter(env, "a"))
    env.process(waiter(env, "b"))

    def killer(env):
        yield env.timeout(kill_at)
        a.interrupt()

    env.process(killer(env))
    env.run()
    return log, sem.tokens


def test_interrupted_semaphore_waiter_leaks_no_token():
    """A waiter killed while queued withdraws its take: the next waiter
    gets the token when it frees, and the pool ends full."""
    log, tokens = _semaphore_run(kill_at=5)
    assert log == [("a", "killed", 5), ("b", "got", 10)]
    assert tokens == 1


def test_semaphore_token_granted_at_the_interrupt_instant_is_returned():
    """``a`` is granted the token at t=10 and killed at t=10, before it
    resumes: the token goes on to ``b`` at once."""
    log, tokens = _semaphore_run(kill_at=10)
    assert log == [("a", "killed", 10), ("b", "got", 10)]
    assert tokens == 1


def test_resource_queue_len_reporting():
    env = Environment()
    res = Resource(env, capacity=1)
    res.request()
    res.request()
    res.request()
    assert res.count == 1
    assert res.queue_len == 2


def test_interrupted_waiter_does_not_leak_slot():
    """A process killed while queued must withdraw its claim; the next
    waiter gets the slot and capacity never leaks."""
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env):
        yield from res.using(100)
        order.append(("holder-done", env.now))

    def waiter(env, tag):
        try:
            yield from res.using(10)
            order.append((tag, env.now))
        except Exception:
            order.append((tag + "-killed", env.now))

    env.process(holder(env))
    victim = env.process(waiter(env, "victim"))
    env.process(waiter(env, "survivor"))

    def killer(env):
        yield env.timeout(50)
        victim.interrupt()

    env.process(killer(env))
    env.run()
    assert ("victim-killed", 50) in order
    assert ("survivor", 110) in order  # got the slot right after the holder
    assert res.count == 0 and res.queue_len == 0


@pytest.mark.parametrize("claim", ["request", "acquire"])
def test_interrupt_at_the_grant_instant_releases_the_slot(claim):
    """A waiter granted at t=10 and killed at t=10, before it resumes,
    gives its slot back: a later user still gets it."""
    env = Environment()
    res = Resource(env, capacity=1)

    def user(env):
        if claim == "request":
            req = res.request()
            yield req
        else:
            req = yield from res.acquire()
        try:
            yield env.timeout(10)
        finally:
            res.release(req)
        return env.now

    env.process(user(env))
    second = env.process(user(env))

    def killer(env):
        yield env.timeout(5)
        yield env.timeout(5)  # scheduled after the first user's release at t=10
        assert second._target.triggered and not second._target.processed
        second.interrupt("killed at its grant")

    def late(env):
        yield env.timeout(20)
        return (yield env.process(user(env)))

    env.process(killer(env))
    third = env.process(late(env))
    env.run()
    assert res.count == 0 and res.queue_len == 0
    assert third.value == 30


def test_a_queued_claim_after_a_self_interrupt_is_withdrawn():
    """A process interrupts itself, catches the interrupt at its next
    wait and then queues a ``using`` claim behind a holder: the claim
    is granted when the holder leaves, and nothing stale resumes it
    first, so it releases cleanly and no slot stays held."""
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env):
        yield from res.using(5)

    def victim(env):
        env.active_process.interrupt("self")
        try:
            yield env.timeout(2)
        except ProcessKilled:
            pass
        yield from res.using(1)
        return env.now

    env.process(holder(env))
    proc = env.process(victim(env))
    env.run()
    assert proc.value == 6
    assert res.count == 0 and res.queue_len == 0


def test_a_claim_queued_while_an_interrupt_is_on_its_way_is_withdrawn():
    """The claim is made between a self-interrupt and its delivery, so
    the interrupt lands while it waits: the claim leaves the queue and
    the next waiter gets the slot."""
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env):
        yield from res.using(5)

    def victim(env):
        env.active_process.interrupt("self")
        try:
            yield from res.using(1)
        except ProcessKilled:
            order.append(("victim-killed", env.now))

    def survivor(env):
        yield from res.using(1)
        order.append(("survivor", env.now))

    env.process(holder(env))
    env.process(victim(env))
    env.process(survivor(env))
    env.run()
    assert order == [("victim-killed", 0), ("survivor", 6)]
    assert res.count == 0 and res.queue_len == 0


def test_acquire_takes_a_free_slot_without_an_event():
    env = Environment()
    res = Resource(env, capacity=2)
    got = []

    def user(env):
        before = env._seq
        req = yield from res.acquire()
        got.append((env._seq - before, res.count))
        res.release(req)

    env.process(user(env))
    env.run()
    assert got == [(0, 1)]
    assert res.count == 0

