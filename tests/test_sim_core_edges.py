"""Edge-case tests for the DES kernel.

These pin down corner semantics the main suite doesn't touch: the
payload of a condition when a sibling child is triggered but not yet
processed, failure propagation through ``all_of``, ``run(until=)``
clock behavior at the boundary, interrupting a process whose wait
target has already fired or that is not waiting at all, and the
failure-sink installed when an interrupt orphans a waited-on event.
"""

import pytest

from repro.errors import ProcessKilled, SimulationError
from repro.sim import Environment
from repro.sim.core import Event


def test_any_of_payload_excludes_triggered_but_unprocessed_child():
    """A sibling that fired at the same tick but whose callbacks have not
    run yet is *not* in the condition's payload (documented semantics)."""
    env = Environment()
    a = env.event()
    b = env.event()
    results = {}

    def waiter(env):
        payload = yield env.any_of([a, b])
        results["payload"] = dict(payload)

    env.process(waiter(env))
    # Same tick, FIFO: a's callbacks run first, the condition fires with
    # b still only *triggered*.
    a.succeed("va")
    b.succeed("vb")
    env.run()
    assert results["payload"] == {a: "va"}
    assert b.triggered and b.processed  # b still completed afterwards


def test_all_of_payload_with_same_tick_children():
    env = Environment()
    a = env.event()
    b = env.event()
    results = {}

    def waiter(env):
        payload = yield env.all_of([a, b])
        results["payload"] = dict(payload)

    env.process(waiter(env))
    a.succeed(1)
    b.succeed(2)
    env.run()
    # The condition fires while processing b (the last child); by then a
    # has been processed, so both values are present.
    assert results["payload"] == {a: 1, b: 2}


def test_all_of_fails_on_first_failed_child():
    env = Environment()
    a = env.event()
    b = env.event()
    seen = {}

    def waiter(env):
        try:
            yield env.all_of([a, b])
        except RuntimeError as exc:
            seen["exc"] = exc
            return "failed"

    p = env.process(waiter(env))
    boom = RuntimeError("child failed")
    a.fail(boom)
    env.run()
    assert seen["exc"] is boom
    assert p.value == "failed"
    # A late sibling success must not re-trigger the failed condition.
    b.succeed("late")
    env.run()
    assert p.value == "failed"


def test_failed_child_after_condition_done_does_not_crash_run():
    """A child that fails *after* the condition already fired is observed
    by the condition's (now inert) callback, not escalated by run()."""
    env = Environment()
    a = env.event()
    b = env.event()

    def waiter(env):
        with pytest.raises(ValueError):
            yield env.any_of([a, b])

    env.process(waiter(env))
    a.fail(ValueError("first"))
    env.run()
    b.fail(ValueError("second"))  # condition is done; still has the callback
    env.run()  # must not raise


def test_run_until_clock_lands_exactly_on_until_when_queue_drains():
    env = Environment()

    def proc(env):
        yield env.timeout(10)

    env.process(proc(env))
    env.run(until=500)
    assert env.now == 500


def test_run_until_processes_events_at_exactly_until():
    env = Environment()
    fired = []

    def proc(env):
        yield env.timeout(100)
        fired.append(env.now)
        yield env.timeout(1)
        fired.append(env.now)

    env.process(proc(env))
    env.run(until=100)
    # The event at t=100 runs; its successor at t=101 does not.
    assert fired == [100]
    assert env.now == 100
    env.run()
    assert fired == [100, 101]


def test_run_until_now_is_a_noop_boundary():
    env = Environment()
    env.run(until=0)
    assert env.now == 0
    with pytest.raises(SimulationError):
        env.run(until=-1)


def test_interrupt_process_waiting_on_already_triggered_event():
    """Interrupt wins over a pending (triggered, unprocessed) wait target,
    and the stale event firing later must not resume the dead process."""
    env = Environment()
    ev = env.event()
    seen = {}

    def victim(env):
        try:
            yield ev
        except ProcessKilled as exc:
            seen["cause"] = exc.args[0]
            return "killed"
        return "completed"

    p = env.process(victim(env))
    env.run(until=0)  # let the process reach its yield
    ev.succeed("value")  # now triggered + scheduled, but not processed
    p.interrupt(cause="preempted")
    env.run()
    assert p.value == "killed"
    assert seen["cause"] == "preempted"
    assert ev.processed  # the orphaned event still completed quietly


def test_interrupt_detach_sinks_orphaned_failure():
    """If an interrupt removes the only waiter of an event and that event
    later *fails*, the failure is intentionally unobserved — run() must
    not escalate it to a crash."""
    env = Environment()
    ev = env.event()

    def victim(env):
        try:
            yield ev
        except ProcessKilled:
            return "killed"

    p = env.process(victim(env))
    env.run(until=0)
    p.interrupt()
    ev.fail(RuntimeError("nobody is listening"))
    env.run()  # must not raise
    assert p.value == "killed"


def _twice_waiting_victim(env, seen):
    """Waits 10 ns, and once an interrupt lands, 20 ns more."""
    try:
        yield env.timeout(10)
    except ProcessKilled as exc:
        seen.append((env.now, exc.args[0]))
    yield env.timeout(20)
    seen.append((env.now, "done"))


def test_a_self_interrupt_is_not_followed_by_a_stale_resume():
    """A process that interrupts itself and then waits 10 ns gets the
    interrupt at that wait, and nothing else: the abandoned 10 ns
    timeout does not resume it again, so its 20 ns wait ends at 20."""
    env = Environment()
    seen = []

    def victim(env):
        env.active_process.interrupt("self")
        yield from _twice_waiting_victim(env, seen)

    env.process(victim(env))
    env.run()
    assert seen == [(0, "self"), (20, "done")]


def test_an_interrupt_before_the_first_resume_is_not_followed_by_a_stale_resume():
    env = Environment()
    seen = []
    proc = env.process(_twice_waiting_victim(env, seen))
    proc.interrupt("early")
    env.run()
    assert seen == [(0, "early"), (20, "done")]


def test_two_interrupts_of_one_instant_leave_no_stale_resume():
    """The first interrupt lands while the second is still on its way:
    the wait started in between is detached too."""
    env = Environment()
    seen = []

    def victim(env):
        for _ in range(2):
            try:
                yield env.timeout(10)
            except ProcessKilled as exc:
                seen.append((env.now, exc.args[0]))
        yield env.timeout(20)
        seen.append((env.now, "done"))

    proc = env.process(victim(env))
    env.run(until=0)
    proc.interrupt("first")
    proc.interrupt("second")
    env.run()
    assert seen == [(0, "first"), (0, "second"), (20, "done")]


def test_unobserved_failure_still_raises_without_interrupt():
    """The failure sink is scoped to interrupt-orphaned events only:
    a failed event that never had a waiter still surfaces from run()."""
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("genuinely unobserved"))
    with pytest.raises(RuntimeError, match="genuinely unobserved"):
        env.run()


def test_resume_event_pool_is_bounded_and_invisible():
    """Yielding already-processed events exercises the internal resume
    pool; values are delivered correctly and the pool stays bounded."""
    env = Environment()
    done = env.event()
    done.succeed("ready")
    values = []

    def hopper(env, rounds):
        for i in range(rounds):
            v = yield done  # processed after the first step -> pooled resume
            values.append((i, v))
        return len(values)

    p = env.process(hopper(env, 600))
    env.run()
    assert p.value == 600
    assert values[0] == (0, "ready") and values[-1] == (599, "ready")
    assert len(env._resume_pool) <= Environment._POOL_MAX


def test_yield_processed_failed_event_raises_into_process():
    env = Environment()
    bad = env.event()
    seen = {}

    def observer(env):
        try:
            yield bad
        except ValueError as exc:
            seen["exc"] = str(exc)

    env.process(observer(env))
    bad.fail(ValueError("stored failure"))
    env.run()
    assert seen["exc"] == "stored failure"

    def late_observer(env):
        # The event is long processed; resumption goes through the pool.
        try:
            yield bad
        except ValueError as exc:
            return str(exc)

    p = env.process(late_observer(env))
    env.run()
    assert p.value == "stored failure"


def test_environment_slots_reject_adhoc_attributes():
    env = Environment()
    with pytest.raises(AttributeError):
        env.scratch = 1  # __slots__: the hot loop relies on a fixed layout


def test_event_slots_reject_adhoc_attributes():
    env = Environment()
    with pytest.raises(AttributeError):
        Event(env).scratch = 1
