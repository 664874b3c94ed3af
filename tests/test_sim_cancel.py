"""``Environment.cancel`` against a reference that never withdraws.

:meth:`repro.sim.Environment.cancel` takes a scheduled event out of the
queue.  ``tests/sim_reference.py`` keeps ``ReferenceEnvironment``, whose
``cancel`` only drops the event's callbacks, so the event stays queued
and fires as a no-op.  The property here drives random schedules of
processes, gathers, URGENT and NORMAL events and callback-only timers
through both, cancelling some timers before they fire and some after,
and requires the same log of every other callback (instant and order)
and the same sequence numbers.  Driven by ``step()``, it requires that
every step processes a live event and that ``peek()`` gives the
reference's next live instant; driven by ``run(until=t)``, that the
clock stops at ``t``; and driven by ``run()``, that the run ends at the
last live event where the reference ends at the last cancelled timer.
"""

import heapq

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.core import NORMAL, URGENT

from .sim_reference import ReferenceEnvironment


def _run(env_cls, procs, timers, drive):
    """Run ``procs`` and ``timers`` on a fresh ``env_cls`` under ``drive``
    (``"run"``, ``"step"`` or a stride of ``run(until=...)`` calls).

    Returns the callback log, the sequence number, the final clock, the
    instant of every live step, the instants of the steps that processed
    a cancelled event, and the instants of the timers cancelled before
    they fired.
    """
    env = env_cls()
    log = []
    cancelled = {}  # timer cancelled before it fired -> its instant

    def note(label):
        return lambda _event: log.append((env.now, label))

    def leg(p, i, delays):
        for d in delays:
            yield env.timeout(d)
            log.append((env.now, ("leg", p, i)))
        return i

    def proc(p, start, steps):
        yield env.timeout(start)
        log.append((env.now, ("start", p)))
        for j, (kind, arg) in enumerate(steps):
            if kind == "sleep":
                yield env.timeout(arg)
            elif kind == "gather":
                got = yield env.gather([leg(p, i, delays) for i, delays in enumerate(arg)])
                assert got == list(range(len(arg)))
            elif kind == "spawn":
                env.process(proc((p, j), arg, []))
            else:  # an event that fires now, URGENT or NORMAL
                ev = env.event()
                ev.callbacks.append(note(("event", p, j)))
                ev.succeed(priority=URGENT if kind == "urgent" else NORMAL)
            log.append((env.now, ("step", p, j)))

    def timer(k, start, delay, urgent, cancel_after):
        yield env.timeout(start)
        if urgent:
            t = env.event().succeed(delay=delay, priority=URGENT)
        else:
            t = env.timeout(delay)
        t.callbacks.append(note(("timer", k)))
        if cancel_after is None:
            return
        yield env.timeout(cancel_after)
        if not t.processed:
            cancelled[t] = start + delay
        env.cancel(t)
        log.append((env.now, ("cancel", k, t.processed)))

    for p, (start, steps) in enumerate(procs):
        env.process(proc(p, start, steps))
    for k, spec in enumerate(timers):
        env.process(timer(k, *spec))

    live, dead = [], []
    if drive == "run":
        env.run()
    elif drive == "step":
        queue = env._queue
        while queue:
            assert all(queue[(i - 1) // 2] < queue[i] for i in range(1, len(queue)))
            when, _prio, _seq, event = queue[0]
            if event in cancelled:
                dead.append(when)
            else:
                assert env.peek() == when
                live.append(when)
            env.step()
            assert env.now == when
    else:
        until = 0
        while env.peek() is not None:
            until += drive
            env.run(until=until)
            assert env.now == until
    return log, env._seq, env.now, live, dead, sorted(cancelled.values())


#: Instants on a small grid, so that many events share a nanosecond.
instants = st.integers(0, 6)
steps_st = st.lists(
    st.one_of(
        st.tuples(st.just("sleep"), st.sampled_from([0, 0, 1, 2])),
        st.tuples(st.just("gather"),
                  st.lists(st.lists(st.sampled_from([0, 1, 2]), max_size=2), max_size=3)),
        st.tuples(st.just("spawn"), instants),
        st.tuples(st.sampled_from(["urgent", "normal"]), st.none()),
    ),
    max_size=4,
)
procs_st = st.lists(st.tuples(instants, steps_st), max_size=4)
#: (created at, delay, URGENT?, cancelled how long after creation or never)
timers_st = st.lists(
    st.tuples(instants, st.integers(0, 6), st.booleans(),
              st.one_of(st.none(), st.integers(0, 8))),
    max_size=6,
)
drives = st.sampled_from(["run", "step", 1, 2, 5])


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(  # a timer cancelled at its creation instant, beside a live one of that instant
    procs=[(0, [("urgent", None), ("sleep", 2)])],
    timers=[(0, 2, False, 0), (0, 2, True, None), (1, 4, False, 3)],
    drive="step",
)
@example(  # the last event of the run is a cancelled timer
    procs=[(1, [("gather", [[0, 1], [2]])])],
    timers=[(0, 6, False, 5), (0, 1, True, 2)],
    drive="run",
)
@given(procs=procs_st, timers=timers_st, drive=drives)
def test_cancel_matches_never_withdrawing_reference(procs, timers, drive):
    want_log, want_seq, want_end, want_live, want_dead, want_cancelled = _run(
        ReferenceEnvironment, procs, timers, drive
    )
    got_log, got_seq, got_end, got_live, got_dead, got_cancelled = _run(
        Environment, procs, timers, drive
    )
    assert got_log == want_log, "callback logs differ"
    assert got_seq == want_seq
    assert got_cancelled == want_cancelled
    if drive == "step":
        assert got_dead == [] and want_dead == want_cancelled
        assert got_live == want_live
    if drive == "run":
        last_live = max((t for t, _ in got_log), default=0)
        assert got_end == last_live
        assert want_end == max([last_live, *want_cancelled])


def test_cancelling_a_fired_or_unscheduled_event_is_a_no_op():
    env = Environment()
    fired = env.timeout(1)
    later = env.timeout(3)
    env.run(until=2)
    queue = list(env._queue)
    env.cancel(fired)
    env.cancel(env.event())
    assert env._queue == queue and fired.processed
    env.cancel(later)
    env.cancel(later)
    assert env._queue == [] and not later.processed
    env.run()
    assert env.now == 2


def test_cancel_keeps_the_queue_a_heap():
    env = Environment()
    timers = [env.timeout(d) for d in (5, 1, 4, 1, 3, 0, 2, 6)]
    for t in timers[1::3]:
        env.cancel(t)
    left = [entry[3] for entry in sorted(env._queue)]
    assert [heapq.heappop(env._queue)[3] for _ in range(len(left))] == left
    assert left == [timers[i] for i in (5, 3, 6, 2, 0)]
