"""``env.gather`` against the process-per-leg join it replaced.

:meth:`repro.sim.Environment.gather` steps each generator from event
callbacks, with no process per leg.  ``tests/sim_reference.py`` keeps
the join over ``env.process`` and ``all_of``.  The property here runs
both under the same callers, legs, outside events and interrupts, and
requires the same log of every step (who, what, and at which instant,
in order), the same values and exceptions, and 2n - 2 fewer events per
join of n legs.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import ProcessKilled, SimulationError
from repro.sim import Environment
from repro.sim.core import NORMAL, URGENT

from .sim_reference import reference_gather


class Boom(Exception):
    """What a raising leg raises."""


def gather(env, generators):
    return (yield env.gather(generators))


def _run(join, callers, outside, kills):
    """Run ``callers`` (start instant, legs) joining their legs through
    ``join``, beside ``outside`` events and ``kills`` of callers; return
    the step log and the number of events scheduled."""
    env = Environment()
    log = []
    fired = env.event()
    fired.succeed("early")  # processed in the first instant, before any leg runs

    def leg(c, i, steps, end):
        for j, (kind, arg) in enumerate(steps):
            if kind == "sleep":
                got = yield env.timeout(arg, value=(c, i, j))
            elif kind == "fired":
                got = yield fired
            else:  # "fail": wait on an event that fails, and catch it
                bad = env.event()
                bad.fail(Boom(c, i, j), delay=arg)
                try:
                    yield bad
                except Boom as exc:
                    got = repr(exc)
            log.append(("leg", c, i, j, env.now, got, env.active_process is None))
        if end == "raise":
            raise Boom(c, i)
        return (c, i, env.now)

    def caller(c, at, legs):
        try:
            yield env.timeout(at)
            log.append(("join", c, len(legs), env.now))
            try:
                values = yield from join(env, [leg(c, i, *spec) for i, spec in enumerate(legs)])
            except Boom as exc:
                log.append(("raised", c, env.now, repr(exc)))
            else:
                log.append(("joined", c, env.now, values))
        except ProcessKilled:
            log.append(("killed", c, env.now))

    def note(tag):
        return lambda _event: log.append(("outside", tag, env.now))

    def other(at, priority, k):
        yield env.timeout(at)
        log.append(("other", k, env.now))
        ev = env.event()
        ev.callbacks.append(note(k))
        ev.succeed(priority=priority)
        if priority == URGENT:
            # A process start is one more URGENT event of this instant.
            env.process(spawned(k))

    def spawned(k):
        log.append(("spawned", k, env.now))
        yield env.timeout(0)
        log.append(("spawned-done", k, env.now))

    def killer(at, victim):
        yield env.timeout(at)
        procs[victim % len(procs)].interrupt("killed")

    procs = [env.process(caller(c, at, legs)) for c, (at, legs) in enumerate(callers)]
    for k, (at, priority) in enumerate(outside):
        env.process(other(at, priority, k))
    for at, victim in kills:
        env.process(killer(at, victim))
    env.run()
    return log, env._seq


#: Instants on a small grid, so that many events share a nanosecond.
instants = st.integers(0, 6)
steps_st = st.lists(
    st.one_of(
        st.tuples(st.just("sleep"), st.sampled_from([0, 0, 1, 2, 3])),
        st.tuples(st.just("fired"), st.none()),
        st.tuples(st.just("fail"), st.sampled_from([0, 2])),
    ),
    max_size=3,
)
legs_st = st.lists(st.tuples(steps_st, st.sampled_from(["return", "return", "raise"])),
                   max_size=4)
callers_st = st.lists(st.tuples(instants, legs_st), min_size=1, max_size=3)
outside_st = st.lists(st.tuples(instants, st.sampled_from([NORMAL, URGENT])), max_size=4)
kills_st = st.lists(st.tuples(instants, st.integers(0, 2)), max_size=2)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(  # an empty join, a one-leg join, and a raising leg beside a returning one
    callers=[(0, []), (0, [([], "return")]), (1, [([("sleep", 1)], "raise"), ([], "return")])],
    outside=[(0, URGENT), (1, NORMAL)],
    kills=[],
)
@example(  # the caller is interrupted mid-join; its legs run on
    callers=[(0, [([("sleep", 2)], "return"), ([("fired", None), ("sleep", 3)], "raise")])],
    outside=[(2, NORMAL), (3, URGENT)],
    kills=[(1, 0)],
)
@example(  # two legs raise in the same instant: the first raise wins
    callers=[(0, [([("sleep", 1)], "raise"), ([("fail", 0), ("sleep", 1)], "raise")])],
    outside=[(1, URGENT), (1, NORMAL)],
    kills=[(1, 0)],
)
@given(callers=callers_st, outside=outside_st, kills=kills_st)
def test_gather_matches_process_per_leg_reference(callers, outside, kills):
    want, want_events = _run(reference_gather, callers, outside, kills)
    got, got_events = _run(gather, callers, outside, kills)
    # Steps differ only in a leg's active process: a gather leg has none.
    assert [e[:-1] if e[0] == "leg" else e for e in got] == \
           [e[:-1] if e[0] == "leg" else e for e in want], "step logs differ"
    assert all(e[-1] for e in got if e[0] == "leg")
    assert not any(e[-1] for e in want if e[0] == "leg")
    saved = sum(2 * e[2] - 2 for e in want if e[0] == "join" and e[2])
    assert want_events - got_events == saved


def test_a_join_of_n_legs_costs_three_events():
    def leg(env):
        return
        yield

    for n in (1, 2, 6):
        env = Environment()
        env.process(gather(env, [leg(env) for _ in range(n)]))
        env.run()
        # The caller's start, the join's start, relay and firing.
        assert env._seq == 1 + 3
        env = Environment()
        env.process(reference_gather(env, [leg(env) for _ in range(n)]))
        env.run()
        assert env._seq == 1 + 2 * n + 1


def test_gather_needs_generators():
    env = Environment()
    with pytest.raises(SimulationError, match="needs generators"):
        env.gather([iter([])])


def test_a_leg_that_yields_a_non_event_crashes_the_run():
    env = Environment()

    def bad():
        yield 5

    env.process(gather(env, [bad()]))
    with pytest.raises(SimulationError, match="gather leg 'bad'"):
        env.run()


def test_an_unobserved_raise_surfaces_when_the_join_fires():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise Boom("nobody waits")

    env.gather([bad()])
    with pytest.raises(Boom, match="nobody waits"):
        env.run()
