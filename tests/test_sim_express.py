"""The free-slot grant and eventless completion against the evented kernel.

:meth:`repro.sim.Resource.acquire` and ``using`` take a free slot with
no event, and a process that returns while nobody waits on it finishes
without one.  ``tests/sim_reference.py`` keeps the always-evented
resource.  The property here drives both with the same processes and
interrupts and requires the same outcome, at the same instant, for
every process, and the same ``count``/``queue_len`` at every read
instant.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import ProcessKilled
from repro.sim import Environment, Resource

from .sim_reference import ReferenceResource

MAX_T = 200


def _run(res_cls, capacity, users, kills, reads, kills_first):
    """Run ``users`` (offer instant, hold, claim style) against one
    resource while ``kills`` (instant, victim) interrupt them; return
    each user's outcome and the resource counters at each read instant."""
    env = Environment()
    res = res_cls(env, capacity)
    procs = []

    def user(at, hold, style):
        try:
            yield env.timeout(at)
            if style == "using":
                yield from res.using(hold)
            else:
                if style == "acquire":
                    req = yield from res.acquire()
                else:
                    req = res.request()
                    yield req
                try:
                    yield env.timeout(hold)
                finally:
                    res.release(req)
        except ProcessKilled:
            return "killed", env.now
        return "done", env.now

    def killer(at, victim):
        yield env.timeout(at)
        procs[victim % len(procs)].interrupt("killed")

    def start_killers():
        for at, victim in kills:
            env.process(killer(at, victim))

    if kills_first:
        start_killers()
    procs.extend(env.process(user(*u)) for u in users)
    if not kills_first:
        start_killers()
    counters = []
    for t in sorted(reads):
        env.run(until=t)
        counters.append((res.count, res.queue_len))
    env.run()
    counters.append((res.count, res.queue_len))
    return [p.value for p in procs], counters


#: Instants on a coarse grid make ties common: offers, releases, grants
#: and interrupts often land in the same nanosecond.
grid = st.integers(0, 12).map((5).__mul__)
styles = st.sampled_from(["using", "acquire", "request"])
users_st = st.one_of(
    st.lists(st.tuples(grid, st.integers(0, 4).map((5).__mul__), styles), min_size=1, max_size=8),
    st.lists(st.tuples(st.integers(0, 60), st.integers(0, 30), styles), min_size=1, max_size=8),
)
kills_st = st.lists(st.tuples(grid, st.integers(0, 7)), max_size=4)
reads_st = st.lists(st.integers(0, MAX_T), max_size=6)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(  # the second user is killed at t=10, the instant it is granted
    capacity=1,
    users=[(0, 10, "request"), (0, 10, "request"), (20, 10, "using")],
    kills=[(10, 1)],
    reads=[10, 25],
    kills_first=False,
)
@example(  # two interrupts of one holder in the same nanosecond
    capacity=1,
    users=[(0, 10, "acquire"), (0, 10, "using")],
    kills=[(0, 0), (0, 0), (10, 1)],
    reads=[0],
    kills_first=False,
)
@given(
    capacity=st.integers(1, 4),
    users=users_st,
    kills=kills_st,
    reads=reads_st,
    kills_first=st.booleans(),
)
def test_free_slot_grant_matches_reference(capacity, users, kills, reads, kills_first):
    got = _run(Resource, capacity, users, kills, reads, kills_first)
    want = _run(ReferenceResource, capacity, users, kills, reads, kills_first)
    assert got[0] == want[0], "process outcomes differ"
    assert got[1] == want[1], "resource counters differ"


def test_unwatched_return_schedules_no_event():
    env = Environment()

    def quick():
        yield env.timeout(5)
        return "v"

    proc = env.process(quick())
    env.run()
    # Start and timeout only: the return itself scheduled nothing.
    assert env._seq == 2
    assert proc.processed and proc.ok and proc.value == "v" and not proc.is_alive


def test_watched_return_still_resumes_its_waiter_by_event():
    env = Environment()
    order = []

    def child():
        yield env.timeout(5)
        order.append("child")
        return 7

    def parent():
        order.append(("parent", (yield env.process(child()))))

    env.process(parent())
    env.run()
    assert order == ["child", ("parent", 7)]
    # Two starts, the child's timeout, and the child's completion.
    assert env._seq == 4


def test_waiting_on_a_finished_unwatched_process_resumes_at_once():
    env = Environment()

    def quick():
        yield env.timeout(1)
        return 3

    done = env.process(quick())
    got = []

    def late():
        yield env.timeout(10)
        got.append((env.now, (yield done)))

    env.process(late())
    env.run()
    assert got == [(10, 3)]


def test_unwatched_failure_still_surfaces():
    env = Environment()

    def broken():
        yield env.timeout(1)
        raise ValueError("boom")

    env.process(broken())
    with pytest.raises(ValueError, match="boom"):
        env.run()
