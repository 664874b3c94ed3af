"""The live DES kernel against its frozen reference.

``tests/kernel_reference`` keeps ``repro.sim.core`` and
``repro.sim.resources`` as they were before events were built in place,
``now`` became a slot and each process kept one bound resume (with the
later interrupt fix applied to both: a wait started while an interrupt
is on its way is detached at once).  The
property here runs the same random program on both kernels and requires
the same ``(now, label, value)`` trace, the same final process states and
resource counters, and the same ``_seq``: every event took the same
sequence number, so every event kept its ``(time, priority, seq)``.

A program is a few processes, each a list of operations: timeouts;
shared plain events succeeded or failed after a delay, and waited on
before or after they fire; ``all_of``/``any_of`` joins, ``gather`` legs
and ``cancel``; ``request``/``acquire``/``using`` claims and CPU runs on
small resources; interrupts of any process, the claimants included,
one or two in a row; joins on processes and processes started mid-run.  A driver advances the
clock with ``step()`` and ``run(until=)`` before a final ``run()``.
"""

import ast
import pathlib
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import ProcessKilled, SimulationError
from repro.host.cpu import CpuCore
from repro.sim import Environment, Resource

from . import kernel_reference as ref

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

N_EVENTS = 3
#: Resource capacities; claims pick one by index.
CAPACITIES = (1, 2)
N_PROCS = 4


class _ReferenceCpuCore:
    """``repro.host.cpu.CpuCore.run`` as it was: ``acquire`` and
    ``release`` through the resource's own methods."""

    def __init__(self, env, core_id):
        self.env = env
        self._res = ref.Resource(env, capacity=1, name=f"cpu{core_id}")
        self.busy_ns = 0

    def run(self, duration, priority=0):
        if duration == 0:
            return
        req = yield from self._res.acquire(priority)
        try:
            yield self.env.timeout(duration)
            self.busy_ns += duration
        finally:
            self._res.release(req)


LIVE = (Environment, Resource, CpuCore)
REFERENCE = (ref.Environment, ref.Resource, _ReferenceCpuCore)

# -- programs -------------------------------------------------------------------------

delays = st.integers(0, 3)
holds = st.integers(0, 3)
event_ix = st.integers(0, N_EVENTS - 1)
res_ix = st.integers(0, len(CAPACITIES) - 1)
priorities = st.integers(0, 1)

leg_ops = st.one_of(
    st.tuples(st.just("timeout"), delays),
    st.tuples(st.just("wait"), event_ix),
)
simple_ops = st.one_of(
    st.tuples(st.just("timeout"), delays),
    st.tuples(st.just("succeed"), event_ix, delays),
    st.tuples(st.just("fail"), event_ix, delays),
    st.tuples(st.just("wait"), event_ix),
    st.tuples(st.sampled_from(["all_of", "any_of"]),
              st.lists(event_ix, max_size=N_EVENTS, unique=True), delays),
    st.tuples(st.just("gather"), st.lists(st.lists(leg_ops, max_size=3), max_size=3)),
    st.tuples(st.just("cancel"), event_ix),
    st.tuples(st.sampled_from(["request", "acquire", "using"]), res_ix, holds, priorities),
    st.tuples(st.just("cpu"), holds),
    st.tuples(st.sampled_from(["interrupt", "interrupt2"]), st.integers(0, N_PROCS), delays),
    st.tuples(st.just("join"), st.integers(0, N_PROCS)),
)
ops = st.one_of(simple_ops, st.tuples(st.just("spawn"), st.lists(simple_ops, max_size=4)))
programs = st.lists(st.lists(ops, max_size=6), min_size=1, max_size=N_PROCS)
drivers = st.lists(
    st.one_of(st.tuples(st.just("step"), st.integers(1, 4)),
              st.tuples(st.just("until"), st.integers(0, 4))),
    max_size=4,
)


def _plain(value):
    """``value`` as the trace records it: an exception as its type and
    message, anything else as its repr, with object addresses (which
    differ between the kernels) blanked."""
    if isinstance(value, BaseException):
        return (type(value).__name__, re.sub(r"0x[0-9a-f]+", "0x", str(value)))
    return re.sub(r"0x[0-9a-f]+", "0x", repr(value))


def run_program(kernel, program, driver):
    """Run ``program`` under ``driver`` on ``kernel``; return the trace,
    each process's final state, the resource counters, the clock and
    the environment's ``_seq``."""
    env_cls, res_cls, cpu_cls = kernel
    env = env_cls()
    events = [env.event() for _ in range(N_EVENTS)]
    names = {ev: f"e{i}" for i, ev in enumerate(events)}
    resources = [res_cls(env, capacity=c) for c in CAPACITIES]
    cpu = cpu_cls(env, 0)
    procs = []
    trace = []

    def claim(kind, res, hold, priority):
        if kind == "using":
            yield from res.using(hold, priority)
            return "used"
        if kind == "request":
            req = res.request(priority)
            yield req
        else:
            req = yield from res.acquire(priority)
        try:
            yield env.timeout(hold)
        finally:
            res.release(req)
        return "held"

    def leg(k, steps):
        for op in steps:
            if op[0] == "timeout":
                yield env.timeout(op[1])
            else:
                yield events[op[1]]
        return f"leg{k}"

    def do(op):
        kind = op[0]
        if kind == "timeout":
            return (yield env.timeout(op[1], value=f"t{op[1]}"))
        if kind in ("succeed", "fail"):
            ev = events[op[1]]
            if ev.triggered:
                return "late"
            if kind == "succeed":
                ev.succeed(f"v{op[1]}", delay=op[2])
            else:
                ev.fail(ValueError(f"f{op[1]}"), delay=op[2])
            return kind
        if kind == "wait":
            return (yield events[op[1]])
        if kind in ("all_of", "any_of"):
            clock = env.timeout(op[2], value="clock")
            names[clock] = "clock"
            children = [events[i] for i in op[1]] + [clock]
            join = env.all_of(children) if kind == "all_of" else env.any_of(children)
            done = yield join
            return sorted((names[ev], value) for ev, value in done.items())
        if kind == "gather":
            return (yield env.gather([leg(k, steps) for k, steps in enumerate(op[1])]))
        if kind == "cancel":
            env.cancel(events[op[1]])
            return "cancelled"
        if kind in ("request", "acquire", "using"):
            return (yield from claim(kind, resources[op[1]], op[2], op[3]))
        if kind == "cpu":
            yield from cpu.run(op[1])
            return "ran"
        if kind in ("interrupt", "interrupt2"):
            yield env.timeout(op[2])
            if op[1] < len(procs):
                for _ in range(2 if kind == "interrupt2" else 1):
                    procs[op[1]].interrupt(f"by {env.active_process.name}")
            return "sent"
        if kind == "join":
            if op[1] < len(procs):
                return (yield procs[op[1]])
            return "nobody"
        if kind == "spawn":
            start(op[1])
            return len(procs) - 1
        raise AssertionError(op)

    def script(pid, steps):
        for j, op in enumerate(steps):
            label = f"p{pid}.{j}.{op[0]}"
            try:
                value = yield from do(op)
            except (ProcessKilled, ValueError) as exc:
                value = exc
            trace.append((env.now, label, _plain(value)))
        return f"p{pid}"

    def start(steps):
        pid = len(procs)
        procs.append(env.process(script(pid, steps), name=f"p{pid}"))

    for steps in program:
        start(steps)

    def advance(fn):
        # An unobserved failure surfaces here, whatever it is.
        try:
            fn()
        except Exception as exc:
            trace.append((env.now, "crash", _plain(exc)))

    for kind, n in driver:
        if kind == "step":
            for _ in range(n):
                if env.peek() is None:
                    break
                advance(env.step)
        else:
            until = env.now + n
            advance(lambda: env.run(until=until))
        trace.append((env.now, "driver", env.peek()))
    for _ in range(10):  # each unobserved failure stops one run()
        if env.peek() is None:
            break
        advance(env.run)

    states = [
        (p.name, p.is_alive, None if p.is_alive else (p.ok, _plain(p.value)))
        for p in procs
    ]
    counters = [(res.count, res.queue_len) for res in resources] + [cpu.busy_ns]
    return trace, states, counters, env.now, env._seq


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs, drivers)
@example(
    # Holder releases at t=2; the waiter is granted then and interrupted
    # at the same instant, before it resumes.
    [[("acquire", 0, 2, 0)], [("acquire", 0, 1, 0)], [("timeout", 1), ("interrupt", 1, 1)]],
    [],
)
@example([[("using", 0, 2, 0)], [("using", 0, 1, 0)], [("interrupt", 1, 2)]], [("until", 1)])
@example(
    # A self-interrupt lands at the 2 ns timeout, which must not resume
    # the process again: the queued claims of ``using`` and a CPU run
    # that follow wait for their grant at 5 ns and release cleanly.
    [[("interrupt", 0, 0), ("timeout", 2), ("using", 0, 1, 0)], [("using", 0, 5, 0)]],
    [],
)
@example([[("interrupt", 0, 0), ("timeout", 2), ("cpu", 1)], [("cpu", 5)]], [])
@example(
    # A claim queued between a self-interrupt and its delivery is
    # withdrawn, so the slot p1 frees at 5 ns goes to nobody.
    [[("interrupt", 0, 0), ("using", 0, 1, 0)], [("using", 0, 5, 0)]],
    [],
)
@example([[("succeed", 0, 1), ("wait", 0), ("timeout", 1), ("wait", 0)]], [("step", 2)])
def test_live_kernel_matches_the_reference(program, driver):
    assert run_program(LIVE, program, driver) == run_program(REFERENCE, program, driver)


# -- error paths ------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", [LIVE, REFERENCE], ids=["live", "reference"])
def test_yielding_a_non_event_stops_the_run(kernel):
    env = kernel[0]()

    def bad(env):
        yield 5

    env.process(bad(env), name="bad")
    with pytest.raises(SimulationError, match="yielded 5; processes must yield Event objects"):
        env.run()


@pytest.mark.parametrize("kernel", [LIVE, REFERENCE], ids=["live", "reference"])
def test_yielding_another_environments_event_stops_the_run(kernel):
    env, other = kernel[0](), kernel[0]()

    def stray(env):
        yield other.timeout(1)

    env.process(stray(env), name="stray")
    with pytest.raises(SimulationError, match="yielded an event from another Environment"):
        env.run()


@pytest.mark.parametrize("kernel", [LIVE, REFERENCE], ids=["live", "reference"])
def test_negative_delays_are_refused(kernel):
    env = kernel[0]()
    with pytest.raises(SimulationError, match=r"negative timeout delay: -1"):
        env.timeout(-1)
    ev = env.event()
    with pytest.raises(SimulationError, match=r"cannot schedule in the past \(delay=-2\)"):
        ev.succeed(delay=-2)
    with pytest.raises(SimulationError, match=r"cannot schedule in the past \(delay=-3\)"):
        env.event().fail(ValueError("x"), delay=-3)
    assert env.peek() is None and env._seq == 0


def test_a_refused_trigger_leaves_the_event_pending():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        ev.succeed("early", delay=-1)
    assert not ev.triggered
    ev.succeed("later", delay=1)
    env.run()
    assert ev.value == "later" and env.now == 1


# -- the clock ----------------------------------------------------------------------------


def test_now_is_the_clock_slot():
    env = Environment(initial_time=7)
    assert env.now == env._now == 7
    env.timeout(5)
    env.run()
    assert env.now == env._now == 12
    assert Environment.now is Environment._now


def _now_assignments(path):
    """Lines of ``path`` that assign, or augment, an attribute ``now``/``_now``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr in ("now", "_now"):
                    hits.append(node.lineno)
    return hits


def test_only_the_kernel_sets_the_clock():
    kernel = SRC / "sim" / "core.py"
    assert _now_assignments(kernel), "the scan no longer sees the kernel's own writes"
    offenders = {
        str(path.relative_to(SRC)): lines
        for path in sorted(SRC.rglob("*.py"))
        if path != kernel and (lines := _now_assignments(path))
    }
    assert offenders == {}
