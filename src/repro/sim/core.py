"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES engine in the style of SimPy,
written from scratch for this reproduction.  Simulated *processes* are
Python generators that ``yield`` :class:`Event` objects; the
:class:`Environment` advances an integer nanosecond clock and resumes each
process when the event it waits on fires.

Determinism guarantees
----------------------
Events scheduled for the same timestamp are processed in FIFO order of
scheduling (a monotonically increasing sequence number breaks ties), so a
simulation run is a pure function of its inputs and RNG seeds.

Example
-------
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(5)
...     return env.now
>>> p = env.process(hello(env))
>>> env.run()
>>> p.value
5
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import ProcessKilled, SimulationError
from .metrics import NULL_HEALTH, NULL_METRICS, NULL_TRACER

#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for high-urgency events (processed first at equal time).
URGENT = 0

ProcessGenerator = Generator["Event", Any, Any]


class Event:
    """An occurrence at a point in simulated time.

    An event starts *pending*, becomes *triggered* once a value or an
    exception is set and it has been scheduled, and *processed* after its
    callbacks have run.  Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._processed = False

    # -- state ---------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only after triggering)."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception if it failed)."""
        if not self._triggered:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering ----------------------------------------------------------

    def succeed(self, value: Any = None, delay: int = 0, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._ok = True
        self._value = value
        self._triggered = True
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now + delay, priority, seq, self))
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Trigger the event with an exception that propagates to waiters."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._ok = False
        self._value = exception
        self._triggered = True
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now + delay, NORMAL, seq, self))
        return self

    def __repr__(self) -> str:
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int, value: Any = None, priority: int = NORMAL):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now + delay, priority, seq, self))


class Initialize(Event):
    """Internal event that starts a process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now, URGENT, seq, self))


class Process(Event):
    """A running simulated process wrapping a generator.

    The process event itself triggers when the generator returns (value =
    its return value) or raises (the exception propagates to waiters).
    A return that nobody waits on schedules no event: the process is
    processed at once.  A failure always schedules, so an unobserved
    error still surfaces when it is dispatched.
    """

    __slots__ = ("_generator", "_target", "name", "_resume", "_interrupts")

    def __init__(self, env: "Environment", generator: ProcessGenerator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"process() needs a generator, got {generator!r}")
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._processed = False
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        #: The one bound callback every wait appends; cleared when the
        #: generator finishes, so a finished process is not kept alive
        #: by a reference cycle through it.
        self._resume: Optional[Callable[[Event], None]] = self._advance
        #: Interrupts scheduled but not yet delivered.
        self._interrupts = 0
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`ProcessKilled` into the process at its wait point.

        Until the interrupt is delivered, the process waits on nothing:
        a wait it starts meanwhile (it interrupted itself, or it had not
        started yet) is detached at once, like the wait it was in.
        """
        if self._triggered:
            return
        waiting = self._target is not None and self is not self.env.active_process
        if waiting and not self._interrupts:
            self._detach(self._target)
        self._interrupts += 1
        interrupt_ev = self.env._new_resume_event(False, ProcessKilled(cause))
        interrupt_ev.callbacks.append(self._interrupted)
        self.env._schedule(interrupt_ev, priority=URGENT)

    def _interrupted(self, event: Event) -> None:
        """Deliver a scheduled interrupt."""
        self._interrupts -= 1
        self._advance(event)

    def _detach(self, target: Event) -> None:
        """Stop waiting on ``target``: its firing no longer resumes us."""
        callbacks = target.callbacks
        if callbacks is not None:
            if self._resume in callbacks:
                callbacks.remove(self._resume)
            if not callbacks:
                # No waiter is left.  If the orphaned event later
                # *fails*, the failure is intentionally unobserved (its
                # only observer is being killed) — sink it so step()
                # doesn't escalate it to a crash.
                callbacks.append(_sink_failure)
        # A queued resource claim must be withdrawn, or the slot is
        # granted to a dead process and leaks forever.
        canceller = getattr(target, "_cancel_on_interrupt", None)
        if canceller is not None:
            canceller()

    def _advance(self, event: Event) -> None:
        """Advance the generator with the fired event's value."""
        if self._triggered:
            # Already finished (e.g. it returned before an interrupt
            # sent to it was delivered) — never resume a closed generator.
            return
        env = self.env
        env._active = self
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active = None
            self._resume = None
            if self.callbacks:
                self.succeed(stop.value)
            else:
                # Nobody waits on this process: it is done now, and a
                # later waiter resumes at once, as on any fired event.
                self._ok = True
                self._value = stop.value
                self._triggered = self._processed = True
                self.callbacks = None
            return
        except BaseException as exc:
            env._active = None
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._resume = None
            self.fail(exc)
            return
        env._active = None
        # A pending event of this environment takes the resume directly;
        # anything else (fired already, foreign, not an event) goes
        # through _wait.
        if isinstance(target, Event) and target.env is env:
            if self._interrupts:
                # An interrupt is on its way: it, not this target,
                # resumes the process.
                self._target = None
                self._detach(target)
                return
            callbacks = target.callbacks
            if callbacks is not None:
                callbacks.append(self._resume)
                self._target = target
                return
        self._target = env._wait(target, self._resume, self)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'done' if self._triggered else 'alive'}>"


def _sink_failure(_event: "Event") -> None:
    """No-op callback marking an orphaned event's failure as observed."""


class _ResumeEvent(Event):
    """Internal single-callback event used to resume a process.

    Created only inside the kernel (already-fired-target resumption and
    interrupts), carries exactly one callback, and is never exposed to
    user code — which makes it safe to recycle through the environment's
    event pool right after its callbacks have run.
    """

    __slots__ = ()


class Environment:
    """Owns the event queue and the simulated clock (integer nanoseconds).

    ``env.now`` is the current simulated time in nanoseconds.  It is the
    clock slot itself, read with no call; only the kernel writes it.

    It also carries the run's observers, which every layer built on it
    reads: ``env.metrics``, ``env.tracer`` and ``env.health``, each a
    shared no-op until the run assigns a real one.
    """

    __slots__ = ("_now", "_queue", "_seq", "_active", "_resume_pool", "metrics", "tracer", "health")

    #: Upper bound on pooled resume events (plenty for any realistic
    #: same-tick resume burst; beyond it, extras are garbage-collected).
    _POOL_MAX = 256

    def __init__(self, initial_time: int = 0):
        self._now = int(initial_time)
        self._queue: list[tuple[int, int, int, Event]] = []
        self._seq = 0
        self._active: Optional[Process] = None
        #: Free list of recycled :class:`_ResumeEvent` objects.
        self._resume_pool: list[_ResumeEvent] = []
        self.metrics = NULL_METRICS
        self.tracer = NULL_TRACER
        self.health = NULL_HEALTH

    def _new_resume_event(self, ok: bool, value: Any) -> _ResumeEvent:
        """A triggered internal resume event, recycled from the pool.

        Pooling is restricted to :class:`_ResumeEvent` by construction:
        user-visible events (``Timeout``, ``event()``) may be held and
        inspected long after they fire, so recycling them could alias
        two waits; resume events are referenced only by the scheduler
        queue and a process's ``_target``, both released by the time the
        event is returned to the pool.
        """
        if self._resume_pool:
            ev = self._resume_pool.pop()
            ev.callbacks = []
        else:
            ev = _ResumeEvent(self)
        ev._ok = ok
        ev._value = value
        ev._triggered = True
        ev._processed = False
        return ev

    def _wait(self, target: Event, resume: Callable[[Event], None], who) -> Event:
        """Call ``resume`` with ``target`` once it fires; ``who`` (a
        process or a gather leg) yielded it.  Returns the event waited on.

        A target that already fired resumes ``who`` at once, through an
        URGENT resume event at the current time.
        """
        if not isinstance(target, Event):
            raise SimulationError(f"{who!r} yielded {target!r}; processes must yield Event objects")
        if target.env is not self:
            raise SimulationError(f"{who!r} yielded an event from another Environment")
        if target._processed:
            resume_ev = self._new_resume_event(target._ok, target._value)
            resume_ev.callbacks.append(resume)
            self._schedule(resume_ev, priority=URGENT)
            return resume_ev
        target.callbacks.append(resume)
        return target

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active

    # -- scheduling ------------------------------------------------------------

    def _schedule(self, event: Event, delay: int = 0, priority: int = NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self._now + delay, priority, seq, event))

    def cancel(self, event: Event) -> None:
        """Withdraw a scheduled event before it fires.

        The event leaves the queue and its callbacks never run; a
        process waiting on it is never resumed.  Every other event keeps
        its place, and the sequence number the event took stays spent,
        so the order of the rest of the run does not change.  An event
        already processed, or never scheduled, is left as it is.  The
        queue is scanned, so this suits the short queue of a
        deadline-heavy run, not a withdrawal from thousands of entries.
        """
        queue = self._queue
        for i, entry in enumerate(queue):
            if entry[3] is event:
                last = queue.pop()
                if i < len(queue):
                    queue[i] = last
                    heapify(queue)
                return

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name)

    def any_of(self, events: Iterable[Event]) -> "Condition":
        """Event that fires when any of ``events`` has fired."""
        return Condition(self, list(events), Condition.any_done)

    def all_of(self, events: Iterable[Event]) -> "Condition":
        """Event that fires when all of ``events`` have fired."""
        return Condition(self, list(events), Condition.all_done)

    def gather(self, generators: Iterable[ProcessGenerator]) -> "Gather":
        """Event that fires with the generators' return values, in order.

        If a generator raises, the event fails with the first exception
        raised.  Each generator is a *leg*, stepped from event callbacks
        as a process is, but no :class:`Process` exists for it: a leg has
        no ``env.active_process`` and no handle to interrupt, so code
        that needs either must run as a process.  Legs keep running after
        a sibling raises and after the waiter is interrupted, as the
        processes of an :meth:`all_of` join over :meth:`process` do.

        The join schedules the same events at the same queue positions
        as that process-per-leg join, less 2n - 2 of its 2n + 1 events:
        one URGENT start event steps all n legs in order, where n
        consecutive URGENT process starts did; a leg's return or raise
        schedules nothing, except the last return or the first raise,
        whose NORMAL relay event (where that leg's completion event was)
        triggers the join (where the ``all_of`` condition fired).  An
        empty join fires at once, as ``all_of([])`` does.
        """
        return Gather(self, list(generators))

    # -- execution ---------------------------------------------------------------

    def peek(self) -> Optional[int]:
        """Timestamp of the next event, or None if the queue is empty."""
        return self._queue[0][0] if self._queue else None

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _prio, _seq, event = heappop(self._queue)
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        if callbacks:
            for callback in callbacks:
                callback(event)
            if type(event) is _ResumeEvent and len(self._resume_pool) < self._POOL_MAX:
                # Kernel-internal event, nothing can read it after its
                # callbacks ran — recycle it (drop the payload first so
                # the pool doesn't pin arbitrary objects alive).
                event._value = None
                self._resume_pool.append(event)
        elif not event._ok and not isinstance(event._value, ProcessKilled):
            # A failed event nobody waited on: surface the error rather than
            # silently dropping it.
            raise event._value

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        If ``until`` is given, the clock is left exactly at ``until`` even
        when the queue drains earlier.
        """
        if until is not None:
            until = int(until)
            if until < self._now:
                raise SimulationError(f"run(until={until}) is in the past (now={self._now})")
        # Inlined step() with hoisted locals: this loop dispatches every
        # event of a run, and the attribute/global lookups it avoids are
        # measurable at fig6 scale.  Semantics are identical to step().
        queue = self._queue
        pool = self._resume_pool
        pool_max = self._POOL_MAX
        while queue:
            if until is not None and queue[0][0] > until:
                break
            when, _prio, _seq, event = heappop(queue)
            self._now = when
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            if callbacks:
                for callback in callbacks:
                    callback(event)
                if type(event) is _ResumeEvent and len(pool) < pool_max:
                    event._value = None
                    pool.append(event)
            elif not event._ok and not isinstance(event._value, ProcessKilled):
                raise event._value
        if until is not None:
            self._now = max(self._now, until)


#: ``env.now`` is the ``_now`` slot under its public name: the most
#: frequent read of a run costs no call.
Environment.now = Environment._now


class Condition(Event):
    """Composite event over a list of child events (any-of / all-of)."""

    __slots__ = ("_events", "_check", "_count")

    def __init__(self, env: Environment, events: list[Event], check: Callable[[int, int], bool]):
        super().__init__(env)
        self._events = events
        self._check = check
        self._count = 0
        if not events:
            self.succeed({})
            return
        for ev in events:
            if ev._processed:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    @staticmethod
    def any_done(done: int, total: int) -> bool:
        return done >= 1

    @staticmethod
    def all_done(done: int, total: int) -> bool:
        return done >= total

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._check(self._count, len(self._events)):
            self.succeed({ev: ev._value for ev in self._events if ev._processed and ev._ok})


class Gather(Event):
    """A join of generators stepped without processes.

    Built by :meth:`Environment.gather`; its value is the list of the
    generators' return values.
    """

    __slots__ = ("_legs", "_values", "_left")

    def __init__(self, env: Environment, generators: list[ProcessGenerator]):
        super().__init__(env)
        for gen in generators:
            if not hasattr(gen, "throw"):
                raise SimulationError(f"gather() needs generators, got {gen!r}")
        self._values: list[Any] = [None] * len(generators)
        #: Legs yet to return; -1 once a raise was relayed.
        self._left = len(generators)
        #: The legs, until the start event steps them.
        self._legs: Optional[list[_Leg]] = [
            _Leg(self, i, gen) for i, gen in enumerate(generators)
        ]
        if not generators:
            self.succeed([])
            return
        start = env._new_resume_event(True, None)
        start.callbacks.append(self._start)
        env._schedule(start, priority=URGENT)

    def _start(self, event: Event) -> None:
        legs, self._legs = self._legs, None
        for leg in legs:
            leg._resume(event)

    def _finish(self, index: int, ok: bool, value: Any) -> None:
        """Leg ``index`` returned ``value`` (``ok``) or raised it."""
        if self._left < 0:
            return  # a sibling's raise was relayed already
        if ok:
            self._values[index] = value
            self._left -= 1
            if self._left:
                return
            value = self._values
        else:
            self._left = -1
        relay = self.env._new_resume_event(ok, value)
        relay.callbacks.append(self._relay)
        self.env._schedule(relay)

    def _relay(self, event: Event) -> None:
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)


class _Leg:
    """One generator of a :class:`Gather`, resumed as a process is."""

    __slots__ = ("_join", "_index", "_generator")

    def __init__(self, join: Gather, index: int, generator: ProcessGenerator):
        self._join = join
        self._index = index
        self._generator = generator

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._join._finish(self._index, True, stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._join._finish(self._index, False, exc)
            return
        self._join.env._wait(target, self._resume, self)

    def __repr__(self) -> str:
        return f"<gather leg {getattr(self._generator, '__name__', '?')!r}>"
