"""Host time in reference seconds, steady on a noisy shared host.

On a shared machine the speed of a virtual CPU swings by tens of percent
for seconds at a time, as other tenants come and go; neither wall time nor
process CPU time hides that.  :class:`HostClock` therefore cuts every timed
stretch into slices of about ``SLICE_S`` and runs a fixed calibration
burst after each one.  A slice's wall time is scaled by ``REF_BURST_S``
over the mean of the bursts on either side of it, raised to ``EXPONENT``,
so a slice run while the host was slow is counted at the host's reference
speed.  The burst is pure
Python, shares no code with the simulator and runs with the cyclic garbage
collector off (a collection would walk the simulator's whole heap), so a
change to the simulator moves the scaled time exactly as it moves the wall
time.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Wall time of one :func:`burst` on the reference host (the 2-vCPU
#: Intel Xeon VM the first record was measured on) when it is not slowed.
REF_BURST_S = 1.92e-3
#: The simulator slows less than the burst when the host is slow: fitting
#: log wall time per I/O against log burst scale over ~300 repeats of the
#: five workloads gave exponents of 0.73-0.92.  Over five sets of ten runs
#: per workload, exponents of 0.85-0.9 left the smallest worst-case
#: seed-to-seed spread of ``ios_per_host_s`` (about 5-6%, against 8.4%
#: with an exponent of 1).
EXPONENT = 0.85
#: Wall time of simulation run between two bursts.
SLICE_S = 0.05
#: Virtual time one ``Environment.run`` call covers past the next event:
#: long enough that the calls stay a negligible share of the run, short
#: enough that one call stays well under ``SLICE_S`` of wall time.
SPAN_NS = 50_000


def burst() -> float:
    """Seconds taken by a fixed interpreter-bound loop with the simulator's
    mix: generator resumes, a heap of tuples and small dict updates."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _burst()
    finally:
        if enabled:
            gc.enable()


def _burst() -> float:
    t0 = time.perf_counter()

    def proc(i):
        x = 0
        while True:
            x = yield (x * 31 + i) & 0xFFFF

    gens = [proc(i) for i in range(64)]
    for g in gens:
        next(g)
    heap: list = []
    table: dict = {}
    for step in range(3000):
        g = gens[step & 63]
        v = g.send(step)
        heapq.heappush(heap, (v, step, g))
        if len(heap) > 128:
            heapq.heappop(heap)
        table[v & 255] = step
    return time.perf_counter() - t0


class HostClock:
    """Accumulates wall seconds (``raw_s``) and reference seconds (``ref_s``)."""

    def __init__(self):
        self.raw_s = 0.0
        self.ref_s = 0.0
        self._last = burst()

    def _add(self, dt: float) -> None:
        after = burst()
        self.raw_s += dt
        self.ref_s += dt * (REF_BURST_S * 2.0 / (self._last + after)) ** EXPONENT
        self._last = after

    def call(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, timed as one slice."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self._add(time.perf_counter() - t0)
        return out

    def run(self, env) -> None:
        """``env.run()`` until the event queue drains, timed in slices.

        ``run(until=...)`` processes the same events in the same order as
        one plain ``run()``, but leaves the clock at ``until`` when the
        queue drains first.  So each call stops ``SPAN_NS`` past the next
        event only while a later event stays queued, and otherwise at the
        latest queued event: the queue can drain only there, and the clock
        ends where a plain ``run()`` leaves it.  A burst follows every
        ``SLICE_S`` of accumulated run time.
        """
        pending = 0.0
        while env.peek() is not None:
            latest = max(entry[0] for entry in env._queue)
            until = min(env.peek() + SPAN_NS, latest)
            t0 = time.perf_counter()
            env.run(until=until)
            pending += time.perf_counter() - t0
            if pending >= SLICE_S:
                self._add(pending)
                pending = 0.0
        if pending:
            self._add(pending)

    def take(self) -> tuple[float, float]:
        """(wall seconds, reference seconds) since the last ``take``."""
        out = (self.raw_s, self.ref_s)
        self.raw_s = self.ref_s = 0.0
        return out
