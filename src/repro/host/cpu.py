"""CPU cores with affinity — the substrate of DeLiBA-K's multi-instance design.

Each :class:`CpuCore` is a single-slot resource; compute time is spent by
holding the core.  :class:`CpuSet` models the client node's socket and
implements ``sched_setaffinity``-style pinning: DeLiBA-K binds each
io_uring instance's submission thread to a dedicated core (paper
Section III-A), which the benchmarks reproduce by pinning engine
instances to distinct cores.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..errors import SimulationError
from ..sim import Environment, Resource


class CpuCore:
    """One core: exclusive execution, with busy-time accounting."""

    def __init__(self, env: Environment, core_id: int):
        self.env = env
        self.core_id = core_id
        self._res = Resource(env, capacity=1, name=f"cpu{core_id}")
        self.busy_ns = 0

    def run(self, duration: int, priority: int = 0) -> Generator:
        """Process: execute for ``duration`` ns on this core (queued FIFO)."""
        if duration < 0:
            raise SimulationError(f"negative cpu time {duration}")
        if duration == 0:
            return
        res = self._res
        req = res._claim(priority)
        if not req._processed:
            yield req
        try:
            yield self.env.timeout(duration)
            self.busy_ns += duration
        finally:
            # Resource.release(), inline, as in Resource.using.
            try:
                res._users.remove(req)
            except KeyError:
                res.release(req)
            if res._waiting:
                res._grant_next()

    @property
    def load(self) -> float:
        """Fraction of elapsed simulation time this core was busy."""
        return self.busy_ns / self.env.now if self.env.now else 0.0

    def __repr__(self) -> str:
        return f"<CpuCore {self.core_id} busy={self.busy_ns}ns>"


class CpuSet:
    """The client node's cores (28 for the paper's Sky Lake-E)."""

    def __init__(self, env: Environment, num_cores: int = 28):
        if num_cores < 1:
            raise SimulationError(f"need >= 1 core, got {num_cores}")
        self.env = env
        self.cores = [CpuCore(env, i) for i in range(num_cores)]
        self._next_unpinned = 0

    def __len__(self) -> int:
        return len(self.cores)

    def core(self, core_id: int) -> CpuCore:
        """Lookup by id."""
        if not 0 <= core_id < len(self.cores):
            raise SimulationError(f"no core {core_id} (have {len(self.cores)})")
        return self.cores[core_id]

    def pick_core(self, affinity: Optional[int] = None) -> CpuCore:
        """Pinned core when ``affinity`` is given, else round-robin.

        Round-robin without pinning stands in for the scheduler's load
        balancing; the cache-locality benefit of pinning is charged in
        the engine cost models, not here.
        """
        if affinity is not None:
            return self.core(affinity)
        core = self.cores[self._next_unpinned % len(self.cores)]
        self._next_unpinned += 1
        return core

    def total_busy_ns(self) -> int:
        """Aggregate busy time across cores."""
        return sum(c.busy_ns for c in self.cores)
