"""Common contract for host I/O API engines.

An engine drives a stream of bios through the block layer with the
submission/completion mechanics (and costs) of one Linux I/O API:
``read()/write()``, libaio, POSIX AIO, mmap, or io_uring.  The engine
owns its concurrency model — how ``iodepth`` outstanding I/Os are kept
in flight is precisely what differs between the APIs the paper compares.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Generator, Sequence

from ..blk import Bio, BlockLayer
from ..errors import ApiError
from ..host import HostKernel


@dataclass
class RunResult:
    """Outcome of one engine run."""

    latencies_ns: list[int] = field(default_factory=list)
    started_at: int = 0
    finished_at: int = 0
    bytes_moved: int = 0
    #: I/Os that completed with a failure (negative CQE res / errno).
    errors: int = 0

    @property
    def elapsed_ns(self) -> int:
        """Wall time of the run."""
        return self.finished_at - self.started_at

    @property
    def ios(self) -> int:
        """Completed I/O count."""
        return len(self.latencies_ns)

    def error_rate(self) -> float:
        """Fraction of completed I/Os that failed (0.0 when none ran)."""
        if not self.latencies_ns:
            return 0.0
        return self.errors / len(self.latencies_ns)

    def mean_latency_us(self) -> float:
        """Mean per-I/O latency in microseconds."""
        if not self.latencies_ns:
            return 0.0
        return sum(self.latencies_ns) / len(self.latencies_ns) / 1_000.0

    def percentile_latency_us(self, q: float) -> float:
        """The ``q``-th percentile latency in microseconds (e.g. q=99)."""
        if not self.latencies_ns:
            return 0.0
        import numpy as np

        return float(np.percentile(np.asarray(self.latencies_ns), q)) / 1_000.0

    def p99_latency_us(self) -> float:
        """Tail latency (the metric the paper's related work compares)."""
        return self.percentile_latency_us(99)

    def throughput_mb_s(self) -> float:
        """Decimal MB/s over the run."""
        if self.elapsed_ns <= 0:
            return 0.0
        return (self.bytes_moved / 1e6) / (self.elapsed_ns / 1e9)

    def kiops(self) -> float:
        """Thousands of IOPS over the run."""
        if self.elapsed_ns <= 0:
            return 0.0
        return (self.ios / 1e3) / (self.elapsed_ns / 1e9)


class AioEngine(ABC):
    """Base class for all API engines."""

    #: Engine name used in reports ("io_uring", "libaio", ...).
    name: str = "abstract"

    def __init__(self, env, kernel: HostKernel, blk: BlockLayer):
        self.env = env
        self.kernel = kernel
        self.blk = blk
        self._m_errors = blk.metrics.counter(f"api.{self.name}.errors")

    @property
    def metrics(self):
        """The stack-wide metrics registry (shared via the block layer)."""
        return self.blk.metrics

    def open_throughput_meter(self):
        """The engine's ``api.<name>.throughput`` meter, window opened now.

        Called at the top of :meth:`run` so the window covers the first
        op's service time (opening at the first *completion* instead
        inflates MB/s and KIOPS at low op counts).
        """
        meter = self.metrics.meter(f"api.{self.name}.throughput")
        meter.start(self.env.now)
        return meter

    def _complete(
        self, result: RunResult, meter, bio: Bio, latency_ns: int, ok: bool, root
    ) -> None:
        """Account one completed I/O, the same way on every engine.

        Its latency always counts and the health layer, when attached,
        sees it with ``root``, its causal span tree; its bytes move only
        when it succeeded, and a failed I/O counts as an error instead
        (fio-style).
        """
        result.latencies_ns.append(latency_ns)
        health = self.blk.health
        if health is not None:
            health.observe_client(bio.op.value, bio.tenant, latency_ns, ok, root)
        if ok:
            result.bytes_moved += bio.size
            meter.record(bio.size, self.env.now)
        else:
            result.errors += 1
            self._m_errors.add()

    @abstractmethod
    def run(self, bios: Sequence[Bio], iodepth: int) -> Generator:
        """Process: drive all ``bios`` to completion with ``iodepth`` in
        flight; returns a :class:`RunResult`."""

    def _validate(self, bios: Sequence[Bio], iodepth: int) -> None:
        if iodepth < 1:
            raise ApiError(f"iodepth must be >= 1, got {iodepth}")
        if not bios:
            raise ApiError("no bios to run")
