"""Hierarchical metrics registry: one namespace for every layer's counters.

Every layer of the stack — ``api.uring``, ``blk``, ``driver.uifd``,
``fpga.qdma``, ``net``, ``osd`` — registers its instruments here under
dot-separated hierarchical names (``blk.hwq0.depth``,
``uring.sqe_batch_size``, ``osd.3.op_latency``).  Instruments are the
measurement primitives from :mod:`repro.sim.monitor`; the registry only
names, deduplicates, and reports them.

Instrumentation must cost nothing when disabled: components read the
run's registry from ``env.metrics``, which is :data:`NULL_METRICS` until
a run assigns a real one, and its factories hand back shared no-op
instruments.  No-op calls never touch the event queue, so simulated
results are bit-identical with metrics on or off; with
:data:`NULL_METRICS` they do not even allocate.

The other two observers an :class:`~repro.sim.Environment` carries have
their null objects here too: :data:`NULL_TRACER` (``env.tracer``) and
:data:`NULL_HEALTH` (``env.health``).

>>> reg = MetricsRegistry()
>>> reg.counter("blk.bios_submitted").add(3)
>>> reg.counter("blk.bios_submitted").value
3
>>> sorted(reg.names("blk."))
['blk.bios_submitted']
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from ..errors import ReproError
from .monitor import Counter, Distribution, Gauge, LatencyRecorder, ThroughputMeter, TimeSeries

#: Every instrument type the registry can host.
Metric = Union[Counter, Gauge, Distribution, LatencyRecorder, ThroughputMeter, TimeSeries]


class MetricsError(ReproError):
    """Name collisions and malformed metric names."""


class MetricsRegistry:
    """Named instruments, get-or-create, hierarchical reporting."""

    def __init__(self):
        self._metrics: dict[str, Metric] = {}

    # -- instrument factories (get-or-create) ---------------------------------

    def _get_or_create(self, name: str, cls):
        if not name or name.startswith(".") or name.endswith("."):
            raise MetricsError(f"invalid metric name {name!r}")
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise MetricsError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """A monotonically increasing count."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """A last-write-wins instantaneous value."""
        return self._get_or_create(name, Gauge)

    def distribution(self, name: str) -> Distribution:
        """A unitless sample distribution (batch sizes, fan-outs)."""
        return self._get_or_create(name, Distribution)

    def latency(self, name: str) -> LatencyRecorder:
        """A per-operation latency histogram (integer ns samples)."""
        return self._get_or_create(name, LatencyRecorder)

    def meter(self, name: str) -> ThroughputMeter:
        """An ops/bytes throughput meter over a measurement window."""
        return self._get_or_create(name, ThroughputMeter)

    def timeseries(self, name: str) -> TimeSeries:
        """(time, value) samples, e.g. queue depth over time."""
        return self._get_or_create(name, TimeSeries)

    # -- access ----------------------------------------------------------------

    def get(self, name: str) -> Metric:
        """Lookup; raises :class:`MetricsError` on unknown names."""
        if name not in self._metrics:
            raise MetricsError(f"unknown metric {name!r}")
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def __bool__(self) -> bool:
        # A registry is truthy even while empty: ``build_framework``
        # tests its ``metrics`` argument with ``if metrics:``, and a
        # caller's fresh registry must not read as "off".
        return True

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._metrics))

    def names(self, prefix: str = "") -> list[str]:
        """Sorted metric names under ``prefix`` ('' = all)."""
        return sorted(n for n in self._metrics if n.startswith(prefix))

    def collect(self, prefix: str = "") -> dict[str, Metric]:
        """Name -> instrument for every metric under ``prefix``."""
        return {n: self._metrics[n] for n in self.names(prefix)}

    def items(self, prefix: str = "") -> Iterator[tuple[str, Metric]]:
        """(name, instrument) pairs in sorted name order.

        The iteration contract exporters rely on (the Prometheus
        exposition walks it): deterministic order, no copies.
        """
        for name in self.names(prefix):
            yield name, self._metrics[name]

    # -- reporting --------------------------------------------------------------

    def snapshot(self, end_ns: Optional[int] = None, prefix: str = "") -> dict:
        """Flatten every instrument to plain numbers (JSON/CSV-friendly).

        ``end_ns`` (typically ``env.now``) closes time-weighted windows:
        it is forwarded to :meth:`TimeSeries.time_weighted_mean` and used
        as the window end for started-but-quiet throughput meters.
        """
        out: dict = {}
        for name in self.names(prefix):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out[name] = metric.value
            elif isinstance(metric, Gauge):
                out[name] = metric.value
            elif isinstance(metric, Distribution):
                out[name] = {
                    "count": metric.count,
                    "mean": metric.mean(),
                    "max": metric.max(),
                }
            elif isinstance(metric, LatencyRecorder):
                out[name] = {
                    "count": metric.count,
                    "mean_us": metric.mean_us(),
                    "p99_us": metric.percentile_us(99),
                    "max_us": metric.max_us(),
                }
            elif isinstance(metric, ThroughputMeter):
                out[name] = {
                    "ops": metric.ops,
                    "bytes": metric.bytes,
                    "mb_per_sec": metric.mb_per_sec(),
                    "kiops": metric.kiops(),
                }
            elif isinstance(metric, TimeSeries):
                out[name] = {
                    "samples": len(metric.times),
                    "time_weighted_mean": metric.time_weighted_mean(end_ns),
                }
        return out

    def render(self, end_ns: Optional[int] = None, prefix: str = "") -> str:
        """Human-readable table of the snapshot, one metric per line."""
        snap = self.snapshot(end_ns=end_ns, prefix=prefix)
        if not snap:
            return "(no metrics registered)"
        width = max(len(n) for n in snap)
        lines = []
        for name, value in snap.items():
            if isinstance(value, dict):
                body = "  ".join(
                    f"{k}={v:.2f}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in value.items()
                )
            elif isinstance(value, float):
                body = f"{value:.2f}"
            else:
                body = str(value)
            lines.append(f"{name:<{width}s}  {body}")
        return "\n".join(lines)


class _NullCounter(Counter):
    __slots__ = ()

    def add(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float = 1.0) -> None:
        pass


class _NullDistribution(Distribution):
    __slots__ = ()

    def record(self, value: float) -> None:
        pass


class _NullLatencyRecorder(LatencyRecorder):
    __slots__ = ()

    def record(self, latency_ns: int) -> None:
        pass


class _NullThroughputMeter(ThroughputMeter):
    __slots__ = ()

    def start(self, now_ns: int) -> None:
        pass

    def record(self, nbytes: int, now_ns: int) -> None:
        pass


class _NullTimeSeries(TimeSeries):
    def record(self, now_ns: int, value: float) -> None:
        pass


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: every factory returns a shared no-op.

    Nothing is ever stored, so instrumented hot paths cost one no-op
    method call and zero allocations — tier-1 benchmark numbers are
    unchanged whether instrumentation code is present or not.
    """

    def __init__(self):
        super().__init__()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._distribution = _NullDistribution("null")
        self._latency = _NullLatencyRecorder("null")
        self._meter = _NullThroughputMeter("null")
        self._timeseries = _NullTimeSeries("null")

    def counter(self, name: str) -> Counter:
        return self._counter

    def gauge(self, name: str) -> Gauge:
        return self._gauge

    def distribution(self, name: str) -> Distribution:
        return self._distribution

    def latency(self, name: str) -> LatencyRecorder:
        return self._latency

    def meter(self, name: str) -> ThroughputMeter:
        return self._meter

    def timeseries(self, name: str) -> TimeSeries:
        return self._timeseries


#: Shared disabled registry: ``env.metrics`` of a run without metrics.
NULL_METRICS = NullMetricsRegistry()


class NullTracer:
    """The tracer of an untraced stack: no op ever gets a tree."""

    __slots__ = ()

    def open_root(self, bio) -> None:
        pass

    def bind_request(self, request, bio) -> None:
        pass


#: The shared null tracer: ``env.tracer`` of an untraced run.
NULL_TRACER = NullTracer()


class NullHealth:
    """The health hooks of an unmonitored run: every completion is dropped."""

    __slots__ = ()

    def observe_client(self, *args, **kwargs) -> None:
        pass

    def observe_osd(self, *args, **kwargs) -> None:
        pass


#: The shared null health hooks: ``env.health`` of an unmonitored run.
NULL_HEALTH = NullHealth()
