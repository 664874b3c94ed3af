"""Continuous resource telemetry sampled on a fixed wall-clock grid.

The sampler records queue depth, per-core CPU utilization, io_uring
ring occupancy, QDMA throughput, and client link utilization into the
framework's existing :class:`~repro.sim.monitor.TimeSeries` metrics so
they export alongside the span trees as counter tracks.

It deliberately creates **no simulation events**.  Instead of a
timeout-loop process (which would perturb the event heap and keep
``env.run()`` from draining), :meth:`drive` owns the run loop: it
advances the clock one sampling interval at a time with
``env.run(until=...)`` and reads the probes between steps.  A run
driven this way executes the exact same event sequence as a plain
``env.run()`` — the neutrality tests compare digests to prove it.
"""

from __future__ import annotations

from typing import Callable

from ..sim import MetricsRegistry
from ..units import us

#: Default sampling grid: fine enough to see per-request queueing at
#: 4 KiB latencies (~tens of us), coarse enough to stay cheap.
DEFAULT_INTERVAL_NS = us(20)


class ResourceSampler:
    """Polls registered probes on a fixed grid into TimeSeries metrics."""

    def __init__(self, env, registry: MetricsRegistry, interval_ns: int = DEFAULT_INTERVAL_NS):
        if interval_ns <= 0:
            raise ValueError("sampling interval must be positive")
        self.env = env
        self.registry = registry
        self.interval_ns = interval_ns
        #: (name, probe, scale) where probe() returns an instantaneous value.
        self._gauges: list[tuple[str, Callable[[], float]]] = []
        #: (name, probe, scale) where probe() returns a cumulative counter;
        #: the recorded value is (delta * scale / dt_ns).
        self._rates: list[tuple[str, Callable[[], float], float]] = []
        self._last: dict[str, float] = {}
        self._last_t = -1
        self.samples_taken = 0

    # -- probe registration -------------------------------------------------------

    def add_gauge(self, name: str, probe: Callable[[], float]) -> None:
        """Record the probe's instantaneous value each sample."""
        self._gauges.append((name, probe))

    def add_rate(self, name: str, probe: Callable[[], float], scale: float = 1.0) -> None:
        """Record the probe's scaled rate of change each sample.

        With ``scale=1.0`` and a cumulative-ns probe (e.g. CpuCore
        busy_ns) the series is a 0..1 utilization; ``scale=8.0`` turns a
        cumulative byte counter into Gb/s (bits per ns).
        """
        self._rates.append((name, probe, scale))

    # -- sampling -----------------------------------------------------------------

    def sample(self) -> None:
        """Read every probe at the current clock (no events created)."""
        now = self.env.now
        for name, probe in self._gauges:
            self.registry.timeseries(name).record(now, float(probe()))
        dt = now - self._last_t if self._last_t >= 0 else 0
        for name, probe, scale in self._rates:
            cur = float(probe())
            prev = self._last.get(name)
            if prev is not None and dt > 0:
                self.registry.timeseries(name).record(now, (cur - prev) * scale / dt)
            self._last[name] = cur
        self._last_t = now
        self.samples_taken += 1

    def drive(self) -> None:
        """Run the simulation to completion, sampling every interval.

        Owns the event loop in place of a bare ``env.run()``: the event
        sequence is identical, with probe reads interleaved at interval
        boundaries.  Returns once the event heap is empty.
        """
        env = self.env
        self.sample()
        while env.peek() is not None:
            env.run(until=env.now + self.interval_ns)
            self.sample()

    # -- access -------------------------------------------------------------------

    def series_names(self) -> list[str]:
        return sorted({n for n, _ in self._gauges} | {n for n, _, _ in self._rates})


def install_framework_probes(sampler: ResourceSampler, fw) -> list[str]:
    """Wire the standard probe set for a :class:`FrameworkInstance`.

    Covers every shared resource the critical-path report points at:
    io_uring SQ/CQ occupancy, submission/driver core utilization, blk-mq
    in-flight tags, QDMA data movement, and the client NIC in both
    directions.  Returns the installed series names.
    """
    seen_cores: set[int] = set()

    def _core_probe(core) -> None:
        if core is None or core.core_id in seen_cores:
            return
        seen_cores.add(core.core_id)
        sampler.add_rate(f"obs.cpu.core{core.core_id}.util", lambda c=core: c.busy_ns)

    for i, inst in enumerate(getattr(fw.engine, "instances", [])):
        sampler.add_gauge(f"obs.uring{i}.sq", lambda r=inst.sq: len(r))
        sampler.add_gauge(f"obs.uring{i}.cq", lambda r=inst.cq: len(r))
        _core_probe(inst.core)
    _core_probe(getattr(fw.engine, "core", None))
    _core_probe(getattr(fw.driver, "core", None))

    tags = fw.blk.config.tags_per_queue
    sampler.add_gauge(
        "obs.blk.inflight",
        lambda hctxs=fw.blk.hctxs, t=tags: sum(t - h.tags.tokens for h in hctxs),
    )

    queue = getattr(fw.driver, "queue", None)
    if queue is not None:
        # bytes * 8 / ns == bits/ns == Gb/s.
        sampler.add_rate("obs.qdma.gbps", lambda q=queue: q.bytes_moved, scale=8.0)

    network = fw.cluster.network
    host = network.host(fw.cluster.fabric.host_of(fw.image.client.entity))
    # Wire bytes/ns as a fraction of the line rate (bandwidth_bps is bytes/s).
    scale = 1e9 / network.bandwidth_bps
    sampler.add_rate("obs.net.client.up_util", lambda l=host.uplink: l.bytes_sent, scale=scale)
    sampler.add_rate("obs.net.client.down_util", lambda l=host.downlink: l.bytes_sent, scale=scale)
    return sampler.series_names()


def telemetry_summary(registry: MetricsRegistry, end_ns: int) -> dict[str, dict[str, float]]:
    """Time-weighted mean and peak of every installed ``obs.*`` series."""
    from ..sim.monitor import TimeSeries

    out: dict[str, dict[str, float]] = {}
    for name, metric in registry.collect("obs.").items():
        if not isinstance(metric, TimeSeries) or not metric.times:
            continue
        out[name] = {
            "mean": metric.time_weighted_mean(end_ns),
            "peak": max(metric.values),
        }
    return out
