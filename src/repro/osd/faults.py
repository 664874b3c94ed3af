"""Fault injection: gray failures, chaos faults, and scheduled timelines.

Enterprise clusters (the paper's deployment context) suffer *gray*
failures — components that respond, just slowly — which inflate tail
latency long before the monitor declares anything down.  This module
injects such faults into a live cluster so their p99 impact, and the
effectiveness of marking the culprit out, can be measured.

Beyond gray slowdowns the injector also drives **chaos** faults: random
message drop/duplication/corruption on the fabric, silent OSD crashes
mid-op, link flaps, and whole fault *timelines* scheduled at simulation
timestamps.  All randomness draws from named sim RNG substreams, so a
chaos run replays bit-identically for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from ..errors import StorageError
from ..sim import Process
from .fabric import MessageFaults
from .storage import MediaProfile, StorageDevice

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import CephCluster


def _scaled_profile(profile: MediaProfile, factor: float) -> MediaProfile:
    """A media profile slowed down by ``factor``."""
    return MediaProfile(
        name=f"{profile.name}-slow{factor:g}x",
        seq_read_ns=int(profile.seq_read_ns * factor),
        rand_read_ns=int(profile.rand_read_ns * factor),
        seq_write_ns=int(profile.seq_write_ns * factor),
        rand_write_ns=int(profile.rand_write_ns * factor),
        read_bw=profile.read_bw / factor,
        write_bw=profile.write_bw / factor,
        channels=profile.channels,
        readahead_hit_ns=int(profile.readahead_hit_ns * factor),
        jitter_sigma=profile.jitter_sigma,
        flush_ns=int(profile.flush_ns * factor),
    )


@dataclass
class FaultInjector:
    """Applies and reverts gray + chaos faults on a cluster."""

    cluster: "CephCluster"
    _original_profiles: dict[int, MediaProfile] = field(default_factory=dict)
    _original_bandwidth: dict[str, float] = field(default_factory=dict)
    _downed_links: set = field(default_factory=set)
    #: OSDs crashed through this injector (silent crashes).
    crashed_osds: list = field(default_factory=list)
    #: OSDs currently without power (power_loss / restore_power).
    powered_off: list = field(default_factory=list)
    _timeline_procs: list = field(default_factory=list)

    def slow_device(self, osd_id: int, factor: float) -> None:
        """Multiply one OSD's media latencies by ``factor`` (>= 1)."""
        if factor < 1.0:
            raise StorageError(f"slowdown factor must be >= 1, got {factor}")
        daemon = self.cluster.daemons.get(osd_id)
        if daemon is None:
            raise StorageError(f"unknown osd.{osd_id}")
        device: StorageDevice = daemon.device
        self._original_profiles.setdefault(osd_id, device.profile)
        device.profile = _scaled_profile(self._original_profiles[osd_id], factor)

    def restore_device(self, osd_id: int) -> None:
        """Undo a device slowdown."""
        original = self._original_profiles.pop(osd_id, None)
        if original is None:
            raise StorageError(f"osd.{osd_id} has no injected fault")
        self.cluster.daemons[osd_id].device.profile = original

    def degrade_host_link(self, host: str, factor: float) -> None:
        """Divide a host's up/down link bandwidth by ``factor``."""
        if factor < 1.0:
            raise StorageError(f"degradation factor must be >= 1, got {factor}")
        node = self.cluster.network.host(host)
        for link in (node.uplink, node.downlink):
            self._original_bandwidth.setdefault(link.name, link.bandwidth_bps)
            link.bandwidth_bps = self._original_bandwidth[link.name] / factor

    def restore_host_link(self, host: str) -> None:
        """Undo a link degradation."""
        node = self.cluster.network.host(host)
        restored = False
        for link in (node.uplink, node.downlink):
            original = self._original_bandwidth.pop(link.name, None)
            if original is not None:
                link.bandwidth_bps = original
                restored = True
        if not restored:
            raise StorageError(f"host {host!r} has no injected link fault")

    # -- chaos: message-level faults ------------------------------------------

    def set_message_faults(
        self,
        drop_p: float = 0.0,
        duplicate_p: float = 0.0,
        corrupt_p: float = 0.0,
        rng=None,
    ) -> MessageFaults:
        """Install probabilistic drop/duplicate/corrupt on the fabric.

        Applies to every cross-host message from now on.  Probabilities
        draw from the cluster's ``chaos`` RNG substream unless ``rng``
        is given, so the fault pattern is seed-deterministic.  Returns
        the live :class:`MessageFaults` (its counters keep tallies).
        """
        for name, p in (("drop_p", drop_p), ("duplicate_p", duplicate_p),
                        ("corrupt_p", corrupt_p)):
            if not 0.0 <= p <= 1.0:
                raise StorageError(f"{name} must be in [0, 1], got {p}")
        # One uniform draw classifies each message against the cumulative
        # thresholds, so the three fates must fit in one unit interval.
        total = math.fsum((drop_p, duplicate_p, corrupt_p))
        if total > 1.0:
            raise StorageError(
                f"drop_p + duplicate_p + corrupt_p must be <= 1, got {total}"
            )
        faults = MessageFaults(
            rng=rng if rng is not None else self.cluster.rng.stream("chaos"),
            drop_p=drop_p,
            duplicate_p=duplicate_p,
            corrupt_p=corrupt_p,
        )
        self.cluster.fabric.faults = faults
        return faults

    def clear_message_faults(self) -> None:
        """Remove fabric-level message faults."""
        self.cluster.fabric.faults = None

    # -- chaos: crashes and link flaps ----------------------------------------

    def crash_osd(self, osd_id: int) -> None:
        """Silently crash an OSD mid-op (see ``CephCluster.crash_osd``)."""
        self.cluster.crash_osd(osd_id)
        self.crashed_osds.append(osd_id)

    # -- chaos: power loss -----------------------------------------------------

    def power_loss(self, osd_id: int) -> None:
        """Cut power to a durable OSD at the current sim instant.

        The volatile write-back cache resolves under seeded fate draws
        (some entries persist, some drop, some *tear* a prefix of atomic
        units), in-flight client ops bounce with the retryable AGAIN
        status, and nobody marks the OSD down — heartbeats detect it.
        See ``CephCluster.power_loss_osd``.
        """
        self.cluster.power_loss_osd(osd_id)
        self.powered_off.append(osd_id)

    def restore_power(self, osd_id: int):
        """Restore power to an OSD cut via :meth:`power_loss`.

        The OSD replays its WAL and rejoins with log-based delta
        recovery.  Returns the :class:`~repro.osd.wal.WalReplayStats`.
        """
        if osd_id not in self.powered_off:
            raise StorageError(f"osd.{osd_id} has no injected power loss")
        stats = self.cluster.power_on_osd(osd_id)
        self.powered_off.remove(osd_id)
        return stats

    def set_link(self, host: str, up: bool) -> None:
        """Force a host's uplink + downlink up or down (messages in
        flight finish; new sends are dropped while down)."""
        node = self.cluster.network.host(host)
        for link in (node.uplink, node.downlink):
            link.set_up(up)
            if up:
                self._downed_links.discard(link.name)
            else:
                self._downed_links.add(link.name)

    def flap_link(self, host: str, down_ns: int, up_ns: int, count: int = 1) -> Process:
        """Flap a host's links: ``count`` cycles of down for ``down_ns``
        then up for ``up_ns``.  Returns the driving sim process."""
        if down_ns <= 0 or up_ns <= 0:
            raise StorageError("flap periods must be > 0")
        if count < 1:
            raise StorageError(f"flap count must be >= 1, got {count}")

        def _flap():
            for _ in range(count):
                self.set_link(host, False)
                yield self.cluster.env.timeout(down_ns)
                self.set_link(host, True)
                yield self.cluster.env.timeout(up_ns)

        proc = self.cluster.env.process(_flap(), name=f"flap.{host}")
        self._timeline_procs.append(proc)
        return proc

    # -- chaos: scheduled timelines -------------------------------------------

    def schedule(self, timeline: Iterable[tuple[int, Callable[[], None]]],
                 name: str = "chaos.timeline") -> Process:
        """Run a fault *timeline*: ``(at_ns, action)`` pairs applied at
        absolute sim times.  Actions are zero-arg callables (typically
        bound injector methods via ``functools.partial`` / lambdas).
        Returns the driving sim process.
        """
        events = sorted(timeline, key=lambda e: e[0])
        env = self.cluster.env

        def _drive():
            for at_ns, action in events:
                if at_ns < env.now:
                    raise StorageError(
                        f"timeline event at {at_ns} is in the past (now={env.now})"
                    )
                if at_ns > env.now:
                    yield env.timeout(at_ns - env.now)
                action()

        proc = env.process(_drive(), name=name)
        self._timeline_procs.append(proc)
        return proc

    @property
    def active_faults(self) -> int:
        """Number of faults currently injected."""
        n = len(self._original_profiles) + len(self._original_bandwidth)
        n += len(self._downed_links) + len(self.crashed_osds)
        n += len(self.powered_off)
        if self.cluster.fabric.faults is not None:
            n += 1
        return n
