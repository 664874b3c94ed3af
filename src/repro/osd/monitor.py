"""The monitor: cluster membership authority.

Publishes OSDMap epochs; on failure it marks the OSD down+out, bumping
the epoch so client placement caches invalidate.  Recovery watches those
epochs: :mod:`repro.osd.recovery` re-peers every remapped PG and
backfills the lost copies onto the new acting sets.
"""

from __future__ import annotations

from collections import deque

from ..errors import StorageError
from ..sim import NULL_METRICS, Environment
from .ops import OpKind, OsdOp
from .osd import OsdDaemon
from .qos import CLASS_SYSTEM, QosTag
from .osdmap import OSDMap

#: Most recent failure detections remembered (bounded: a long chaos run
#: with flapping links must not grow monitor state without limit).
FAILURES_DETECTED_CAP = 1024


class Monitor:
    """Membership controller.

    When given a fabric messenger (the ``mon`` entity), the monitor can
    run **heartbeats**: periodic PING ops to every up OSD; an OSD that
    misses its reply deadline is declared down (epoch bump), so failures
    are *detected*, not just operator-injected.  ``down_out_interval_ns``
    adds flap damping: an OSD is only marked down after failing probes
    continuously for that long (0 = first miss, the historical default).
    """

    def __init__(self, env: Environment, osdmap: OSDMap, daemons: dict[int, OsdDaemon],
                 messenger=None, metrics=None, down_out_interval_ns: int = 0):
        self.env = env
        self.osdmap = osdmap
        self.daemons = daemons
        self.messenger = messenger
        self.down_out_interval_ns = down_out_interval_ns
        self._heartbeat_proc = None
        self._hb_running = False
        #: osd_id -> sim time of the first unanswered probe of the
        #: current suspicion window (cleared when a probe succeeds).
        self._suspect_since: dict[int, int] = {}
        self.failures_detected: deque[int] = deque(maxlen=FAILURES_DETECTED_CAP)
        self.flaps_suppressed = 0
        metrics = metrics or NULL_METRICS
        self._m_failures = metrics.counter("mon.failures_detected")
        self._m_flaps = metrics.counter("mon.flaps_suppressed")
        self._m_hb_rtt = metrics.distribution("mon.heartbeat_rtt_ns")

    # -- heartbeats --------------------------------------------------------------

    def start_heartbeats(self, interval_ns: int, grace_ns: int) -> None:
        """Begin probing every up OSD each ``interval_ns``; an OSD whose
        PING reply misses ``grace_ns`` is marked down."""
        if self.messenger is None:
            raise StorageError("heartbeats need a fabric messenger (mon entity)")
        if self._heartbeat_proc is not None:
            raise StorageError("heartbeats already running")
        self._hb_running = True
        self._heartbeat_proc = self.env.process(
            self._heartbeat_loop(interval_ns, grace_ns), name="mon.heartbeat"
        )

    def stop_heartbeats(self) -> None:
        """Stop the probe loop (in-flight probes drain without effect)."""
        self._hb_running = False
        if self._heartbeat_proc is not None and self._heartbeat_proc.is_alive:
            self._heartbeat_proc.interrupt("stopped")
        self._heartbeat_proc = None

    def _heartbeat_loop(self, interval_ns: int, grace_ns: int):
        while True:
            yield self.env.timeout(interval_ns)
            # Each probe resolves independently: one hung OSD's grace
            # window must not delay marking every *other* dead OSD down
            # (the old all_of barrier head-of-line blocked on the
            # slowest probe).
            for osd_id in self.osdmap.up_osds():
                self.env.process(self._probe_one(osd_id, grace_ns), name=f"hb.{osd_id}")

    def _probe_one(self, osd_id: int, grace_ns: int):
        t0 = self.env.now
        reply = yield from self.messenger.call(
            f"osd.{osd_id}",
            # Heartbeats ride the reserved ``system`` class: detection
            # latency must not degrade when tenants saturate the OSDs.
            OsdOp(OpKind.PING, 0, "ping", qos=QosTag(svc=CLASS_SYSTEM)),
            timeout_ns=grace_ns
        )
        if not self._hb_running:
            return
        if reply.ok:
            self._m_hb_rtt.record(self.env.now - t0)
            if self._suspect_since.pop(osd_id, None) is not None:
                # Probes recovered before down_out_interval elapsed: the
                # flap is damped, no epoch is published.
                self.flaps_suppressed += 1
                self._m_flaps.add()
            return
        if not self.osdmap.osds[osd_id].up:
            return
        since = self._suspect_since.setdefault(osd_id, t0)
        if self.env.now - since >= self.down_out_interval_ns:
            self._suspect_since.pop(osd_id, None)
            self.osdmap.mark_down(osd_id)
            self.failures_detected.append(osd_id)
            self._m_failures.add()

    def fail_osd(self, osd_id: int) -> None:
        """Declare an OSD dead: stop its daemon and publish a new epoch."""
        daemon = self.daemons.get(osd_id)
        if daemon is None:
            raise StorageError(f"unknown osd.{osd_id}")
        daemon.stop()
        self.osdmap.mark_down(osd_id)

    def revive_osd(self, osd_id: int) -> None:
        """Bring a previously failed OSD back.

        Without a WAL the store really is cleared: the volatile seed
        store cannot prove anything about its pre-failure content, so
        serving it would be silent data loss; until backfill completes
        the daemon answers absent reads with a retryable "missing during
        backfill" error (clients fail over) instead of authoritative
        absence.  A durable OSD instead replays its WAL: everything
        acked before the failure survives, and recovery only ships the
        delta written during the outage."""
        daemon = self.daemons.get(osd_id)
        if daemon is None:
            raise StorageError(f"unknown osd.{osd_id}")
        if daemon.wal is not None:
            daemon.restart_from_wal()
        else:
            daemon.reset_for_backfill()
        daemon.start()
        self._suspect_since.pop(osd_id, None)
        self.osdmap.mark_up(osd_id)
