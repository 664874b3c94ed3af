"""Multi-tenant QoS: a dmClock-style op scheduler per OSD worker pool.

DeLiBA-K gives every tenant its own QDMA virtual function and io_uring
instances, but those per-tenant streams still converge on shared OSDs.
This module arbitrates them the way Ceph's mClock scheduler does, using
the dmClock algorithm (Gulati et al.): every flow carries a
*reservation* (minimum IOPS, always honored first), a *weight*
(proportional share of the surplus), and a *limit* (IOPS ceiling, the
only non-work-conserving knob).

Three layers:

* :class:`MClockQueue` — the tag algebra, free of any simulation
  dependency.  It is driven by explicit clock values, which lets the
  differential test harness (``tests/qos_harness.py``) and Hypothesis
  properties replay arrival traces through the *production* scheduler in
  pure virtual time.
* :class:`OsdQosScheduler` — the per-OSD admission gate sitting in front
  of ``OsdDaemon.cpu``: ops wait here until dispatched, then take a
  worker slot immediately.  Limits are enforced with wakeup timers;
  without limits the gate is work-conserving (a free worker never idles
  while any op is queued).
* :class:`TenantTracker` + the ``rho``/``delta`` fields of
  :class:`QosTag` — dmClock's distributed tags.  Each requester counts
  its flows' completions cluster-wide and piggybacks, per destination,
  how many completed since the last op it sent there; each OSD advances
  its local tags by that amount, so per-tenant reservations and shares
  hold across replicated/EC fan-out to many OSDs without any scheduler
  talking to another.

Tag algebra (integer nanoseconds; ``1/r`` means ``1e9 / iops``)::

    R = max(R_prev + rho  * 1/r, now)     # reservation
    P = max(P_prev + delta * 1/w, now)    # proportional share
    L = max(L_prev + delta * 1/l, now)    # limit

Dispatch prefers the smallest eligible R tag (``R <= now``); otherwise
the smallest P tag among heads whose L tag is eligible.  A
priority-phase dispatch shifts the flow's outstanding R tags back by
``1/r`` (implemented O(1) via a per-flow accumulator), so work done in
the weight phase counts toward the reservation.

Everything here is opt-in: ``CephCluster.enable_qos()`` wires it up;
without that call no scheduler exists, ops carry at most an inert tag,
and fault-free golden traces are byte-identical to the seed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Optional

from ..errors import StorageError
from ..sim import Environment, Event, Resource

NS_PER_SEC = 1_000_000_000

#: Dispatch phase carried back to the requester on each reply (dmClock's
#: feedback bit): 0 = not scheduled (QoS off / synthetic reply).
PHASE_NONE = 0
PHASE_RESERVATION = 1
PHASE_PRIORITY = 2

#: Built-in service classes.  ``client`` flows are keyed per tenant;
#: background classes are one flow each, throttled by the same tags.
CLASS_CLIENT = "client"
CLASS_RECOVERY = "recovery"
CLASS_SCRUB = "scrub"
CLASS_SYSTEM = "system"

#: Spacing ceiling (~31 years).  Rates so low their tag spacing exceeds
#: this clamp here instead of overflowing float->int conversion; the
#: flow is then throttled to one op per _MAX_SPACING_NS, i.e. never.
_MAX_SPACING_NS = 10**18


def _spacing_ns(rate: float, round_up: bool = False) -> int:
    """Tag spacing (ns) for a rate, clamped to [1, _MAX_SPACING_NS].

    ``round_up`` rounds fractional spacings toward *more* spacing, for
    ceilings: the integer spacing must never yield an effective rate
    above the nominal one.
    """
    spacing = NS_PER_SEC / rate
    if spacing >= _MAX_SPACING_NS:
        return _MAX_SPACING_NS
    return max(1, math.ceil(spacing) if round_up else round(spacing))


@dataclass(frozen=True)
class QosSpec:
    """One flow's (reservation, weight, limit) triple.

    ``reservation_iops`` is a guaranteed floor (0 = none), ``weight`` a
    dimensionless share of the surplus, ``limit_iops`` a ceiling (None =
    unlimited).  dmClock requires ``reservation <= limit``.
    """

    reservation_iops: float = 0.0
    weight: float = 1.0
    limit_iops: Optional[float] = None

    def __post_init__(self):
        if self.weight <= 0:
            raise StorageError(f"qos weight must be > 0, got {self.weight}")
        if self.reservation_iops < 0:
            raise StorageError(f"qos reservation must be >= 0, got {self.reservation_iops}")
        if self.limit_iops is not None and self.limit_iops <= 0:
            raise StorageError(f"qos limit must be > 0, got {self.limit_iops}")
        if self.limit_iops is not None and self.reservation_iops > self.limit_iops:
            raise StorageError(
                f"qos reservation {self.reservation_iops} exceeds limit {self.limit_iops}"
            )

    @property
    def r_spacing(self) -> Optional[int]:
        """Reservation tag spacing in ns (None = no reservation)."""
        if self.reservation_iops <= 0:
            return None
        return _spacing_ns(self.reservation_iops)

    @property
    def p_spacing(self) -> int:
        """Weight tag spacing in ns (only ratios between flows matter)."""
        return _spacing_ns(self.weight)

    @property
    def l_spacing(self) -> Optional[int]:
        """Limit tag spacing in ns (None = unlimited)."""
        if self.limit_iops is None:
            return None
        return _spacing_ns(self.limit_iops, round_up=True)


@dataclass
class QosTag:
    """QoS identity an op carries to the serving OSD.

    Inert data until a scheduler is enabled; ``rho``/``delta`` are the
    dmClock distributed tags, re-stamped by a :class:`TenantTracker` on
    every send (so a retried op is re-stamped for its new destination).
    """

    tenant: str = ""
    svc: str = CLASS_CLIENT
    rho: int = 1
    delta: int = 1

    def flow(self) -> tuple[str, str]:
        """Scheduler flow key: per-tenant for client ops, per-class else."""
        return (self.svc, self.tenant if self.svc == CLASS_CLIENT else "")

    def derive(self) -> "QosTag":
        """Fresh tag with the same identity for a sub-op or fan-out leg
        (each op needs its own, since rho/delta are stamped per send)."""
        return QosTag(self.tenant, self.svc)


def derive(tag: Optional[QosTag]) -> Optional[QosTag]:
    """:meth:`QosTag.derive` for one more wire op; an untagged op's
    sub-ops stay untagged."""
    return None if tag is None else tag.derive()


@dataclass
class QosConfig:
    """Cluster-wide QoS policy: per-tenant specs plus service classes."""

    #: tenant id -> spec; tenants not listed get ``default_client``.
    tenants: dict[str, QosSpec] = field(default_factory=dict)
    default_client: QosSpec = field(default_factory=QosSpec)
    #: Background recovery traffic: no reservation, a fraction of one
    #: client's weight — it yields under client load but never starves.
    recovery: QosSpec = field(default_factory=lambda: QosSpec(weight=0.25))
    scrub: QosSpec = field(default_factory=lambda: QosSpec(weight=0.1))
    #: Monitor heartbeats etc: a small reservation keeps liveness probes
    #: timely even under saturation.
    system: QosSpec = field(default_factory=lambda: QosSpec(reservation_iops=1000.0))

    def spec_for(self, flow: tuple[str, str]) -> QosSpec:
        """Resolve a flow key to its spec."""
        svc, tenant = flow
        if svc == CLASS_CLIENT:
            return self.tenants.get(tenant, self.default_client)
        spec = {
            CLASS_RECOVERY: self.recovery,
            CLASS_SCRUB: self.scrub,
            CLASS_SYSTEM: self.system,
        }.get(svc)
        return spec if spec is not None else self.default_client


class _Flow:
    """Per-flow scheduler state (tags in raw space; effective R = raw - shift)."""

    __slots__ = ("key", "spec", "items", "last_r", "last_p", "last_l", "r_shift")

    def __init__(self, key: tuple[str, str], spec: QosSpec):
        self.key = key
        self.spec = spec
        #: queued items: (r_raw | None, p_tag, l_tag, seq, item)
        self.items: deque = deque()
        self.last_r: Optional[int] = None  # raw
        self.last_p: Optional[int] = None
        self.last_l: Optional[int] = None
        #: Priority-phase dispatches shift outstanding R tags back by
        #: 1/r each — tracked O(1) here instead of rewriting the deque.
        self.r_shift = 0


class MClockQueue:
    """The dmClock tag queue, driven by explicit ``now`` values.

    Deterministic: ties break on a global arrival sequence number, and
    flow iteration follows insertion order.  No simulation types appear
    here, so tests can replay arbitrary traces in pure virtual time.
    """

    def __init__(self, config: Optional[QosConfig] = None):
        self.config = config or QosConfig()
        self._flows: dict[tuple[str, str], _Flow] = {}
        self._seq = 0
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def flow(self, key: tuple[str, str]) -> _Flow:
        """Get-or-create the state of one flow."""
        f = self._flows.get(key)
        if f is None:
            f = _Flow(key, self.config.spec_for(key))
            self._flows[key] = f
        return f

    def depth(self, key: tuple[str, str]) -> int:
        """Queued items of one flow."""
        f = self._flows.get(key)
        return len(f.items) if f is not None else 0

    def push(self, item, key: tuple[str, str], now: int, rho: int = 1, delta: int = 1) -> None:
        """Enqueue ``item`` on flow ``key``, computing its three tags.

        ``rho``/``delta`` advance the reservation and weight/limit tags
        by that many spacings (dmClock: completions elsewhere in the
        cluster count against this server's local tags too).
        """
        f = self.flow(key)
        spec = f.spec
        r_raw: Optional[int] = None
        if spec.r_spacing is not None:
            if f.last_r is None:
                eff = now
            else:
                eff = max((f.last_r - f.r_shift) + rho * spec.r_spacing, now)
            r_raw = eff + f.r_shift
            f.last_r = r_raw
        if f.last_p is None:
            p = now
        else:
            p = max(f.last_p + delta * spec.p_spacing, now)
        f.last_p = p
        if spec.l_spacing is None:
            lim = now
        elif f.last_l is None:
            lim = now
        else:
            lim = max(f.last_l + delta * spec.l_spacing, now)
        f.last_l = lim
        f.items.append((r_raw, p, lim, self._seq, item))
        self._seq += 1
        self._len += 1

    def pop(self, now: int):
        """Dispatch one item, or None if nothing is eligible at ``now``.

        Returns ``(item, flow_key, phase, lag_ns)`` where ``lag_ns`` is
        how far behind its reservation deadline a reservation-phase
        dispatch ran (0 in the priority phase).
        """
        # Reservation phase: smallest eligible effective R tag wins.
        best = None
        best_flow = None
        for f in self._flows.values():
            if not f.items:
                continue
            r_raw = f.items[0][0]
            if r_raw is None:
                continue
            eff = r_raw - f.r_shift
            if eff <= now:
                cand = (eff, f.items[0][3])
                if best is None or cand < best:
                    best, best_flow = cand, f
        if best_flow is not None:
            r_raw, _p, _lim, _seq, item = best_flow.items.popleft()
            self._len -= 1
            return item, best_flow.key, PHASE_RESERVATION, now - (r_raw - best_flow.r_shift)
        # Priority phase: smallest P tag among heads under their limit.
        best = None
        best_flow = None
        for f in self._flows.values():
            if not f.items:
                continue
            if f.items[0][2] > now:
                continue  # limit not yet eligible
            cand = (f.items[0][1], f.items[0][3])
            if best is None or cand < best:
                best, best_flow = cand, f
        if best_flow is None:
            return None
        _r, _p, _lim, _seq, item = best_flow.items.popleft()
        self._len -= 1
        if best_flow.spec.r_spacing is not None:
            # Weight-phase work counts toward the reservation: slide the
            # flow's outstanding R tags back one spacing.
            best_flow.r_shift += best_flow.spec.r_spacing
        return item, best_flow.key, PHASE_PRIORITY, 0

    def discard(self, key: tuple[str, str], item) -> bool:
        """Withdraw a queued item (its waiter was killed mid-wait).

        The tag credit the item consumed at push time is not refunded —
        a crash path, not a scheduling decision."""
        f = self._flows.get(key)
        if f is None:
            return False
        for entry in f.items:
            if entry[4] is item:
                f.items.remove(entry)
                self._len -= 1
                return True
        return False

    def next_eligible(self, now: int) -> Optional[int]:
        """Earliest time any queued head becomes dispatchable.

        None when empty; a value ``<= now`` means something is eligible
        already.  A head is dispatchable at ``min(effective R, L)`` —
        the P tag orders but never delays."""
        t: Optional[int] = None
        for f in self._flows.values():
            if not f.items:
                continue
            r_raw, _p, lim, _seq, _item = f.items[0]
            cand = lim
            if r_raw is not None:
                cand = min(cand, r_raw - f.r_shift)
            if t is None or cand < t:
                t = cand
        return t


class _AdmitTicket(Event):
    """The event an op waits on inside the admission gate.

    Carries the interrupt-cancellation hook the sim kernel looks for: a
    handler killed mid-wait (OSD crash) withdraws its queue entry, so a
    dead op is never dispatched against the inflight budget."""

    __slots__ = ("scheduler", "flow", "entry")

    def __init__(self, scheduler: "OsdQosScheduler", flow: tuple[str, str]):
        super().__init__(scheduler.env)
        self.scheduler = scheduler
        self.flow = flow
        self.entry = None

    def _cancel_on_interrupt(self) -> None:
        if not self.triggered:
            self.scheduler.queue.discard(self.flow, self.entry)


class OsdQosScheduler:
    """Admission gate in front of one OSD's worker pool.

    ``OsdDaemon.on_request`` yields from :meth:`admit` before claiming a
    worker slot; at most ``capacity`` admitted ops are outstanding, so a
    dispatched op takes its slot immediately — the scheduler, not the
    FIFO resource queue, decides service order.  :meth:`release` returns
    a slot and pumps the queue.  When every queued head is blocked by
    its limit tag, a wakeup timer re-pumps at the earliest eligibility
    (the only time QoS is deliberately non-work-conserving).

    Replica/shard sub-ops arriving from peer OSDs do NOT pass the gate:
    their parent op was already arbitrated (and its tenant charged) at
    the primary's gate, and a primary holds its worker slot while its
    sub-ops round-trip — admitting sub-ops against the same slots would
    both double-charge the tenant and allow a distributed deadlock once
    every pool fills with primaries waiting on each other's replicas.
    They ride :attr:`sub_lane` instead, a separate worker pool of the
    same width whose occupants never wait on another OSD.
    """

    def __init__(
        self,
        env: Environment,
        osd_id: int,
        capacity: int,
        config: Optional[QosConfig] = None,
    ):
        self.env = env
        self.osd_id = osd_id
        self.capacity = capacity
        self.queue = MClockQueue(config)
        self.config = self.queue.config
        self.inflight = 0
        #: Express lane for peer sub-ops (see class docstring).
        self.sub_lane = Resource(env, capacity=capacity, name=f"qos.{osd_id}.sublane")
        self._wake_at: Optional[int] = None
        metrics = env.metrics
        self._m_res = metrics.counter("qos.phase.reservation")
        self._m_prio = metrics.counter("qos.phase.priority")
        self._m_limit_waits = metrics.counter("qos.limit_waits")
        self._m_depth = metrics.gauge(f"qos.osd.{osd_id}.depth")
        #: flow -> (ops, queue_wait dist, deadline_lag dist, res_ops)
        self._flow_m: dict = {}

    def _flow_metrics(self, flow: tuple[str, str]):
        m = self._flow_m.get(flow)
        if m is None:
            svc, tenant = flow
            label = f"tenant.{tenant or 'default'}" if svc == CLASS_CLIENT else f"class.{svc}"
            metrics = self.env.metrics
            m = (
                metrics.counter(f"qos.{label}.ops"),
                metrics.distribution(f"qos.{label}.queue_wait_ns"),
                metrics.distribution(f"qos.{label}.deadline_lag_ns"),
                metrics.counter(f"qos.{label}.res_ops"),
            )
            self._flow_m[flow] = m
        return m

    def admit(self, op) -> Generator:
        """Process: hold ``op`` until the scheduler dispatches it.

        Returns the dispatch phase (stamped on the reply so requesters'
        trackers can maintain their distributed tags)."""
        tag = getattr(op, "qos", None)
        flow = tag.flow() if tag is not None else (CLASS_CLIENT, "")
        rho = max(1, tag.rho) if tag is not None else 1
        delta = max(1, tag.delta) if tag is not None else 1
        ev = _AdmitTicket(self, flow)
        ev.entry = (ev, self.env.now, flow)
        self.queue.push(ev.entry, flow, self.env.now, rho, delta)
        self._m_depth.set(len(self.queue))
        self._pump()
        phase = yield ev
        return phase

    def release(self) -> None:
        """One admitted op finished with its worker slot."""
        self.inflight -= 1
        self._pump()

    def _pump(self) -> None:
        now = self.env.now
        while self.inflight < self.capacity:
            popped = self.queue.pop(now)
            if popped is None:
                break
            (ev, t_enq, flow), _key, phase, lag = popped
            self.inflight += 1
            ops, wait, lag_d, res = self._flow_metrics(flow)
            ops.add()
            wait.record(now - t_enq)
            if phase == PHASE_RESERVATION:
                self._m_res.add()
                res.add()
                lag_d.record(lag)
            else:
                self._m_prio.add()
            ev.succeed(phase)
        self._m_depth.set(len(self.queue))
        if self.inflight < self.capacity and len(self.queue):
            t = self.queue.next_eligible(now)
            if t is not None and t > now:
                self._m_limit_waits.add()
                self._schedule_wake(t)

    def _schedule_wake(self, t: int) -> None:
        if self._wake_at is not None and self._wake_at <= t:
            return  # an earlier (or equal) timer is already in flight
        self._wake_at = t
        self.env.process(self._wake(t), name=f"qos.{self.osd_id}.wake")

    def _wake(self, t: int) -> Generator:
        yield self.env.timeout(t - self.env.now)
        if self._wake_at == t:
            self._wake_at = None
        self._pump()


def _repay(seen: int, debt: int) -> tuple[int, int]:
    """One send's tag advance from ``seen`` completions and a ``debt``
    of borrowed spacings: returns ``(advance, new_debt)``, advance >= 1."""
    if seen > debt:
        return seen - debt, 0
    return 1, debt - seen + 1


class TenantTracker:
    """Client-side dmClock bookkeeping for one messenger entity.

    Tracks, per flow, how many of its ops completed cluster-wide (and
    how many in the reservation phase), plus per-destination snapshots
    at the last send.  :meth:`stamp` writes ``rho``/``delta`` into an
    op's tag just before it goes on the wire; :meth:`account` consumes
    the phase feedback piggybacked on replies.  Installed on a
    :class:`~repro.osd.fabric.Messenger` as ``qos_tracker``, it hooks
    every request/reply without adding a single simulation event.

    A send always advances the destination's tags by at least one
    spacing.  When no completion landed since the last send there, that
    one spacing is *borrowed* and repaid out of later sends' counts (the
    borrowing tracker of Ceph's dmclock), so over a run the tags advance
    by the completions seen, not by more.  Without the repayment a flow
    that sends faster than its ops complete overshoots its R tags and
    loses part of its reservation floor.
    """

    def __init__(self):
        #: flow -> (total completions, reservation-phase completions)
        self._totals: dict[tuple[str, str], tuple[int, int]] = {}
        #: (flow, dst) -> (totals snapshot at last send to dst,
        #: borrowed delta, borrowed rho)
        self._sent: dict[tuple[tuple[str, str], str], tuple[int, int, int, int]] = {}

    def stamp(self, op, dst: str) -> None:
        """Write rho/delta for a send of ``op`` to ``dst``."""
        tag = op.qos
        flow = tag.flow()
        total, res = self._totals.get(flow, (0, 0))
        sent_total, sent_res, d_debt, r_debt = self._sent.get((flow, dst), (0, 0, 0, 0))
        tag.delta, d_debt = _repay(total - sent_total, d_debt)
        tag.rho, r_debt = _repay(res - sent_res, r_debt)
        self._sent[(flow, dst)] = (total, res, d_debt, r_debt)

    def account(self, tag: QosTag, phase: int) -> None:
        """Record one completion and the phase it was served in."""
        if phase == PHASE_NONE:
            return
        flow = tag.flow()
        total, res = self._totals.get(flow, (0, 0))
        self._totals[flow] = (total + 1, res + (1 if phase == PHASE_RESERVATION else 0))

    def completions(self, flow: tuple[str, str]) -> tuple[int, int]:
        """(total, reservation-phase) completions seen for ``flow``."""
        return self._totals.get(flow, (0, 0))


class QosManager:
    """Cluster-wide QoS wiring: one scheduler per OSD, one tracker per
    messenger entity (clients, primaries issuing sub-ops, recovery
    agents).  Created by :meth:`CephCluster.enable_qos`."""

    def __init__(self, env: Environment, cluster, config: Optional[QosConfig] = None):
        self.env = env
        self.cluster = cluster
        self.config = config or QosConfig()
        for daemon in cluster.daemons.values():
            self.attach_osd(daemon)
        for client in cluster._clients.values():
            self.attach_messenger(client)
        if cluster.recovery is not None:
            for agent in cluster.recovery._agents.values():
                self.attach_messenger(agent.messenger)
        if cluster.monitor.messenger is not None:
            self.attach_messenger(cluster.monitor.messenger)

    def attach_osd(self, daemon) -> None:
        """Install the admission gate on one OSD (idempotent)."""
        if daemon.qos is None:
            daemon.qos = OsdQosScheduler(
                self.env, daemon.osd_id, daemon.config.op_threads, self.config
            )
        # Primaries forward sub-ops: their sends carry rho/delta too.
        self.attach_messenger(daemon)

    def attach_messenger(self, messenger) -> None:
        """Install a distributed-tag tracker on one entity (idempotent)."""
        if messenger.qos_tracker is None:
            messenger.qos_tracker = TenantTracker()
