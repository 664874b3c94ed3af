"""Always-on cluster health: slow ops, health checks, SLO burn rates.

The health layer is the inverse of ``python -m repro profile``: instead
of a heavyweight opt-in analysis after the fact, it continuously
*notices* anomalies itself and retroactively produces the exact
critical-path explanation the repo already knows how to compute.  Four
cooperating pieces:

* :class:`~repro.obs.slowop.SlowOpDetector` — per-request latency
  accounting at the client and every OSD, adaptive thresholds;
* :class:`~repro.obs.flight.FlightRecorder` — bounded ring of recent
  causal span trees; only detector-flagged requests are promoted to
  full dumps with auto root-cause reports;
* the **cluster health model** here — periodic aggregation of PG
  states, OSD queue depth, WAL backlog, QoS floor/ceiling compliance,
  and cache dirty ratio into ``HEALTH_OK``/``WARN``/``ERR`` with
  structured, deduplicated checks (like ``ceph status``), plus
  per-tenant **SLO burn-rate tracking** over fast and slow windows
  built on merged :class:`~repro.obs.digest.StreamingDigest` buckets;
* exposition — :meth:`HealthReport.to_dict` (deterministic JSON) and
  :func:`repro.obs.export.to_prometheus` for the metrics registry.

**Event-stream neutrality**: the layer schedules zero simulation
events.  Completion-path hooks are plain bookkeeping reads of
``env.now``; periodic evaluation rides the
:class:`~repro.obs.sampler.ResourceSampler` grid as a gauge probe
(:meth:`HealthLayer.poll` returns the numeric status, so
``health.status`` lands in the registry as an ordinary time series).
A run with health attached executes the exact same event sequence as
one without — the healthbench neutrality check compares latency
streams to prove it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim import NULL_METRICS
from ..units import ms
from .context import NULL_SPAN
from .digest import StreamingDigest
from .flight import FlightRecorder, SlowOpDump
from .slowop import SlowOpConfig, SlowOpDetector

HEALTH_OK = "HEALTH_OK"
HEALTH_WARN = "HEALTH_WARN"
HEALTH_ERR = "HEALTH_ERR"

_SEVERITY_RANK = {HEALTH_OK: 0, HEALTH_WARN: 1, HEALTH_ERR: 2}

#: PG states that are fine (everything else degrades health).
_PG_CLEAN_STATES = frozenset({"active", "recovered"})


@dataclass(frozen=True)
class SloConfig:
    """One tenant's service-level objective and burn-window policy."""

    #: Requests slower than this count against the latency objective.
    latency_target_ns: int = ms(2)
    #: Fraction of requests that must meet the latency target.
    latency_objective: float = 0.99
    #: Fraction of requests that must complete without error.
    availability_objective: float = 0.999
    #: Fast burn window (paging signal) and slow window (ticket signal).
    fast_window_ns: int = ms(5)
    slow_window_ns: int = ms(25)
    #: Burn-rate alert thresholds (Google SRE multi-window style: the
    #: fast window catches sharp regressions, the slow window filters
    #: blips; both firing together is the severe condition).
    fast_burn_warn: float = 14.4
    slow_burn_warn: float = 6.0

    def __post_init__(self):
        if not 0.0 < self.latency_objective < 1.0:
            raise ValueError(f"latency_objective must be in (0,1), got {self.latency_objective}")
        if not 0.0 < self.availability_objective < 1.0:
            raise ValueError(
                f"availability_objective must be in (0,1), got {self.availability_objective}"
            )
        if self.fast_window_ns <= 0 or self.slow_window_ns < self.fast_window_ns:
            raise ValueError("need 0 < fast_window_ns <= slow_window_ns")


@dataclass(frozen=True)
class HealthConfig:
    """Tunables of the whole health layer."""

    slowop: SlowOpConfig = field(default_factory=SlowOpConfig)
    flight_capacity: int = 64
    max_dumps: int = 32
    #: Default SLO applied to every tenant; per-tenant overrides win.
    slo: SloConfig = field(default_factory=SloConfig)
    tenant_slo: dict[str, SloConfig] = field(default_factory=dict)
    #: Worker-pool queue depth at which an OSD is called backlogged.
    osd_queue_warn: int = 8
    #: Un-trimmed WAL records at which the backlog check fires.
    wal_backlog_warn: int = 64
    #: Dirty-line fraction at which the cache check fires.
    cache_dirty_warn: float = 0.85
    #: Multipliers for QoS floor/ceiling compliance (a tenant under
    #: 0.5x its reservation while active, or over 1.1x its limit, is
    #: out of compliance).
    qos_floor_slack: float = 0.5
    qos_limit_slack: float = 1.1


@dataclass
class HealthCheck:
    """One structured, deduplicated health finding (``ceph status`` style)."""

    code: str
    severity: str
    summary: str
    count: int = 1
    detail: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "summary": self.summary,
            "count": self.count,
            "detail": list(self.detail),
        }


class _SloBucket:
    __slots__ = ("index", "digest", "total", "errors")

    def __init__(self, index: int):
        self.index = index
        self.digest = StreamingDigest()
        self.total = 0
        self.errors = 0


class SloTracker:
    """Per-tenant windowed SLO accounting on merged streaming digests.

    Observations land in fixed time buckets (one per fast window); a
    window query merges the covering buckets' digests — the log-linear
    bucket-wise :meth:`StreamingDigest.merge` — so burn rates over any
    window cost O(buckets), not O(samples), and per-tenant digests can
    also be merged cluster-wide without re-ingesting samples.
    """

    def __init__(self, default: SloConfig, per_tenant: Optional[dict[str, SloConfig]] = None):
        self.default = default
        self.per_tenant = dict(per_tenant or {})
        self._buckets: dict[str, list[_SloBucket]] = {}

    def config_for(self, tenant: str) -> SloConfig:
        return self.per_tenant.get(tenant, self.default)

    def tenants(self) -> list[str]:
        return sorted(self._buckets)

    def observe(self, tenant: str, latency_ns: int, ok: bool, now_ns: int) -> None:
        cfg = self.config_for(tenant)
        index = now_ns // cfg.fast_window_ns
        buckets = self._buckets.setdefault(tenant, [])
        if not buckets or buckets[-1].index != index:
            buckets.append(_SloBucket(index))
            # Retire buckets older than the slow window (+1 for the
            # partially-covered edge bucket).
            keep = cfg.slow_window_ns // cfg.fast_window_ns + 2
            if len(buckets) > keep:
                del buckets[: len(buckets) - keep]
        bucket = buckets[-1]
        bucket.total += 1
        bucket.digest.add(latency_ns)
        if not ok:
            bucket.errors += 1

    def window(self, tenant: str, window_ns: int, now_ns: int) -> tuple[StreamingDigest, int, int]:
        """(merged digest, total, errors) over ``[now - window, now]``."""
        cfg = self.config_for(tenant)
        first = (now_ns - window_ns) // cfg.fast_window_ns
        merged = StreamingDigest()
        total = errors = 0
        for bucket in self._buckets.get(tenant, []):
            if bucket.index < first:
                continue
            merged.merge(bucket.digest)
            total += bucket.total
            errors += bucket.errors
        return merged, total, errors

    def burn_rate(self, tenant: str, window_ns: int, now_ns: int) -> float:
        """How fast the window burns error budget (1.0 = exactly on SLO).

        The latency burn uses the merged digest's tail mass above the
        target; the availability burn uses the exact error count.  The
        reported rate is the worse of the two.
        """
        cfg = self.config_for(tenant)
        digest, total, errors = self.window(tenant, window_ns, now_ns)
        if not total:
            return 0.0
        latency_bad = digest.fraction_above(cfg.latency_target_ns)
        latency_burn = latency_bad / (1.0 - cfg.latency_objective)
        avail_burn = (errors / total) / (1.0 - cfg.availability_objective)
        return max(latency_burn, avail_burn)

    def summary(self, now_ns: int) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for tenant in self.tenants():
            cfg = self.config_for(tenant)
            digest, total, errors = self.window(tenant, cfg.slow_window_ns, now_ns)
            out[tenant] = {
                "total": total,
                "errors": errors,
                "p99_ns": digest.quantile(0.99),
                "target_ns": cfg.latency_target_ns,
                "fast_burn": round(self.burn_rate(tenant, cfg.fast_window_ns, now_ns), 4),
                "slow_burn": round(self.burn_rate(tenant, cfg.slow_window_ns, now_ns), 4),
            }
        return out


@dataclass
class HealthReport:
    """One run's health deliverable (deterministic, JSON-ready)."""

    status: str
    end_ns: int
    polls: int
    checks: list[HealthCheck]
    slow_ops: list[SlowOpDump] = field(repr=False, default_factory=list)
    slo: dict[str, dict] = field(default_factory=dict)
    op_classes: dict[str, dict] = field(default_factory=dict)
    flight: dict = field(default_factory=dict)

    def to_dict(self, include_trees: bool = False) -> dict:
        return {
            "status": self.status,
            "end_ns": self.end_ns,
            "polls": self.polls,
            "checks": [c.to_dict() for c in self.checks],
            "slow_ops": [d.to_dict(include_tree=include_trees) for d in self.slow_ops],
            "slo": self.slo,
            "op_classes": self.op_classes,
            "flight": self.flight,
        }

    def render(self) -> str:
        lines = [f"cluster health: {self.status}  ({self.polls} polls, t={self.end_ns} ns)"]
        if self.checks:
            lines.append("checks:")
            for check in self.checks:
                lines.append(f"  [{check.severity}] {check.code}: {check.summary}")
                for item in check.detail[:4]:
                    lines.append(f"      - {item}")
        else:
            lines.append("checks: none")
        if self.slo:
            lines.append("slo burn (per tenant, fast/slow windows):")
            for tenant, row in self.slo.items():
                lines.append(
                    f"  {tenant or '(untagged)':16s} ops {row['total']:5d}  "
                    f"err {row['errors']:3d}  p99 {row['p99_ns'] / 1000.0:8.1f} us  "
                    f"burn {row['fast_burn']:.2f}/{row['slow_burn']:.2f}"
                )
        if self.slow_ops:
            lines.append(f"slow ops ({len(self.slow_ops)} dumped):")
            for dump in self.slow_ops[:8]:
                rec = dump.record
                lines.append(
                    f"  #{rec.seq} {rec.op_class} {rec.latency_ns / 1000.0:.1f} us "
                    f"(threshold {rec.threshold_ns / 1000.0:.1f} us): {dump.cause.render()}"
                )
        return "\n".join(lines)


class HealthLayer:
    """The always-on health service: hooks + periodic cluster model.

    Attach with :meth:`attach` (or ``build_framework(..., health=...)``);
    drive evaluation by registering :meth:`poll` as a sampler gauge —
    the layer itself never creates a simulation event.
    """

    def __init__(self, env, config: Optional[HealthConfig] = None, metrics=None):
        self.env = env
        self.config = config or HealthConfig()
        self.metrics = metrics or NULL_METRICS
        self.detector = SlowOpDetector(self.config.slowop)
        self.flight = FlightRecorder(self.config.flight_capacity, self.config.max_dumps)
        self.slo = SloTracker(self.config.slo, self.config.tenant_slo)
        #: Wired by :meth:`attach`.
        self.cluster = None
        self.cache = None
        #: Active checks, deduplicated by code (latest evaluation wins).
        self.checks: dict[str, HealthCheck] = {}
        self.polls = 0
        self._m_client_ops = self.metrics.counter("health.client_ops")
        self._m_osd_ops = self.metrics.counter("health.osd_ops")
        self._m_slow_ops = self.metrics.counter("health.slow_ops")
        self._g_status = self.metrics.gauge("health.status_level")

    # -- wiring -------------------------------------------------------------------

    def attach(self, fw) -> "HealthLayer":
        """Install the completion-path hooks on a framework instance."""
        self.cluster = fw.cluster
        self.cache = fw.cache
        fw.blk.health = self
        for daemon in fw.cluster.daemons.values():
            daemon.health = self
        fw.health = self
        return self

    # -- completion-path hooks (no events, plain bookkeeping) ----------------------

    def observe_client(
        self, op_class: str, tenant: str, latency_ns: int, ok: bool, root=NULL_SPAN
    ) -> None:
        """One client-visible completion (called by the API engine)."""
        now = self.env.now
        self._m_client_ops.add()
        self.flight.retain(root)
        self.slo.observe(tenant, latency_ns, ok, now)
        record = self.detector.observe(
            op_class, latency_ns, now, origin="client", tenant=tenant, ok=ok
        )
        if record is not None:
            self._m_slow_ops.add()
            self.flight.promote(record, root)

    def observe_osd(
        self, osd_id: int, op_class: str, tenant: str, latency_ns: int, ok: bool
    ) -> None:
        """One OSD op completion (called by the daemon's request path).

        OSD-side flags feed the detector and the per-class digests only;
        the span *tree* belongs to the client-visible request and is
        promoted there.
        """
        self._m_osd_ops.add()
        record = self.detector.observe(
            f"osd.{op_class}",
            latency_ns,
            self.env.now,
            origin=f"osd.{osd_id}",
            tenant=tenant,
            ok=ok,
        )
        if record is not None:
            self._m_slow_ops.add()

    # -- periodic cluster model -----------------------------------------------------

    def poll(self) -> float:
        """Re-evaluate every health source at the current clock.

        Registered as a :class:`ResourceSampler` gauge probe; the return
        value is the numeric status level (0 = OK, 1 = WARN, 2 = ERR),
        so ``health.status`` exports as an ordinary counter track.
        """
        self.polls += 1
        self.checks = {c.code: c for c in self.evaluate(self.env.now)}
        level = float(_SEVERITY_RANK[self.status()])
        self._g_status.set(level)
        return level

    def status(self) -> str:
        worst = HEALTH_OK
        for check in self.checks.values():
            if _SEVERITY_RANK[check.severity] > _SEVERITY_RANK[worst]:
                worst = check.severity
        return worst

    def evaluate(self, now_ns: int) -> list[HealthCheck]:
        """Compute the current structured checks (sorted by code)."""
        checks: list[HealthCheck] = []
        checks.extend(self._check_slow_ops())
        checks.extend(self._check_pgs())
        checks.extend(self._check_osds())
        checks.extend(self._check_wal())
        checks.extend(self._check_qos(now_ns))
        checks.extend(self._check_cache())
        checks.extend(self._check_slo(now_ns))
        checks.sort(key=lambda c: c.code)
        return checks

    def _check_slow_ops(self) -> list[HealthCheck]:
        if not self.detector.flagged:
            return []
        detail = [
            f"{d.record.op_class} {d.record.latency_ns / 1000.0:.1f} us: {d.cause.render()}"
            for d in self.flight.dumps[-4:]
        ]
        return [
            HealthCheck(
                code="SLOW_OPS",
                severity=HEALTH_WARN,
                summary=f"{self.detector.flagged} slow op(s) flagged "
                        f"({self.flight.promoted} with root-cause dumps)",
                count=self.detector.flagged,
                detail=detail,
            )
        ]

    def _check_pgs(self) -> list[HealthCheck]:
        recovery = getattr(self.cluster, "recovery", None)
        if recovery is None or not getattr(recovery, "pgs", None):
            return []
        unclean: dict[str, int] = {}
        incomplete = 0
        for info in recovery.pgs.values():
            state = info.state.value
            if state in _PG_CLEAN_STATES:
                continue
            unclean[state] = unclean.get(state, 0) + 1
            if state == "incomplete":
                incomplete += 1
        checks: list[HealthCheck] = []
        if incomplete:
            checks.append(
                HealthCheck(
                    code="PG_INCOMPLETE",
                    severity=HEALTH_ERR,
                    summary=f"{incomplete} pg(s) incomplete: data unavailable",
                    count=incomplete,
                )
            )
        degraded = sum(n for s, n in unclean.items() if s != "incomplete")
        if degraded:
            detail = [f"{n} pg(s) {s}" for s, n in sorted(unclean.items()) if s != "incomplete"]
            checks.append(
                HealthCheck(
                    code="PG_DEGRADED",
                    severity=HEALTH_WARN,
                    summary=f"{degraded} pg(s) not active+clean",
                    count=degraded,
                    detail=detail,
                )
            )
        return checks

    def _check_osds(self) -> list[HealthCheck]:
        if self.cluster is None:
            return []
        checks: list[HealthCheck] = []
        down = [
            osd_id
            for osd_id, state in sorted(self.cluster.osdmap.osds.items())
            if not state.up
        ]
        if down:
            checks.append(
                HealthCheck(
                    code="OSD_DOWN",
                    severity=HEALTH_WARN,
                    summary=f"{len(down)} osd(s) down",
                    count=len(down),
                    detail=[f"osd.{i}" for i in down],
                )
            )
        backlog = [
            (osd_id, daemon.cpu.queue_len)
            for osd_id, daemon in sorted(self.cluster.daemons.items())
            if daemon.cpu.queue_len >= self.config.osd_queue_warn
        ]
        if backlog:
            checks.append(
                HealthCheck(
                    code="OSD_QUEUE_BACKLOG",
                    severity=HEALTH_WARN,
                    summary=f"{len(backlog)} osd(s) with deep worker queues",
                    count=len(backlog),
                    detail=[f"osd.{i}: {depth} queued" for i, depth in backlog],
                )
            )
        return checks

    def _check_wal(self) -> list[HealthCheck]:
        if self.cluster is None:
            return []
        backlog = [
            (osd_id, daemon.wal.log_depth)
            for osd_id, daemon in sorted(self.cluster.daemons.items())
            if daemon.wal is not None and daemon.wal.log_depth >= self.config.wal_backlog_warn
        ]
        if not backlog:
            return []
        return [
            HealthCheck(
                code="WAL_BACKLOG",
                severity=HEALTH_WARN,
                summary=f"{len(backlog)} osd(s) with deep WAL backlogs",
                count=len(backlog),
                detail=[f"osd.{i}: {depth} un-trimmed records" for i, depth in backlog],
            )
        ]

    def _check_qos(self, now_ns: int) -> list[HealthCheck]:
        qos = getattr(self.cluster, "qos", None)
        qos_config = getattr(qos, "config", None)
        tenants = getattr(qos_config, "tenants", None)
        if not tenants:
            return []
        floor_miss: list[str] = []
        over_limit: list[str] = []
        for tenant in sorted(tenants):
            spec = tenants[tenant]
            cfg = self.slo.config_for(tenant)
            _, total, _ = self.slo.window(tenant, cfg.slow_window_ns, now_ns)
            if not total:
                continue
            iops = total / (cfg.slow_window_ns / 1e9)
            if spec.reservation_iops > 0 and iops < spec.reservation_iops * self.config.qos_floor_slack:
                floor_miss.append(
                    f"{tenant}: {iops:.0f} iops < {self.config.qos_floor_slack:.1f}x "
                    f"reservation {spec.reservation_iops:.0f}"
                )
            if spec.limit_iops is not None and iops > spec.limit_iops * self.config.qos_limit_slack:
                over_limit.append(
                    f"{tenant}: {iops:.0f} iops > {self.config.qos_limit_slack:.1f}x "
                    f"limit {spec.limit_iops:.0f}"
                )
        checks: list[HealthCheck] = []
        if floor_miss:
            checks.append(
                HealthCheck(
                    code="QOS_FLOOR_MISS",
                    severity=HEALTH_WARN,
                    summary=f"{len(floor_miss)} tenant(s) under their reservation floor",
                    count=len(floor_miss),
                    detail=floor_miss,
                )
            )
        if over_limit:
            checks.append(
                HealthCheck(
                    code="QOS_LIMIT_EXCEEDED",
                    severity=HEALTH_WARN,
                    summary=f"{len(over_limit)} tenant(s) over their limit ceiling",
                    count=len(over_limit),
                    detail=over_limit,
                )
            )
        return checks

    def _check_cache(self) -> list[HealthCheck]:
        cache = self.cache
        if cache is None:
            return []
        store = cache.store
        dirty_ratio = store.dirty_count / store.capacity_lines
        if dirty_ratio < self.config.cache_dirty_warn:
            return []
        return [
            HealthCheck(
                code="CACHE_DIRTY",
                severity=HEALTH_WARN,
                summary=f"cache dirty ratio {dirty_ratio:.2f} >= "
                        f"{self.config.cache_dirty_warn:.2f}",
                detail=[f"{store.dirty_count}/{store.capacity_lines} lines dirty"],
            )
        ]

    def _check_slo(self, now_ns: int) -> list[HealthCheck]:
        checks: list[HealthCheck] = []
        for tenant in self.slo.tenants():
            cfg = self.slo.config_for(tenant)
            fast = self.slo.burn_rate(tenant, cfg.fast_window_ns, now_ns)
            slow = self.slo.burn_rate(tenant, cfg.slow_window_ns, now_ns)
            fast_hot = fast >= cfg.fast_burn_warn
            slow_hot = slow >= cfg.slow_burn_warn
            if not (fast_hot or slow_hot):
                continue
            severity = HEALTH_ERR if (fast_hot and slow_hot) else HEALTH_WARN
            checks.append(
                HealthCheck(
                    code=f"SLO_BURN:{tenant or '(untagged)'}",
                    severity=severity,
                    summary=f"tenant {tenant or '(untagged)'} burning error budget "
                            f"(fast {fast:.1f}x, slow {slow:.1f}x)",
                    detail=[
                        f"target p{100 * cfg.latency_objective:g} < "
                        f"{cfg.latency_target_ns / 1000.0:.0f} us, "
                        f"availability {cfg.availability_objective:g}",
                    ],
                )
            )
        return checks

    # -- reporting ------------------------------------------------------------------

    def report(self, end_ns: Optional[int] = None) -> HealthReport:
        """Final health deliverable: one last evaluation plus the
        accumulated slow-op dumps and SLO table."""
        end = self.env.now if end_ns is None else end_ns
        self.checks = {c.code: c for c in self.evaluate(end)}
        return HealthReport(
            status=self.status(),
            end_ns=end,
            polls=self.polls,
            checks=[self.checks[code] for code in sorted(self.checks)],
            slow_ops=list(self.flight.dumps),
            slo=self.slo.summary(end),
            op_classes=self.detector.class_summary(),
            flight=self.flight.stats(),
        )
