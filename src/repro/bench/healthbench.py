"""Health runs: drive a workload with the always-on health layer attached.

``run_health`` builds a framework with ``health=True`` (plus causal
tracing and metrics, so flagged slow ops arrive with full span trees),
drives one of the standard profile scenarios under the resource
sampler — registering :meth:`HealthLayer.poll` as a sampler gauge, so
periodic cluster evaluation rides the existing sampling grid without a
single extra simulation event — and returns the full deliverable:
the structured :class:`~repro.obs.health.HealthReport`, the slow-op
dumps with auto root-cause reports, per-tenant SLO burn rates, and the
Prometheus exposition page of the whole metrics registry.

``health_smoke`` is the CI gate.  It checks the three properties the
health tentpole promises:

* **neutrality** — a clean scenario with health attached produces the
  *identical* latency stream as one without (zero events scheduled),
  reports ``HEALTH_OK``, and flags nothing;
* **detection** — the chaos scenario (lossy fabric, retry/backoff
  legs) flags at least one slow op, and every dump carries an *exact*
  critical-path root cause naming the gating layer;
* **determinism** — two same-seed runs serialize to byte-identical
  JSON reports (asserted via sha256 of the canonical encoding).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Union

from ..obs.export import to_prometheus
from ..obs.health import HealthConfig, HealthReport
from ..obs.profile import PROFILE_SCENARIOS, ProfileScenario, drive_scenario
from ..obs.sampler import DEFAULT_INTERVAL_NS
from ..obs.slowop import SlowOpConfig
from ..units import kib, ms
from .tables import smoke_verdict

#: Default absolute latency budgets for chaos runs: short workloads
#: split across op classes may never reach the adaptive threshold's
#: warm-up sample count, but a retry spike (timeout + backoff + replay)
#: blows through 1 ms regardless, while the clean path stays well under.
_CHAOS_BUDGET_NS = {"read": ms(1), "write": ms(1)}


@dataclass
class HealthRunReport:
    """One health run: workload stats + the health deliverable."""

    scenario: str
    framework: str
    rw: str
    bs: int
    iodepth: int
    ios: int
    errors: int
    latencies_ns: list[int] = field(repr=False)
    health: HealthReport = field(repr=False, default=None)
    prometheus: str = field(repr=False, default="")
    end_ns: int = 0
    samples_taken: int = 0

    def to_dict(self, include_trees: bool = False) -> dict:
        return {
            "scenario": self.scenario,
            "framework": self.framework,
            "rw": self.rw,
            "bs": self.bs,
            "iodepth": self.iodepth,
            "ios": self.ios,
            "errors": self.errors,
            "end_ns": self.end_ns,
            "samples_taken": self.samples_taken,
            "health": self.health.to_dict(include_trees=include_trees),
        }

    def to_json(self, include_trees: bool = False) -> str:
        """Canonical encoding: sorted keys, no whitespace drift."""
        return json.dumps(self.to_dict(include_trees), sort_keys=True, indent=1)

    def digest(self) -> str:
        """sha256 of the canonical JSON (the determinism witness)."""
        return hashlib.sha256(self.to_json(include_trees=True).encode()).hexdigest()

    def render(self) -> str:
        lines = [
            f"health {self.scenario}: {self.framework} {self.ios} x {self.rw} "
            f"bs={self.bs} iodepth={self.iodepth} ({self.errors} errors, "
            f"{self.samples_taken} samples)",
            self.health.render(),
        ]
        return "\n".join(lines)


def run_health(
    scenario: Union[str, ProfileScenario],
    framework: str = "delibak",
    bs: int = kib(4),
    iodepth: int = 4,
    nrequests: int = 60,
    seed: int = 0,
    interval_ns: int = DEFAULT_INTERVAL_NS,
    health_config: Optional[HealthConfig] = None,
    attach_health: bool = True,
) -> HealthRunReport:
    """Run one scenario with the health layer attached and report.

    ``attach_health=False`` runs the identical workload without the
    layer — the neutrality half of the smoke comparison.
    """
    scn = PROFILE_SCENARIOS[scenario] if isinstance(scenario, str) else scenario
    if health_config is None and scn.chaos:
        health_config = HealthConfig(slowop=SlowOpConfig(budget_ns=dict(_CHAOS_BUDGET_NS)))
    fw, result, sampler = drive_scenario(
        scn, "health", framework, bs, iodepth, nrequests, seed, interval_ns,
        health=(health_config or True) if attach_health else None,
    )

    health_report = (
        fw.health.report(fw.env.now)
        if fw.health is not None
        else HealthReport(status="HEALTH_OK", end_ns=fw.env.now, polls=0, checks=[])
    )
    return HealthRunReport(
        scenario=scn.name,
        framework=fw.config.name,
        rw=scn.rw,
        bs=bs,
        iodepth=iodepth,
        ios=result.ios,
        errors=result.errors,
        latencies_ns=sorted(result.latencies_ns),
        health=health_report,
        prometheus=to_prometheus(fw.metrics, fw.env.now),
        end_ns=fw.env.now,
        samples_taken=sampler.samples_taken,
    )


#: The smoke pair: one clean scenario (must stay HEALTH_OK and neutral)
#: and the chaos scenario (must flag and explain slow ops).
SMOKE_CLEAN = "randwrite"
SMOKE_CHAOS = "chaos"


def health_smoke(seed: int = 0, nrequests: int = 40, report_path: str = "") -> tuple[int, str]:
    """Seeded CI smoke; returns ``(exit_code, text)``.

    ``report_path`` additionally writes the chaos run's JSON health
    report, span trees included, and names it in the text's last line.
    """
    problems: list[str] = []
    rows: list[str] = []

    clean = run_health(SMOKE_CLEAN, seed=seed, nrequests=nrequests)
    bare = run_health(SMOKE_CLEAN, seed=seed, nrequests=nrequests, attach_health=False)
    if clean.latencies_ns != bare.latencies_ns:
        problems.append("neutrality: latency stream differs with health attached")
    if clean.health.status != "HEALTH_OK":
        problems.append(f"clean run not HEALTH_OK: {clean.health.status}")
    flagged = clean.health.flight.get("promoted", 0) + clean.health.flight.get("missed", 0)
    if flagged:
        problems.append(f"clean run flagged {flagged} slow op(s)")
    rows.append(
        f"{SMOKE_CLEAN:10s} {clean.ios:4d} ios  status {clean.health.status:12s} "
        f"neutral {'yes' if clean.latencies_ns == bare.latencies_ns else 'NO'}"
    )

    chaos = run_health(SMOKE_CHAOS, seed=seed, nrequests=nrequests)
    rerun = run_health(SMOKE_CHAOS, seed=seed, nrequests=nrequests)
    if not chaos.health.slow_ops:
        problems.append("chaos run flagged no slow ops")
    for dump in chaos.health.slow_ops:
        if not dump.cause.exact:
            problems.append(f"slow op #{dump.record.seq}: inexact critical path")
        if not dump.cause.gating_stage:
            problems.append(f"slow op #{dump.record.seq}: no gating stage attributed")
    if chaos.digest() != rerun.digest():
        problems.append("chaos report not deterministic across same-seed runs")
    if "repro_health_slow_ops" not in chaos.prometheus:
        problems.append("prometheus page missing health counters")
    rows.append(
        f"{SMOKE_CHAOS:10s} {chaos.ios:4d} ios  status {chaos.health.status:12s} "
        f"slow-ops {len(chaos.health.slow_ops)}  digest {chaos.digest()[:12]}"
    )

    code, text = smoke_verdict(
        "\n".join(rows), problems,
        f"clean neutral + HEALTH_OK, chaos flagged "
        f"{len(chaos.health.slow_ops)} slow op(s) with exact root causes",
        label="HEALTH SMOKE",
    )
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(chaos.to_json(include_trees=True))
        text += f"\n[health report written to {report_path}]"
    return code, text
