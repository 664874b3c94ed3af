"""repro.obs: causal observability for the simulated datapath.

Three pieces (ISSUE 5 tentpole):

* :mod:`~repro.obs.context` — :class:`CausalTracer` and the
  :class:`SpanNode` trees it grows: one per workload op, with
  parent/child edges at every layer hand-off, fan-out, and retry leg
  (and :data:`NULL_SPAN`/:data:`NULL_TRACER`, what layers of an
  untraced stack see);
* :mod:`~repro.obs.critical_path` — exact attribution of end-to-end
  latency to the spans that gated it, plus straggler-slack reporting;
* :mod:`~repro.obs.sampler` / :mod:`~repro.obs.digest` /
  :mod:`~repro.obs.export` — continuous resource telemetry, streaming
  per-stage percentile digests, Perfetto/flamegraph/Prometheus export,
  and the paper's six-stage lifecycle view of the span forest;
* :mod:`~repro.obs.slowop` / :mod:`~repro.obs.flight` /
  :mod:`~repro.obs.health` — the always-on cluster health layer
  (ISSUE 10 tentpole): adaptive slow-op detection, a tail-sampling
  flight recorder with auto root-cause reports, and the periodic
  HEALTH_OK/WARN/ERR cluster model with SLO burn-rate tracking.

The CLI front end lives in :mod:`repro.obs.profile` (``python -m repro
profile``); it is intentionally **not** imported at package-init time —
it pulls in the framework and bench layers, which import this package.
Its names (``run_profile``, ``profile_smoke``, ``ProfileReport``,
``ProfileScenario``, ``PROFILE_SCENARIOS``) still resolve lazily via
``repro.obs.<name>`` once the package tree is fully loaded.

Everything here is event-stream neutral: enabling the causal tracer or
the sampler changes no simulated event, so goldens and benchmark
numbers are identical with observability on or off.
"""

from .context import NULL_SPAN, NULL_TRACER, CausalTracer, SpanNode, wrap_span
from .critical_path import (
    CriticalPath,
    PathSegment,
    StragglerReport,
    aggregate_attribution,
    analyze,
    stragglers,
    verify_exact,
)
from .digest import StreamingDigest
from .export import (
    STAGES,
    escape_label_value,
    export_flamegraph,
    export_perfetto,
    export_prometheus,
    export_span_trees,
    folded_stacks,
    prometheus_name,
    stage_spans,
    stage_tenants,
    to_perfetto,
    to_prometheus,
    validate_trace_document,
)
from .flight import FlightRecorder, RootCauseReport, SlowOpDump, root_cause
from .health import (
    HEALTH_ERR,
    HEALTH_OK,
    HEALTH_WARN,
    HealthCheck,
    HealthConfig,
    HealthLayer,
    HealthReport,
    SloConfig,
    SloTracker,
)
from .sampler import ResourceSampler, install_framework_probes, telemetry_summary
from .slowop import SlowOpConfig, SlowOpDetector, SlowOpRecord

#: Lazily re-exported from :mod:`repro.obs.profile` (PEP 562) — a
#: module-level import would cycle through the framework layer.
_PROFILE_EXPORTS = (
    "PROFILE_SCENARIOS",
    "ProfileReport",
    "ProfileScenario",
    "profile_smoke",
    "run_profile",
)


def __getattr__(name: str):
    if name in _PROFILE_EXPORTS:
        from . import profile

        return getattr(profile, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    *_PROFILE_EXPORTS,
    "NULL_SPAN",
    "NULL_TRACER",
    "STAGES",
    "CausalTracer",
    "CriticalPath",
    "FlightRecorder",
    "HEALTH_ERR",
    "HEALTH_OK",
    "HEALTH_WARN",
    "HealthCheck",
    "HealthConfig",
    "HealthLayer",
    "HealthReport",
    "PathSegment",
    "ResourceSampler",
    "RootCauseReport",
    "SloConfig",
    "SloTracker",
    "SlowOpConfig",
    "SlowOpDetector",
    "SlowOpRecord",
    "SlowOpDump",
    "SpanNode",
    "StragglerReport",
    "StreamingDigest",
    "aggregate_attribution",
    "analyze",
    "escape_label_value",
    "export_flamegraph",
    "export_perfetto",
    "export_prometheus",
    "export_span_trees",
    "folded_stacks",
    "install_framework_probes",
    "prometheus_name",
    "root_cause",
    "stage_spans",
    "stage_tenants",
    "stragglers",
    "telemetry_summary",
    "to_perfetto",
    "to_prometheus",
    "validate_trace_document",
    "verify_exact",
    "wrap_span",
]
