"""From-scratch discrete-event simulation kernel.

Public surface: :class:`Environment` (clock + event queue), generator
processes, :class:`Resource`/:class:`Semaphore` for counted servers,
deterministic RNG streams, measurement monitors, and the hierarchical
:class:`MetricsRegistry`.
"""

from .core import Condition, Environment, Event, Gather, Process, Timeout
from .metrics import NULL_METRICS, MetricsError, MetricsRegistry, NullMetricsRegistry
from .monitor import (
    Counter,
    Distribution,
    Gauge,
    LatencyRecorder,
    ThroughputMeter,
    TimeSeries,
)
from .resources import Request, Resource, Semaphore
from .rng import RngRegistry, RngStream

__all__ = [
    "Condition",
    "Counter",
    "Distribution",
    "Environment",
    "Event",
    "Gather",
    "Gauge",
    "LatencyRecorder",
    "MetricsError",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetricsRegistry",
    "Process",
    "Request",
    "Resource",
    "RngRegistry",
    "RngStream",
    "Semaphore",
    "ThroughputMeter",
    "TimeSeries",
    "Timeout",
]
