"""Exception hierarchy for the DeLiBA-K reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  Subsystems raise the most specific subclass that
applies; error messages always name the offending object and value.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulation kernel."""


class ProcessKilled(SimulationError):
    """Raised inside a process generator when it is forcibly interrupted."""


class CrushError(ReproError):
    """Invalid CRUSH map, rule, or placement request."""


class ErasureCodingError(ReproError):
    """Invalid erasure-coding parameters or unrecoverable data loss."""


class DecodeError(ErasureCodingError):
    """Too many erasures (or corrupt shards) to reconstruct an object."""


class NetworkError(ReproError):
    """Invalid topology, unreachable host, or link misconfiguration."""


class StorageError(ReproError):
    """OSD / object-store failures (missing object, down OSD, full device)."""


class OsdOpError(StorageError):
    """A RADOS op failed after exhausting its retry/failover policy.

    Carries the :class:`repro.status.BlkStatus` of the final failure so
    the driver can propagate a kernel-style status instead of parsing
    message strings.
    """

    def __init__(self, message: str, status=None, attempts: int = 1):
        super().__init__(message)
        from .status import BlkStatus  # deferred: errors must stay import-light

        self.status = status or BlkStatus.IOERR
        self.attempts = attempts


class BlockLayerError(ReproError):
    """Invalid bio/request or block-layer misconfiguration."""


class ApiError(ReproError):
    """Misuse of a host I/O API engine (ring overflow, bad opcode, ...)."""


class RingFullError(ApiError):
    """Submission queue is full; the caller must reap completions first."""


class FpgaError(ReproError):
    """FPGA device, QDMA, or accelerator misconfiguration."""


class ResourceOverflowError(FpgaError):
    """A design does not fit the targeted FPGA region's resources."""


class ReconfigurationError(FpgaError):
    """Invalid DFX partial-reconfiguration request."""


class DriverError(ReproError):
    """UIFD / NBD driver-level failures."""


class WorkloadError(ReproError):
    """Invalid workload specification."""


class CacheError(ReproError):
    """Client-side block cache misconfiguration or invariant violation."""


class BenchmarkError(ReproError):
    """Experiment harness misconfiguration."""
