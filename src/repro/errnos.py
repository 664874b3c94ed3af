"""Shared errno constants (Linux/asm-generic values).

One place for every negative-``errno`` the stack surfaces, so the uring
CQE layer, the :class:`repro.status.BlkStatus` mapping, and tests all
agree on the numbers.  Values are the positive errno; completion paths
negate them (a CQE ``res`` of ``-EIO`` is ``-5``), mirroring how the
kernel encodes failures in ``io_uring_cqe.res``.
"""

from __future__ import annotations

#: No such file or directory (unwritten RADOS object).
ENOENT = 2
#: I/O error — the generic catch-all (``BLK_STS_IOERR``).
EIO = 5
#: Try again — transient resource loss (``BLK_STS_AGAIN``); the target
#: lost power and will return after WAL replay, so callers should retry.
EAGAIN = 11
#: No data available — media/checksum failure (``BLK_STS_MEDIUM``).
ENODATA = 61
#: Link has been severed — transport failure (``BLK_STS_TRANSPORT``).
ENOLINK = 67
#: Connection timed out (``BLK_STS_TIMEOUT``).
ETIMEDOUT = 110
#: Operation canceled (a linked SQE after an earlier chain failure).
ECANCELED = 125

#: errno -> symbolic name, for error messages and reports.
ERRNO_NAMES = {
    ENOENT: "ENOENT",
    EIO: "EIO",
    EAGAIN: "EAGAIN",
    ENODATA: "ENODATA",
    ENOLINK: "ENOLINK",
    ETIMEDOUT: "ETIMEDOUT",
    ECANCELED: "ECANCELED",
}
