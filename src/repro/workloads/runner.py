"""Application runners: execute OLAP/OLTP batches on a framework stack.

Query/transaction CPU work runs concurrently with I/O (a dedicated
application core), so the measured *execution time* reflects how much of
the storage latency the application can actually hide — the quantity
behind the paper's "~30% reduction in execution time for data-intensive
tasks" claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from ..blk import IoOp
from ..sim import RngStream
from .olap import OlapWorkload
from .oltp import OltpWorkload

if TYPE_CHECKING:  # pragma: no cover
    from ..deliba.framework import FrameworkInstance


@dataclass
class AppResult:
    """Outcome of one application batch."""

    name: str
    elapsed_ns: int
    ios: int
    bytes_moved: int

    @property
    def elapsed_ms(self) -> float:
        """Execution time in milliseconds."""
        return self.elapsed_ns / 1e6


def run_olap(fw: "FrameworkInstance", workload: OlapWorkload) -> Generator:
    """Process: scans (with concurrent aggregation CPU) then the bulk load."""
    env = fw.env
    start = env.now
    scan_bios = workload.scan_bios()
    # Prefill the table so scans find data.
    touched = sorted({b.offset for b in scan_bios})
    yield from fw.prefill(touched, workload.scan_block)
    measured_start = env.now

    core = fw.kernel.cpus.pick_core()

    def aggregate(env):
        yield from core.run(workload.total_cpu_ns)

    scan_result, _ = yield env.gather([fw.engine.run(scan_bios, workload.iodepth), aggregate(env)])

    load_bios = workload.load_bios()
    load_result = yield from fw.engine.run(load_bios, workload.iodepth)

    return AppResult(
        workload.name,
        env.now - measured_start,
        scan_result.ios + load_result.ios,
        scan_result.bytes_moved + load_result.bytes_moved,
    )


def run_oltp(fw: "FrameworkInstance", workload: OltpWorkload, rng: RngStream) -> Generator:
    """Process: serial transactions (reads, CPU, commit writes)."""
    env = fw.env
    txns = workload.transaction_bios(rng)
    # Prefill every page the batch will read.
    read_offsets = sorted(
        {b.offset for txn in txns for b in txn if b.op == IoOp.READ}
    )
    yield from fw.prefill(read_offsets, workload.page_size)
    measured_start = env.now
    core = fw.kernel.cpus.pick_core()
    ios = 0
    moved = 0
    for txn in txns:
        reads = [b for b in txn if b.op == IoOp.READ]
        writes = [b for b in txn if b.op == IoOp.WRITE]
        r = yield from fw.engine.run(reads, workload.iodepth)
        yield from core.run(workload.cpu_per_txn_ns)
        if writes:
            w = yield from fw.engine.run(writes, workload.iodepth)
            ios += w.ios
            moved += w.bytes_moved
        ios += r.ios
        moved += r.bytes_moved
    return AppResult(workload.name, env.now - measured_start, ios, moved)
