#!/usr/bin/env python
"""Trace the six-stage I/O lifecycle of Figure 2.

The paper names detailed profiling/tracing of the erasure-coding and
replication path as future work; the simulation provides it today.
Runs 4 kB random writes through DeLiBA-K with causal tracing on and
prints the mean per-stage latency contribution, computed from the
requests' span trees:

  rings    - io_uring submission/completion handling
  dmq      - the modified multi-queue block layer
  qdma     - descriptor + DMA transfer over PCIe
  accel    - replication/EC accelerator compute
  fabric   - network + OSD service
  complete - completion delivery back to the application

Run:  python examples/trace_lifecycle.py
"""

from repro.deliba import DELIBAK, build_framework
from repro.units import kib
from repro.workloads import FioJob


def main() -> None:
    fw = build_framework(DELIBAK, obs=True)
    job = FioJob("trace", "randwrite", bs=kib(4), iodepth=1, nrequests=50)
    proc = fw.env.process(fw.run_fio(job))
    fw.env.run()
    result = proc.value

    print(f"{result.ios} writes, mean end-to-end {result.mean_latency_us():.1f} us\n")
    print("six-stage lifecycle breakdown (paper Fig. 2):")
    print(fw.tracer.breakdown_table())
    fabric = fw.tracer.summary().get("fabric", 0.0)
    print(f"\nnetwork+OSD (fabric) dominates at {fabric:.1f} us — the part no host-side")
    print("optimization can remove, which is why DeLiBA offloads the rest.")


if __name__ == "__main__":
    main()
