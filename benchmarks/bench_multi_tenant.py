"""Multi-tenancy: SR-IOV VF scaling *and* mClock fairness at the OSDs.

The paper names missing multi-tenancy as one of the three problems of
DeLiBA-1/2 (Section III): every tenant's I/O funnels through one
user-space daemon, while DeLiBA-K gives each VM its own QDMA virtual
function and io_uring instances.  Two benches cover the two halves of
the story:

* ``test_multi_tenant_scaling`` — three concurrent tenants on both
  architectures; the isolated-VF stack must beat the serialized daemon.
  Each tenant's :class:`~repro.workloads.FioJob` is tenant-stamped, so
  the identity rides the whole datapath (bio -> blk-mq -> driver ->
  RADOS op) even with QoS off.
* ``test_qos_fairness_sweep`` — what happens *after* the VFs converge
  on shared OSDs: the >= 16-tenant mixed-profile mClock sweep
  (:mod:`repro.bench.qosbench`), asserting the fairness shape per
  archetype (floors met, ceilings held, weights ordering the shares).
"""

from repro.api import SyncEngine, UringEngine
from repro.bench.experiments import ExperimentResult
from repro.bench.qosbench import REPLICATION, exp_qos, mixed_profiles, run_qos_scenario
from repro.blk import BlkMqConfig, BlockLayer, DMQ_CONFIG
from repro.deliba import DELIBA2, DELIBAK, build_framework
from repro.driver import DELIBA2_NBD, NbdDriver, UifdDriver
from repro.host import HostKernel
from repro.osd import RBDImage
from repro.sim import Resource
from repro.units import kib, mib, ms
from repro.workloads import FioJob

TENANTS = 3

SWEEP_TENANTS = 16
SWEEP_DURATION = ms(30)
SWEEP_WARMUP = ms(10)


def _tenant_job(tenant):
    return FioJob(
        "mt", "randwrite", bs=kib(4), iodepth=4, nrequests=120, size=mib(32),
        tenant=tenant,
    )


def _run_tenants(base, engines):
    env = base.env
    procs = [
        env.process(
            engine.run(
                _tenant_job(f"vm{i + 1}").make_bios(base.rng.stream(f"mt{i}")), 4
            )
        )
        for i, engine in enumerate(engines)
    ]
    env.run()
    results = [p.value for p in procs]
    elapsed = max(r.finished_at for r in results) - min(r.started_at for r in results)
    total_bytes = sum(r.bytes_moved for r in results)
    return (total_bytes / 1e6) / (elapsed / 1e9)  # aggregate MB/s


def run_multi_tenant():
    # DeLiBA-K: per-tenant UIFD driver on its own SR-IOV VF.
    dk = build_framework(DELIBAK)
    dk_engines = []
    for vf in range(1, TENANTS + 1):
        client = dk.cluster.new_client(f"vm{vf}")
        image = RBDImage(f"vm{vf}", mib(64), dk.pool, client, direct=True)
        kernel = HostKernel(dk.env)
        driver = UifdDriver(
            dk.env, kernel, image, qdma=dk.qdma,
            crush_accel=dk.accelerators["crush"], ec_accel=dk.accelerators["ec"],
            function=vf,
        )
        blk = BlockLayer(dk.env, kernel, driver.queue_rq, DMQ_CONFIG)
        dk_engines.append(UringEngine(dk.env, kernel, blk, num_instances=2))
    dk_aggregate = _run_tenants(dk, dk_engines)

    # DeLiBA-2: every tenant image behind ONE user-space NBD daemon.
    d2 = build_framework(DELIBA2)
    shared_daemon = Resource(d2.env, capacity=1, name="nbd.shared")
    d2_engines = []
    for t in range(1, TENANTS + 1):
        client = d2.cluster.new_client(f"vm{t}")
        image = RBDImage(f"vm{t}", mib(64), d2.pool, client, direct=True)
        kernel = HostKernel(d2.env)
        driver = NbdDriver(
            d2.env, kernel, image, DELIBA2_NBD, qdma=d2.qdma,
            crush_accel=d2.accelerators["crush"], ec_accel=d2.accelerators["ec"],
            shared_daemon=shared_daemon,
        )
        blk = BlockLayer(d2.env, kernel, driver.queue_rq, BlkMqConfig())
        d2_engines.append(SyncEngine(d2.env, kernel, blk))
    d2_aggregate = _run_tenants(d2, d2_engines)

    return ExperimentResult(
        "multi-tenant",
        f"aggregate throughput of {TENANTS} concurrent tenants (4 kB rand-write)",
        ["architecture", "aggregate MB/s", "per-tenant MB/s"],
        [
            ["D-K (SR-IOV VFs + UIFD)", round(dk_aggregate, 1), round(dk_aggregate / TENANTS, 1)],
            ["D2 (shared NBD daemon)", round(d2_aggregate, 1), round(d2_aggregate / TENANTS, 1)],
        ],
        notes="the missing-multi-tenancy problem of Section III, quantified",
    )


def test_multi_tenant_scaling(report):
    result = run_multi_tenant()
    report(result)
    dk = result.rows[0][1]
    d2 = result.rows[1][1]
    # Isolated VFs must beat the serialized daemon by a wide margin.
    assert dk > d2 * 2, f"D-K {dk} MB/s vs D2 {d2} MB/s"


def test_qos_fairness_sweep(report):
    """>= 16 tenants, four archetype profiles, one saturated pool."""
    result = exp_qos(smoke=True, ntenants=SWEEP_TENANTS)
    report(result)

    tenants = mixed_profiles(SWEEP_TENANTS)
    run = run_qos_scenario(
        tenants, seed=0, duration_ns=SWEEP_DURATION, warmup_ns=SWEEP_WARMUP
    )
    window_s = (SWEEP_DURATION - SWEEP_WARMUP) / 1e9
    for name, (spec, _depth) in tenants.items():
        s = run.tenants[name]
        if spec is not None and spec.reservation_iops:
            assert s.op_iops >= 0.95 * spec.reservation_iops, (
                f"{name}: {s.op_iops:,.0f} op-IOPS below floor "
                f"{spec.reservation_iops:,.0f}"
            )
        if spec is not None and spec.limit_iops is not None:
            slack = REPLICATION / window_s  # one in-flight write of slop
            assert s.op_iops <= spec.limit_iops + slack, (
                f"{name}: {s.op_iops:,.0f} op-IOPS above cap {spec.limit_iops:,.0f}"
            )
    # Weights order the shares: every weight-4 tenant out-runs every
    # default (weight-1) tenant, and by a wide margin in aggregate.
    w4 = [run.tenants[n].iops for n, (spec, _d) in tenants.items()
          if spec is not None and spec.weight == 4 and not spec.reservation_iops
          and spec.limit_iops is None]
    default = [run.tenants[n].iops for n, (spec, _d) in tenants.items()
               if spec is None]
    assert min(w4) > max(default), f"weight-4 {w4} vs default {default}"
    assert sum(w4) > 2 * sum(default)
