"""Framework assembly: build a full stack from a :class:`FrameworkConfig`.

``build_framework`` wires together every substrate — cluster + network,
host kernel, FPGA (when the generation has one), driver, block layer,
and API engine — and returns a :class:`FrameworkInstance` that can run
fio jobs end to end.  This is the library's primary entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Union

from ..api import (
    LibAioEngine,
    MmapEngine,
    PosixAioEngine,
    RunResult,
    SyncEngine,
    UringEngine,
    UringMode,
)
from ..blk import BlockLayer
from ..cache import CacheConfig, CachedImage
from ..driver import NbdConfig, NbdDriver, RbdKmodConfig, RbdKmodDriver, UifdDriver
from ..errors import BenchmarkError
from ..fpga import Accelerator, AlveoU280, PcieLink, QdmaEngine, spec_by_name
from ..host import HostKernel
from ..obs.context import CausalTracer
from ..osd import CephCluster, ClusterSpec, Pool, RBDImage, build_cluster
from ..sim import NULL_METRICS, Environment, MetricsRegistry, RngRegistry
from ..units import kib, mib
from ..workloads.fio import FioJob
from .config import FrameworkConfig

#: CRUSH bucket kernel the placement accelerator implements (the cluster
#: builders use straw2 buckets, so that is what the FPGA accelerates).
PLACEMENT_KERNEL = "straw2"


@dataclass
class PoolSpec:
    """Durability scheme for the benchmark pool."""

    kind: str = "replicated"  # or "erasure"
    size: int = 2  # replicas (2 servers -> one copy per host)
    k: int = 4
    m: int = 2
    pg_num: int = 128


class FrameworkInstance:
    """A fully assembled stack ready to run workloads."""

    def __init__(
        self,
        env: Environment,
        config: FrameworkConfig,
        cluster: CephCluster,
        kernel: HostKernel,
        pool: Pool,
        image: RBDImage,
        driver,
        blk: BlockLayer,
        engine,
        fpga: Optional[AlveoU280] = None,
        qdma: Optional[QdmaEngine] = None,
        accelerators: Optional[dict[str, Accelerator]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.env = env
        self.config = config
        self.cluster = cluster
        self.kernel = kernel
        self.pool = pool
        self.image = image
        self.driver = driver
        self.blk = blk
        self.engine = engine
        self.fpga = fpga
        self.qdma = qdma
        self.accelerators = accelerators or {}
        self.rng = RngRegistry(cluster.spec.seed)
        #: Causal tracer (populated when built with ``obs=True``).
        self.tracer: Optional[CausalTracer] = None
        #: Client-side cache tier (populated when built with ``cache=...``).
        self.cache: Optional[CachedImage] = None
        #: Always-on health layer (populated when built with ``health=...``).
        self.health = None
        #: Stack-wide metrics registry (no-op unless built with ``metrics=True``).
        self.metrics: MetricsRegistry = metrics or NULL_METRICS

    def prefill(self, offsets: list[int], bs: int) -> Generator:
        """Process: write the given blocks so subsequent reads find data.

        Runs before the measured window; only the blocks a job will
        actually touch are written (they are deterministic given the
        job's RNG stream).
        """
        fill = b"\xA5" * bs
        for offset in offsets:
            # Direct on every stack: the fastest path (prefill is not measured).
            yield from self.image.write(offset, fill, sequential=True, direct=True)

    def run_fio(self, job: FioJob, prefill: bool = True) -> Generator:
        """Process: run one fio job; returns :class:`RunResult`.

        With ``numjobs > 1``, that many independent copies run
        concurrently through the shared engine (fio semantics: work
        multiplies) and the merged result is returned.
        """
        from ..api import RunResult
        from ..blk import IoOp  # local import to keep module deps flat

        all_bios = [
            job.make_bios(self.rng.stream(f"fio.{job.name}.j{j}"))
            for j in range(job.numjobs)
        ]
        read_offsets = sorted(
            {b.offset for bios in all_bios for b in bios if b.op == IoOp.READ}
        )
        if prefill and read_offsets:
            yield from self.prefill(read_offsets, job.bs)
        # Open the job-level measurement window at submission start (not
        # at the first completion) so the first op's service time counts.
        meter = self.metrics.meter(f"framework.{job.name}.throughput")
        meter.start(self.env.now)
        if job.numjobs == 1:
            result = yield from self.engine.run(all_bios[0], job.iodepth)
            meter.record(result.bytes_moved, result.finished_at)
            return result
        # Like fio, each job gets its own submission context (own rings /
        # threads) over the shared block layer; CPU cores are shared, so
        # host-side contention between jobs is real.
        engines = [self.engine] + [
            _build_engine(self.env, self.kernel, self.blk, self.config)
            for _ in range(job.numjobs - 1)
        ]
        results = yield self.env.gather(
            engine.run(bios, job.iodepth) for engine, bios in zip(engines, all_bios)
        )
        merged = RunResult(started_at=min(r.started_at for r in results))
        merged.finished_at = max(r.finished_at for r in results)
        for r in results:
            merged.latencies_ns.extend(r.latencies_ns)
            merged.bytes_moved += r.bytes_moved
            merged.errors += r.errors
        meter.record(merged.bytes_moved, merged.finished_at)
        return merged


def _build_engine(env, kernel, blk, config: FrameworkConfig):
    if config.api == "sync":
        return SyncEngine(env, kernel, blk)
    if config.api == "libaio":
        return LibAioEngine(env, kernel, blk)
    if config.api == "posix-aio":
        return PosixAioEngine(env, kernel, blk)
    if config.api == "mmap":
        return MmapEngine(env, kernel, blk)
    if config.uring_interrupt:
        mode = UringMode.INTERRUPT
    elif config.uring_sqpoll:
        mode = UringMode.SQPOLL
    else:
        mode = UringMode.POLL
    return UringEngine(
        env,
        kernel,
        blk,
        num_instances=config.uring_instances,
        mode=mode,
        batch_size=config.uring_batch,
        pin_cores=config.uring_pin_cores,
    )


def build_framework(
    config: FrameworkConfig,
    pool_spec: Optional[PoolSpec] = None,
    cluster_spec: Optional[ClusterSpec] = None,
    env: Optional[Environment] = None,
    image_size: int = mib(256),
    object_size: Optional[int] = None,
    seed: int = 0,
    obs: bool = False,
    metrics: Union[bool, MetricsRegistry] = False,
    cache: Optional[CacheConfig] = None,
    health=None,
) -> FrameworkInstance:
    """Assemble one generation of the stack over a fresh cluster.

    ``object_size`` defaults to 4 MiB for replicated pools and must equal
    the workload block size for EC pools (whole-object encode model).
    With ``metrics=True`` every layer registers its instruments into one
    shared :class:`MetricsRegistry` (``fw.metrics``); the default is a
    no-op registry, so instrumentation costs nothing and results are
    bit-identical either way.  Pass an existing registry to share one
    across frameworks.

    ``obs=True`` attaches a :class:`repro.obs.CausalTracer` as
    ``fw.tracer``: every request grows a span *tree* with parent/child
    edges at each layer hand-off, fan-out, and retry leg — the input to
    ``python -m repro profile`` — and the tracer renders the six-stage
    lifecycle view of the forest (``python -m repro trace``).  Tracing
    does not change the simulated event stream.

    ``cache=CacheConfig(...)`` interposes an Open-CAS-style client block
    cache (:class:`repro.cache.CachedImage`) between the driver and the
    RBD image; pass-through mode delegates untouched, so a PT cache is
    event-identical to no cache at all.  On erasure pools the cache line
    is forced to the object size (the EC datapath models whole-object
    encode/decode, so line fills must be object-aligned).

    ``health=True`` (or a :class:`repro.obs.health.HealthConfig`)
    attaches the always-on cluster health layer — slow-op detector,
    flight recorder, SLO burn tracking — as ``fw.health``.  The hooks
    are completion-path bookkeeping only; no simulation events are
    scheduled, so the event stream stays identical to a run without it.
    """
    pool_spec = pool_spec or PoolSpec()
    env = env or Environment()
    if metrics is True:
        registry: MetricsRegistry = MetricsRegistry()
    elif metrics:
        registry = metrics  # caller-supplied registry
    else:
        registry = NULL_METRICS
    spec = cluster_spec or ClusterSpec(seed=seed, client_stack=config.client_stack)
    cluster = build_cluster(env, spec, metrics=registry)
    if pool_spec.kind == "replicated":
        fault_domain = 1 if pool_spec.size <= spec.num_server_hosts else 0
        pool = cluster.osdmap.create_replicated_pool(
            "bench", pool_spec.pg_num, pool_spec.size, cluster.root_id, fault_domain
        )
    elif pool_spec.kind == "erasure":
        pool = cluster.create_erasure_pool("bench", pool_spec.pg_num, pool_spec.k, pool_spec.m)
    else:
        raise BenchmarkError(f"unknown pool kind {pool_spec.kind!r}")
    client = cluster.new_client("client0", stack=config.client_stack)
    if object_size is None:
        object_size = kib(4) if pool_spec.kind == "erasure" else mib(4)
    image = RBDImage("bench", image_size, pool, client, object_size=object_size)
    cache_tier: Optional[CachedImage] = None
    if cache is not None:
        if pool_spec.kind == "erasure" and cache.line_size != object_size:
            from dataclasses import replace

            cache = replace(cache, line_size=object_size)
        cache_tier = CachedImage(image, cache, metrics=registry)
        image = cache_tier
    kernel = HostKernel(env)
    tracer = CausalTracer(env) if obs else None

    fpga = qdma = None
    accelerators: dict[str, Accelerator] = {}
    if config.hardware:
        fpga = AlveoU280()
        pcie = PcieLink(env)
        qdma = QdmaEngine(env, pcie, metrics=registry)
        accelerators["crush"] = Accelerator(
            env, spec_by_name(PLACEMENT_KERNEL, impl=config.accel_impl)
        )
        accelerators["ec"] = Accelerator(env, spec_by_name("rs_encoder", impl=config.accel_impl))

    if config.driver == "rbd_kmod":
        driver = RbdKmodDriver(env, kernel, image, RbdKmodConfig())
    elif config.driver == "nbd":
        driver = NbdDriver(
            env,
            kernel,
            image,
            NbdConfig(crossings=config.nbd_crossings, passive_offload=config.passive_offload),
            qdma=qdma,
            crush_accel=accelerators.get("crush"),
            ec_accel=accelerators.get("ec"),
            hardware=config.hardware,
        )
    else:
        driver = UifdDriver(
            env,
            kernel,
            image,
            qdma=qdma,
            crush_accel=accelerators.get("crush"),
            ec_accel=accelerators.get("ec"),
            hardware=config.hardware,
            metrics=registry,
        )

    blk = BlockLayer(env, kernel, driver.queue_rq, config.blk, tracer=tracer, metrics=registry)
    engine = _build_engine(env, kernel, blk, config)
    fw = FrameworkInstance(
        env, config, cluster, kernel, pool, image, driver, blk, engine, fpga, qdma, accelerators,
        metrics=registry,
    )
    fw.tracer = tracer
    fw.cache = cache_tier
    if health:
        from ..obs.health import HealthConfig, HealthLayer

        health_config = health if isinstance(health, HealthConfig) else None
        HealthLayer(env, health_config, metrics=registry).attach(fw)
    return fw


def run_job_on(config: FrameworkConfig, job: FioJob, pool_spec: Optional[PoolSpec] = None, seed: int = 0) -> RunResult:
    """Convenience: build a fresh stack, run one job, return the result."""
    object_size = job.bs if (pool_spec and pool_spec.kind == "erasure") else None
    fw = build_framework(config, pool_spec=pool_spec, object_size=object_size, seed=seed)
    proc = fw.env.process(fw.run_fio(job), name=f"{config.name}:{job.name}")
    fw.env.run()
    if not proc.ok:
        raise proc.value
    return proc.value
