"""Cluster builder: network + CRUSH + OSD daemons + monitor in one call.

``build_cluster(env)`` reproduces the paper's testbed by default: one
client node and two storage servers with 16 OSDs each (32 total), all on
a 10 GbE star measured at 9.8 Gb/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..crush import BucketAlg, build_two_level_cluster
from ..errors import StorageError
from ..net.stack import KERNEL_TCP, StackProfile
from ..net.topology import Network
from ..sim import Environment, RngRegistry
from .client import RadosClient
from .fabric import Fabric, Messenger
from .monitor import Monitor
from .osd import OsdConfig, OsdDaemon
from .osdmap import OSDMap, Pool
from .policy import OpPolicy
from .storage import NVME_SSD, MediaProfile, StorageDevice
from .wal import DurabilityConfig, WriteAheadLog
from ..status import BlkStatus


@dataclass
class ClusterSpec:
    """Shape and parameters of a simulated cluster."""

    num_server_hosts: int = 2
    osds_per_host: int = 16
    num_clients: int = 1
    media: MediaProfile = NVME_SSD
    osd_config: OsdConfig = field(default_factory=OsdConfig)
    client_stack: StackProfile = KERNEL_TCP
    bucket_alg: BucketAlg = BucketAlg.STRAW2
    #: Retry/failover policy installed on every client this cluster mints.
    op_policy: OpPolicy = field(default_factory=OpPolicy)
    #: Per-OSD transactional commit pipeline (``repro.osd.wal``); None
    #: (the default) keeps the volatile seed write path byte-identical.
    durability: Optional[DurabilityConfig] = None
    seed: int = 0


class CephCluster:
    """Everything needed to run object I/O experiments."""

    def __init__(self, env: Environment, spec: Optional[ClusterSpec] = None, metrics=None):
        self.env = env
        self.spec = spec or ClusterSpec()
        self.rng = RngRegistry(self.spec.seed)
        #: Stack-wide MetricsRegistry (no-op unless one is passed in).
        self.metrics = metrics
        self.network = Network(env, metrics=metrics)
        # Hosts: client0..N and server0..M.
        self.client_hosts = [f"clienthost{i}" for i in range(self.spec.num_clients)]
        self.server_hosts = [f"server{i}" for i in range(self.spec.num_server_hosts)]
        for host in self.client_hosts + self.server_hosts:
            self.network.add_host(host)
        # CRUSH hierarchy mirrors the host layout.
        self.crush, self.root_id = build_two_level_cluster(
            self.spec.num_server_hosts,
            self.spec.osds_per_host,
            host_alg=self.spec.bucket_alg,
            root_alg=self.spec.bucket_alg,
        )
        self.osdmap = OSDMap(self.crush)
        self.fabric = Fabric(env, self.network)
        # OSD daemons.
        self.daemons: dict[int, OsdDaemon] = {}
        for h, host in enumerate(self.server_hosts):
            for d in range(self.spec.osds_per_host):
                osd_id = h * self.spec.osds_per_host + d
                self.osdmap.register_osd(osd_id, host)
                self.fabric.register(f"osd.{osd_id}", host, KERNEL_TCP)
                device = StorageDevice(
                    env,
                    self.spec.media,
                    rng=self.rng.stream(f"dev.{osd_id}"),
                    name=f"osd.{osd_id}",
                )
                daemon = OsdDaemon(
                    env, osd_id, self.fabric, device, self.osdmap, self.spec.osd_config,
                    metrics=metrics,
                )
                self._attach_wal(daemon)
                daemon.start()
                self.daemons[osd_id] = daemon
        # The monitor lives on the first server and can run heartbeats.
        self.fabric.register("mon", self.server_hosts[0], KERNEL_TCP)
        mon_messenger = Messenger(env, self.fabric, "mon")
        mon_messenger.start()
        self.monitor = Monitor(
            env, self.osdmap, self.daemons, messenger=mon_messenger, metrics=metrics
        )
        #: Online self-healing manager; None until enable_recovery().
        self.recovery = None
        #: Multi-tenant QoS manager; None until enable_qos().
        self.qos = None
        self._clients: dict[str, RadosClient] = {}
        #: registry of written objects for recovery/scrub helpers:
        #: name -> (pool_id, length)
        self.object_registry: dict[str, tuple[int, int]] = {}

    # -- clients -------------------------------------------------------------

    def new_client(self, name: str = "", stack: Optional[StackProfile] = None) -> RadosClient:
        """Create (and start) a client entity on a client host."""
        name = name or f"client{len(self._clients)}"
        if name in self._clients:
            raise StorageError(f"client {name!r} already exists")
        host = self.client_hosts[len(self._clients) % len(self.client_hosts)]
        self.fabric.register(name, host, stack or self.spec.client_stack)
        client = RadosClient(
            self.env,
            self.fabric,
            self.osdmap,
            name,
            policy=self.spec.op_policy,
            rng=self.rng.stream(f"backoff.{name}"),
            metrics=self.metrics,
        )
        client.start()
        self._clients[name] = client
        if self.qos is not None:
            self.qos.attach_messenger(client)
        return client

    def client(self, name: str) -> RadosClient:
        """Lookup an existing client."""
        if name not in self._clients:
            raise StorageError(f"unknown client {name!r}")
        return self._clients[name]

    # -- pools ----------------------------------------------------------------

    def create_replicated_pool(self, name: str, pg_num: int = 128, size: int = 3) -> Pool:
        """Replicated pool over the cluster root (device-level domains)."""
        return self.osdmap.create_replicated_pool(name, pg_num, size, self.root_id)

    def create_erasure_pool(self, name: str, pg_num: int = 128, k: int = 4, m: int = 2) -> Pool:
        """EC pool over the cluster root."""
        return self.osdmap.create_erasure_pool(name, pg_num, k, m, self.root_id)

    # -- expansion -----------------------------------------------------------------

    def add_osd(self, server_host: str, weight: float = 1.0) -> int:
        """Provision a new OSD on ``server_host``: device, daemon, CRUSH.

        Returns the new OSD id; the epoch bumps so clients repeer.
        """
        if server_host not in self.server_hosts:
            raise StorageError(f"unknown server host {server_host!r}")
        dev_id = self.crush.add_device(f"osd.{len(self.crush.devices)}", weight)
        host_index = self.server_hosts.index(server_host)
        # Host buckets were created in server order before the root.
        host_bucket = sorted(
            (bid for bid, t in self.crush.bucket_types.items() if t == 1), reverse=True
        )[host_index]
        self.crush.add_device_to_bucket(host_bucket, dev_id)
        self.osdmap.register_osd(dev_id, server_host)
        self.fabric.register(f"osd.{dev_id}", server_host, KERNEL_TCP)
        device = StorageDevice(
            self.env, self.spec.media, rng=self.rng.stream(f"dev.{dev_id}"), name=f"osd.{dev_id}"
        )
        daemon = OsdDaemon(
            self.env, dev_id, self.fabric, device, self.osdmap, self.spec.osd_config,
            metrics=self.metrics,
        )
        self._attach_wal(daemon)
        daemon.start()
        self.daemons[dev_id] = daemon
        if self.recovery is not None:
            daemon.recovery_ledger = self.recovery
        if self.qos is not None:
            self.qos.attach_osd(daemon)
        self.osdmap.bump()
        return dev_id

    # -- self-healing --------------------------------------------------------------

    def enable_recovery(self, config=None):
        """Turn on the online self-healing subsystem (PG state machine,
        peering, background recovery agents — see ``repro.osd.recovery``).

        Off by default so fault-free runs stay event-identical; once
        enabled, every OSDMap epoch bump triggers PG peering and any
        missing copies are backfilled through the fabric while client IO
        continues.  Returns the :class:`~repro.osd.recovery.RecoveryManager`.
        """
        from .recovery import RecoveryManager

        if config is not None and getattr(config, "client_priority", False):
            # Client-priority recovery is expressed through the QoS
            # scheduler's ``recovery`` service class, not ad-hoc backoff.
            self.enable_qos()
        if self.recovery is None:
            self.recovery = RecoveryManager(self.env, self, config, metrics=self.metrics)
            if self.qos is not None:
                for agent in self.recovery._agents.values():
                    self.qos.attach_messenger(agent.messenger)
        return self.recovery

    # -- multi-tenant QoS ----------------------------------------------------------

    def enable_qos(self, config=None):
        """Turn on the mClock-style multi-tenant QoS subsystem (per-OSD
        tag scheduler, dmClock distributed tags — see ``repro.osd.qos``).

        Off by default so untagged runs stay event-identical; once
        enabled, every OSD admits work through a reservation/weight/limit
        tag queue and client/recovery/scrub traffic is shaped per the
        :class:`~repro.osd.qos.QosConfig`.  Returns the
        :class:`~repro.osd.qos.QosManager`.
        """
        from .qos import QosManager

        if self.qos is None:
            self.qos = QosManager(self.env, self, config, metrics=self.metrics)
        return self.qos

    # -- durability ----------------------------------------------------------------

    def _attach_wal(self, daemon: OsdDaemon) -> None:
        """Install the commit pipeline on a daemon when configured."""
        if self.spec.durability is None:
            return
        daemon.wal = WriteAheadLog(
            self.env,
            daemon.device,
            daemon,
            self.spec.durability,
            rng=self.rng.stream(f"wal.{daemon.osd_id}"),
            metrics=self.metrics,
        )

    # -- failure injection --------------------------------------------------------

    def fail_osd(self, osd_id: int) -> None:
        """Kill an OSD (daemon stops; epoch bumps; CRUSH remaps)."""
        self.monitor.fail_osd(osd_id)

    def crash_osd(self, osd_id: int) -> None:
        """Crash an OSD *silently*: in-flight ops die with connection
        resets but nobody marks it down — detection is the heartbeat
        loop's job (the realistic chaos scenario)."""
        daemon = self.daemons.get(osd_id)
        if daemon is None:
            raise StorageError(f"unknown osd.{osd_id}")
        daemon.stop()

    def power_loss_osd(self, osd_id: int) -> None:
        """Cut power to an OSD at this instant.

        In-flight ops bounce with the retryable AGAIN status, the
        device's volatile write-back cache resolves under seeded fate
        draws (persisted / dropped / torn), and nobody marks the OSD
        down — like :meth:`crash_osd`, detection is the heartbeats' job.
        Requires a durable cluster (``ClusterSpec.durability``).
        """
        daemon = self.daemons.get(osd_id)
        if daemon is None:
            raise StorageError(f"unknown osd.{osd_id}")
        if daemon.wal is None:
            raise StorageError(
                f"osd.{osd_id} has no WAL: power loss needs ClusterSpec.durability"
            )
        daemon.stop(status=BlkStatus.AGAIN)
        daemon.wal.power_loss()

    def power_on_osd(self, osd_id: int):
        """Restore power: WAL replay, rejoin, and *delta* recovery.

        The replayed store keeps everything acked before the cut, so the
        recovery census only ships keys written during the outage.
        Returns the :class:`~repro.osd.wal.WalReplayStats`.
        """
        daemon = self.daemons.get(osd_id)
        if daemon is None:
            raise StorageError(f"unknown osd.{osd_id}")
        stats = daemon.restart_from_wal()
        daemon.start()
        if not self.osdmap.osds[osd_id].up:
            self.osdmap.mark_up(osd_id)
        else:
            # Nobody noticed the outage: bump so peers re-peer anyway.
            self.osdmap.bump()
        if self.recovery is not None:
            # Force a census even when no epoch changed during the
            # outage — writes that raced the cut may be missing here.
            self.recovery.kick()
        return stats

    # -- stats ----------------------------------------------------------------------

    def total_ops_served(self) -> int:
        """Sum of ops served by all OSDs."""
        return sum(d.ops_served for d in self.daemons.values())


def build_cluster(
    env: Environment, spec: Optional[ClusterSpec] = None, metrics=None
) -> CephCluster:
    """Convenience constructor (paper testbed by default)."""
    return CephCluster(env, spec, metrics=metrics)
