"""Pass A of the traced run: host self time and work counts per layer.

:class:`LayerTracer` wraps each layer's entry points (patched on their
classes, in this process only, before any stack is built) and measures
every call into them with the host clock.  A generator entry point is
timed per resume, never across the virtual time it sits parked, and the
stack of active calls subtracts a nested layer's time from its caller,
which gives self time.  What no layer claims (the event loop, and code
between layers) is the ``sim`` layer's self time.

Each call is also one span: layer, name, virtual start and end, host
self time, parent span and request id.  Spans are kept in memory and
returned at the end as a Chrome-trace document.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Entry:
    """Entry points of one layer on one class."""

    layer: str
    target: str  # "module:Class"
    methods: tuple
    #: (counter, fn(args) -> bytes): bytes moved per call, counted as ``<counter>``.
    size: Optional[tuple] = None
    #: The first argument after ``self`` is a block-layer request (its
    #: ``req_id`` tags the span and every span under it).
    request: bool = False


def _len_arg(i: int) -> Callable:
    return lambda args: len(args[i])


#: The layers are the repository's packages.  Besides each layer's public
#: entry points, the generators a layer spawns as processes are listed,
#: so their resumes are not left to the ``sim`` layer.
ENTRIES = (
    Entry("api", "repro.api.uring.engine:UringEngine", ("run", "_drive")),
    Entry("api", "repro.api.uring.instance:IoUring",
          ("submit", "_sqpoll_loop", "_post_cqe", "_run_chain")),
    Entry("blk", "repro.blk.blk_mq:BlockLayer", ("submit_bio", "flush_plug")),
    Entry("blk", "repro.blk.blk_mq:HardwareContext", ("insert", "_drain", "_on_complete")),
    Entry("driver", "repro.driver.uifd:UifdDriver", ("queue_rq", "_handle"), request=True),
    Entry("driver", "repro.driver.nbd:NbdDriver", ("queue_rq", "_handle"), request=True),
    Entry("fpga", "repro.fpga.qdma:QdmaEngine", ("h2c_transfer", "c2h_transfer"),
          size=("fpga.dma", lambda args: args[2])),
    Entry("fpga", "repro.fpga.accelerators:Accelerator", ("process",)),
    Entry("host", "repro.host.kernel:HostKernel",
          ("syscall", "context_switch", "copy", "interrupt", "poll_once")),
    Entry("crush", "repro.osd.client:RadosClient", ("compute_placement",)),
    Entry("crush", "repro.crush.rules:Mapper", ("do_rule",)),
    Entry("net", "repro.osd.fabric:Fabric", ("send",), size=("net", lambda args: args[3])),
    Entry("net", "repro.osd.fabric:Messenger", ("call", "_demux")),
    Entry("net", "repro.net.topology:Network", ("send",)),
    Entry("osd", "repro.osd.rbd:RBDImage", ("write", "read")),
    Entry("osd", "repro.osd.client:RadosClient",
          ("write_replicated", "read_replicated", "write_ec", "read_ec")),
    Entry("osd", "repro.osd.osd:OsdDaemon", ("on_request",)),
    Entry("store", "repro.osd.objects:ObjectStore", ("write",), size=("store.write", _len_arg(3))),
    Entry("store", "repro.osd.objects:ObjectStore", ("read",)),
    Entry("store", "repro.osd.storage:StorageDevice", ("read", "write", "flush")),
    Entry("wal", "repro.osd.wal:WriteAheadLog", ("write", "sync", "delete", "_apply_in_place")),
    Entry("ec", "repro.ec.reed_solomon:ReedSolomon", ("encode",), size=("ec.encode", _len_arg(1))),
    Entry("ec", "repro.ec.reed_solomon:ReedSolomon", ("encode_batch",),
          size=("ec.encode", lambda args: sum(map(len, args[1])))),
    Entry("ec", "repro.ec.reed_solomon:ReedSolomon", ("decode",),
          size=("ec.decode", lambda args: args[2])),
    Entry("ec", "repro.ec.reed_solomon:ReedSolomon", ("decode_batch",),
          size=("ec.decode", lambda args: sum(args[2]))),
    Entry("ec", "repro.ec.reed_solomon:ReedSolomon", ("reconstruct_shard",)),
    Entry("recovery", "repro.osd.recovery:RecoveryManager", ("kick", "_on_epoch")),
    Entry("recovery", "repro.osd.recovery:_Agent", ("_run", "_windowed")),
    Entry("obs", "repro.obs.health:HealthLayer", ("observe_client", "observe_osd", "poll")),
    Entry("obs", "repro.sim.monitor:Counter", ("add",)),
    Entry("obs", "repro.sim.monitor:Gauge", ("set", "add")),
    Entry("obs", "repro.sim.monitor:Distribution", ("record",)),
    Entry("obs", "repro.sim.monitor:LatencyRecorder", ("record",)),
    Entry("obs", "repro.sim.monitor:ThroughputMeter", ("start", "record")),
    Entry("obs", "repro.sim.monitor:TimeSeries", ("record",)),
)

#: Every layer, in datapath order; ``sim`` holds what no other layer claims.
LAYERS = ("sim", "api", "blk", "driver", "fpga", "host", "crush", "net", "osd", "store",
          "wal", "ec", "recovery", "obs")

#: Spans kept for the Chrome trace; later spans are still timed, only not kept.
MAX_SPANS = 20_000

# Span fields (a span is a list, for speed).
_ID, _LAYER, _NAME, _PARENT, _REQ, _START, _END, _SELF = range(8)


class LayerTracer:
    """Per-layer host self time, call counts and spans for one process."""

    def __init__(self):
        #: Lifetime totals: layer -> self ns, (name, parent name) -> calls,
        #: counter -> bytes, and processes started.
        self.self_ns: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.bytes: dict = defaultdict(int)
        self.processes = 0
        #: The same totals summed over measured windows only.
        self.window: dict = defaultdict(int)
        self.spans: list = []
        self.dropped = 0
        self._stack: list = []  # frames: [layer, span, host t0, child ns]
        self._next_id = 1
        self._now: Callable[[], int] = lambda: 0
        self._recording = False
        self._mark: Optional[dict] = None
        self._patched: list = []

    # -- installation --------------------------------------------------------------

    def install(self, entries=ENTRIES) -> None:
        """Patch every entry point (and count process starts)."""
        for entry in entries:
            module, cls_name = entry.target.split(":")
            cls = getattr(importlib.import_module(module), cls_name)
            for method in entry.methods:
                fn = cls.__dict__[method]
                self._patched.append((cls, method, fn))
                setattr(cls, method, self.wrap(entry, f"{cls_name}.{method}", fn))
        from repro.sim import Environment

        process = Environment.process

        def counted_process(env, generator, name=""):
            self.processes += 1
            return process(env, generator, name)

        self._patched.append((Environment, "process", process))
        Environment.process = counted_process

    def uninstall(self) -> None:
        for cls, method, fn in reversed(self._patched):
            setattr(cls, method, fn)
        self._patched.clear()

    # -- measured windows ---------------------------------------------------------------

    def begin(self, env) -> None:
        """Open a measured window on ``env`` (virtual times come from it)."""
        self._now = lambda: env._now
        self._recording = True
        self._mark = self._totals()

    def end(self) -> None:
        """Close the window and add its share of every total to :attr:`window`."""
        for key, value in self._totals().items():
            self.window[key] += value - self._mark.get(key, 0)
        for span in self.spans:
            if span[_END] is None:
                span[_END] = self._now()
        self._recording = False

    def _totals(self) -> dict:
        out = {("self", k): v for k, v in self.self_ns.items()}
        out.update({("calls",) + k: v for k, v in self.calls.items()})
        out.update({("bytes", k): v for k, v in self.bytes.items()})
        out[("processes",)] = self.processes
        return out

    # -- wrapping --------------------------------------------------------------------------

    def wrap(self, entry: Entry, name: str, fn: Callable) -> Callable:
        """``fn`` timed as ``entry.layer``; generators are timed per resume."""
        layer = entry.layer
        size_key, size_fn = entry.size or (None, None)
        request = entry.request
        stack = self._stack
        clock = time.perf_counter_ns
        calls = self.calls
        nbytes = self.bytes
        self_ns = self.self_ns

        def open_span(args):
            parent = stack[-1][1] if stack else None
            parent_name = parent[_NAME] if parent else ""
            calls[(name, parent_name)] += 1
            if size_fn is not None:
                nbytes[size_key] += size_fn(args)
            req = args[1].req_id if request else (parent[_REQ] if parent else None)
            span = [self._next_id, layer, name, parent[_ID] if parent else None, req,
                    self._now(), None, 0]
            self._next_id += 1
            if self._recording:
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(span)
                else:
                    self.dropped += 1
            return span

        def leave(frame):
            elapsed = clock() - frame[2]
            own = elapsed - frame[3]
            self_ns[layer] += own
            frame[1][_SELF] += own
            if stack:
                stack[-1][3] += elapsed

        if inspect.isgeneratorfunction(fn):

            def drive(gen, span):
                value = error = None
                while True:
                    frame = [layer, span, clock(), 0]
                    stack.append(frame)
                    try:
                        target = gen.send(value) if error is None else gen.throw(error)
                    except StopIteration as stop:
                        stack.pop()
                        leave(frame)
                        span[_END] = self._now()
                        return stop.value
                    except BaseException:
                        stack.pop()
                        leave(frame)
                        span[_END] = self._now()
                        raise
                    stack.pop()
                    leave(frame)
                    try:
                        value, error = (yield target), None
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # forwarded into the wrapped generator
                        value, error = None, exc

            def wrapper(*args, **kwargs):
                proxy = drive(fn(*args, **kwargs), open_span(args))
                # Process names default to the generator's name.
                proxy.__name__ = fn.__name__
                return proxy

        else:

            def wrapper(*args, **kwargs):
                span = open_span(args)
                frame = [layer, span, clock(), 0]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    leave(frame)
                    span[_END] = self._now()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- results ------------------------------------------------------------------------------

    def window_calls(self, name: str, parent: Optional[str] = None) -> int:
        """Calls of ``name`` in measured windows (only under ``parent`` if given)."""
        return sum(
            v for k, v in self.window.items()
            if k[0] == "calls" and k[1] == name and (parent is None or k[2] == parent)
        )

    def window_self_ms(self) -> dict:
        return {layer: self.window[("self", layer)] / 1e6 for layer in LAYERS if layer != "sim"}

    def report(self, stats: dict, measured_s: float) -> dict:
        """Per-layer metrics for the measured windows.

        ``stats`` holds the stack counters summed by :func:`accumulate`.
        """
        w = self.window
        self_ms = self.window_self_ms()
        out = {f"{layer}.self_ms": ms for layer, ms in self_ms.items()}
        out["sim.self_ms"] = measured_s * 1e3 - sum(self_ms.values())
        out["sim.processes"] = w[("processes",)]
        submits = self.window_calls("IoUring.submit")
        out["api.submits"] = submits
        out["api.sqes_per_submit"] = stats["sqes"] / submits if submits else 0.0
        requests = stats["bios"] - stats["merges"]
        out["blk.bios"] = stats["bios"]
        out["blk.requests"] = requests
        out["blk.merge_ratio"] = stats["bios"] / requests if requests else 0.0
        out["fpga.dma_mb"] = w[("bytes", "fpga.dma")] / 1e6
        out["fpga.accel_calls"] = self.window_calls("Accelerator.process")
        out["host.cpu_busy_frac"] = stats["busy_ns"] / stats["core_ns"] if stats["core_ns"] else 0.0
        place = self.window_calls("RadosClient.compute_placement")
        out["crush.place_calls"] = place
        out["crush.rule_calls"] = self.window_calls("Mapper.do_rule")
        missed = self.window_calls("Mapper.do_rule", parent="RadosClient.compute_placement")
        out["crush.hit_ratio"] = 1.0 - missed / place if place else 0.0
        out["net.msgs"] = self.window_calls("Fabric.send")
        out["net.mb"] = w[("bytes", "net")] / 1e6
        out["osd.ops"] = self.window_calls("OsdDaemon.on_request")
        out["store.writes"] = self.window_calls("ObjectStore.write")
        out["store.write_mb"] = w[("bytes", "store.write")] / 1e6
        out["store.resident_mb"] = stats["resident"] / 1e6
        written = self.bytes["store.write"]
        out["store.space_amp"] = stats["resident"] / written if written else 0.0
        out["wal.writes"] = self.window_calls("WriteAheadLog.write")
        out["ec.encode_mb"] = w[("bytes", "ec.encode")] / 1e6
        out["ec.decode_mb"] = w[("bytes", "ec.decode")] / 1e6
        out["recovery.pushed_mb"] = stats["pushed"] / 1e6
        out["recovery.pgs_recovered"] = stats["pgs_recovered"]
        out["policy.retries"] = stats["retries"]
        out["policy.timeouts"] = stats["timeouts"]
        out["policy.failovers"] = stats["failovers"]
        return out

    def chrome_trace(self) -> dict:
        """Kept spans as a Chrome-trace document, one lane per layer,
        timestamps in virtual microseconds."""
        lanes = {layer: tid for tid, layer in enumerate(LAYERS)}
        events = [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid, "args": {"name": layer}}
            for layer, tid in lanes.items()
        ]
        for span in self.spans:
            start, end = span[_START], span[_END]
            events.append({
                "name": span[_NAME],
                "cat": span[_LAYER],
                "ph": "X",
                "ts": start / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": lanes[span[_LAYER]],
                "args": {"span": span[_ID], "parent": span[_PARENT], "req": span[_REQ],
                         "self_ns": span[_SELF], "start_ns": start, "end_ns": end},
            })
        return {"traceEvents": events, "displayTimeUnit": "ns"}


def snapshot(fw) -> dict:
    """Cumulative counters of one stack that the per-layer metrics use."""
    cluster = fw.cluster
    client = fw.image.client
    recovery = cluster.recovery
    return {
        "sqes": sum(i.sqes_submitted for i in getattr(fw.engine, "instances", ())),
        "bios": fw.blk.bios_submitted,
        "merges": fw.blk.merges,
        "cores": [c.busy_ns for c in fw.kernel.cpus.cores],
        "resident": sum(d.store.used_bytes for d in cluster.daemons.values()),
        "pushed": fw.metrics.counter("recovery.bytes_pushed").value if recovery else 0,
        "pgs_recovered": recovery.pgs_recovered if recovery else 0,
        "retries": client.retries,
        "timeouts": client.timeouts,
        "failovers": client.failovers,
    }


#: Snapshot fields that are states, summed at the window's end.
_STATES = ("resident",)


def accumulate(stats: dict, after: dict, before: dict, window_ns: int) -> None:
    """Add one stack's measured window (``before`` -> ``after``, lasting
    ``window_ns`` of virtual time) to ``stats``."""
    for key, value in after.items():
        if key == "cores":
            continue
        stats[key] = stats.get(key, 0) + (value if key in _STATES else value - before[key])
    busy = [a - b for a, b in zip(after["cores"], before["cores"])]
    stats["busy_ns"] = stats.get("busy_ns", 0) + sum(busy)
    active = sum(1 for b in busy if b > 0)
    stats["core_ns"] = stats.get("core_ns", 0) + active * window_ns
