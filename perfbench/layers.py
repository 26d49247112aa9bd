"""Per-layer timing probes, installed from outside the program.

Each probe replaces one entry point (a method or module function) with a
wrapper that takes ``perf_counter_ns`` stamps around the call and counts
calls -- and, where the layer has a natural unit of work, the units --
at the same boundary.  A stack of open spans turns durations into self
time: a layer's self time is its span minus the spans of wrapped layers
it called.  A same-named span opened inside itself (a scheduler wrapping
its base scheduler, a recursive call) is not timed twice.

Results stay in memory.  ``Probes.snapshot()`` copies the cumulative
counters; the benchmark compares two snapshots to get one window.
"""

import json
import time
import weakref
from typing import Any, Callable, Dict, List, Optional

perf_ns = time.perf_counter_ns

#: Maps a call's ``(args, result)`` to the units of work it did.
_Unit = Optional[Callable[[tuple, Any], int]]


def _frames(args: tuple, result: Any) -> int:
    return len(result)


def _gc_pages(args: tuple, result: Any) -> int:
    return 0 if result is None else result.pages_moved


def _cache_hit(args: tuple, result: Any) -> int:
    return 1 if result[0] else 0


#: Probe tables: (module, class or None for a module function, attribute,
#: layer name, unit counter or None for one unit per call).  Entries that
#: share a layer name add up into one layer.
RACK_PROBES = [
    ("repro.sim.core", "Simulator", "run", "sim.run", None),
    ("repro.switch.dataplane", "SwitchDataPlane", "process_packet", "switch", None),
    ("repro.net.latency", "LatencyProcess", "sample", "net", None),
    ("repro.server.sdf", "StorageServer", "receive_packet", "server.sdf", None),
    ("repro.server.iosched", "CoordinatedScheduler", "pop", "server.iosched", None),
    ("repro.server.iosched", "FifoIoScheduler", "pop", "server.iosched", None),
    ("repro.server.iosched", "DeadlineIoScheduler", "pop", "server.iosched", None),
    ("repro.server.iosched", "KyberIoScheduler", "pop", "server.iosched", None),
    ("repro.flash.ftl", "PageMappedFtl", "place_write", "flash.ftl.place_write", None),
    ("repro.flash.ftl", "PageMappedFtl", "lookup", "flash.ftl.lookup", None),
    ("repro.flash.gc", "GreedyGcPolicy", "collect_once", "flash.gc", _gc_pages),
    ("repro.metrics.collector", "ExperimentMetrics", "record", "metrics.record", None),
]

SERVICE_PROBES = [
    ("repro.service.protocol", "FrameDecoder", "feed_tagged", "service.protocol.decode",
     _frames),
    ("repro.service.protocol", None, "encode_frame_as", "service.protocol.encode", None),
    ("repro.service.qos", "QosScheduler", "try_admit", "service.qos.admit", None),
    ("repro.service.admission", "AdmissionController", "try_admit",
     "service.admission.admit", None),
    ("repro.service.readcache", "ReadCache", "lookup", "service.readcache.lookup",
     _cache_hit),
] + [
    ("repro.service.bridge", "SimTimeBridge", f"submit_{op}", "service.bridge.submit", None)
    for op in ("read", "write", "get", "put", "delete", "scan")
] + [
    ("repro.service.router", "ShardRouter", f"submit_{op}", "service.router.route", None)
    for op in ("read", "write", "get", "put", "delete", "scan")
]

#: Instances whose own counters the snapshots read (exact, not timed).
_TRACKED = [
    ("repro.flash.ftl", "PageMappedFtl"),
    ("repro.switch.dataplane", "SwitchDataPlane"),
    ("repro.service.bridge", "SimTimeBridge"),
    ("repro.metrics.collector", "ExperimentMetrics"),
]


class Probes:
    """The installed wrappers and their cumulative counters.

    ``acc[layer]`` is ``[calls, total_ns, self_ns, units, bytes]``.
    """

    def __init__(self) -> None:
        self.acc: Dict[str, List[int]] = {}
        #: Weak references to tracked instances, in creation order.
        self.instances: Dict[str, List["weakref.ref"]] = {}
        self.snapshots: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._depth: Dict[str, int] = {}

    # ------------------------------------------------------------ install

    def install(self, table) -> None:
        import importlib

        for module_name, cls_name, attr, layer, unit in table:
            module = importlib.import_module(module_name)
            owner = module if cls_name is None else getattr(module, cls_name)
            if layer == "sim.run":
                self._wrap_sim_run(owner)
            elif layer == "service.protocol.decode":
                self._wrap(owner, attr, layer, unit, byte_arg=True)
            elif layer == "service.protocol.encode":
                self._wrap(owner, attr, layer, unit, byte_result=True)
            else:
                self._wrap(owner, attr, layer, unit)

    def track_instances(self) -> None:
        import importlib

        for module_name, cls_name in _TRACKED:
            cls = getattr(importlib.import_module(module_name), cls_name)
            live = self.instances.setdefault(cls_name, [])
            init = cls.__init__

            def tracked(obj, *args, _init=init, _live=live, **kwargs):
                _init(obj, *args, **kwargs)
                _live.append(weakref.ref(obj))

            cls.__init__ = tracked

    def _wrap(self, owner: Any, attr: str, layer: str, unit: _Unit,
              byte_arg: bool = False, byte_result: bool = False) -> None:
        fn = getattr(owner, attr)
        acc = self.acc.setdefault(layer, [0, 0, 0, 0, 0])
        stack = self._stack
        depth = self._depth
        depth.setdefault(layer, 0)

        def probe(*args, **kwargs):
            if depth[layer]:
                return fn(*args, **kwargs)
            depth[layer] = 1
            stack.append(0)
            t0 = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_ns() - t0
                child = stack.pop()
                depth[layer] = 0
                if stack:
                    stack[-1] += elapsed
            acc[0] += 1
            acc[1] += elapsed
            acc[2] += elapsed - child
            acc[3] += 1 if unit is None else unit(args, result)
            if byte_arg:
                acc[4] += len(args[1])
            elif byte_result:
                acc[4] += len(result)
            return result

        probe.__wrapped__ = fn
        probe.__name__ = getattr(fn, "__name__", attr)
        setattr(owner, attr, probe)

    def _wrap_sim_run(self, cls: Any) -> None:
        """``Simulator.run``: the unit is simulator events executed."""
        fn = cls.run
        acc = self.acc.setdefault("sim.run", [0, 0, 0, 0, 0])
        stack = self._stack

        def run(sim, *args, **kwargs):
            before = sim.event_count
            stack.append(0)
            t0 = perf_ns()
            try:
                return fn(sim, *args, **kwargs)
            finally:
                elapsed = perf_ns() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - child
                acc[3] += sim.event_count - before

        run.__wrapped__ = fn
        cls.run = run

    # ------------------------------------------------------------ results

    def live(self, cls_name: str) -> List[Any]:
        """The tracked instances of a class still alive, oldest first."""
        refs = (ref() for ref in self.instances.get(cls_name, ()))
        return [obj for obj in refs if obj is not None]

    def snapshot(self, label: str = "") -> Dict[str, Any]:
        """Copy every cumulative counter (appended to ``snapshots``)."""
        snap: Dict[str, Any] = {
            "label": label,
            "cpu_ns": time.process_time_ns(),
            "wall_ns": perf_ns(),
            "acc": {name: list(v) for name, v in self.acc.items()},
        }
        ftls = self.live("PageMappedFtl")
        snap["host_writes"] = sum(f.host_writes for f in ftls)
        snap["gc_writes"] = sum(f.gc_writes for f in ftls)
        snap["reads_redirected"] = sum(s.reads_redirected
                                       for s in self.live("SwitchDataPlane"))
        snap["bridge_submitted"] = [b.submitted for b in self.live("SimTimeBridge")]
        snap["samples_held"] = sum(
            len(m.read_total) + len(m.write_total) + len(m.read_storage)
            + len(m.write_storage)
            for m in self.live("ExperimentMetrics"))
        self.snapshots.append(snap)
        return snap


def window(first: Dict[str, Any], last: Dict[str, Any]) -> Dict[str, Any]:
    """The counters accumulated between two snapshots."""
    acc = {}
    for name, after in last["acc"].items():
        before = first["acc"].get(name, [0, 0, 0, 0, 0])
        acc[name] = [a - b for a, b in zip(after, before)]
    shard_ops = [a - b for a, b in zip(last["bridge_submitted"],
                                       first["bridge_submitted"])]
    return {
        "cpu_ns": last["cpu_ns"] - first["cpu_ns"],
        "wall_ns": last["wall_ns"] - first["wall_ns"],
        "acc": acc,
        "host_writes": last["host_writes"] - first["host_writes"],
        "gc_writes": last["gc_writes"] - first["gc_writes"],
        "reads_redirected": last["reads_redirected"] - first["reads_redirected"],
        "shard_ops": shard_ops,
        "samples_held": last["samples_held"],
    }


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(win: Dict[str, Any], ops: int, live: bool) -> Dict[str, float]:
    """Per-layer metrics for one window of ``ops`` end-to-end operations.

    A layer that did not run in the window reports 0.
    """
    acc = win["acc"]

    def get(name: str) -> List[int]:
        return acc.get(name, [0, 0, 0, 0, 0])

    def us_per_call(name: str) -> float:
        calls, total_ns = get(name)[:2]
        return _per(total_ns / 1e3, calls)

    sim = get("sim.run")
    gc = get("flash.gc")
    decode, encode = get("service.protocol.decode"), get("service.protocol.encode")
    lookup = get("service.readcache.lookup")
    shard_ops = win["shard_ops"]
    covered_ns = sum(v[2] for v in acc.values())
    out = {
        "sim.events_per_op": _per(sim[3], ops),
        "sim.us_per_event": _per(sim[1] / 1e3, sim[3]),
        # A served rack idles between requests, so its share is of busy
        # CPU time; the batch process is never idle.
        "sim.run_share": _per(sim[1], win["cpu_ns"] if live else win["wall_ns"]),
        "switch.us_per_call": us_per_call("switch"),
        "switch.redirected_reads": float(win["reads_redirected"]),
        "net.us_per_sample": us_per_call("net"),
        "server.sdf.us_per_packet": us_per_call("server.sdf"),
        "server.iosched.pop_us": us_per_call("server.iosched"),
        "flash.ftl.place_write_us": us_per_call("flash.ftl.place_write"),
        "flash.ftl.lookup_us": us_per_call("flash.ftl.lookup"),
        "flash.gc.us_per_run": us_per_call("flash.gc"),
        "flash.gc.runs": float(gc[0]),
        "flash.gc.pages_moved": float(gc[3]),
        "flash.waf": _per(win["host_writes"] + win["gc_writes"], win["host_writes"]),
        "metrics.record_us_per_op": us_per_call("metrics.record"),
        "metrics.samples_held": float(win["samples_held"]),
    }
    if live:
        out.update({
            "service.server.self_us_per_op": _per((win["cpu_ns"] - covered_ns) / 1e3, ops),
            "service.protocol.decode_us_per_op": _per(decode[1] / 1e3, decode[3]),
            "service.protocol.encode_us_per_op": _per(encode[1] / 1e3, encode[0]),
            "service.protocol.bytes_per_op": _per(decode[4] + encode[4], ops),
            "service.qos.admit_us_per_op": us_per_call("service.qos.admit"),
            "service.admission.admit_us_per_op": us_per_call("service.admission.admit"),
            "service.readcache.lookup_us": us_per_call("service.readcache.lookup"),
            "service.readcache.hit_rate": _per(lookup[3], lookup[0]),
            "service.router.route_us_per_op": us_per_call("service.router.route"),
            "service.router.shard_skew": _per(max(shard_ops, default=0),
                                              _per(sum(shard_ops), len(shard_ops))),
            "service.bridge.submit_us_per_op": us_per_call("service.bridge.submit"),
            "service.bridge.chunk_ms": _per(sim[1] / 1e6, sim[0]),
            "service.bridge.ops_per_chunk": _per(get("service.bridge.submit")[0], sim[0]),
        })
    return out


def dump(probes: Probes, path: str) -> None:
    with open(path, "w") as handle:
        json.dump({"snapshots": probes.snapshots}, handle)
