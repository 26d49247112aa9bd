"""The live workload: served racks driven over TCP by one generator process.

The server is the program as shipped (``python -m repro.cli serve``).
This process is the only client.  It opens at most two connections and
gets its concurrency from pipelining.  Every phase runs a fixed number
of operations whose parameters are drawn from the seed before the phase
starts; while a phase is timed the generator only builds frames from
them and counts response frames.  Responses are decoded and checked
after the phase.

Phases, in order: an untimed load that puts every key and an untimed
warm-up that gets every key; one untimed warm-up round; then
``ROUNDS`` times a closed-loop capacity phase followed by an open-loop
phase at one fixed rate on a seeded Poisson schedule, each operation
timed from its due time; then several ``stats`` calls.
"""

import asyncio
import json
import math
import os
import random
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from host import CPUS, peak_rss_mb
from repro.metrics.percentiles import percentile as pct
from repro.service import protocol
from repro.service.loadgen import ZipfSampler

perf = time.perf_counter
CLK_TCK = os.sysconf("SC_CLK_TCK")
#: At most nproc (2 here) connections; concurrency comes from pipelining.
CONNECTIONS = 2
SETUPS = 5
STATS_CALLS = 21
#: The closed and open phases alternate this many times, and the server
#: and the generator trade CPUs every round (``swap_cpus``), so that each
#: phase kind samples both CPUs over the whole run.
ROUNDS = 15
#: Open-loop percentiles are taken per window of this many consecutive
#: operations, which leaves ten samples beyond a window's p99.  The
#: median over windows is reported: on the shared host a CPU stalls for
#: 5 to 100 ms, a few times a second in bad stretches, and the share of
#: operations such stalls delay -- hence a p99 pooled over the run --
#: changes several-fold from one run to the next.
WINDOW_OPS = 1000
#: A window counts only if the generator sent 99% of its operations
#: within this many ms of their due time; otherwise the generator itself
#: stalled, the window did not offer the fixed rate, and its latencies
#: time the stall (every reply is read late too).  Sending in ticks
#: leaves an on-time generator about 1.1 ms late at its 99th percentile.
LATE_LIMIT_MS = 2.0


@dataclass
class LiveSpec:
    """One live workload: how to serve it and what to send."""

    name: str
    serve_args: List[str]
    tenants: List[str]                # one connection per tenant
    window: int                       # closed-loop pipeline depth per connection
    closed_ops_per_s: int             # closed-loop op count per --seconds
    open_rate: float                  # open-loop offered load, ops/s
    open_share: float                 # share of --seconds the open loop lasts
    kv_keys: int                      # keys loaded, then read


TENANT_SPEC = json.dumps({
    "tenants": [{"name": "gold", "weight": 3}, {"name": "bronze", "weight": 1}],
    "cache_capacity": 4096,
})

KV_CACHED = LiveSpec(
    name="kv-cached",
    serve_args=["--servers", "2", "--pairs", "4", "--racks", "2",
                "--tenants", TENANT_SPEC],
    tenants=["gold", "bronze"], window=512,
    closed_ops_per_s=40000, open_rate=10000.0, open_share=0.25, kv_keys=1024,
)
SPECS = {KV_CACHED.name: KV_CACHED}
ZIPF_S = 1.1
#: Pipeline depth of the kv load and warm-up phases.  Every op there
#: reaches the simulator, and a deep window would exceed a tenant's fair
#: share of the queue and be shed.
LOAD_WINDOW = 16


# ---------------------------------------------------------------- server


class ServerProcess:
    """One ``repro.cli serve`` child, read through ``/proc``."""

    def __init__(self, serve_args: List[str], workdir: str, tag: str,
                 cpus: List[int], trace_out: Optional[str] = None) -> None:
        env = dict(os.environ)
        env.pop("PERFBENCH_TRACE_OUT", None)
        pythonpath = [os.path.join(os.getcwd(), "src")]
        if trace_out is not None:
            pythonpath.insert(0, os.path.join(os.path.dirname(__file__), "inject"))
            env["PERFBENCH_TRACE_OUT"] = trace_out
        env["PYTHONPATH"] = os.pathsep.join(pythonpath)
        self.stderr_path = os.path.join(workdir, f"serve-{tag}.err")
        self._stderr = open(self.stderr_path, "wb")
        self.started = perf()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *serve_args],
            stdout=subprocess.PIPE, stderr=self._stderr, env=env,
        )
        try:
            self.pin(cpus)
            self.port = self._read_port(timeout_s=60.0)
            self.setup_s = self._hello() - self.started
        except BaseException:
            self.kill()
            raise

    def _read_port(self, timeout_s: float) -> int:
        deadline = perf() + timeout_s
        line = b""
        while not line.endswith(b"\n"):
            if self.proc.poll() is not None or perf() > deadline:
                raise RuntimeError(f"server did not start; see {self.stderr_path}")
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line += os.read(self.proc.stdout.fileno(), 1)
        match = re.search(rb":(\d+)\s*$", line)
        if match is None:
            raise RuntimeError(f"unexpected server banner {line!r}")
        return int(match.group(1))

    def _hello(self) -> float:
        """Time of the first successful ``hello`` round trip."""
        decoder = protocol.FrameDecoder()
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as sock:
            sock.sendall(protocol.encode_frame({"type": "hello", "id": 0}))
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    raise RuntimeError("server closed the hello connection")
                frames = decoder.feed(chunk)
                if frames:
                    if not frames[0].get("ok"):
                        raise RuntimeError(f"hello failed: {frames[0]}")
                    return perf()

    def pin(self, cpus: List[int]) -> None:
        """Move every thread of the server onto ``cpus``."""
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            os.sched_setaffinity(int(tid), cpus)

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def stop(self) -> Tuple[int, str]:
        """SIGTERM, wait for the drain; returns (exit code, stdout)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self._stderr.close()
        return self.proc.returncode, out.decode("utf-8", "replace")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
        self._stderr.close()


def served_count(stdout: str) -> Optional[Tuple[int, int]]:
    """(served, timed out) from the server's drain line."""
    match = re.search(r"served (\d+) requests \((\d+) timed out\)", stdout)
    return (int(match.group(1)), int(match.group(2))) if match else None


# ------------------------------------------------------------ operations


class Ops:
    """One phase's operations, with ids ``base .. base + len - 1``.

    ``codes`` holds the key index of each op.
    """

    def __init__(self, kind: str, codes: array, base: int,
                 keys: List[str], values: Dict[str, str]) -> None:
        self.kind = kind
        self.codes = codes
        self.base = base
        self.keys = keys
        self.values = values
        self._templates: Dict[int, bytes] = {}

    def __len__(self) -> int:
        return len(self.codes)

    def message(self, i: int) -> Dict[str, Any]:
        rid = self.base + i
        key = self.keys[self.codes[i]]
        if self.kind == "put":
            return {"type": "put", "key": key, "value": self.values[key], "id": rid}
        return {"type": "get", "key": key, "id": rid}

    def frame(self, i: int) -> bytes:
        # A binary frame carries its id in header bytes 4..8: encode one
        # frame per code, then patch each op's id in.
        code = self.codes[i]
        template = self._templates.get(code)
        if template is None:
            template = self._templates[code] = protocol.BIN_CODEC.encode(self.message(i))
        return template[:4] + (self.base + i).to_bytes(4, "big") + template[8:]

    def frames(self, indices) -> bytes:
        return b"".join([self.frame(i) for i in indices])

    def problem(self, i: int, reply: Dict[str, Any]) -> Optional[str]:
        """Why a reply does not acknowledge op ``i``, or ``None``."""
        if not reply.get("ok"):
            return str(reply.get("error", "error"))
        latency = reply.get("latency_us")
        if not isinstance(latency, (int, float)) or not math.isfinite(latency):
            return "no finite latency_us"
        if self.kind == "get":
            key = self.keys[self.codes[i]]
            if not reply.get("found") or reply.get("value") != self.values[key]:
                return "get returned a value the load did not write"
        return None


class OpFactory:
    """Draws every phase's operations from the seed."""

    def __init__(self, spec: LiveSpec, seed: int) -> None:
        self.spec = spec
        self.rng = random.Random(seed)
        self.next_id = 1
        self.keys = [f"k{i:06d}" for i in range(spec.kv_keys)]
        self.values = {key: f"v{seed}-{key}" for key in self.keys}
        self.zipf = ZipfSampler(spec.kv_keys, ZIPF_S, self.rng)

    def _ops(self, kind: str, codes: array) -> Ops:
        ops = Ops(kind, codes, self.next_id, self.keys, self.values)
        self.next_id += len(codes)
        return ops

    def load(self) -> Ops:
        return self._ops("put", array("l", range(len(self.keys))))

    def warm_up(self) -> Ops:
        return self._ops("get", array("l", range(len(self.keys))))

    def gets(self, count: int) -> Ops:
        sample = self.zipf.sample
        return self._ops("get", array("l", (sample() for _ in range(count))))


# ------------------------------------------------------------- generator


class Conn(asyncio.Protocol):
    """A raw connection that timestamps each batch of response frames."""

    def __init__(self) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self.splitter = protocol.FrameSplitter()
        #: (arrival time, bytes) of each read that finished frames.
        self.received: List[Tuple[float, bytes]] = []
        self.on_frames = None
        self.lost: Optional[Exception] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        now = perf()
        frames = self.splitter.feed(data)
        if frames:
            self.received.append((now, b"".join(frames)))
            if self.on_frames is not None:
                self.on_frames(len(frames))

    def connection_lost(self, exc) -> None:
        self.lost = exc or ConnectionError("server closed the connection")
        if self.on_frames is not None:
            self.on_frames(0)

    def take(self):
        """Decode everything received since the last call, with arrival times."""
        decoder = protocol.FrameDecoder()
        received, self.received = self.received, []
        for when, data in received:
            for message in decoder.feed(data):
                yield when, message

    async def request(self, message: Dict[str, Any]) -> Tuple[float, Dict[str, Any]]:
        """One JSON round trip on an idle connection; returns (seconds, reply)."""
        done = asyncio.get_running_loop().create_future()
        self.on_frames = lambda n: done.done() or done.set_result(None)
        t0 = perf()
        self.transport.write(protocol.encode_frame(message))
        await done
        elapsed = perf() - t0
        self.on_frames = None
        if self.lost is not None:
            raise self.lost
        return elapsed, list(self.take())[-1][1]


@dataclass
class PhaseResult:
    name: str
    ops: int
    wall_s: float = 0.0
    gen_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    ok: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    #: Open loop: latency of each acknowledged op from its due time, in
    #: due order, and how late the generator sent it.
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + count


def settle(conns: List[Conn], ops: Ops, phase: PhaseResult,
           due: Optional[array] = None) -> None:
    """Decode and check a finished phase's replies."""
    answered = bytearray(len(ops))
    latencies = [math.nan] * len(ops) if due is not None else None
    for conn in conns:
        for when, reply in conn.take():
            rid = reply.get("id")
            i = rid - ops.base if isinstance(rid, int) else -1
            if not 0 <= i < len(ops) or answered[i]:
                phase.fail("unexpected reply")
                continue
            answered[i] = 1
            problem = ops.problem(i, reply)
            if problem is not None:
                phase.fail(problem)
                continue
            phase.ok += 1
            if latencies is not None:
                latencies[i] = (when - due[i]) * 1e3
    missing = len(ops) - sum(answered)
    if missing:
        phase.fail("no reply", missing)
    if latencies is not None:
        kept = [i for i, v in enumerate(latencies) if not math.isnan(v)]
        phase.latencies_ms = [latencies[i] for i in kept]
        phase.late_ms = [phase.late_ms[i] for i in kept]


def dealt(ops: Ops, ways: int) -> List[List[int]]:
    """Op indices per connection, round robin."""
    return [list(range(i, len(ops), ways)) for i in range(ways)]


async def closed_loop(conns: List[Conn], ops: Ops, window: int) -> None:
    """Each connection keeps ``window`` requests outstanding until done."""
    loop = asyncio.get_running_loop()
    waits = []
    for conn, mine in zip(conns, dealt(ops, len(conns))):
        done = loop.create_future()
        waits.append(done)
        state = {"next": min(window, len(mine)), "got": 0}

        def on_frames(n, conn=conn, mine=mine, state=state, done=done):
            state["got"] += n
            start = state["next"]
            stop = min(len(mine), start + n)
            if stop > start:
                conn.transport.write(ops.frames(mine[start:stop]))
                state["next"] = stop
            if (state["got"] >= len(mine) or conn.lost) and not done.done():
                done.set_result(None)

        conn.on_frames = on_frames
        if mine:
            conn.transport.write(ops.frames(mine[:state["next"]]))
        else:
            done.set_result(None)
    await asyncio.gather(*waits)
    for conn in conns:
        conn.on_frames = None


async def open_loop(conns: List[Conn], ops: Ops, rate: float,
                    rng: random.Random, phase: PhaseResult) -> array:
    """Send on a seeded Poisson schedule, batching every op already due.

    Op ``i`` goes to connection ``i mod len(conns)``.  Returns each op's
    due time; lateness (send time minus due time) goes to ``phase.late_ms``.
    """
    loop = asyncio.get_running_loop()
    n, ways = len(ops), len(conns)
    offsets, t = [], 0.0
    for _ in range(n):
        t += rng.expovariate(rate)
        offsets.append(t)
    got = [0]
    finished = loop.create_future()

    def on_frames(count):
        got[0] += count
        if (got[0] >= n or any(c.lost for c in conns)) and not finished.done():
            finished.set_result(None)

    for conn in conns:
        conn.on_frames = on_frames
    start = perf() + 0.001
    due = array("d", (start + o for o in offsets))
    i = 0
    while i < n:
        now = perf()
        batches: List[List[int]] = [[] for _ in conns]
        while i < n and due[i] <= now:
            phase.late_ms.append((now - due[i]) * 1e3)
            batches[i % ways].append(i)
            i += 1
        for conn, batch in zip(conns, batches):
            if batch:
                conn.transport.write(ops.frames(batch))
        if i < n:
            await asyncio.sleep(max(0.0, due[i] - perf()))
    await finished
    for conn in conns:
        conn.on_frames = None
    return due


# -------------------------------------------------------------- workload


@dataclass
class LiveRun:
    """Everything one served run measured."""

    phases: List[PhaseResult]
    stats_ms: List[float]
    stats: Dict[str, Any]
    rss_mb: float
    exit_code: int
    served: Optional[Tuple[int, int]]
    acked_in_sim: int
    trace_path: Optional[str]
    failures: Dict[str, int]
    attempted: int

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def rounds(self, kind: str) -> List[PhaseResult]:
        """The timed phases of one kind ("closed" or "open"), in order."""
        return [p for p in self.phases if p.name.startswith(kind + "-")]

    def closed_rate(self) -> float:
        """Acknowledged ops per wall second over every closed-loop round."""
        closed = self.rounds("closed")
        return sum(p.ok for p in closed) / sum(p.wall_s for p in closed)

    def open_latencies_ms(self) -> List[float]:
        """Every open-loop round's latencies, pooled."""
        return [v for p in self.rounds("open") for v in p.latencies_ms]

    def open_windows(self) -> List[Tuple[List[float], bool]]:
        """The open-loop latencies cut into windows, and which were on time.

        The rounds' latencies, in due order, are cut into windows of about
        ``WINDOW_OPS`` consecutive operations; a window is on time when
        the generator kept to ``LATE_LIMIT_MS``.
        """
        lat = self.open_latencies_ms()
        late = [v for p in self.rounds("open") for v in p.late_ms]
        parts = max(1, len(lat) // WINDOW_OPS)
        size = len(lat) / parts
        cuts = [round(i * size) for i in range(parts + 1)]
        return [(lat[a:b], pct(late[a:b], 99) <= LATE_LIMIT_MS)
                for a, b in zip(cuts, cuts[1:])]

    def window_percentile(self, q: float) -> float:
        """Median over the on-time windows of each window's ``q``-th percentile.

        Every window counts when none was on time.
        """
        windows = self.open_windows()
        counted = [lat for lat, on_time in windows if on_time] or [lat for lat, _ in windows]
        return statistics.median(pct(lat, q) for lat in counted)


async def _drive(spec: LiveSpec, seed: int, seconds: float, server: ServerProcess
                 ) -> Tuple[List[PhaseResult], List[float], Dict[str, Any], float]:
    loop = asyncio.get_running_loop()
    conns: List[Conn] = []
    for index in range(CONNECTIONS):
        _, conn = await loop.create_connection(Conn, "127.0.0.1", server.port)
        conns.append(conn)
        _, reply = await conn.request({"type": "hello", "id": 0, "tenant": spec.tenants[index],
                                       "v": protocol.PROTOCOL_VERSION})
        if not reply.get("ok") or "bin" not in reply.get("capabilities", []):
            raise RuntimeError(f"hello refused: {reply}")
    # The first stats call opens the window a traced server reports on.
    await conns[0].request({"type": "stats", "id": 0})

    factory = OpFactory(spec, seed)
    phases: List[PhaseResult] = []

    async def timed(name: str, ops: Ops, run) -> None:
        phase = PhaseResult(name, len(ops))
        g0, s0 = time.process_time(), server.cpu_s()
        started = perf()
        due = await run(phase, ops)
        phase.wall_s = perf() - started
        phase.gen_cpu_s = time.process_time() - g0
        phase.server_cpu_s = server.cpu_s() - s0
        settle(conns, ops, phase, due)
        phases.append(phase)

    def closed(window: int):
        async def run(phase: PhaseResult, ops: Ops) -> None:
            await closed_loop(conns, ops, window)
        return run

    await timed("load", factory.load(), closed(LOAD_WINDOW))
    await timed("warm-up", factory.warm_up(), closed(LOAD_WINDOW))
    schedule = random.Random(seed * 7919 + 1)

    async def run_open(phase: PhaseResult, ops: Ops) -> array:
        return await open_loop(conns, ops, spec.open_rate, schedule, phase)

    closed_ops = int(spec.closed_ops_per_s * seconds / ROUNDS)
    open_ops = int(spec.open_rate * seconds * spec.open_share / ROUNDS)
    # The first round after start-up runs slow; it is not timed.
    await timed("warm-closed", factory.gets(closed_ops), closed(spec.window))
    await timed("warm-open", factory.gets(open_ops), run_open)
    for round_no in range(1, ROUNDS + 1):
        swap_cpus(server, round_no)
        await timed(f"closed-{round_no}", factory.gets(closed_ops), closed(spec.window))
        await timed(f"open-{round_no}", factory.gets(open_ops), run_open)

    stats_ms, stats = [], {}
    for _ in range(STATS_CALLS):
        elapsed, stats = await conns[0].request({"type": "stats", "id": 0})
        stats_ms.append(elapsed * 1e3)
    rss = peak_rss_mb(server.proc.pid)
    for conn in conns:
        conn.transport.close()
    return phases, stats_ms, stats, rss


def swap_cpus(server: ServerProcess, round_no: int) -> None:
    """Put the server and this process on opposite CPUs, trading each round.

    On a shared host one CPU can run slow for many seconds while another
    does not; trading places gives each phase kind windows on both.
    """
    if len(CPUS) < 2:
        return
    server.pin([CPUS[round_no % 2]])
    os.sched_setaffinity(0, [CPUS[(round_no + 1) % 2]])


def split_cpus() -> List[int]:
    """Keep one CPU for this process and return the rest for the server.

    Pinned apart, the generator and the server never take turns on one
    CPU, which the scheduler otherwise does now and then, halving the
    throughput of a run.  On one CPU both share it.
    """
    if len(CPUS) < 2:
        return CPUS
    os.sched_setaffinity(0, CPUS[:1])
    return CPUS[1:]


def run_live(spec: LiveSpec, seed: int, seconds: float, workdir: str, tag: str,
             deadline: float, server_cpus: List[int], setups: int = 1,
             trace: bool = False) -> Tuple[LiveRun, List[float]]:
    """Start the server ``setups`` times (timing each) and drive the last.

    Gives up with ``asyncio.TimeoutError`` at ``deadline`` (a
    ``perf_counter`` time), so a wedged server cannot hang the benchmark.

    Checks: every reply acknowledges its op (see ``Ops.problem``), the
    server exits 0, and its drain line counts as many served requests as
    were acknowledged without a cache hit.
    """
    serve_args = [*spec.serve_args, "--seed", str(seed)]
    setup_times = []
    for attempt in range(setups - 1):
        probe = ServerProcess(serve_args, workdir, f"{tag}-setup{attempt}", server_cpus)
        setup_times.append(probe.setup_s)
        code, _ = probe.stop()
        if code != 0:
            raise RuntimeError(f"set-up probe server exited {code}")
    trace_out = os.path.join(workdir, f"trace-{tag}.json") if trace else None
    server = ServerProcess(serve_args, workdir, tag, server_cpus, trace_out)
    setup_times.append(server.setup_s)
    try:
        phases, stats_ms, stats, rss = asyncio.run(asyncio.wait_for(
            _drive(spec, seed, seconds, server), timeout=max(1.0, deadline - perf())))
    except BaseException:
        server.kill()
        raise
    code, out = server.stop()
    served = served_count(out)

    failures: Dict[str, int] = {}
    for phase in phases:
        for reason, count in phase.failures.items():
            failures[reason] = failures.get(reason, 0) + count
    hits = int(stats.get("readcache", {}).get("hits", 0))
    acked_in_sim = sum(p.ok for p in phases) - hits
    if code != 0:
        failures[f"server exited {code}"] = 1
    if served != (acked_in_sim, 0):
        failures["drain line disagrees with acknowledged ops"] = 1
    run = LiveRun(
        phases=phases, stats_ms=stats_ms, stats=stats, rss_mb=rss, exit_code=code,
        served=served, acked_in_sim=acked_in_sim, trace_path=trace_out,
        failures=failures, attempted=sum(p.ops for p in phases),
    )
    return run, setup_times


def end_to_end(run: LiveRun, setup_times: List[float]) -> Dict[str, float]:
    return {
        "throughput_rps": run.closed_rate(),
        "p50_ms": run.window_percentile(50),
        "p99_ms": run.window_percentile(99),
        "ok_frac": 1.0 - run.failed / run.attempted,
        "setup_s": statistics.median(setup_times),
        "rss_mb": run.rss_mb,
    }
