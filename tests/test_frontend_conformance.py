"""Cross-door conformance: every front door answers the same script alike.

The three front doors -- the single-rack :class:`RackService`, the
in-process :class:`ShardedRackService` over two racks, and the relay
:class:`ShardProxy` over two in-process backends -- run one scripted
session each, in the JSON and (where the op has a binary form) the
binary codec: tenant binding in ``hello``, the version and epoch gates,
``ping``, a QoS shed, a read-cache fill and hit, write invalidation, and
``SHUTTING_DOWN`` while draining.  Error codes and response fields must
agree across doors, and the v1 JSON ``ok``/``hello`` responses must
match the committed golden bytes field for field.
"""

import asyncio
import contextlib
import json
import pathlib
import struct

import pytest

from repro.cluster.config import RackConfig, SystemType
from repro.service import protocol
from repro.service.qos import QosScheduler, TenantSpec
from repro.service.readcache import ReadCache
from repro.service.router import ShardedRackService, ShardProxy, ShardRouter
from repro.service.server import RackService

pytestmark = pytest.mark.service

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "frontend_wire.json")
    .read_text()
)

DOORS = ("rack", "sharded", "proxy")
CODECS = ("json", "bin")
PAIRS = 2


def golden_frame(name: str) -> bytes:
    """The committed golden JSON frame (length prefix + body) ``name``."""
    body = GOLDEN[name].encode()
    return struct.pack(">I", len(body)) + body


def rack_config(seed: int = 11) -> RackConfig:
    return RackConfig(system=SystemType("rackblox"), num_servers=2,
                      num_pairs=PAIRS, seed=seed)


def tenancy():
    qos = QosScheduler([
        TenantSpec("gold", weight=3),
        TenantSpec("metered", rate_per_sec=0.001, burst=1),
    ])
    return qos, ReadCache(256, shares=qos.cache_shares())


@contextlib.asynccontextmanager
async def open_door(kind: str):
    """Start one front door with tenants + cache; yields the door."""
    qos, cache = tenancy()
    backends = []
    if kind == "rack":
        door = RackService(rack_config(), port=0, qos=qos, read_cache=cache)
    elif kind == "sharded":
        router = ShardRouter.from_config(rack_config(), 2,
                                         precondition=False)
        door = ShardedRackService(router, port=0, qos=qos, read_cache=cache)
    else:
        for seed in (11, 12):
            backend = RackService(rack_config(seed), port=0)
            await backend.start()
            backends.append(backend)
        door = ShardProxy([("127.0.0.1", b.port) for b in backends],
                          port=0, pairs_per_rack=PAIRS, qos=qos,
                          read_cache=cache)
    await door.start()
    try:
        yield door
    finally:
        await door.stop()
        for backend in backends:
            await backend.stop()


def set_draining(door, draining: bool) -> None:
    door.frontend.draining = draining


class RawConn:
    """One TCP connection speaking raw frames, keeping response bytes."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def __aenter__(self) -> "RawConn":
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port)
        return self

    async def __aexit__(self, *exc) -> None:
        self.writer.close()
        with contextlib.suppress(ConnectionError):
            await self.writer.wait_closed()

    async def _read_raw(self) -> bytes:
        first = await self.reader.readexactly(1)
        if first[0] == protocol.BIN_MAGIC:
            header = first + await self.reader.readexactly(
                protocol.BIN_HEADER_BYTES - 1)
            (body_len,) = struct.unpack_from(">H", header, 2)
        else:
            header = first + await self.reader.readexactly(3)
            (body_len,) = struct.unpack(">I", header)
        return header + await self.reader.readexactly(body_len)

    async def call(self, request, binary: bool = False):
        """Send one request; return ``(raw response bytes, decoded)``."""
        self.writer.write(protocol.encode_frame_as(request, binary))
        raw = await asyncio.wait_for(self._read_raw(), timeout=30)
        (decoded,) = protocol.FrameDecoder().feed(raw)
        return raw, decoded


def run(coro):
    return asyncio.run(coro)


def error(decoded, code: str) -> str:
    assert decoded["ok"] is False, decoded
    assert decoded["error"] == code, decoded
    return decoded.get("message", "")


@pytest.mark.parametrize("door", DOORS)
class TestControlPlane:
    def test_hello_known_unknown_and_empty_tenant(self, door):
        async def scenario():
            async with open_door(door) as d, RawConn(d.port) as c:
                plain = await c.call({"type": "hello", "id": 1})
                known = await c.call({"type": "hello", "id": 2,
                                      "tenant": "gold"})
                unknown = await c.call({"type": "hello", "id": 3,
                                        "tenant": "nobody"})
                empty = await c.call({"type": "hello", "id": 4,
                                      "tenant": ""})
            return plain, known, unknown, empty

        plain, known, unknown, empty = run(scenario())
        assert plain[0] == golden_frame(f"{door}/hello")
        assert known[0] == golden_frame(f"{door}/hello-gold")
        assert known[1]["tenant"] == "gold"
        assert error(unknown[1], protocol.BAD_REQUEST) == (
            "unknown tenant 'nobody'; declared tenants: "
            "['default', 'gold', 'metered']")
        assert unknown[1]["id"] == 3
        assert error(empty[1], protocol.BAD_REQUEST) == (
            "tenant must be a non-empty string, got ''")

    def test_bad_version_stale_epoch_and_ping(self, door):
        async def scenario():
            async with open_door(door) as d, RawConn(d.port) as c:
                bad = await c.call({"type": "ping", "id": 1, "v": 99})
                stale = await c.call({"type": "get", "id": 2, "key": "k",
                                      "epoch": 5})
                ping = await c.call({"type": "ping", "id": 3})
            return bad, stale, ping

        bad, stale, ping = run(scenario())
        assert error(bad[1], protocol.UNSUPPORTED_VERSION) == (
            "server speaks v2, got v99")
        assert error(stale[1], protocol.WRONG_SHARD) == (
            "request pinned ring epoch 5, fleet is at epoch 0")
        assert ping[0] == golden_frame("ping")


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("door", DOORS)
class TestDataPlane:
    def test_qos_sheds_a_rate_metered_tenant(self, door, codec):
        binary = codec == "bin"

        async def scenario():
            async with open_door(door) as d, RawConn(d.port) as c:
                await c.call({"type": "hello", "id": 1, "tenant": "metered"})
                first = await c.call({"type": "get", "id": 2, "key": "q"},
                                     binary)
                second = await c.call({"type": "get", "id": 3, "key": "q"},
                                      binary)
                return first, second, d.qos.stats_section()["metered"]

        first, second, stats = run(scenario())
        assert first[1]["ok"] is True and first[1]["found"] is False
        assert error(second[1], protocol.BUSY) == (
            "tenant 'metered' is over its QoS budget")
        assert second[1]["id"] == 3
        assert protocol.frame_is_binary(second[0]) == binary
        assert stats["shed_rate_limited"] == 1.0
        assert stats["inflight"] == 0.0

    def test_get_fills_then_hits_and_put_invalidates(self, door, codec):
        binary = codec == "bin"

        async def scenario():
            async with open_door(door) as d, RawConn(d.port) as c:
                await c.call({"type": "hello", "id": 1, "tenant": "gold"})
                put = await c.call({"type": "put", "id": 2, "key": "hot",
                                    "value": "v1"}, binary)
                miss = await c.call({"type": "get", "id": 3, "key": "hot"},
                                    binary)
                hit = await c.call({"type": "get", "id": 4, "key": "hot"},
                                   binary)
                await c.call({"type": "put", "id": 5, "key": "hot",
                              "value": "v2"}, binary)
                fresh = await c.call({"type": "get", "id": 6, "key": "hot"},
                                     binary)
                return (put, miss, hit, fresh, d.read_cache.stats_section(),
                        d.qos.stats_section()["gold"])

        put, miss, hit, fresh, cache, gold = run(scenario())
        for raw, _ in (put, miss, hit, fresh):
            assert protocol.frame_is_binary(raw) == binary
        assert put[1]["ok"] is True
        assert miss[1]["value"] == "v1" and miss[1]["found"] is True
        assert miss[1]["latency_us"] != 1.0
        assert hit[1] == {"ok": True, "id": 4, "value": "v1", "found": True,
                          "latency_us": 1.0}
        if not binary:
            assert hit[0] == golden_frame("cache-hit")
            assert list(put[1]) == GOLDEN["put-fields"][door]
            assert list(miss[1]) == GOLDEN["get-fields"][door]
        assert fresh[1]["value"] == "v2" and fresh[1]["latency_us"] != 1.0
        assert cache["hits"] == 1.0
        assert cache["fills"] == 2.0
        assert cache["invalidations"] == 1.0
        assert gold["inflight"] == 0.0
        assert gold["completed"] == 5.0

    def test_draining_answers_shutting_down(self, door, codec):
        binary = codec == "bin"

        async def scenario():
            async with open_door(door) as d, RawConn(d.port) as c:
                set_draining(d, True)
                try:
                    shut = await c.call({"type": "get", "id": 7,
                                         "key": "k"}, binary)
                finally:
                    set_draining(d, False)
                again = await c.call({"type": "get", "id": 8, "key": "k"},
                                     binary)
            return shut, again

        shut, again = run(scenario())
        assert error(shut[1], protocol.SHUTTING_DOWN)
        assert shut[1]["id"] == 7
        assert protocol.frame_is_binary(shut[0]) == binary
        assert again[1]["ok"] is True


class _TimeoutBridge:
    """A bridge whose every write times out (the write may still land)."""

    def __init__(self) -> None:
        self.after_chunk = None
        self.inflight = 0

    async def start(self) -> None:
        pass

    async def stop(self, drain: bool = True,
                   drain_timeout_s: float = 10.0) -> None:
        pass

    def submit_put(self, key, value, client):
        loop = asyncio.get_running_loop()
        future = loop.create_future()

        def expire() -> None:
            future.set_exception(asyncio.TimeoutError("simulated deadline"))
            # The pump's chunk flush runs after the done-callbacks.
            loop.call_soon(self.after_chunk)

        loop.call_soon(expire)
        return future


class TestCompletionAccounting:
    def test_errored_write_still_invalidates_the_cache(self):
        async def scenario():
            cache = ReadCache(16)
            _, _, token = cache.lookup("k", "default")
            cache.fill("k", "old", "default", token)
            service = RackService(rack_config(), port=0,
                                  bridge=_TimeoutBridge(), read_cache=cache)
            await service.start()
            try:
                async with RawConn(service.port) as c:
                    _, put = await c.call({"type": "put", "id": 1,
                                           "key": "k", "value": "new"})
            finally:
                await service.stop()
            return put, cache.lookup("k", "default")

        put, (hit, value, _) = run(scenario())
        assert error(put, protocol.TIMEOUT) == "simulated deadline"
        assert (hit, value) == (False, None)

    def test_duplicate_request_ids_each_release_their_slot(self):
        async def scenario():
            async with open_door("proxy") as d, RawConn(d.port) as c:
                await c.call({"type": "hello", "id": 1, "tenant": "gold"})
                frame = protocol.encode_frame({"type": "get", "id": 7,
                                               "key": "k"})
                c.writer.write(frame + frame)
                first = await asyncio.wait_for(c._read_raw(), timeout=30)
                second = await asyncio.wait_for(c._read_raw(), timeout=30)
                for _ in range(3):
                    await asyncio.sleep(0)
                return first, second, d.qos.total_inflight, \
                    d.qos.stats_section()["gold"]

        first, second, inflight, gold = run(scenario())
        for raw in (first, second):
            (response,) = protocol.FrameDecoder().feed(raw)
            assert response["ok"] is True and response["id"] == 7
        assert inflight == 0
        assert gold["inflight"] == 0.0
        assert gold["completed"] == 2.0
