"""The front-end request chain as a pure object: no sockets, no racks.

The cross-door behaviour is pinned over real listeners in
``test_frontend_conformance.py``; these cases cover what is easier to
reach directly -- the one exception -> error-code mapping, completion
records settling exactly once, and the admin stage's outcomes.
"""

import asyncio

import pytest

from repro.errors import ConfigError
from repro.service import protocol
from repro.service.frontend import (
    CONTROL,
    Completion,
    FrontEnd,
    Session,
    error_for,
)
from repro.service.membership import MembershipBusy, MembershipError
from repro.service.qos import QosScheduler, TenantSpec
from repro.service.readcache import ReadCache

pytestmark = pytest.mark.service


class FakeDoor:
    def __init__(self, mutation=None):
        self.mutation = mutation

    def _capabilities(self):
        return ["raw", "kv"]

    def _hello_fields(self):
        return {"racks": 1, "epoch": 3}

    def _current_epoch(self):
        return 3

    def _fleet_status(self):
        return {"epoch": 3}

    def _admin_mutation(self, op, request, knobs):
        if op != "add_rack":
            return None
        return self.mutation(knobs)


def chain(door=None, cache_capacity=16):
    qos = QosScheduler([TenantSpec("gold")])
    cache = ReadCache(cache_capacity, shares=qos.cache_shares())
    return FrontEnd(door or FakeDoor(), qos, cache)


class TestErrorMapping:
    @pytest.mark.parametrize("exc, code, message", [
        (MembershipBusy("busy"), protocol.BUSY, "busy"),
        (ValueError("bad"), protocol.BAD_REQUEST, "ValueError: bad"),
        (ConfigError("cfg"), protocol.BAD_REQUEST, "ConfigError: cfg"),
        (MembershipError("no"), protocol.INTERNAL,
         "membership change failed: no"),
        (asyncio.TimeoutError("late"), protocol.TIMEOUT, "late"),
        (RuntimeError("boom"), protocol.INTERNAL, "RuntimeError: boom"),
    ])
    def test_one_mapping(self, exc, code, message):
        assert error_for(exc, 9) == protocol.error_response(code, message, 9)


class TestStages:
    def test_order_version_then_hello_then_control_then_fence(self):
        front, session = chain(), Session()
        bad = front.begin({"type": "stats", "v": 7, "id": 1}, session)
        assert bad["error"] == protocol.UNSUPPORTED_VERSION
        assert front.begin({"type": "stats", "id": 2}, session) is CONTROL
        stale = front.begin({"type": "get", "key": "k", "epoch": 2}, session)
        assert stale["error"] == protocol.WRONG_SHARD
        hello = front.begin({"type": "hello", "id": 3, "tenant": "gold"},
                            session)
        assert hello["tenant"] == "gold" and session.tenant == "gold"

    def test_drain_precedes_qos_and_cache(self):
        front = chain()
        front.draining = True
        shut = front.admit("get", "k", 4, Session())
        assert shut["error"] == protocol.SHUTTING_DOWN
        assert front.qos.stats_section()["default"]["admitted"] == 0.0

    def test_control_types_skip_qos(self):
        front = chain()
        record = front.admit("frobnicate", "k", 1, Session())
        assert isinstance(record, Completion)
        assert record.qos is None and record.key is None


class TestCompletion:
    def test_settles_exactly_once(self):
        front, session = chain(), Session()
        record = front.admit("get", "k", 1, session)
        record.submitted()
        assert front.qos.total_inflight == 1
        record.finish(True, 250.0, {"found": True, "value": "v"})
        record.finish(True, 250.0, {"found": True, "value": "w"})
        assert front.qos.total_inflight == 0
        assert front.qos.stats_section()["default"]["completed"] == 1.0
        hit = front.admit("get", "k", 2, session)
        assert hit["value"] == "v" and hit["latency_us"] == 1.0

    def test_failed_write_still_invalidates(self):
        front, session = chain(), Session()
        front.admit("get", "k", 1, session).finish(
            True, 5.0, {"found": True, "value": "old"})
        write = front.admit("put", "k", 2, session)
        write.submitted()
        write.finish(False)
        assert isinstance(front.admit("get", "k", 3, session), Completion)

    def test_relayed_frames_decode_only_when_needed(self):
        front = FrontEnd(FakeDoor())
        record = front.admit("get", "k", 1, Session())
        record.relayed(b"not a frame", 10.0)   # idle: never parsed
        assert record.done
        front = chain()
        record = front.admit("get", "k", 1, Session())
        record.submitted()
        frame = protocol.encode_frame_as(
            protocol.ok_response(1, value="v", found=True, latency_us=3.0),
            True)
        record.relayed(frame, 40.0)
        assert front.read_cache.fills == 1
        assert front.qos.total_inflight == 0


class TestAdmin:
    def run_admin(self, request, mutation=None):
        async def scenario():
            front, replies, tasks = chain(FakeDoor(mutation)), [], set()
            now = front.admin(request, replies.append, tasks)
            while tasks:
                await asyncio.sleep(0)
            return now, replies

        return asyncio.run(scenario())

    def test_status_answers_at_once(self):
        now, replies = self.run_admin({"type": "admin", "op": "status",
                                       "id": 1})
        assert now == {"ok": True, "id": 1, "epoch": 3} and replies == []

    def test_unsupported_op_and_bad_knob(self):
        now, _ = self.run_admin({"type": "admin", "op": "explode", "id": 1})
        assert now["message"] == ("unsupported admin op 'explode' for this "
                                  "deployment")
        now, _ = self.run_admin({"type": "admin", "op": "add_rack", "id": 2,
                                 "batch_size": "many"},
                                mutation=lambda knobs: None)
        assert now["error"] == protocol.BAD_REQUEST

    def test_mutation_outcomes(self):
        async def ok(knobs):
            return {"rack": 2, **knobs}

        async def lost_link(knobs):
            raise ConnectionResetError("backend went away")

        now, replies = self.run_admin({"type": "admin", "op": "add_rack",
                                       "id": 1, "batch_size": "8"}, ok)
        assert now is None
        assert replies == [{"ok": True, "id": 1, "rack": 2, "batch_size": 8}]
        _, replies = self.run_admin({"type": "admin", "op": "add_rack",
                                     "id": 2}, lost_link)
        assert replies == [protocol.error_response(
            protocol.INTERNAL, "membership change failed: backend went away",
            2)]
