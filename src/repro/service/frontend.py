"""The front-end request chain: one copy of every check a front door makes.

Every front door -- the single-rack :class:`~repro.service.server.RackService`,
its in-process sharded flavour, and the relay
:class:`~repro.service.router.ShardProxy` in both codecs -- runs the same
chain of small stages over each request, in this order:

1. **version** -- a frame carrying a ``v`` this server does not speak is
   answered ``UNSUPPORTED_VERSION``;
2. **hello** -- the capability exchange, which also binds the
   connection's tenant (unknown or malformed names are ``BAD_REQUEST``);
3. **ping** -- answered on the spot;
4. **control** -- ``stats`` and ``admin`` go back to the door, which owns
   their bodies (admin runs through :meth:`FrontEnd.admin`);
5. **epoch fence** -- a request pinned to a stale ring epoch is answered
   ``WRONG_SHARD`` so the client re-``hello``\\ s;
6. **drain** -- ``SHUTTING_DOWN`` once the door has begun to stop;
7. **QoS** -- the tenant's weighted-fair gate sheds data ops ``BUSY``;
8. **read cache** -- a KV ``get`` that hits front-end DRAM is answered
   here, never reaching a rack.

Binary (protocol v2) frames carry no version, tenant or epoch, so a relay
that never decodes them enters at stage 6 via :meth:`FrontEnd.admit`
with the routing facts it peeked.  A request that clears every stage
comes back as a :class:`Completion`: the door submits it (to the bridge,
the router, or a backend link) and hands the outcome back to the record,
which settles the tenant's QoS slot and keeps the cache coherent.

The chain is sans-io: it reads no socket and writes none; every answer
is a response dict for the door to encode in the request's codec.
"""

import asyncio
from typing import Any, Callable, Dict, Optional, Set

from repro.errors import ConfigError
from repro.service import protocol, schema
from repro.service.membership import MembershipBusy, MembershipError
from repro.service.qos import DEFAULT_TENANT, QosScheduler
from repro.service.readcache import ReadCache

#: Request types that consume simulated rack capacity and therefore
#: pass through tenant QoS admission (everything else -- hello, ping,
#: stats, admin -- is control plane).
DATA_TYPES = frozenset(("read", "write", "get", "put", "del", "scan"))

#: Simulated latency reported for a DRAM cache hit: the request never
#: touches the rack simulator, so the charge is a nominal DRAM fetch.
CACHE_HIT_LATENCY_US = 1.0

#: Operand errors: a malformed request, answered ``BAD_REQUEST``.
BAD_OPERAND = (KeyError, TypeError, ValueError, ConfigError)

#: What :meth:`FrontEnd.begin` returns for ``stats`` and ``admin``.
CONTROL = object()

#: Optional numeric knobs an ``admin`` mutation accepts.
_ADMIN_KNOBS = (("batch_size", int), ("pause_s", float),
                ("max_attempts", int))


def error_for(exc: BaseException, request_id: Any = None) -> Dict[str, Any]:
    """The one exception -> wire error mapping every door shares."""
    if isinstance(exc, MembershipBusy):
        return protocol.error_response(protocol.BUSY, str(exc), request_id)
    if isinstance(exc, BAD_OPERAND):
        return protocol.error_response(
            protocol.BAD_REQUEST, f"{type(exc).__name__}: {exc}", request_id)
    if isinstance(exc, MembershipError):
        return protocol.error_response(
            protocol.INTERNAL, f"membership change failed: {exc}",
            request_id)
    if isinstance(exc, asyncio.TimeoutError):
        return protocol.error_response(protocol.TIMEOUT, str(exc),
                                       request_id)
    return protocol.error_response(
        protocol.INTERNAL, f"{type(exc).__name__}: {exc}", request_id)


class Session:
    """Per-connection front-end state: the hello-declared tenant.

    The binary codec has no per-request tenant field, so the tenant is
    declared once and sticks for the connection's lifetime.
    """

    __slots__ = ("tenant",)

    def __init__(self) -> None:
        self.tenant = DEFAULT_TENANT


class Completion:
    """One submitted data op's pending accounting, settled exactly once.

    ``submitted`` takes the tenant's QoS slot when the door hands the op
    downstream; ``finish`` releases it, scores the latency against the
    tenant's SLO, and keeps the cache coherent: a ``put``/``del``
    invalidates its key whatever the outcome (an errored or timed-out
    write may still land, and invalidating is harmless where serving a
    stale value is not), and a found ``get`` fills with the probe's
    token.  A second ``finish`` -- the losing leg of a duplicated write
    -- is a no-op.
    """

    __slots__ = ("qos", "cache", "tenant", "key", "token", "done")

    def __init__(self, qos: Optional[QosScheduler],
                 cache: Optional[ReadCache], tenant: str,
                 key: Optional[str], token: Any) -> None:
        self.qos = qos
        self.cache = cache
        self.tenant = tenant
        #: Set only when the cache must act: a write's key (``token``
        #: ``None``) or a read-through ``get``'s key (fill ``token``).
        self.key = key
        self.token = token
        self.done = False

    def submitted(self) -> None:
        if self.qos is not None:
            self.qos.on_submit(self.tenant)

    def finish(self, ok: bool, latency_us: Optional[float] = None,
               result: Optional[Dict[str, Any]] = None) -> None:
        if self.done:
            return
        self.done = True
        if self.qos is not None:
            latency_ms = (float(latency_us) / 1000.0
                          if isinstance(latency_us, (int, float)) else None)
            self.qos.on_complete(self.tenant, latency_ms, ok=ok)
        if self.key is None:
            return
        if self.token is None:
            self.cache.invalidate(self.key)
        elif ok and result is not None and result.get("found"):
            self.cache.fill(self.key, result.get("value"), self.tenant,
                            self.token)

    def settle(self, future: "asyncio.Future",
               request_id: Any) -> Dict[str, Any]:
        """Finish from a bridge/router future; returns the response."""
        if future.cancelled():
            self.finish(False)
            return protocol.error_response(
                protocol.SHUTTING_DOWN, "request cancelled at shutdown",
                request_id)
        exc = future.exception()
        if exc is not None:
            self.finish(False)
            return error_for(exc, request_id)
        result = future.result()
        self.finish(True, result.get("latency_us"), result)
        return protocol.ok_response(request_id, **result)

    def relayed(self, frame: Any, latency_us: Optional[float]) -> None:
        """Finish from a relayed response frame (``None``: link lost).

        Only a record with QoS or cache work decodes the frame, so a
        plain relay never parses a response body.
        """
        if self.done or (self.qos is None and self.key is None):
            self.done = True
            return
        response = None
        if frame is not None:
            try:
                decoded = protocol.FrameDecoder(len(frame)).feed(bytes(frame))
            except protocol.FrameError:
                decoded = []
            response = decoded[0] if decoded else None
        ok = response is not None and bool(response.get("ok"))
        self.finish(ok, latency_us, response)


class FrontEnd:
    """The chain itself, bound to one door.

    ``door`` supplies what differs between deployments through five
    hooks: ``_capabilities()`` and ``_hello_fields()`` for the hello
    answer, ``_current_epoch()`` for the fence, and ``_fleet_status()``
    plus ``_admin_mutation(op, request, knobs)`` for ``admin``.
    """

    def __init__(self, door: Any, qos: Optional[QosScheduler] = None,
                 read_cache: Optional[ReadCache] = None) -> None:
        self.door = door
        self.qos = qos
        self.read_cache = read_cache
        #: Set when the door begins a graceful stop: new data ops are
        #: answered ``SHUTTING_DOWN`` while admitted ones drain.
        self.draining = False

    # ---------------------------------------------------------------- stages

    def begin(self, request: Dict[str, Any], session: Session) -> Any:
        """Run the chain over one decoded request.

        Returns a response dict when a stage answered, :data:`CONTROL`
        for the door's own ``stats``/``admin``, or a :class:`Completion`
        for a data op the door must submit.
        """
        request_id = request.get("id")
        bad_version = protocol.check_version(request)
        if bad_version is not None:
            return protocol.error_response(
                protocol.UNSUPPORTED_VERSION,
                f"server speaks v{protocol.PROTOCOL_VERSION}, "
                f"got v{bad_version!r}", request_id)
        rtype = request.get("type")
        if rtype == "hello":
            return self._hello(request, session)
        if rtype == "ping":
            return protocol.ok_response(request_id, pong=True)
        if rtype == "stats" or rtype == "admin":
            return CONTROL
        epoch = request.get("epoch")
        if epoch is not None and epoch != self.door._current_epoch():
            # The client pinned a routing view that a membership cutover
            # has since invalidated; it must re-``hello`` and retry.
            return protocol.error_response(
                protocol.WRONG_SHARD,
                f"request pinned ring epoch {epoch!r}, fleet is at "
                f"epoch {self.door._current_epoch()}", request_id)
        key = request.get("key")
        return self.admit(rtype, key if type(key) is str else None,
                          request_id, session)

    def admit(self, rtype: Any, key: Optional[str], request_id: Any,
              session: Session) -> Any:
        """The drain, QoS and read-cache stages for one request."""
        if self.draining:
            return protocol.error_response(
                protocol.SHUTTING_DOWN, "server is draining", request_id)
        tenant = session.tenant
        qos = self.qos if rtype in DATA_TYPES else None
        if qos is not None and not qos.try_admit(tenant):
            return protocol.error_response(
                protocol.BUSY, f"tenant {tenant!r} is over its QoS budget",
                request_id)
        cache = self.read_cache
        token = None
        if cache is None or key is None:
            key = None
        elif rtype == "get":
            hit, value, token = cache.lookup(key, tenant)
            if hit:
                # Served straight from front-end DRAM: no admission, no
                # simulated work, and the hit still counts toward the
                # tenant's SLO window (a near-zero-latency success).
                if qos is not None:
                    qos.on_submit(tenant)
                    qos.on_complete(tenant, CACHE_HIT_LATENCY_US / 1000.0)
                return protocol.ok_response(
                    request_id, value=value, found=True,
                    latency_us=CACHE_HIT_LATENCY_US)
        elif rtype != "put" and rtype != "del":
            key = None
        return Completion(qos, cache, tenant, key, token)

    def _hello(self, request: Dict[str, Any],
               session: Session) -> Dict[str, Any]:
        request_id = request.get("id")
        fields = self.door._hello_fields()
        declared = request.get("tenant")
        if declared is not None:
            if not isinstance(declared, str) or not declared:
                return protocol.error_response(
                    protocol.BAD_REQUEST,
                    f"tenant must be a non-empty string, got {declared!r}",
                    request_id)
            if self.qos is not None and not self.qos.knows(declared):
                return protocol.error_response(
                    protocol.BAD_REQUEST,
                    f"unknown tenant {declared!r}; declared tenants: "
                    f"{self.qos.tenant_names}", request_id)
            session.tenant = declared
            fields["tenant"] = declared
        return protocol.hello_response(
            request_id, capabilities=self.door._capabilities(), **fields)

    # ----------------------------------------------------------------- admin

    def admin(self, request: Dict[str, Any],
              reply: Callable[[Dict[str, Any]], None],
              tasks: Set["asyncio.Future"]) -> Optional[Dict[str, Any]]:
        """In-band fleet administration.

        ``status`` is answered at once (returned); a mutation
        (``add_rack``/``drain_rack``) runs as a task tracked in
        ``tasks`` -- migration takes real time under live load -- and
        its outcome goes to ``reply`` when the cutover (or the abort)
        lands.  Returns ``None`` in that case.
        """
        request_id = request.get("id")
        op = str(request.get("op"))
        if op in ("status", "fleet_status"):
            return protocol.ok_response(request_id,
                                        **self.door._fleet_status())
        try:
            knobs = {name: kind(request[name])
                     for name, kind in _ADMIN_KNOBS if name in request}
            pending = self.door._admin_mutation(op, request, knobs)
        except BAD_OPERAND as exc:
            return error_for(exc, request_id)
        if pending is None:
            return protocol.error_response(
                protocol.BAD_REQUEST,
                f"unsupported admin op {op!r} for this deployment",
                request_id)
        task = asyncio.ensure_future(pending)
        tasks.add(task)

        def _respond(done: "asyncio.Future") -> None:
            tasks.discard(done)
            if done.cancelled():
                reply(protocol.error_response(
                    protocol.SHUTTING_DOWN, "admin op cancelled at shutdown",
                    request_id))
                return
            exc = done.exception()
            if exc is None:
                reply(protocol.ok_response(request_id, **done.result()))
                return
            if isinstance(exc, (asyncio.TimeoutError, OSError)):
                # A transport failure mid-mutation failed the change.
                exc = MembershipError(str(exc))
            reply(error_for(exc, request_id))

        task.add_done_callback(_respond)
        return None

    # ------------------------------------------------- writes outside the chain

    def key_written(self, key: str) -> None:
        """A write reached the store without passing the chain (a
        migration-stream copy or delete): purge the key, fence fills."""
        if self.read_cache is not None:
            self.read_cache.invalidate(key)

    def epoch_moved(self, epoch: int) -> None:
        """A membership cutover committed ``epoch``: fence the cache."""
        if self.read_cache is not None:
            self.read_cache.fence(epoch)

    def stats_sections(self) -> Dict[str, Any]:
        """The ``tenants``/``readcache`` stats sections that are on."""
        out: Dict[str, Any] = {}
        if self.qos is not None:
            out[schema.SECTION_TENANTS] = self.qos.stats_section()
        if self.read_cache is not None:
            out[schema.SECTION_READCACHE] = self.read_cache.stats_section()
        return out
