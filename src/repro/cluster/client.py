"""Workload clients.

One client drives one replica pair, open-loop (Poisson arrivals): reads go
to the primary vSSD (the switch may redirect them), writes fan out to both
in-rack replicas and complete when *all* replicas hold a DRAM copy
(§3.5.1's durability semantics).
"""

from typing import Generator, Optional

from repro.cluster.rack import Rack
from repro.cluster.replication import ReplicaPair
from repro.errors import ConfigError
from repro.metrics.collector import ExperimentMetrics
from repro.sim import Event, Timeout
from repro.workloads.generator import OpenLoopGenerator, Request


class Client:
    """An open-loop client bound to one replica pair."""

    def __init__(
        self,
        rack: Rack,
        name: str,
        pair: ReplicaPair,
        generator: OpenLoopGenerator,
        metrics: ExperimentMetrics,
        working_set_fraction: float = 0.5,
    ) -> None:
        self.rack = rack
        self.sim = rack.sim
        self.name = name
        self.pair = pair
        self.generator = generator
        self.metrics = metrics
        self.key_space = rack.working_set_pages(pair, working_set_fraction)
        self.issued = 0
        self.completed = 0
        self._drained: Optional[Event] = None

    def run(self, num_requests: int) -> Generator:
        """Process: issue ``num_requests`` and wait for every response."""
        if num_requests <= 0:
            raise ConfigError(f"num_requests must be positive, got {num_requests}")
        for request in self.generator.requests(num_requests):
            yield Timeout(self.sim, request.gap_us)
            self.issued += 1
            self._issue(request)
        while self.completed < self.issued:
            self._drained = Event(self.sim)
            yield self._drained
        return self.completed

    def _note_done(self) -> None:
        self.completed += 1
        if self._drained is not None and not self._drained.triggered:
            self._drained.succeed()

    def _issue(self, request: Request) -> None:
        """Send one request; its response event records the latency."""
        lpn = request.lpn % self.key_space
        t0 = self.sim.now
        if request.kind == "read":
            self.rack.issue_read(self.pair, lpn, client=self.name).add_callback(
                lambda done: self._read_done(done.value, t0)
            )
        else:
            # Writes are issued to all replicas and complete when every
            # replica has the DRAM copy (the write-cache admission ack).
            # Replicas the failure detector has declared dead are skipped
            # -- the membership view clients get from the heartbeat
            # machinery.
            self.rack.issue_write(self.pair, lpn, client=self.name).add_callback(
                lambda done: self._write_done(done.value, t0)
            )

    def _read_done(self, response, t0: float) -> None:
        storage_us = response.payload.get("storage_us")
        self.metrics.record(
            "read", self.sim.now - t0, at=self.sim.now, storage_us=storage_us
        )
        self._note_done()

    def _write_done(self, responses, t0: float) -> None:
        if not responses:
            # Both in-rack replicas are down; the out-of-rack replica (out
            # of scope here) would take over.  Count the op as done so the
            # client can drain.
            self._note_done()
            return
        storage_us = max(
            (r.payload.get("storage_us", 0.0) for r in responses), default=None
        )
        self.metrics.record(
            "write", self.sim.now - t0, at=self.sim.now, storage_us=storage_us
        )
        self._note_done()
