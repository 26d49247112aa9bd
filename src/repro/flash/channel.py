"""The flash channel: the serialisation point of an SSD.

Each channel carries commands for the chips behind it, one at a time.  A
long-running erase or GC migration occupies the channel and stalls every
queued request -- this is precisely the head-of-line blocking that
RackBlox's coordinated GC routes around.
"""

from collections import deque
from typing import Callable, Deque, Generator, Optional, Tuple

from repro.sim import Simulator, until_done
from repro.flash.timing import DeviceProfile

#: One bus command: (kind, duration in us, completion callback).
Command = Tuple[str, float, Callable[[], None]]


class Channel:
    """One channel: a FIFO of timed commands served one at a time.

    :meth:`submit` is the one implementation.  Host I/O drives it with
    callbacks; GC, the scrubber and fault injection use the generator
    wrappers (:meth:`execute`, :meth:`read_page`, ...), which queue their
    commands in the same FIFO.
    """

    def __init__(self, sim: Simulator, channel_id: int, profile: DeviceProfile) -> None:
        self.sim = sim
        self.channel_id = channel_id
        self.profile = profile
        #: The command holding the bus, or None while the channel is idle.
        self._current: Optional[Command] = None
        #: Commands waiting for the bus, oldest first.
        self._waiting: Deque[Command] = deque()
        #: Accumulated busy time, for utilisation reporting.
        self.busy_time = 0.0
        #: Commands served, by kind.
        self.op_counts = {"read": 0, "program": 0, "erase": 0}
        #: Erase suspend/resume (program/erase suspension is the classic
        #: firmware-level mitigation for GC read-blocking -- e.g.
        #: TinyTail/FAST'17 [88]).  Off by default: the paper's devices do
        #: a plain threshold GC; the ablation bench turns it on.
        self.suspend_enabled = False
        self.suspend_slice_us = 500.0
        self.resume_penalty_us = 50.0
        self.suspensions = 0

    def configure_suspend(
        self,
        enabled: bool,
        slice_us: float = 500.0,
        resume_penalty_us: float = 50.0,
    ) -> None:
        """Enable/disable erase suspension and its cost model."""
        if slice_us <= 0 or resume_penalty_us < 0:
            raise ValueError("slice must be positive, penalty non-negative")
        self.suspend_enabled = enabled
        self.suspend_slice_us = slice_us
        self.resume_penalty_us = resume_penalty_us

    @property
    def queue_depth(self) -> int:
        """Commands waiting for the bus (excludes the one in service)."""
        return len(self._waiting)

    @property
    def busy(self) -> bool:
        return self._current is not None

    def submit(self, kind: str, duration: float, on_done: Callable[[], None]) -> None:
        """Occupy the channel for ``duration`` us once the commands queued
        ahead have finished; ``on_done()`` runs when this one leaves the
        bus (after the next queued command has taken it)."""
        command = (kind, duration, on_done)
        if self._current is None:
            self._current = command
            self.sim.schedule_after(duration, self._finish)
        else:
            self._waiting.append(command)

    def _finish(self) -> None:
        kind, duration, on_done = self._current
        self.busy_time += duration
        if kind in self.op_counts:
            self.op_counts[kind] += 1
        if self._waiting:
            self._current = following = self._waiting.popleft()
            self.sim.schedule_after(following[1], self._finish)
        else:
            self._current = None
        on_done()

    def read_page_then(self, size_kb: float, on_done: Callable[[], None]) -> None:
        """Callback form of :meth:`read_page`."""
        self.submit("read", self.profile.read_latency(size_kb), on_done)

    def program_page_then(self, size_kb: float, on_done: Callable[[], None]) -> None:
        """Callback form of :meth:`program_page`."""
        self.submit("program", self.profile.program_latency(size_kb), on_done)

    def execute(self, kind: str, duration: float) -> Generator:
        """Process: occupy the channel for ``duration`` microseconds."""
        return until_done(self.sim, lambda done: self.submit(kind, duration, done))

    def read_page(self, size_kb: float) -> Generator:
        """Process: one page read (array sense + bus transfer)."""
        return until_done(self.sim, lambda done: self.read_page_then(size_kb, done))

    def program_page(self, size_kb: float) -> Generator:
        """Process: one page program (bus transfer + array program)."""
        return until_done(self.sim, lambda done: self.program_page_then(size_kb, done))

    def erase_block(self) -> Generator:
        """Process: one block erase (suspendable when configured).

        With suspension enabled, the erase runs in slices and yields the
        bus between slices whenever commands are waiting -- a queued read
        stalls for at most one slice instead of the full erase.  Each
        actual suspension costs a resume penalty, stretching the erase.
        """
        if not self.suspend_enabled:
            return self.execute("erase", self.profile.erase_us)
        return self._suspendable_erase()

    def _suspendable_erase(self) -> Generator:
        remaining = self.profile.erase_us
        while remaining > 0:
            this_slice = min(self.suspend_slice_us, remaining)
            yield from self.execute("erase-slice", this_slice)
            # The bus is busy again right after a slice exactly when a
            # command was waiting for it: that command took the bus.
            must_yield = remaining > this_slice and self.busy
            remaining -= this_slice
            if remaining > 0 and must_yield:
                # Someone was waiting: the erase actually suspended and
                # will pay the resume overhead when it reacquires.
                self.suspensions += 1
                remaining += self.resume_penalty_us
        self.op_counts["erase"] += 1

    def utilization(self, now: float) -> float:
        """Fraction of elapsed simulated time the channel was busy."""
        if now <= 0:
            return 0.0
        return min(1.0, self.busy_time / now)
