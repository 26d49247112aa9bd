"""The DRAM write cache (§3.5.1).

Writes are absorbed by the server's DRAM cache and "considered complete
when all replicas have a DRAM copy"; dirty pages are flushed to flash in
the background.  The cache is what keeps write tail latency low even while
GC runs -- unless it fills, at which point admission blocks until the
flusher frees a slot (the write-tail mechanism in Figure 9b).

Flushes are submitted through the server's I/O scheduler (``submit_fn``)
when one is wired up, so background writes compete with reads exactly as
in the real storage stack -- and benefit from coordinated scheduling and
coordinated GC like any other request.

Admission and flushing are callback continuations: a write waiting for a
slot is a queued callback, and the flusher is a small state machine
(idle / dwelling / draining) woken by admissions and flush completions.
"""

from collections import OrderedDict, deque
from typing import Callable, Deque, Generator, Optional, Tuple

from repro.errors import ConfigError
from repro.sim import Simulator, until_done
from repro.vssd.vssd import VSsd

#: Below the watermark the flusher lets dirty pages dwell this long, so a
#: light write stream is flushed in lazy batches.
FLUSH_DWELL_US = 200.0

#: ``submit_fn(vssd, lpn, on_done)``: queue one flush; call ``on_done()``
#: once the page is on flash.
SubmitFn = Callable[[VSsd, int, Callable[[], None]], None]


class WriteCache:
    """A bounded dirty-page cache with a background flusher per server."""

    def __init__(
        self,
        sim: Simulator,
        capacity_pages: int = 1024,
        flush_watermark: float = 0.5,
        flush_parallelism: int = 4,
        submit_fn: Optional[SubmitFn] = None,
    ) -> None:
        if capacity_pages <= 0:
            raise ConfigError(f"capacity must be positive, got {capacity_pages}")
        if not 0.0 <= flush_watermark < 1.0:
            raise ConfigError(f"watermark must be in [0,1), got {flush_watermark}")
        if flush_parallelism < 1:
            raise ConfigError("flush_parallelism must be >= 1")
        self.sim = sim
        self.capacity = capacity_pages
        self.flush_watermark = flush_watermark
        self.flush_parallelism = flush_parallelism
        #: When set, flushes go through the server's I/O scheduler instead
        #: of straight to the device.
        self.submit_fn = submit_fn
        #: Dirty entries in flush order: (vssd_id, lpn) -> vssd.  Duplicate
        #: writes to a hot page coalesce (write combining).
        self._dirty: "OrderedDict[Tuple[int, int], VSsd]" = OrderedDict()
        #: Writes stalled on a full cache: (key, vssd, on_admitted), FIFO.
        self._admission_waiters: Deque[
            Tuple[Tuple[int, int], VSsd, Callable[[], None]]
        ] = deque()
        #: True while the flusher waits for a kick (not dwelling, not
        #: draining).
        self._flusher_idle = True
        #: Flushes taken off the dirty list, awaiting their submission tick.
        self._unsubmitted: Deque[Tuple[VSsd, int]] = deque()
        self._outstanding = 0
        self.admissions = 0
        self.coalesced = 0
        self.flushes = 0
        self.full_stalls = 0

    @property
    def dirty_pages(self) -> int:
        """Pages cached but not yet handed to the flusher."""
        return len(self._dirty)

    @property
    def occupancy(self) -> float:
        """Fill fraction including flushes still in flight."""
        return (len(self._dirty) + self._outstanding) / self.capacity

    def admit_then(self, vssd: VSsd, lpn: int, on_admitted: Callable[[], None]) -> None:
        """Admit one write; ``on_admitted()`` runs once the DRAM copy
        exists -- at once, or after a flush frees a slot in a full cache."""
        key = (vssd.vssd_id, lpn)
        if key in self._dirty:
            self._dirty.move_to_end(key)
            self.coalesced += 1
            self.admissions += 1
            on_admitted()
            return
        self._admit_or_wait(key, vssd, on_admitted)

    def admit(self, vssd: VSsd, lpn: int) -> Generator:
        """Process: :meth:`admit_then`, waited on."""
        return until_done(self.sim, lambda done: self.admit_then(vssd, lpn, done))

    def _admit_or_wait(self, key: Tuple[int, int], vssd: VSsd,
                       on_admitted: Callable[[], None]) -> None:
        if len(self._dirty) + self._outstanding >= self.capacity:
            self.full_stalls += 1
            self._admission_waiters.append((key, vssd, on_admitted))
            return
        self._dirty[key] = vssd
        self.admissions += 1
        self._kick_flusher()
        on_admitted()

    # ------------------------------------------------------------ flusher

    def _kick_flusher(self) -> None:
        if self._flusher_idle:
            self._flusher_idle = False
            self._drain()

    def _drain(self) -> None:
        """Hand dirty pages to flushes: lazily (behind a dwell) below the
        watermark, back to back above it, with bounded parallelism."""
        while True:
            if not self._dirty or self._outstanding >= self.flush_parallelism:
                self._flusher_idle = True
                return
            if self.occupancy < self.flush_watermark:
                self.sim.schedule_after(FLUSH_DWELL_US, self._after_dwell)
                return
            self._flush_oldest()

    def _after_dwell(self) -> None:
        if self._dirty:
            self._flush_oldest()
        self._drain()

    def _flush_oldest(self) -> None:
        key, vssd = self._dirty.popitem(last=False)
        self._outstanding += 1
        # Submit on the next tick, not inline: flushes popped at one
        # instant then reach the I/O scheduler after the work already
        # scheduled for that instant, which keeps the dispatcher's pop
        # order when two flash programs finish together.
        self._unsubmitted.append((vssd, key[1]))
        self.sim.schedule_after(0.0, self._submit_flush)

    def _submit_flush(self) -> None:
        vssd, lpn = self._unsubmitted.popleft()
        if self.submit_fn is not None:
            self.submit_fn(vssd, lpn, self._flushed)
        else:
            vssd.write_then(lpn, self._flushed)

    def _flushed(self) -> None:
        self._outstanding -= 1
        self.flushes += 1
        if self._admission_waiters:
            self._admit_or_wait(*self._admission_waiters.popleft())
        self._kick_flusher()
