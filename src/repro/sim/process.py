"""Generator-based cooperative processes.

A *process function* is a generator that yields waitables::

    def worker(sim, store):
        item = yield store.get()
        yield Timeout(sim, 5.0)
        return item          # becomes the process's value

``Process`` itself is an :class:`~repro.sim.events.Event`, so processes can
wait on each other by yielding the other process.
"""

from typing import Any, Callable, Generator

from repro.errors import SimulationError
from repro.sim.events import Event, Interrupt


class Process(Event):
    """Drives a generator, resuming it whenever its awaited event fires."""

    __slots__ = ("_generator", "_waiting_on", "_interrupted_with")

    def __init__(self, sim, generator: Generator) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?"
            )
        self._generator = generator
        self._waiting_on: Any = None
        self._interrupted_with: Any = None
        # Start on the next tick so the constructor returns before any of
        # the process body runs (matches SimPy semantics and avoids
        # surprising reentrancy during setup code).
        sim.schedule_after(0.0, self._start)

    def _start(self) -> None:
        self._resume(None, None)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self.triggered:
            return
        self._interrupted_with = Interrupt(cause)
        waiting = self._waiting_on
        self._waiting_on = None
        # Detach from whatever we were waiting on: the event may still fire
        # later but must no longer resume us.
        if waiting is not None:
            waiting._detach(self)  # noqa: SLF001
        self.sim.schedule_after(0.0, self._deliver_interrupt)

    def _deliver_interrupt(self) -> None:
        exc, self._interrupted_with = self._interrupted_with, None
        if exc is None or self.triggered:
            return
        self._step(exc, True)

    def _resume(self, event, _token) -> None:
        if self.triggered:
            return
        if event is not None and not event.ok:
            self._step(event._exception, True)  # noqa: SLF001
            return
        self._step(event.value if event is not None else None, False)

    def _step(self, arg, throw: bool) -> None:
        # One flat advance -- send or throw -- with no per-resume closure
        # allocation; this is the hottest call site in the whole kernel.
        generator = self._generator
        try:
            target = generator.throw(arg) if throw else generator.send(arg)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # An uncaught interrupt terminates the process quietly.
            self.succeed(None)
            return
        except Exception as exc:  # propagate into waiters
            self.fail(exc)
            return
        if isinstance(target, Process) and target is self:
            self.fail(SimulationError("process cannot wait on itself"))
            return
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process yielded {target!r}; expected an Event/Timeout/Process"
                )
            )
            return
        self._waiting_on = _WaitBinding(self, target)


class _WaitBinding:
    """Connects a process to the event it waits on, supporting detach."""

    __slots__ = ("process", "active")

    def __init__(self, process: Process, event: Event) -> None:
        self.process = process
        self.active = True
        if event.triggered:
            # Defer through the scheduler: a tight loop over
            # already-available events must not recurse on the C stack.
            process.sim.schedule_after(0.0, lambda: self._fire(event))
        else:
            event.add_callback(self._fire)

    def _fire(self, event: Event) -> None:
        if self.active:
            self.active = False
            self.process._waiting_on = None  # noqa: SLF001
            self.process._resume(event, None)  # noqa: SLF001

    def _detach(self, _process: Process) -> None:
        self.active = False


def until_done(sim, start: Callable[[Callable[[], Any]], None]) -> Generator:
    """Process body over a callback-form operation.

    ``start(done)`` begins the operation and arranges for ``done()`` to be
    called once it completes; the body returns at that moment.  This is
    how the generator APIs (``VSsd.read``, ``Channel.execute``, ...) stay
    thin wrappers over the one callback implementation the request path
    drives directly.
    """
    finished = Event(sim)
    start(finished.succeed)
    if not finished.triggered:
        yield finished
