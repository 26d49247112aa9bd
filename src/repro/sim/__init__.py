"""Discrete-event simulation kernel.

A small, dependency-free event-driven simulator in the style of SimPy:
generator functions become cooperatively scheduled :class:`Process` objects
that ``yield`` waitables (:class:`Timeout`, :class:`Event`, other processes).

The kernel is deliberately minimal -- an event heap, a virtual clock, and a
handful of synchronisation primitives -- because every subsystem in the
RackBlox reproduction (flash channels, switch pipeline, I/O schedulers,
network links) is expressed on top of it.
"""

from repro.sim.core import Simulator
from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.process import Process, until_done
from repro.sim.resources import PriorityStore, Resource, Store
from repro.sim.rng import RandomSource

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Process",
    "Resource",
    "Store",
    "PriorityStore",
    "RandomSource",
    "until_done",
]
