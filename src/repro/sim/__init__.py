"""Discrete-event simulation substrate for the L25GC reproduction.

The public surface:

* :class:`~repro.sim.engine.Environment` — clock + event heap.
* :data:`~repro.sim.engine.US` / :data:`~repro.sim.engine.MS` — time units.
* :class:`~repro.sim.queues.Store` and friends — waitable queues.
* :class:`~repro.sim.rng.StreamRNG` — reproducible named random streams.
"""

from .engine import (
    MS,
    US,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from .queues import QueueFullError, Resource, Store
from .rng import StreamRNG

__all__ = [
    "MS",
    "US",
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
    "QueueFullError",
    "Resource",
    "Store",
    "StreamRNG",
]
