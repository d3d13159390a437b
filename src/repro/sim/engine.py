"""Discrete-event simulation engine.

A small, dependency-free event simulator in the style of SimPy: an
:class:`Environment` owns a simulated clock and an event heap; *processes*
are Python generators that yield :class:`Event` objects and are resumed
when those events fire.

The engine is deterministic: events scheduled for the same simulated time
fire in FIFO order of scheduling (a monotonically increasing sequence
number breaks ties), so simulation runs are exactly reproducible given the
same seed for any randomness injected by the model.

Time is measured in **seconds** as a float.  The module exposes the
convenience constants :data:`US` and :data:`MS` so models can write
``env.timeout(25 * US)``.

Example
-------
>>> env = Environment()
>>> log = []
>>> def proc(env):
...     yield env.timeout(1.5)
...     log.append(env.now)
>>> _ = env.process(proc(env))
>>> env.run()
>>> log
[1.5]

A delay followed by a plain call needs no process at all; a *timer* is
one heap entry and one dispatch:

>>> env.call_later(0.5, log.append, "timer")
>>> env.run()
>>> log
[1.5, 'timer']
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, List, Optional

from ..analysis import races as _races  # repro: noqa[W004] -- race-detector hooks (pending epoch bumps are flushed at yield boundaries); every call is gated on `_ACTIVE is None`

#: One microsecond, in simulation seconds.
US = 1e-6
#: One millisecond, in simulation seconds.
MS = 1e-3

__all__ = [
    "US",
    "MS",
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for invalid uses of the simulation API."""


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it becomes *triggered* when
    :meth:`succeed` or :meth:`fail` is called (or, for a
    :class:`Timeout`, when its delay is scheduled at construction).  Once
    the environment pops it from the heap it is *processed* and its
    callbacks run.  :meth:`fire` does both at once, without the heap.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._defused = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful and schedule its callbacks.

        ``delay`` postpones the callbacks by the given simulated time.
        """
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiting processes see the exception."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, delay)
        return self

    def fire(self, value: Any = None) -> "Event":
        """Mark the event successful and run its callbacks *now*.

        For the last hop of a timer chain (``MessageBus._complete``):
        the waiter resumes inside the current timer's step instead of
        after a heap round trip.  The instant is the same; the order
        within it is not — the waiter runs before entries already
        queued for this instant, where :meth:`succeed` would put it
        after them.  The event ends *processed*, so a later ``yield``
        on it takes the already-processed branch of ``Process._resume``.
        Only a timer callback may call it: a resumed waiter is its own
        atomic section and must not nest inside another process's.
        """
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if self.env._active_process is not None:
            raise SimulationError("fire() called from inside a process")
        self._ok = True
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)
        return self


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay)


class Process(Event):
    """A running generator; also an event that fires when it returns.

    ``name`` optionally labels the process (NF run loops use their NF
    name); the race detector treats a named process as an acting role.
    """

    def __init__(
        self,
        env: "Environment",
        generator: Generator,
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "send"):
            raise SimulationError("process() requires a generator")
        super().__init__(env)
        self.name = name
        self._generator = generator
        # Kick-start on the next tick.
        init = Event(env)
        init._ok = True
        init.callbacks.append(self._resume)
        env._schedule(init, 0.0)

    # -- internal --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # Each resume opens one yield-to-yield atomic section; the
        # generation counter identifies it for the race detector.
        self.env.yield_generation += 1
        self.env._active_process = self
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_resume(self.env)
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.env._active_process = None
            if self.callbacks:
                self.succeed(stop.value)
            else:
                # Nobody is waiting: finish in place, no heap round trip.
                # A later ``yield`` on this process takes the
                # already-processed branch below.
                self._ok = True
                self._value = stop.value
                self.callbacks = None
            return
        except BaseException as exc:  # model bug: propagate as failure
            self.env._active_process = None
            self.fail(exc)
            return
        self.env._active_process = None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded a non-event: {target!r}; yield env.timeout(...)"
            )
        if target.processed:
            # Already fired: resume on the next scheduling tick.
            kick = Event(self.env)
            kick._ok = target._ok
            kick._value = target._value
            if not target._ok:
                kick._defused = True
                target._defused = True
            kick.callbacks.append(self._resume)
            self.env._schedule(kick, 0.0)
        else:
            if not target._ok:
                target._defused = True
            target.callbacks.append(self._resume)


class Environment:
    """The simulation world: clock plus event heap.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock, in seconds.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: List[tuple] = []
        self._counter = itertools.count()
        self._active_process: Optional[Process] = None
        #: Open :meth:`call_together` batches, ``(when, fn) -> [args, ...]``;
        #: each has exactly one heap entry, so it is empty when the heap is.
        self._batches: dict = {}
        #: Monotonic count of process resumes and timer firings; each
        #: value identifies one yield-to-yield atomic section (see
        #: repro.analysis.races).
        self.yield_generation = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction ----------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator, name: Optional[str] = None
    ) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    # -- scheduling / execution -------------------------------------------
    # Heap entries are ``(when, seq, fn, arg)``: a timer carries its
    # callback and argument tuple, an event carries ``fn=None`` and
    # itself.  ``seq`` is unique, so comparison never reaches ``fn``.
    def call_later(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Call ``fn(*args)`` ``delay`` seconds from now.

        A timer is one heap entry dispatched by :meth:`step` without an
        :class:`Event`, a generator or a :class:`Process`; it shares the
        FIFO sequence counter, so timers, timeouts and process starts
        scheduled for the same instant fire in scheduling order.  Use it
        for "delay, then a plain call", and for a chain of those whose
        last hop fires the one event a caller waits on
        (``MessageBus.send``, :meth:`Event.fire`); code that itself
        yields is a process.  Items that cross one delay to one callback
        together (a packet hop) share an entry, and give up this FIFO
        contract, through the sibling :meth:`call_together`.
        """
        if delay < 0:
            raise SimulationError(f"negative timer delay: {delay!r}")
        heapq.heappush(
            self._heap, (self._now + delay, next(self._counter), fn, args)
        )

    def call_together(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Call ``fn(*args)`` ``delay`` seconds from now, on a timer
        shared with every other item due at that instant for ``fn``.

        The first item for a ``(now + delay, fn)`` pushes one heap entry
        and opens a batch, later ones join it, and the entry runs ``fn``
        per item in arrival order.  Each item fires at the instant
        :meth:`call_later` would give it, but in its batch's FIFO slot:
        it can pass an unrelated entry scheduled earlier for that
        instant.  A firing batch is one atomic section for the race
        detector (one ``on_resume``, one ``yield_generation`` bump).
        An item pushed for the same instant and callback meanwhile
        opens a fresh batch; if an item raises, the unfired rest is
        back on the heap, in the batch's slot (``seq`` is below every
        entry still queued for the instant), before the exception
        leaves :meth:`step`.
        """
        if delay < 0:
            raise SimulationError(f"negative timer delay: {delay!r}")
        when = self._now + delay
        batch = self._batches.get((when, fn))
        if batch is None:
            self._batches[when, fn] = batch = []
            slot = (when, next(self._counter), fn)
            heapq.heappush(self._heap, (*slot[:2], self._fire_batch, slot))
        batch.append(args)

    def _fire_batch(self, *slot: Any) -> None:
        when, seq, fn = slot
        items = iter(self._batches.pop((when, fn)))
        try:
            for args in items:
                fn(*args)
        except BaseException:
            rest = list(items)
            reopened = self._batches.get((when, fn))
            if reopened is not None:
                reopened[:0] = rest
            elif rest:
                self._batches[when, fn] = rest
                heapq.heappush(self._heap, (when, seq, self._fire_batch, slot))
            raise

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            raise SimulationError("event scheduled twice")
        event._scheduled = True
        heapq.heappush(
            self._heap, (self._now + delay, next(self._counter), None, event)
        )

    def step(self) -> None:
        """Process exactly one event or timer."""
        if not self._heap:
            raise SimulationError("no scheduled events")
        when, _seq, fn, arg = heapq.heappop(self._heap)
        self._now = when
        if fn is not None:
            # A timer firing is one atomic section, like a process
            # resume, with no acting process.
            self.yield_generation += 1
            detector = _races._ACTIVE
            if detector is not None:
                detector.on_resume(self)
            fn(*arg)
            return
        event = arg
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly that
        time even if no event is scheduled there.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})"
            )
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            self.step()
        if until is not None:
            self._now = max(self._now, until)
