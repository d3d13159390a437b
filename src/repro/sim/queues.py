"""Waitable queues and resources for the simulation engine.

:class:`Store` is an unbounded-or-bounded FIFO whose ``get`` returns an
event; a process does ``item = yield store.get()`` and is suspended until
an item is available; producers never block (``put_nowait`` raises on a
full store, ``put_nowait_drop`` tail-drops).  :class:`Resource` models a
counted resource (e.g. CPU cores) with ``request``/``release`` semantics.

These primitives deliberately mirror SimPy's API surface so the models in
:mod:`repro` read like standard DES code.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from .engine import Environment, Event, SimulationError

__all__ = ["Store", "Resource", "QueueFullError"]


class QueueFullError(Exception):
    """Raised by non-blocking ``put`` on a full bounded store."""


class Store:
    """A waitable FIFO queue of items.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Maximum number of queued items; ``None`` means unbounded.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"capacity must be positive: {capacity!r}")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        #: Number of items dropped by :meth:`put_nowait_drop`.
        self.drops = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[Any]:
        """Snapshot of queued items (oldest first)."""
        return list(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    # -- producers ---------------------------------------------------------
    def put_nowait(self, item: Any) -> None:
        """Enqueue immediately; raise :class:`QueueFullError` when full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return
        if self.is_full:
            raise QueueFullError(f"store full (capacity={self.capacity})")
        self._items.append(item)

    def put_nowait_drop(self, item: Any) -> bool:
        """Enqueue if space allows; drop (and count) otherwise.

        Returns True if the item was accepted.  This is the tail-drop
        behaviour of a router queue or the gNB's limited packet buffer.
        """
        try:
            self.put_nowait(item)
        except QueueFullError:
            self.drops += 1
            return False
        return True

    # -- consumers -----------------------------------------------------------
    def get(self) -> Event:
        """Dequeue an item; the returned event fires with the item."""
        event = self.env.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def clear(self) -> List[Any]:
        """Remove and return all queued items."""
        drained = list(self._items)
        self._items.clear()
        return drained


class Resource:
    """A counted resource: at most ``capacity`` holders at once.

    Usage::

        req = resource.request()
        yield req
        try:
            ... critical section ...
        finally:
            resource.release()
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive: {capacity!r}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently granted requests."""
        return self._in_use

    def request(self) -> Event:
        """Acquire a slot; the event fires once granted."""
        event = self.env.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one held slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release without matching request")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1
