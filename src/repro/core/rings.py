"""Single-producer / single-consumer descriptor rings.

OpenNetVM attaches a receive (Rx) and a transmit (Tx) ring to every NF;
the manager and the NF exchange *packet descriptors* (pointers into the
shared hugepage pool) through these rings without locks.  This module is
a faithful in-Python counterpart: a fixed-size power-of-two circular
buffer with separate head/tail counters, batch operations, and watermark
statistics.  It is a real data structure — the micro-benchmarks in
``benchmarks/`` measure it directly.

As in ``rte_ring``, the free-running head and tail indices *are* the
accounting ledger: ``enqueued`` is the head, ``dequeued`` is the tail
less the descriptors :meth:`Ring.clear` discarded.  ``dropped``,
``enqueue_failures`` and ``high_watermark`` are plain int attributes,
and :meth:`Ring.register_into` exports all of them into a
:class:`~repro.obs.metrics.MetricsRegistry` as callback gauges — one
tally, read where it is kept.

A burst is one ring operation, all or nothing: :meth:`Ring.enqueue_burst`
shows every accepted descriptor to the sanitizer/tracer hooks before it
stores any, and :meth:`Ring.dequeue_burst` takes the whole burst out of
the ring before it shows any — so a hook that raises never leaves half a
burst behind.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from ..analysis import sanitizer as _sanitizer
from ..obs import spans as _tracing
from ..obs.metrics import MetricsRegistry

__all__ = ["Ring", "RingFullError", "RingEmptyError"]


class RingFullError(Exception):
    """Raised by :meth:`Ring.enqueue` when no slot is free."""


class RingEmptyError(Exception):  # repro: noqa[W009] -- raised by the exempt reference Ring.dequeue
    """Raised by :meth:`Ring.dequeue` when no descriptor is queued."""


def _round_up_pow2(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power


class Ring:
    """A bounded FIFO of descriptors with DPDK-ring semantics.

    Parameters
    ----------
    capacity:
        Usable slot count; rounded up to a power of two internally so
        index arithmetic is a mask operation, as in ``rte_ring``.
    name:
        Identification for debugging and statistics.

    Every slot outside ``[tail, head)`` holds ``None``: a descriptor
    that left the ring is never pinned by it.
    """

    __slots__ = (
        "name",
        "_mask",
        "_slots",
        "_head",
        "_tail",
        "dropped",
        "enqueue_failures",
        "high_watermark",
    )

    def __init__(self, capacity: int = 1024, name: str = "ring"):
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive: {capacity!r}")
        size = _round_up_pow2(capacity)
        self.name = name
        self._mask = size - 1
        self._slots: List[Any] = [None] * size
        self._head = 0  # next slot to write (producer); = enqueued
        self._tail = 0  # next slot to read (consumer); = dequeued + dropped
        #: Descriptors discarded by :meth:`clear`.
        self.dropped = 0
        #: Descriptors refused because the ring was full.
        self.enqueue_failures = 0
        #: Highest occupancy ever reached.
        self.high_watermark = 0

    # -- inspection ---------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Total number of usable slots."""
        return self._mask + 1

    def __len__(self) -> int:
        return self._head - self._tail

    @property
    def is_full(self) -> bool:
        return self._head - self._tail > self._mask

    @property
    def enqueued(self) -> int:
        """Descriptors ever stored: the head index."""
        return self._head

    @property
    def dequeued(self) -> int:
        """Descriptors ever handed to the consumer."""
        return self._tail - self.dropped

    def register_into(self, registry: MetricsRegistry) -> None:
        """Export this ring's ledger and occupancy into ``registry``."""
        for tally in (
            "enqueued",
            "dequeued",
            "dropped",
            "enqueue_failures",
            "high_watermark",
        ):
            registry.gauge(f"ring.{self.name}.{tally}").set_function(
                lambda tally=tally: getattr(self, tally)
            )
        registry.gauge(f"ring.{self.name}.occupancy").set_function(
            lambda: len(self)
        )

    # -- single operations ----------------------------------------------------
    def enqueue(self, descriptor: Any) -> None:
        """Push one descriptor; raises :class:`RingFullError` when full."""
        head = self._head
        if head - self._tail > self._mask:
            self.enqueue_failures += 1
            raise RingFullError(f"{self.name}: ring full ({self.capacity})")
        san = _sanitizer._ACTIVE
        if san is not None:
            san.on_enqueue(self.name, descriptor)
        tracer = _tracing._ACTIVE
        if tracer is not None:
            tracer.on_ring_enqueue(self.name, descriptor)
        self._slots[head & self._mask] = descriptor
        head += 1
        self._head = head
        if head - self._tail > self.high_watermark:
            self.high_watermark = head - self._tail

    def dequeue(self) -> Any:  # repro: noqa[W009] -- the reference dequeue_burst is checked against (test_core_rings.py::test_stats_identical_to_singleton_dequeues)
        """Pop one descriptor; raises :class:`RingEmptyError` when empty."""
        tail = self._tail
        if self._head == tail:
            raise RingEmptyError(f"{self.name}: ring empty")
        index = tail & self._mask
        descriptor = self._slots[index]
        self._slots[index] = None
        self._tail = tail + 1
        san = _sanitizer._ACTIVE
        if san is not None:
            san.on_dequeue(self.name, descriptor)
        tracer = _tracing._ACTIVE
        if tracer is not None:
            tracer.on_ring_dequeue(self.name, descriptor)
        return descriptor

    # -- batch operations (the common fast path in ONVM) -----------------------
    def enqueue_burst(self, descriptors: Sequence[Any]) -> int:
        """Push as many of ``descriptors`` as fit; returns how many.

        The accepted prefix is shown to the hooks first and then stored
        as one slice; a hook that raises leaves the ring, and its
        tallies, as they were.
        """
        head = self._head
        occupancy = head - self._tail
        total = len(descriptors)
        count = self._mask + 1 - occupancy
        if total < count:
            count = total
        elif count < total:
            descriptors = descriptors[:count]
        san = _sanitizer._ACTIVE
        tracer = _tracing._ACTIVE
        if san is not None or tracer is not None:
            for descriptor in descriptors:
                if san is not None:
                    san.on_enqueue(self.name, descriptor)
                if tracer is not None:
                    tracer.on_ring_enqueue(self.name, descriptor)
        slots = self._slots
        start = head & self._mask
        end = start + count
        if end <= len(slots):
            slots[start:end] = descriptors
        else:
            split = len(slots) - start
            slots[start:] = descriptors[:split]
            slots[:end - len(slots)] = descriptors[split:]
        self._head = head + count
        self.enqueue_failures += total - count
        occupancy += count
        if occupancy > self.high_watermark:
            self.high_watermark = occupancy
        return count

    def dequeue_burst(self, max_count: int) -> List[Any]:
        """Pop up to ``max_count`` descriptors (possibly fewer).

        Stats-equivalent to ``count`` singleton :meth:`dequeue` calls:
        ``dequeued`` advances by exactly the number of descriptors
        returned, and the sanitizer/tracer see each descriptor
        individually, in order — after the whole burst has left the
        ring.  A non-positive ``max_count`` pops nothing.
        """
        tail = self._tail
        count = self._head - tail
        if max_count < count:
            count = max_count
        if count <= 0:
            return []
        slots = self._slots
        start = tail & self._mask
        end = start + count
        if end <= len(slots):
            out = slots[start:end]
            slots[start:end] = [None] * count
        else:
            end -= len(slots)
            out = slots[start:] + slots[:end]
            slots[start:] = [None] * (len(slots) - start)
            slots[:end] = [None] * end
        self._tail = tail + count
        san = _sanitizer._ACTIVE
        tracer = _tracing._ACTIVE
        if san is not None or tracer is not None:
            for descriptor in out:
                if san is not None:
                    san.on_dequeue(self.name, descriptor)
                if tracer is not None:
                    tracer.on_ring_dequeue(self.name, descriptor)
        return out

    def clear(self) -> int:
        """Drop everything; returns the number of discarded descriptors.

        Discards are charged to :attr:`dropped` so the enqueue/dequeue
        ledger stays balanced (``enqueued == dequeued + dropped + len``)
        and sanitizer/watermark numbers remain consistent.
        """
        count = self._head - self._tail
        san = _sanitizer._ACTIVE
        tracer = _tracing._ACTIVE
        if count and (san is not None or tracer is not None):
            live = [
                self._slots[index & self._mask]
                for index in range(self._tail, self._head)
            ]
            if san is not None:
                san.on_clear(self.name, live)
            if tracer is not None:
                tracer.on_ring_clear(self.name, live)
        self._slots[:] = [None] * len(self._slots)
        self._tail = self._head
        self.dropped += count
        return count

    def stats(self) -> Dict[str, int]:
        """The ring's full accounting ledger, for harnesses and asserts."""
        return {
            "capacity": self.capacity,
            "occupancy": len(self),
            "enqueued": self.enqueued,
            "dequeued": self.dequeued,
            "dropped": self.dropped,
            "enqueue_failures": self.enqueue_failures,
            "high_watermark": self.high_watermark,
        }

    def __repr__(self) -> str:
        return (
            f"Ring({self.name!r}, {len(self)}/{self.capacity}, "
            f"enq={self.enqueued}, deq={self.dequeued}, "
            f"drop={self.dropped})"
        )
