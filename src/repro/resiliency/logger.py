"""The load balancer's counter + packet logger (§3.5.1).

Every message entering the 5GC through the LB is stamped with a
monotonically increasing counter and a copy is kept in the
PacketLogger.  The logger is split into **four queues** — UL-control,
UL-data, DL-control, DL-data — so control packets survive even if a
data flood overflows the buffer.  On failover the replica replays from
the queue heads in counter order, reconstructing state updates lost
since the last checkpoint *and* recovering in-flight data packets
(which Neutrino does not).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Deque, Dict, List, Tuple

from ..net.packet import Direction, PacketKind

__all__ = ["LoggedPacket", "PacketLogger"]

_COUNTER = attrgetter("counter")


@dataclass
class LoggedPacket:
    """One logged message with its LB counter stamp."""

    __slots__ = ("counter", "direction", "kind", "payload")

    counter: int
    direction: Direction
    kind: PacketKind
    payload: Any


class PacketLogger:
    """Counter stamping plus the four bounded replay queues.

    Parameters
    ----------
    data_capacity:
        Per-queue capacity for the two data queues; overflow drops the
        oldest entry.
    control_capacity:
        Per-queue capacity for the two control queues; sized larger
        relative to their traffic so control is never lost to a data
        burst.
    """

    QUEUES: Tuple[Tuple[Direction, PacketKind], ...] = (
        (Direction.UPLINK, PacketKind.CONTROL),
        (Direction.UPLINK, PacketKind.DATA),
        (Direction.DOWNLINK, PacketKind.CONTROL),
        (Direction.DOWNLINK, PacketKind.DATA),
    )

    def __init__(self, data_capacity: int = 4096, control_capacity: int = 4096):
        self._counter = itertools.count(1)
        #: Each queue is a ring in counter order: overflow evicts its
        #: head, an acknowledgement pops heads.
        self._queues: Dict[Tuple[Direction, PacketKind], Deque[LoggedPacket]] = {
            key: deque(maxlen=control_capacity
                       if key[1] is PacketKind.CONTROL else data_capacity)
            for key in self.QUEUES
        }
        self.logged = 0
        self.dropped = 0
        self.released = 0
        #: Highest counter acknowledged by the remote replica.
        self.acked_counter = 0

    # ------------------------------------------------------------------
    def stamp(
        self, payload: Any, direction: Direction, kind: PacketKind
    ) -> int:
        """Stamp a message with the next counter and log a copy.

        Returns the counter value.  Overflowing a *data* queue drops
        the oldest data entry; control queues are protected by their
        own capacity, so a data flood cannot evict control packets.
        """
        counter = next(self._counter)
        queue = self._queues[(direction, kind)]
        if len(queue) == queue.maxlen:  # the append evicts the head
            self.dropped += 1
        queue.append(
            LoggedPacket(
                counter=counter, direction=direction, kind=kind, payload=payload
            )
        )
        self.logged += 1
        return counter

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    # ------------------------------------------------------------------
    def release_through(self, counter: int) -> int:
        """Drop logged entries with counter <= ``counter``.

        Called when the primary confirms the remote replica has
        synchronized state through that counter (step 3 of §3.5.1).
        """
        removed = 0
        for queue in self._queues.values():
            while queue and queue[0].counter <= counter:
                queue.popleft()
                removed += 1
        self.released += removed
        self.acked_counter = max(self.acked_counter, counter)
        return removed

    # ------------------------------------------------------------------
    def replay_order(self, after_counter: int = 0) -> List[LoggedPacket]:
        """All logged entries newer than ``after_counter`` in counter
        order, merged across the four queues.

        This is the replica's replay stream: each queue is already in
        counter order, so a merge of the four preserves the original
        processing order.
        """
        return [
            entry
            for entry in heapq.merge(*self._queues.values(), key=_COUNTER)
            if entry.counter > after_counter
        ]
