"""Traffic generation: the MoonGen stand-in.

The paper drives the data plane with MoonGen on the RAN-side and
DN-side servers (§5.1).  :class:`ConstantRateGenerator` emits packets
at a fixed rate into an arbitrary sink (the UPF, a link, a TCP model),
stamping creation time and sequence numbers for the latency tooling.
It is a chain of engine timers, one heap entry per packet, not a
process: emitting a packet is a delay followed by a plain call.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ..net.packet import Direction, FiveTuple, Packet, PacketKind
from ..sim.engine import Environment

__all__ = ["ConstantRateGenerator"]


class ConstantRateGenerator:
    """Emits packets at ``rate_pps`` for ``duration`` seconds.

    The count is fixed at construction: ``ceil(duration * rate_pps)``
    packets (the product rounded to 9 decimals first, so 10 000 pps for
    0.5 s is 5 000, not 5 001), or unbounded when ``duration`` is
    ``None``.  Packet ``k`` is created at ``start`` plus ``k`` intervals
    added one at a time (``now + interval`` per hop).

    Emission is a chain of :meth:`Environment.call_later` timers: a
    zero-delay kick-start, an optional ``start`` delay, then one timer
    per packet, each built, handed to ``sink`` and followed by the next
    timer.  One trailing timer fires after the last packet (or after
    :meth:`stop`) and ends the chain, so ``N`` packets from ``start=0``
    cost ``N + 1`` engine steps.  An exception from ``sink`` ends the
    chain and leaves :meth:`Environment.run`.

    Parameters
    ----------
    env:
        Simulation environment.
    sink:
        Callable receiving each emitted packet.
    rate_pps:
        Packets per second.
    flow:
        Five-tuple stamped on every packet.
    size:
        Wire size per packet (bytes).
    direction / kind:
        Packet classification for the 5GC pipeline.
    start / duration:
        Emission window in simulated seconds; ``duration=None`` runs
        until stopped.
    """

    def __init__(
        self,
        env: Environment,
        sink: Callable[[Packet], None],
        rate_pps: float,
        flow: FiveTuple,
        size: int = 128,
        direction: Direction = Direction.DOWNLINK,
        kind: PacketKind = PacketKind.DATA,
        start: float = 0.0,
        duration: Optional[float] = None,
        teid: Optional[int] = None,
    ):
        if rate_pps <= 0:
            raise ValueError(f"rate must be positive: {rate_pps!r}")
        self.env = env
        self.sink = sink
        self.rate_pps = rate_pps
        self.flow = flow
        self.size = size
        self.direction = direction
        self.kind = kind
        self.start = start
        self.duration = duration
        self.teid = teid
        self.emitted = 0
        self._limit = (
            math.inf if duration is None
            else math.ceil(round(duration * rate_pps, 9))
        )
        self._interval = 1.0 / rate_pps
        self._stopped = False
        env.call_later(0.0, self._begin)

    def stop(self) -> None:
        """Cease emission at the next interval."""
        self._stopped = True

    def _begin(self) -> None:
        if self.start > 0:
            self.env.call_later(self.start, self._emit)
        else:
            self._emit()

    def _emit(self) -> None:
        if self._stopped or self.emitted >= self._limit:
            return
        env = self.env
        self.sink(Packet(
            size=self.size,
            flow=self.flow,
            direction=self.direction,
            kind=self.kind,
            teid=self.teid,
            seq=self.emitted,
            created_at=env.now,
        ))
        self.emitted += 1
        env.call_later(self._interval, self._emit)
