"""Measurement tooling: latency series, throughput accounting, stats.

The experiments mine :class:`LatencySeries` for the RTT-over-time plots
(Figs 13-16) and the summary rows of Tables 1-2 ("base RTT", "RTT
after paging", "# packets with higher RTT", "# packets dropped"), each
computed in its figure module from :meth:`LatencySeries.window` and
:func:`percentile`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ..net.packet import Packet

__all__ = ["LatencySeries", "percentile"]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (fraction in 0..1).

    Returns ``nan`` for an empty sequence: an empty measurement window
    (a short run, a warmup of zero) is an absent statistic, not a
    crash.  Comparisons against ``nan`` are False, so downstream
    "elevated RTT" style counts degrade to zero.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction out of range: {fraction!r}")
    if not values:
        return math.nan
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


class LatencySeries:
    """Accumulates (send time, one-way latency) samples.

    The paper measures data-plane RTT as the time between a packet
    leaving the generator and its acknowledgement returning.  Only the
    downlink direction suffers event buffering, so the RTT of a sample
    is its one-way latency plus the *steady-state* return-path delay —
    approximated by the minimum one-way latency seen in the run.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._min_latency: Optional[float] = None

    def record(self, sent_at: float, one_way: float) -> None:
        self.samples.append((sent_at, one_way))
        if self._min_latency is None or one_way < self._min_latency:
            self._min_latency = one_way

    def record_one_way(self, packet: Packet) -> None:
        """Record a delivered packet's one-way latency."""
        latency = packet.latency
        if latency is None:
            raise ValueError("packet missing timestamps")
        self.record(packet.created_at, latency)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def return_path(self) -> float:
        """Steady-state return-path delay (min one-way latency)."""
        if self._min_latency is None:
            raise ValueError("empty latency series")
        return self._min_latency

    def _rtt(self, one_way: float) -> float:
        return one_way + self.return_path

    @property
    def rtts(self) -> List[float]:
        return [self._rtt(one_way) for _sent, one_way in self.samples]

    def timeline(self) -> List[Tuple[float, float]]:
        """(send time, RTT) ordered by send time — the Fig 13/14 series."""
        return sorted(
            (sent, self._rtt(one_way)) for sent, one_way in self.samples
        )

    def window(self, start: float, end: float) -> List[float]:
        """RTTs of packets sent in [start, end)."""
        return [
            self._rtt(one_way)
            for sent, one_way in self.samples
            if start <= sent < end
        ]
