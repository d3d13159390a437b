"""A round-based TCP Reno model over an interruptible path.

Figs 12 and 15-17 of the paper study how control-plane events (handover
buffering, 5GC failure) disturb TCP: inflated RTTs, spurious
retransmission timeouts (Linux min RTO = 200 ms), congestion-window
collapse and goodput dips.  This model reproduces those dynamics:

* slow start / congestion avoidance / ssthresh per RFC 5681;
* a shared bottleneck (:class:`PathModel`) imposing fair-share rate and
  queueing delay;
* *interruptions*: windows during which downlink delivery stalls.
  ``BUFFERED`` interruptions (handover smart buffering) release data at
  the end — if the stall exceeds the RTO the sender *spuriously*
  retransmits and collapses cwnd even though nothing was lost, exactly
  the free5GC pathology of §5.4.1;
  ``DROPPED`` interruptions (3GPP reattach, §5.5) lose the data
  outright, forcing genuine recovery.

The model is round-based (one simulated event per congestion window
flight), which matches the granularity of the paper's cwnd/goodput
plots while remaining fast enough for property tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from ..sim.engine import MS, Environment

__all__ = [
    "InterruptionKind",
    "Interruption",
    "PathModel",
    "TCPConnection",
    "TCPStats",
    "MSS",
    "MIN_RTO",
]

#: Maximum segment size (bytes) — Ethernet MTU minus headers.
MSS = 1448
#: Linux's minimum retransmission timeout.
MIN_RTO = 200 * MS


class InterruptionKind(Enum):
    """What happens to downlink data sent into the interruption."""

    #: Held at the 5GC/gNB and delivered when the window ends.
    BUFFERED = "buffered"
    #: Discarded (3GPP reattach: state lost, packets dropped).
    DROPPED = "dropped"


@dataclass
class Interruption:
    """A delivery stall in [start, end)."""

    start: float
    end: float
    kind: InterruptionKind = InterruptionKind.BUFFERED

    def covers(self, when: float) -> bool:
        return self.start <= when < self.end


@dataclass
class PathModel:
    """The shared bottleneck path between server (DN) and UE.

    Parameters
    ----------
    bandwidth_bps:
        Aggregate bottleneck bandwidth.
    base_rtt:
        Round-trip propagation + forwarding time (no queueing).
    connections:
        Number of TCP connections sharing the bottleneck (fair share).
    queue_capacity_bytes:
        Per-connection share of the bottleneck buffer; in-flight data
        beyond the BDP queues here, adding delay.  Kept shallow
        (~32 KB) so steady-state RTT stays well under the 200 ms
        minimum RTO — with it, a 96 ms handover stall (L25GC) never
        trips the RTO while a 463 ms stall (free5GC) always does,
        matching §5.4.1.
    """

    bandwidth_bps: float = 30e6
    base_rtt: float = 20 * MS
    connections: int = 1
    queue_capacity_bytes: float = 32 * 1024
    interruptions: List[Interruption] = field(default_factory=list)

    def add_interruption(
        self,
        start: float,
        duration: float,
        kind: InterruptionKind = InterruptionKind.BUFFERED,
    ) -> Interruption:
        event = Interruption(start=start, end=start + duration, kind=kind)
        self.interruptions.append(event)
        return event

    @property
    def share_bps(self) -> float:
        """Fair per-connection share of the bottleneck."""
        return self.bandwidth_bps / max(1, self.connections)

    @property
    def bdp_bytes(self) -> float:
        """Per-connection bandwidth-delay product."""
        return self.share_bps * self.base_rtt / 8.0

    def interruption_at(self, when: float) -> Optional[Interruption]:
        for event in self.interruptions:
            if event.covers(when):
                return event
        return None

    def queue_delay(self, flight_bytes: float) -> float:
        """Standing-queue delay for a given in-flight volume."""
        excess = min(
            max(0.0, flight_bytes - self.bdp_bytes),
            self.queue_capacity_bytes,
        )
        return 8.0 * excess / self.share_bps


@dataclass
class TCPStats:
    """Everything the figures need from one connection."""

    bytes_acked: int = 0
    retransmissions: int = 0
    spurious_timeouts: int = 0
    genuine_timeouts: int = 0
    completed_at: Optional[float] = None
    #: (send time, observed RTT) samples.
    rtt_series: List[Tuple[float, float]] = field(default_factory=list)
    #: (time, cwnd bytes) samples.
    cwnd_series: List[Tuple[float, float]] = field(default_factory=list)
    #: (delivery time, bytes delivered) — integrate for goodput.
    delivery_series: List[Tuple[float, int]] = field(default_factory=list)

    def goodput_bps(self, start: float, end: float) -> float:
        """Mean goodput over [start, end)."""
        if end <= start:
            raise ValueError("empty goodput window")
        delivered = sum(
            size for when, size in self.delivery_series if start <= when < end
        )
        return 8.0 * delivered / (end - start)


class TCPConnection:
    """One Reno sender transferring ``total_bytes`` downlink.

    Run it as a process::

        conn = TCPConnection(env, path, total_bytes=15 << 20)
        env.process(conn.run())
        env.run()
        conn.stats.completed_at
    """

    def __init__(
        self,
        env: Environment,
        path: PathModel,
        total_bytes: int,
        start_time: float = 0.0,
        initial_cwnd_segments: int = 10,
    ):
        if total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        self.env = env
        self.path = path
        self.total_bytes = total_bytes
        self.start_time = start_time
        self.cwnd = float(initial_cwnd_segments * MSS)
        self.ssthresh = float("inf")
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.stats = TCPStats()

    # ------------------------------------------------------------------
    @property
    def rto(self) -> float:
        """RFC 6298 with the Linux 200 ms floor."""
        if self.srtt is None:
            return max(MIN_RTO, 1.0)
        return max(MIN_RTO, self.srtt + 4 * self.rttvar)

    def _update_rtt(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample

    def _on_timeout(self, flight: float) -> None:
        self.ssthresh = max(2 * MSS, flight / 2)
        self.cwnd = float(MSS)

    def _grow_cwnd(self) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd *= 2  # slow start: double per RTT round
        else:
            self.cwnd += MSS  # congestion avoidance: +1 MSS per RTT
        # Cap at what path buffering can hold.
        cap = self.path.bdp_bytes + self.path.queue_capacity_bytes
        self.cwnd = min(self.cwnd, cap)

    # ------------------------------------------------------------------
    def run(self):
        """The sender process; one iteration per window flight."""
        env, path, stats = self.env, self.path, self.stats
        if self.start_time > env.now:
            yield env.timeout(self.start_time - env.now)
        remaining = self.total_bytes
        while remaining > 0:
            flight = min(self.cwnd, float(remaining))
            sent_at = env.now
            stats.cwnd_series.append((sent_at, self.cwnd))

            serialization = 8.0 * flight / path.share_bps
            nominal_rtt = path.base_rtt + path.queue_delay(flight)
            # Window-limited rounds last one RTT; rate-limited rounds
            # last the serialization time (ACK clocking pipelines the
            # next window behind the first returning ACK).
            round_time = max(nominal_rtt, serialization)
            arrival = sent_at + path.base_rtt / 2 + serialization / 2

            # Does the flight land inside an interruption?
            interruption = path.interruption_at(arrival)
            if interruption is None:
                ack_at = sent_at + round_time
                lost = False
            elif interruption.kind is InterruptionKind.BUFFERED:
                # Held at the core; delivered when the stall ends.
                ack_at = interruption.end + nominal_rtt / 2
                lost = False
            else:
                ack_at = None
                lost = True

            if lost:
                # Genuine loss: wait out the RTO, then retransmit; the
                # retransmission itself may land in the same stall, so
                # it completes only after the interruption ends.
                timeout_at = sent_at + self.rto
                yield env.timeout(timeout_at - env.now)
                stats.genuine_timeouts += 1
                stats.retransmissions += int(flight // MSS) or 1
                self._on_timeout(flight)
                resume = max(env.now, interruption.end)
                yield env.timeout(resume - env.now)
                continue  # retransmit the same data in the next round

            if interruption is None:
                rtt_observed = nominal_rtt
            else:
                rtt_observed = ack_at - sent_at
            stats.rtt_series.append((sent_at, rtt_observed))

            if rtt_observed > self.rto:
                # Spurious timeout: the data is merely delayed, but the
                # sender cannot know.  It retransmits and collapses
                # cwnd at RTO expiry, then the original ACK arrives.
                timeout_at = sent_at + self.rto
                yield env.timeout(timeout_at - env.now)
                stats.spurious_timeouts += 1
                stats.retransmissions += int(flight // MSS) or 1
                self._on_timeout(flight)
                yield env.timeout(max(0.0, ack_at - env.now))
            else:
                yield env.timeout(max(0.0, ack_at - env.now))
                self._update_rtt(rtt_observed)
                self._grow_cwnd()

            delivered = int(flight)
            stats.bytes_acked += delivered
            stats.delivery_series.append((ack_at - path.base_rtt / 2, delivered))
            remaining -= delivered
        stats.completed_at = env.now
