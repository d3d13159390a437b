"""QoS enforcement and usage metering in the UPF-U.

Implements the data-plane side of QERs (gates and MBR policing via a
token bucket) and URRs (volume counting with threshold-triggered usage
reports) — the per-flow treatment the paper's challenge 3 says must be
"tightly integrated into the data plane" to keep performance.

The token bucket is a real algorithm running on simulated time: tokens
refill continuously at the MBR; a packet that cannot draw its size in
tokens is policed (dropped), exactly like a single-rate policer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..net.packet import Direction, Packet

__all__ = ["TokenBucket", "QerEnforcer", "UsageCounter"]


class TokenBucket:
    """A single-rate token-bucket policer on simulated time.

    Parameters
    ----------
    rate_bps:
        Refill rate in bits/second.
    burst_bytes:
        Bucket depth; defaults to 100 ms worth of the rate.
    """

    def __init__(self, rate_bps: float, burst_bytes: Optional[float] = None):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive: {rate_bps!r}")
        self.rate_bps = rate_bps
        self.burst_bytes = (
            burst_bytes if burst_bytes is not None else rate_bps / 8 * 0.1
        )
        if self.burst_bytes <= 0:
            raise ValueError("burst must be positive")
        self._tokens = self.burst_bytes
        self._last_refill = 0.0

    def _refill(self, now: float) -> None:
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(
                self.burst_bytes,
                self._tokens + elapsed * self.rate_bps / 8.0,
            )
            self._last_refill = now

    def admit(self, size_bytes: int, now: float) -> bool:
        """True if the packet conforms; draws tokens when it does."""
        self._refill(now)
        if self._tokens >= size_bytes:
            self._tokens -= size_bytes
            return True
        return False


@dataclass
class QerEnforcer:
    """Runtime state of one installed QER."""

    qer_id: int
    qfi: int = 9
    ul_gate_open: bool = True
    dl_gate_open: bool = True
    ul_bucket: Optional[TokenBucket] = None
    dl_bucket: Optional[TokenBucket] = None
    policed_packets: int = 0
    gated_packets: int = 0

    def admit(self, packet: Packet, now: float) -> bool:
        """Gate + MBR check for one packet."""
        if packet.direction is Direction.UPLINK:
            gate_open, bucket = self.ul_gate_open, self.ul_bucket
        else:
            gate_open, bucket = self.dl_gate_open, self.dl_bucket
        if not gate_open:
            self.gated_packets += 1
            return False
        if bucket is not None and not bucket.admit(packet.size, now):
            self.policed_packets += 1
            return False
        return True


@dataclass
class UsageCounter:
    """Runtime state of one installed URR (volume measurement)."""

    urr_id: int
    volume_threshold_bytes: Optional[int] = None
    uplink_bytes: int = 0
    downlink_bytes: int = 0
    reports_raised: int = 0
    #: Bytes at the time of the last raised report.  Internal
    #: bookkeeping: kept out of ``__init__``/``repr``/equality so two
    #: counters with the same configured rule and public totals compare
    #: equal regardless of report timing.
    _reported_at_bytes: int = field(
        init=False, repr=False, compare=False, default=0
    )

    @property
    def total_bytes(self) -> int:
        return self.uplink_bytes + self.downlink_bytes

    def account(self, packet: Packet) -> bool:
        """Count a packet; True when a usage report is due.

        A report is due each time the volume since the previous report
        crosses the threshold (TS 29.244 volume-threshold trigger).
        """
        if packet.direction is Direction.UPLINK:
            self.uplink_bytes += packet.size
        else:
            self.downlink_bytes += packet.size
        if self.volume_threshold_bytes is None:
            return False
        if (
            self.total_bytes - self._reported_at_bytes
            >= self.volume_threshold_bytes
        ):
            self._reported_at_bytes = self.total_bytes
            self.reports_raised += 1
            return True
        return False
