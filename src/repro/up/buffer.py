"""Smart buffering at the UPF (§3.3).

The UPF already buffers downlink packets for paging; L25GC reuses that
machinery for handover.  The buffer is session-scoped ("to avoid
interference from other sessions, L25GC implements a 3GPP compliant
session-based buffering") and guarantees in-order release.

The default capacity of 3000 packets matches the paper's §5.4.2 setup;
overflow is tail-drop and counted, which the failure/handover
experiments compare against the gNB's smaller 1300-packet buffer.
"""

from __future__ import annotations

from typing import List

from ..analysis import races as _races  # repro: noqa[W004] -- race-detector hooks, no-ops unless a detector is installed
from ..net.packet import Packet

__all__ = ["SmartBuffer", "DEFAULT_UPF_BUFFER_PACKETS"]

#: The paper's experiments use a 3K-packet buffer at the UPF.
DEFAULT_UPF_BUFFER_PACKETS = 3000


class SmartBuffer:
    """A bounded in-order packet buffer for one PDU session."""

    __slots__ = (
        "capacity", "_packets", "buffered_total", "dropped", "drained_total",
    )

    def __init__(self, capacity: int = DEFAULT_UPF_BUFFER_PACKETS):
        if capacity <= 0:
            raise ValueError(f"buffer capacity must be positive: {capacity}")
        self.capacity = capacity
        self._packets: List[Packet] = []
        self.buffered_total = 0
        self.dropped = 0
        self.drained_total = 0

    def __len__(self) -> int:
        return len(self._packets)

    def push(self, packet: Packet) -> bool:
        """Buffer a packet; False (and counted) when full.

        The race-detector hook fires only *after* the capacity check
        admits the packet: a tail-drop mutates drop accounting, not
        ``packets``, and recording a phantom ``packets`` write would
        make a full-buffer storm look like a cross-role data race.
        """
        if len(self._packets) >= self.capacity:
            self.dropped += 1
            return False
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_write(
                self, "packets", value=len(self._packets) + 1, detail="push"
            )
        self._packets.append(packet)
        self.buffered_total += 1
        return True

    def drain(self) -> List[Packet]:
        """Release all packets in arrival order."""
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_write(self, "packets", value=0, detail="drain")
        released = self._packets
        self._packets = []
        self.drained_total += len(released)
        return released
