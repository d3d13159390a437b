"""The gNodeB model, including its limited downlink buffer.

The paper estimates macro-cell base stations buffer about 2 MB
(~1300 full-MTU packets) per radio-connected UE (§2.3, challenge 2).
During a 3GPP-style handover the *source* gNB must buffer in-flight
downlink packets and later hairpin them back through the 5GC to the
target gNB — precisely the path L25GC's smart buffering at the UPF
avoids.  The buffer here is a real bounded queue with tail drop, so the
packet-loss arithmetic of §5.4.2 (Eq. 1) emerges from the model.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..net.packet import Packet
from ..sim.engine import Environment
from ..sim.queues import Store
from .ue import UserEquipment

__all__ = ["GNodeB", "DEFAULT_GNB_BUFFER_PACKETS"]

#: ~2 MB of full-MTU packets per radio-connected UE (paper estimate).
DEFAULT_GNB_BUFFER_PACKETS = 1300


class GNodeB:
    """A 5G base station.

    Parameters
    ----------
    env:
        Simulation environment.
    gnb_id:
        NGAP global gNB id.
    address:
        N3 IPv4 address (integer) for GTP tunnels.
    buffer_packets:
        DL buffer capacity per UE during handover.
    radio_latency:
        One-way UE<->gNB air latency for data packets.
    """

    def __init__(
        self,
        env: Environment,
        gnb_id: int,
        address: int,
        buffer_packets: int = DEFAULT_GNB_BUFFER_PACKETS,
        radio_latency: float = 0.5e-3,
        max_ues: Optional[int] = None,
    ):
        self.env = env
        self.gnb_id = gnb_id
        self.address = address
        self.radio_latency = radio_latency
        #: Admission control: refuse handover preparation when full
        #: (None = unlimited).
        self.max_ues = max_ues
        self.connected: Dict[str, UserEquipment] = {}
        self._buffers: Dict[str, Store] = {}
        self._buffer_capacity = buffer_packets
        self._next_dl_teid = gnb_id * 10000 + 1
        self.delivered = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    # RRC / attachment
    # ------------------------------------------------------------------
    def can_admit(self, ue: UserEquipment) -> bool:
        """Admission control for handover preparation."""
        if ue.supi in self.connected:
            return True
        return self.max_ues is None or len(self.connected) < self.max_ues

    def connect(self, ue: UserEquipment) -> None:
        """Radio-resource connect a UE to this cell."""
        self.connected[ue.supi] = ue

    def disconnect(self, ue: UserEquipment) -> None:
        """Detach the UE's radio connection.

        Any handover buffer is retained: the 3GPP flow forwards it
        indirectly after the UE has left (see :meth:`drain_buffer`).
        """
        self.connected.pop(ue.supi, None)

    def allocate_dl_teid(self) -> int:
        """A fresh DL tunnel endpoint for a PDU session or handover."""
        teid = self._next_dl_teid
        self._next_dl_teid += 1
        return teid

    # ------------------------------------------------------------------
    # Downlink data
    # ------------------------------------------------------------------
    def start_buffering(self, ue: UserEquipment) -> None:
        """Begin buffering DL packets for a UE (3GPP handover mode)."""
        self._buffers.setdefault(
            ue.supi, Store(self.env, capacity=self._buffer_capacity)
        )

    def receive_downlink(self, packet: Packet, ue: UserEquipment) -> None:
        """A DL packet arrived from the UPF over N3.

        Buffering mode queues it (tail drop — the limited gNB buffer of
        challenge 2); otherwise it goes over the air to the UE.
        """
        store = self._buffers.get(ue.supi)
        if store is not None:
            if not store.put_nowait_drop(packet):
                self.dropped += 1
            return
        self.env.call_together(self.radio_latency, self._air_delivery, packet, ue)

    def drain_buffer(self, ue: UserEquipment) -> List[Packet]:
        """Release all buffered packets for hairpin forwarding.

        In the 3GPP flow the source gNB sends these back through the
        core to the target gNB; the caller owns the onward routing.
        """
        store = self._buffers.pop(ue.supi, None)
        if store is None:
            return []
        return store.clear()

    def _air_delivery(self, packet: Packet, ue: UserEquipment) -> None:
        """The packet reaches the far end of the air hop."""
        if ue.supi in self.connected:
            ue.deliver(packet, self.env.now)
            self.delivered += 1
        else:
            # The UE left mid-flight (handover race): the packet is lost.
            self.dropped += 1

    def __repr__(self) -> str:
        return (
            f"GNodeB(id={self.gnb_id}, ues={len(self.connected)}, "
            f"buffers={list(self._buffers)})"
        )
