"""N3IWF: the Non-3GPP InterWorking Function.

The paper highlights free5GC's support for non-3GPP access (§2.2): IoT
devices on WiFi reach the core through an N3IWF, authenticating with
EAP-AKA', "without being restricted to the licensed spectrum and
production base stations".

The N3IWF terminates IKEv2/IPsec towards the UE and presents itself to
the core exactly like a gNB: N2 (NGAP) towards the AMF and N3 (GTP-U)
towards the UPF.  This class duck-types :class:`~repro.ran.gnb.GNodeB`
for the data path while adding the IPsec tunnel bookkeeping (one signal
SA per UE, one child SA per PDU session) and the ESP overhead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from ..net.packet import Packet
from ..sim.engine import Environment
from .ue import UserEquipment

__all__ = ["IPsecSA", "N3IWF"]

#: ESP + outer IP overhead per tunneled packet (bytes).
ESP_OVERHEAD = 73


@dataclass
class IPsecSA:
    """One IPsec security association."""

    spi: int
    ue_supi: str
    #: None = the signalling SA (IKE/NAS); int = child SA for that
    #: PDU session.
    pdu_session_id: Optional[int] = None
    established_at: float = 0.0
    packets: int = 0


class N3IWF:
    """A non-3GPP interworking function instance.

    Parameters
    ----------
    env:
        Simulation environment.
    n3iwf_id:
        Identifier in the RAN-node id space (disjoint from gNB ids).
    address:
        N3 IPv4 address for GTP tunnels with the UPF.
    wifi_latency:
        One-way UE<->N3IWF latency across the WiFi/untrusted leg
        (substantially above a gNB's radio leg).
    ipsec_overhead:
        Per-packet ESP processing time at the N3IWF.
    """

    def __init__(
        self,
        env: Environment,
        n3iwf_id: int,
        address: int,
        wifi_latency: float = 4e-3,
        ipsec_overhead: float = 15e-6,
    ):
        self.env = env
        self.n3iwf_id = n3iwf_id
        self.gnb_id = n3iwf_id  # RAN-node id alias for the AMF's tables
        self.address = address
        self.wifi_latency = wifi_latency
        self.ipsec_overhead = ipsec_overhead
        self.connected: Dict[str, UserEquipment] = {}
        self._sas: Dict[int, IPsecSA] = {}
        self._spi_counter = itertools.count(0x100)
        self._next_dl_teid = n3iwf_id * 10000 + 1
        self.delivered = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    # IKE / IPsec
    # ------------------------------------------------------------------
    def establish_signalling_sa(self, ue: UserEquipment) -> IPsecSA:
        """The IKE SA carrying NAS over IPsec (after EAP-AKA')."""
        sa = IPsecSA(
            spi=next(self._spi_counter),
            ue_supi=ue.supi,
            established_at=self.env.now,
        )
        self._sas[sa.spi] = sa
        self.connected[ue.supi] = ue
        return sa

    def establish_child_sa(
        self, ue: UserEquipment, pdu_session_id: int
    ) -> IPsecSA:
        """A child SA carrying one PDU session's user plane."""
        if ue.supi not in self.connected:
            raise RuntimeError(f"{ue.supi}: no signalling SA")
        sa = IPsecSA(
            spi=next(self._spi_counter),
            ue_supi=ue.supi,
            pdu_session_id=pdu_session_id,
            established_at=self.env.now,
        )
        self._sas[sa.spi] = sa
        return sa

    def sa_for(
        self, ue_supi: str, pdu_session_id: Optional[int]
    ) -> Optional[IPsecSA]:
        for sa in self._sas.values():
            if sa.ue_supi == ue_supi and sa.pdu_session_id == pdu_session_id:
                return sa
        return None

    def release_ue(self, ue: UserEquipment) -> int:
        """Tear down every SA of a UE; returns how many were removed."""
        doomed = [
            spi for spi, sa in self._sas.items() if sa.ue_supi == ue.supi
        ]
        for spi in doomed:
            del self._sas[spi]
        self.connected.pop(ue.supi, None)
        return len(doomed)

    # ------------------------------------------------------------------
    # gNB-compatible interface (used by the core's DL routing)
    # ------------------------------------------------------------------
    def connect(self, ue: UserEquipment) -> None:
        self.connected[ue.supi] = ue

    def disconnect(self, ue: UserEquipment) -> None:
        self.release_ue(ue)

    def allocate_dl_teid(self) -> int:
        teid = self._next_dl_teid
        self._next_dl_teid += 1
        return teid

    def receive_downlink(self, packet: Packet, ue: UserEquipment) -> None:
        """ESP-encapsulate and carry the packet over the WiFi leg."""
        sa = self.sa_for(ue.supi, packet.meta.get("pdu_session_id", 1))
        if sa is None:
            sa = self.sa_for(ue.supi, None)
        if sa is None or ue.supi not in self.connected:
            self.dropped += 1
            return
        sa.packets += 1
        packet.meta["esp_spi"] = sa.spi
        packet.size += ESP_OVERHEAD
        delay = self.ipsec_overhead + self.wifi_latency
        self.env.call_together(delay, self._wifi_delivery, packet, ue)

    def _wifi_delivery(self, packet: Packet, ue: UserEquipment) -> None:
        if ue.supi in self.connected:
            ue.deliver(packet, self.env.now)
            self.delivered += 1
        else:
            self.dropped += 1

    def __repr__(self) -> str:
        return (
            f"N3IWF(id={self.n3iwf_id}, ues={len(self.connected)}, "
            f"sas={len(self._sas)})"
        )
