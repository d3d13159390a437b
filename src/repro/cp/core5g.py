"""Assembly of a complete 5G core: NFs, UPF, RAN, transports.

:class:`FiveGCore` wires the control-plane NFs, the factored UPF, the
gNBs and UEs onto a :class:`~repro.core.transport.MessageBus`.  The
:class:`SystemConfig` selects between the three systems the paper
evaluates — the shared-memory channels, fast-path forwarding, smart
handover buffering and the PDR classifier are all configuration, while
the 3GPP message sequences are identical across systems (that is the
paper's 3GPP-compliance claim).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from ..classifier.base import Classifier
from ..classifier.linear import LinearClassifier
from ..classifier.partition_sort import PartitionSortClassifier
from ..core.costs import DEFAULT_COSTS, Channel, CostModel
from ..core.transport import MessageBus
from ..deploy.sharded import ShardedUPFControlPlane, ShardedUserPlane
from ..net.addresses import AddressAllocator, ip_to_int
from ..net.packet import Direction, Packet
from ..obs.metrics import MetricsRegistry
from ..pfcp.messages import PFCPMessage, SessionReportRequest, SessionReportResponse
from ..ran.gnb import DEFAULT_GNB_BUFFER_PACKETS, GNodeB
from ..ran.ue import UserEquipment
from ..sbi.messages import NFDiscoveryRequest, NFDiscoveryResponse, SBIMessage
from ..sim.engine import Environment, Event
from ..up import (
    DEFAULT_UPF_BUFFER_PACKETS,
    SessionTable,
    UPFControlPlane,
    UPFUserPlane,
)
from .nfs import AMF, AUSF, NRF, PCF, SMF, UDM

__all__ = ["SystemConfig", "SYSTEMS", "FiveGCore"]


@dataclass
class SystemConfig:
    """Which of the paper's systems this core instance models."""

    name: str = "l25gc"
    #: SBI transport: HTTP/JSON (free5GC) or shared memory (L25GC).
    sbi_channel: Channel = Channel.SHARED_MEMORY
    #: N4 transport: UDP/PFCP (free5GC) or shared memory (L25GC).
    n4_channel: Channel = Channel.SHARED_MEMORY
    #: DPDK poll-mode forwarding (True) vs kernel gtp5g (False).
    fast_path: bool = True
    #: Buffer handover DL traffic at the UPF (L25GC §3.3) instead of
    #: the source gNB with hairpin routing (3GPP default).
    smart_handover_buffering: bool = True
    #: L25GC buffers per session (§3.3); free5GC's paging/HO buffer
    #: shares memory with other sessions' kernel backlog.
    session_scoped_buffering: bool = True
    #: PDR lookup structure for new sessions.
    classifier_class: Type[Classifier] = PartitionSortClassifier
    upf_buffer_packets: int = DEFAULT_UPF_BUFFER_PACKETS
    gnb_buffer_packets: int = DEFAULT_GNB_BUFFER_PACKETS
    #: Memoize the UPF-U per-packet decision in an exact-match flow
    #: cache (off by default: the paper's numbers are uncached).
    flow_cache: bool = False
    #: Independent UPF-U workers behind RSS dispatch (1 = the paper's
    #: single pipeline; >1 activates :mod:`repro.deploy.sharded`).
    upf_shards: int = 1
    #: Packets the UPF-U handles per burst (DPDK-style amortization):
    #: the ring drain / ``handle_burst`` batch and the ``inject_*_burst``
    #: chunk handed to ``process_burst``.  1 = one packet per call.
    #: Both run the same per-packet pipeline, so this only trades
    #: per-call overhead.
    burst_size: int = 1

    @classmethod
    def free5gc(cls) -> "SystemConfig":
        """Vanilla free5GC: kernel UPF, HTTP SBI, UDP PFCP, linear PDRs."""
        return cls(
            name="free5gc",
            sbi_channel=Channel.HTTP_JSON,
            n4_channel=Channel.UDP_PFCP,
            fast_path=False,
            smart_handover_buffering=False,
            session_scoped_buffering=False,
            classifier_class=LinearClassifier,
        )

    @classmethod
    def onvm_upf(cls) -> "SystemConfig":
        """The hybrid of Fig 8: ONVM data plane, free5GC control plane.

        Only the N4 interface rides shared memory; the SBI stays on
        HTTP/REST.
        """
        return cls(
            name="onvm-upf",
            sbi_channel=Channel.HTTP_JSON,
            n4_channel=Channel.SHARED_MEMORY,
            fast_path=True,
            smart_handover_buffering=False,
            session_scoped_buffering=True,
            classifier_class=LinearClassifier,
        )

    @classmethod
    def shm_sbi_only(cls) -> "SystemConfig":
        """Ablation point: shared-memory SBI but free5GC's N4 and data
        plane.  Not evaluated in the paper; isolates the SBI's share of
        the event-time reduction."""
        return cls(
            name="shm-sbi-only",
            sbi_channel=Channel.SHARED_MEMORY,
            n4_channel=Channel.UDP_PFCP,
            fast_path=False,
            smart_handover_buffering=False,
            session_scoped_buffering=False,
            classifier_class=LinearClassifier,
        )

    @classmethod
    def l25gc(cls) -> "SystemConfig":
        """The full L25GC: shared memory everywhere, PDR-PS, smart HO."""
        return cls(name="l25gc")


#: The three systems of the evaluation by name, in the paper's order.
SYSTEMS: Dict[str, Callable[[], SystemConfig]] = {
    "free5gc": SystemConfig.free5gc,
    "onvm-upf": SystemConfig.onvm_upf,
    "l25gc": SystemConfig.l25gc,
}


class FiveGCore:
    """One 5GC unit plus its RAN, ready to run procedures.

    Parameters
    ----------
    env:
        Simulation environment.
    config:
        System selection (see :class:`SystemConfig`).
    costs:
        The calibrated cost model.
    num_gnbs:
        gNBs instantiated up front (procedures reference them by id,
        starting at 1).
    """

    UPF_ADDRESS = ip_to_int("192.168.1.2")
    DN_ADDRESS = ip_to_int("8.8.8.8")

    def __init__(
        self,
        env: Environment,
        config: Optional[SystemConfig] = None,
        costs: CostModel = DEFAULT_COSTS,
        num_gnbs: int = 2,
    ):
        self.env = env
        self.config = config or SystemConfig.l25gc()
        self.costs = costs
        self.bus = MessageBus(
            env, costs, default_channel=self.config.sbi_channel
        )

        # Control-plane NFs.
        self.amf = AMF()
        self.smf = SMF()
        self.ausf = AUSF()
        self.udm = UDM()
        self.pcf = PCF()
        self.nrf = NRF()
        for nf in (self.amf, self.smf, self.ausf, self.udm, self.pcf, self.nrf):
            self.bus.register(nf.name, nf.handle_message)
            self.nrf.register_nf(nf.name.upper(), f"{nf.name}-inst-1", nf.name)

        # User plane: one pipeline, or N sharded workers behind RSS dispatch.
        if self.config.upf_shards > 1:
            self.upf_u = ShardedUserPlane(
                env,
                self.config.upf_shards,
                uplink_sink=self._uplink_to_dn,
                downlink_sink=self._downlink_to_ran,
                fast_path=self.config.fast_path,
                session_scoped_buffering=(
                    self.config.session_scoped_buffering
                ),
                flow_cache=self.config.flow_cache,
                burst_size=self.config.burst_size,
                costs=costs,
            )
            self.sessions = self.upf_u.sessions
            self.upf_c = ShardedUPFControlPlane(
                self.upf_u,
                address=self.UPF_ADDRESS,
                classifier_class=self.config.classifier_class,
                send_report=self._report_to_smf,
                buffer_capacity=self.config.upf_buffer_packets,
            )
        else:
            self.sessions = SessionTable()
            self.upf_u = UPFUserPlane(
                env,
                self.sessions,
                uplink_sink=self._uplink_to_dn,
                downlink_sink=self._downlink_to_ran,
                fast_path=self.config.fast_path,
                session_scoped_buffering=(
                    self.config.session_scoped_buffering
                ),
                flow_cache=self.config.flow_cache,
                burst_size=self.config.burst_size,
                costs=costs,
            )
            self.upf_c = UPFControlPlane(
                self.sessions,
                upf_u=self.upf_u,
                address=self.UPF_ADDRESS,
                classifier_class=self.config.classifier_class,
                send_report=self._report_to_smf,
                buffer_capacity=self.config.upf_buffer_packets,
            )
        self.upf_u.notify_cp = self.upf_c.on_buffered_data
        self.upf_u.usage_report_sink = self.upf_c.on_usage_threshold
        self.bus.register("upf-c", lambda message, bus: None)

        # RAN.
        self.gnbs: Dict[int, GNodeB] = {}
        for gnb_id in range(1, num_gnbs + 1):
            self.add_gnb(gnb_id)
        self.ues: Dict[str, UserEquipment] = {}
        self.bus.register("ran", lambda message, bus: None)

        self.ue_ip_pool = AddressAllocator("10.60.0.0", 16)
        #: DL routing: TEID -> (gNB, UE); kept by the procedures.
        self.dl_routes: Dict[int, Tuple[GNodeB, UserEquipment]] = {}
        #: DL packets the UPF-U forwarded to a TEID with no route.
        self.dl_unrouted = 0
        #: (session count, N3 delay at it); costs are fixed after first use.
        self._n3_delay: Tuple[int, float] = (-1, 0.0)
        self._session_count = self.sessions.size
        #: Packets that reached the data network (UL sink).
        self.dn_received: List[Packet] = []
        #: Called when a downlink data report arrives at the SMF
        #: (paging trigger); installed by the procedure runner.
        self.on_report: Optional[Callable[[SessionReportRequest], None]] = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_gnb(self, gnb_id: int) -> GNodeB:
        gnb = GNodeB(
            self.env,
            gnb_id=gnb_id,
            address=ip_to_int(f"192.168.2.{gnb_id}"),
            buffer_packets=self.config.gnb_buffer_packets,
        )
        self.gnbs[gnb_id] = gnb
        return gnb

    def add_n3iwf(self, n3iwf_id: int = 100):
        """Attach an N3IWF for non-3GPP (WiFi) access.

        It registers in the RAN-node table alongside the gNBs, so the
        standard procedures (session establishment, paging) work
        unchanged — exactly the paper's point about N3IWF access.
        """
        from ..ran.n3iwf import N3IWF

        if n3iwf_id in self.gnbs:
            raise ValueError(f"RAN node id {n3iwf_id} already in use")
        n3iwf = N3IWF(
            self.env,
            n3iwf_id=n3iwf_id,
            address=ip_to_int(f"192.168.3.{n3iwf_id % 250 + 1}"),
        )
        self.gnbs[n3iwf_id] = n3iwf  # duck-typed RAN node
        return n3iwf

    def add_ue(self, supi: str) -> UserEquipment:
        ue = UserEquipment(supi=supi)
        self.ues[supi] = ue
        self.udm.provision(supi)
        return ue

    # ------------------------------------------------------------------
    # Control-plane exchange helpers (generators for procedures)
    # ------------------------------------------------------------------
    def sbi_exchange(
        self,
        source: str,
        destination: str,
        request: SBIMessage,
        response: SBIMessage,
        request_handler_time: Optional[float] = None,
    ):
        """One SBI request/response, preceded by NRF discovery.

        free5GC's OpenAPI consumers do not cache producer profiles, so
        they consult the NRF per request; L25GC issues the same
        discovery exchange, only over shared memory.  Modelling it as an
        explicit exchange keeps the message counts honest for both.
        """
        yield self.bus.send(
            source,
            "nrf",
            NFDiscoveryRequest(
                target_nf_type=destination.upper(),
                requester_nf_type=source.upper(),
            ),
            size=512,
            handler_time=self.costs.handler_processing / 2,
            interface="sbi",
        )
        self.nrf.discover(destination.upper())
        yield self.bus.send(
            "nrf",
            source,
            NFDiscoveryResponse(),
            size=1500,
            handler_time=self.costs.handler_processing / 2,
            interface="sbi",
        )
        yield self.bus.send(
            source,
            destination,
            request,
            size=1024,
            handler_time=request_handler_time,
            interface="sbi",
        )
        yield self.bus.send(
            destination, source, response, size=768, interface="sbi"
        )
        return response

    def _n4_send(
        self, source: str, destination: str, message: PFCPMessage
    ) -> Event:
        """One N4 leg.  Shared memory passes the descriptor, so the
        message is only sized; the kernel-UDP baseline serialises it."""
        channel = self.config.n4_channel
        return self.bus.send(
            source,
            destination,
            message,
            channel=channel,
            size=(
                message.wire_size()
                if channel is Channel.SHARED_MEMORY
                else len(message.encode())
            ),
            handler_time=message.HANDLER_TIME,
            interface="n4",
        )

    def n4_exchange(self, message: PFCPMessage):
        """One PFCP request/response applied to the UPF-C.

        The request's rule changes take effect exactly when the UPF-C
        handler runs — ordering that matters for buffering/flush races.
        """
        yield self._n4_send("smf", "upf-c", message)
        response = self.upf_c.handle(message)
        yield self._n4_send("upf-c", "smf", response)
        return response

    def ngap_send(
        self, source: str, destination: str, message: Any,
        handler_time: Optional[float] = None,
    ) -> Event:
        """One NGAP message over SCTP (identical for all systems)."""
        return self.bus.send(
            source,
            destination,
            message,
            channel=Channel.SCTP_NGAP,
            size=getattr(message, "size", 256),
            handler_time=(
                handler_time
                if handler_time is not None
                else self.costs.handler_processing
            ),
            interface="ngap",
        )

    # ------------------------------------------------------------------
    # Data-plane plumbing
    # ------------------------------------------------------------------
    def _uplink_to_dn(self, packet: Packet) -> None:
        packet.delivered_at = self.env.now
        self.dn_received.append(packet)

    def _downlink_to_ran(self, packet: Packet, teid: int, address: int) -> None:
        route = self.dl_routes.get(teid)
        if route is None:
            self.dl_unrouted += 1
            return
        gnb, ue = route
        # N3 wire + forwarding latency of the selected data path,
        # inflated by concurrent-session contention; packets released
        # from (or queued behind) a buffer drain additionally carry the
        # extra delay the UPF-U computed.
        active, delay = self._n3_delay
        count = self._session_count()
        if active != count:
            delay = self.costs.forward_latency(
                self.config.fast_path, max(1, count)
            ) + self.costs.lan_propagation
            self._n3_delay = (count, delay)
        if packet.meta:
            delay += packet.meta.pop("extra_delay", 0.0)
        self.env.call_together(delay, gnb.receive_downlink_batch, (packet, ue))

    def _report_to_smf(self, report: SessionReportRequest) -> None:
        """UPF-C -> SMF downlink data report, then the paging hook."""

        def _notify():
            yield self._n4_send("upf-c", "smf", report)
            yield self._n4_send(
                "smf",
                "upf-c",
                SessionReportResponse(
                    seid=report.seid, sequence=report.sequence
                ),
            )
            if self.on_report is not None:
                self.on_report(report)

        self.env.process(_notify())

    # ------------------------------------------------------------------
    def metrics_registry(self) -> MetricsRegistry:
        """Assemble one registry over the core's live tallies.

        The bus tallies, the UPF-U rings and forwarding stats, and the
        session count are all registered as the *same* objects (or
        callback gauges over them) — a snapshot view, not a copy.
        """
        registry = MetricsRegistry()
        for metric in self.bus.metrics:
            registry.register(metric)
        # Either plane: the sharded facade adds per-shard series beside
        # aggregates under the names the single pipeline exports.
        self.upf_u.register_into(registry)
        registry.gauge("sessions.active").set_function(
            lambda: len(self.sessions)
        )
        registry.gauge("n3.dl_unrouted").set_function(lambda: self.dl_unrouted)
        return registry

    # ------------------------------------------------------------------
    def inject_downlink(self, packet: Packet) -> None:
        """A DL packet arrives from the DN at the UPF-U (N6)."""
        self.upf_u.process(packet)

    def inject_uplink(self, packet: Packet) -> None:
        """A UL packet arrives from a gNB at the UPF-U (N3)."""
        packet.direction = Direction.UPLINK
        self.upf_u.process(packet)

    def inject_downlink_burst(self, packets) -> list:
        """A DL burst arrives from the DN (N6), ``burst_size`` at a time."""
        burst_size = max(1, self.config.burst_size)
        outcomes: list = []
        for begin in range(0, len(packets), burst_size):
            outcomes.extend(
                self.upf_u.process_burst(packets[begin:begin + burst_size])
            )
        return outcomes
