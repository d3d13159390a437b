"""Calibrated per-operation cost model.

Every latency constant the simulation uses lives here, in one place,
with its provenance.  The experiment harnesses *derive* event completion
times from 3GPP message sequences plus these constants — they never
hard-code the paper's headline numbers.

Calibration anchors (L25GC paper, SIGCOMM'22 §5):

* Base data-plane RTT through the core: 116 us (free5GC, kernel gtp5g)
  vs. 25 us (L25GC, DPDK poll mode) — Table 1.
* 68-byte unidirectional forwarding: L25GC reaches 10G line rate
  (~14.9 Mpps) on one core, 27x free5GC (~0.55 Mpps) — Fig 10(a).
* SBI message exchange over shared memory is on average 13x faster than
  over HTTP/REST (Fig 9).  The derived one-way costs here are
  ~3.68 ms (HTTP/JSON, including free5GC's per-call client/NRF
  machinery) vs ~0.27 ms (descriptor passing through the cGO shim),
  a 13.5x ratio.
* A PFCP exchange over shared memory is 21-39 % faster than over a
  kernel UDP socket (Fig 7); the PFCP handler (rule install) dominates
  and is common to both systems, so the ratio is far from 13x.
* Paging completes in 59 ms (free5GC) vs 28 ms (L25GC); an N2 handover
  in 227 ms vs 130 ms (Tables 1-2).  At 10 Kpps these durations also
  fix the number of packets that see inflated RTTs (~608/294 for
  paging, ~2301/1437 for handover), which is how we validate the
  procedure message sequences end to end.
* Failure detection < 0.5 ms; re-route 2 ms; state replay 3 ms (§5.5.1).

All times are in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..sim.engine import MS, US

__all__ = ["Channel", "CostModel", "DEFAULT_COSTS"]


class Channel(Enum):
    """Inter-NF communication channels the model distinguishes."""

    #: HTTP/REST + JSON over kernel TCP sockets (vanilla free5GC SBI).
    HTTP_JSON = "http-json"
    #: HTTP/2 + Protobuf over kernel TCP sockets (Buyakar et al.).
    HTTP_PROTOBUF = "http-protobuf"
    #: Kernel sockets + FlatBuffers (Neutrino-style serialization).
    HTTP_FLATBUFFERS = "http-flatbuffers"
    #: PFCP TLVs over a kernel UDP socket (free5GC N4).
    UDP_PFCP = "udp-pfcp"
    #: Shared-memory descriptor passing (L25GC SBI and N4).
    SHARED_MEMORY = "shm"
    #: NGAP over SCTP to the gNB (identical in both systems).
    SCTP_NGAP = "sctp-ngap"


@dataclass
class CostModel:
    """Per-operation latency constants (seconds).

    Instances are immutable in spirit: derive a variant with
    ``dataclasses.replace`` rather than mutating the shared
    :data:`DEFAULT_COSTS`.
    """

    # ------------------------------------------------------------------
    # Kernel-path building blocks
    # ------------------------------------------------------------------
    #: One system call (send/recv) entry+exit.
    syscall: float = 2.0 * US
    #: One process/goroutine context switch (socket wakeup).
    context_switch: float = 10.0 * US
    #: Copy cost per byte crossing the user/kernel boundary.
    copy_per_byte: float = 0.8e-9
    #: TCP/IP stack traversal per segment (one direction).
    tcp_stack: float = 30.0 * US
    #: UDP stack traversal per datagram (one direction).
    udp_stack: float = 40.0 * US
    #: HTTP/2 framing, header processing, mux routing (Go net/http).
    http_processing: float = 350.0 * US
    #: Per-REST-call client machinery in free5GC: OpenAPI client
    #: construction, NRF-backed service resolution cache checks,
    #: connection management.  Dominates the HTTP one-way cost.
    rest_client_overhead: float = 2900.0 * US

    # ------------------------------------------------------------------
    # Serialization (per typical control message, ~1-2 KB JSON body)
    # ------------------------------------------------------------------
    #: Encode a message to JSON (Go encoding/json, reflection-based).
    json_serialize: float = 150.0 * US
    #: Decode a message from JSON.
    json_deserialize: float = 190.0 * US
    #: Protobuf encode/decode are ~4x cheaper than JSON.
    protobuf_serialize: float = 40.0 * US
    protobuf_deserialize: float = 50.0 * US
    #: FlatBuffers: near-zero decode, moderate encode.
    flatbuffers_serialize: float = 45.0 * US
    flatbuffers_deserialize: float = 4.0 * US

    # ------------------------------------------------------------------
    # Shared-memory path (OpenNetVM descriptor passing)
    # ------------------------------------------------------------------
    #: Enqueue or dequeue one descriptor on an Rx/Tx ring.
    ring_op: float = 0.15 * US
    #: NF manager routing a descriptor between two NF rings.
    manager_dispatch: float = 0.6 * US
    #: Polling pickup delay (poll-mode NFs spin; effectively the batch
    #: interval at which a descriptor is noticed).
    poll_interval: float = 2.0 * US
    #: Crossing the cGO shim between the Golang NF logic and the DPDK
    #: rings, plus Go-scheduler handoff — paid once per shm message.
    #: This is why Fig 9's speedup is 13x rather than 1000x.
    go_shim_overhead: float = 270.0 * US

    # ------------------------------------------------------------------
    # PFCP (N4) costs
    # ------------------------------------------------------------------
    #: PFCP TLV encode of a session message (go-pfcp scale; session
    #: establishment carries dozens of nested IEs).
    pfcp_encode: float = 200.0 * US
    #: PFCP TLV decode of a session message.
    pfcp_decode: float = 260.0 * US
    #: Default PFCP handler work in the UPF-C (rule install/update),
    #: identical for both systems (dominates Fig 7's totals).  Message
    #: types override this: establishment 650 us, modification 450 us,
    #: report 200 us (see repro.pfcp.messages).
    pfcp_handler: float = 450.0 * US

    # ------------------------------------------------------------------
    # Control-plane handler processing (identical in both systems)
    # ------------------------------------------------------------------
    #: Generic NF handler processing per control message (state machine
    #: transition, context lookup).
    handler_processing: float = 0.8 * MS
    #: AMF/AUSF NAS security handler (auth vector generation, 5G-AKA).
    auth_processing: float = 6.0 * MS
    #: UDM/UDR subscriber data fetch (MongoDB access in free5GC).
    subscription_fetch: float = 5.0 * MS
    #: UDM SUCI de-concealment (ECIES) during registration.
    suci_deconcealment: float = 6.0 * MS
    #: UE-side NAS processing per N1 exchange (USIM ops, NAS security).
    ue_nas_processing: float = 3.0 * MS
    #: PCF policy decision per association.
    policy_decision: float = 4.0 * MS
    #: SMF session setup work (UE IP allocation, context creation).
    smf_context_setup: float = 4.0 * MS
    #: DN-side session authorization (DN-AAA / IP configuration) during
    #: PDU session establishment; independent of the SBI transport.
    dn_authorization: float = 8.0 * MS
    #: gNB-side processing of an NGAP request (resource setup etc.).
    gnb_processing: float = 1.5 * MS

    # ------------------------------------------------------------------
    # RAN-side legs (identical in both systems)
    # ------------------------------------------------------------------
    #: NGAP message over the SCTP association, one way.
    sctp_message: float = 550.0 * US
    #: UE<->gNB radio leg for an RRC message exchange (mmWave-era).
    radio_message: float = 1.5 * MS
    #: UE synchronization with the target gNB during handover (random
    #: access, RRC reconfiguration complete, timing advance) — the big
    #: system-independent chunk of the 130 ms L25GC handover.
    radio_sync: float = 85.0 * MS
    #: UE wake-up from idle upon a page (DRX latency, modeled mean).
    paging_wakeup: float = 8.0 * MS

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    #: Fixed per-packet CPU cost, kernel gtp5g path (interrupt, skb,
    #: netfilter traversal, GTP module).
    kernel_per_packet: float = 1.70 * US
    #: Additional kernel per-byte copy cost on the forwarding path.
    kernel_per_byte: float = 1.5e-9
    #: Fixed per-packet CPU cost, DPDK poll-mode zero-copy path.
    dpdk_per_packet: float = 0.066 * US
    #: DPDK per-byte cost beyond one cache-lined mbuf segment; small
    #: packets are pure descriptor work (line rate at 64-68 B on one
    #: core), large packets pay memory bandwidth (~13 Gbps/core at
    #: MTU, giving the paper's 28 Gbps at 2 cores / 40 Gbps at 4).
    dpdk_per_byte: float = 0.68e-9
    #: Bytes covered by the fixed DPDK cost (one mbuf segment).
    dpdk_byte_threshold: int = 256
    #: Portion of the fixed DPDK per-packet cost spent in the match
    #: pipeline a flow-cache hit skips: dual-hash session lookup, the
    #: 20-field key walk through the PDR classifier, and the FAR/QER/
    #: URR resolution (5GC²ache's attribution: classification is ~1/3
    #: of the per-packet budget at small rule counts).
    dpdk_match_cost: float = 0.024 * US
    #: Kernel-path equivalent (gtp5g hash over skb fields + rule list
    #: walk under the RCU read lock).
    kernel_match_cost: float = 0.45 * US
    #: One probe of the exact-match flow cache: a single hash + tag
    #: compare over the cached decision, like OVS's EMC hit.
    flow_cache_probe: float = 0.006 * US
    #: Fixed per-poll overhead of the DPDK burst path (ring doorbell,
    #: descriptor prefetch, poll bookkeeping), amortized over the
    #: packets of one burst.  The calibrated per-packet constants
    #: already include this overhead divided by
    #: :attr:`calibrated_burst_size`, matching the 32-packet bursts
    #: the paper's numbers were measured at.
    dpdk_burst_overhead: float = 0.12 * US
    #: The kernel path has no burst lever: each packet pays the full
    #: softirq/NAPI traversal regardless of batching upstream.
    kernel_burst_overhead: float = 0.0
    #: Burst size the per-packet constants were calibrated at.
    calibrated_burst_size: int = 32
    #: Floor for any amortized per-packet cost (seconds).  A configured
    #: ``dpdk_burst_overhead`` larger than the calibrated share could
    #: otherwise drive :meth:`burst_per_packet_cost` to zero or below
    #: at ``burst_size > calibrated_burst_size``, and the derived rate
    #: would divide by a non-positive cost.
    min_per_packet_cost: float = 0.001 * US
    #: One-way forwarding latency through the kernel UPF (interrupt
    #: coalescing, softirq scheduling) excluding queueing.  Two
    #: traversals give Table 1's 116 us base RTT.
    kernel_forward_latency: float = 57.0 * US
    #: One-way forwarding latency through the DPDK UPF (two traversals
    #: give the ~25 us base RTT).
    dpdk_forward_latency: float = 11.0 * US
    #: Per-hop wire propagation inside the testbed LAN.
    lan_propagation: float = 1.0 * US
    #: Re-injecting one *buffered* packet into the forwarding path.
    #: free5GC holds paging/HO buffers in the userspace UPF adapter and
    #: re-injects through the kernel (copy + syscall per packet); the
    #: shared-memory UPF just re-queues descriptors.  This is why
    #: free5GC's post-event RTT exceeds the event time by tens of ms
    #: (Tables 1-2) while L25GC's barely moves.
    kernel_buffer_reinject: float = 6.5 * US
    dpdk_buffer_reinject: float = 0.6 * US
    #: Forwarding-latency inflation per additional concurrently active
    #: session (softirq contention in the kernel path; mild cache
    #: pressure in the poll-mode path) — calibrated to Table 2's
    #: expt-ii base RTTs (425 us vs 39 us at 4 sessions).
    kernel_multisession_factor: float = 0.9
    dpdk_multisession_factor: float = 0.2

    # ------------------------------------------------------------------
    # Cache hierarchy (5GC²ache: UPF throughput is cache-residency-bound)
    # ------------------------------------------------------------------
    #: Per-core L1d capacity (Ice Lake-class server core).
    l1_size_bytes: int = 48 * 1024
    #: Shared last-level cache capacity.
    llc_size_bytes: int = 32 * 1024 * 1024
    #: Load-to-use latency of an L1 hit (~4 cycles at 3 GHz+).
    l1_latency: float = 0.0013 * US
    #: Load-to-use latency of an LLC hit (~40 cycles).
    llc_latency: float = 0.014 * US
    #: Load-to-use latency of a DRAM access on an LLC miss.
    dram_latency: float = 0.090 * US
    #: Bytes of session state one packet's decision touches in the
    #: layout a C UPF keeps in hugepages (5GC²ache): one hash-bucket
    #: probe plus one packed 64 B decision record — a cache line.
    #: Modeled; the Python session table has no such layout.
    hot_record_bytes: int = 64
    #: Bytes the dict-of-objects layout drags through the hierarchy per
    #: decision: the hash bucket, the session object header and its
    #: attribute dict, interleaved with cold accounting/lifecycle
    #: fields that share the same lines.
    cold_session_bytes: int = 1024
    #: Dependent session-state references per forwarded packet (the
    #: index probe and the decision-record read serialize).
    state_refs_per_packet: float = 2.0

    # ------------------------------------------------------------------
    # Cache-hierarchy helpers (working-set-size -> hit-rate curve)
    # ------------------------------------------------------------------
    def cache_hit_rate(
        self, working_set_bytes: float, cache_size_bytes: float
    ) -> float:
        """Fraction of uniform-random state touches that hit a cache.

        The standard LRU/random-replacement approximation: a working
        set resident in the cache always hits; past capacity, the hit
        rate decays as the resident fraction ``size / working_set`` —
        which is exactly the ns/packet cliff 5GC²ache measures when the
        session working set overflows LLC.
        """
        if working_set_bytes <= 0:
            return 1.0
        if working_set_bytes <= cache_size_bytes:
            return 1.0
        return cache_size_bytes / working_set_bytes

    def session_state_working_set(
        self, sessions: int, hot_layout: bool = True
    ) -> float:
        """Bytes of per-packet-touched session state for ``sessions``."""
        per_session = (
            self.hot_record_bytes if hot_layout else self.cold_session_bytes
        )
        return float(max(0, sessions)) * per_session

    def state_access_latency(
        self, sessions: int, hot_layout: bool = True
    ) -> float:
        """Expected per-packet session-state access time (seconds).

        Each packet issues :attr:`state_refs_per_packet` dependent
        references into a working set spread uniformly over the active
        sessions; every reference resolves at the first level that
        holds the line (L1, then LLC, then DRAM).
        """
        working_set = self.session_state_working_set(sessions, hot_layout)
        p_l1 = self.cache_hit_rate(working_set, self.l1_size_bytes)
        p_llc = self.cache_hit_rate(working_set, self.llc_size_bytes)
        per_ref = (
            p_l1 * self.l1_latency
            + (p_llc - p_l1) * self.llc_latency
            + (1.0 - p_llc) * self.dram_latency
        )
        return self.state_refs_per_packet * per_ref

    def cache_aware_per_packet_cost(
        self,
        fast_path: bool,
        size: int,
        sessions: int,
        hot_layout: bool = True,
    ) -> float:
        """CPU time per packet with the session working set modeled.

        The calibrated :meth:`per_packet_cost` constants were measured
        with a single resident session (state effectively L1-hot), so
        the cache term contributes only the *delta* over that baseline.
        At small session counts this reproduces the headline numbers
        exactly; past LLC capacity the DRAM term dominates and the
        modeled rate falls off the 5GC²ache cliff — later for packed
        64 B decision records than for the dict-of-objects layout
        (~1 KB/session).
        """
        base = self.per_packet_cost(fast_path, size)
        calibrated = self.state_access_latency(1, hot_layout=True)
        delta = self.state_access_latency(sessions, hot_layout) - calibrated
        return max(base + delta, self.min_per_packet_cost)

    def cache_aware_forwarding_rate_pps(
        self,
        fast_path: bool,
        size: int,
        sessions: int,
        hot_layout: bool = True,
        cores: int = 1,
    ) -> float:
        """Max packets/second with ``sessions`` active sessions."""
        return cores / self.cache_aware_per_packet_cost(
            fast_path, size, sessions, hot_layout
        )

    # ------------------------------------------------------------------
    # Resiliency
    # ------------------------------------------------------------------
    #: Local replica synchronization (same-host shared memory), per event.
    local_sync: float = 5.0 * US
    #: Failure detection by the LB probe agent (S-BFD style).
    failure_detection: float = 0.45 * MS
    #: Re-routing traffic to the replica node after detection.
    reroute: float = 2.0 * MS
    #: State reconstruction by replaying logged packets (partially
    #: overlapping with re-route; modeled as the serial tail).
    replay: float = 3.0 * MS
    #: Unfreezing a cgroup-frozen replica process.
    unfreeze: float = 0.9 * MS
    #: Delta checkpoint transmission to the remote replica, per sync.
    checkpoint_send: float = 180.0 * US

    # ------------------------------------------------------------------
    # Derived per-message channel costs
    # ------------------------------------------------------------------
    def serialize_cost(self, channel: Channel) -> float:
        """Sender-side serialization cost for one control message."""
        if channel is Channel.HTTP_JSON:
            return self.json_serialize
        if channel is Channel.HTTP_PROTOBUF:
            return self.protobuf_serialize
        if channel is Channel.HTTP_FLATBUFFERS:
            return self.flatbuffers_serialize
        if channel is Channel.UDP_PFCP:
            return self.pfcp_encode
        return 0.0  # shared memory passes a flat descriptor

    def deserialize_cost(self, channel: Channel) -> float:
        """Receiver-side deserialization cost for one control message."""
        if channel is Channel.HTTP_JSON:
            return self.json_deserialize
        if channel is Channel.HTTP_PROTOBUF:
            return self.protobuf_deserialize
        if channel is Channel.HTTP_FLATBUFFERS:
            return self.flatbuffers_deserialize
        if channel is Channel.UDP_PFCP:
            return self.pfcp_decode
        return 0.0

    def protocol_cost(self, channel: Channel, size: int = 1024) -> float:
        """Kernel/protocol-stack cost of moving one message, one way."""
        copies = 2 * self.copy_per_byte * size  # user->kernel, kernel->user
        if channel in (
            Channel.HTTP_JSON,
            Channel.HTTP_PROTOBUF,
            Channel.HTTP_FLATBUFFERS,
        ):
            return (
                self.rest_client_overhead
                + self.http_processing
                + 2 * self.tcp_stack
                + 4 * self.syscall
                + 2 * self.context_switch
                + copies
            )
        if channel is Channel.UDP_PFCP:
            return (
                2 * self.udp_stack
                + 4 * self.syscall
                + 2 * self.context_switch
                + copies
            )
        if channel is Channel.SCTP_NGAP:
            return self.sctp_message
        # Shared memory: descriptor enqueue + manager dispatch + dequeue
        # + polling pickup + the cGO shim crossing.  No copies, no
        # serialization.
        return (
            2 * self.ring_op
            + self.manager_dispatch
            + self.poll_interval
            + self.go_shim_overhead
        )

    def message_cost(self, channel: Channel, size: int = 1024) -> float:
        """Total one-way cost of one control message on ``channel``.

        The sum of the three per-channel parts above, which stay the
        readable definition (the Fig 6/9 experiments call them one by
        one).  Per-message callers do not come here each time: a
        :class:`~repro.core.transport.MessageBus` keeps the value this
        returns in a ``(channel, size)`` table, so a cost model must
        not change once a bus has sent through it.
        """
        return (
            self.serialize_cost(channel)
            + self.protocol_cost(channel, size)
            + self.deserialize_cost(channel)
        )

    # ------------------------------------------------------------------
    # Data-plane rate helpers
    # ------------------------------------------------------------------
    def per_packet_cost(self, fast_path: bool, size: int) -> float:
        """CPU time to forward one packet of ``size`` wire bytes."""
        if fast_path:
            extra = max(0, size - self.dpdk_byte_threshold)
            return self.dpdk_per_packet + self.dpdk_per_byte * extra
        return self.kernel_per_packet + self.kernel_per_byte * size

    def forwarding_rate_pps(
        self, fast_path: bool, size: int, cores: int = 1
    ) -> float:
        """Max packets/second a UPF can forward with ``cores`` cores."""
        return cores / self.per_packet_cost(fast_path, size)

    def cached_lookup(self, fast_path: bool, size: int) -> float:
        """CPU time to forward one packet on a flow-cache *hit*.

        The match-pipeline share of the per-packet cost is replaced by
        a single exact-match probe; byte-movement costs are unchanged
        (the cache accelerates classification, not copies).
        """
        base = self.per_packet_cost(fast_path, size)
        saved = self.dpdk_match_cost if fast_path else self.kernel_match_cost
        return max(self.flow_cache_probe, base - saved + self.flow_cache_probe)

    def cached_forwarding_rate_pps(
        self, fast_path: bool, size: int, cores: int = 1
    ) -> float:
        """Max packets/second with every packet hitting the flow cache."""
        return cores / self.cached_lookup(fast_path, size)

    def burst_per_packet_cost(
        self, fast_path: bool, size: int, burst_size: int
    ) -> float:
        """CPU time per packet when the pipeline drains ``burst_size``
        packets per poll.

        The fixed per-poll overhead amortizes over the burst:
        ``burst_size == calibrated_burst_size`` reproduces
        :meth:`per_packet_cost` exactly (the calibration already bakes
        that share in), smaller bursts pay a larger share per packet,
        and burst 1 degenerates to one full poll overhead per packet.
        The kernel path is burst-insensitive by construction.
        """
        if burst_size < 1:
            raise ValueError(f"burst_size must be >= 1: {burst_size!r}")
        overhead = (
            self.dpdk_burst_overhead
            if fast_path
            else self.kernel_burst_overhead
        )
        cost = self.per_packet_cost(fast_path, size) + overhead * (
            1.0 / burst_size - 1.0 / self.calibrated_burst_size
        )
        # With burst_size > calibrated_burst_size the overhead term is
        # negative; a large configured overhead could push the modeled
        # cost to <= 0 (and the derived pps rate through a divide by
        # non-positive).  Physically the amortized cost can approach
        # but never reach zero, so clamp to the positive floor.
        return max(cost, self.min_per_packet_cost)

    def burst_forwarding_rate_pps(
        self, fast_path: bool, size: int, burst_size: int, cores: int = 1
    ) -> float:
        """Max packets/second at a given poll burst size."""
        return cores / self.burst_per_packet_cost(fast_path, size, burst_size)

    def forward_latency(self, fast_path: bool, active_sessions: int = 1) -> float:
        """One-way forwarding latency through the UPF, sans queueing."""
        base = (
            self.dpdk_forward_latency
            if fast_path
            else self.kernel_forward_latency
        )
        factor = (
            self.dpdk_multisession_factor
            if fast_path
            else self.kernel_multisession_factor
        )
        return base * (1.0 + factor * max(0, active_sessions - 1))

    def buffer_reinject(self, fast_path: bool, active_sessions: int = 1) -> float:
        """Per-packet cost of draining a smart buffer."""
        base = (
            self.dpdk_buffer_reinject
            if fast_path
            else self.kernel_buffer_reinject
        )
        factor = (
            self.dpdk_multisession_factor
            if fast_path
            else self.kernel_multisession_factor
        )
        return base * (1.0 + factor * max(0, active_sessions - 1))


#: The calibrated default cost model used throughout the reproduction.
DEFAULT_COSTS = CostModel()
