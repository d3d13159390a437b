"""UPF-U: the user-plane forwarding pipeline.

The data-plane half of the factored UPF (§3.2).  For every packet it
performs the session lookup (TEID for uplink, UE IP for downlink), the
PDR classification, and the FAR action: forward (with GTP-U
encapsulation towards the RAN or decapsulation towards the DN), buffer
(paging / smart handover), or drop.  A FAR with NOCP raises a downlink
data notification towards the UPF-C exactly once per buffering episode.

The pipeline is usable in two ways:

* *direct*: ``process(packet)`` — used by the throughput/latency
  experiments, which account CPU time via the cost model;
* *platform*: as a :class:`~repro.core.nf.NetworkFunction` on the NF
  manager's rings, for end-to-end integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional

from ..analysis import races as _races  # repro: noqa[W004] -- race-detector hooks, no-ops unless a detector is installed
from ..core.costs import DEFAULT_COSTS, CostModel
from ..core.nf import NetworkFunction
from ..core.pool import Descriptor
from ..net.packet import Direction, Packet
from ..obs import spans as _tracing  # repro: noqa[W004] -- tracing is off-path: span emission is gated on tracer is None
from ..obs.metrics import MetricsRegistry  # repro: noqa[W004] -- counters only; registry import has no per-packet cost
from ..pfcp import ies as pfcp_ies
from .flow_cache import DEFAULT_FLOW_CACHE_CAPACITY, FlowCache
from .keys import packet_key, packet_keys
from .qos import QerEnforcer, UsageCounter
from .rules import FAR, PDR
from .session import SessionTable, UPFSession

__all__ = ["ForwardingStats", "UPFUserPlane"]


@dataclass
class ForwardingStats:
    """Counters the experiments read."""

    forwarded_ul: int = 0
    forwarded_dl: int = 0
    buffered: int = 0
    dropped_no_session: int = 0
    dropped_no_pdr: int = 0
    dropped_action: int = 0
    dropped_buffer_full: int = 0
    dropped_qos: int = 0
    notifications: int = 0
    usage_reports: int = 0

    @property
    def forwarded(self) -> int:
        return self.forwarded_ul + self.forwarded_dl

    @property
    def dropped(self) -> int:
        return (
            self.dropped_no_session
            + self.dropped_no_pdr
            + self.dropped_action
            + self.dropped_buffer_full
            + self.dropped_qos
        )

    def register_into(
        self, registry: MetricsRegistry, prefix: str = "upf_u"
    ) -> None:
        """Export every counter (and the derived sums) as live gauges.

        Callback-backed gauges keep this dataclass the storage and the
        registry a view — the experiments keep reading plain ints.
        """
        for spec in fields(self):
            registry.gauge(f"{prefix}.{spec.name}").set_function(
                lambda name=spec.name: getattr(self, name)
            )
        registry.gauge(f"{prefix}.forwarded").set_function(
            lambda: self.forwarded
        )
        registry.gauge(f"{prefix}.dropped").set_function(lambda: self.dropped)


class UPFUserPlane(NetworkFunction):
    """The forwarding NF.

    Parameters
    ----------
    sessions:
        The shared session table (also visible to the UPF-C — that is
        the zero-cost state update of §3.2).
    uplink_sink:
        Called with each decapsulated UL packet headed to the DN.
    downlink_sink:
        Called with ``(packet, teid, gnb_address)`` for each DL packet
        after GTP-U encapsulation towards a gNB.
    notify_cp:
        Called with the session when a buffered DL packet requires a
        downlink data report (paging trigger).
    fast_path:
        True for L25GC's DPDK pipeline, False for the kernel baseline —
        selects the per-packet cost in :meth:`processing_time`.
    flow_cache:
        True enables the exact-match flow cache: a flow's first packet
        runs the full match pipeline and memoizes the decision; later
        packets resolve with one probe.  QER/URR still run per packet,
        so cache-on and cache-off produce identical stats and outcomes.
    flow_cache_capacity:
        Bound on cached flows.  Once it is full, one miss in 32 is
        cached, evicting by CLOCK (:mod:`repro.up.flow_cache`).
    burst_size:
        Packets processed per burst.  1 (the default) keeps the
        one-packet-per-call platform path; >1 sets the ring drain size
        and routes each drained batch through ``handle_burst`` →
        :meth:`process_burst`.  Both run the same per-packet pipeline,
        so the knob trades per-call overhead, not semantics.
    """

    #: Kernel skb backlog other active sessions pin in the shared
    #: buffer memory when buffering is not session-scoped (free5GC).
    #: With four 10 Kpps sessions this shrinks the 3K buffer below the
    #: ~2 K packets a handover accumulates, reproducing Table 2's
    #: expt-ii drops (43 in the paper, zero for L25GC).
    SHARED_BACKLOG_PER_SESSION = 335

    def __init__(
        self,
        env,
        sessions: SessionTable,
        service_id: int = 2,
        name: str = "upf-u",
        instance_id: int = 0,
        uplink_sink: Optional[Callable[[Packet], None]] = None,
        downlink_sink: Optional[Callable[[Packet, int, int], None]] = None,
        notify_cp: Optional[Callable[[UPFSession], None]] = None,
        fast_path: bool = True,
        session_scoped_buffering: bool = True,
        costs: CostModel = DEFAULT_COSTS,
        flow_cache: bool = False,
        flow_cache_capacity: int = DEFAULT_FLOW_CACHE_CAPACITY,
        burst_size: int = 1,
    ):
        if burst_size < 1:
            raise ValueError(f"burst_size must be >= 1: {burst_size!r}")
        super().__init__(
            env, name, service_id, instance_id=instance_id, costs=costs
        )
        self.sessions = sessions
        #: Exact-match microflow cache (None when disabled).
        self.flow_cache: Optional[FlowCache] = (
            FlowCache(sessions.epoch, capacity=flow_cache_capacity)
            if flow_cache
            else None
        )
        sessions.add_removal_listener(self._on_session_removed)
        self.uplink_sink = uplink_sink or (lambda packet: None)
        self.downlink_sink = downlink_sink or (
            lambda packet, teid, address: None
        )
        self.notify_cp = notify_cp or (lambda session: None)
        #: Called with (session, usage counter) when a URR volume
        #: threshold trips; the UPF-C turns it into a usage report.
        self.usage_report_sink: Callable = lambda session, counter: None
        self.fast_path = fast_path
        #: L25GC buffers per session (§3.3); free5GC's buffering shares
        #: memory with the per-session kernel backlog, so concurrent
        #: sessions shrink the capacity available to a handover.
        self.session_scoped_buffering = session_scoped_buffering
        #: Packets drained and processed per platform poll; >1 routes
        #: polled batches through :meth:`handle_burst`.
        self.burst_size = burst_size
        if burst_size > 1:
            self.burst_mode = True
            self.burst = burst_size
        self.stats = ForwardingStats()
        #: ``per_packet_cost(fast_path, size)`` by packet size: the value
        #: the cost model returns, so simulated time is bit-identical
        #: (``costs`` and ``fast_path`` are not changed after set-up).
        self._packet_cost: Dict[int, float] = {}
        #: Absolute time each session's drain completes (serial
        #: re-injection of buffered packets); packets arriving before
        #: then queue behind the drain.
        self._drain_until: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Direct API
    # ------------------------------------------------------------------
    def process(self, packet: Packet) -> str:
        """Run the full match-action pipeline on one packet.

        Returns the outcome label (``forwarded-ul``, ``drop-qos``, ...)
        so harnesses can compare per-packet behaviour across
        configurations.

        With tracing on, the packet gets a ``upf-u.pipeline`` span with
        per-stage instants (flow-cache probe, session lookup, PDR
        match, FAR apply) and a final ``outcome`` attribute — the
        per-stage attribution the 5GC²ache-style analyses need.  With
        tracing off the pipeline runs the exact same statements.
        """
        detector = _races._ACTIVE
        if detector is None:
            return self._pipeline(packet, None, _tracing._ACTIVE)
        with detector.role("upf-u"):
            return self._pipeline(packet, None, _tracing._ACTIVE)

    def _pipeline(
        self,
        packet: Packet,
        key,
        tracer: Optional["_tracing.Tracer"],
    ) -> str:
        """The one match-action implementation, in one frame.

        ``key`` is the packet's classification key when the caller has
        already built it (:meth:`process_burst`, via ``packet_keys``).
        ``None`` means "not built": the cache-on path builds it here,
        except for a TEID-less UL packet, whose key would alias TEID 0
        — that packet bypasses the cache and stays ``None``.

        A cache hit and the slow path resolve the same five locals
        (session, PDR, FAR, QER enforcer, URR counter); one apply block
        then acts on them.  ``tracer`` is the active tracer or None,
        read once by the caller.
        """
        session: Optional[UPFSession]
        pdr: Optional[PDR]
        far: Optional[FAR]
        enforcer: Optional[QerEnforcer]
        counter: Optional[UsageCounter]
        if tracer is not None:
            span = tracer.start_span(
                "upf-u.pipeline",
                category="packet",
                parent=tracer.context_of(packet) or tracer.current,
                direction=packet.direction.name.lower(),
                size=packet.size,
            )
        stats = self.stats
        cache = self.flow_cache
        entry = None
        if cache is not None and (
            key is not None
            or packet.direction is not Direction.UPLINK
            or packet.teid is not None
        ):
            # Fast path: one exact-match probe replaces session lookup,
            # key build (reused below on miss), classifier walk, and
            # the FAR/QER/URR dict resolution.
            if key is None:
                key = packet_key(packet)
            entry = cache.lookup(key)
            if tracer is not None:
                tracer.instant(
                    "flow-cache", parent=span, hit=entry is not None
                )
        if entry is not None:
            session, pdr, far = entry.session, entry.pdr, entry.far
            enforcer, counter = entry.enforcer, entry.counter
        else:
            # The data-path session lookup (§3.2): TEID for UL, UE IP
            # for DL, probing the table's index; the race-detector read
            # is recorded against the table, the owner of membership.
            detector = _races._ACTIVE
            if detector is not None:
                detector.on_read(self.sessions, "sessions")
            if packet.direction is Direction.UPLINK:
                teid = packet.teid
                session = (
                    None if teid is None
                    else self.sessions.index.by_teid(teid)
                )
            else:
                session = self.sessions.index.by_ue_ip(packet.flow.dst_ip)
            if tracer is not None:
                tracer.instant(
                    "session-lookup", parent=span, hit=session is not None
                )
            if session is None:
                stats.dropped_no_session += 1
                if tracer is not None:
                    tracer.end_span(span, outcome="drop-no-session")
                return "drop-no-session"
            pdr = session.match_pdr(packet, key=key)
            if tracer is not None:
                tracer.instant(
                    "pdr-match", parent=span, matched=pdr is not None
                )
            if pdr is None:
                stats.dropped_no_pdr += 1
                if tracer is not None:
                    tracer.end_span(span, outcome="drop-no-pdr")
                return "drop-no-pdr"
            if detector is not None:
                detector.on_read(session, "fars")
            far = session.fars.get(pdr.far_id)
            if far is None:
                stats.dropped_no_pdr += 1
                if tracer is not None:
                    tracer.end_span(span, outcome="drop-no-far")
                return "drop-no-far"
            enforcer = (
                session.qer_enforcers.get(pdr.qer_id)
                if pdr.qer_id is not None
                else None
            )
            counter = (
                session.usage_counters.get(pdr.urr_id)
                if pdr.urr_id is not None
                else None
            )
            if key is not None and cache is not None:
                # Memoize the decision only — never the QER/URR
                # verdicts, which are per-packet by nature.
                cache.insert(key, session, pdr, far, enforcer, counter)
        # Apply the decision.  A FAR holds its action, so its fields
        # are read with no hop.  QoS enforcement (QER: gate + MBR token
        # bucket) runs before any forwarding or buffering decision,
        # then usage metering (URR) counts the packet; both verdicts
        # are per packet and never cached.
        if far.drop:
            stats.dropped_action += 1
            outcome = "drop-action"
        elif enforcer is not None and not enforcer.admit(
            packet, self.env.now
        ):
            stats.dropped_qos += 1
            outcome = "drop-qos"
        else:
            if counter is not None and counter.account(packet):
                stats.usage_reports += 1
                self.usage_report_sink(session, counter)
            if far.buffer:
                outcome = self._buffer(packet, session, far)
            elif not far.forward:
                stats.dropped_action += 1
                outcome = "drop-action"
            elif far.destination_interface == pfcp_ies.ACCESS:
                # Downlink: encapsulate towards the gNB.  The drain map
                # is empty between drains (entries expire), so the
                # steady state pays a truth test, not a call.
                if far.outer_teid is None or far.outer_address is None:
                    stats.dropped_action += 1
                    outcome = "drop-action"
                elif self._drain_until and not self._admit_behind_drain(
                    packet, session
                ):
                    outcome = "drop-buffer-full"
                else:
                    packet.teid = far.outer_teid
                    stats.forwarded_dl += 1
                    self.downlink_sink(
                        packet, far.outer_teid, far.outer_address
                    )
                    outcome = "forwarded-dl"
            else:
                # Uplink: outer header already removed by the PDR; to DN.
                if pdr.outer_header_removal:
                    packet.teid = None
                stats.forwarded_ul += 1
                self.uplink_sink(packet)
                outcome = "forwarded-ul"
        if tracer is not None:
            tracer.instant("far-apply", parent=span, outcome=outcome)
            tracer.end_span(span, outcome=outcome)
        return outcome

    def _buffer(self, packet: Packet, session: UPFSession, far: FAR) -> str:
        """A BUFF FAR: queue the packet in the session's buffer and, for
        NOCP, raise one downlink data notification per episode."""
        stats = self.stats
        if len(session.buffer) >= self._effective_capacity(session):
            session.buffer.dropped += 1
            stats.dropped_buffer_full += 1
            outcome = "drop-buffer-full"
        elif session.buffer.push(packet):
            stats.buffered += 1
            outcome = "buffered"
        else:
            stats.dropped_buffer_full += 1
            outcome = "drop-buffer-full"
        if far.notify_cp and not session.report_pending:
            session.report_pending = True
            stats.notifications += 1
            self.notify_cp(session)
        return outcome

    # ------------------------------------------------------------------
    # Burst API
    # ------------------------------------------------------------------
    def process_burst(self, packets) -> list:
        """Run the pipeline over a whole burst, in arrival order.

        ``[self.process(p) for p in packets]`` with the per-call
        overhead taken out: one race-detector role, one tracer read
        and one vectorized key build (``packet_keys``) per burst, then
        :meth:`_pipeline` once per packet with its pre-built key.  Each
        packet is probed, resolved and applied before the next one is
        looked at, so a rule mutation landing mid-burst (a notify-CP or
        usage-report callback) is seen by the remaining packets exactly
        as one-at-a-time processing would see it — there is no second
        implementation to keep equivalent (DESIGN §12).

        Each element of ``packets`` must be a distinct packet object;
        processing the same object twice in one burst is unsupported
        (keys are built once, before any application mutates
        ``packet.teid``).
        """
        detector = _races._ACTIVE
        if detector is None:
            return self._process_burst(packets)
        with detector.role("upf-u"):
            return self._process_burst(packets)

    def _process_burst(self, packets) -> list:
        tracer = _tracing._ACTIVE
        return [  # repro: noqa[W001] -- the outcomes list, one per burst, amortized over burst_size packets
            self._pipeline(packet, key, tracer)
            for packet, key in zip(packets, packet_keys(packets))
        ]

    def _on_session_removed(self, session: UPFSession) -> None:
        """SessionTable removal hook: drop per-session pipeline state.

        Without this, ``_drain_until`` entries (and cached flow
        decisions pinning the session context) leaked for every
        session the UPF-C deleted.  The purge runs logically in the
        UPF-U (the listener models the removal signal it receives), so
        it executes under the "upf-u" role.
        """
        self._drain_until.pop(session.seid, None)
        if self.flow_cache is not None:
            detector = _races._ACTIVE
            if detector is None:
                self.flow_cache.purge_session(session)
            else:
                with detector.role("upf-u"):
                    self.flow_cache.purge_session(session)

    # ------------------------------------------------------------------
    # Buffer release (invoked by the UPF-C on FAR transitions)
    # ------------------------------------------------------------------
    def _reinject_cost(self) -> float:
        return self.costs.buffer_reinject(
            self.fast_path, max(1, len(self.sessions))
        )

    def _effective_capacity(self, session: UPFSession) -> int:
        """Buffer slots available to this session's drain queue.

        Session-scoped buffering (L25GC) gets the full capacity; the
        shared free5GC buffer loses a backlog share to every other
        active session — the cross-session interference §3.3 calls out.
        """
        capacity = session.buffer.capacity
        if self.session_scoped_buffering:
            return capacity
        others = max(0, len(self.sessions) - 1)
        return max(0, capacity - others * self.SHARED_BACKLOG_PER_SESSION)

    def _admit_behind_drain(
        self, packet: Packet, session: UPFSession
    ) -> bool:
        """Queue a forwarded packet behind an in-progress drain.

        Buffered packets re-inject serially; packets arriving before
        the drain completes wait their turn (extending it).  Returns
        False (and counts a drop) when the drain queue exceeds the
        effective buffer capacity.
        """
        drain_until = self._drain_until.get(session.seid)
        if drain_until is None:
            return True
        now = self.env.now
        if drain_until <= now:
            del self._drain_until[session.seid]  # drain over: expire it
            return True
        reinject = self._reinject_cost()
        backlog = (drain_until - now) / reinject
        if backlog >= self._effective_capacity(session):
            self.stats.dropped_buffer_full += 1
            session.buffer.dropped += 1
            return False
        self._drain_until[session.seid] = drain_until + reinject
        packet.meta["extra_delay"] = drain_until + reinject - now
        return True

    def flush_session(self, session: UPFSession) -> int:
        """Forward a session's buffered DL packets in order.

        Returns the number of packets released.  Called when a FAR
        flips from BUFF to FORW (paging complete, handover complete).
        Draining is not free: each buffered packet is re-injected
        serially (see :meth:`CostModel.buffer_reinject`), and traffic
        arriving during the drain queues behind it.

        The UPF-C triggers the flush, but the drain itself is UPF-U
        work (the real system signals the forwarding process), so it
        executes under the "upf-u" role.
        """
        detector = _races._ACTIVE
        if detector is None:
            return self._flush_session(session)
        with detector.role("upf-u"):
            return self._flush_session(session)

    def _flush_session(self, session: UPFSession) -> int:
        far = self._downlink_far(session)
        released = session.buffer.drain()
        # Either exit ends the buffering episode: the next one must
        # notify the CP (page the UE) again.
        session.report_pending = False
        if far is None or far.outer_teid is None:
            self.stats.dropped_action += len(released)
            return 0
        reinject = self._reinject_cost()
        now = self.env.now
        start = max(now, self._drain_until.get(session.seid, now))
        for position, packet in enumerate(released):
            packet.teid = far.outer_teid
            packet.meta["extra_delay"] = (
                start + (position + 1) * reinject - now
            )
            self.stats.forwarded_dl += 1
            self.downlink_sink(
                packet, far.outer_teid, far.outer_address
            )
        self._drain_until[session.seid] = start + len(released) * reinject
        tracer = _tracing.active()
        if tracer is not None:
            # The drain's extent is known analytically (serial
            # re-injection), so the span is recorded post hoc without
            # scheduling any simulation event.
            tracer.add_span(
                "buffer-drain",
                start=now,
                end=start + len(released) * reinject,
                category="drain",
                seid=session.seid,
                released=len(released),
            )
        return len(released)

    def _downlink_far(self, session: UPFSession) -> Optional[FAR]:
        for pdr in session.pdrs.values():
            if pdr.source_interface == pfcp_ies.CORE:
                return session.fars.get(pdr.far_id)
        return None

    # ------------------------------------------------------------------
    # Platform integration
    # ------------------------------------------------------------------
    def processing_time(self, descriptor: Descriptor) -> float:
        packet = descriptor.payload
        size = packet.size if isinstance(packet, Packet) else 64
        cost = self._packet_cost.get(size)
        if cost is None:
            cost = self.costs.per_packet_cost(self.fast_path, size)
            self._packet_cost[size] = cost
        return cost

    def handle(self, descriptor: Descriptor):
        packet = descriptor.payload
        if isinstance(packet, Packet):
            self.process(packet)
        descriptor.free()
        return ()

    def handle_burst(self, descriptors):
        """Platform burst path: one :meth:`process_burst` per poll, then
        the batch goes back to the pool in one ``free_burst`` call.

        The run loop has already charged the batch's summed processing
        time, so the whole burst executes at a single simulation
        instant — no yields inside (a yield would make this a generator,
        and every test that drives a burst through it would fail).
        """
        packets = [  # repro: noqa[W001] -- one payload list per burst for process_burst, amortized over burst_size descriptors
            descriptor.payload
            for descriptor in descriptors
            if isinstance(descriptor.payload, Packet)
        ]
        if packets:
            self.process_burst(packets)
        self.pool.free_burst(descriptors)
        return ()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def register_into(self, registry: MetricsRegistry) -> None:
        """Export the forwarding stats, both rings and the flow cache as
        live views (the sharded facade has the same method)."""
        self.stats.register_into(registry)
        self.rx_ring.register_into(registry)
        self.tx_ring.register_into(registry)
        if self.flow_cache is not None:
            self.flow_cache.register_into(registry)
