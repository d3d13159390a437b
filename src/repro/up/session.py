"""UPF session contexts and the dual-keyed session table.

§3.2: "Using shared Hugepages, we maintain two hash tables for storing
the pointer to a user session context.  The keys for these two tables
are TEID and UE IP to differentiate UL and DL traffic respectively.
Each user session context stores a number of different rule sets in
shared memory, e.g., PDRs and FARs."

The session context owns its PDR classifier (pluggable: linear / TSS /
PartitionSort) and the smart buffer.  Every rule mutation ends in one
publish call that bumps a :class:`~repro.up.flow_cache.RuleEpoch`, so
the UPF-U's flow cache self-invalidates without scanning — the
zero-cost state update, extended to the cache layer.
"""

from __future__ import annotations

import abc
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Type

from ..analysis import races as _races  # repro: noqa[W004] -- race-detector hooks, no-ops unless a detector is installed
from ..classifier.base import Classifier
from ..classifier.partition_sort import PartitionSortClassifier
from ..net.packet import Packet
from .buffer import DEFAULT_UPF_BUFFER_PACKETS, SmartBuffer
from .flow_cache import RuleEpoch
from .keys import packet_key, packet_keys
from .qos import QerEnforcer, UsageCounter
from .rules import FAR, PDR

__all__ = [
    "packet_key",
    "packet_keys",
    "UPFSession",
    "SessionTable",
    "SessionTableView",
]

#: The QoS maps of a session without QERs or URRs: one shared read-only
#: empty mapping, swapped for the session's own dict on the first
#: install.  A write that skips the install fails instead of reaching
#: every session.
_NONE_INSTALLED: Mapping = MappingProxyType({})


class _DetachedEpoch(RuleEpoch):
    """The epoch of a session no table holds: its bump refuses."""

    __slots__ = ()

    def bump(self) -> int:
        raise RuntimeError("rule write on a session no table holds")


#: Bound by :meth:`SessionTable.remove`, rebound by the next
#: :meth:`SessionTable.add`: every rule mutator ends in a bump, so a
#: removed session refuses rule writes until a table holds it again.
DETACHED_EPOCH: RuleEpoch = _DetachedEpoch()


class UPFSession:
    """One PDU session's user-plane state (§3.2's session context).

    The UPF-C writes the rule sets, the UPF-U reads them per packet and
    owns the runtime state (smart buffer, report-pending flag); both
    hold this one object, found through the :class:`SessionTable`'s two
    hash tables.  The attribute set is closed (``__slots__``): per-
    session state is declared here or it does not exist.

    Parameters
    ----------
    seid:
        PFCP session endpoint id.
    ue_ip:
        The UE's allocated IPv4 (integer) — the DL hash key.
    ul_teid:
        Uplink tunnel endpoint at the UPF — the UL hash key.
    classifier_class:
        Which PDR lookup structure this session uses (PDR-PS in
        L25GC, PDR-LL in the 3GPP baseline).
    """

    __slots__ = (
        "seid",
        "ue_ip",
        "ul_teid",
        "classifier",
        "pdrs",
        "fars",
        "qer_enforcers",
        "usage_counters",
        "epoch",
        "buffer",
        "_report_pending",
    )

    def __init__(
        self,
        seid: int,
        ue_ip: int,
        ul_teid: int,
        classifier_class: Type[Classifier] = PartitionSortClassifier,
        buffer_capacity: int = DEFAULT_UPF_BUFFER_PACKETS,
    ):
        self.seid = seid
        self.ue_ip = ue_ip
        self.ul_teid = ul_teid
        #: The PDR lookup structure (PDI match fields live inside).
        self.classifier: Classifier = classifier_class()
        self.pdrs: Dict[int, PDR] = {}
        self.fars: Dict[int, FAR] = {}
        #: Installed QoS enforcers (gate + MBR policer), by QER id.
        self.qer_enforcers: Mapping[int, QerEnforcer] = _NONE_INSTALLED
        #: Installed usage counters, by URR id.
        self.usage_counters: Mapping[int, UsageCounter] = _NONE_INSTALLED
        #: Rule-mutation epoch; rebound to the table's shared epoch by
        #: :meth:`SessionTable.add` so one counter covers all sessions,
        #: and to :data:`DETACHED_EPOCH` by :meth:`SessionTable.remove`.
        self.epoch = RuleEpoch()
        self.buffer = SmartBuffer(buffer_capacity)
        #: Set while the CP has been notified of buffered DL data and
        #: paging is in flight (suppresses duplicate reports).
        self._report_pending = False
        detector = _races.active()
        if detector is not None:
            # §3.2 single-writer split: the UPF-C owns the rule sets,
            # the UPF-U owns the runtime state (buffer, report flag).
            detector.register(
                self,
                label=f"session(seid={seid})",
                owner="upf-c",
                parts={"report_pending": "upf-u"},
            )
            detector.register(
                self.buffer,
                label=f"session(seid={seid}).buffer",
                owner="upf-u",
            )

    @property
    def report_pending(self) -> bool:
        return self._report_pending

    @report_pending.setter
    def report_pending(self, value: bool) -> None:
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_write(
                self,
                "report_pending",
                value=value,
                detail=f"report_pending = {value}",
            )
        self._report_pending = value

    # -- rule management ----------------------------------------------------
    def install_pdr(self, pdr: PDR) -> None:
        """Install or replace a PDR; the classifier stores the same
        object, so ``pdrs`` is the one index by id."""
        existing = self.pdrs.get(pdr.pdr_id)
        if existing is not None:
            self.classifier.remove(existing)
        self.pdrs[pdr.pdr_id] = pdr
        self.classifier.insert(pdr)
        self._publish("pdrs", self.pdrs, f"install_pdr({pdr.pdr_id})")

    def remove_pdr(self, pdr_id: int) -> bool:
        pdr = self.pdrs.pop(pdr_id, None)
        if pdr is None:
            return False
        self.classifier.remove(pdr)
        self._publish("pdrs", self.pdrs, f"remove_pdr({pdr_id})")
        return True

    def install_far(self, far: FAR) -> None:
        self.fars[far.far_id] = far
        self._publish("fars", self.fars, f"install_far({far.far_id})")

    def update_far(self, far: FAR) -> None:
        """Merge an Update FAR into the existing rule.

        PFCP updates are partial: an update without forwarding
        parameters keeps the previous outer header (that is how the
        paging re-activation retains the gNB endpoint).
        """
        existing = self.fars.get(far.far_id)
        if existing is None:
            self.fars[far.far_id] = far
        else:
            existing.forward = far.forward
            existing.buffer = far.buffer
            existing.drop = far.drop
            existing.notify_cp = far.notify_cp
            if far.outer_teid is not None:
                existing.outer_teid = far.outer_teid
                existing.outer_address = far.outer_address
                existing.destination_interface = far.destination_interface
        self._publish("fars", self.fars, f"update_far({far.far_id})")

    def install_qer_enforcer(self, enforcer: "QerEnforcer") -> None:
        if self.qer_enforcers is _NONE_INSTALLED:
            self.qer_enforcers = {}
        self.qer_enforcers[enforcer.qer_id] = enforcer
        self._publish(
            "qer_enforcers",
            sorted(self.qer_enforcers),
            f"install_qer_enforcer({enforcer.qer_id})",
        )

    def install_usage_counter(self, counter: "UsageCounter") -> None:
        if self.usage_counters is _NONE_INSTALLED:
            self.usage_counters = {}
        self.usage_counters[counter.urr_id] = counter
        self._publish(
            "usage_counters",
            sorted(self.usage_counters),
            f"install_usage_counter({counter.urr_id})",
        )

    def _publish(self, part: str, value, detail: str) -> None:
        """Publish a rule write: the race-detector note and the epoch
        bump are one call, so a mutator cannot drop either alone.  On
        a removed session the bump raises :class:`RuntimeError`."""
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_write(self, part, value=value, detail=detail)
        self.epoch.bump()

    # -- lookup ---------------------------------------------------------------
    def match_pdr(self, packet: Packet, key=None) -> Optional[PDR]:
        """Classify a packet against this session's PDRs.

        ``key`` accepts a pre-built classification key so callers that
        already derived it (the flow-cache miss path) don't pay the
        20-field build twice.
        """
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_read(self, "pdrs")
        if key is None:
            key = packet_key(packet)
        return self.classifier.lookup(key)


class SessionTableView(abc.ABC):
    """What the UPF-C needs from a session store.

    The single-UPF deployment hands the control plane a plain
    :class:`SessionTable`; the sharded deployment hands it a router
    that places each session on the shard its RSS bucket maps to.  The
    PFCP handlers are written against this interface, so establish /
    modify / delete are shard-agnostic.
    """

    @abc.abstractmethod
    def add(self, session: UPFSession) -> None:
        """Install a new session (duplicate keys raise ValueError)."""

    @abc.abstractmethod
    def remove(self, seid: int) -> Optional[UPFSession]:
        """Remove and return a session, or None if unknown.

        The returned session refuses rule writes (``RuntimeError``)
        until a table adds it again.
        """

    @abc.abstractmethod
    def by_seid(self, seid: int) -> Optional[UPFSession]:
        """N4 lookup: PFCP messages address sessions by SEID."""

    @abc.abstractmethod
    def by_teid(self, teid: int) -> Optional[UPFSession]:
        """UL lookup: which session owns this tunnel endpoint?"""

    @abc.abstractmethod
    def by_ue_ip(self, ue_ip: int) -> Optional[UPFSession]:
        """DL lookup: which session owns this UE address?"""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Active session count."""

    @abc.abstractmethod
    def sessions(self) -> List[UPFSession]:
        """All active sessions (snapshot list)."""

    @abc.abstractmethod
    def add_removal_listener(
        self, listener: Callable[[UPFSession], None]
    ) -> None:
        """Register a callback invoked with each removed session."""


class SessionIndex(NamedTuple):
    """The data path's read-only view of the two hash tables.

    Each field is a dict's bound ``get``: a probe is one C call and
    carries no race-detector hook (the pipeline records its own read).
    """

    by_teid: Callable[[int], Optional[UPFSession]]
    by_ue_ip: Callable[[int], Optional[UPFSession]]


class SessionTable(SessionTableView):
    """The UPF's dual hash tables: TEID -> session, UE IP -> session.

    Both point at the same :class:`UPFSession` the SEID map (N4
    addressing) holds.  :meth:`by_teid` / :meth:`by_ue_ip` are the
    control-plane lookups and record a race-detector membership read;
    the UPF-U pipeline probes :attr:`index` instead.

    The table owns the shared rule-mutation :attr:`epoch` consulted by
    the UPF-U's flow cache; membership changes bump it, and sessions
    adopt it on :meth:`add` so their rule mutations bump it too.
    :meth:`remove` detaches the session (:data:`DETACHED_EPOCH`), so a
    rule write on it raises instead of reaching no data path.
    """

    def __init__(self) -> None:
        self._by_seid: Dict[int, UPFSession] = {}
        self._teid_index: Dict[int, UPFSession] = {}
        self._ue_ip_index: Dict[int, UPFSession] = {}
        #: What the UPF-U probes per packet.
        self.index = SessionIndex(
            self._teid_index.get, self._ue_ip_index.get
        )
        # Pinned by the frozen benchmarks/e2e/layers.py (ROADMAP item 1).
        self.hot_store = self.index
        #: Shared generation counter for epoch-based cache invalidation.
        self.epoch = RuleEpoch()
        self._removal_listeners: List[Callable[[UPFSession], None]] = []
        detector = _races.active()
        if detector is not None:
            # Membership is control-plane state: only the UPF-C adds
            # or removes sessions; the UPF-U performs lookups.
            detector.register(self, label="session-table", owner="upf-c")

    def add_removal_listener(
        self, listener: Callable[[UPFSession], None]
    ) -> None:
        """Register a callback invoked with each removed session."""
        self._removal_listeners.append(listener)

    def add(self, session: UPFSession) -> None:
        if session.seid in self._by_seid:
            raise ValueError(f"duplicate SEID {session.seid}")
        if session.ul_teid in self._teid_index:
            raise ValueError(f"duplicate UL TEID {session.ul_teid}")
        if session.ue_ip in self._ue_ip_index:
            raise ValueError(f"duplicate UE IP {session.ue_ip}")
        # Every key checked before any map is touched: a failed add
        # leaves the table unchanged.
        self._by_seid[session.seid] = session
        self._teid_index[session.ul_teid] = session
        self._ue_ip_index[session.ue_ip] = session
        # Adopt the shared epoch: any later rule change on this session
        # invalidates the whole cache with one integer bump.
        session.epoch = self.epoch
        self._publish(f"add(seid={session.seid})")

    def remove(self, seid: int) -> Optional[UPFSession]:
        session = self._by_seid.pop(seid, None)
        if session is None:
            return None
        del self._teid_index[session.ul_teid]
        del self._ue_ip_index[session.ue_ip]
        session.epoch = DETACHED_EPOCH
        self._publish(f"remove(seid={seid})")
        for listener in self._removal_listeners:
            listener(session)
        return session

    def _publish(self, detail: str) -> None:
        """Publish a membership change: race-detector note, then bump."""
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_write(
                self, "sessions", value=sorted(self._by_seid), detail=detail
            )
        self.epoch.bump()

    def by_teid(self, teid: int) -> Optional[UPFSession]:
        """UL lookup: which session owns this tunnel endpoint?"""
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_read(self, "sessions")
        return self._teid_index.get(teid)

    def by_ue_ip(self, ue_ip: int) -> Optional[UPFSession]:
        """DL lookup: which session owns this UE address?"""
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_read(self, "sessions")
        return self._ue_ip_index.get(ue_ip)

    def by_seid(self, seid: int) -> Optional[UPFSession]:
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_read(self, "sessions")
        return self._by_seid.get(seid)

    def __len__(self) -> int:
        return len(self._by_seid)

    def sessions(self) -> List[UPFSession]:
        return list(self._by_seid.values())
