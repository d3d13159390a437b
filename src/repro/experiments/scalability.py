"""Session-scalability and design-choice ablations.

The paper is candid that "L25GC's design is general, although the
current implementation supports a limited number of user sessions"
(§1, §3.2: the control plane supports two users; the data plane as
many as resources allow).  These ablations quantify where session
count actually bites in our reproduction:

* :func:`session_scale_sweep` — onboarding N UEs (registration + PDU
  session) and measuring per-UE event latency and aggregate state as N
  grows; the control plane should scale near-linearly since sessions
  are independent.
* :func:`classifier_ablation` — the Fig 11 result *in situ*: UPF-U
  forwarding wall-time per packet with the session's PDR set held in a
  linear list vs. PartitionSort, as rules-per-session grows (the
  paper's challenge 3 trajectory from 2 rules to hundreds).
* :func:`shard_scale_sweep` — the scale-out axis: 10k -> 1M+ sessions
  across 1/2/4/8 UPF-U shards behind RSS dispatch, reporting load
  skew, flow-cache hit rate and modeled Mpps/shard.  Session
  *placement* is computed for the full population (that is what load
  skew measures); a bounded resident sample per shard is actually
  installed and carries the traffic.  No host clock is read, so two
  calls return equal rows; host time per dispatch is the
  ``deploy.rss_dispatch_ns`` row of ``benchmarks/e2e``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Type

from ..classifier.base import Classifier
from ..classifier.linear import LinearClassifier
from ..classifier.partition_sort import PartitionSortClassifier
from ..core.costs import DEFAULT_COSTS, CostModel
from ..cp import scenario
from ..cp.core5g import FiveGCore, SystemConfig
from ..net.packet import Direction, FiveTuple, Packet
from ..pfcp import ies as pfcp_ies
from ..pfcp.builder import build_session_establishment
from ..sim.engine import Environment
from ..up.rules import PDR, precedence_to_priority
from ..up.session import RuleDelta, SessionTable, UPFSession
from ..up.upf_u import UPFUserPlane

__all__ = [
    "ScaleRow",
    "session_scale_sweep",
    "AblationRow",
    "classifier_ablation",
    "ShardScaleRow",
    "shard_scale_sweep",
]


@dataclass
class ScaleRow:
    """Onboarding metrics at one session count."""

    sessions: int
    mean_registration_s: float
    mean_session_establishment_s: float
    total_onboarding_s: float
    upf_sessions: int
    control_messages: int


def session_scale_sweep(
    config: SystemConfig,
    session_counts: Sequence[int] = (1, 2, 5, 10, 25, 50),
    costs: CostModel = DEFAULT_COSTS,
) -> List[ScaleRow]:
    """Onboard N UEs sequentially and record per-UE latencies."""
    rows: List[ScaleRow] = []
    for count in session_counts:
        core = FiveGCore(Environment(), config, costs=costs)
        totals = {"registration": 0.0, "session-request": 0.0}
        for index in range(count):
            for _, result in scenario.run(
                    core, {f"imsi-2089399{index:08d}": scenario.ATTACH}):
                totals[result.event] += result.duration
        rows.append(
            ScaleRow(
                sessions=count,
                mean_registration_s=totals["registration"] / count,
                mean_session_establishment_s=(
                    totals["session-request"] / count),
                total_onboarding_s=core.env.now,
                upf_sessions=len(core.sessions),
                control_messages=core.bus.total_messages(),
            )
        )
    return rows


@dataclass
class AblationRow:
    """Forwarding cost at one rules-per-session point."""

    rules_per_session: int
    lookup_us: Dict[str, float] = field(default_factory=dict)

    def speedup(self) -> float:
        return self.lookup_us["PDR-LL"] / self.lookup_us["PDR-PS"]


def _session_with_rules(
    classifier_class: Type[Classifier], extra_rules: int
) -> tuple:
    """A UPF with one session holding 2 + extra_rules PDRs."""
    from ..classifier.classbench import ClassBenchGenerator
    from ..up.upf_c import UPFControlPlane

    env = Environment()
    table = SessionTable()
    upf_u = UPFUserPlane(env, table)
    upf_c = UPFControlPlane(
        table, upf_u=upf_u, address=1, classifier_class=classifier_class
    )
    ue_ip = 0x0A3C0001
    upf_c.handle(
        build_session_establishment(
            seid=1, sequence=1, ue_ip=ue_ip, upf_address=1,
            ul_teid=0x100, gnb_address=2, dl_teid=0x500,
        )
    )
    session = table.by_seid(1)
    # Demote the catch-all DL rule below the filter set: firewall/NAT
    # rules (challenge 3) take precedence over default forwarding, so
    # every lookup must consider them before falling through.
    import dataclasses

    demoted = dataclasses.replace(
        session.pdrs[2], priority=precedence_to_priority(5000)
    )
    # Grow the PDR set with higher-precedence subflow filters that do
    # not match the probe flow (the scan cost the paper measures).
    generator = ClassBenchGenerator(seed=13)
    filters = tuple(
        PDR(
            ranges=rule.ranges,
            priority=precedence_to_priority(100 + index),
            rule_id=100 + index,
            far_id=2,
            source_interface=pfcp_ies.CORE,
        )
        for index, rule in enumerate(generator.rules(extra_rules))
    )
    session.apply(RuleDelta(pdrs=(demoted, *filters)), table)
    packet = Packet(
        direction=Direction.DOWNLINK,
        flow=FiveTuple(src_ip=1, dst_ip=ue_ip, src_port=80, dst_port=4000),
    )
    return upf_u, packet


@dataclass
class ShardScaleRow:
    """One (session count, shard count) cell of the scale-out sweep."""

    sessions: int
    shards: int
    #: Sessions actually installed and carrying the traffic.
    resident_sessions: int
    modeled_mpps_per_shard: float
    #: Aggregate forwarding capacity, discounted by load skew (the
    #: most-loaded shard saturates first).
    modeled_mpps_total: float
    #: max/mean sessions per shard over the *full* population.
    load_skew: float
    flow_cache_hit_rate: float


_SHARD_UE_BASE = 0x0A000001
_SHARD_DN_IP = 0x08080808
_SHARD_GNB = 0xC0A80201


def _resident_session(seid: int, ue_ip: int, ul_teid: int) -> UPFSession:
    """A minimal forwarding session: UL + DL PDR, forward FARs."""
    from ..classifier import exact
    from ..up.rules import FAR

    session = UPFSession(
        seid=seid,
        ue_ip=ue_ip,
        ul_teid=ul_teid,
        classifier_class=LinearClassifier,
        buffer_capacity=8,
    )
    priority = precedence_to_priority(10)
    session.apply(RuleDelta(
        pdrs=(
            PDR.from_fields(
                priority=priority, rule_id=1, far_id=1,
                outer_header_removal=True,
                source_interface=pfcp_ies.ACCESS,
                teid=exact(ul_teid),
                source_iface=exact(pfcp_ies.ACCESS),
            ),
            PDR.from_fields(
                priority=priority, rule_id=2, far_id=2,
                source_interface=pfcp_ies.CORE,
                dst_ip=exact(ue_ip),
                source_iface=exact(pfcp_ies.CORE),
            ),
        ),
        fars=(
            FAR(far_id=1, destination_interface=pfcp_ies.CORE),
            FAR(
                far_id=2,
                destination_interface=pfcp_ies.ACCESS,
                outer_teid=0x40000000 ^ ul_teid,
                outer_address=_SHARD_GNB,
            ),
        ),
    ))
    return session


def shard_scale_sweep(
    session_counts: Sequence[int] = (10_000, 125_000, 500_000, 1_000_000),
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    resident_per_shard: int = 256,
    packets: int = 4000,
    packet_size: int = 128,
    costs: CostModel = DEFAULT_COSTS,
) -> List[ShardScaleRow]:
    """Sweep session count x shard count on the sharded user plane.

    For each cell the *placement* of all N sessions is computed
    through the real dispatch hash (TEID steering included), giving
    the exact load skew; ``resident_per_shard`` of them per shard are
    fully installed and, once every flow has been seen, carry
    ``packets`` packets (alternating UL/DL, round-robin across
    sessions).  Mpps is modeled from the calibrated cost model blended
    with the flow-cache hit rate of those packets.
    """
    from ..deploy.sharded import ShardedUserPlane

    rows: List[ShardScaleRow] = []
    for shards in shard_counts:
        for count in session_counts:
            env = Environment()
            plane = ShardedUserPlane(
                env,
                shards,
                flow_cache=True,
                fast_path=True,
                costs=costs,
            )
            router = plane.router
            # Place the full population; install a resident sample.
            per_shard = [0] * shards
            resident: List[UPFSession] = []
            resident_count = [0] * shards
            for index in range(count):
                ue_ip = _SHARD_UE_BASE + index
                shard = router.shard_for_ue_ip(ue_ip)
                per_shard[shard] += 1
                if resident_count[shard] < resident_per_shard:
                    resident_count[shard] += 1
                    ul_teid = router.steer_teid(ue_ip, 0x1000 + index)
                    session = _resident_session(
                        seid=index + 1, ue_ip=ue_ip, ul_teid=ul_teid
                    )
                    plane.sessions.add(session)
                    resident.append(session)
            mean = sum(per_shard) / shards
            skew = max(per_shard) / mean if mean else 1.0
            pool = []
            for session in resident:
                pool.append(
                    Packet(
                        direction=Direction.UPLINK,
                        teid=session.ul_teid,
                        flow=FiveTuple(
                            src_ip=session.ue_ip, dst_ip=_SHARD_DN_IP,
                            src_port=4000, dst_port=80,
                        ),
                        size=packet_size,
                    )
                )
                pool.append(
                    Packet(
                        direction=Direction.DOWNLINK,
                        flow=FiveTuple(
                            src_ip=_SHARD_DN_IP, dst_ip=session.ue_ip,
                            src_port=80, dst_port=4000,
                        ),
                        size=packet_size,
                    )
                )
            # Every flow once first: first-packet misses are setup,
            # not per-packet behaviour, so the hit rate counts only
            # what follows.
            warm_hits, warm_probes = _replay(plane, pool, len(pool))
            hits, probes = _replay(plane, pool, packets)
            counted = probes - warm_probes
            hit_rate = (hits - warm_hits) / counted if counted else 0.0
            per_packet = (
                hit_rate * costs.cached_lookup(True, packet_size)
                + (1.0 - hit_rate) * costs.per_packet_cost(True, packet_size)
            )
            per_shard_mpps = 1.0 / per_packet / 1e6
            rows.append(
                ShardScaleRow(
                    sessions=count,
                    shards=shards,
                    resident_sessions=len(resident),
                    modeled_mpps_per_shard=per_shard_mpps,
                    modeled_mpps_total=per_shard_mpps * shards / skew,
                    load_skew=skew,
                    flow_cache_hit_rate=hit_rate,
                )
            )
    return rows


def _replay(plane, pool: List[Packet], packets: int) -> tuple:
    """Run ``packets`` packets round-robin over ``pool``; returns the
    plane's cumulative flow-cache ``(hits, probes)`` afterwards."""
    process = plane.process
    for iteration in range(packets):
        packet = pool[iteration % len(pool)]
        # The pipeline strips/sets the outer header in place; restore
        # the template before the packet comes round again.
        restore_teid = packet.teid
        process(packet)
        packet.teid = restore_teid
    hits = probes = 0
    for shard in plane.shards:
        cache = shard.upf_u.flow_cache
        hits += cache.hits
        probes += cache.hits + cache.misses
    return hits, probes


def classifier_ablation(
    rule_counts: Sequence[int] = (0, 8, 48, 98, 498),
    lookups: int = 300,
) -> List[AblationRow]:
    """Measured per-packet pipeline time, linear list vs PartitionSort."""
    rows: List[AblationRow] = []
    for extra in rule_counts:
        row = AblationRow(rules_per_session=extra + 2)
        for name, classifier_class in (
            ("PDR-LL", LinearClassifier),
            ("PDR-PS", PartitionSortClassifier),
        ):
            upf_u, packet = _session_with_rules(classifier_class, extra)
            begin = time.perf_counter()
            for _ in range(lookups):
                upf_u.process(packet)
            elapsed = time.perf_counter() - begin
            row.lookup_us[name] = elapsed / lookups * 1e6
        rows.append(row)
    return rows
