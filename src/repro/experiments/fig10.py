"""Fig 10 — data-plane throughput and latency vs. packet size.

(a) unidirectional UL/DL throughput, (b) bidirectional, (c) mean
end-to-end latency, each as a function of packet size on a 10 Gbps
link, plus the §5.3 core-scaling study up to 40 Gbps.

Throughput is the min of the NIC line rate and the CPU-limited
forwarding rate from the calibrated per-packet costs; this reproduces
the paper's 27x advantage at 68 B (L25GC at line rate on one core) and
free5GC's slight improvement at larger packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.costs import DEFAULT_COSTS, CostModel

__all__ = [
    "PACKET_SIZES",
    "ThroughputRow",
    "LatencyRow",
    "throughput_vs_packet_size",
    "latency_vs_packet_size",
    "ScalingRow",
    "scaling_40g",
    "line_rate_pps",
    "CachedAblationRow",
    "flow_cache_ablation",
    "BURST_SIZES",
    "BurstScalingRow",
    "burst_scaling",
    "SESSION_COUNTS",
    "LlcCliffRow",
    "llc_cliff",
]

#: The swept packet sizes (bytes on the wire).
PACKET_SIZES = (68, 128, 256, 512, 1024, 1500)

#: Ethernet preamble + IFG + CRC overhead per packet on the wire.
_WIRE_OVERHEAD = 24


def line_rate_pps(size: int, link_bps: float = 10e9) -> float:
    """Packets/second at line rate for a given packet size."""
    return link_bps / (8.0 * (size + _WIRE_OVERHEAD))


@dataclass
class ThroughputRow:
    """One packet size's throughput figures (Gbps of L2 payload)."""

    size: int
    free5gc_uni_gbps: float
    l25gc_uni_gbps: float
    free5gc_bidir_gbps: float
    l25gc_bidir_gbps: float

    @property
    def uni_ratio(self) -> float:
        return self.l25gc_uni_gbps / self.free5gc_uni_gbps


@dataclass
class LatencyRow:
    """One packet size's mean end-to-end latency (seconds)."""

    size: int
    free5gc_s: float
    l25gc_s: float


def _throughput_gbps(
    costs: CostModel,
    fast_path: bool,
    size: int,
    cores: int,
    link_bps: float,
    directions: int,
) -> float:
    """Offered-load-limited throughput in Gbps (per direction sum).

    With bidirectional traffic the CPU is shared across both
    directions, while each direction has its own line rate.
    """
    cpu_pps = costs.forwarding_rate_pps(fast_path, size, cores)
    per_direction_line = line_rate_pps(size, link_bps)
    total_pps = min(cpu_pps, directions * per_direction_line)
    return total_pps * size * 8.0 / 1e9


def throughput_vs_packet_size(
    costs: CostModel = DEFAULT_COSTS,
    cores: int = 1,
    link_bps: float = 10e9,
) -> List[ThroughputRow]:
    """Fig 10(a) and (b): uni- and bidirectional throughput."""
    rows: List[ThroughputRow] = []
    for size in PACKET_SIZES:
        rows.append(
            ThroughputRow(
                size=size,
                free5gc_uni_gbps=_throughput_gbps(
                    costs, False, size, cores, link_bps, 1
                ),
                l25gc_uni_gbps=_throughput_gbps(
                    costs, True, size, cores, link_bps, 1
                ),
                free5gc_bidir_gbps=_throughput_gbps(
                    costs, False, size, cores, link_bps, 2
                ),
                l25gc_bidir_gbps=_throughput_gbps(
                    costs, True, size, cores, link_bps, 2
                ),
            )
        )
    return rows


def latency_vs_packet_size(
    costs: CostModel = DEFAULT_COSTS,
) -> List[LatencyRow]:
    """Fig 10(c): mean end-to-end one-way latency per packet size.

    free5GC pays interrupt-driven kernel processing plus per-byte
    copies; L25GC's poll-mode path stays flat across sizes.
    """
    rows: List[LatencyRow] = []
    for size in PACKET_SIZES:
        rows.append(
            LatencyRow(
                size=size,
                free5gc_s=(
                    costs.kernel_forward_latency
                    + costs.per_packet_cost(False, size)
                    + costs.lan_propagation
                ),
                l25gc_s=(
                    costs.dpdk_forward_latency
                    + costs.per_packet_cost(True, size)
                    + costs.lan_propagation
                ),
            )
        )
    return rows


@dataclass
class CachedAblationRow:
    """Flow-cache ablation: CPU-limited forwarding rate per path.

    Rates are deliberately *not* capped at the NIC line rate — the
    ablation isolates what the match pipeline costs the CPU, which is
    exactly the headroom the flow cache buys for QER/URR work or more
    sessions per core.
    """

    size: int
    l25gc_mpps: float
    l25gc_cached_mpps: float
    free5gc_mpps: float
    free5gc_cached_mpps: float

    @property
    def l25gc_speedup(self) -> float:
        return self.l25gc_cached_mpps / self.l25gc_mpps

    @property
    def free5gc_speedup(self) -> float:
        return self.free5gc_cached_mpps / self.free5gc_mpps


def flow_cache_ablation(
    costs: CostModel = DEFAULT_COSTS, cores: int = 1
) -> List[CachedAblationRow]:
    """Cached-vs-uncached forwarding rate across packet sizes.

    The cached series models every packet hitting the exact-match flow
    cache (steady state, zero rule churn); the uncached series is the
    full per-packet match pipeline.
    """
    rows: List[CachedAblationRow] = []
    for size in PACKET_SIZES:
        rows.append(
            CachedAblationRow(
                size=size,
                l25gc_mpps=costs.forwarding_rate_pps(True, size, cores) / 1e6,
                l25gc_cached_mpps=(
                    costs.cached_forwarding_rate_pps(True, size, cores) / 1e6
                ),
                free5gc_mpps=(
                    costs.forwarding_rate_pps(False, size, cores) / 1e6
                ),
                free5gc_cached_mpps=(
                    costs.cached_forwarding_rate_pps(False, size, cores) / 1e6
                ),
            )
        )
    return rows


#: The swept poll burst sizes (packets drained per ring poll).
BURST_SIZES = (1, 4, 8, 16, 32, 64)


@dataclass
class BurstScalingRow:
    """Burst-size ablation: per-poll overhead amortization per path.

    Models what the platform's ``dequeue_burst`` buys: the fixed
    per-poll cost (ring doorbell, descriptor prefetch, bookkeeping)
    divides over the burst, so the DPDK rate climbs towards its
    calibrated 32-packet-burst value while the kernel path — which has
    no burst lever — stays flat.  Rates are CPU-limited (not capped at
    line rate) for the same reason as :class:`CachedAblationRow`.
    """

    burst_size: int
    size: int
    l25gc_mpps: float
    free5gc_mpps: float

    @property
    def l25gc_per_packet_us(self) -> float:
        return 1.0 / self.l25gc_mpps


def burst_scaling(
    costs: CostModel = DEFAULT_COSTS,
    burst_sizes=BURST_SIZES,
    size: int = 68,
    cores: int = 1,
) -> List[BurstScalingRow]:
    """CPU-limited forwarding rate vs. poll burst size at one packet
    size.

    ``burst_size == costs.calibrated_burst_size`` reproduces the
    headline fig10 rate exactly; burst 1 shows the cost of draining
    the ring one descriptor at a time.
    """
    rows: List[BurstScalingRow] = []
    for burst in burst_sizes:
        rows.append(
            BurstScalingRow(
                burst_size=burst,
                size=size,
                l25gc_mpps=(
                    costs.burst_forwarding_rate_pps(True, size, burst, cores)
                    / 1e6
                ),
                free5gc_mpps=(
                    costs.burst_forwarding_rate_pps(False, size, burst, cores)
                    / 1e6
                ),
            )
        )
    return rows


#: Session counts swept by the LLC-cliff study (log-spaced so the
#: L1 -> LLC -> DRAM transitions of both layouts land inside the sweep:
#: the dict layout overflows a 32 MB LLC near 32 K sessions at
#: ~1 KB/session, packed 64 B records not until ~512 K).
SESSION_COUNTS = (
    1, 100, 1_000, 10_000, 32_000, 100_000, 320_000, 1_000_000, 3_200_000,
)


@dataclass
class LlcCliffRow:
    """Cache-residency study: active sessions -> forwarding rate.

    Models 5GC²ache's central measurement with the
    :meth:`~repro.core.costs.CostModel.cache_aware_forwarding_rate_pps`
    term: per-packet cost gains a session-state access component priced
    by where the session working set lives (L1 / LLC / DRAM).  The
    ``hot`` series models packed 64 B/session decision records, the
    ``dict`` series the ~1 KB/session dict-of-objects layout — the rate
    cliffs when each working set overflows LLC, and the hot layout's
    cliff lands ~an order of magnitude more sessions out.
    """

    sessions: int
    hot_mpps: float
    dict_mpps: float
    hot_working_set_bytes: float
    dict_working_set_bytes: float

    @property
    def hot_advantage(self) -> float:
        return self.hot_mpps / self.dict_mpps


def llc_cliff(
    costs: CostModel = DEFAULT_COSTS,
    session_counts=SESSION_COUNTS,
    size: int = 68,
    cores: int = 1,
) -> List[LlcCliffRow]:
    """Modeled forwarding rate vs. active sessions, packed vs. dict layout.

    CPU-limited (not line-rate-capped) for the same reason as
    :func:`flow_cache_ablation`: the study isolates what state layout
    costs the match pipeline.
    """
    rows: List[LlcCliffRow] = []
    for sessions in session_counts:
        rows.append(
            LlcCliffRow(
                sessions=sessions,
                hot_mpps=costs.cache_aware_forwarding_rate_pps(
                    True, size, sessions, hot_layout=True, cores=cores
                ) / 1e6,
                dict_mpps=costs.cache_aware_forwarding_rate_pps(
                    True, size, sessions, hot_layout=False, cores=cores
                ) / 1e6,
                hot_working_set_bytes=costs.session_state_working_set(
                    sessions, hot_layout=True
                ),
                dict_working_set_bytes=costs.session_state_working_set(
                    sessions, hot_layout=False
                ),
            )
        )
    return rows


@dataclass
class ScalingRow:
    """§5.3 'Supporting 40Gbps links': cores -> achievable rate."""

    cores: int
    mtu_gbps: float


def scaling_40g(
    costs: CostModel = DEFAULT_COSTS, link_bps: float = 40e9
) -> List[ScalingRow]:
    """MTU-packet forwarding rate as UPF cores scale 1 -> 4."""
    rows: List[ScalingRow] = []
    for cores in (1, 2, 4):
        rows.append(
            ScalingRow(
                cores=cores,
                mtu_gbps=_throughput_gbps(
                    costs, True, 1500, cores, link_bps, 1
                ),
            )
        )
    return rows
