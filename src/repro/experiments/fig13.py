"""Fig 13 + Table 1 — data-plane latency during a paging event.

A UE goes idle; constant-rate downlink traffic (10 Kpps) then arrives
at the UPF, whose DL FAR is in BUFF+NOCP state.  The first packet
raises a downlink data report, the paging procedure runs, and the
buffer drains to the woken UE.  Measured per packet: RTT (twice the
one-way delay, as the paper's generator sees it).

Table 1's row to reproduce (free5GC vs L25GC):
base RTT 116 vs 25 us; paging time 59 vs 28 ms; RTT after paging 63 vs
30 ms; packets with elevated RTT 608 vs 294.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.costs import DEFAULT_COSTS, CostModel
from ..cp import scenario
from ..cp.core5g import SystemConfig
from ..traffic.measurement import LatencySeries, percentile
from .common import data_plane_core, latency_series

__all__ = ["PagingObservation", "paging_data_plane"]


@dataclass
class PagingObservation:
    """Table 1's row for one system, plus the Fig 13 time series."""

    system: str
    base_rtt_s: float
    paging_time_s: float
    rtt_after_paging_s: float
    elevated_packets: int
    dropped: int
    series: LatencySeries

    def as_row(self) -> dict:
        return {
            "system": self.system,
            "base_rtt_us": self.base_rtt_s * 1e6,
            "paging_time_ms": self.paging_time_s * 1e3,
            "rtt_after_paging_ms": self.rtt_after_paging_s * 1e3,
            "elevated_packets": self.elevated_packets,
            "dropped": self.dropped,
        }


def paging_data_plane(
    config: SystemConfig,
    costs: CostModel = DEFAULT_COSTS,
    rate_pps: float = 10_000,
    warmup: float = 0.5,
    tail: float = 0.5,
) -> PagingObservation:
    """Run the paging data-plane experiment on one system.

    Timeline: DL traffic flows [0, warmup) to establish the base RTT;
    the UE goes idle; traffic resumes at t_idle and triggers paging;
    measurement continues for ``tail`` seconds after.
    """
    core = data_plane_core(config, costs)
    supi = "imsi-208930000010000"
    # Steady traffic for the base RTT, the UE goes idle (AN release
    # installs BUFF+NOCP), traffic resumes and its first packet's
    # downlink data report triggers paging.
    *_, (_, release), (_, paging) = scenario.run(core, {supi: [
        *scenario.ATTACH,
        ("downlink", rate_pps, warmup), ("wait", warmup + 0.01),
        ("idle",), ("downlink", rate_pps, tail), ("report",), ("page",),
    ]})
    # Paging time as the paper counts it: from the DL packet arriving
    # at the idle UPF to forwarding being re-enabled.
    resume_at = release.completed_at
    paging_time = paging.completed_at - resume_at

    series = latency_series(core.ues[supi])
    base = percentile(series.window(0.0, warmup), 0.5)
    # RTT right after paging: the maximum observed (first buffered pkt
    # plus the drain tail); nan for an empty window, as ``percentile``.
    after = percentile(series.window(resume_at, core.env.now), 1.0)
    elevated = sum(1 for rtt in series.rtts if rtt > 3 * base)
    session = core.sessions.by_seid(core.smf.context_for(supi, 1).seid)
    return PagingObservation(
        system=config.name,
        base_rtt_s=base,
        paging_time_s=paging_time,
        rtt_after_paging_s=after,
        elevated_packets=elevated,
        dropped=session.buffer.dropped,
        series=series,
    )
