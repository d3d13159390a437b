"""Fig 14 + Table 2 — data-plane latency during a handover event.

Two experiments, each with 10 Kpps downlink per UE session and a
3K-packet UPF buffer:

* **expt (i)** — a single UE session; the UE hands over at t = 1 s.
* **expt (ii)** — four UE sessions sending concurrently; one hands
  over.  The kernel baseline's shared buffering and softirq contention
  raise everyone's base RTT (425 us vs 39 us), stretch the post-HO
  drain (305 ms vs 137 ms), and overflow the shared buffer (43 drops);
  L25GC's session-scoped buffering drops nothing.

Table 2 anchors (free5GC vs L25GC): HO time 227/130 ms (expt i),
231/132 ms (expt ii); RTT after HO 242/132 and 305/137 ms; elevated
packets 2301/1437 and 3092/1779; drops 0/0 and 43/0.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.costs import DEFAULT_COSTS, CostModel
from ..cp import scenario
from ..cp.core5g import SystemConfig
from ..traffic.measurement import LatencySeries, percentile
from .common import data_plane_core, latency_series

__all__ = ["HandoverObservation", "handover_data_plane"]


@dataclass
class HandoverObservation:
    """Table 2's row for one (system, experiment) pair."""

    system: str
    experiment: str
    base_rtt_s: float
    handover_time_s: float
    rtt_after_handover_s: float
    elevated_packets: int
    dropped: int
    series: LatencySeries

    def as_row(self) -> dict:
        return {
            "system": self.system,
            "experiment": self.experiment,
            "base_rtt_us": self.base_rtt_s * 1e6,
            "ho_time_ms": self.handover_time_s * 1e3,
            "rtt_after_ho_ms": self.rtt_after_handover_s * 1e3,
            "elevated_packets": self.elevated_packets,
            "dropped": self.dropped,
        }


def handover_data_plane(
    config: SystemConfig,
    costs: CostModel = DEFAULT_COSTS,
    concurrent_sessions: int = 1,
    rate_pps: float = 10_000,
    handover_at: float = 1.0,
    run_until: float = 2.5,
) -> HandoverObservation:
    """Run one cell of Table 2.

    ``concurrent_sessions=1`` is expt (i); ``4`` reproduces expt (ii).
    Note: per §5.4.2 ("the UPF starts to buffer packets"), *both*
    systems buffer handover traffic at the UPF here; the gNB-buffering
    3GPP alternative is analyzed in
    :mod:`repro.experiments.smart_buffering`.
    """
    from dataclasses import replace

    config = replace(config, smart_handover_buffering=True)
    core = data_plane_core(config, costs)
    supis = [
        f"imsi-20893000001{index:04d}" for index in range(concurrent_sessions)
    ]
    scenario.run(core, dict.fromkeys(supis, scenario.ATTACH))
    started = core.env.now
    # Downlink traffic on every session for the whole run; the first
    # UE hands over part-way.
    ops = {supi: [("downlink", rate_pps, run_until)] for supi in supis}
    ops[supis[0]] += [("wait", handover_at), ("handover", 2)]
    [(_, handover)] = scenario.run(core, ops)

    series = latency_series(core.ues[supis[0]])
    base = percentile(series.window(started, started + handover_at), 0.5)
    # The maximum after the handover; nan for an empty window.
    after = percentile(series.window(started + handover_at, core.env.now), 1.0)
    elevated = sum(1 for rtt in series.rtts if rtt > 3 * base)
    seid = core.smf.context_for(supis[0], 1).seid
    session = core.sessions.by_seid(seid)
    return HandoverObservation(
        system=config.name,
        experiment=f"expt-{'i' if concurrent_sessions == 1 else 'ii'}",
        base_rtt_s=base,
        handover_time_s=handover.duration,
        rtt_after_handover_s=after,
        elevated_packets=elevated,
        dropped=session.buffer.dropped,
        series=series,
    )
