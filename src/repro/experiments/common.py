"""Shared helpers for the per-figure experiment modules.

Everything here is deterministic: the same configuration produces the
same numbers, so the benchmark suite can assert the paper's shape
(who wins, by what factor) without tolerance gymnastics.  The UE
events themselves are scenarios (:mod:`repro.cp.scenario`).
"""

from __future__ import annotations

from typing import Dict

from ..core.costs import DEFAULT_COSTS, CostModel
from ..cp import scenario
from ..cp.core5g import FiveGCore, SystemConfig
from ..cp.procedures import EventResult
from ..ran.ue import UserEquipment
from ..sim.engine import Environment
from ..traffic.measurement import LatencySeries

__all__ = [
    "UE_EVENTS",
    "run_ue_events",
    "data_plane_core",
    "latency_series",
]

#: Fig 8's UE events, in the paper's order.
UE_EVENTS = ("registration", "session-request", "handover", "paging")


def run_ue_events(
    config: SystemConfig,
    costs: CostModel = DEFAULT_COSTS,
    num_ues: int = 1,
) -> Dict[str, EventResult]:
    """Run the full UE lifecycle; returns per-event results.

    With ``num_ues`` > 1 the additional UEs execute the same procedures
    concurrently (the paper checked 1 vs 2 users and saw no perceptible
    difference); the returned results are those of the first UE.
    """
    core = FiveGCore(Environment(), config, costs=costs)
    supis = [f"imsi-20893000000{index:04d}" for index in range(num_ues)]
    results = scenario.run(core, dict.fromkeys(supis, scenario.UE_LIFECYCLE))
    return {
        result.event: result
        for supi, result in results
        if supi == supis[0] and result.event in UE_EVENTS
    }


def data_plane_core(
    config: SystemConfig, costs: CostModel = DEFAULT_COSTS
) -> FiveGCore:
    """A core for the paging/handover data-plane experiments (Figs
    13-14) with the RAN-side radio latency zeroed: the paper's testbed
    terminates measurements at the RAN simulator host, so the base RTT
    reflects only the core's forwarding path."""
    core = FiveGCore(Environment(), config, costs=costs)
    for gnb in core.gnbs.values():
        gnb.radio_latency = 0.0
    return core


def latency_series(ue: UserEquipment) -> LatencySeries:
    """The one-way latencies of every packet ``ue`` received."""
    series = LatencySeries()
    for packet in ue.received:
        series.record_one_way(packet)
    return series
