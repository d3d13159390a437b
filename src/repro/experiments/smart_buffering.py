"""§5.4.2 "Estimating Smart Buffering benefit" — Eqs 1 and 2.

Compares 3GPP's source-gNB buffering with hairpin routing against
L25GC's direct handover with UPF buffering:

* **Eq 1** (packet drops): N_drop = DL_rate x t_HO - Q_length.
  Case (i): equal 500-packet buffers at the gNB and UPF — both lose
  ~800 packets at 10 Kpps over a 130 ms handover.
  Case (ii): 1500 packets at the UPF vs 500 at the source gNB — the
  UPF loses nothing, 3GPP still loses ~800.
* **Eq 2** (one-way delay): 3GPP forwarding traverses
  UPF -> source gNB -> UPF -> target gNB; the direct path skips the
  hairpin, saving two propagation legs (~20 ms at 10 ms per leg).

Both the closed-form arithmetic and a packet-level simulation are
provided; the simulation must agree with the closed form (a test
asserts it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..cp.core5g import SystemConfig
from ..net.packet import FiveTuple
from ..ran.gnb import GNodeB
from ..sim.engine import MS, Environment
from ..sim.queues import Store
from ..traffic.generator import ConstantRateGenerator

__all__ = [
    "BufferingCase",
    "analytical_drops",
    "analytical_one_way_delay",
    "simulated_drops",
    "smart_buffering_cases",
]


@dataclass
class BufferingCase:
    """One row of the §5.4.2 analysis."""

    case: str
    scheme: str
    buffer_packets: int
    drops: int
    one_way_delay_s: float


def analytical_drops(
    dl_rate_pps: float, handover_s: float, queue_length: int
) -> int:
    """Eq 1: packets lost during the handover window."""
    demand = dl_rate_pps * handover_s
    return max(0, round(demand - queue_length))


def analytical_one_way_delay(
    handover_s: float,
    prop_upf_gnb_s: float,
    hairpin: bool,
) -> float:
    """Eq 2: UPF-to-UE one-way delay of the first post-HO packet."""
    if hairpin:
        # UPF -> source gNB -> back to UPF -> target gNB.
        return handover_s + 3 * prop_upf_gnb_s
    return handover_s + prop_upf_gnb_s


def simulated_drops(
    dl_rate_pps: float, handover_s: float, queue_length: int
) -> int:
    """Packet-level check of Eq 1: feed a bounded buffer at the DL
    rate for the handover window and count the tail drops."""
    env = Environment()
    store = Store(env, capacity=queue_length)
    ConstantRateGenerator(
        env, store.put_nowait_drop, rate_pps=dl_rate_pps, flow=FiveTuple(),
        duration=handover_s,
    )
    env.run()
    return store.drops


def smart_buffering_cases(
    dl_rate_pps: float = 10_000,
    handover_s: float = 130 * MS,
    prop_s: float = 10 * MS,
) -> Dict[str, list]:
    """The paper's two cases, for both schemes."""
    cases: Dict[str, list] = {"case-i": [], "case-ii": []}
    # Case (i): equal 500-packet buffers.
    for scheme, buffer_packets, hairpin in (
        ("3gpp-hairpin", 500, True),
        ("l25gc-smart", 500, False),
    ):
        cases["case-i"].append(
            BufferingCase(
                case="case-i",
                scheme=scheme,
                buffer_packets=buffer_packets,
                drops=analytical_drops(dl_rate_pps, handover_s, buffer_packets),
                one_way_delay_s=analytical_one_way_delay(
                    handover_s, prop_s, hairpin
                ),
            )
        )
    # Case (ii): 1500 at the UPF, 500 at the source gNB.
    for scheme, buffer_packets, hairpin in (
        ("3gpp-hairpin", 500, True),
        ("l25gc-smart", 1500, False),
    ):
        cases["case-ii"].append(
            BufferingCase(
                case="case-ii",
                scheme=scheme,
                buffer_packets=buffer_packets,
                drops=analytical_drops(dl_rate_pps, handover_s, buffer_packets),
                one_way_delay_s=analytical_one_way_delay(
                    handover_s, prop_s, hairpin
                ),
            )
        )
    return cases
