"""The six workloads, as data, and the seeded generator that expands them.

A workload is a declarative spec — system configuration, population
(``add_ues`` through the real procedures or ``install_sessions`` over
N4), flows per UE and a traffic mix — not code.  :class:`Generator`
turns a spec plus ``--seed`` into UE order and packets; the core under
test receives only those generated inputs.  The seed changes which UE
gets which address, which UEs move and which flow each packet belongs
to; it never changes a population size or a slice length.

All user packets are 128 bytes: the smallest-size regime, where
per-packet cost dominates.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from repro.cp.core5g import FiveGCore
from repro.net.addresses import ip_to_int
from repro.net.packet import Direction, FiveTuple, Packet

__all__ = ["WORKLOADS", "Generator", "SessionRef", "FlowRef"]

PACKET_SIZE = 128
DN_IP = FiveGCore.DN_ADDRESS

WORKLOADS = {
    "dl_steady": {
        "why": (
            "All-hit fast path plus DL sink, sim engine and gNB delivery "
            "(1024 flows in an 8192-entry cache): cache, burst, slab and "
            "sim-engine work must show here."
        ),
        "config": {"flow_cache": True, "burst_size": 32},
        "population": {"add_ues": 256},
        "flows_per_ue": 4,
        "traffic": {"direction": "dl", "packets_per_slice": 256},
        "steady_counts": True,
    },
    "ul_percall": {
        "why": (
            "The paper's configuration (cache off, burst 1): every packet "
            "pays slab resolve, PartitionSort classify and the sequential "
            "pipeline, so cache and burst gains must read no change here."
        ),
        "config": {},
        "population": {"add_ues": 256},
        "flows_per_ue": 4,
        "traffic": {"direction": "ul", "packets_per_slice": 1024},
        "steady_counts": True,
    },
    "wide_sharded": {
        "why": (
            "Working set (72k keys) far beyond 4 x 8192 cache slots: "
            "stresses RSS dispatch, scatter/gather, the miss path, LRU "
            "eviction and the slab at size; sharding and slab-layout work "
            "shows only here."
        ),
        "config": {"upf_shards": 4, "flow_cache": True, "burst_size": 32},
        "population": {"install_sessions": 12000},
        "flows_per_ue": 3,
        "traffic": {"direction": "mixed", "packets_per_slice": 384},
        "steady_counts": False,
    },
    "mobility": {
        "why": (
            "Rule writes beside packet reads: each N2 handover bumps the "
            "rule epoch, empties the flow cache, buffers and flushes, so a "
            "hit-path gain paid for in invalidation or buffering is a loss "
            "here."
        ),
        "config": {"flow_cache": True, "burst_size": 1},
        "population": {"add_ues": 32},
        "flows_per_ue": 1,
        "traffic": {
            "direction": "dl",
            "rate_pps": 1000,
            "sim_seconds": 0.3,
            "moving_ues": 8,
            "stagger_s": 0.010,
            "segment_s": 0.005,
        },
        "steady_counts": False,
    },
    "cp_lifecycle": {
        "why": (
            "No user traffic: cp, the message bus, sim and PFCP encode do "
            "all the work and the data plane none, so every data-plane "
            "optimisation must read no change here."
        ),
        "config": {},
        "population": {"add_ues": 0},
        "flows_per_ue": 1,
        "traffic": {"direction": "dl", "wave": 8},
        "steady_counts": True,
    },
    "platform_ring": {
        "why": (
            "The ONVM path FiveGCore.inject_* skips: pool alloc/free, Ring "
            "burst enqueue/dequeue, the NF poll loop and handle_burst; "
            "ring, pool and manager work shows only here."
        ),
        "config": {"flow_cache": True, "burst_size": 32},
        "population": {"install_sessions": 256},
        "flows_per_ue": 4,
        "traffic": {"direction": "dl", "batch": 512, "packets_per_slice": 512},
        "steady_counts": False,
    },
}


class SessionRef(NamedTuple):
    """What the generator needs to know about one installed session."""

    seid: int
    ue_ip: int
    ul_teid: int
    dl_teid: int


class FlowRef(NamedTuple):
    """One flow a packet can belong to, with its expected fate."""

    flow: FiveTuple
    direction: Direction
    teid: Optional[int]
    #: Outcome label the UPF must return and the TEID the packet must
    #: carry afterwards (DL: the gNB tunnel; UL: outer header removed).
    outcome: str
    teid_after: Optional[int]


class Generator:
    """Seeded expansion of one workload spec."""

    def __init__(self, name: str, seed: int, scale: float = 1.0):
        self.spec = WORKLOADS[name]
        # A string seed is hashed with SHA-512, so streams do not depend
        # on PYTHONHASHSEED.
        self.rng = random.Random(f"{name}:{seed}")
        self.scale = scale
        self.flows: list = []
        #: Flows no packet has been made for yet.
        self.uncovered = 0

    # -- population ---------------------------------------------------------
    def _scaled(self, count: int) -> int:
        return count if self.scale == 1.0 else max(8, int(count * self.scale))

    @property
    def ue_count(self) -> int:
        return self._scaled(self.spec["population"].get("add_ues", 0))

    @property
    def session_count(self) -> int:
        return self._scaled(self.spec["population"].get("install_sessions", 0))

    def supis(self, count: int, first: int = 0) -> list:
        """``count`` subscriber ids in seeded order."""
        ids = [f"imsi-20893{first + i:010d}" for i in range(count)]
        self.rng.shuffle(ids)
        return ids

    def ue_addresses(self, count: int) -> list:
        """``count`` distinct UE addresses in seeded order (N4 installs)."""
        base = ip_to_int("10.64.0.0")
        return [base + i for i in self.rng.sample(range(1, 1 << 20), count)]

    # -- traffic ------------------------------------------------------------
    def bind(self, sessions) -> None:
        """Fix the flow set the traffic mix draws from."""
        direction = self.spec["traffic"]["direction"]
        flows = []
        for ref in sessions:
            for index in range(self.spec["flows_per_ue"]):
                if direction in ("dl", "mixed"):
                    flows.append(FlowRef(
                        FiveTuple(DN_IP, ref.ue_ip, 80 + index, 40000 + index),
                        Direction.DOWNLINK, None, "forwarded-dl", ref.dl_teid,
                    ))
                if direction in ("ul", "mixed"):
                    flows.append(FlowRef(
                        FiveTuple(ref.ue_ip, DN_IP, 40000 + index, 80 + index),
                        Direction.UPLINK, ref.ul_teid, "forwarded-ul", None,
                    ))
        self.flows = flows
        # (Only where packets() is the packet source: mobility's rate
        # generators send on every flow in every slice anyway.)
        if "packets_per_slice" in self.spec["traffic"]:
            self.uncovered = len(flows)

    def packets(self, count: int):
        """``count`` fresh packets and the flow each belongs to.

        The first packets go once through every flow, so that warm-up
        has filled the caches with certainty, not with some probability;
        after that, flows are drawn uniformly at random.
        """
        refs = []
        if self.uncovered:
            begin = len(self.flows) - self.uncovered
            refs = self.flows[begin:begin + count]
            self.uncovered -= len(refs)
        refs += self.rng.choices(self.flows, k=count - len(refs))
        return [
            Packet(PACKET_SIZE, ref.flow, ref.direction, teid=ref.teid)
            for ref in refs
        ], refs

    def movers(self, ues: list) -> list:
        """The UEs that hand over, in the order their handovers start."""
        return self.rng.sample(ues, min(len(ues), self.spec["traffic"]["moving_ues"]))
