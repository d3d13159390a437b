"""5GC units, canary rollout and placement (§4).

A *5GC unit* is one consolidated core instance (all NFs on a node,
sharing a private memory pool).  Multiple units serve a region behind
the UE-aware LB; network slices map to service-id ranges; canary
rollout shifts a configured traffic fraction to a new NF version via
the NF manager's weighted instance selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.costs import DEFAULT_COSTS, CostModel
from ..cp.core5g import FiveGCore, SystemConfig
from ..sim.engine import Environment

__all__ = ["FiveGCUnit", "CanaryController", "PlacementEngine", "NodeSpec"]


@dataclass
class NodeSpec:
    """A server that can host 5GC units."""

    node_id: int
    cores: int = 12
    used_cores: int = 0

    def fits(self, cores: int) -> bool:
        return self.used_cores + cores <= self.cores


class FiveGCUnit:
    """One consolidated 5GC instance with its own security domain."""

    #: Cores one unit needs: manager Rx/Tx + UPF + control NFs
    #: (the paper's artifact requires >= 12 cores per node).
    CORES_REQUIRED = 6

    def __init__(
        self,
        env: Environment,
        unit_id: int,
        config: Optional[SystemConfig] = None,
        costs: CostModel = DEFAULT_COSTS,
        slice_id: int = 0,
    ):
        self.unit_id = unit_id
        self.slice_id = slice_id
        #: DPDK shared-data file prefix — the isolation boundary
        #: between units of different operators (§3.2).
        self.file_prefix = f"l25gc-unit-{unit_id}"
        self.core = FiveGCore(env, config, costs=costs)
        self.node: Optional[NodeSpec] = None

    def __repr__(self) -> str:
        return f"FiveGCUnit(id={self.unit_id}, slice={self.slice_id})"


class CanaryController:
    """Gradual rollout of a new NF version through manager weights.

    The manager identifies instances of a service by instance id; the
    controller ramps the canary's traffic share along a schedule.
    """

    def __init__(self, manager, service_id: int):
        self.manager = manager
        self.service_id = service_id
        self.stable_instance = 0
        self.canary_instance = 1
        self.history: List[float] = []

    def set_canary_share(self, fraction: float) -> None:
        """Send ``fraction`` of traffic to the canary instance."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction!r}")
        self.manager.set_canary_weights(
            self.service_id,
            {
                self.stable_instance: 1.0 - fraction,
                self.canary_instance: fraction,
            },
        )
        self.history.append(fraction)



class PlacementEngine:
    """Affinity-aware placement of units onto nodes (§4 'Scheduling').

    All NFs of a unit must land on the same node (they share memory);
    the engine simply finds a node with enough free cores — the paper
    notes the design is straightforward given capacity knowledge.
    """

    def __init__(self, nodes: List[NodeSpec]):
        self.nodes = list(nodes)
        self.placements: Dict[int, int] = {}

    def place(self, unit: FiveGCUnit) -> Optional[NodeSpec]:
        """First-fit-decreasing-free-capacity placement."""
        candidates = [
            node for node in self.nodes if node.fits(unit.CORES_REQUIRED)
        ]
        if not candidates:
            return None
        chosen = max(candidates, key=lambda node: node.cores - node.used_cores)
        chosen.used_cores += unit.CORES_REQUIRED
        unit.node = chosen
        self.placements[unit.unit_id] = chosen.node_id
        return chosen

    def utilization(self) -> Dict[int, float]:
        return {
            node.node_id: node.used_cores / node.cores for node in self.nodes
        }
