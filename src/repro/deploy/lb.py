"""The UE-aware load balancer (§4).

A serving region runs multiple consolidated 5GC units; a UE session is
pinned to the unit that admitted it, so control-plane state never
migrates.  New sessions go to the least-loaded unit.  The LB also hosts
the resiliency counter/logger and the S-BFD probe agent (Fig 5), which
the :mod:`repro.resiliency` package supplies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["UnitHandle", "UEAwareLoadBalancer"]


@dataclass
class UnitHandle:
    """One 5GC unit as the LB sees it."""

    unit_id: int
    capacity_sessions: int = 1000
    sessions: int = 0
    healthy: bool = True

    @property
    def load(self) -> float:
        return self.sessions / self.capacity_sessions

    @property
    def has_room(self) -> bool:
        return self.healthy and self.sessions < self.capacity_sessions


class UEAwareLoadBalancer:
    """Maintains UE -> 5GC-unit affinity and balances new sessions."""

    def __init__(self) -> None:
        self.units: Dict[int, UnitHandle] = {}
        self.affinity: Dict[str, int] = {}
        self.assignments = 0
        self.rejected = 0
        #: Releases for SUPIs the LB never assigned (or already
        #: released) — a no-op, but counted so the asymmetry is visible.
        self.unknown_releases = 0

    def add_unit(self, unit: UnitHandle) -> None:
        if unit.unit_id in self.units:
            raise ValueError(f"duplicate unit id {unit.unit_id}")
        self.units[unit.unit_id] = unit

    def mark_failed(self, unit_id: int) -> None:
        self.units[unit_id].healthy = False

    # ------------------------------------------------------------------
    def assign(self, supi: str) -> Optional[UnitHandle]:
        """The unit serving this UE, allocating one if new.

        Existing affinity always wins while the unit is healthy — this
        is what avoids the state-migration cost of moving sessions.
        """
        unit_id = self.affinity.get(supi)
        if unit_id is not None:
            unit = self.units[unit_id]
            if unit.healthy:
                return unit
            # The pinned unit died: fail over to a new one (the
            # resiliency framework restores its state there).
            del self.affinity[supi]
            unit.sessions = max(0, unit.sessions - 1)
        candidates = [unit for unit in self.units.values() if unit.has_room]
        if not candidates:
            self.rejected += 1
            return None
        chosen = min(candidates, key=lambda unit: (unit.load, unit.unit_id))
        chosen.sessions += 1
        self.affinity[supi] = chosen.unit_id
        self.assignments += 1
        return chosen

    def release(self, supi: str) -> None:
        """Drop a UE's session (deregistration).

        Unknown SUPIs are a counted no-op — ``assign``/``release`` are
        asymmetric by design (failover re-homes drop affinity), so a
        stray release must never raise.
        """
        unit_id = self.affinity.pop(supi, None)
        if unit_id is None:
            self.unknown_releases += 1
            return
        unit = self.units.get(unit_id)
        if unit is None:
            self.unknown_releases += 1
            return
        unit.sessions = max(0, unit.sessions - 1)

    def distribution(self) -> Dict[int, int]:
        """unit id -> session count (for balance assertions)."""
        return {unit_id: unit.sessions for unit_id, unit in self.units.items()}
