"""Network slicing support (§4).

"Network slices can be supported by logically assigning different
service IDs" — each slice (S-NSSAI) maps to a service-id range on the
shared-memory platform.  A slice-aware selector (the NSSF's job) picks
the slice for a new UE session from its subscriptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["SNssai", "NetworkSlice", "SliceManager"]


@dataclass(frozen=True)
class SNssai:  # repro: noqa[W009] -- ROADMAP item 8 wires slices end to end or deletes this module
    """Single Network Slice Selection Assistance Information."""

    sst: int  # slice/service type: 1 eMBB, 2 URLLC, 3 mIoT
    sd: str = "000000"  # slice differentiator

    def __str__(self) -> str:
        return f"{self.sst}-{self.sd}"


@dataclass
class NetworkSlice:  # repro: noqa[W009] -- ROADMAP item 8 wires slices end to end or deletes this module
    """One slice: its S-NSSAI and service-id block."""

    snssai: SNssai
    #: Service ids [base, base+width) reserved on the NF platform.
    service_id_base: int = 0
    service_id_width: int = 16

    def service_id(self, function_index: int) -> int:
        """The platform service id of the slice's n-th NF."""
        if not 0 <= function_index < self.service_id_width:
            raise ValueError(
                f"function index {function_index} outside slice block"
            )
        return self.service_id_base + function_index


class SliceManager:  # repro: noqa[W009] -- ROADMAP item 8 wires slices end to end or deletes this module
    """Registry + selection across network slices."""

    def __init__(self, service_id_width: int = 16):
        self.service_id_width = service_id_width
        self._slices: Dict[SNssai, NetworkSlice] = {}
        self._next_base = 1
        #: supi -> subscribed slices.
        self._subscriptions: Dict[str, List[SNssai]] = {}

    # ------------------------------------------------------------------
    def create_slice(self, snssai: SNssai) -> NetworkSlice:
        if snssai in self._slices:
            raise ValueError(f"slice {snssai} already exists")
        network_slice = NetworkSlice(
            snssai=snssai,
            service_id_base=self._next_base,
            service_id_width=self.service_id_width,
        )
        self._next_base += self.service_id_width
        self._slices[snssai] = network_slice
        return network_slice

    def slice_for(self, snssai: SNssai) -> NetworkSlice:
        if snssai not in self._slices:
            raise KeyError(f"unknown slice {snssai}")
        return self._slices[snssai]

    def slices(self) -> List[NetworkSlice]:
        return list(self._slices.values())

    # ------------------------------------------------------------------
    def subscribe(self, supi: str, snssai: SNssai) -> None:
        """Record a UE's slice subscription (UDM-side data)."""
        self.slice_for(snssai)  # must exist
        self._subscriptions.setdefault(supi, [])
        if snssai not in self._subscriptions[supi]:
            self._subscriptions[supi].append(snssai)

    def subscribed(self, supi: str) -> List[SNssai]:
        return list(self._subscriptions.get(supi, []))

    def select(
        self, supi: str, requested: Optional[SNssai] = None
    ) -> NetworkSlice:
        """NSSF-style selection: pick the slice for a UE's session.

        Uses the requested S-NSSAI when the UE subscribes to it, else
        the UE's default (first subscribed) slice.
        """
        subscriptions = self._subscriptions.get(supi)
        if not subscriptions:
            raise KeyError(f"{supi}: no slice subscriptions")
        if requested is not None:
            if requested not in subscriptions:
                raise PermissionError(
                    f"{supi} is not subscribed to slice {requested}"
                )
            chosen = requested
        else:
            chosen = subscriptions[0]
        return self.slice_for(chosen)

    # ------------------------------------------------------------------
    def service_blocks_disjoint(self) -> bool:
        """Invariant: no two slices share platform service ids."""
        ranges = sorted(
            (s.service_id_base, s.service_id_base + s.service_id_width)
            for s in self._slices.values()
        )
        return all(
            previous_end <= next_start
            for (_s, previous_end), (next_start, _e) in zip(
                ranges, ranges[1:]
            )
        )
