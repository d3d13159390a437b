"""The shared-memory object pool and packet descriptors.

In OpenNetVM the manager (DPDK primary process) creates a hugepage-backed
mempool; NFs (secondary processes) attach to the same pool through a
shared data file prefix and exchange fixed-size *descriptors* that point
into it.  Nothing is ever copied between NFs — only 64-byte descriptors
move through the rings.

Here the pool manages :class:`Descriptor` objects wrapping arbitrary
payloads (simulated packets or control-plane messages).  The security
domain of the paper (§3.2) is modeled by the pool's ``file_prefix``:
an NF may only attach when it presents the same prefix, and separate
L25GC instances on a node use distinct prefixes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Descriptor",
    "SharedMemoryPool",
    "PoolExhaustedError",
    "AccessDeniedError",
    "PacketAction",
]

_descriptor_ids = itertools.count(1)


class PoolExhaustedError(Exception):
    """Raised when the mempool has no free descriptors."""


class AccessDeniedError(Exception):
    """Raised when an NF presents the wrong shared-data file prefix."""


class PacketAction:
    """Descriptor metadata actions, mirroring ONVM's ``onvm_pkt_action``."""

    DROP = "drop"
    TO_NF = "tonf"
    OUT = "out"
    NEXT = "next"


@dataclass
class Descriptor:
    """A 64-byte packet descriptor in shared memory.

    Attributes
    ----------
    payload:
        The shared object this descriptor points at.  Passing the
        descriptor between NFs never copies the payload — that is the
        zero-copy property the paper exploits.
    action:
        What the manager should do when the NF returns the descriptor
        on its Tx ring (one of :class:`PacketAction`).
    destination:
        Target service id for ``TO_NF``, or port id for ``OUT``.
    """

    payload: Any = None
    action: str = PacketAction.DROP
    destination: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)
    descriptor_id: int = field(default_factory=lambda: next(_descriptor_ids))
    _pool: Optional["SharedMemoryPool"] = field(
        default=None, repr=False, compare=False
    )
    #: True while the descriptor sits on its pool's free list; what
    #: makes a second free of the same descriptor detectable.
    _on_free_list: bool = field(
        default=False, init=False, repr=False, compare=False
    )

    def set_action(self, action: str, destination: int = 0) -> "Descriptor":
        """Set the manager action; returns self for chaining."""
        if action not in (
            PacketAction.DROP,
            PacketAction.TO_NF,
            PacketAction.OUT,
            PacketAction.NEXT,
        ):
            raise ValueError(f"unknown packet action: {action!r}")
        self.action = action
        self.destination = destination
        return self

    def free(self) -> None:
        """Return this descriptor to its pool."""
        if self._pool is not None:
            self._pool.free(self)


class SharedMemoryPool:
    """A fixed-size pool of descriptors shared by all NFs of one 5GC unit.

    Parameters
    ----------
    size:
        Number of descriptors (mbufs) in the pool.
    file_prefix:
        The DPDK shared-data file prefix that forms the security domain
        boundary; NFs must present the matching prefix to attach.
    """

    def __init__(self, size: int = 8192, file_prefix: str = "l25gc"):
        if size <= 0:
            raise ValueError(f"pool size must be positive: {size!r}")
        self.size = size
        self.file_prefix = file_prefix
        self._free: List[Descriptor] = [
            Descriptor(_pool=self) for _ in range(size)
        ]
        for descriptor in self._free:
            descriptor._on_free_list = True
        self.allocations = 0
        self.alloc_failures = 0

    # -- security domain -------------------------------------------------
    def attach(self, nf_name: str, file_prefix: str) -> None:
        """Attach an NF to the pool; the prefix must match (§3.2).

        Raises :class:`AccessDeniedError` for a foreign prefix — this is
        the isolation between 5GC instances of different operators.
        """
        if file_prefix != self.file_prefix:
            raise AccessDeniedError(
                f"{nf_name}: prefix {file_prefix!r} does not match pool "
                f"{self.file_prefix!r}"
            )

    # -- allocation ------------------------------------------------------
    @property
    def in_use(self) -> int:
        return self.size - len(self._free)

    def alloc(self, payload: Any = None) -> Descriptor:
        """Take a descriptor from the pool and point it at ``payload``."""
        if not self._free:
            self.alloc_failures += 1
            raise PoolExhaustedError(f"pool {self.file_prefix!r} exhausted")
        descriptor = self._free.pop()
        descriptor._on_free_list = False
        descriptor.payload = payload
        descriptor.action = PacketAction.DROP
        descriptor.destination = 0
        descriptor.meta.clear()
        self.allocations += 1
        return descriptor

    def free(self, descriptor: Descriptor) -> None:
        """Return a descriptor to the pool."""
        self.free_burst((descriptor,))

    def free_burst(self, descriptors: Iterable[Descriptor]) -> None:
        """Return a batch of descriptors in one call, in order (DPDK's
        ``rte_mempool_put_bulk``).

        Each descriptor is checked as it is returned: one from another
        pool, or one already on the free list (a double free), raises
        :class:`ValueError` and is not returned; those before it are.
        """
        free_list = self._free
        for descriptor in descriptors:
            if descriptor._pool is not self:
                raise ValueError("descriptor belongs to a different pool")
            if descriptor._on_free_list:
                raise ValueError("double free of descriptor")
            descriptor._on_free_list = True
            descriptor.payload = None
            descriptor.meta.clear()
            free_list.append(descriptor)
