"""NF replicas: frozen local standbys and the remote replica node.

Local resiliency (§3.5.1): each NF has a same-host replica that is
kept consistent with a no-replay scheme — the primary does not release
any response until the replica is synchronized (*output commit*), which
costs ~5 us over shared memory.  The replica process sits in the cgroup
freezer consuming **zero CPU** until the NF manager unfreezes it.

Remote resiliency: a replica node holds periodically-synced state
deltas; external synchrony means normal operation never blocks on the
WAN round trip.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Protocol

from ..analysis import races as _races
from .checkpoint import CheckpointStore, StateDelta

__all__ = ["StatefulNF", "LocalReplica", "RemoteReplica"]


class StatefulNF(Protocol):
    """Anything replicable: exposes snapshot()/restore()."""

    def snapshot(self) -> Dict[str, Any]: ...

    def restore(self, data: Dict[str, Any]) -> None: ...


class LocalReplica:
    """A frozen same-host standby of one NF.

    ``sync`` is called per UE event before the primary's response is
    released (output commit); ``activate`` unfreezes the standby and
    hands it the synchronized state.
    """

    def __init__(self, name: str, factory: Callable[[], StatefulNF]):
        self.name = name
        self._factory = factory
        self.store = CheckpointStore()
        self.frozen = True
        self.syncs = 0
        #: CPU seconds consumed while frozen — stays exactly zero; the
        #: tests assert this invariant (the paper's "consuming no CPU
        #: cycles" claim).
        self.cpu_while_frozen = 0.0
        self.instance: Optional[StatefulNF] = None
        detector = _races.active()
        if detector is not None:
            # Checkpoint state has a single writer: the replica
            # machinery (sync on the primary side, apply/restore on
            # the standby side) — never the NFs themselves.
            detector.register(
                self.store,
                label=f"replica({name}).store",
                owner="replica",
            )

    def sync(self, snapshot: Dict[str, Any]) -> None:
        """Fold the primary's current state (no-replay scheme)."""
        detector = _races.active()
        if detector is None:
            self.store.update(snapshot)
        else:
            with detector.role("replica"):
                self.store.update(snapshot)
        self.syncs += 1

    def activate(self) -> StatefulNF:
        """Unfreeze: instantiate the NF from the synchronized state."""
        self.frozen = False
        self.instance = self._factory()
        detector = _races.active()
        if detector is None:
            self.instance.restore(self.store.state)
        else:
            with detector.role("replica"):
                detector.on_read(self.store, "state")
                self.instance.restore(self.store.state)
        return self.instance


class RemoteReplica:
    """The replica 5GC node: per-NF checkpoint stores + replay hook.

    Receives periodic state deltas from the primary's *local* replica
    (so the primary itself is never blocked), acknowledges the counter
    each delta covers, and on failover reconstructs any newer state by
    replaying the LB's logged packets.
    """

    def __init__(self, name: str = "remote-replica"):
        self.name = name
        self.stores: Dict[str, CheckpointStore] = {}
        self.frozen = True
        self.synced_counter = 0
        self.deltas_received = 0
        self.replayed = 0

    def ensure_store(self, nf_name: str) -> CheckpointStore:
        if nf_name not in self.stores:
            store = CheckpointStore()
            self.stores[nf_name] = store
            detector = _races.active()
            if detector is not None:
                detector.register(
                    store,
                    label=f"{self.name}.store({nf_name})",
                    owner="replica",
                )
        return self.stores[nf_name]

    def receive_delta(self, nf_name: str, delta: StateDelta) -> int:
        """Apply a delta; returns the acknowledged counter."""
        detector = _races.active()
        if detector is None:
            self.ensure_store(nf_name).apply(delta)
        else:
            with detector.role("replica"):
                self.ensure_store(nf_name).apply(delta)
        self.deltas_received += 1
        self.synced_counter = max(self.synced_counter, delta.counter)
        return self.synced_counter

    def activate(self) -> None:
        self.frozen = False

