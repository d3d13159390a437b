"""The NF manager: the DPDK primary process of the platform.

The manager owns the shared memory pool, registers NFs by service id,
moves descriptors between NF rings according to their actions, transmits
descriptors marked ``OUT`` to NIC ports, balances packets across
instances of a service (supporting canary rollouts with weighted
splitting, §4), and monitors NF liveness for the resiliency framework
(§3.5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..sim.engine import MS, Environment
from ..sim.queues import Store
from .costs import DEFAULT_COSTS, CostModel
from .nf import NetworkFunction, NFStatus
from .pool import (
    Descriptor,
    PacketAction,
    PoolExhaustedError,
    SharedMemoryPool,
)
from .rings import RingFullError

__all__ = ["DROP_REASONS", "NFManager", "ServiceEntry"]

#: Why the manager dropped a descriptor: no RUNNING instance of the
#: target service, mempool exhausted at arrival, target Rx ring full
#: (at arrival or when routing), ``OUT`` to a port that does not exist,
#: and an NF's own ``DROP`` (or an unchained ``NEXT``) action.
DROP_REASONS = (
    "no-instance",
    "pool-exhausted",
    "rx-ring-full",
    "bad-port",
    "drop-action",
)


@dataclass
class ServiceEntry:
    """All registered instances of one service id."""

    service_id: int
    instances: List[NetworkFunction] = field(default_factory=list)
    #: Traffic weights per instance id (canary rollout); missing ids get
    #: weight 0.  An empty dict means "all traffic to instance 0".
    weights: Dict[int, float] = field(default_factory=dict)
    #: Smooth-WRR state: instance id -> current weight.
    _current: Dict[int, float] = field(default_factory=dict)

    def running_instances(self) -> List[NetworkFunction]:
        return [nf for nf in self.instances if nf.status is NFStatus.RUNNING]

    def pick(self) -> Optional[NetworkFunction]:
        """Choose the instance for the next descriptor.

        Smooth weighted round robin (the nginx algorithm): every
        instance's current weight grows by its configured weight each
        round, the largest wins and is decremented by the total — a
        canary configured at 10 % receives exactly one in ten.  With
        no weights it is the first running instance.
        """
        if not self.weights:
            for nf in self.instances:
                if nf.status is NFStatus.RUNNING:
                    return nf
            return None
        running = self.running_instances()
        if not running:
            return None
        total = sum(self.weights.get(nf.instance_id, 0.0) for nf in running)
        if total <= 0:
            return running[0]
        best: Optional[NetworkFunction] = None
        for nf in running:
            weight = self.weights.get(nf.instance_id, 0.0)
            if weight <= 0:
                continue
            current = self._current.get(nf.instance_id, 0.0) + weight
            self._current[nf.instance_id] = current
            if best is None or current > self._current[best.instance_id]:
                best = nf
        if best is None:
            return running[0]
        self._current[best.instance_id] -= total
        return best


class NFManager:
    """Routes descriptors between NFs and the NIC ports.

    Parameters
    ----------
    env:
        Simulation environment.
    pool_size:
        Descriptor count of the shared mempool.
    file_prefix:
        Security-domain prefix for the pool (§3.2).
    num_ports:
        Simulated NIC ports; each gets an output :class:`Store` that a
        link model can drain.
    """

    def __init__(
        self,
        env: Environment,
        pool_size: int = 8192,
        file_prefix: str = "l25gc",
        num_ports: int = 2,
        costs: CostModel = DEFAULT_COSTS,
    ):
        self.env = env
        self.costs = costs
        self.pool = SharedMemoryPool(pool_size, file_prefix)
        self.services: Dict[int, ServiceEntry] = {}
        self.ports: List[Store] = [Store(env) for _ in range(num_ports)]
        #: Descriptors the manager dropped, by reason (:data:`DROP_REASONS`).
        self.drops: Dict[str, int] = dict.fromkeys(DROP_REASONS, 0)
        self.routed = 0
        self.transmitted = 0
        #: Callbacks invoked with the failed NF when liveness monitoring
        #: detects a crash (the resiliency framework subscribes here).
        self.failure_listeners: List[Callable[[NetworkFunction], None]] = []
        self._nfs: List[NetworkFunction] = []
        self._running = False
        self._monitor_interval = 2 * MS

    @property
    def dropped(self) -> int:
        """Descriptors dropped for any reason."""
        return sum(self.drops.values())

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self, nf: NetworkFunction, file_prefix: Optional[str] = None
    ) -> None:
        """Attach an NF to the pool and the service table."""
        nf.attach(self.pool, file_prefix or self.pool.file_prefix)
        entry = self.services.setdefault(
            nf.service_id, ServiceEntry(nf.service_id)
        )
        entry.instances.append(nf)
        self._nfs.append(nf)

    def set_canary_weights(
        self, service_id: int, weights: Dict[int, float]
    ) -> None:
        """Configure the traffic split across instances of a service."""
        if service_id not in self.services:
            raise KeyError(f"unknown service id: {service_id}")
        bad = [w for w in weights.values() if w < 0]
        if bad:
            raise ValueError(f"negative canary weights: {weights!r}")
        self.services[service_id].weights = dict(weights)

    def lookup(self, service_id: int) -> Optional[NetworkFunction]:
        """The instance currently selected for a service id."""
        entry = self.services.get(service_id)
        return entry.pick() if entry else None

    # ------------------------------------------------------------------
    # Descriptor plumbing
    # ------------------------------------------------------------------
    def inject(self, payload, service_id: int) -> bool:
        """Allocate a descriptor for ``payload`` and deliver it to a
        service's Rx ring (models packet arrival from a NIC port).

        Returns False when the packet had to be dropped (no instance,
        exhausted pool, or full ring), counted under that reason in
        :attr:`drops`.
        """
        entry = self.services.get(service_id)
        target = entry.pick() if entry else None
        if target is None:
            self.drops["no-instance"] += 1
            return False
        try:
            descriptor = self.pool.alloc(payload)
        except PoolExhaustedError:
            self.drops["pool-exhausted"] += 1
            return False
        try:
            target.rx_ring.enqueue(descriptor)
        except RingFullError:
            descriptor.free()
            self.drops["rx-ring-full"] += 1
            return False
        return True

    def _route(self, descriptor: Descriptor) -> None:
        action = descriptor.action
        if action == PacketAction.TO_NF:
            entry = self.services.get(descriptor.destination)
            target = entry.pick() if entry else None
            if target is None:
                self.drops["no-instance"] += 1
                descriptor.free()
                return
            try:
                target.rx_ring.enqueue(descriptor)
                self.routed += 1
            except RingFullError:
                self.drops["rx-ring-full"] += 1
                descriptor.free()
        elif action == PacketAction.OUT:
            port = descriptor.destination
            if 0 <= port < len(self.ports):
                payload = descriptor.payload
                descriptor.free()
                self.ports[port].put_nowait(payload)
                self.transmitted += 1
            else:
                self.drops["bad-port"] += 1
                descriptor.free()
        else:  # DROP / NEXT without a chain
            self.drops["drop-action"] += 1
            descriptor.free()

    # ------------------------------------------------------------------
    # Main loops
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the Tx-drain loop and the liveness monitor."""
        if self._running:
            raise RuntimeError("manager already started")
        self._running = True
        self.env.process(self._tx_loop())
        self.env.process(self._monitor_loop())

    def stop(self) -> None:
        self._running = False

    def _tx_loop(self):
        costs = self.costs
        while self._running:
            moved = 0
            for nf in self._nfs:
                for descriptor in nf.tx_ring.dequeue_burst(64):
                    self._route(descriptor)
                    moved += 1
            if moved:
                yield self.env.timeout(moved * costs.manager_dispatch)
            else:
                yield self.env.timeout(costs.poll_interval)

    def _monitor_loop(self):
        """Detect NF crashes within a few milliseconds (§3.5.2)."""
        last_beat: Dict[int, int] = {}
        notified: set = set()
        while self._running:
            yield self.env.timeout(self._monitor_interval)
            for nf in self._nfs:
                key = id(nf)
                if nf.status is NFStatus.FAILED and key not in notified:
                    notified.add(key)
                    for listener in self.failure_listeners:
                        listener(nf)
                last_beat[key] = nf.heartbeat

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Aggregate counters for tests and dashboards."""
        return {
            "routed": self.routed,
            "transmitted": self.transmitted,
            "dropped": self.dropped,
            "pool_in_use": self.pool.in_use,
            "nfs": len(self._nfs),
        }
