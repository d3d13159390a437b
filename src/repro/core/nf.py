"""The network-function abstraction of the NFV platform.

Each NF owns an Rx and a Tx descriptor ring shared with the manager,
mirrors OpenNetVM's poll-mode execution, and reports liveness through a
heartbeat word the manager inspects.  Control-plane NFs (AMF, SMF, ...)
and the UPF-U all derive from :class:`NetworkFunction`.

An NF can be *frozen* (the cgroup-freezer standby of §3.5.1): it keeps
its rings and state but consumes no simulated CPU until the manager
unfreezes it.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional

from ..obs import spans as _tracing
from ..sim.engine import Environment, Event
from .costs import DEFAULT_COSTS, CostModel
from .pool import Descriptor, PacketAction, SharedMemoryPool
from .rings import Ring, RingFullError

__all__ = ["NFStatus", "NetworkFunction"]


class NFStatus(Enum):
    """Lifecycle states of an NF under the manager."""

    STARTING = "starting"
    RUNNING = "running"
    FROZEN = "frozen"
    FAILED = "failed"
    STOPPED = "stopped"


class NetworkFunction:
    """Base class for all NFs on the shared-memory platform.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Human-readable NF name (``"amf"``, ``"upf-u"``...).
    service_id:
        The platform-wide service this NF implements.  Several
        instances (canary versions, replicas) may share a service id.
    instance_id:
        Distinguishes instances of the same service (canary rollout).
    ring_size:
        Capacity of the Rx and Tx rings.
    burst:
        Max descriptors handled per polling iteration.
    """

    #: When True the run loop hands each polled batch to
    #: :meth:`handle_burst` in one shot (after a single timeout equal
    #: to the summed per-descriptor processing time) instead of
    #: interleaving a timeout + :meth:`handle` per descriptor.  Only
    #: NFs whose batch handling is semantically equivalent to
    #: descriptor-at-a-time handling should enable it (the UPF-U's
    #: ``process_burst`` is: it runs the per-packet pipeline over the
    #: batch in arrival order).
    burst_mode = False

    def __init__(
        self,
        env: Environment,
        name: str,
        service_id: int,
        instance_id: int = 0,
        ring_size: int = 1024,
        burst: int = 32,
        costs: CostModel = DEFAULT_COSTS,
    ):
        self.env = env
        self.name = name
        self.service_id = service_id
        self.instance_id = instance_id
        self.burst = burst
        self.costs = costs
        self.rx_ring = Ring(ring_size, name=f"{name}.rx")
        self.tx_ring = Ring(ring_size, name=f"{name}.tx")
        self.status = NFStatus.STARTING
        self.pool: Optional[SharedMemoryPool] = None
        self.handled = 0
        self.heartbeat = 0
        self._process = None
        self._wake: Optional[Event] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, pool: SharedMemoryPool, file_prefix: str) -> None:
        """Join the shared memory security domain (DPDK secondary)."""
        pool.attach(self.name, file_prefix)
        self.pool = pool

    def start(self) -> None:
        """Begin the poll-mode run loop as a simulation process."""
        if self._process is not None:
            raise RuntimeError(f"{self.name} already started")
        self.status = NFStatus.RUNNING
        # Named after the NF so the race detector can attribute the
        # loop's shared-state accesses to this role.
        self._process = self.env.process(self._run(), name=self.name)

    def freeze(self) -> None:
        """Enter the zero-CPU standby state (cgroup freezer)."""
        if self.status is NFStatus.FAILED:
            raise RuntimeError(f"{self.name} has failed; cannot freeze")
        self.status = NFStatus.FROZEN

    def unfreeze(self) -> None:
        """Resume from standby; the run loop notices within a poll."""
        if self.status is not NFStatus.FROZEN:
            raise RuntimeError(f"{self.name} is not frozen")
        self.status = NFStatus.RUNNING
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def fail(self) -> None:
        """Crash the NF (used by fault injection)."""
        self.status = NFStatus.FAILED

    def stop(self) -> None:
        self.status = NFStatus.STOPPED

    @property
    def is_alive(self) -> bool:
        return self.status in (NFStatus.RUNNING, NFStatus.STARTING)

    # ------------------------------------------------------------------
    # Message handling — subclasses override
    # ------------------------------------------------------------------
    def handle(self, descriptor: Descriptor) -> Iterable[Descriptor]:
        """Process one descriptor; yield descriptors for the Tx ring.

        The default implementation forwards unchanged (a wire NF).
        Subclasses set each descriptor's action/destination.
        """
        return (descriptor,)

    def processing_time(self, descriptor: Descriptor) -> float:
        """Simulated CPU time to handle one descriptor."""
        return self.costs.dpdk_per_packet

    def handle_burst(
        self, descriptors: Iterable[Descriptor]
    ) -> Iterable[Descriptor]:
        """Process a polled batch in one shot (``burst_mode`` NFs only).

        The default simply chains :meth:`handle`; the UPF-U overrides
        it to pay the per-call work (role, tracer check, key build)
        once per batch.
        """
        outputs = []
        for descriptor in descriptors:
            outputs.extend(self.handle(descriptor))
        return outputs

    # ------------------------------------------------------------------
    # Descriptor I/O helpers
    # ------------------------------------------------------------------
    def send_to_nf(self, descriptor: Descriptor, service_id: int) -> None:
        """Queue a descriptor for another NF via the manager."""
        descriptor.set_action(PacketAction.TO_NF, service_id)
        self._tx(descriptor)

    def send_out(self, descriptor: Descriptor, port: int = 0) -> None:
        """Queue a descriptor for transmission out of a NIC port."""
        descriptor.set_action(PacketAction.OUT, port)
        self._tx(descriptor)

    def drop(self, descriptor: Descriptor) -> None:
        descriptor.set_action(PacketAction.DROP)
        self._tx(descriptor)

    def _tx(self, descriptor: Descriptor) -> None:
        try:
            self.tx_ring.enqueue(descriptor)
        except RingFullError:
            # Tail drop at the Tx ring, as on the real platform.
            descriptor.free()

    # ------------------------------------------------------------------
    # Poll-mode run loop
    # ------------------------------------------------------------------
    def _run(self):
        costs = self.costs
        while self.status not in (NFStatus.STOPPED, NFStatus.FAILED):
            if self.status is NFStatus.FROZEN:
                # A frozen NF burns no cycles: block on an explicit wake
                # event instead of polling.
                self._wake = self.env.event()
                yield self._wake
                self._wake = None
                continue
            self.heartbeat += 1
            batch = self.rx_ring.dequeue_burst(self.burst)
            if not batch:
                yield self.env.timeout(costs.poll_interval)
                continue
            if (
                self.burst_mode
                and len(batch) > 1
                and _tracing.active() is None
            ):
                # Amortized path: one timeout covering the whole batch
                # (identical total to the per-descriptor sum), then the
                # batch is handled atomically — no yields inside, so
                # the whole burst sees a single simulation instant.
                # Tracing falls back to the classic path below for
                # span-per-descriptor fidelity.
                work = 0.0
                for descriptor in batch:
                    work += self.processing_time(descriptor)
                if work > 0:
                    yield self.env.timeout(work)
                if self.status in (NFStatus.STOPPED, NFStatus.FAILED):
                    self.pool.free_burst(batch)
                    continue
                for out in self.handle_burst(batch):
                    self._tx(out)
                self.handled += len(batch)
                continue
            for descriptor in batch:
                tracer = _tracing.active()
                span = None
                if tracer is not None:
                    # Parent to the context the descriptor carried
                    # through the ring, so the handle span slots into
                    # the originating procedure's causal tree.
                    span = tracer.start_span(
                        f"nf-handle:{self.name}",
                        category="nf",
                        parent=tracer.context_of(descriptor),
                        nf=self.name,
                        service_id=self.service_id,
                    )
                work = self.processing_time(descriptor)
                if work > 0:
                    yield self.env.timeout(work)
                if self.status in (NFStatus.STOPPED, NFStatus.FAILED):
                    descriptor.free()
                    if span is not None:
                        span.end = self.env.now
                        span.attrs["aborted"] = True
                    continue
                outputs = 0
                if span is not None:
                    tracer.attach(descriptor, span)
                for out in self.handle(descriptor):
                    self._tx(out)
                    outputs += 1
                self.handled += 1
                if span is not None:
                    span.end = self.env.now
                    span.attrs["outputs"] = outputs

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, svc={self.service_id}, "
            f"inst={self.instance_id}, {self.status.value})"
        )
