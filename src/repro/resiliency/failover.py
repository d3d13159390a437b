"""Failover orchestration: detection -> unfreeze -> reroute -> replay.

Ties the pieces of §3.5 together around a running core:

1. the LB stamps/logs every message through the :class:`PacketLogger`;
2. the primary's local replicas sync per event (output commit);
3. a periodic process ships state deltas to the :class:`RemoteReplica`
   and releases acknowledged log entries;
4. on failure, the probe agent detects within ~0.5 ms, the remote
   replica is unfrozen, traffic re-routes (~2 ms) while the replica
   replays logged packets (~3 ms, partially overlapped), and the UE
   never re-attaches.

The alternative the paper compares against — the 3GPP restoration
procedure — is modeled by :func:`reattach_time`: the UE must perform a
fresh registration and PDU session establishment through the target
gNB, with every buffered packet lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..core.costs import DEFAULT_COSTS, CostModel
from ..net.packet import Direction, PacketKind
from ..sim.engine import MS, Environment
from .bfd import ProbeAgent, ProbeTarget
from .logger import PacketLogger
from .replica import LocalReplica, RemoteReplica, StatefulNF

__all__ = ["FailoverReport", "ResiliencyFramework", "reattach_time"]


@dataclass
class FailoverReport:
    """Timeline and counts of one failover."""

    failed_at: float
    detected_at: float
    rerouted_at: float
    replayed_at: float
    resumed_at: float
    replayed_messages: int = 0
    recovered_data_packets: int = 0
    recovered_control_packets: int = 0

    @property
    def outage(self) -> float:
        """Total unavailability seen by new traffic."""
        return self.resumed_at - self.failed_at


class ResiliencyFramework:
    """The L25GC resiliency machinery around one primary 5GC node.

    Parameters
    ----------
    env:
        Simulation environment.
    primaries:
        name -> stateful NF (``snapshot``/``restore``) to replicate.
    sync_period:
        Delta checkpoint period to the remote replica.
    """

    def __init__(
        self,
        env: Environment,
        primaries: Dict[str, StatefulNF],
        costs: CostModel = DEFAULT_COSTS,
        sync_period: float = 10 * MS,
        logger: Optional[PacketLogger] = None,
    ):
        self.env = env
        self.costs = costs
        self.primaries = dict(primaries)
        self.sync_period = sync_period
        self.logger = logger or PacketLogger()
        self.local_replicas: Dict[str, LocalReplica] = {
            name: LocalReplica(name, factory=lambda nf=nf: type(nf)())
            for name, nf in self.primaries.items()
        }
        self.remote = RemoteReplica()
        self.probe_target = ProbeTarget("primary-node")
        self.probe = ProbeAgent(env)
        self.probe.watch(self.probe_target)
        self.events_committed = 0
        self._running = False
        self._last_stamped_counter = 0

    # ------------------------------------------------------------------
    # Normal operation
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._running = True
        self.probe.start()
        # Named process: the race detector attributes the loop's
        # checkpoint-store writes to the "replica" role.
        self.env.process(self._sync_loop(), name="replica")

    def stop(self) -> None:
        self._running = False
        self.probe.stop()

    def log_message(
        self, payload: Any, direction: Direction, kind: PacketKind
    ) -> int:
        """LB ingress: stamp + log one message."""
        counter = self.logger.stamp(payload, direction, kind)
        self._last_stamped_counter = counter
        return counter

    def commit_event(self):
        """Output commit: sync local replicas before releasing output.

        A generator — procedures yield from it; costs ~5 us since the
        replicas share the host's memory.
        """
        for name, nf in self.primaries.items():
            self.local_replicas[name].sync(nf.snapshot())
        self.events_committed += 1
        yield self.env.timeout(self.costs.local_sync)

    def _sync_loop(self):
        """Periodic delta shipping from the *local* replica to the
        remote node, then log release on acknowledgement."""
        while self._running:
            yield self.env.timeout(self.sync_period)
            if self.probe_target.reachable is False:
                return
            counter = self._last_stamped_counter
            for name, replica in self.local_replicas.items():
                # The local replica is already in sync with the primary
                # (output commit), so the delta is computed from it,
                # never blocking the primary.
                replica.store.update(self.primaries[name].snapshot())
                delta = replica.store.delta_since_last(counter)
                if delta.empty:
                    continue
                yield self.env.timeout(self.costs.checkpoint_send)
                self.remote.receive_delta(name, delta)
            # Remote ACK releases everything it now covers.
            self.logger.release_through(self.remote.synced_counter)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def fail_primary(self) -> None:
        """Inject a node/link failure of the primary 5GC."""
        self.probe_target.fail()

    def run_failover(self):
        """The failover process; returns a :class:`FailoverReport`.

        Call after :meth:`fail_primary`; models §5.5.1's timeline:
        detection < 0.5 ms, re-route 2 ms and replay 3 ms with partial
        overlap.
        """
        costs = self.costs
        failed_at = self.env.now
        yield self.env.timeout(self.probe.detection_time)
        detected_at = self.env.now

        # Unfreeze the remote replica (cgroup thaw).
        yield self.env.timeout(costs.unfreeze)
        self.remote.activate()

        # Re-route and replay overlap; replay is the longer pole.
        replay_entries = self.logger.replay_order(
            after_counter=self.remote.synced_counter
        )
        reroute_done = self.env.now + costs.reroute
        replay_done = self.env.now + costs.replay
        yield self.env.timeout(max(costs.reroute, costs.replay))
        self.remote.replayed += len(replay_entries)

        data = sum(
            1 for entry in replay_entries if entry.kind is PacketKind.DATA
        )
        control = len(replay_entries) - data
        return FailoverReport(
            failed_at=failed_at,
            detected_at=detected_at,
            rerouted_at=reroute_done,
            replayed_at=replay_done,
            resumed_at=self.env.now,
            replayed_messages=len(replay_entries),
            recovered_data_packets=data,
            recovered_control_packets=control,
        )


def reattach_time(costs: CostModel = DEFAULT_COSTS) -> float:
    """The 3GPP restoration alternative, from the baseline's measured
    procedure times: failure detection + notification, then a fresh
    registration and PDU session establishment through the target gNB.

    Using the free5GC event times this lands at ~287 ms of procedures
    plus detection/notification — which is why a handover interrupted
    halfway (~115 ms in) completes only at ~400 ms (§5.5.1).
    """
    # Measured free5GC procedure times from the Fig 8 experiment; we
    # re-derive them here from the message sequences to avoid constants.
    from ..baselines import free5gc
    from ..cp import scenario

    (_, registration), (_, session) = scenario.run(
        free5gc(Environment()),
        {"imsi-208930000000099": [("register", 2), ("establish", 1)]},
    )
    return (
        costs.failure_detection
        + costs.sctp_message  # failure notification to the UE via gNB
        + registration.duration
        + session.duration
    )
