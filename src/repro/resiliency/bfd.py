"""Seamless-BFD-style failure detection (§3.5.2, RFC 7881).

Two detectors cooperate in L25GC: the NF manager polls registered NFs
every few milliseconds for *software* failures (local resiliency), and
the LB's probe agent runs S-BFD toward each 5GC node for *node/link*
failures (remote resiliency), detecting within ~0.5 ms.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..sim.engine import US, Environment

__all__ = ["ProbeAgent", "ProbeTarget"]


class ProbeTarget:
    """Something the probe agent can ping: a node or link endpoint."""

    def __init__(self, name: str):
        self.name = name
        self.reachable = True

    def fail(self) -> None:
        self.reachable = False


class ProbeAgent:
    """S-BFD initiator at the LB node.

    Parameters
    ----------
    interval:
        Probe transmission interval.  With the paper's configuration
        the detection time (probe interval x miss threshold) stays
        under 0.5 ms.
    miss_threshold:
        Consecutive unanswered probes before declaring failure.
    """

    def __init__(
        self,
        env: Environment,
        interval: float = 150 * US,
        miss_threshold: int = 3,
    ):
        if miss_threshold <= 0:
            raise ValueError("miss_threshold must be positive")
        self.env = env
        self.interval = interval
        self.miss_threshold = miss_threshold
        self.targets: Dict[str, ProbeTarget] = {}
        self._misses: Dict[str, int] = {}
        self.listeners: List[Callable[[ProbeTarget, float], None]] = []
        self.detections: List[tuple] = []
        self._running = False

    @property
    def detection_time(self) -> float:
        """Worst-case detection latency."""
        return self.interval * self.miss_threshold

    def watch(self, target: ProbeTarget) -> None:
        self.targets[target.name] = target
        self._misses[target.name] = 0

    def start(self) -> None:
        if self._running:
            raise RuntimeError("probe agent already started")
        self._running = True
        self.env.process(self._run())

    def stop(self) -> None:
        self._running = False

    def _run(self):
        notified: set = set()
        while self._running:
            yield self.env.timeout(self.interval)
            for name, target in self.targets.items():
                if target.reachable:
                    self._misses[name] = 0
                    notified.discard(name)
                    continue
                self._misses[name] += 1
                if (
                    self._misses[name] >= self.miss_threshold
                    and name not in notified
                ):
                    notified.add(name)
                    self.detections.append((name, self.env.now))
                    for listener in self.listeners:
                        listener(target, self.env.now)
