"""Tests for the NF abstraction and the NF manager."""

import pytest

from repro.core import (
    DEFAULT_COSTS,
    NetworkFunction,
    NFManager,
    NFStatus,
    PacketAction,
    ServiceEntry,
)
from repro.core.manager import DROP_REASONS
from repro.sim import MS, Environment


class CountingNF(NetworkFunction):
    """Forwards everything out of port 0, counting."""

    def handle(self, descriptor):
        descriptor.set_action(PacketAction.OUT, 0)
        return (descriptor,)


class ChainNF(NetworkFunction):
    """Forwards to another service id."""

    def __init__(self, *args, next_service: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.next_service = next_service

    def handle(self, descriptor):
        descriptor.set_action(PacketAction.TO_NF, self.next_service)
        return (descriptor,)


class BadPortNF(NetworkFunction):
    """Transmits out of a port the manager does not have."""

    def handle(self, descriptor):
        descriptor.set_action(PacketAction.OUT, 9)
        return (descriptor,)


def build(env, nf_classes, pool_size=256):
    manager = NFManager(env, pool_size=pool_size)
    nfs = []
    for index, item in enumerate(nf_classes):
        cls, kwargs = item if isinstance(item, tuple) else (item, {})
        nf = cls(env, f"nf-{index}", service_id=index + 1, **kwargs)
        manager.register(nf)
        nf.start()
        nfs.append(nf)
    manager.start()
    return manager, nfs


class TestLifecycle:
    def test_start_twice_raises(self):
        env = Environment()
        nf = NetworkFunction(env, "nf", service_id=1)
        nf.start()
        with pytest.raises(RuntimeError):
            nf.start()

    def test_freeze_consumes_no_cpu(self):
        """A frozen NF must not poll: simulated time passes with zero
        heartbeats (the paper's zero-CPU standby claim)."""
        env = Environment()
        manager, (nf,) = build(env, [CountingNF])
        env.run(until=1 * MS)
        nf.freeze()
        beats_at_freeze = nf.heartbeat
        env.run(until=100 * MS)
        assert nf.heartbeat == beats_at_freeze

    def test_unfreeze_resumes(self):
        env = Environment()
        manager, (nf,) = build(env, [CountingNF])
        env.run(until=1 * MS)
        nf.freeze()
        env.run(until=2 * MS)
        nf.unfreeze()
        manager.inject("pkt", service_id=1)
        env.run(until=4 * MS)
        assert nf.handled == 1

    def test_unfreeze_not_frozen_raises(self):
        env = Environment()
        nf = NetworkFunction(env, "nf", service_id=1)
        with pytest.raises(RuntimeError):
            nf.unfreeze()

    def test_failed_nf_stops_processing(self):
        env = Environment()
        manager, (nf,) = build(env, [CountingNF])
        env.run(until=1 * MS)
        nf.fail()
        assert nf.status is NFStatus.FAILED
        manager.inject("pkt", service_id=1)
        env.run(until=5 * MS)
        assert nf.handled == 0


class TestRouting:
    def test_inject_and_transmit(self):
        env = Environment()
        manager, (nf,) = build(env, [CountingNF])
        for index in range(10):
            assert manager.inject(f"pkt-{index}", service_id=1)
        env.run(until=10 * MS)
        assert nf.handled == 10
        assert manager.transmitted == 10
        assert len(manager.ports[0]) == 10
        assert manager.pool.in_use == 0  # all descriptors returned

    def test_chain_between_nfs(self):
        env = Environment()
        manager, nfs = build(
            env, [(ChainNF, {"next_service": 2}), CountingNF]
        )
        manager.inject("pkt", service_id=1)
        env.run(until=10 * MS)
        assert nfs[0].handled == 1
        assert nfs[1].handled == 1
        assert manager.routed == 1
        assert manager.transmitted == 1

    def test_inject_unknown_service_drops(self):
        env = Environment()
        manager, _ = build(env, [CountingNF])
        assert not manager.inject("pkt", service_id=99)
        assert manager.dropped == 1

    def test_route_to_dead_service_drops(self):
        env = Environment()
        manager, nfs = build(
            env, [(ChainNF, {"next_service": 2}), CountingNF]
        )
        nfs[1].fail()
        manager.inject("pkt", service_id=1)
        env.run(until=10 * MS)
        assert manager.dropped >= 1
        assert manager.pool.in_use == 0

    def test_stats_shape(self):
        env = Environment()
        manager, _ = build(env, [CountingNF])
        stats = manager.stats()
        assert set(stats) == {
            "routed", "transmitted", "dropped", "pool_in_use", "nfs"
        }


def _no_instance(env):
    manager, (nf,) = build(env, [CountingNF])
    nf.fail()
    return manager, 1


def _pool_exhausted(env):
    manager, _ = build(env, [CountingNF], pool_size=1)
    return manager, 2


def _rx_ring_full_at_inject(env):
    manager, _ = build(env, [(CountingNF, {"ring_size": 1})])
    return manager, 2


def _rx_ring_full_at_route(env):
    # Both descriptors reach the Tx ring within one manager poll; the
    # second finds the one-slot Rx ring of service 2 still occupied.
    manager, _ = build(
        env,
        [(ChainNF, {"next_service": 2}), (CountingNF, {"ring_size": 1})],
    )
    return manager, 2


def _bad_port(env):
    manager, _ = build(env, [BadPortNF])
    return manager, 1


def _drop_action(env):
    manager, _ = build(env, [NetworkFunction])  # forwards with DROP
    return manager, 1


class TestDropReasons:
    """Every injected packet leaves through a port or is counted under
    exactly one named drop reason."""

    @pytest.mark.parametrize(
        "reason, scenario",
        [
            ("no-instance", _no_instance),
            ("pool-exhausted", _pool_exhausted),
            ("rx-ring-full", _rx_ring_full_at_inject),
            ("rx-ring-full", _rx_ring_full_at_route),
            ("bad-port", _bad_port),
            ("drop-action", _drop_action),
        ],
        ids=[
            "no-instance",
            "pool-exhausted",
            "rx-ring-full-at-inject",
            "rx-ring-full-at-route",
            "bad-port",
            "drop-action",
        ],
    )
    def test_each_reason_is_counted_once(self, reason, scenario):
        env = Environment()
        manager, injected = scenario(env)
        for index in range(injected):
            manager.inject(f"pkt-{index}", service_id=1)
        env.run(until=10 * MS)
        expected = dict.fromkeys(DROP_REASONS, 0)
        expected[reason] = 1
        assert manager.drops == expected
        assert manager.dropped == manager.stats()["dropped"] == 1
        assert manager.transmitted + manager.dropped == injected
        assert manager.pool.in_use == 0

    def test_an_allocator_fault_is_not_a_drop(self, monkeypatch):
        env = Environment()
        manager, _ = build(env, [CountingNF])

        def broken(payload=None):
            raise RuntimeError("allocator bug")

        monkeypatch.setattr(manager.pool, "alloc", broken)
        with pytest.raises(RuntimeError, match="allocator bug"):
            manager.inject("pkt", service_id=1)
        assert manager.dropped == 0


class TestPick:
    @staticmethod
    def _entry(env, statuses):
        entry = ServiceEntry(1)
        for index, status in enumerate(statuses):
            nf = NetworkFunction(env, f"nf-{index}", 1, instance_id=index)
            nf.status = status
            entry.instances.append(nf)
        return entry

    def test_unweighted_pick_skips_instances_not_running(self, count_calls):
        entry = self._entry(
            Environment(),
            [NFStatus.FROZEN, NFStatus.FAILED, NFStatus.RUNNING, NFStatus.RUNNING],
        )
        listing = count_calls(entry, "running_instances")
        assert entry.pick() is entry.instances[2]
        assert listing.calls == 0

    def test_unweighted_pick_with_nothing_running_is_none(self, count_calls):
        entry = self._entry(
            Environment(),
            [NFStatus.STARTING, NFStatus.FROZEN, NFStatus.STOPPED],
        )
        listing = count_calls(entry, "running_instances")
        assert entry.pick() is None
        assert listing.calls == 0


class TestCanary:
    def _running_pair(self, env):
        manager = NFManager(env)
        stable = NetworkFunction(env, "svc-v1", service_id=1, instance_id=0)
        canary = NetworkFunction(env, "svc-v2", service_id=1, instance_id=1)
        for nf in (stable, canary):
            manager.register(nf)
            nf.status = NFStatus.RUNNING
        return manager, stable, canary

    def test_default_all_to_first(self):
        env = Environment()
        manager, stable, _ = self._running_pair(env)
        picks = {manager.lookup(1).instance_id for _ in range(20)}
        assert picks == {0}

    @pytest.mark.parametrize("share", [0.1, 0.25, 0.5, 0.9])
    def test_weighted_split_exact(self, share):
        env = Environment()
        manager, _, _ = self._running_pair(env)
        manager.set_canary_weights(1, {0: 1 - share, 1: share})
        picks = [manager.lookup(1).instance_id for _ in range(1000)]
        assert picks.count(1) / 1000 == pytest.approx(share, abs=0.01)

    def test_negative_weight_rejected(self):
        env = Environment()
        manager, _, _ = self._running_pair(env)
        with pytest.raises(ValueError):
            manager.set_canary_weights(1, {0: -1.0})

    def test_unknown_service_rejected(self):
        env = Environment()
        manager, _, _ = self._running_pair(env)
        with pytest.raises(KeyError):
            manager.set_canary_weights(9, {0: 1.0})

    def test_failed_canary_falls_back(self):
        env = Environment()
        manager, stable, canary = self._running_pair(env)
        manager.set_canary_weights(1, {0: 0.0, 1: 1.0})
        assert manager.lookup(1) is canary
        canary.fail()
        assert manager.lookup(1) is stable


class TestFailureDetection:
    def test_listener_notified_within_milliseconds(self):
        env = Environment()
        manager, (nf,) = build(env, [CountingNF])
        detections = []
        manager.failure_listeners.append(
            lambda failed: detections.append((failed.name, env.now))
        )
        env.run(until=10 * MS)
        nf.fail()
        failed_at = env.now
        env.run(until=failed_at + 20 * MS)
        assert len(detections) == 1
        name, when = detections[0]
        assert name == "nf-0"
        assert when - failed_at <= 5 * MS
