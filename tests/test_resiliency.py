"""Tests for the resiliency framework: checkpoints, logger, BFD, failover."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cp.nfs import AMF, SMF
from repro.net import Direction, PacketKind
from repro.resiliency import (
    CheckpointStore,
    LocalReplica,
    PacketLogger,
    ProbeAgent,
    ProbeTarget,
    RemoteReplica,
    ResiliencyFramework,
    apply_delta,
    compute_delta,
)
from repro.sim import MS, Environment


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------
class TestDeltas:
    def test_change_detection(self):
        old = {"a": 1, "b": {"c": 2}}
        new = {"a": 1, "b": {"c": 3}, "d": 4}
        delta = compute_delta(old, new)
        assert delta.changed == {("b", "c"): 3, ("d",): 4}
        assert delta.removed == []

    def test_removal_detection(self):
        delta = compute_delta({"a": 1, "b": 2}, {"a": 1})
        assert delta.removed == [("b",)]

    def test_empty_delta(self):
        delta = compute_delta({"a": {"b": 1}}, {"a": {"b": 1}})
        assert delta.empty

    def test_apply_roundtrip(self):
        old = {"x": {"y": 1, "z": 2}, "w": 3}
        new = {"x": {"y": 9}, "v": 5}
        delta = compute_delta(old, new)
        assert apply_delta(old, delta) == new

    nested = st.recursive(
        st.integers() | st.text(max_size=5),
        lambda children: st.dictionaries(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("Ll",), max_codepoint=0x7F
                ),
                min_size=1,
                max_size=4,
            ),
            children,
            max_size=4,
        ),
        max_leaves=20,
    )

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(st.text(min_size=1, max_size=4), nested, max_size=5),
        st.dictionaries(st.text(min_size=1, max_size=4), nested, max_size=5),
    )
    def test_delta_apply_property(self, old, new):
        """apply(old, delta(old, new)) == new for any state pair."""
        delta = compute_delta(old, new)
        import copy

        assert apply_delta(copy.deepcopy(old), delta) == new

    def test_size_bytes_positive_for_nonempty(self):
        delta = compute_delta({}, {"a": 1})
        assert delta.size_bytes() > 0


class TestCheckpointStore:
    def test_delta_since_last_accumulates(self):
        store = CheckpointStore({"counter": 0})
        store.update({"counter": 5})
        delta = store.delta_since_last(counter=10)
        assert delta.changed == {("counter",): 5}
        assert delta.counter == 10
        # A second call with no change is empty.
        assert store.delta_since_last(counter=11).empty

    def test_apply_tracks_counter(self):
        primary = CheckpointStore({"v": 1})
        replica = CheckpointStore({"v": 1})
        primary.update({"v": 2})
        replica.apply(primary.delta_since_last(counter=7))
        assert replica.state == {"v": 2}
        assert replica.applied_counter == 7


# ---------------------------------------------------------------------------
# Packet logger
# ---------------------------------------------------------------------------
class TestPacketLogger:
    def test_counters_monotonic(self):
        logger = PacketLogger()
        counters = [
            logger.stamp(i, Direction.UPLINK, PacketKind.DATA)
            for i in range(10)
        ]
        assert counters == sorted(counters)
        assert len(set(counters)) == 10

    def test_four_queues(self):
        logger = PacketLogger()
        logger.stamp("a", Direction.UPLINK, PacketKind.CONTROL)
        logger.stamp("b", Direction.UPLINK, PacketKind.DATA)
        logger.stamp("c", Direction.DOWNLINK, PacketKind.CONTROL)
        logger.stamp("d", Direction.DOWNLINK, PacketKind.DATA)
        for direction in Direction:
            for kind in PacketKind:
                assert len(logger._queues[direction, kind]) == 1

    def test_data_flood_cannot_evict_control(self):
        """§3.5.1: separate queues protect control packets."""
        logger = PacketLogger(data_capacity=5, control_capacity=5)
        logger.stamp("ctl", Direction.DOWNLINK, PacketKind.CONTROL)
        for index in range(100):
            logger.stamp(index, Direction.DOWNLINK, PacketKind.DATA)
        assert len(logger._queues[Direction.DOWNLINK, PacketKind.CONTROL]) == 1
        assert len(logger._queues[Direction.DOWNLINK, PacketKind.DATA]) == 5
        assert logger.dropped == 95

    def test_release_through(self):
        logger = PacketLogger()
        for index in range(10):
            logger.stamp(index, Direction.UPLINK, PacketKind.DATA)
        removed = logger.release_through(5)
        assert removed == 5
        assert len(logger) == 5
        assert logger.acked_counter == 5

    def test_replay_order_merges_by_counter(self):
        logger = PacketLogger()
        # Interleave queues so a naive per-queue replay would misorder.
        logger.stamp("c1", Direction.UPLINK, PacketKind.CONTROL)   # 1
        logger.stamp("d1", Direction.DOWNLINK, PacketKind.DATA)    # 2
        logger.stamp("c2", Direction.DOWNLINK, PacketKind.CONTROL) # 3
        logger.stamp("d2", Direction.UPLINK, PacketKind.DATA)      # 4
        replay = logger.replay_order()
        assert [entry.counter for entry in replay] == [1, 2, 3, 4]
        assert [entry.payload for entry in replay] == ["c1", "d1", "c2", "d2"]

    def test_replay_after_counter(self):
        logger = PacketLogger()
        for index in range(6):
            logger.stamp(index, Direction.UPLINK, PacketKind.DATA)
        replay = logger.replay_order(after_counter=4)
        assert [entry.counter for entry in replay] == [5, 6]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(Direction)),
                st.sampled_from(list(PacketKind)),
            ),
            max_size=60,
        )
    )
    def test_replay_order_property(self, stamps):
        logger = PacketLogger()
        for direction, kind in stamps:
            logger.stamp(None, direction, kind)
        counters = [entry.counter for entry in logger.replay_order()]
        assert counters == sorted(counters)
        assert len(counters) == len(stamps)


class ListLogger:
    """The four queues as plain lists, each operation written out."""

    def __init__(self, data_capacity, control_capacity):
        self.queues = {key: [] for key in PacketLogger.QUEUES}
        self.capacity = {
            key: control_capacity if key[1] is PacketKind.CONTROL
            else data_capacity
            for key in PacketLogger.QUEUES
        }
        self.counter = self.dropped = self.released = self.acked_counter = 0

    def stamp(self, payload, direction, kind):
        self.counter += 1
        queue = self.queues[direction, kind]
        queue.append((self.counter, payload))
        if len(queue) > self.capacity[direction, kind]:
            del queue[0]
            self.dropped += 1
        return self.counter

    def release_through(self, counter):
        removed = 0
        for key, queue in self.queues.items():
            keep = [entry for entry in queue if entry[0] > counter]
            removed += len(queue) - len(keep)
            self.queues[key] = keep
        self.released += removed
        self.acked_counter = max(self.acked_counter, counter)
        return removed

    def replay_order(self, after_counter):
        entries = [entry for queue in self.queues.values() for entry in queue]
        return sorted(entry for entry in entries if entry[0] > after_counter)


_LOGGER_OPS = st.one_of(
    st.tuples(
        st.just("stamp"),
        st.sampled_from(list(Direction)),
        st.sampled_from(list(PacketKind)),
    ),
    st.tuples(st.just("release"), st.integers(0, 40)),
    st.tuples(st.just("replay"), st.integers(0, 40)),
)


class TestPacketLoggerModel:
    @settings(max_examples=200, deadline=None)
    @given(
        data_capacity=st.integers(1, 5),
        control_capacity=st.integers(1, 5),
        ops=st.lists(_LOGGER_OPS, max_size=40),
    )
    def test_rings_match_the_list_model(
        self, data_capacity, control_capacity, ops
    ):
        logger = PacketLogger(data_capacity, control_capacity)
        model = ListLogger(data_capacity, control_capacity)
        for step, (op, *args) in enumerate(ops):
            if op == "stamp":
                direction, kind = args
                assert logger.stamp(step, direction, kind) == model.stamp(
                    step, direction, kind
                )
            elif op == "release":
                assert logger.release_through(args[0]) == (
                    model.release_through(args[0])
                )
            else:
                assert [
                    (entry.counter, entry.payload)
                    for entry in logger.replay_order(args[0])
                ] == model.replay_order(args[0])
            for key, queue in model.queues.items():
                assert [
                    (entry.counter, entry.payload)
                    for entry in logger._queues[key]
                ] == queue
            assert len(logger) == sum(map(len, model.queues.values()))
            assert (logger.dropped, logger.released, logger.acked_counter) == (
                model.dropped, model.released, model.acked_counter
            )


# ---------------------------------------------------------------------------
# Failure detection
# ---------------------------------------------------------------------------
class TestProbeAgent:
    def test_detects_within_half_millisecond(self):
        env = Environment()
        agent = ProbeAgent(env)
        target = ProbeTarget("node-1")
        agent.watch(target)
        agent.start()
        env.run(until=10 * MS)
        target.fail()
        failed_at = env.now
        env.run(until=failed_at + 5 * MS)
        assert len(agent.detections) == 1
        _, when = agent.detections[0]
        assert when - failed_at <= 0.5 * MS

    def test_no_false_positives(self):
        env = Environment()
        agent = ProbeAgent(env)
        agent.watch(ProbeTarget("healthy"))
        agent.start()
        env.run(until=50 * MS)
        assert agent.detections == []

    def test_recovery_resets(self):
        env = Environment()
        agent = ProbeAgent(env)
        target = ProbeTarget("flappy")
        agent.watch(target)
        agent.start()
        env.run(until=1 * MS)
        target.fail()
        env.run(until=5 * MS)
        target.reachable = True  # back up
        env.run(until=10 * MS)
        target.fail()
        env.run(until=15 * MS)
        assert len(agent.detections) == 2

    def test_listener_called(self):
        env = Environment()
        agent = ProbeAgent(env)
        target = ProbeTarget("node")
        agent.watch(target)
        seen = []
        agent.listeners.append(lambda t, when: seen.append(t.name))
        agent.start()
        target.fail()
        env.run(until=5 * MS)
        assert seen == ["node"]

    def test_invalid_threshold(self):
        env = Environment()
        with pytest.raises(ValueError):
            ProbeAgent(env, miss_threshold=0)


# ---------------------------------------------------------------------------
# Replicas and the framework
# ---------------------------------------------------------------------------
class TestReplicas:
    def test_local_replica_activation_restores_state(self):
        amf = AMF()
        amf.complete_registration("imsi-1", gnb_id=2)
        replica = LocalReplica("amf", factory=AMF)
        replica.sync(amf.snapshot())
        instance = replica.activate()
        assert not replica.frozen
        assert instance.context("imsi-1").serving_gnb_id == 2

    def test_remote_replica_applies_deltas(self):
        remote = RemoteReplica()
        store = CheckpointStore()
        store.update({"sessions": {"1": {"teid": 5}}})
        counter = remote.receive_delta("smf", store.delta_since_last(3))
        assert counter == 3
        assert remote.stores["smf"].state == {"sessions": {"1": {"teid": 5}}}

    def test_frozen_replica_consumed_no_cpu(self):
        replica = LocalReplica("amf", factory=AMF)
        for _ in range(100):
            replica.sync({"x": 1})
        assert replica.cpu_while_frozen == 0.0


class TestFramework:
    def _framework(self, sync_period=5 * MS):
        env = Environment()
        amf, smf = AMF(), SMF()
        framework = ResiliencyFramework(
            env, {"amf": amf, "smf": smf}, sync_period=sync_period
        )
        framework.start()
        return env, framework, amf, smf

    def test_periodic_sync_releases_log(self):
        env, framework, amf, smf = self._framework()

        def scenario():
            for index in range(10):
                amf.context(f"imsi-{index}").bump()
                framework.log_message(
                    index, Direction.UPLINK, PacketKind.CONTROL
                )
                yield from framework.commit_event()
                yield env.timeout(2 * MS)

        env.process(scenario())
        env.run(until=100 * MS)
        assert framework.remote.synced_counter > 0
        assert framework.logger.acked_counter > 0
        assert len(framework.logger) < 10

    def test_failover_timeline(self):
        env, framework, amf, smf = self._framework()
        report_holder = {}

        def scenario():
            amf.context("imsi-1").bump()
            framework.log_message("m", Direction.UPLINK, PacketKind.CONTROL)
            yield from framework.commit_event()
            yield env.timeout(20 * MS)
            framework.fail_primary()
            report = yield from framework.run_failover()
            report_holder["report"] = report

        env.process(scenario())
        env.run(until=0.5)
        report = report_holder["report"]
        costs = framework.costs
        assert report.detected_at - report.failed_at == pytest.approx(
            framework.probe.detection_time
        )
        expected_outage = (
            framework.probe.detection_time
            + costs.unfreeze
            + max(costs.reroute, costs.replay)
        )
        assert report.outage == pytest.approx(expected_outage)
        # Under 10 ms total — vastly below the ~290 ms 3GPP reattach.
        assert report.outage < 10 * MS

    def test_replay_covers_unacked_only(self):
        env, framework, amf, smf = self._framework(sync_period=1.0)
        report_holder = {}

        def scenario():
            # No sync will happen (period 1 s); everything replays.
            for index in range(7):
                framework.log_message(
                    index, Direction.DOWNLINK, PacketKind.DATA
                )
                yield from framework.commit_event()
            framework.fail_primary()
            report = yield from framework.run_failover()
            report_holder["report"] = report

        env.process(scenario())
        env.run(until=0.5)
        report = report_holder["report"]
        assert report.replayed_messages == 7
        assert report.recovered_data_packets == 7
        assert report.recovered_control_packets == 0

    def test_output_commit_syncs_every_nf(self):
        env, framework, amf, smf = self._framework()

        def scenario():
            yield from framework.commit_event()

        env.process(scenario())
        env.run(until=1 * MS)
        assert all(
            replica.syncs == 1
            for replica in framework.local_replicas.values()
        )
        assert framework.events_committed == 1
