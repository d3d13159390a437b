"""Burst-mode UPF-U data plane: unit and platform tests.

``process_burst`` is a vectorized key build (``packet_keys``) followed
by the sequential ``_pipeline`` once per packet in arrival order, so
"burst ≡ sequential" holds by construction rather than by a replay
machinery that property suites had to police (DESIGN §12).  What still
has two sides is tested here: the two key builders against each other,
the bulk ``FlowCache`` operations against per-packet probing, the
``process_burst`` wrapper (pre-built keys, the TEID-less cache bypass,
one span per packet under tracing) against ``process``, sharded scatter/gather
against the unsharded pipeline, and the platform's burst polling
against one-descriptor-per-poll.
"""

from contextlib import nullcontext

import pytest

from repro.analysis import races
from repro.classifier import PDI_FIELDS, LinearClassifier
from repro.cp import FiveGCore, SystemConfig, scenario
from repro.cp.scenario import ATTACH
from repro.deploy.sharded import ShardedUserPlane
from repro.net import Direction, FiveTuple, Packet
from repro.obs import spans as obs_spans
from repro.pfcp import ies as pfcp_ies
from repro.sim import MS, Environment
from repro.up import (
    FAR,
    FlowCache,
    FlowCacheEntry,
    RuleDelta,
    RuleEpoch,
    SessionTable,
    UPFUserPlane,
    packet_key,
    packet_keys,
)
from repro.up.flow_cache import FULL_ADMIT_INTERVAL

from .test_up_flow_cache import cache_state, dl_packet, make_session, ul_packet

DN_IP = 0x08080808
UE_BASE = 0x0A3C0000


def build_pair(flow_cache=True, capacity=8, qer=False, urr=False, seids=(1,)):
    """Two identical stacks: one driven sequentially, one by bursts."""
    stacks = []
    for _ in range(2):
        table = SessionTable()
        upf = UPFUserPlane(
            Environment(),
            table,
            flow_cache=flow_cache,
            flow_cache_capacity=capacity,
        )
        for seid in seids:
            table.add(make_session(seid, LinearClassifier, qer=qer, urr=urr))
        stacks.append((table, upf))
    return stacks[0], stacks[1]


def assert_equivalent(seq, bur):
    """Sequential stack and burst stack ended in the same state."""
    (seq_table, seq_upf), (bur_table, bur_upf) = seq, bur
    assert seq_upf.stats == bur_upf.stats
    if seq_upf.flow_cache is not None:
        assert cache_state(seq_upf.flow_cache) == cache_state(
            bur_upf.flow_cache)


# ----------------------------------------------------------------------
# packet_keys (vectorized key build)
# ----------------------------------------------------------------------
class TestPacketKeys:
    def test_matches_packet_key_per_packet(self):
        packets = [ul_packet(1), dl_packet(2), ul_packet(3, src_port=9)]
        assert packet_keys(packets) == [packet_key(p) for p in packets]

    @pytest.mark.parametrize("with_meta", [False, True], ids=["plain", "meta"])
    @pytest.mark.parametrize("make", [ul_packet, dl_packet], ids=["ul", "dl"])
    def test_single_and_burst_builders_agree(self, make, with_meta):
        """One key per packet whichever builder made it, each element
        where ``PDI_FIELDS`` says and inside that field's domain."""
        packet = make(1)
        meta = {
            name: index + 1
            for index, name in enumerate((
                "app_id", "spi", "flow_label", "sdf_filter_id", "pdu_type",
                "network_instance", "session_id", "slice_id", "urr_id",
                "outer_header",
            ))
        } if with_meta else {}
        packet.meta.update(meta)
        key = packet_key(packet)
        assert packet_keys([packet]) == [key]
        named = dict(zip((spec.name for spec in PDI_FIELDS), key))
        uplink = packet.direction is Direction.UPLINK
        assert named.pop("source_iface") == (
            pfcp_ies.ACCESS if uplink else pfcp_ies.CORE
        )
        assert named.pop("teid") == (packet.teid or 0)
        assert named.pop("qfi") == (packet.qfi or 0)
        assert named.pop("tos") == packet.tos
        assert named.pop("dscp") == packet.tos >> 2
        flow = packet.flow
        assert [named.pop(name) for name in (
            "src_ip", "dst_ip", "src_port", "dst_port", "protocol",
        )] == [flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port,
               flow.protocol]
        assert named == {name: meta.get(name, 0) for name in named}
        assert len(named) == 10
        for value, spec in zip(key, PDI_FIELDS):
            assert 0 <= value <= spec.max_value, spec.name

    def test_teidless_uplink_yields_none(self):
        packet = ul_packet(1)
        packet.teid = None
        assert packet_keys([packet]) == [None]

    def test_meta_fields_included(self):
        packet = dl_packet(1)
        packet.meta["app_id"] = 5
        [key] = packet_keys([packet])
        assert key == packet_key(packet)
        plain = dl_packet(1)
        assert key != packet_key(plain)

    def test_empty(self):
        assert packet_keys([]) == []


# ----------------------------------------------------------------------
# FlowCache burst primitives
# ----------------------------------------------------------------------
class TestFlowCacheBurstOps:
    def test_lookup_many_probes_without_side_effects(self):
        epoch = RuleEpoch()
        cache = FlowCache(epoch, capacity=4)
        cache.insert("a", None, 1, None)
        cache.insert("b", None, 2, None)
        epoch.bump()
        cache.insert("c", None, 3, None)
        found, stale = cache.lookup_many(["a", "b", "c", "d"])
        assert set(found) == {"c"} and stale == {"a", "b"}
        # No counters moved, no LRU movement, stale entries left in place.
        assert (cache.hits, cache.misses, cache.stale) == (0, 0, 0)
        assert list(cache._entries) == ["a", "b", "c"]

    def test_commit_burst_replays_sequentially(self):
        """commit_burst == the same key sequence via lookup/insert: the
        same resident keys, bits, slots, ring, hand and counters."""
        epoch_a, epoch_b = RuleEpoch(), RuleEpoch()
        seq = FlowCache(epoch_a, capacity=3)
        bur = FlowCache(epoch_b, capacity=3)
        for cache in (seq, bur):
            cache.insert("a", None, "a", None)
            cache.insert("s", None, "s", None)
        for epoch in (epoch_a, epoch_b):
            epoch.bump()
        for cache in (seq, bur):
            cache.insert("a", None, "a", None)  # "s" stays stale
        # A stale hit, a fill, two sweeps' worth of misses, declines.
        keys = ["a", "s", "b", "a", "c", "d", "b", "e", None, "c"]
        keys += [("x", n) for n in range(FULL_ADMIT_INTERVAL)] + ["f", "a"]
        resolved = {
            key: FlowCacheEntry(epoch_b.value, None, key, None, None, None)
            for key in ["s", "b", "c", "d", "e", "f"]
            + [("x", n) for n in range(FULL_ADMIT_INTERVAL)]
        }
        for key in keys:  # sequential oracle
            if key is None:
                continue
            if seq.lookup(key) is None and key in resolved:
                decision = resolved[key]
                seq.insert(key, decision.session, decision.pdr,
                           decision.far, decision.enforcer, decision.counter)
        bur.commit_burst(keys, resolved)
        assert cache_state(seq) == cache_state(bur)
        assert seq.evictions >= 2 and seq.stale == 1 and seq.declined > 0

    def test_commit_burst_skips_none_keys(self):
        cache = FlowCache(RuleEpoch(), capacity=4)
        cache.commit_burst([None, None], {})
        assert (cache.hits, cache.misses) == (0, 0)

    def test_touch_burst_orders_by_last_occurrence(self):
        """The all-hit replay sets each distinct key's bit once: the
        state per-packet lookups reach, whatever the touch order."""
        seq = FlowCache(RuleEpoch(), capacity=4)
        bur = FlowCache(RuleEpoch(), capacity=4)
        for cache in (seq, bur):
            for key in ("a", "b", "c", "d"):
                cache.insert(key, None, key, None)
        touches = ["b", "a", "b", "c", "a"]
        for key in touches:
            seq.lookup(key)
        # Distinct keys in last-occurrence order: b, c, a.
        bur.touch_burst(["b", "c", "a"], hits=len(touches))
        assert cache_state(seq) == cache_state(bur)
        assert [entry.referenced for entry in bur._entries.values()] == [
            True, True, True, False]
        assert seq.hits == bur.hits == 5


# ----------------------------------------------------------------------
# process_burst unit behaviour
# ----------------------------------------------------------------------
class TestProcessBurst:
    def test_empty_burst(self):
        (_, upf), _ = build_pair()
        assert upf.process_burst([]) == []
        assert upf.stats.forwarded == 0

    def test_singleton_equals_process(self):
        (_, seq_upf), (_, bur_upf) = seq, bur = build_pair()
        assert seq_upf.process(ul_packet(1)) == "forwarded-ul"
        assert bur_upf.process_burst([ul_packet(1)]) == ["forwarded-ul"]
        assert_equivalent(seq, bur)

    def test_burst_of_distinct_flows_fills_then_hits(self):
        (_, upf), _ = build_pair()
        burst = [ul_packet(1, src_port=4000 + i) for i in range(4)]
        assert upf.process_burst(burst) == ["forwarded-ul"] * 4
        assert upf.flow_cache.inserts == 4
        again = [ul_packet(1, src_port=4000 + i) for i in range(4)]
        assert upf.process_burst(again) == ["forwarded-ul"] * 4
        assert upf.flow_cache.hits == 4

    def test_repeated_flow_resolves_once_per_burst(self):
        """The flow cache memoizes: one classifier lookup per distinct
        flow, however many of the burst's packets carry it."""
        (_, upf), _ = build_pair()
        burst = [ul_packet(1) for _ in range(8)]
        upf.process_burst(burst)
        assert upf.flow_cache.inserts == 1
        # Arrival order: the first packet misses and fills, the other
        # seven hit the fresh entry.
        assert upf.flow_cache.misses == 1
        assert upf.flow_cache.hits == 7
        assert upf.stats.forwarded_ul == 8

    def test_cache_off_burst_equals_sequential(self):
        seq, bur = build_pair(flow_cache=False)
        packets = [ul_packet(1), dl_packet(1), ul_packet(1, src_port=7)]
        seq_out = [seq[1].process(p) for p in packets]
        bur_out = bur[1].process_burst(
            [ul_packet(1), dl_packet(1), ul_packet(1, src_port=7)]
        )
        assert seq_out == bur_out
        assert_equivalent(seq, bur)

    def test_teidless_uplink_mid_burst(self):
        (_, upf), _ = build_pair()
        bare = ul_packet(1)
        bare.teid = None
        out = upf.process_burst([ul_packet(1), bare, dl_packet(1)])
        assert out == ["forwarded-ul", "drop-no-session", "forwarded-dl"]
        assert len(upf.flow_cache) == 2  # the bare packet bypassed it

    def test_qer_policing_order_within_burst(self):
        """The MBR bucket drains packet-by-packet inside a burst."""
        (_, seq_upf), (_, bur_upf) = seq, bur = build_pair(qer=True)
        seq_out = [seq_upf.process(ul_packet(1)) for _ in range(5)]
        bur_out = bur_upf.process_burst([ul_packet(1) for _ in range(5)])
        assert seq_out == bur_out == ["forwarded-ul"] * 3 + ["drop-qos"] * 2
        assert_equivalent(seq, bur)

    def test_urr_accounting_within_burst(self):
        (seq_table, seq_upf), (bur_table, bur_upf) = seq, bur = build_pair(
            urr=True
        )
        for _ in range(4):
            seq_upf.process(ul_packet(1))
        bur_upf.process_burst([ul_packet(1) for _ in range(4)])
        for table in (seq_table, bur_table):
            session = table.by_seid(1)
            assert session.usage_counters[1].uplink_bytes == 400
        assert seq_upf.stats.usage_reports == bur_upf.stats.usage_reports == 1
        assert_equivalent(seq, bur)

    def test_buffering_notifies_once_per_episode(self):
        (seq_table, seq_upf), (bur_table, bur_upf) = seq, bur = build_pair()
        for table in (seq_table, bur_table):
            table.by_seid(1).apply(RuleDelta(far_updates=(
                FAR(far_id=2, forward=False, buffer=True, notify_cp=True),
            )))
        seq_out = [seq_upf.process(dl_packet(1)) for _ in range(3)]
        bur_out = bur_upf.process_burst([dl_packet(1) for _ in range(3)])
        assert seq_out == bur_out == ["buffered"] * 3
        assert seq_upf.stats.notifications == bur_upf.stats.notifications == 1
        assert_equivalent(seq, bur)

    def test_lru_eviction_order_matches_sequential(self):
        seq, bur = build_pair(capacity=2, seids=(1, 2, 3))
        packets = [dl_packet(1), dl_packet(2), dl_packet(1), dl_packet(3),
                   dl_packet(2)]
        seq_out = [seq[1].process(p) for p in packets]
        bur_out = bur[1].process_burst(
            [dl_packet(1), dl_packet(2), dl_packet(1), dl_packet(3),
             dl_packet(2)]
        )
        assert seq_out == bur_out
        assert seq[1].flow_cache.evictions == bur[1].flow_cache.evictions > 0
        assert_equivalent(seq, bur)

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    @pytest.mark.parametrize("flow_cache", [True, False], ids=["on", "off"])
    def test_burst_equals_process(self, flow_cache, traced):
        """``process_burst(ps) == [process(p) for p in ps]`` with every
        wrapper-level difference in one burst: pre-built keys, a
        TEID-less uplink (cache bypass) mid-burst, and a notify-CP
        callback that mutates the rules between two packets, so the
        rest of the burst must see the *new* rules."""
        seq, bur = build_pair(flow_cache=flow_cache)

        def on_notify(notified):
            # The CP reacts by removing the DL PDR: a decision cached
            # or resolved before this point would still say "buffer".
            # Under --race the rule write is the CP's, not the UPF-U's.
            detector = races.active()
            with detector.role("upf-c") if detector else nullcontext():
                notified.apply(RuleDelta(removed_pdrs=(2,)))

        for table, upf in (seq, bur):
            table.by_seid(1).apply(RuleDelta(far_updates=(
                FAR(far_id=2, forward=False, buffer=True, notify_cp=True),
            )))
            upf.notify_cp = on_notify

        def burst():
            bare = ul_packet(1)
            bare.teid = None
            return [ul_packet(1), bare, dl_packet(1), dl_packet(1),
                    ul_packet(1), dl_packet(1)]

        scope = obs_spans.tracing(seq[1].env) if traced else nullcontext()
        with scope as tracer:
            seq_out = [seq[1].process(p) for p in burst()]
            bur_out = bur[1].process_burst(burst())
        if traced:  # each burst packet gets the span process gives it
            pipelines = [s for s in tracer.spans if s.name == "upf-u.pipeline"]
            assert len(pipelines) == 2 * len(seq_out)
            half = len(seq_out)
            assert [s.attrs for s in pipelines[:half]] == [
                s.attrs for s in pipelines[half:]
            ]
        assert seq_out == bur_out
        assert seq_out == ["forwarded-ul", "drop-no-session", "buffered",
                           "drop-no-pdr", "forwarded-ul", "drop-no-pdr"]
        assert seq[1].stats.notifications == 1
        assert_equivalent(seq, bur)

    def test_burst_size_validation(self):
        with pytest.raises(ValueError):
            UPFUserPlane(Environment(), SessionTable(), burst_size=0)

    def test_burst_size_arms_platform_burst_mode(self):
        upf = UPFUserPlane(Environment(), SessionTable(), burst_size=16)
        assert upf.burst_mode and upf.burst == 16
        plain = UPFUserPlane(Environment(), SessionTable())
        assert not plain.burst_mode


# ----------------------------------------------------------------------
# Sharded burst dispatch
# ----------------------------------------------------------------------
class TestShardedBurst:
    def _sharded_and_plain(self, num_shards=4):
        from .test_sharded_up import make_session as make_steered
        from .test_sharded_up import dl_packet as sh_dl
        from .test_sharded_up import ul_packet as sh_ul

        sharded = ShardedUserPlane(
            Environment(), num_shards, flow_cache=True, burst_size=8
        )
        plain_table = SessionTable()
        plain = UPFUserPlane(Environment(), plain_table, flow_cache=True)
        for seid in (1, 2, 3, 4, 5):
            sharded.sessions.add(make_steered(seid))
            plain_table.add(make_steered(seid))
        return sharded, plain, sh_ul, sh_dl

    def test_burst_scatter_gather_matches_unsharded(self):
        sharded, plain, sh_ul, sh_dl = self._sharded_and_plain()
        script = [(d, seid) for seid in (1, 2, 3, 4, 5)
                  for d in ("ul", "dl", "ul")]

        def burst_of():
            return [
                sh_ul(seid) if d == "ul" else sh_dl(seid)
                for d, seid in script
            ]

        seq_out = [plain.process(p) for p in burst_of()]
        bur_out = sharded.process_burst(burst_of())
        assert seq_out == bur_out
        assert sharded.stats == plain.stats
        assert sum(sharded.dispatched) == len(script)
        # Every shard with sessions saw only its own keys.
        for shard in sharded.shards:
            for entry in shard.upf_u.flow_cache._entries.values():
                owner = sharded.sessions.shard_of(entry.session.seid)
                assert owner == shard.shard_id

    def test_sharded_burst_race_clean(self):
        env = Environment()
        from .test_sharded_up import make_session as make_steered
        from .test_sharded_up import dl_packet as sh_dl
        from .test_sharded_up import ul_packet as sh_ul

        with races.traced(env=env) as detector:
            sharded = ShardedUserPlane(env, 2, flow_cache=True, burst_size=8)
            with detector.role("upf-c"):
                for seid in (1, 2):
                    sharded.sessions.add(make_steered(seid))
            sharded.process_burst(
                [sh_ul(1), sh_dl(2), sh_ul(2), sh_dl(1)]
            )
        assert detector.violations == [], detector.report()


# ----------------------------------------------------------------------
# Full system: SystemConfig(burst_size=...) end to end
# ----------------------------------------------------------------------
class TestFullSystemBurst:
    def _core_with_burst(self, burst_size):
        env = Environment()
        config = SystemConfig.l25gc()
        config.flow_cache = True
        config.burst_size = burst_size
        core = FiveGCore(env, config)
        for gnb in core.gnbs.values():
            gnb.radio_latency = 0.0
        supi = "imsi-208930000009001"
        _, (_, session) = scenario.run(core, {supi: ATTACH})
        detail, ue = session.detail, core.ues[supi]
        outcomes = core.inject_downlink_burst(
            [
                Packet(
                    direction=Direction.DOWNLINK,
                    flow=FiveTuple(
                        src_ip=1, dst_ip=detail["ue_ip"],
                        src_port=80, dst_port=4000 + (seq % 4),
                    ),
                    created_at=env.now,
                )
                for seq in range(40)
            ]
        )
        env.run()
        return core, ue, outcomes

    def test_burst32_delivery_identical_to_burst1(self):
        bur_core, bur_ue, bur_out = self._core_with_burst(32)
        seq_core, seq_ue, seq_out = self._core_with_burst(1)
        assert bur_out == seq_out == ["forwarded-dl"] * 40
        assert len(bur_ue.received) == len(seq_ue.received) == 40
        assert bur_core.upf_u.stats == seq_core.upf_u.stats


# ----------------------------------------------------------------------
# NF platform: burst_mode polling through the rings
# ----------------------------------------------------------------------
class TestPlatformBurstMode:
    def _platform(self, burst_size):
        from repro.core import NFManager
        from repro.pfcp.builder import build_session_establishment
        from repro.up import UPFControlPlane

        env = Environment()
        manager = NFManager(env, pool_size=4096)
        table = SessionTable()
        delivered = []
        upf_u = UPFUserPlane(
            env,
            table,
            service_id=2,
            downlink_sink=lambda p, t, a: delivered.append(p),
            flow_cache=True,
            burst_size=burst_size,
        )
        upf_c = UPFControlPlane(table, upf_u=upf_u, address=1)
        upf_c.handle(
            build_session_establishment(
                seid=1, sequence=1, ue_ip=UE_BASE + 1, upf_address=1,
                ul_teid=0x100, gnb_address=2, dl_teid=0x500,
            )
        )
        manager.register(upf_u)
        upf_u.start()
        manager.start()
        return env, manager, upf_u, delivered

    def _dl(self, seq):
        return Packet(
            size=128,
            seq=seq,
            direction=Direction.DOWNLINK,
            flow=FiveTuple(
                src_ip=1, dst_ip=UE_BASE + 1, src_port=80, dst_port=4000
            ),
        )

    @pytest.mark.parametrize("burst_size", [1, 32])
    def test_packets_flow_through_rings(self, burst_size):
        env, manager, upf_u, delivered = self._platform(burst_size)
        for seq in range(50):
            assert manager.inject(self._dl(seq), service_id=2)
        env.run(until=10 * MS)
        assert [p.seq for p in delivered] == list(range(50))
        assert upf_u.handled == 50
        assert manager.pool.in_use == 0

    def test_burst_timing_identical_to_sequential(self):
        """The burst branch charges the same summed processing time, so
        simulated completion is identical at any burst size."""
        done = {}
        for label, burst_size in (("seq", 1), ("bur", 32)):
            env, manager, upf_u, delivered = self._platform(burst_size)
            for seq in range(100):
                manager.inject(self._dl(seq), service_id=2)

            def watch(env=env, upf_u=upf_u, label=label):
                while upf_u.handled < 100:
                    yield env.timeout(1e-6)
                done[label] = env.now

            env.process(watch())
            env.run(until=50 * MS)
        assert done["seq"] == pytest.approx(done["bur"], abs=2e-6)
