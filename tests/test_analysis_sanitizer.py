"""Tests for the runtime descriptor sanitizer (repro.analysis.sanitizer).

These tests commit the exact sins the zero-copy transports make
possible — mutating a message after handing it to the bus, enqueuing
one descriptor on two rings, writing a descriptor the NF platform has
already handed over — and assert the sanitizer catches each with an
actionable report: the offending send site and a field-level diff.
"""

import inspect
import linecache
import os
from dataclasses import dataclass, field

import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import (
    DescriptorSanitizer,
    SanitizerError,
    sanitized,
)
from repro.core import (
    Channel,
    DEFAULT_COSTS,
    MessageBus,
    NetworkFunction,
    NFManager,
    PacketAction,
    Ring,
)
from repro.core.pool import Descriptor
from repro.sim import Environment


@dataclass
class Payload:
    """A deliberately mutable message, as a buggy NF would write it."""

    supi: str = "imsi-001"
    teid: int = 0
    meta: dict = field(default_factory=dict)


def make_bus():
    env = Environment()
    bus = MessageBus(env, DEFAULT_COSTS, default_channel=Channel.SHARED_MEMORY)
    return env, bus


class TestBusIntegration:
    def test_clean_run_has_no_violations(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        with sanitized() as san:
            bus.send("ran", "amf", Payload(), name="Registration")
            env.run()
        assert san.violations == []
        assert san.handoffs == 1
        assert san.report() == "descriptor sanitizer: no violations"

    def test_mutate_after_send_caught_with_site_and_diff(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        message = Payload(supi="imsi-042", teid=7)
        with sanitized() as san:
            bus.send("ran", "amf", message, name="Registration")  # SEND-SITE
            # The sender keeps writing through its live reference while
            # the message is in flight — the zero-copy hazard.
            message.teid = 99
            message.meta["rogue"] = True
            env.run()
        assert [v.kind for v in san.violations] == ["mutate-after-send"]
        violation = san.violations[0]
        # The report names this file and the line of the offending send.
        assert "test_analysis_sanitizer.py" in violation.send_site
        send_line = int(violation.send_site.rsplit(":", 1)[1])
        assert "SEND-SITE" in open(__file__).readlines()[send_line - 1]
        # ... and gives a field-level diff of what changed.
        diffed = {path: (before, after) for path, before, after in violation.diff}
        assert diffed["teid"] == ("7", "99")
        assert any(path.startswith("meta") for path in diffed)
        assert "handed over at" in violation.report()
        assert "ran -> amf" in violation.report()

    def test_double_send_flagged_as_double_enqueue(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        bus.register("smf", lambda message, b: None)
        message = Payload()
        with sanitized() as san:
            bus.send("ran", "amf", message)
            bus.send("ran", "smf", message)  # still in flight to amf
            env.run()
        assert [v.kind for v in san.violations] == ["double-enqueue"]
        assert "alias" in san.violations[0].detail

    def test_dropped_message_untracked(self):
        env, bus = make_bus()
        message = Payload()
        with sanitized() as san:
            bus.send("ran", "ghost", message)  # unknown endpoint: dropped
            env.run()
            message.teid = 5  # mutating a dropped message is harmless
            bus.register("amf", lambda m, b: None)
            bus.send("ran", "amf", message)  # legal: ownership was freed
            env.run()
        assert san.violations == []

    def test_primitive_messages_not_tracked(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        with sanitized() as san:
            bus.send("ran", "amf", "service-request")
            bus.send("ran", "amf", "service-request")  # interned str: fine
            env.run()
        assert san.violations == []
        assert san.handoffs == 0


class TestRingIntegration:
    def test_clean_enqueue_dequeue(self):
        ring = Ring(8, name="rx")
        with sanitized() as san:
            for _ in range(4):
                descriptor = Descriptor(payload={"seq": 1})
                ring.enqueue(descriptor)
                assert ring.dequeue() is descriptor
        assert san.violations == []
        assert san.handoffs == 4

    def test_double_enqueue_across_rings_caught(self):
        rx, tx = Ring(4, name="rx"), Ring(4, name="tx")
        descriptor = Descriptor(payload={"pkt": 1})
        with sanitized() as san:
            rx.enqueue(descriptor)
            tx.enqueue(descriptor)  # aliased: still queued on rx
        assert [v.kind for v in san.violations] == ["double-enqueue"]
        violation = san.violations[0]
        assert violation.channel == "rx"
        assert "'tx'" in violation.detail and "'rx'" in violation.detail
        assert "test_analysis_sanitizer.py" in violation.send_site
        assert "test_analysis_sanitizer.py" in violation.detect_site

    def test_use_after_dequeue_caught(self):
        rx, tx = Ring(4, name="rx"), Ring(4, name="tx")
        descriptor = Descriptor(payload={"pkt": 1})
        with sanitized() as san:
            rx.enqueue(descriptor)
            tx.enqueue(descriptor)  # the aliasing bug (violation 1)
            assert rx.dequeue() is descriptor  # first consumer owns it
            assert tx.dequeue() is descriptor  # stale alias surfaces
        kinds = [v.kind for v in san.violations]
        assert kinds == ["double-enqueue", "use-after-dequeue"]
        assert "stale alias" in san.violations[1].detail

    def test_mutate_while_queued_caught(self):
        ring = Ring(4, name="rx")
        descriptor = Descriptor(payload={"seq": 1})
        with sanitized() as san:
            ring.enqueue(descriptor)
            descriptor.payload["seq"] = 999  # producer writes after handoff
            ring.dequeue()
        assert [v.kind for v in san.violations] == ["mutate-after-send"]
        diffed = {p: (b, a) for p, b, a in san.violations[0].diff}
        assert any("seq" in path for path in diffed)

    def test_burst_ops_are_instrumented(self):
        ring = Ring(8, name="rx")
        descriptors = [Descriptor(payload={"i": i}) for i in range(3)]
        with sanitized() as san:
            ring.enqueue_burst(descriptors)
            ring.enqueue_burst([descriptors[0]])  # still queued: aliased
            ring.dequeue_burst(4)
        assert "double-enqueue" in [v.kind for v in san.violations]

    def test_clear_untracks_descriptors(self):
        ring = Ring(4, name="rx")
        descriptor = Descriptor(payload={"seq": 1})
        with sanitized() as san:
            ring.enqueue(descriptor)
            ring.clear()
            descriptor.payload["seq"] = 2  # freed: mutation is harmless
            ring.enqueue(descriptor)  # re-enqueue is legal after clear
            ring.dequeue()
        assert san.violations == []

    def test_release_frees_ownership(self):
        ring = Ring(4, name="rx")
        descriptor = Descriptor(payload={"seq": 1})
        with sanitized() as san:
            ring.enqueue(descriptor)
            ring.dequeue()
            san.release(descriptor)  # returned to the pool
            ring.enqueue(descriptor)  # fresh cycle, no use-after-dequeue
            ring.dequeue()
        assert san.violations == []


class TestProductionHandoffs:
    """The NF platform's three descriptor handoffs: a write through the
    producer's reference between the handoff and its consumer is a
    mutate-after-send naming the handoff's own enqueue line."""

    @pytest.mark.parametrize(
        "handoff",
        [NFManager.inject, NFManager._route, NetworkFunction._tx],
        ids=["NFManager.inject", "NFManager._route", "NF._tx"],
    )
    def test_write_before_the_consumer_names_the_send_site(
        self, handoff, monkeypatch
    ):
        env = Environment()
        manager = NFManager(env, pool_size=4)
        first = NetworkFunction(env, "nf-1", service_id=1)
        second = NetworkFunction(env, "nf-2", service_id=2)
        for nf in (first, second):
            manager.register(nf)
            nf.start()  # running, but the poll loops never get to run
        allocated = []
        alloc = manager.pool.alloc
        monkeypatch.setattr(
            manager.pool, "alloc",
            lambda payload=None: allocated.append(alloc(payload))
            or allocated[-1],
        )
        with sanitized() as san:
            if handoff is NFManager.inject:
                assert manager.inject({"seq": 1}, 1)
                consumer = first.rx_ring
            elif handoff is NFManager._route:
                manager._route(manager.pool.alloc({"seq": 1}).set_action(
                    PacketAction.TO_NF, 2
                ))
                consumer = second.rx_ring
            else:
                first.drop(manager.pool.alloc({"seq": 1}))
                consumer = first.tx_ring
            [descriptor] = allocated
            descriptor.meta["stamp"] = "late"  # stale producer reference
            assert consumer.dequeue_burst(1) == [descriptor]
        [violation] = san.violations
        assert violation.kind == "mutate-after-send"
        assert any(path.startswith("meta") for path, _, _ in violation.diff)
        path, line = violation.send_site.rsplit(":", 1)
        lines, start = inspect.getsourcelines(handoff)
        assert path == inspect.getsourcefile(handoff)
        assert start <= int(line) < start + len(lines)
        assert "enqueue(descriptor)" in linecache.getline(path, int(line))
        assert os.path.basename(path) in violation.report()


class TestModes:
    def test_strict_mode_raises_immediately(self):
        rx, tx = Ring(4, name="rx"), Ring(4, name="tx")
        descriptor = Descriptor(payload={})
        with sanitized(strict=True) as san:
            rx.enqueue(descriptor)
            with pytest.raises(SanitizerError) as excinfo:
                tx.enqueue(descriptor)
        assert "double-enqueue" in str(excinfo.value)
        assert len(san.violations) == 1

    def test_disabled_by_default_costs_nothing(self, request):
        if request.config.getoption("--sanitize"):
            pytest.skip("suite-wide sanitizer installed by --sanitize")
        assert sanitizer.active() is None
        ring = Ring(4, name="rx")
        descriptor = Descriptor(payload={})
        ring.enqueue(descriptor)
        ring.enqueue(descriptor)  # would be a violation if enabled
        assert ring.dequeue() is descriptor

    def test_enable_disable_roundtrip(self):
        san = sanitizer.enable()
        try:
            assert sanitizer.active() is san
            assert isinstance(san, DescriptorSanitizer)
        finally:
            sanitizer.disable()
        assert sanitizer.active() is None

    def test_sanitized_restores_previous(self):
        outer = sanitizer.enable()
        try:
            with sanitized() as inner:
                assert sanitizer.active() is inner
            assert sanitizer.active() is outer
        finally:
            sanitizer.disable()

    def test_reset_clears_state(self):
        rx, tx = Ring(4, name="rx"), Ring(4, name="tx")
        descriptor = Descriptor(payload={})
        with sanitized() as san:
            rx.enqueue(descriptor)
            tx.enqueue(descriptor)
            assert san.violations and san.handoffs
            san.reset()
            assert san.violations == [] and san.handoffs == 0

    def test_report_aggregates_multiple_violations(self):
        rx, tx = Ring(4, name="rx"), Ring(4, name="tx")
        first, second = Descriptor(payload={}), Descriptor(payload={})
        with sanitized() as san:
            for descriptor in (first, second):
                rx.enqueue(descriptor)
                tx.enqueue(descriptor)
        report = san.report()
        assert report.startswith("descriptor sanitizer: 2 violation(s)")
        assert report.count("double-enqueue") == 2


class TestLeakReport:
    def test_descriptor_left_in_ring_is_a_leak(self):
        ring = Ring(4, name="rx")
        descriptor = Descriptor(payload={"seq": 1})
        with sanitized() as san:
            ring.enqueue(descriptor)  # LEAK-SITE — never dequeued
        [leak] = san.leaks()
        assert leak.state == "in-ring"
        assert leak.channel == "rx"
        assert "test_analysis_sanitizer.py" in leak.send_site
        leak_line = int(leak.send_site.rsplit(":", 1)[1])
        assert "LEAK-SITE" in open(__file__).readlines()[leak_line - 1]
        assert "leaked descriptor (in-ring)" in leak.report()
        assert "never dequeued" in leak.report()

    def test_message_never_delivered_is_a_leak(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        with sanitized() as san:
            bus.send("ran", "amf", Payload(), name="Registration")
            # env.run() never happens: the message stays in flight.
        [leak] = san.leaks()
        assert leak.state == "in-flight"
        assert leak.channel == "ran -> amf"

    def test_consumed_descriptors_are_not_leaks(self):
        ring = Ring(4, name="rx")
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        descriptor = Descriptor(payload={"seq": 1})
        with sanitized() as san:
            ring.enqueue(descriptor)
            ring.dequeue()  # checked out: the consumer's responsibility
            bus.send("ran", "amf", Payload(), name="Registration")
            env.run()  # delivered
        assert san.leaks() == []
        assert san.leak_report() == (
            "descriptor sanitizer: no leaked descriptors"
        )

    def test_cleared_and_released_are_not_leaks(self):
        ring = Ring(4, name="rx")
        first, second = Descriptor(payload={}), Descriptor(payload={})
        with sanitized() as san:
            ring.enqueue(first)
            ring.clear()
            ring.enqueue(second)
            san.release(second)
        assert san.leaks() == []

    def test_leak_report_aggregates(self):
        ring = Ring(4, name="rx")
        with sanitized() as san:
            for index in range(2):
                ring.enqueue(Descriptor(payload={"i": index}))
        report = san.leak_report()
        assert report.startswith(
            "descriptor sanitizer: 2 leaked descriptor(s)"
        )
        assert report.count("leaked descriptor (in-ring)") == 2

    def test_suite_fixture_warns_on_leak(self, request):
        """Under --sanitize the conftest fixture turns leaks into
        warnings, not failures; without it this just documents the API."""
        san = sanitizer.active() or sanitizer.DescriptorSanitizer()
        assert san.leaks() == []
