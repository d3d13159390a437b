"""Tests for the message-level bus."""

import pytest

from repro.core import Channel, DEFAULT_COSTS, MessageBus
from repro.sim import Environment


def make_bus(channel=Channel.SHARED_MEMORY):
    env = Environment()
    bus = MessageBus(env, DEFAULT_COSTS, default_channel=channel)
    return env, bus


class TestDelivery:
    def test_handler_invoked_with_message(self):
        env, bus = make_bus()
        received = []
        bus.register("amf", lambda message, b: received.append(message))
        bus.send("ran", "amf", "hello", name="Test")
        env.run()
        assert received == ["hello"]

    def test_done_event_fires_after_handler(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        done = bus.send("ran", "amf", "msg", handler_time=1e-3)
        env.run()
        assert done.triggered
        expected = DEFAULT_COSTS.message_cost(Channel.SHARED_MEMORY) + 1e-3
        assert env.now == pytest.approx(expected)

    def test_channel_costs_respected(self):
        results = {}
        for channel in (Channel.SHARED_MEMORY, Channel.HTTP_JSON):
            env, bus = make_bus(channel)
            bus.register("amf", lambda message, b: None)
            bus.send("ran", "amf", "msg", handler_time=0.0)
            env.run()
            results[channel] = env.now
        assert results[Channel.HTTP_JSON] > 10 * results[Channel.SHARED_MEMORY]

    def test_per_send_channel_override(self):
        env, bus = make_bus(Channel.SHARED_MEMORY)
        bus.register("upf", lambda message, b: None)
        bus.send(
            "smf", "upf", "pfcp", channel=Channel.UDP_PFCP, handler_time=0.0
        )
        env.run()
        assert env.now == pytest.approx(
            DEFAULT_COSTS.message_cost(Channel.UDP_PFCP)
        )

    def test_unknown_endpoint_counts_lost(self):
        env, bus = make_bus()
        done = bus.send("ran", "ghost", "msg")
        env.run()
        assert bus.lost == 1
        assert done.triggered and done.value is None

    def test_dead_endpoint_discards(self):
        env, bus = make_bus()
        received = []
        bus.register("amf", lambda message, b: received.append(message))
        bus.set_alive("amf", False)
        bus.send("ran", "amf", "msg")
        env.run()
        assert received == []
        assert bus.lost == 1

    def test_unknown_endpoint_recorded_in_drops(self):
        env, bus = make_bus()
        bus.send("ran", "ghost", "msg", name="Registration")
        env.run()
        assert len(bus.drops) == 1
        drop = bus.drops[0]
        assert drop.source == "ran"
        assert drop.destination == "ghost"
        assert drop.name == "Registration"
        assert drop.reason == "unknown-endpoint"
        assert drop.at > 0.0

    def test_dead_endpoint_drop_reason_distinguished(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        bus.set_alive("amf", False)
        bus.send("ran", "amf", "msg", name="ServiceRequest")
        bus.send("ran", "ghost", "msg", name="ServiceRequest")
        env.run()
        reasons = {d.destination: d.reason for d in bus.drops}
        assert reasons == {
            "amf": "endpoint-down",
            "ghost": "unknown-endpoint",
        }
        assert bus.lost == len(bus.drops) == 2

    def test_delivered_messages_not_in_drops(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        bus.send("ran", "amf", "msg")
        env.run()
        assert bus.drops == []
        assert bus.lost == 0

    def test_set_alive_unknown_raises(self):
        _env, bus = make_bus()
        with pytest.raises(KeyError):
            bus.set_alive("ghost", False)

    def test_handler_extra_time_recorded(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: 2e-3)
        bus.send("ran", "amf", "msg", handler_time=1e-3)
        env.run()
        record = bus.log[0]
        assert record.handler_time == pytest.approx(3e-3)


class TestMetricsView:
    def test_lost_is_a_view_over_the_drop_counter(self):
        """``bus.lost`` is derived from the metrics counter; both must
        always agree with the structured drop records."""
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        bus.set_alive("amf", False)
        bus.send("ran", "amf", "msg")
        bus.send("ran", "ghost", "msg")
        bus.send("ran", "ghost", "msg")
        env.run()
        assert bus.lost == len(bus.drops) == 3
        assert bus.metrics.get("bus.lost").value == bus.lost

    def test_delivered_counter_and_latency_histogram(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        bus.send("ran", "amf", "a", handler_time=0.0)
        bus.send("ran", "amf", "b", handler_time=0.0)
        env.run()
        assert bus.metrics.get("bus.delivered").value == 2
        histogram = bus.metrics.get("bus.message_latency")
        assert histogram.count == 2
        assert histogram.min == pytest.approx(
            DEFAULT_COSTS.message_cost(Channel.SHARED_MEMORY)
        )


class TestLog:
    def test_records_have_latency_fields(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        bus.send("ran", "amf", "msg", name="Registration", handler_time=1e-3)
        env.run()
        record = bus.log[0]
        assert record.name == "Registration"
        assert record.transport_latency == pytest.approx(
            DEFAULT_COSTS.message_cost(Channel.SHARED_MEMORY)
        )
        assert record.total_latency == pytest.approx(
            record.transport_latency + 1e-3
        )
        # One per message for the life of the bus: no per-record dict.
        assert not hasattr(record, "__dict__")

    def test_records_named_filter(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        bus.send("ran", "amf", "a", name="A")
        bus.send("ran", "amf", "b", name="B")
        bus.send("ran", "amf", "c", name="A")
        env.run()
        assert len(bus.records_named("A")) == 2
        assert bus.total_messages() == 3

    def test_message_name_defaults_to_attribute(self):
        class Named:
            name = "FancyMessage"

        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        bus.send("ran", "amf", Named())
        env.run()
        assert bus.log[0].name == "FancyMessage"
