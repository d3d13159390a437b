"""Tests for the message-level bus."""

import gc
import tracemalloc

from dataclasses import replace

import pytest

from repro.analysis import races, sanitizer
from repro.core import Channel, DEFAULT_COSTS, MessageBus
from repro.obs import spans as obs_spans
from repro.sim import Environment

from .test_sim_engine import count_steps


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
        assert not bus.drops
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
        # One per message, LOG_CAPACITY of them retained: no per-record dict.
        assert not hasattr(record, "__dict__")

    def test_records_named_filter(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        bus.send("ran", "amf", "a", name="A")
        bus.send("ran", "amf", "b", name="B")
        bus.send("ran", "amf", "c", name="A")
        env.run()
        assert sum(record.name == "A" for record in bus.log) == 2
        assert bus.total_messages() == 3

    def test_message_name_defaults_to_attribute(self):
        class Named:
            name = "FancyMessage"

        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        bus.send("ran", "amf", Named())
        env.run()
        assert bus.log[0].name == "FancyMessage"


class TestBoundedLedger:
    """``log`` and ``drops`` keep the last ``LOG_CAPACITY`` records; the
    counts stay exact however many messages the bus has carried."""

    CAPACITY = MessageBus.LOG_CAPACITY

    @staticmethod
    def _send(env, bus, count):
        for n in range(count):
            bus.send("ran", "amf", n, name=f"m{n}", handler_time=0.0)
        env.run()

    def test_memory_is_flat_in_messages_carried(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        tracemalloc.start()
        try:
            self._send(env, bus, self.CAPACITY)
            gc.collect()
            before, _ = tracemalloc.get_traced_memory()
            self._send(env, bus, 2 * self.CAPACITY)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bus.total_messages() == 3 * self.CAPACITY
        assert after - before < 16 * 1024

    def test_log_window_after_a_wrap(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        self._send(env, bus, self.CAPACITY + 5)
        assert len(bus.log) == self.CAPACITY
        assert bus.log[0].name == "m5"
        assert bus.log[-1].name == f"m{self.CAPACITY + 4}"
        assert bus.total_messages() == self.CAPACITY + 5
        assert bus.metrics.get("bus.delivered").value == self.CAPACITY + 5
        assert [r for r in bus.log if r.name in ("m0", "m5")] == [bus.log[0]]

    def test_drop_window_after_a_wrap(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        bus.set_alive("amf", False)
        self._send(env, bus, self.CAPACITY + 5)
        assert len(bus.drops) == self.CAPACITY
        assert bus.drops[0].name == "m5"
        assert bus.lost == self.CAPACITY + 5
        assert bus.metrics.get("bus.lost").value == self.CAPACITY + 5
        assert bus.total_messages() == 0 and not bus.log


class TestTimerChain:
    """A message is a chain of timers whose last hop fires the one
    event the sender waits on, in place — no process, no generator, no
    heap entry for the event."""

    @pytest.mark.parametrize(
        "handler_time, extra, steps",
        [
            (1e-3, None, 2),  # arrival, handler (which fires ``done``)
            (0.0, None, 1),  # the handler runs inside the arrival hop
            (1e-3, 2e-3, 3),  # + the handler's extra time
            (0.0, 2e-3, 2),
        ],
    )
    def test_steps_per_delivered_message(self, handler_time, extra, steps):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: extra)
        done = bus.send("ran", "amf", "msg", handler_time=handler_time)
        assert count_steps(env) == steps
        assert done.processed and done.value == "msg"
        assert env._active_process is None

    def test_steps_per_dropped_message(self):
        env, bus = make_bus()
        done = bus.send("ran", "ghost", "msg")
        assert count_steps(env) == 1  # the arrival fires ``done``
        assert done.processed and done.value is None

    def test_endpoint_dying_in_flight_drops_at_arrival(self):
        env, bus = make_bus()
        received, fired = [], []
        bus.register("amf", lambda message, b: received.append(message))
        env.run(until=0.125)
        sent_at = env.now
        latency = DEFAULT_COSTS.message_cost(Channel.SHARED_MEMORY)
        done = bus.send("ran", "amf", "msg")
        done.callbacks.append(lambda ev: fired.append((env.now, ev.value)))
        env.call_later(latency / 2, bus.set_alive, "amf", False)
        env.run()
        assert received == [] and not bus.log
        [drop] = bus.drops
        assert drop.reason == "endpoint-down"
        assert drop.at == sent_at + latency
        assert fired == [(sent_at + latency, None)]

    def test_endpoint_dying_during_the_handler_hop_still_delivers(self):
        env, bus = make_bus()
        received = []
        bus.register("amf", lambda message, b: received.append(message))
        latency = DEFAULT_COSTS.message_cost(Channel.SHARED_MEMORY)
        done = bus.send("ran", "amf", "msg", handler_time=1e-3)
        env.call_later(latency + 0.5e-3, bus.set_alive, "amf", False)
        env.run()
        assert received == ["msg"] and done.value == "msg"
        assert not bus.drops and bus.total_messages() == 1

    def test_same_instant_messages_complete_in_send_order(self):
        env, bus = make_bus()
        handled, completed = [], []
        bus.register("amf", lambda message, b: handled.append(message))
        for n in range(8):
            done = bus.send("ran", "amf", n)
            done.callbacks.append(lambda ev: completed.append(ev.value))
        env.run()
        assert handled == completed == list(range(8))
        assert [record.sent_at for record in bus.log] == [0.0] * 8

    def test_arrival_shares_the_fifo_order_of_its_instant(self):
        """The arrival is scheduled by ``send`` itself, so it fires
        between whatever was scheduled for that instant before and
        after the ``send``."""
        env, bus = make_bus()
        order = []
        bus.register("amf", lambda message, b: order.append(message))
        latency = DEFAULT_COSTS.message_cost(Channel.SHARED_MEMORY)
        env.call_later(latency, order.append, "timer-before")
        bus.send("ran", "amf", "message", handler_time=0.0)
        env.timeout(latency).callbacks.append(
            lambda ev: order.append("timeout-after")
        )
        env.call_later(latency, order.append, "timer-after")
        env.run()
        assert order == [
            "timer-before", "message", "timeout-after", "timer-after",
        ]

    def test_sender_resumes_in_place_at_the_completion_instant(self):
        """Same instant as before, another place in it: the sender runs
        inside the completing hop, ahead of an entry that was already
        queued for that instant when the hop fired."""
        env, bus = make_bus()
        order = []
        bus.register("amf", lambda message, b: order.append("handler"))
        latency = DEFAULT_COSTS.message_cost(Channel.SHARED_MEMORY)

        def sender():
            value = yield bus.send("ran", "amf", "msg", handler_time=0.0)
            order.append(("sender", value, env.now))

        env.process(sender())
        env.step()  # start the sender: the arrival is on the heap
        env.call_later(latency, order.append, "queued-behind-the-arrival")
        assert count_steps(env) == 2
        assert order == [
            "handler", ("sender", "msg", latency), "queued-behind-the-arrival",
        ]

    def test_yield_on_a_completed_message_resumes_on_the_next_tick(self):
        env, bus = make_bus()
        order = []
        bus.register("amf", lambda message, b: None)

        def sender():
            done = bus.send("ran", "amf", "msg")
            yield env.timeout(1.0)
            assert done.processed
            env.call_later(0.0, order.append, "timer")
            order.append((yield done))

        env.process(sender())
        env.run()
        assert order == ["timer", "msg"]

    @pytest.mark.parametrize("first_already_fired", [False, True])
    def test_all_of_over_two_messages(self, first_already_fired):
        env, bus = make_bus()
        got = []
        bus.register("amf", lambda message, b: None)
        latency = DEFAULT_COSTS.message_cost(Channel.SHARED_MEMORY)

        def sender():
            first = bus.send("ran", "amf", "a", handler_time=1e-3)
            second = bus.send("ran", "amf", "b", handler_time=5e-3)
            if first_already_fired:
                yield env.timeout(3e-3)
                assert first.processed and not second.triggered
            # Wait for both completions in turn; an already-processed
            # one resumes on the next tick.
            values = [(yield first), (yield second)]
            got.append((env.now, *values))

        env.process(sender())
        env.run()
        assert got == [(latency + 5e-3, "a", "b")]

    def test_raising_sender_fails_its_process_not_the_bus(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)

        def sender():
            yield bus.send("ran", "amf", "msg")
            raise RuntimeError("sender bug")

        process = env.process(sender())
        with pytest.raises(RuntimeError, match="sender bug"):
            env.run()
        assert not process.ok
        assert bus.total_messages() == 1 and not bus.drops

    @pytest.mark.parametrize("channel", list(Channel))
    def test_record_times_are_the_cost_sums_to_the_last_bit(self, channel):
        env, bus = make_bus()
        fired = []
        bus.register("amf", lambda message, b: 0.3e-3)
        env.run(until=0.125)
        sent_at = env.now
        latency = DEFAULT_COSTS.message_cost(channel, 768)
        done = bus.send(
            "ran", "amf", "msg", channel=channel, size=768, handler_time=1.1e-3
        )
        done.callbacks.append(lambda ev: fired.append(env.now))
        env.run()
        [record] = bus.log
        assert record.channel is channel and record.size == 768
        assert record.sent_at == sent_at
        assert record.delivered_at == sent_at + latency
        assert record.handler_time == 1.1e-3 + 0.3e-3
        assert fired == [sent_at + latency + 1.1e-3 + 0.3e-3]
        histogram = bus.metrics.get("bus.message_latency")
        assert histogram.max == fired[0] - sent_at

    @pytest.mark.parametrize("channel", list(Channel))
    @pytest.mark.parametrize("size", [256, 512, 768, 1024, 1500])
    def test_latency_is_exactly_message_cost(self, channel, size):
        """The per-bus ``(channel, size)`` table holds what
        ``message_cost`` returned: first use and repeat use alike."""
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        for _ in range(3):
            bus.send("ran", "amf", "msg", channel=channel, size=size)
        env.run()
        # Sent at 0.0, so ``delivered_at`` is the latency itself.
        expected = DEFAULT_COSTS.message_cost(channel, size)
        assert [record.delivered_at for record in bus.log] == [expected] * 3

    def test_table_is_per_bus_and_follows_its_cost_model(self):
        slow = replace(DEFAULT_COSTS, go_shim_overhead=1e-3)
        arrivals = []
        for costs in (DEFAULT_COSTS, slow):
            env = Environment()
            bus = MessageBus(env, costs, default_channel=Channel.SHARED_MEMORY)
            bus.register("amf", lambda message, b: None)
            bus.send("ran", "amf", "msg")
            env.run()
            arrivals.append(bus.log[0].delivered_at)
        assert arrivals == [
            DEFAULT_COSTS.message_cost(Channel.SHARED_MEMORY),
            slow.message_cost(Channel.SHARED_MEMORY),
        ]


class TestUnderInstrumentation:
    """The timer chain calls the sanitizer, tracer and race-detector
    hooks where the delivery process did, and all of them have run by
    the time the sender resumes in place."""

    @staticmethod
    def _spy(env, san):
        calls = []
        for hook in ("on_send", "on_deliver", "on_drop"):
            def record(*args, _hook=hook, _inner=getattr(san, hook)):
                calls.append((_hook, args[-1], env.now))
                _inner(*args)

            setattr(san, hook, record)
        return calls

    def test_sanitizer_hooks_fire_once_per_message_in_order(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: 1e-3)
        latency = DEFAULT_COSTS.message_cost(Channel.SHARED_MEMORY)
        delivered, dropped = object(), object()
        with sanitizer.sanitized() as san:
            calls = self._spy(env, san)
            bus.send("ran", "amf", delivered, handler_time=1e-3)
            env.run()
            sent_at = env.now
            bus.send("ran", "ghost", dropped)
            env.run()
        assert calls == [
            ("on_send", delivered, 0.0),
            # At arrival, before the handler hop.
            ("on_deliver", delivered, latency),
            ("on_send", dropped, sent_at),
            ("on_drop", dropped, sent_at + latency),
        ]
        assert san.violations == [] and san.leaks() == []

    def test_message_span_keeps_its_cost_children(self):
        env, bus = make_bus()
        bus.register("upf", lambda message, b: 0.3e-3)
        channel, costs = Channel.UDP_PFCP, DEFAULT_COSTS
        message = object()
        env.run(until=0.125)
        sent_at = env.now
        with obs_spans.tracing(env) as tracer:
            bus.send(
                "smf", "upf", message, channel=channel, handler_time=1.1e-3,
                name="Establish", interface="n4",
            )
            env.run()
            assert tracer.context_of(message) is None
        [span] = tracer.find(category="message")
        delivered_at = sent_at + costs.message_cost(channel)
        assert span.name == "Establish" and span.attrs["interface"] == "n4"
        assert span.start == sent_at
        assert span.end == delivered_at + 1.1e-3 + 0.3e-3
        parts = tracer.children(span)
        assert [part.name for part in parts] == [
            "serialize", "protocol", "deserialize", "handler",
        ]
        serialize, protocol, deserialize, handler = parts
        assert serialize.start == sent_at
        assert serialize.duration == pytest.approx(costs.serialize_cost(channel))
        assert protocol.start == serialize.end
        assert protocol.duration == pytest.approx(costs.protocol_cost(channel))
        assert deserialize.start == pytest.approx(protocol.end)
        assert deserialize.end == delivered_at
        assert handler.start == delivered_at
        assert handler.end == delivered_at + (1.1e-3 + 0.3e-3)

    def test_dropped_message_span_ends_at_arrival(self):
        env, bus = make_bus()
        message = object()
        with obs_spans.tracing(env) as tracer:
            bus.send("ran", "ghost", message)
            env.run()
            assert tracer.context_of(message) is None
        [span] = tracer.find(category="message")
        assert span.attrs["dropped"] is True
        assert span.end == DEFAULT_COSTS.message_cost(Channel.SHARED_MEMORY)
        assert tracer.children(span) == []

    @pytest.mark.parametrize("handler_time, generation", [(1e-3, 2), (0.0, 1)])
    def test_handler_is_an_atomic_section_with_no_process(
        self, handler_time, generation
    ):
        env, bus = make_bus()
        rules, seen = {}, []
        with races.traced(env=env) as det:
            det.register(rules, "rules", owner="upf-c")

            def handler(message, b):
                seen.append((env._active_process, env.yield_generation))
                with det.role("upf-c"):
                    det.on_write(rules, "fars", detail="bus handler")
                with det.role("upf-u"):
                    det.on_read(rules, "fars")

            bus.register("upf", handler)
            bus.send("smf", "upf", "msg", handler_time=handler_time)
            env.run()
        # One section per hop: the handler hop is the second firing.
        assert seen == [(None, generation)]
        assert det.violations == []
        assert det.accesses == 2

    def test_resumed_sender_is_its_own_atomic_section(self):
        """The handler's section ends where the sender's begins, inside
        one ``env.step()``: the sender reading a rule the handler wrote
        at that instant, under another role, is a race."""
        env, bus = make_bus()
        rules, seen = {}, []
        with races.traced(env=env) as det:
            det.register(rules, "rules", owner="upf-c")

            def handler(message, b):
                seen.append(("handler", env._active_process, env.yield_generation))
                with det.role("upf-c"):
                    det.on_write(rules, "fars", detail="handler write")

            def sender():
                yield bus.send("smf", "upf", "msg", handler_time=0.0)
                seen.append(("sender", env._active_process, env.yield_generation))
                with det.role("upf-u"):
                    det.on_read(rules, "fars")

            bus.register("upf", handler)
            process = env.process(sender())
            assert count_steps(env) == 2  # sender start, arrival
        # Start of the sender, the arrival hop, the in-place resume.
        assert seen == [("handler", None, 2), ("sender", process, 3)]
        [violation] = det.violations
        assert violation.kind == "conflicting-access"
        assert violation.first.process == "<timer>"
        assert (violation.first.generation, violation.second.generation) == (
            2, 3,
        )

    def test_hooks_and_span_are_done_when_the_sender_resumes(self):
        env, bus = make_bus()
        bus.register("amf", lambda message, b: None)
        latency = DEFAULT_COSTS.message_cost(Channel.SHARED_MEMORY)
        first, second = object(), object()
        ends = []

        def sender():
            yield bus.send("ran", "amf", first, handler_time=1e-3, name="first")
            [span] = tracer.find(category="message")
            ends.append((span.end, env.now, tracer.context_of(first)))
            yield bus.send("ran", "ghost", second, name="second")

        with sanitizer.sanitized() as san, obs_spans.tracing(env) as tracer:
            calls = self._spy(env, san)
            env.process(sender())
            env.run()
        done_at = latency + 1e-3
        assert ends == [(done_at, done_at, None)]
        assert calls == [
            ("on_send", first, 0.0),
            ("on_deliver", first, latency),
            # Sent by the sender resumed inside the completing hop.
            ("on_send", second, done_at),
            ("on_drop", second, done_at + latency),
        ]
        assert [span.end for span in tracer.find(category="message")] == [
            done_at, done_at + latency,
        ]
        assert san.violations == [] and san.leaks() == []
