"""Tests for repro.obs: spans, propagation, exporters, breakdowns.

Covers the PR's acceptance criteria: the Fig 6 serialize / protocol /
deserialize split is reproduced from a traced registration, the N2
handover yields a causally ordered span tree (buffering -> path switch
-> buffer drain), the Chrome-trace export validates, and tracing does
not perturb simulation results.
"""

import json
from dataclasses import replace

import pytest

from repro.core import Channel, DEFAULT_COSTS
from repro.cp import scenario
from repro.cp.core5g import FiveGCore, SystemConfig
from repro.experiments.common import data_plane_core
from repro.obs import (
    Tracer,
    chrome_trace,
    interface_breakdown,
    message_breakdowns,
    render_tree,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs import spans as obs_spans
from repro.sim import Environment


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test must leave the global switch off."""
    yield
    assert obs_spans.active() is None, "test leaked an active tracer"
    obs_spans.disable()


def run_lifecycle(system_factory, procedures=("register",)):
    """Run selected procedures on a fresh core under tracing."""
    env = Environment()
    core = FiveGCore(env, system_factory())
    ops = [("register", 1)]
    if "session" in procedures:
        ops.append(("establish", 1))
    if "handover" in procedures:
        ops.append(("handover", 2))
    with obs_spans.tracing(env) as tracer:
        scenario.run(core, {"imsi-208930000000001": ops})
    return tracer, core


class TestTracerPrimitives:
    def _tracer(self):
        return Tracer(Environment())

    def test_stack_parenting(self):
        tracer = self._tracer()
        root = tracer.begin("root")
        child = tracer.begin("child")
        assert child.parent_id == root.span_id
        tracer.finish(child)
        tracer.finish(root)
        assert tracer.current is None
        assert tracer.roots() == [root]
        assert tracer.children(root) == [child]

    def test_pop_out_of_order_raises(self):
        tracer = self._tracer()
        root = tracer.begin("root")
        tracer.begin("child")
        with pytest.raises(RuntimeError):
            tracer.pop(root)

    def test_unfinished_span_zero_duration(self):
        tracer = self._tracer()
        span = tracer.start_span("open")
        assert not span.finished
        assert span.duration == 0.0

    def test_add_span_posthoc(self):
        tracer = self._tracer()
        span = tracer.add_span("radio", start=1.0, end=1.5, category="radio")
        assert span.finished
        assert span.duration == pytest.approx(0.5)

    def test_instant_is_zero_length(self):
        tracer = self._tracer()
        span = tracer.instant("marker", hit=True)
        assert span.start == span.end
        assert span.category == "instant"

    def test_context_side_table_does_not_mutate_objects(self):
        tracer = self._tracer()
        descriptor = object()
        span = tracer.start_span("message")
        tracer.attach(descriptor, span)
        assert tracer.context_of(descriptor) is span
        assert tracer.detach(descriptor) is span
        assert tracer.context_of(descriptor) is None

    def test_ring_hooks_emit_residency_span(self):
        env = Environment()
        tracer = Tracer(env)
        descriptor = object()
        parent = tracer.begin("procedure")
        tracer.on_ring_enqueue("rx", descriptor)
        env._now = 0.005  # advance the sim clock directly
        tracer.on_ring_dequeue("rx", descriptor)
        waits = tracer.find(category="ring")
        assert len(waits) == 1
        assert waits[0].name == "ring-wait:rx"
        assert waits[0].parent_id == parent.span_id
        assert waits[0].duration == pytest.approx(0.005)
        # The residency span becomes the descriptor's context.
        assert tracer.context_of(descriptor) is waits[0]
        tracer.finish(parent)

    def test_find_within_is_transitive(self):
        tracer = self._tracer()
        root = tracer.begin("root")
        child = tracer.begin("child")
        tracer.start_span("leaf", category="message")
        tracer.finish(child)
        tracer.finish(root)
        tracer.start_span("stray", category="message")
        found = tracer.find(category="message", within=root)
        assert [span.name for span in found] == ["leaf"]

    def test_enable_disable_switch(self):
        env = Environment()
        assert obs_spans.active() is None
        tracer = obs_spans.enable(env)
        assert obs_spans.active() is tracer
        assert obs_spans.disable() is tracer
        assert obs_spans.active() is None


class TestTracedDecorator:
    def test_untraced_returns_plain_generator(self):
        class Thing:
            @obs_spans.traced("op")
            def work(self):
                yield 1
                return "done"

        gen = Thing().work()
        assert next(gen) == 1

    def test_concurrent_procedures_do_not_cross_parent(self):
        env = Environment()

        class Proc:
            def __init__(self, tracer):
                self.tracer = tracer

            @obs_spans.traced("op")
            def work(self, delay):
                step = self.tracer.begin(f"step-{delay}")
                yield env.timeout(delay)
                self.tracer.finish(step)
                return delay

        with obs_spans.tracing(env) as tracer:
            proc = Proc(tracer)
            env.process(proc.work(0.010))
            env.process(proc.work(0.007))
            env.run()

        roots = tracer.roots()
        assert [root.name for root in roots] == ["op", "op"]
        for root in roots:
            children = tracer.children(root)
            assert len(children) == 1
            # Each step span is parented to its own procedure's root,
            # despite the two generators interleaving in the scheduler.
            assert children[0].duration == pytest.approx(
                0.010 if children[0].name == "step-0.01" else 0.007
            )

    def test_return_value_forwarded(self):
        env = Environment()

        class Proc:
            @obs_spans.traced("op")
            def work(self):
                yield env.timeout(0.001)
                return 42

        results = {}

        def driver():
            results["value"] = yield from Proc().work()

        with obs_spans.tracing(env) as tracer:
            env.process(driver())
            env.run()
        assert results["value"] == 42
        assert tracer.roots()[0].finished

    def test_exception_marks_root_errored(self):
        env = Environment()

        class Proc:
            @obs_spans.traced("op")
            def work(self):
                yield env.timeout(0.001)
                raise RuntimeError("boom")

        failures = []

        def driver():
            try:
                yield from Proc().work()
            except RuntimeError as exc:
                failures.append(exc)

        with obs_spans.tracing(env) as tracer:
            env.process(driver())
            env.run()
        assert failures
        root = tracer.roots()[0]
        assert root.finished
        assert root.attrs.get("error") is True


class TestFig6Breakdown:
    """Acceptance: the registration trace reproduces the paper's Fig 6
    serialize / protocol / deserialize split for SBI messages."""

    @pytest.fixture(scope="class")
    def traced_registration(self):
        tracer, _core = run_lifecycle(SystemConfig.free5gc)
        root = tracer.find(name="registration", category="procedure")[0]
        return tracer, root

    def test_sbi_message_components_match_cost_model(self, traced_registration):
        tracer, root = traced_registration
        rows = [
            row
            for row in message_breakdowns(tracer, within=root)
            if row.interface == "sbi" and row.channel == "http_json"
        ]
        assert rows, "registration produced no SBI message spans"
        channel = Channel.HTTP_JSON
        for row in rows:
            assert row.components["serialize"] == pytest.approx(
                DEFAULT_COSTS.serialize_cost(channel)
            )
            assert row.components["deserialize"] == pytest.approx(
                DEFAULT_COSTS.deserialize_cost(channel)
            )
            # serialize + protocol + deserialize is exactly the wire
            # time the bus charged for this message.
            assert row.components["protocol"] > 0
            assert sum(
                row.components.get(part, 0.0)
                for part in ("serialize", "protocol", "deserialize")
            ) == pytest.approx(
                row.total - row.components.get("handler", 0.0)
            )

    def test_shared_memory_skips_serialization(self):
        tracer, _core = run_lifecycle(SystemConfig.l25gc)
        root = tracer.find(name="registration", category="procedure")[0]
        rows = [
            row
            for row in message_breakdowns(tracer, within=root)
            if row.channel == "shared_memory"
        ]
        assert rows, "l25gc registration produced no shared-memory messages"
        for row in rows:
            # Zero-copy IPC: descriptors pass by reference (paper §3.1).
            assert row.components["serialize"] == 0.0
            assert row.components["deserialize"] == 0.0
            assert row.components["protocol"] > 0

    def test_interface_breakdown_accounts_for_procedure(self, traced_registration):
        tracer, root = traced_registration
        split = interface_breakdown(tracer, root)
        assert split["total"] == pytest.approx(root.duration)
        assert split["sbi"] > 0
        assert split["radio"] > 0
        assert split["other"] >= 0.0
        accounted = sum(
            value
            for key, value in split.items()
            if key not in ("total", "other")
        )
        assert accounted + split["other"] >= root.duration * 0.999


class TestHandoverSpanTree:
    """Acceptance: an N2 handover with buffered DL traffic yields the
    buffering -> path-switch -> drain causal chain in one trace."""

    @pytest.fixture(scope="class")
    def handover_trace(self):
        config = replace(SystemConfig.l25gc(), smart_handover_buffering=True)
        core = data_plane_core(config)
        supi = "imsi-208930000010000"
        scenario.run(core, {supi: [("register", 1), ("establish", 1)]})
        tracer = obs_spans.enable(core.env)
        try:
            scenario.run(core, {supi: [
                ("downlink", 2000, 0.4), ("wait", 0.05), ("handover", 2),
            ]})
        finally:
            obs_spans.disable()
        return tracer

    def test_root_and_steps_present(self, handover_trace):
        tracer = handover_trace
        roots = tracer.find(name="handover", category="procedure")
        assert len(roots) == 1
        root = roots[0]
        buffering = tracer.find(
            name="pfcp-session-modification-buffering", within=root
        )
        switch = tracer.find(name="pfcp-path-switch", within=root)
        drain = tracer.find(name="buffer-drain", within=root)
        assert len(buffering) == 1
        assert len(switch) == 1
        assert len(drain) == 1

    def test_causal_order_and_durations(self, handover_trace):
        tracer = handover_trace
        root = tracer.find(name="handover", category="procedure")[0]
        buffering = tracer.find(
            name="pfcp-session-modification-buffering", within=root
        )[0]
        switch = tracer.find(name="pfcp-path-switch", within=root)[0]
        drain = tracer.find(name="buffer-drain", within=root)[0]
        assert root.start <= buffering.start < switch.start <= drain.start
        assert buffering.duration > 0
        assert switch.duration > 0
        assert drain.duration > 0
        # The drain happens while the path-switch PFCP exchange is
        # being applied, so it nests under that step.
        assert drain.parent_id == switch.span_id

    def test_drain_released_buffered_packets(self, handover_trace):
        tracer = handover_trace
        drain = tracer.find(name="buffer-drain")[0]
        assert drain.attrs["released"] > 0

    def test_message_spans_carry_interfaces(self, handover_trace):
        tracer = handover_trace
        root = tracer.find(name="handover", category="procedure")[0]
        interfaces = {
            span.attrs.get("interface")
            for span in tracer.find(category="message", within=root)
        }
        assert {"n4", "ngap"} <= interfaces


class TestChromeTraceExport:
    def test_export_validates_cleanly(self, tmp_path):
        tracer, _core = run_lifecycle(
            SystemConfig.l25gc, procedures=("register", "session", "handover")
        )
        path = tmp_path / "trace.json"
        doc = write_chrome_trace(str(path), tracer)
        assert validate_chrome_trace(doc) == []
        reloaded = json.loads(path.read_text())
        assert validate_chrome_trace(reloaded) == []
        assert len(reloaded["traceEvents"]) == len(doc["traceEvents"])

    def test_one_track_per_root(self):
        tracer, _core = run_lifecycle(
            SystemConfig.l25gc, procedures=("register", "session")
        )
        doc = chrome_trace(tracer)
        threads = [
            event
            for event in doc["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        ]
        assert len(threads) == len(tracer.roots())

    def test_validator_rejects_malformed_documents(self):
        assert validate_chrome_trace(42)
        assert validate_chrome_trace({"notTraceEvents": []})
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "Z", "name": "x", "ts": 0}]}
        )
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "x", "ts": -1.0,
                              "pid": 1, "tid": 1, "dur": 1.0}]}
        )
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "x", "ts": 0.0,
                              "pid": 1, "tid": 1}]}  # missing dur
        )

    def test_render_tree_mentions_key_spans(self):
        tracer, _core = run_lifecycle(SystemConfig.l25gc)
        root = tracer.find(name="registration")[0]
        text = render_tree(tracer, root)
        assert "registration [procedure]" in text
        assert "radio" in text
        assert "[message]" in text


class TestZeroPerturbation:
    """Acceptance: tracing changes nothing about simulated time."""

    def _timed_lifecycle(self, trace: bool):
        env = Environment()
        core = FiveGCore(env, SystemConfig.l25gc())
        ops = {"imsi-208930000000001": scenario.UE_LIFECYCLE}
        if trace:
            with obs_spans.tracing(env) as tracer:
                results = scenario.run(core, ops)
        else:
            tracer = None
            results = scenario.run(core, ops)
        names = ("registration", "session-request", "handover",
                 "release-to-idle", "paging")
        durations = {
            name: result.duration for name, (_, result) in zip(names, results)
        }
        return durations, env.now, tracer

    def test_traced_run_is_bit_identical(self):
        plain, plain_end, _ = self._timed_lifecycle(trace=False)
        traced, traced_end, tracer = self._timed_lifecycle(trace=True)
        assert traced == plain  # exact float equality, not approx
        assert traced_end == plain_end
        # And the trace agrees with the stopwatch measurements.
        for name, duration in plain.items():
            root = tracer.find(name=name, category="procedure")[0]
            assert root.duration == pytest.approx(duration)

    def test_fig08_unchanged_after_traced_breakdown(self):
        from repro.experiments.common import UE_EVENTS
        from repro.experiments.fig08 import event_completion_times

        before = {
            row.event: row.l25gc_s for row in event_completion_times()
        }
        env = Environment()
        core = FiveGCore(env, SystemConfig.l25gc())
        with obs_spans.tracing(env) as tracer:
            scenario.run(core, {"imsi-208930000000001": scenario.UE_LIFECYCLE})
        after = {
            row.event: row.l25gc_s for row in event_completion_times()
        }
        assert before == after
        # The traced run's interface split adds up to the same event
        # durations.
        totals = {
            root.name: interface_breakdown(tracer, root)["total"]
            for root in tracer.roots() if root.name in UE_EVENTS
        }
        assert set(totals) == set(before)
        for event, duration in before.items():
            assert totals[event] == pytest.approx(duration, rel=1e-9)


class TestObsCLI:
    def test_chrome_trace_roundtrip(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        trace_path = tmp_path / "trace.json"
        assert main(["--procedure", "handover", "--no-breakdown",
                     "--chrome-trace", str(trace_path)]) == 0
        output = capsys.readouterr().out
        assert "handover" in output
        assert trace_path.exists()
        assert main(["--validate", str(trace_path)]) == 0
        assert "valid trace-event JSON" in capsys.readouterr().out

    def test_metrics_dump(self, tmp_path):
        from repro.obs.__main__ import main

        metrics_path = tmp_path / "metrics.json"
        assert main(["--no-breakdown", "--metrics", str(metrics_path)]) == 0
        doc = json.loads(metrics_path.read_text())
        assert doc["bus.delivered"]["value"] > 0
        assert "upf_u.forwarded" in doc

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "?"}]}')
        assert main(["--validate", str(bad)]) == 1
        assert "bad or missing" in capsys.readouterr().err
