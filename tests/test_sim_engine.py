"""Tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import races
from repro.sim import (
    MS,
    US,
    Environment,
    Event,
    SimulationError,
)


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == pytest.approx(0.0)

    def test_custom_start_time(self):
        assert Environment(initial_time=5.0).now == pytest.approx(5.0)

    def test_timeout_advances_clock(self):
        env = Environment()
        env.timeout(1.5)
        env.run()
        assert env.now == pytest.approx(1.5)

    def test_run_until_advances_even_without_events(self):
        env = Environment()
        env.run(until=2.0)
        assert env.now == pytest.approx(2.0)

    def test_run_until_past_raises(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(SimulationError):
            env.run(until=5.0)

    def test_run_until_does_not_process_later_events(self):
        env = Environment()
        fired = []
        env.timeout(5.0).callbacks.append(lambda event: fired.append(1))
        env.run(until=2.0)
        assert fired == []
        assert env.now == pytest.approx(2.0)

    def test_unit_constants(self):
        assert US == pytest.approx(1e-6)
        assert MS == pytest.approx(1e-3)


class TestEvents:
    def test_succeed_delivers_value(self):
        env = Environment()
        event = env.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("hello")
        env.run()
        assert seen == ["hello"]

    def test_double_trigger_raises(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_unhandled_failure_propagates(self):
        env = Environment()
        env.event().fail(ValueError("boom"))
        with pytest.raises(ValueError):
            env.run()

    def test_defused_failure_does_not_crash(self):
        # A failure that a waiting process receives is defused: the
        # process handles it and the run goes on.
        env = Environment()
        failed = env.event()

        def catcher():
            try:
                yield failed
            except ValueError:
                return "caught"

        process = env.process(catcher())
        failed.fail(ValueError("boom"))
        env.run()  # no raise
        assert process.value == "caught"

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_negative_timeout_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_step_with_empty_heap_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()


class TestProcesses:
    def test_sequential_timeouts(self):
        env = Environment()
        trace = []

        def proc():
            yield env.timeout(1.0)
            trace.append(env.now)
            yield env.timeout(2.0)
            trace.append(env.now)

        env.process(proc())
        env.run()
        assert trace == [1.0, 3.0]

    def test_process_return_value(self):
        env = Environment()

        def inner():
            yield env.timeout(1.0)
            return 42

        def outer():
            value = yield env.process(inner())
            return value * 2

        result = env.process(outer())
        env.run()
        assert result.value == 84

    def test_yield_from_composition(self):
        env = Environment()

        def leaf():
            yield env.timeout(1.0)
            return "leaf"

        def root():
            value = yield from leaf()
            return value + "-root"

        process = env.process(root())
        env.run()
        assert process.value == "leaf-root"

    def test_yield_non_event_raises(self):
        env = Environment()

        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_exception_in_process_fails_it(self):
        env = Environment()

        def bad():
            yield env.timeout(1.0)
            raise RuntimeError("inside")

        def watcher():
            process = env.process(bad())
            try:
                yield process
            except RuntimeError as exc:
                return str(exc)

        result = env.process(watcher())
        env.run()
        assert result.value == "inside"

    def test_is_alive(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)

        process = env.process(proc())
        assert not process.triggered
        env.run()
        assert process.triggered and process.ok

    def test_waiting_on_already_processed_event(self):
        env = Environment()
        pre = env.timeout(0.0, value="early")
        env.run()
        assert pre.processed

        def late():
            value = yield pre
            return value

        process = env.process(late())
        env.run()
        assert process.value == "early"


def next_time(env):
    """When the next heap entry is due (``inf`` on an empty heap)."""
    return env._heap[0][0] if env._heap else float("inf")


def count_steps(env):
    """Run ``env`` to completion; the number of ``step`` calls it took."""
    steps = 0
    while env._heap:
        env.step()
        steps += 1
    return steps


class TestProcessCompletion:
    def test_unwatched_process_finishes_in_place(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            return "done"

        process = env.process(proc())
        # Start + timeout; no third heap entry for the completion.
        assert count_steps(env) == 2
        assert process.processed and process.value == "done"

    def test_watched_process_completes_through_the_heap(self):
        env = Environment()

        def child():
            yield env.timeout(1.0)
            return "done"

        def parent():
            return (yield env.process(child()))

        process = env.process(parent())
        # parent start, child start, timeout, child completion.
        assert count_steps(env) == 4
        assert process.value == "done"

    def test_unwatched_failure_still_raises_out_of_run(self):
        env = Environment()

        def bad():
            yield env.timeout(1.0)
            raise RuntimeError("nobody is watching")

        env.process(bad())
        with pytest.raises(RuntimeError, match="nobody is watching"):
            env.run()

    def test_yielding_a_finished_process_resumes_on_the_next_tick(self):
        env = Environment()
        order = []

        def quick():
            yield env.timeout(1.0)
            return "early"

        finished = env.process(quick())
        env.run()

        def late():
            order.append((yield finished))

        env.process(late())
        env.call_later(0.0, order.append, "timer")
        env.run()
        # The kick is scheduled when ``late`` first runs, i.e. after
        # the timer that was already on the heap.
        assert order == ["timer", "early"]
        assert env.now == pytest.approx(1.0)


class TestTimers:
    def test_fires_after_delay_with_args(self):
        env = Environment()
        seen = []
        env.call_later(1.5, lambda *args: seen.append((env.now, args)), 1, "a")
        env.run()
        assert seen == [(1.5, (1, "a"))]

    def test_same_instant_fifo_with_timeouts_and_process_starts(self):
        env = Environment()
        order = []

        def proc(tag):
            order.append(tag)
            yield env.timeout(0.0)

        env.call_later(0.0, order.append, "timer-1")
        env.timeout(0.0).callbacks.append(lambda e: order.append("timeout-1"))
        env.process(proc("process-1"))
        env.call_later(0.0, order.append, "timer-2")
        env.timeout(0.0).callbacks.append(lambda e: order.append("timeout-2"))
        env.process(proc("process-2"))
        env.run()
        assert order == [
            "timer-1", "timeout-1", "process-1",
            "timer-2", "timeout-2", "process-2",
        ]

    def test_later_instant_scheduled_first_fires_last(self):
        env = Environment()
        order = []
        env.call_later(2.0, order.append, "late")
        env.call_later(1.0, order.append, "early")
        env.run()
        assert order == ["early", "late"]

    def test_negative_delay_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.call_later(-1e-9, print)
        assert next_time(env) == float("inf")

    def test_callback_exception_propagates_out_of_run(self):
        env = Environment()

        def boom():
            raise ValueError("in timer")

        env.call_later(1.0, boom)
        with pytest.raises(ValueError, match="in timer"):
            env.run()
        assert env.now == pytest.approx(1.0)

    def test_run_until_leaves_later_timer_pending(self):
        env = Environment()
        fired = []
        env.call_later(5.0, fired.append, "x")
        env.run(until=2.0)
        assert fired == [] and env.now == pytest.approx(2.0)
        assert next_time(env) == 5.0
        env.run()
        assert fired == ["x"] and env.now == pytest.approx(5.0)

    def test_one_step_and_one_generation_per_firing(self):
        env = Environment()
        generations = []
        for _ in range(3):
            env.call_later(
                1.0, lambda: generations.append(env.yield_generation)
            )
        assert count_steps(env) == 3
        assert generations == [1, 2, 3]
        assert env._active_process is None

    def test_timer_may_schedule_timers(self):
        env = Environment()
        hops = []

        def hop(n):
            hops.append((n, env.now))
            if n:
                env.call_later(0.5, hop, n - 1)

        env.call_later(0.5, hop, 2)
        env.run()
        assert hops == [(2, 0.5), (1, 1.0), (0, 1.5)]

    def test_firing_is_a_fresh_atomic_section_for_the_race_detector(self):
        """Two timers due at the same instant are two sections: a
        cross-role write in one and read in the other conflict."""
        env = Environment()
        rules = {}
        with races.traced(env=env) as det:
            det.register(rules, "rules", owner="upf-c")

            def access(role, write):
                with det.role(role):
                    if write:
                        det.on_write(rules, "fars", detail="timer write")
                    else:
                        det.on_read(rules, "fars")

            env.call_later(1.0, access, "upf-c", True)
            env.call_later(1.0, access, "upf-u", False)
            env.run()
        [violation] = det.violations
        assert violation.kind == "conflicting-access"
        assert (violation.first.generation, violation.second.generation) == (
            1, 2,
        )
        assert violation.second.process == "<timer>"

    def test_accesses_inside_one_firing_never_conflict(self):
        env = Environment()
        rules = {}
        with races.traced(env=env) as det:
            det.register(rules, "rules", owner="upf-c")

            def write_then_read():
                with det.role("upf-c"):
                    det.on_write(rules, "fars", detail="timer write")
                with det.role("upf-u"):
                    det.on_read(rules, "fars")

            env.call_later(1.0, write_then_read)
            env.call_later(1.0, lambda: None)
            env.run()
        assert det.violations == []
        assert det.accesses == 2
        assert not det.firing


class TestFire:
    """``Event.fire`` completes an event inside the current timer's
    step: the same instant as ``succeed``, another place in it."""

    @pytest.mark.parametrize(
        "trigger, steps, order",
        [
            # Process start, the firing timer (which runs the waiter),
            # the other timer.
            ("fire", 3, ["waiter", "queued-earlier"]),
            # + the event's own heap entry, behind the other timer.
            ("succeed", 4, ["queued-earlier", "waiter"]),
        ],
    )
    def test_waiter_runs_before_entries_already_queued_for_the_instant(
        self, trigger, steps, order
    ):
        env = Environment()
        seen = []
        done = env.event()

        def waiter():
            value = yield done
            seen.append(("waiter", value, env.now))

        env.process(waiter())
        env.call_later(1.0, getattr(done, trigger), "value")
        env.call_later(1.0, lambda: seen.append(("queued-earlier", None, env.now)))
        assert count_steps(env) == steps
        assert [name for name, _, _ in seen] == order
        assert ("waiter", "value", 1.0) in seen
        assert {at for _, _, at in seen} == {1.0}

    def test_plain_callbacks_run_in_place_in_order(self):
        env = Environment()
        done = env.event()
        seen = []
        done.callbacks.append(lambda ev: seen.append(("first", ev.value)))
        done.callbacks.append(lambda ev: seen.append(("second", ev.value)))
        assert done.fire("v") is done
        assert seen == [("first", "v"), ("second", "v")]
        assert done.triggered and done.processed and done.ok
        assert next_time(env) == float("inf")  # nothing went through the heap

    def test_yield_on_a_fired_event_resumes_on_the_next_tick(self):
        env = Environment()
        order = []
        done = env.event()
        env.call_later(1.0, done.fire, "early")
        env.run()

        def late():
            order.append((yield done))

        env.process(late())
        env.call_later(0.0, order.append, "timer")
        env.run()
        assert order == ["timer", "early"]

    def test_triggers_once(self):
        env = Environment()
        fired = env.event().fire()
        for again in (fired.fire, fired.succeed):
            with pytest.raises(SimulationError, match="already triggered"):
                again()
        with pytest.raises(SimulationError, match="already triggered"):
            env.event().succeed().fire()

    def test_only_a_timer_callback_may_fire(self):
        env = Environment()
        done = env.event()

        def proc():
            yield env.timeout(1.0)
            done.fire()

        env.process(proc())
        with pytest.raises(SimulationError, match="inside a process"):
            env.run()
        assert not done.triggered

    def test_raising_waiter_still_fails_its_process(self):
        env = Environment()
        done = env.event()
        after = []

        def bad():
            yield done
            raise RuntimeError("boom")

        def hop():
            done.fire()
            after.append(env.now)

        process = env.process(bad())
        env.call_later(1.0, hop)
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        # The failure is the process's, not the firing timer's.
        assert after == [1.0]
        assert not process.ok and env._active_process is None


class TestCallTogether:
    """``call_together`` coalesces items per ``(instant, callback)`` into
    one call with an iterator over the batch: the fire times of
    ``call_later``, another order within an instant."""

    def test_items_for_one_instant_and_callback_share_one_step(self):
        env = Environment()
        calls = []

        def callback(batch):
            calls.append((env.now, env.yield_generation, list(batch)))

        env.call_together(1.5, callback, 1, "a")
        env.call_together(1.5, callback, 2)
        env.call_together(1.5, callback)  # no items: nothing to deliver
        assert count_steps(env) == 1
        # One firing, one call, one atomic section, arrival order.
        assert calls == [(1.5, 1, [1, "a", 2])]
        assert env._batches == {}

    @pytest.mark.parametrize(
        "schedule, steps, order",
        [
            ("call_later", 3, ["a-1", "b", "a-2"]),
            # a-2 joins a-1's slot, ahead of b which was scheduled first.
            ("call_together", 2, ["a-1", "a-2", "b"]),
        ],
    )
    def test_an_item_takes_its_batch_slot_in_the_instant(
        self, schedule, steps, order
    ):
        env = Environment()
        seen = []
        if schedule == "call_later":
            a = lambda tag: seen.append((tag, env.now))  # noqa: E731
        else:
            a = lambda batch: seen.extend(  # noqa: E731
                (tag, env.now) for tag in batch
            )
        getattr(env, schedule)(1.0, a, "a-1")
        env.call_later(1.0, lambda: seen.append(("b", env.now)))
        getattr(env, schedule)(1.0, a, "a-2")
        assert count_steps(env) == steps
        assert [tag for tag, _ in seen] == order
        assert {at for _, at in seen} == {1.0}

    def test_another_callback_or_instant_is_another_batch(self):
        env = Environment()
        seen = []
        first, second = seen.extend, lambda batch: seen.extend(batch)
        env.call_together(2.0, first, "first@2")
        env.call_together(1.0, first, "first@1")
        env.call_together(1.0, second, "second@1")
        env.run(until=0.5)
        env.call_together(0.5, first, "first@1, pushed at 0.5")
        assert count_steps(env) == 3
        assert seen == [
            "first@1", "first@1, pushed at 0.5", "second@1", "first@2",
        ]

    def test_bound_methods_of_one_object_coalesce(self):
        """``obj.method`` is a new object at each lookup; it must still
        name the same batch (the gNB hops pass bound methods)."""

        class Sink:
            def __init__(self):
                self.calls = []

            def take(self, batch):
                self.calls.append(list(batch))

        env = Environment()
        sink = Sink()
        env.call_together(1.0, sink.take, 1)
        env.call_together(1.0, sink.take, 2)
        assert count_steps(env) == 1 and sink.calls == [[1, 2]]

    def test_negative_delay_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.call_together(-1e-9, print, "item")
        assert next_time(env) == float("inf") and env._batches == {}

    def test_item_pushed_while_its_batch_fires_opens_a_fresh_batch(self):
        env = Environment()
        seen = []

        def callback(batch):
            for tag in batch:
                seen.append((tag, env.now, env.yield_generation))
                if tag == "first":
                    env.call_together(0.0, callback, "nested")

        env.call_together(1.0, callback, "first")
        env.call_together(1.0, callback, "second")
        assert count_steps(env) == 2
        assert seen == [
            ("first", 1.0, 1), ("second", 1.0, 1), ("nested", 1.0, 2),
        ]

    def test_a_raising_item_leaves_the_rest_scheduled_in_its_slot(self):
        env = Environment()
        seen = []

        def callback(batch):
            for tag in batch:
                if tag == "bad":
                    raise ValueError("mid-batch")
                seen.append((tag, env.now))

        for tag in ("ok-1", "bad", "ok-2", "ok-3"):
            env.call_together(1.0, callback, tag)
        env.call_later(1.0, seen.append, "queued-later")
        with pytest.raises(ValueError, match="mid-batch"):
            env.run()
        assert seen == [("ok-1", 1.0)]
        assert next_time(env) == 1.0 and len(env._batches) == 1
        # The rest is one entry, still ahead of the later timer.
        assert count_steps(env) == 2
        assert seen == [
            ("ok-1", 1.0), ("ok-2", 1.0), ("ok-3", 1.0), "queued-later",
        ]
        assert env._batches == {}

    def test_a_raising_last_item_leaves_nothing_behind(self):
        env = Environment()

        def boom(batch):
            for _ in batch:
                raise ValueError("last")

        env.call_together(1.0, boom, "only")
        with pytest.raises(ValueError, match="last"):
            env.run()
        assert next_time(env) == float("inf") and env._batches == {}

    def test_the_rest_goes_ahead_of_a_batch_opened_during_the_firing(self):
        env = Environment()
        seen = []

        def callback(batch):
            for tag in batch:
                if tag == "reenter-then-raise":
                    env.call_together(0.0, callback, "nested")
                    raise ValueError("mid-batch")
                seen.append(tag)

        env.call_together(1.0, callback, "reenter-then-raise")
        env.call_together(1.0, callback, "rest")
        with pytest.raises(ValueError, match="mid-batch"):
            env.run()
        assert count_steps(env) == 1
        assert seen == ["rest", "nested"] and env._batches == {}

    def test_a_firing_batch_is_one_atomic_section_for_the_race_detector(self):
        """The counterpart of ``TestTimers``' two-timer case: a read in
        a later item of the same batch does not race a write in an
        earlier one."""
        env = Environment()
        rules = {}
        with races.traced(env=env) as det:
            det.register(rules, "rules", owner="upf-c")

            def items(batch):
                for write in batch:
                    if write:
                        with det.role("upf-c"):
                            det.on_write(rules, "fars", detail="batch item")
                    else:
                        with det.role("upf-u"):
                            det.on_read(rules, "fars")

            env.call_together(1.0, items, True)
            env.call_together(1.0, items, False)
            env.run()
        assert det.violations == []
        assert det.accesses == 2
        assert env.yield_generation == 1

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("advance"), st.sampled_from([0.25, 0.5, 1.0])),
                st.tuples(
                    st.just("push"),
                    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]),
                    st.integers(0, 2),
                ),
            ),
            max_size=40,
        )
    )
    def test_same_firings_as_one_call_later_per_item(self, ops):
        def drive(schedule):
            env = Environment()
            fired = []
            if schedule == "call_later":
                callbacks = [
                    lambda payload, cb=cb: fired.append((env.now, cb, payload))
                    for cb in range(3)
                ]
            else:
                callbacks = [
                    lambda batch, cb=cb: fired.extend(
                        (env.now, cb, payload) for payload in batch
                    )
                    for cb in range(3)
                ]
            steps = 0
            for payload, op in enumerate(ops):
                if op[0] == "push":
                    getattr(env, schedule)(op[1], callbacks[op[2]], payload)
                    continue
                until = env.now + op[1]
                while next_time(env) <= until:
                    env.step()
                    steps += 1
                    assert env._heap or not env._batches
                env.run(until=until)
            steps += count_steps(env)
            assert env._batches == {}
            return fired, steps

        together, together_steps = drive("call_together")
        later, later_steps = drive("call_later")
        assert sorted(together) == sorted(later)
        for cb in range(3):
            assert [f for f in together if f[1] == cb] == [
                f for f in later if f[1] == cb
            ]
        assert together_steps <= later_steps


class TestDeterminism:
    def test_same_time_events_fire_in_schedule_order(self):
        env = Environment()
        order = []
        for index in range(10):
            env.timeout(1.0).callbacks.append(
                lambda event, i=index: order.append(i)
            )
        env.run()
        assert order == list(range(10))

    def test_repeated_runs_identical(self):
        def run_once():
            env = Environment()
            trace = []

            def worker(delay, tag):
                yield env.timeout(delay)
                trace.append((env.now, tag))
                yield env.timeout(delay)
                trace.append((env.now, tag))

            for index in range(5):
                env.process(worker(0.1 * (index + 1), index))
            env.run()
            return trace

        assert run_once() == run_once()
