"""Tests for traffic generation and latency measurement."""

import math

import pytest

from repro.net import FiveTuple, Packet
from repro.sim import Environment
from repro.sim.engine import Process
from repro.traffic import (
    ConstantRateGenerator,
    LatencySeries,
    percentile,
    summarize,
)


class TestGenerator:
    def test_rate_and_count(self):
        env = Environment()
        sink = []
        ConstantRateGenerator(
            env, sink.append, rate_pps=1000, flow=FiveTuple(), duration=0.1
        )
        env.run()
        assert len(sink) == 100
        assert sink[0].created_at == 0.0
        assert sink[1].created_at == pytest.approx(0.001)

    def test_sequence_numbers(self):
        env = Environment()
        sink = []
        ConstantRateGenerator(
            env, sink.append, rate_pps=100, flow=FiveTuple(), duration=0.05
        )
        env.run()
        assert [packet.seq for packet in sink] == list(range(5))

    def test_start_offset(self):
        env = Environment()
        sink = []
        ConstantRateGenerator(
            env, sink.append, rate_pps=100, flow=FiveTuple(),
            start=1.0, duration=0.02,
        )
        env.run()
        assert sink[0].created_at == pytest.approx(1.0)

    def test_stop(self):
        env = Environment()
        sink = []
        generator = ConstantRateGenerator(
            env, sink.append, rate_pps=100, flow=FiveTuple()
        )

        def stopper():
            yield env.timeout(0.05)
            generator.stop()

        env.process(stopper())
        env.run()
        assert 4 <= len(sink) <= 7

    def test_invalid_rate(self):
        env = Environment()
        with pytest.raises(ValueError):
            ConstantRateGenerator(env, lambda p: None, rate_pps=0,
                                  flow=FiveTuple())


class ProcessRateGenerator:
    """The constant-rate source as a process (one timeout and one resume
    per packet): the schedule :class:`ConstantRateGenerator` keeps."""

    def __init__(self, env, sink, rate_pps, flow, start=0.0, duration=None):
        self.env, self.sink, self.rate_pps, self.flow = env, sink, rate_pps, flow
        self.start, self.duration = start, duration
        self.emitted, self._stopped = 0, False
        env.process(self._run())

    def stop(self):
        self._stopped = True

    def _run(self):
        interval = 1.0 / self.rate_pps
        if self.start > 0:
            yield self.env.timeout(self.start)
        elapsed = 0.0
        while not self._stopped:
            if self.duration is not None and elapsed >= self.duration:
                break
            self.sink(Packet(flow=self.flow, seq=self.emitted,
                             created_at=self.env.now))
            self.emitted += 1
            yield self.env.timeout(interval)
            elapsed += interval


def counted_steps(env):
    """Count ``env.step`` calls from outside, as the e2e harness does."""
    steps = [0]
    step = env.step

    def counted_step():
        steps[0] += 1
        step()

    env.step = counted_step
    return steps


class TestTimerChain:
    """The timer chain against the process it replaced: same packets at
    the same instants, in the same order against same-instant rivals,
    the same final clock and the same number of engine steps."""

    def _run(self, source_class, rate, start, duration, stop_at):
        env = Environment()
        steps = counted_steps(env)
        trace = []
        interval = 1.0 / rate

        def rival_process():
            yield env.timeout(start)
            for _ in range(12):
                trace.append(("process", env.now))
                yield env.timeout(interval)

        def rival_timer(left):
            trace.append(("timer", env.now))
            if left:
                env.call_later(interval, rival_timer, left - 1)

        def sink(packet):
            trace.append(("packet", packet.created_at, packet.seq))
            # Due with the next packet: ordered by who pushed first.
            env.call_later(interval, trace.append, ("echo", packet.seq))

        env.process(rival_process())
        source = source_class(
            env, sink, rate_pps=rate, flow=FiveTuple(), start=start,
            duration=duration,
        )
        env.call_later(start, rival_timer, 12)
        if stop_at is not None:
            env.call_later(stop_at, source.stop)
        env.run()
        return trace, source.emitted, env.now, steps[0]

    @pytest.mark.parametrize("rate", [64, 100, 1000, 1024])
    @pytest.mark.parametrize("start", [0.0, 0.5])
    @pytest.mark.parametrize(
        "packets, stopped",
        [(0, False), (8, False), (9, True)],
        ids=["empty", "bounded", "stopped"],
    )
    def test_schedule_matches_the_process(self, rate, start, packets, stopped):
        # Bounded windows are drift-free here, so the process's
        # accumulated ``elapsed`` test and the fixed count agree.
        duration, stop_at = packets / rate, None
        if stopped:
            duration, stop_at = None, start + (packets - 0.5) / rate
        new = self._run(ConstantRateGenerator, rate, start, duration, stop_at)
        old = self._run(ProcessRateGenerator, rate, start, duration, stop_at)
        assert new == old
        assert new[1] == packets

    def test_no_process_per_packet(self, count_calls):
        resumes = count_calls(Process, "_resume")
        timeouts = count_calls(Environment, "timeout")
        env = Environment()
        steps = counted_steps(env)
        sink = []
        ConstantRateGenerator(
            env, sink.append, rate_pps=1000, flow=FiveTuple(), duration=0.1
        )
        env.run()
        assert len(sink) == 100
        assert (resumes.calls, timeouts.calls) == (0, 0)
        assert steps[0] == 100 + 1

    def test_a_raising_sink_leaves_run(self):
        env = Environment()
        sink = []

        def failing(packet):
            if packet.seq == 3:
                raise RuntimeError("sink failed")
            sink.append(packet)

        generator = ConstantRateGenerator(
            env, failing, rate_pps=100, flow=FiveTuple(), duration=1.0
        )
        with pytest.raises(RuntimeError, match="sink failed"):
            env.run()
        assert [packet.seq for packet in sink] == [0, 1, 2]
        assert generator.emitted == 3
        # The chain ended with the exception: nothing is left to fire.
        env.run()
        assert generator.emitted == 3

    @pytest.mark.parametrize(
        "rate, duration, count",
        [
            (10_000, 0.5, 5_000),
            (100, 0.1, 10),
            (20_000, 0.13, 2_600),
            # duration * rate is 700.0000000000001: the count rounds it.
            (10_000, 0.07, 700),
        ],
    )
    def test_count_is_exact_under_float_drift(self, rate, duration, count):
        env = Environment()
        sink = []
        ConstantRateGenerator(
            env, sink.append, rate_pps=rate, flow=FiveTuple(), duration=duration
        )
        env.run()
        assert len(sink) == count
        assert [packet.seq for packet in sink] == list(range(count))


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3

    def test_extremes(self):
        values = [10, 20, 30]
        assert percentile(values, 0.0) == 10
        assert percentile(values, 1.0) == 30

    def test_interpolation(self):
        assert percentile([0, 10], 0.5) == pytest.approx(5)

    def test_empty_returns_nan(self):
        # Empty measurement windows are absent statistics, not crashes
        # (fig13/fig14 hit this with short runs).
        assert math.isnan(percentile([], 0.5))
        assert math.isnan(percentile((), 0.0))

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestLatencySeries:
    def _series(self, latencies):
        series = LatencySeries()
        for index, latency in enumerate(latencies):
            packet = Packet(created_at=float(index),
                            delivered_at=index + latency)
            series.record_one_way(packet)
        return series

    def test_rtt_adds_return_path(self):
        series = self._series([0.001, 0.001, 0.050])
        # Return path = min one-way = 1 ms; the delayed packet's RTT is
        # its own one-way plus that.
        assert max(series.rtts) == pytest.approx(0.051)
        assert min(series.rtts) == pytest.approx(0.002)

    def test_timeline_sorted(self):
        series = LatencySeries()
        series.record(2.0, 0.01)
        series.record(1.0, 0.02)
        assert [t for t, _ in series.timeline()] == [1.0, 2.0]

    def test_window(self):
        series = self._series([0.001] * 10)
        assert len(series.window(0.0, 5.0)) == 5

    def test_missing_timestamp_raises(self):
        series = LatencySeries()
        with pytest.raises(ValueError):
            series.record_one_way(Packet())

    def test_empty_return_path_raises(self):
        with pytest.raises(ValueError):
            _ = LatencySeries().return_path


class TestSummary:
    def test_elevated_counting(self):
        series = LatencySeries()
        for index in range(90):
            series.record(float(index), 0.001)
        for index in range(90, 100):
            series.record(float(index), 0.1)
        summary = summarize(series)
        assert summary.count == 100
        assert summary.elevated_count == 10
        # RTT = one-way + steady return path (1 ms each).
        assert summary.base_rtt == pytest.approx(0.002, rel=0.1)
        assert summary.maximum == pytest.approx(0.101, rel=0.1)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize(LatencySeries())
