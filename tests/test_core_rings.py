"""Tests for the SPSC descriptor rings."""

import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizerError, sanitized
from repro.core import Descriptor, Ring, RingEmptyError, RingFullError
from repro.obs.metrics import MetricsRegistry


class TestBasics:
    def test_fifo(self):
        ring = Ring(8)
        for value in range(5):
            ring.enqueue(value)
        assert [ring.dequeue() for _ in range(5)] == list(range(5))

    def test_capacity_rounded_to_power_of_two(self):
        assert Ring(5).capacity == 8
        assert Ring(8).capacity == 8
        assert Ring(1).capacity == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Ring(0)

    def test_full_raises_and_counts(self):
        ring = Ring(2)
        ring.enqueue(1)
        ring.enqueue(2)
        with pytest.raises(RingFullError):
            ring.enqueue(3)
        assert ring.enqueue_failures == 1

    def test_empty_raises(self):
        with pytest.raises(RingEmptyError):
            Ring(4).dequeue()

    def test_len_and_flags(self):
        ring = Ring(4)
        assert ring.is_empty and not ring.is_full
        for value in range(4):
            ring.enqueue(value)
        assert ring.is_full and not ring.is_empty
        assert len(ring) == 4
        assert ring.free_count == 0

    def test_peek(self):
        ring = Ring(4)
        assert ring.peek() is None
        ring.enqueue("x")
        assert ring.peek() == "x"
        assert len(ring) == 1  # peek does not consume

    def test_wraparound(self):
        ring = Ring(4)
        for round_number in range(10):
            ring.enqueue(round_number)
            assert ring.dequeue() == round_number
        assert ring.enqueued == 10
        assert ring.dequeued == 10

    def test_clear(self):
        ring = Ring(4)
        for value in range(3):
            ring.enqueue(value)
        assert ring.clear() == 3
        assert ring.is_empty

    def test_high_watermark(self):
        ring = Ring(8)
        for value in range(6):
            ring.enqueue(value)
        for _ in range(6):
            ring.dequeue()
        assert ring.high_watermark == 6


class TestBurst:
    def test_enqueue_burst_partial(self):
        ring = Ring(4)
        accepted = ring.enqueue_burst(list(range(10)))
        assert accepted == 4
        assert ring.enqueue_failures == 6

    def test_dequeue_burst(self):
        ring = Ring(8)
        ring.enqueue_burst(list(range(5)))
        assert ring.dequeue_burst(3) == [0, 1, 2]
        assert ring.dequeue_burst(10) == [3, 4]
        assert ring.dequeue_burst(1) == []

    @given(st.lists(st.integers(), max_size=100))
    def test_burst_roundtrip_order(self, items):
        ring = Ring(128)
        ring.enqueue_burst(items)
        assert ring.dequeue_burst(len(items)) == items

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=5)),
            max_size=200,
        )
    )
    def test_never_exceeds_capacity(self, operations):
        ring = Ring(8)
        model = []
        for is_enqueue, count in operations:
            if is_enqueue:
                accepted = ring.enqueue_burst(list(range(count)))
                model.extend(range(accepted))
            else:
                got = ring.dequeue_burst(count)
                expected = model[: len(got)]
                del model[: len(got)]
                assert len(got) == len(expected)
            assert 0 <= len(ring) <= ring.capacity
            assert len(ring) == len(model)


class TestEdgeCases:
    @pytest.mark.parametrize(
        "requested,expected",
        [(1, 1), (2, 2), (3, 4), (5, 8), (100, 128), (1000, 1024), (1024, 1024)],
    )
    def test_non_power_of_two_capacity_rounds_up(self, requested, expected):
        ring = Ring(requested)
        assert ring.capacity == expected
        # The rounded capacity is fully usable.
        assert ring.enqueue_burst(list(range(expected + 3))) == expected
        assert ring.is_full

    def test_burst_wraparound_across_index_mask(self):
        """Bursts that straddle the head/tail wrap point keep FIFO order."""
        ring = Ring(8)
        # Advance head/tail near the wrap point, then burst across it.
        ring.enqueue_burst(list(range(6)))
        assert ring.dequeue_burst(6) == list(range(6))
        batch = list(range(100, 108))  # fills all 8 slots, wrapping at 8
        assert ring.enqueue_burst(batch) == 8
        assert ring.is_full
        assert ring.dequeue_burst(8) == batch
        # Many full cycles: indices exceed the mask repeatedly.
        for cycle in range(50):
            values = list(range(cycle * 10, cycle * 10 + 5))
            assert ring.enqueue_burst(values) == 5
            assert ring.dequeue_burst(5) == values
        assert ring.enqueued == 6 + 8 + 250
        assert ring.dequeued == ring.enqueued

    def test_enqueue_failures_on_partial_bursts(self):
        ring = Ring(4)
        assert ring.enqueue_burst(list(range(3))) == 3
        assert ring.enqueue_failures == 0
        assert ring.enqueue_burst(list(range(3))) == 1  # 2 rejected
        assert ring.enqueue_failures == 2
        assert ring.enqueue_burst(list(range(5))) == 0  # full: all rejected
        assert ring.enqueue_failures == 7
        assert ring.enqueued == 4

    def test_peek_then_clear(self):
        ring = Ring(4)
        ring.enqueue("a")
        ring.enqueue("b")
        assert ring.peek() == "a"
        assert ring.clear() == 2
        assert ring.peek() is None
        assert ring.is_empty
        # The ring is immediately reusable after a clear.
        ring.enqueue("c")
        assert ring.peek() == "c"
        assert ring.dequeue() == "c"

    def test_clear_accounts_discards_in_stats(self):
        ring = Ring(8)
        ring.enqueue_burst(list(range(5)))
        ring.dequeue()
        assert ring.clear() == 4
        assert ring.dropped == 4
        stats = ring.stats()
        assert stats["dropped"] == 4
        assert stats["enqueued"] == 5
        assert stats["dequeued"] == 1
        # Ledger invariant: everything enqueued is dequeued, dropped,
        # or still queued.
        assert (
            stats["enqueued"]
            == stats["dequeued"] + stats["dropped"] + stats["occupancy"]
        )
        assert "drop=4" in repr(ring)

    def test_clear_empty_ring_drops_nothing(self):
        ring = Ring(4)
        assert ring.clear() == 0
        assert ring.dropped == 0


class TestDequeueBurstEquivalence:
    """dequeue_burst must be stats-identical to N singleton dequeues."""

    def test_empty_ring(self):
        ring = Ring(8)
        assert ring.dequeue_burst(4) == []
        assert ring.dequeued == 0

    def test_partial_burst(self):
        ring = Ring(8)
        ring.enqueue_burst([1, 2, 3])
        assert ring.dequeue_burst(8) == [1, 2, 3]
        assert ring.dequeued == 3

    def test_burst_larger_than_capacity(self):
        ring = Ring(4)
        ring.enqueue_burst(list(range(4)))
        assert ring.dequeue_burst(100) == list(range(4))
        assert ring.dequeued == 4

    @pytest.mark.parametrize("count", [0, -1, -100])
    def test_non_positive_max_count_pops_nothing(self, count):
        """A negative count must never reach the monotonic counter."""
        ring = Ring(8)
        ring.enqueue_burst([1, 2])
        assert ring.dequeue_burst(count) == []
        assert ring.dequeued == 0
        assert len(ring) == 2

    @given(
        st.lists(st.integers(min_value=0, max_value=6), max_size=50),
    )
    def test_stats_identical_to_singleton_dequeues(self, drain_counts):
        burst_ring, single_ring = Ring(8), Ring(8)
        fill = 0
        for count in drain_counts:
            batch = list(range(fill, fill + 3))
            fill += 3
            burst_ring.enqueue_burst(batch)
            single_ring.enqueue_burst(batch)
            got = burst_ring.dequeue_burst(count)
            singles = [
                single_ring.dequeue() for _ in range(min(count, len(single_ring)))
            ]
            assert got == singles
            assert burst_ring.stats() == single_ring.stats()


_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.just(1)),
        st.tuples(st.just("enqueue_burst"), st.integers(0, 10)),
        st.tuples(st.just("dequeue"), st.just(1)),
        st.tuples(st.just("dequeue_burst"), st.integers(-1, 10)),
        st.tuples(st.just("peek"), st.just(0)),
        st.tuples(st.just("clear"), st.just(0)),
    ),
    max_size=300,
)


class TestAgainstDequeModel:
    """Every operation against a ``deque`` over many wraps of the
    indices: contents, order, the ledger, and empty vacated slots."""

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.sampled_from([1, 2, 8]), operations=_OPERATIONS)
    def test_ring_matches_model(self, capacity, operations):
        ring = Ring(capacity)
        model = deque()
        fresh = itertools.count(1)
        failures = high_watermark = 0
        for operation, count in operations:
            if operation == "enqueue":
                item = next(fresh)
                if len(model) == capacity:
                    with pytest.raises(RingFullError):
                        ring.enqueue(item)
                    failures += 1
                else:
                    ring.enqueue(item)
                    model.append(item)
            elif operation == "enqueue_burst":
                items = [next(fresh) for _ in range(count)]
                fit = min(count, capacity - len(model))
                assert ring.enqueue_burst(items) == fit
                model.extend(items[:fit])
                failures += count - fit
            elif operation == "dequeue":
                if model:
                    assert ring.dequeue() == model.popleft()
                else:
                    with pytest.raises(RingEmptyError):
                        ring.dequeue()
            elif operation == "dequeue_burst":
                taken = max(0, min(count, len(model)))
                expected = [model.popleft() for _ in range(taken)]
                assert ring.dequeue_burst(count) == expected
            elif operation == "peek":
                assert ring.peek() == (model[0] if model else None)
            else:
                assert ring.clear() == len(model)
                model.clear()
            high_watermark = max(high_watermark, len(model))

            assert len(ring) == len(model)
            assert ring.enqueued == ring.dequeued + ring.dropped + len(ring)
            assert ring.enqueue_failures == failures
            assert ring.high_watermark == high_watermark
            # The queued window holds the model in order, and every
            # other slot is empty: nothing that left pins an object.
            live = [
                ring._slots[index & ring._mask]
                for index in range(ring._tail, ring._head)
            ]
            assert live == list(model)
            assert sum(slot is not None for slot in ring._slots) == len(model)


class TestAtomicBursts:
    """A burst is one ring operation: a hook that raises part-way
    through never leaves half a burst in (or out of) the ring."""

    def test_dequeue_burst_is_all_out_before_a_hook_raises(self):
        ring = Ring(4, name="rx")
        descriptors = [Descriptor(payload={"seq": seq}) for seq in range(4)]
        with sanitized(strict=True):
            ring.enqueue(descriptors[0])
            ring.enqueue(descriptors[1])
            ring.dequeue_burst(2)  # head/tail now straddle the wrap
            ring.enqueue_burst(descriptors)
            descriptors[2].payload["seq"] = 99  # mutate while queued
            with pytest.raises(SanitizerError, match="mutate-after-send"):
                ring.dequeue_burst(4)
        assert ring.is_empty
        assert ring.dequeued == 6
        assert ring.enqueued == ring.dequeued + ring.dropped
        assert ring._slots == [None] * 4

    def test_enqueue_burst_stores_nothing_when_a_hook_raises(self):
        ring, other = Ring(4, name="rx"), Ring(4, name="tx")
        descriptors = [Descriptor(payload={"seq": seq}) for seq in range(3)]
        with sanitized(strict=True):
            other.enqueue(descriptors[1])
            with pytest.raises(SanitizerError, match="double-enqueue"):
                ring.enqueue_burst(descriptors)  # [1] still on "tx"
        assert ring.is_empty
        assert ring.enqueued == 0
        assert ring.enqueue_failures == 0
        assert ring.high_watermark == 0
        assert ring._slots == [None] * 4


class TestRegistryExport:
    def test_register_into_exports_the_ledger_as_live_gauges(self):
        ring = Ring(4, name="rx")
        registry = MetricsRegistry()
        ring.register_into(registry)
        ring.enqueue_burst(list(range(6)))
        ring.dequeue()
        ring.clear()
        ring.enqueue("x")
        assert {
            name: (registry.get(name).kind, registry.get(name).value)
            for name in registry.names()
        } == {
            "ring.rx.enqueued": ("gauge", 5),
            "ring.rx.dequeued": ("gauge", 1),
            "ring.rx.dropped": ("gauge", 3),
            "ring.rx.enqueue_failures": ("gauge", 2),
            "ring.rx.high_watermark": ("gauge", 4),
            "ring.rx.occupancy": ("gauge", 1),
        }
