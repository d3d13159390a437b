"""Tests for waitable stores and resources."""

import pytest

from repro.sim import (
    Environment,
    QueueFullError,
    Resource,
    SimulationError,
    Store,
)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)

        def proc():
            store.put_nowait("a")
            item = yield store.get()
            return item

        process = env.process(proc())
        env.run()
        assert process.value == "a"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer():
            item = yield store.get()
            got.append((env.now, item))

        def producer():
            yield env.timeout(2.0)
            store.put_nowait("x")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == [(2.0, "x")]

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        for value in (1, 2, 3):
            store.put_nowait(value)
        assert store.items == [1, 2, 3]
        got = []

        def consumer():
            for _ in range(3):
                got.append((yield store.get()))

        env.process(consumer())
        env.run()
        assert got == [1, 2, 3]

    def test_bounded_put_nowait_raises(self):
        env = Environment()
        store = Store(env, capacity=2)
        store.put_nowait(1)
        store.put_nowait(2)
        with pytest.raises(QueueFullError):
            store.put_nowait(3)

    def test_put_nowait_drop_counts(self):
        env = Environment()
        store = Store(env, capacity=1)
        assert store.put_nowait_drop("keep")
        assert not store.put_nowait_drop("dropped")
        assert store.drops == 1
        assert store.items == ["keep"]

    def test_clear_returns_items(self):
        env = Environment()
        store = Store(env)
        for value in range(5):
            store.put_nowait(value)
        assert store.clear() == [0, 1, 2, 3, 4]
        assert len(store) == 0

    def test_zero_capacity_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Store(env, capacity=0)

    def test_put_to_waiting_getter_bypasses_queue(self):
        env = Environment()
        store = Store(env, capacity=1)
        results = []

        def consumer():
            item = yield store.get()
            results.append(item)

        env.process(consumer())
        env.run()
        store.put_nowait("direct")
        env.run()
        assert results == ["direct"]
        assert len(store) == 0


class TestResource:
    def test_capacity_limits_concurrency(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        concurrency = {"now": 0, "max": 0}

        def worker():
            yield resource.request()
            concurrency["now"] += 1
            concurrency["max"] = max(concurrency["max"], concurrency["now"])
            yield env.timeout(1.0)
            concurrency["now"] -= 1
            resource.release()

        for _ in range(6):
            env.process(worker())
        env.run()
        assert concurrency["max"] == 2

    def test_release_without_request_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env).release()

    def test_queued_count(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def holder():
            yield resource.request()
            yield env.timeout(10.0)
            resource.release()

        def waiter():
            yield resource.request()
            resource.release()

        env.process(holder())
        waiting = env.process(waiter())
        env.run(until=5.0)
        assert resource.in_use == 1
        assert not waiting.triggered  # queued behind the holder

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)
