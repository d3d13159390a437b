"""Tests for the shared memory pool and its security domain."""

import pytest

from repro.core import (
    AccessDeniedError,
    PacketAction,
    PoolExhaustedError,
    SharedMemoryPool,
)


class TestAllocation:
    def test_alloc_free_cycle(self):
        pool = SharedMemoryPool(size=4)
        descriptor = pool.alloc(payload="packet")
        assert descriptor.payload == "packet"
        assert pool.available == 3
        descriptor.free()
        assert pool.available == 4

    def test_exhaustion(self):
        pool = SharedMemoryPool(size=2)
        pool.alloc()
        pool.alloc()
        with pytest.raises(PoolExhaustedError):
            pool.alloc()
        assert pool.alloc_failures == 1

    def test_alloc_resets_descriptor(self):
        pool = SharedMemoryPool(size=1)
        descriptor = pool.alloc("first")
        descriptor.set_action(PacketAction.TO_NF, 7)
        descriptor.meta["stale"] = True
        descriptor.free()
        fresh = pool.alloc("second")
        assert fresh.payload == "second"
        assert fresh.action == PacketAction.DROP
        assert fresh.meta == {}

    def test_double_free_raises(self):
        pool = SharedMemoryPool(size=1)
        descriptor = pool.alloc()
        descriptor.free()
        with pytest.raises(ValueError):
            pool.free(descriptor)

    def test_double_free_raises_while_another_descriptor_is_out(self):
        pool = SharedMemoryPool(size=4)
        first = pool.alloc()
        pool.alloc()  # keeps the pool short of full
        first.free()
        with pytest.raises(ValueError, match="double free"):
            first.free()
        assert pool.in_use == 1
        assert pool.alloc() is not pool.alloc()  # no descriptor handed out twice

    def test_free_burst_returns_the_batch(self):
        pool = SharedMemoryPool(size=4)
        batch = [pool.alloc(payload=seq) for seq in range(3)]
        pool.free_burst(batch)
        assert pool.in_use == 0
        assert all(descriptor.payload is None for descriptor in batch)
        with pytest.raises(ValueError, match="double free"):
            pool.free(batch[1])

    def test_free_burst_rejects_a_descriptor_freed_twice(self):
        pool = SharedMemoryPool(size=4)
        first, second, _ = (pool.alloc() for _ in range(3))
        with pytest.raises(ValueError, match="double free"):
            pool.free_burst([first, second, first])
        assert pool.in_use == 1  # the two before the repeat went back once
        assert len({id(pool.alloc()) for _ in range(3)}) == 3

    def test_free_burst_rejects_a_foreign_descriptor(self):
        pool_a, pool_b = SharedMemoryPool(size=2), SharedMemoryPool(size=2)
        with pytest.raises(ValueError, match="different pool"):
            pool_b.free_burst([pool_b.alloc(), pool_a.alloc()])
        assert pool_b.in_use == 0
        assert pool_a.in_use == 1

    def test_foreign_descriptor_rejected(self):
        pool_a = SharedMemoryPool(size=1)
        pool_b = SharedMemoryPool(size=1)
        descriptor = pool_a.alloc()
        with pytest.raises(ValueError):
            pool_b.free(descriptor)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SharedMemoryPool(size=0)


class TestSecurityDomain:
    def test_matching_prefix_attaches(self):
        pool = SharedMemoryPool(file_prefix="operator-a")
        pool.attach("amf", "operator-a")
        assert pool.is_attached("amf")

    def test_foreign_prefix_denied(self):
        """§3.2: an NF of another operator cannot join the pool."""
        pool = SharedMemoryPool(file_prefix="operator-a")
        with pytest.raises(AccessDeniedError):
            pool.attach("evil-nf", "operator-b")
        assert not pool.is_attached("evil-nf")

    def test_distinct_pools_per_instance(self):
        pool_a = SharedMemoryPool(file_prefix="l25gc-unit-1")
        pool_b = SharedMemoryPool(file_prefix="l25gc-unit-2")
        pool_a.attach("upf", "l25gc-unit-1")
        with pytest.raises(AccessDeniedError):
            pool_b.attach("upf", "l25gc-unit-1")


class TestDescriptor:
    def test_set_action_chainable(self):
        pool = SharedMemoryPool(size=1)
        descriptor = pool.alloc()
        result = descriptor.set_action(PacketAction.OUT, 1)
        assert result is descriptor
        assert descriptor.action == PacketAction.OUT
        assert descriptor.destination == 1

    def test_unknown_action_rejected(self):
        pool = SharedMemoryPool(size=1)
        with pytest.raises(ValueError):
            pool.alloc().set_action("teleport")
