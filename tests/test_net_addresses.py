"""Tests for IPv4 address utilities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import (
    AddressAllocator,
    int_to_ip,
    ip_to_int,
    prefix_mask,
    prefix_range,
)


class TestConversions:
    def test_known_values(self):
        assert ip_to_int("10.0.0.1") == 0x0A000001
        assert ip_to_int("255.255.255.255") == 0xFFFFFFFF
        assert ip_to_int("0.0.0.0") == 0
        assert int_to_ip(0xC0A80101) == "192.168.1.1"

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_roundtrip(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", ""]
    )
    def test_malformed_raises(self, bad):
        with pytest.raises(ValueError):
            ip_to_int(bad)

    def test_out_of_range_int_raises(self):
        with pytest.raises(ValueError):
            int_to_ip(-1)
        with pytest.raises(ValueError):
            int_to_ip(1 << 32)


class TestPrefixes:
    def test_mask_values(self):
        assert prefix_mask(0) == 0
        assert prefix_mask(8) == 0xFF000000
        assert prefix_mask(24) == 0xFFFFFF00
        assert prefix_mask(32) == 0xFFFFFFFF

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            prefix_mask(33)

    def test_range_of_slash24(self):
        low, high = prefix_range(ip_to_int("10.1.2.99"), 24)
        assert int_to_ip(low) == "10.1.2.0"
        assert int_to_ip(high) == "10.1.2.255"

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=32),
    )
    def test_address_always_within_own_prefix(self, address, length):
        low, high = prefix_range(address, length)
        assert low <= address <= high

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=1, max_value=32),
    )
    def test_range_size_is_power_of_two(self, address, length):
        low, high = prefix_range(address, length)
        span = high - low + 1
        assert span == 1 << (32 - length)


class TestAllocator:
    def test_sequential_allocation(self):
        allocator = AddressAllocator("10.60.0.0", 16)
        first = allocator.allocate()
        second = allocator.allocate()
        assert int_to_ip(first) == "10.60.0.1"
        assert int_to_ip(second) == "10.60.0.2"
        assert allocator.in_use == 2

    def test_release_and_reuse(self):
        allocator = AddressAllocator("10.60.0.0", 16)
        first = allocator.allocate()
        allocator.allocate()
        allocator.release(first)
        assert allocator.allocate() == first

    def test_release_unallocated_raises(self):
        allocator = AddressAllocator("10.60.0.0", 16)
        with pytest.raises(ValueError):
            allocator.release(ip_to_int("10.60.0.1"))

    def test_exhaustion(self):
        allocator = AddressAllocator("10.0.0.0", 30)  # 2 usable hosts
        allocator.allocate()
        allocator.allocate()
        with pytest.raises(RuntimeError):
            allocator.allocate()

    def test_iteration_sorted(self):
        allocator = AddressAllocator("10.60.0.0", 16)
        addresses = [allocator.allocate() for _ in range(3)]
        assert list(allocator) == sorted(addresses)
