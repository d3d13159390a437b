"""IPv4 address utilities used across the data plane.

Addresses are carried as plain ``int`` (host byte order) inside the
simulator for speed; these helpers convert to and from dotted-quad
strings and handle prefix arithmetic for the classifier.
"""

from __future__ import annotations

from typing import Iterator, Tuple

__all__ = [
    "ip_to_int",
    "int_to_ip",
    "prefix_range",
    "prefix_mask",
    "ip_in_prefix",
    "AddressAllocator",
]

_MAX_IPV4 = 0xFFFFFFFF


def ip_to_int(address: str) -> int:
    """Convert a dotted-quad IPv4 string to an integer.

    >>> ip_to_int("10.0.0.1")
    167772161
    """
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed IPv4 address: {address!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Convert an integer to a dotted-quad IPv4 string.

    >>> int_to_ip(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= _MAX_IPV4:
        raise ValueError(f"IPv4 integer out of range: {value!r}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def prefix_mask(length: int) -> int:
    """The netmask (as an int) of a prefix of the given length."""
    if not 0 <= length <= 32:
        raise ValueError(f"prefix length out of range: {length!r}")
    if length == 0:
        return 0
    return (_MAX_IPV4 << (32 - length)) & _MAX_IPV4


def prefix_range(address: int, length: int) -> Tuple[int, int]:
    """The inclusive ``(low, high)`` integer range covered by a prefix."""
    mask = prefix_mask(length)
    low = address & mask
    high = low | (~mask & _MAX_IPV4)
    return low, high


def ip_in_prefix(value: int, address: int, length: int) -> bool:
    """True if ``value`` falls inside ``address/length``."""
    low, high = prefix_range(address, length)
    return low <= value <= high


class AddressAllocator:
    """Sequential allocator of UE IPv4 addresses from a pool prefix.

    The UPF hands one address per PDU session; addresses can be released
    and are then reused in FIFO order.

    >>> alloc = AddressAllocator("10.60.0.0", 16)
    >>> int_to_ip(alloc.allocate())
    '10.60.0.1'
    """

    def __init__(self, base: str, prefix_len: int):
        self._low, self._high = prefix_range(ip_to_int(base), prefix_len)
        self._next = self._low + 1  # skip the network address
        self._released: list = []
        self._in_use: set = set()

    def allocate(self) -> int:
        """Return a free address; raises RuntimeError when exhausted."""
        if self._released:
            address = self._released.pop(0)
        else:
            if self._next >= self._high:  # keep broadcast unused
                raise RuntimeError("UE address pool exhausted")
            address = self._next
            self._next += 1
        self._in_use.add(address)
        return address

    def release(self, address: int) -> None:
        """Return an address to the pool."""
        if address not in self._in_use:
            raise ValueError(f"address not allocated: {int_to_ip(address)}")
        self._in_use.remove(address)
        self._released.append(address)

    @property
    def in_use(self) -> int:
        """Number of currently allocated addresses."""
        return len(self._in_use)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._in_use))
