"""Receive Side Scaling: spreading packets across cores / 5GC units.

Modern NICs hash configurable header fields into a receive-queue index
(§4: "we leverage RSS offered by modern NICs to segregate incoming
packets into different receive queues...").  We implement the Toeplitz
hash used by Intel NICs over the IPv4 five-tuple, plus the indirection
table mapping hash values to queues.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple

from ..net.packet import FiveTuple, Packet

__all__ = [
    "toeplitz_hash",
    "toeplitz_hash32",
    "bucket_tables",
    "RSSIndirection",
    "DEFAULT_RSS_KEY",
]

#: Microsoft's verification RSS key, the de-facto default.
DEFAULT_RSS_KEY = bytes(
    [
        0x6D, 0x5A, 0x56, 0xDA, 0x25, 0x5B, 0x0E, 0xC2,
        0x41, 0x67, 0x25, 0x3D, 0x43, 0xA3, 0x8F, 0xB0,
        0xD0, 0xCA, 0x2B, 0xCB, 0xAE, 0x7B, 0x30, 0xB4,
        0x77, 0xCB, 0x2D, 0xA3, 0x80, 0x30, 0xF2, 0x0C,
        0x6A, 0x42, 0xB7, 0x3B, 0xBE, 0xAC, 0x01, 0xFA,
    ]
)


def toeplitz_hash(data: bytes, key: bytes = DEFAULT_RSS_KEY) -> int:
    """The Toeplitz hash over ``data`` with the given key."""
    if len(key) < len(data) + 4:
        raise ValueError("RSS key too short for input")
    result = 0
    key_int = int.from_bytes(key, "big")
    key_bits = len(key) * 8
    window_shift = key_bits - 32
    bit_index = 0
    for byte in data:
        for bit in range(7, -1, -1):
            if byte & (1 << bit):
                window = (key_int >> (window_shift - bit_index)) & 0xFFFFFFFF
                result ^= window
            bit_index += 1
    return result


def toeplitz_windows(key: bytes = DEFAULT_RSS_KEY, bits: int = 32) -> List[int]:
    """The per-input-bit 32-bit key windows of the Toeplitz hash.

    ``windows[p]`` is the hash of an input whose only set bit is bit
    ``p`` (counting from the MSB of the input).  Toeplitz is linear
    over GF(2) — ``hash(a ^ b) == hash(a) ^ hash(b)`` — so these
    windows fully determine the hash; the sharded deployment uses them
    to *steer* allocated TEIDs into a chosen indirection bucket.
    """
    key_int = int.from_bytes(key, "big")
    window_shift = len(key) * 8 - 32
    if window_shift < bits:
        raise ValueError("RSS key too short for input")
    return [
        (key_int >> (window_shift - p)) & 0xFFFFFFFF for p in range(bits)
    ]


_BYTE_TABLE_CACHE: Dict[bytes, Tuple[List[int], ...]] = {}


def _byte_tables(key: bytes) -> Tuple[List[int], ...]:
    """4 x 256 precomputed tables: Toeplitz of each byte position."""
    tables = _BYTE_TABLE_CACHE.get(key)
    if tables is not None:
        return tables
    windows = toeplitz_windows(key, bits=32)
    built: List[List[int]] = []
    for byte_index in range(4):
        table = []
        for byte in range(256):
            acc = 0
            for bit in range(8):
                if byte & (0x80 >> bit):
                    acc ^= windows[byte_index * 8 + bit]
            table.append(acc)
        built.append(table)
    tables = tuple(built)
    _BYTE_TABLE_CACHE[key] = tables
    return tables


def toeplitz_hash32(value: int, key: bytes = DEFAULT_RSS_KEY) -> int:
    """Toeplitz hash of one 32-bit big-endian word (TEID or IPv4).

    Equivalent to ``toeplitz_hash(struct.pack("!I", value), key)`` but
    via four byte-table lookups — the form that survives a 1M-session
    sweep.  It is the reference :func:`bucket_tables` builds the sharded
    dispatcher's masked tables from.
    """
    t0, t1, t2, t3 = _byte_tables(key)
    return (
        t0[(value >> 24) & 0xFF]
        ^ t1[(value >> 16) & 0xFF]
        ^ t2[(value >> 8) & 0xFF]
        ^ t3[value & 0xFF]
    )


def bucket_tables(key: bytes, mask: int) -> Tuple[List[int], ...]:
    """Four 256-entry tables whose XOR is ``toeplitz_hash32(v) & mask``.

    Entry ``b`` of table ``i`` is the masked hash of byte ``i`` alone,
    ``toeplitz_hash32(b << (24 - 8 * i), key) & mask``.  Toeplitz is
    linear over GF(2) and ``&`` distributes over ``^``, so a dispatcher
    indexes the tables with the four bytes of ``v`` and XORs the four
    entries: one table walk, mask included, no call per packet.
    """
    return tuple(
        [toeplitz_hash32(byte << (24 - 8 * index), key) & mask
         for byte in range(256)]
        for index in range(4)
    )


def hash_five_tuple(flow: FiveTuple, key: bytes = DEFAULT_RSS_KEY) -> int:
    """RSS input for TCP/UDP over IPv4: src ip, dst ip, src/dst port."""
    data = struct.pack(
        "!IIHH", flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port
    )
    return toeplitz_hash(data, key)


class RSSIndirection:
    """The NIC's indirection table: hash LSBs -> receive queue.

    >>> rss = RSSIndirection(num_queues=4)
    >>> 0 <= rss.queue_for(FiveTuple(src_ip=1, dst_ip=2)) < 4
    True
    """

    def __init__(self, num_queues: int, table_size: int = 128):
        if num_queues <= 0:
            raise ValueError("need at least one queue")
        self.num_queues = num_queues
        self.table: List[int] = [
            index % num_queues for index in range(table_size)
        ]

    def queue_for(self, flow: FiveTuple, key: bytes = DEFAULT_RSS_KEY) -> int:
        value = hash_five_tuple(flow, key)
        return self.table[value % len(self.table)]

    def dispatch(self, packets: Sequence[Packet]) -> List[List[Packet]]:
        """Split a burst into per-queue lists (same flow -> same queue)."""
        queues: List[List[Packet]] = [[] for _ in range(self.num_queues)]
        for packet in packets:
            queues[self.queue_for(packet.flow)].append(packet)
        return queues
