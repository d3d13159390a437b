"""Deployment: Toeplitz RSS, the sharded UPF and its failover, slices."""

from .rss import DEFAULT_RSS_KEY, toeplitz_hash, toeplitz_hash32
from .sharded import (
    ShardedSessionTable,
    ShardedUPFControlPlane,
    ShardedUserPlane,
    ShardRouter,
    UPFShard,
)
from .slicing import NetworkSlice, SliceManager, SNssai

__all__ = [
    "DEFAULT_RSS_KEY",
    "toeplitz_hash",
    "toeplitz_hash32",
    "ShardRouter",
    "ShardedSessionTable",
    "ShardedUserPlane",
    "ShardedUPFControlPlane",
    "UPFShard",
    "NetworkSlice",
    "SliceManager",
    "SNssai",
]
