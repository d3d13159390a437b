"""User plane: PDR/FAR state, session tables, smart buffer, UPF-C/UPF-U."""

from .buffer import DEFAULT_UPF_BUFFER_PACKETS, SmartBuffer
from .flow_cache import (
    DEFAULT_FLOW_CACHE_CAPACITY,
    FlowCache,
    FlowCacheEntry,
    RuleEpoch,
)
from .keys import packet_key, packet_keys
from .qos import QerEnforcer, TokenBucket, UsageCounter
from .rules import FAR, PDR, far_from_ie, pdr_from_create_ie
from .session import RuleDelta, SessionTable, SessionTableView, UPFSession
from .upf_c import UPFControlPlane
from .upf_u import ForwardingStats, UPFUserPlane

__all__ = [
    "DEFAULT_UPF_BUFFER_PACKETS",
    "DEFAULT_FLOW_CACHE_CAPACITY",
    "FlowCache",
    "FlowCacheEntry",
    "RuleEpoch",
    "packet_key",
    "packet_keys",
    "QerEnforcer",
    "TokenBucket",
    "UsageCounter",
    "SmartBuffer",
    "FAR",
    "PDR",
    "far_from_ie",
    "pdr_from_create_ie",
    "RuleDelta",
    "SessionTable",
    "SessionTableView",
    "UPFSession",
    "UPFControlPlane",
    "ForwardingStats",
    "UPFUserPlane",
]
