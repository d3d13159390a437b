"""Canonical lifecycle vocabulary shared by static and dynamic checks.

The dynamic sanitizer (:mod:`repro.analysis.sanitizer`), the race
detector, and the static checks (:mod:`repro.analysis.program`,
:mod:`repro.analysis.rules`) name their hazards and owned attributes
here, once: the violation-kind strings, the API shapes W006 keys on,
and the single-writer owner table R008 reads.

Protocols
---------
**Descriptor** (zero-copy message/descriptor handoff): the sanitizer
tracks each handed-over descriptor through the transports' runtime
states :data:`TRANSPORT_IN_FLIGHT` / :data:`TRANSPORT_IN_RING` (sent)
and :data:`TRANSPORT_CHECKED_OUT` (consumed).  A content change or
re-enqueue while sent is the mutate-after-send / double-enqueue hazard
class.

**Session** (PFCP establish/modify/delete)::

    created -> installed -> removed -> installed   (re-establish/rehome)

  Rule installs (``install_pdr`` et al.) are legal only in ``created``
  or ``installed``; any rule use after ``remove`` is a violation (W006).
  A session table refuses a second ``add`` of the same SEID itself.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

__all__ = [
    "TRANSPORT_IN_FLIGHT",
    "TRANSPORT_IN_RING",
    "TRANSPORT_CHECKED_OUT",
    "MUTATE_AFTER_SEND",
    "DOUBLE_ENQUEUE",
    "USE_AFTER_DEQUEUE",
    "USE_AFTER_REMOVE",
    "DEAD_CONFIG",
    "SESSION_INSTALL_METHODS",
    "SESSION_ESTABLISH_METHODS",
    "SESSION_REMOVE_METHODS",
    "SESSION_CLASS_SUFFIX",
    "RULE_CONTAINERS",
    "SHARED_STRUCTURES",
]

# -- transport states --------------------------------------------------------

#: The transports' runtime ownership states (values of the sanitizer's
#: internal ``_State`` enum).
TRANSPORT_IN_FLIGHT = "in-flight"
TRANSPORT_IN_RING = "in-ring"
TRANSPORT_CHECKED_OUT = "checked-out"

# -- violation kinds ---------------------------------------------------------
# One string per hazard, used verbatim by the sanitizer's Violation.kind
# and embedded verbatim in the corresponding static finding messages.

MUTATE_AFTER_SEND = "mutate-after-send"
DOUBLE_ENQUEUE = "double-enqueue"
USE_AFTER_DEQUEUE = "use-after-dequeue"
USE_AFTER_REMOVE = "use-after-remove"
DEAD_CONFIG = "dead-config"

# -- API shapes W006 keys on -------------------------------------------------

#: Rule-lifecycle methods legal only on a non-``removed`` session.
SESSION_INSTALL_METHODS: FrozenSet[str] = frozenset({
    "install_pdr",
    "remove_pdr",
    "install_far",
    "update_far",
    "install_qer_enforcer",
    "install_usage_counter",
    "match_pdr",
})

#: Table methods that establish a session (argument -> ``installed``).
SESSION_ESTABLISH_METHODS: FrozenSet[str] = frozenset({"add"})

#: Table methods that tear a session down (by SEID; the *result* of the
#: call is the removed session object, now ``removed``).
SESSION_REMOVE_METHODS: FrozenSet[str] = frozenset({"remove"})

#: Class-name suffix identifying session objects for W006.
SESSION_CLASS_SUFFIX = "Session"

# -- single-writer owner table (§3.2) ----------------------------------------
# Declared once: the static ownership rule (R008) reads these two
# tuples, so a new rule container is added in one place.

#: Per-session rule containers.  The UPF-C writes them, the UPF-U reads
#: them lock-free; inside ``up/`` only ``UPFSession``'s own mutators
#: write them, each ending in the ``_publish`` call that bumps the
#: ``RuleEpoch`` (R008 flags a write through any other receiver).
RULE_CONTAINERS: Tuple[str, ...] = (
    "pdrs", "fars", "qer_enforcers", "usage_counters",
)

#: Every attribute of the ``up`` package's shared structures that only
#: the ``up`` package may write: the rule containers, the UPF-U's
#: ``report_pending`` flag and the session table's three maps
#: (membership writes are UPF-C-only).
SHARED_STRUCTURES: Tuple[str, ...] = RULE_CONTAINERS + (
    "report_pending", "_by_seid", "_teid_index", "_ue_ip_index",
)
