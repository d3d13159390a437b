"""Canonical lifecycle vocabulary shared by static and dynamic checks.

The dynamic sanitizer (:mod:`repro.analysis.sanitizer`), the race
detector, and the static checks (:mod:`repro.analysis.program`,
:mod:`repro.analysis.rules`) all reason about the *same* three
protocols and the same single-writer owner table.  This module is the
single source of the state names, transition tables, violation-kind
strings and owned-attribute names, so a W005 finding at lint time and a
sanitizer violation at run time cite identical vocabulary and an
operator can correlate them 1:1.

Protocols
---------
**Descriptor** (zero-copy message/descriptor handoff)::

    allocated -> filled -> sent -> consumed

  A field write or re-enqueue in state ``sent`` is the
  mutate-after-send / double-enqueue hazard class; the transports'
  runtime states map onto the protocol via
  :data:`TRANSPORT_STATE_NAMES`.

**Session** (PFCP establish/modify/delete)::

    created -> installed -> removed -> installed   (re-establish/rehome)

  Rule installs (``install_pdr`` et al.) are legal only in ``created``
  or ``installed``; ``remove`` of a never-installed session and any
  rule use after ``remove`` are violations.

**Resource** (pool entry / buffer entry / pinned shard)::

    held -> released

  Acquired by :data:`ACQUIRE_METHODS`, discharged by the paired
  release, by an ownership transfer (return/escape), or by a
  re-install (:data:`SESSION_INSTALL_TRANSFER`).  A raising edge on
  which the release is not post-dominant leaks the resource.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

__all__ = [
    "DESCRIPTOR_STATES",
    "DESCRIPTOR_TRANSITIONS",
    "SESSION_STATES",
    "RESOURCE_STATES",
    "TRANSPORT_IN_FLIGHT",
    "TRANSPORT_IN_RING",
    "TRANSPORT_CHECKED_OUT",
    "TRANSPORT_STATE_NAMES",
    "MUTATE_AFTER_SEND",
    "DOUBLE_ENQUEUE",
    "USE_AFTER_DEQUEUE",
    "USE_AFTER_REMOVE",
    "DOUBLE_ESTABLISH",
    "REMOVE_BEFORE_ESTABLISH",
    "DANGLING_RULE_REF",
    "LEAK_ON_RAISE",
    "DEAD_CONFIG",
    "SEND_METHODS",
    "DESCRIPTOR_HANDOFF_METHODS",
    "SESSION_INSTALL_METHODS",
    "SESSION_ESTABLISH_METHODS",
    "SESSION_REMOVE_METHODS",
    "SESSION_INSTALL_TRANSFER",
    "SESSION_CLASS_SUFFIX",
    "ACQUIRE_METHODS",
    "MAY_FAIL_TRANSITIONS",
    "RULE_CONTAINERS",
    "SHARED_STRUCTURES",
]

# -- state machines ----------------------------------------------------------

#: Descriptor protocol states, in lifecycle order.
DESCRIPTOR_STATES: Tuple[str, ...] = (
    "allocated", "filled", "sent", "consumed",
)

#: Legal descriptor transitions (state -> successor states).
DESCRIPTOR_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    "allocated": ("filled",),
    "filled": ("filled", "sent"),
    "sent": ("consumed",),
    "consumed": ("filled", "sent"),  # recycled via a pool
}

#: Session protocol states.
SESSION_STATES: Tuple[str, ...] = ("created", "installed", "removed")

#: Resource (pool entry / buffer entry / pinned shard) states.
RESOURCE_STATES: Tuple[str, ...] = ("held", "released")

#: The transports' runtime ownership states (values of the sanitizer's
#: internal ``_State`` enum) and the descriptor-protocol state each
#: corresponds to.
TRANSPORT_IN_FLIGHT = "in-flight"
TRANSPORT_IN_RING = "in-ring"
TRANSPORT_CHECKED_OUT = "checked-out"
TRANSPORT_STATE_NAMES: Dict[str, str] = {
    TRANSPORT_IN_FLIGHT: "sent",
    TRANSPORT_IN_RING: "sent",
    TRANSPORT_CHECKED_OUT: "consumed",
}

# -- violation kinds ---------------------------------------------------------
# One string per hazard, used verbatim by the sanitizer's Violation.kind
# and embedded verbatim in the corresponding static finding messages.

MUTATE_AFTER_SEND = "mutate-after-send"
DOUBLE_ENQUEUE = "double-enqueue"
USE_AFTER_DEQUEUE = "use-after-dequeue"
USE_AFTER_REMOVE = "use-after-remove"
DOUBLE_ESTABLISH = "double-establish"
REMOVE_BEFORE_ESTABLISH = "remove-before-establish"
DANGLING_RULE_REF = "dangling-rule-reference"
LEAK_ON_RAISE = "leak-on-raise"
DEAD_CONFIG = "dead-config"

# -- API shapes the static checks key on -------------------------------------

#: Method names that hand a descriptor to a transport (ownership
#: transfer: the argument enters state ``sent``).
SEND_METHODS: FrozenSet[str] = frozenset({"send", "enqueue"})

#: Methods whose *first positional argument* is always a descriptor
#: handoff regardless of arity.  Plain ``send`` participates only when
#: called with exactly one positional argument — the simulation bus's
#: ``send(source, destination, message, ...)`` models transport *cost*,
#: not ownership transfer, and its leading args are NF names.
DESCRIPTOR_HANDOFF_METHODS: FrozenSet[str] = frozenset({
    "enqueue", "send_to_nf", "send_out",
})

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
#: call is the removed session object, now ``removed``/``held``).
SESSION_REMOVE_METHODS: FrozenSet[str] = frozenset({"remove"})

#: Passing a removed session back to an establish method transfers
#: ownership into the target table (the rehome/re-establish idiom) and
#: discharges the held-session obligation.
SESSION_INSTALL_TRANSFER: FrozenSet[str] = SESSION_ESTABLISH_METHODS

#: Class-name suffix identifying session objects for W006.
SESSION_CLASS_SUFFIX = "Session"

#: Resource-acquisition methods and their paired release method.
#: ``pin`` = a load-balancer affinity (the guard idiom W007's fixtures
#: exercise), ``acquire`` = generic pool checkout.
ACQUIRE_METHODS: Dict[str, str] = {
    "pin": "release",
    "acquire": "release",
}

#: Lifecycle transitions whose implementations validate their argument
#: and may raise (documented API contract: ``SessionTable.add`` rejects
#: duplicate SEID/TEID/UE-IP; ``pin`` is assumed to refuse a full or
#: failed unit).
#: The static checks give calls to these names a raising edge even when
#: the receiver's type cannot be resolved.
MAY_FAIL_TRANSITIONS: FrozenSet[str] = frozenset({"add", "pin"})

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
