"""Canonical lifecycle vocabulary shared by static and dynamic checks.

The dynamic sanitizer (:mod:`repro.analysis.sanitizer`), the race
detector, and the static checks (:mod:`repro.analysis.program`,
:mod:`repro.analysis.rules`) name their hazards and owned attributes
here, once: the violation-kind strings and the single-writer owner
table R008 reads.

Protocols
---------
**Descriptor** (zero-copy message/descriptor handoff): the sanitizer
tracks each handed-over descriptor through the transports' runtime
states :data:`TRANSPORT_IN_FLIGHT` / :data:`TRANSPORT_IN_RING` (sent)
and :data:`TRANSPORT_CHECKED_OUT` (consumed).  A content change or
re-enqueue while sent is the mutate-after-send / double-enqueue hazard
class.

**Session** (PFCP establish/modify/delete)::

    created -> installed -> removed -> installed   (rehome/restore)

  Enforced where it happens, not by a check here: every rule mutator
  ends in an epoch bump, ``SessionTable.add`` binds the table's epoch
  and ``SessionTable.remove`` a detached one whose bump raises
  ``RuntimeError`` (``up/session.py``).  So rule writes are legal in
  ``created`` and ``installed`` and refused in ``removed``; a table
  refuses a second ``add`` of the same SEID itself.
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "TRANSPORT_IN_FLIGHT",
    "TRANSPORT_IN_RING",
    "TRANSPORT_CHECKED_OUT",
    "MUTATE_AFTER_SEND",
    "DOUBLE_ENQUEUE",
    "USE_AFTER_DEQUEUE",
    "DEAD_CONFIG",
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
DEAD_CONFIG = "dead-config"

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
