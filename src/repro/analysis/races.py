"""Shared-state race detector for the UPF-C / UPF-U memory model.

L25GC's "zero-cost state update" (§3.2) works because the factored UPF
obeys a strict single-writer discipline over the session state in
shared hugepages: the UPF-C writes PDR/FAR/QER/URR rules, the UPF-U
only reads them; the UPF-U owns the runtime state (smart buffer,
report-pending flag, flow cache); every rule mutation is published by
bumping the shared :class:`~repro.up.flow_cache.RuleEpoch`.  Nothing in
the reproduction *enforced* that discipline — this module does.

When enabled (off by default; disabled cost is one global ``is None``
check per hook), shared structures register themselves with a declared
owner role and lightweight access hooks record, for every read/write:
the acting *role* (explicit :meth:`RaceDetector.role` scope, else the
name of the active simulation process), the simulated time, and the
engine's yield generation (each resume of a process is one yield-to-
yield atomic section).  Three hazard classes are flagged:

* **conflicting-access** — two different roles touch the same part of
  a structure at the same simulated time from different atomic
  sections, at least one writing.  Same-time accesses from different
  sections are unordered on real concurrent hardware, so the pair is a
  data race; accesses inside one atomic section are program-ordered
  and never conflict.
* **non-owner-write** — a write performed under a role that is not the
  declared owner of that part (e.g. the UPF-C clearing the UPF-U's
  ``report_pending`` flag).
* **missing-epoch-bump** — a rule-container mutation not followed by a
  ``RuleEpoch.bump()`` before the process's next yield, which would
  leave stale decisions live in the flow cache.

Accesses with no role (test-harness code outside any role scope or
named process) are recorded but exempt from the checks: setup and
teardown code plays the part of the operator CLI, not of a production
process.

Each report carries both access sites and, for writes of hooked
values, a field-level diff (the same canonical-form machinery the
descriptor sanitizer uses).

Usage::

    from repro.analysis import races

    with races.traced() as det:
        run_simulation()
    assert not det.violations, det.report()

or run the whole suite under it (``pytest --race``), optionally
recording an access trace (``--race-trace=trace.jsonl``) that can be
re-analysed offline with ``python -m repro.analysis.races trace.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .lifecycle import RULE_CONTAINERS  # noqa: F401  (read by up/session.py as _races.RULE_CONTAINERS)
from .sanitizer import _canon, _diff, _short

__all__ = [
    "RaceError",
    "Access",
    "RaceViolation",
    "RaceDetector",
    "enable",
    "disable",
    "active",
    "traced",
    "replay",
    "main",
]


class RaceError(AssertionError):
    """Raised in strict mode the moment a violation is detected."""


#: Sentinel distinguishing "no value supplied" from "value is None".
_UNSET = object()

#: Basenames of the instrumented modules, skipped when walking the
#: stack for the user-level access site (same convention as the
#: descriptor sanitizer's ``_call_site``).
_SKIP_FILES = frozenset(
    {
        "races.py",
        "engine.py",
        "session.py",
        "flow_cache.py",
        "buffer.py",
        "checkpoint.py",
        "replica.py",
    }
)


def _call_site() -> str:
    """``file:line`` of the nearest frame outside the instrumented core."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename.rpartition("/")[2] not in _SKIP_FILES:
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


@dataclass
class Access:
    """One recorded read or write of a registered structure part."""

    role: Optional[str]  # explicit role scope / named process, else None
    process: str  # "<main>" or the simulation process label
    kind: str  # "read" | "write"
    site: str  # file:line of the accessing code
    time: float  # simulated seconds
    generation: int  # engine yield generation (atomic-section id)
    detail: str = ""

    def actor(self) -> str:
        role = self.role if self.role is not None else "<no role>"
        return f"{role} ({self.process})"


@dataclass
class RaceViolation:
    """One detected shared-state hazard."""

    kind: str  # "conflicting-access" | "non-owner-write" | "missing-epoch-bump"
    structure: str
    part: str
    owner: str
    first: Optional[Access]  # prior access (owner write / conflicting peer)
    second: Access  # the access that surfaced the hazard
    diff: List[Tuple[str, str, str]]  # (field path, before, after)
    detail: str = ""
    count: int = 1

    def report(self) -> str:
        lines = [
            f"{self.kind}: {self.structure}.{self.part} (owner {self.owner!r})"
        ]
        if self.first is not None:
            lines.append(
                f"  prior {self.first.kind:<5} at {self.first.site} "
                f"by {self.first.actor()} "
                f"[t={self.first.time:.9g} gen={self.first.generation}]"
            )
        lines.append(
            f"  this  {self.second.kind:<5} at {self.second.site} "
            f"by {self.second.actor()} "
            f"[t={self.second.time:.9g} gen={self.second.generation}]"
        )
        if self.detail:
            lines.append(f"  {self.detail}")
        for path, before, after in self.diff:
            lines.append(f"  field {path}: {before} -> {after}")
        if self.count > 1:
            lines.append(f"  ({self.count} occurrences, first shown)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        def acc(a: Optional[Access]) -> Optional[Dict[str, Any]]:
            if a is None:
                return None
            return {
                "role": a.role,
                "process": a.process,
                "kind": a.kind,
                "site": a.site,
                "time": a.time,
                "generation": a.generation,
                "detail": a.detail,
            }

        return {
            "kind": self.kind,
            "structure": self.structure,
            "part": self.part,
            "owner": self.owner,
            "first": acc(self.first),
            "second": acc(self.second),
            "diff": [list(entry) for entry in self.diff],
            "detail": self.detail,
            "count": self.count,
        }


@dataclass
class _Shared:
    """Registration record of one shared structure."""

    obj: Any
    label: str
    owner: str
    parts: Dict[str, str]  # part -> owner role (overrides ``owner``)
    rule_parts: frozenset  # parts whose mutation must be epoch-bumped
    #: part -> (sim time, {role: [last read, last write]}) — the
    #: same-instant access window used for conflict detection.
    window: Dict[str, tuple] = field(default_factory=dict)
    #: part -> canonical form of the last hooked write value.
    snapshots: Dict[str, Any] = field(default_factory=dict)
    #: part -> most recent write access (the "prior" witness for
    #: non-owner-write reports).
    last_write: Dict[str, Access] = field(default_factory=dict)

    def owner_of(self, part: str) -> str:
        return self.parts.get(part, self.owner)


class RaceDetector:
    """Ownership registry + access checker for shared structures.

    Parameters
    ----------
    strict:
        When True, raise :class:`RaceError` at the moment a violation
        is detected instead of only recording it.
    env:
        Optional simulation environment; normally discovered from the
        first process resume, passing it only matters for direct-mode
        code that wants sim-time stamps before any process runs.
    record:
        When True, keep a replayable access trace in :attr:`trace`
        (see :func:`replay` and the module CLI).
    """

    def __init__(self, strict: bool = False, env=None, record: bool = False):
        self.strict = strict
        self.violations: List[RaceViolation] = []
        self.accesses = 0
        self.trace: Optional[List[dict]] = [] if record else None
        self._env = env
        self._structures: Dict[int, _Shared] = {}
        self._roles: List[str] = []
        #: (shared, part, access) rule mutations awaiting an epoch bump.
        self._pending_bumps: List[tuple] = []
        self._dedup: Dict[tuple, RaceViolation] = {}
        self._finished = False

    # -- registration ----------------------------------------------------
    def register(
        self,
        obj: Any,
        label: str,
        owner: str,
        parts: Optional[Dict[str, str]] = None,
        rule_parts: Sequence[str] = (),
    ) -> None:
        """Declare ``obj`` shared, owned by role ``owner``.

        ``parts`` overrides the owner for individual parts (e.g. a
        session's rules belong to upf-c but its buffer to upf-u);
        ``rule_parts`` lists the parts whose mutation must be followed
        by a ``RuleEpoch.bump()`` before the next yield.
        """
        self._structures[id(obj)] = _Shared(
            obj=obj,
            label=label,
            owner=owner,
            parts=dict(parts or {}),
            rule_parts=frozenset(rule_parts),
        )
        if self.trace is not None:
            self.trace.append(
                {
                    "event": "register",
                    "obj": id(obj),
                    "label": label,
                    "owner": owner,
                    "parts": dict(parts or {}),
                    "rule_parts": sorted(rule_parts),
                }
            )

    def registered(self, obj: Any) -> bool:
        return id(obj) in self._structures

    # -- role scoping ----------------------------------------------------
    @contextmanager
    def role(self, name: str) -> Iterator[None]:
        """Attribute the enclosed accesses to logical process ``name``."""
        self._roles.append(name)
        try:
            yield
        finally:
            self._roles.pop()

    # -- engine hook -----------------------------------------------------
    def on_resume(self, env) -> None:
        """``env`` entered a new atomic section (a process resume or a
        timer firing)."""
        self._env = env
        if self._pending_bumps:
            if self.trace is not None:
                self.trace.append(
                    {"event": "resume", "generation": env.yield_generation}
                )
            self._flush_stale_bumps(env.yield_generation)

    # -- access hooks ----------------------------------------------------
    def on_read(self, obj: Any, part: str, detail: str = "") -> None:
        shared = self._structures.get(id(obj))
        if shared is None:
            return
        self._ingest(shared, part, self._mk_access("read", detail), None, False)

    def on_write(
        self,
        obj: Any,
        part: str,
        value: Any = _UNSET,
        rule_mutation: bool = False,
        detail: str = "",
    ) -> None:
        shared = self._structures.get(id(obj))
        if shared is None:
            return
        snapshot = _canon(value) if value is not _UNSET else None
        self._ingest(
            shared,
            part,
            self._mk_access("write", detail),
            snapshot,
            rule_mutation or part in shared.rule_parts,
        )

    def on_bump(self) -> None:
        """A ``RuleEpoch.bump()`` happened: discharge this section's
        pending rule mutations."""
        if self.trace is not None:
            self.trace.append(
                {"event": "bump", "generation": self._generation()}
            )
        if not self._pending_bumps:
            return
        gen = self._generation()
        self._pending_bumps = [
            pending
            for pending in self._pending_bumps
            if pending[2].generation != gen
        ]

    # -- lifecycle -------------------------------------------------------
    def finish(self) -> None:
        """Flush end-of-run obligations (rule mutations never bumped)."""
        if self._finished:
            return
        self._finished = True
        for shared, part, access in self._pending_bumps:
            self._record(
                RaceViolation(
                    kind="missing-epoch-bump",
                    structure=shared.label,
                    part=part,
                    owner=shared.owner_of(part),
                    first=None,
                    second=access,
                    diff=[],
                    detail=(
                        "rule mutation was never followed by a "
                        "RuleEpoch.bump(); stale flow-cache decisions "
                        "stay live"
                    ),
                )
            )
        self._pending_bumps = []

    # -- reporting -------------------------------------------------------
    def report(self) -> str:
        if not self.violations:
            return "race detector: no violations"
        blocks = [v.report() for v in self.violations]
        header = f"race detector: {len(self.violations)} violation(s)\n"
        return header + "\n\n".join(blocks)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "violations": [v.to_dict() for v in self.violations],
            "accesses": self.accesses,
            "structures": len(self._structures),
        }

    def dump_trace(self, path: str, header: Optional[dict] = None) -> None:
        """Append the recorded trace to ``path`` as JSON lines."""
        if self.trace is None:
            raise ValueError("detector was not created with record=True")
        with open(path, "a", encoding="utf-8") as handle:
            if header is not None:
                # A "begin" event marks a run boundary: replay resets
                # its structure table there (object ids recycle).
                handle.write(json.dumps({"event": "begin", **header}) + "\n")
            for record in self.trace:
                handle.write(json.dumps(record) + "\n")

    # -- internals -------------------------------------------------------
    def _generation(self) -> int:
        env = self._env
        return env.yield_generation if env is not None else 0

    def _mk_access(self, kind: str, detail: str) -> Access:
        env = self._env
        if env is not None:
            now = env._now
            gen = env.yield_generation
            proc = env._active_process
        else:
            now = 0.0
            gen = 0
            proc = None
        if self._roles:
            role: Optional[str] = self._roles[-1]
        elif proc is not None:
            role = getattr(proc, "name", None)
        else:
            role = None
        if proc is None:
            pname = "<main>"
        else:
            pname = getattr(proc, "name", None) or f"proc-{id(proc):x}"
        return Access(
            role=role,
            process=pname,
            kind=kind,
            site=_call_site(),
            time=now,
            generation=gen,
            detail=detail,
        )

    def _ingest(
        self,
        shared: _Shared,
        part: str,
        access: Access,
        snapshot: Any,
        rule_mutation: bool,
    ) -> None:
        self.accesses += 1
        if self.trace is not None:
            self.trace.append(
                {
                    "event": "access",
                    "obj": id(shared.obj),
                    "part": part,
                    "kind": access.kind,
                    "role": access.role,
                    "process": access.process,
                    "site": access.site,
                    "time": access.time,
                    "generation": access.generation,
                    "rule_mutation": rule_mutation,
                    "detail": access.detail,
                }
            )
        diff: List[Tuple[str, str, str]] = []
        if access.kind == "write" and snapshot is not None:
            previous = shared.snapshots.get(part)
            if previous is not None:
                diff = _diff(previous, snapshot)
            shared.snapshots[part] = snapshot
        if access.role is not None:
            self._check_owner(shared, part, access, diff)
            self._check_conflict(shared, part, access, diff)
        if access.kind == "write":
            if rule_mutation:
                self._pending_bumps.append((shared, part, access))
            if access.role is not None:
                shared.last_write[part] = access

    def _check_owner(
        self,
        shared: _Shared,
        part: str,
        access: Access,
        diff: List[Tuple[str, str, str]],
    ) -> None:
        if access.kind != "write":
            return
        owner = shared.owner_of(part)
        if access.role == owner:
            return
        self._record(
            RaceViolation(
                kind="non-owner-write",
                structure=shared.label,
                part=part,
                owner=owner,
                first=shared.last_write.get(part),
                second=access,
                diff=diff,
                detail=(
                    f"role {access.role!r} wrote state owned by {owner!r}; "
                    "the single-writer discipline of the shared-memory "
                    "model is broken"
                ),
            )
        )

    def _check_conflict(
        self,
        shared: _Shared,
        part: str,
        access: Access,
        diff: List[Tuple[str, str, str]],
    ) -> None:
        if access.process == "<main>":
            # Main-thread code runs between engine steps (the engine is
            # cooperative), so it is serialized against every process
            # even at the same simulated instant: it cannot conflict.
            # Ownership checks above still apply to it.
            return
        window = shared.window.get(part)
        if window is None or window[0] != access.time:
            # New simulated instant: previous accesses are ordered
            # before this one by time, so they cannot conflict.
            by_role: Dict[str, list] = {}
            shared.window[part] = (access.time, by_role)
        else:
            by_role = window[1]
        slot = 1 if access.kind == "write" else 0
        for other_role, pair in by_role.items():
            if other_role == access.role:
                continue
            for other in pair:
                if other is None:
                    continue
                if other.kind == "read" and access.kind == "read":
                    continue
                if other.generation == access.generation:
                    # Same atomic section: a synchronous call chain,
                    # program-ordered, not a race.
                    continue
                self._record(
                    RaceViolation(
                        kind="conflicting-access",
                        structure=shared.label,
                        part=part,
                        owner=shared.owner_of(part),
                        first=other,
                        second=access,
                        diff=diff,
                        detail=(
                            f"unsynchronized {other.kind}/{access.kind} by "
                            f"roles {other.role!r} and {access.role!r} at "
                            "the same simulated instant from different "
                            "atomic sections"
                        ),
                    )
                )
        mine = by_role.setdefault(access.role, [None, None])
        mine[slot] = access

    def _flush_stale_bumps(self, current_generation: int) -> None:
        stale = [
            pending
            for pending in self._pending_bumps
            if pending[2].generation < current_generation
        ]
        if not stale:
            return
        self._pending_bumps = [
            pending
            for pending in self._pending_bumps
            if pending[2].generation >= current_generation
        ]
        for shared, part, access in stale:
            self._record(
                RaceViolation(
                    kind="missing-epoch-bump",
                    structure=shared.label,
                    part=part,
                    owner=shared.owner_of(part),
                    first=None,
                    second=access,
                    diff=[],
                    detail=(
                        "rule mutation not followed by a RuleEpoch.bump() "
                        "before the next yield; the flow cache may serve "
                        "decisions derived from the old rules"
                    ),
                )
            )

    def _record(self, violation: RaceViolation) -> None:
        key = (
            violation.kind,
            violation.structure,
            violation.part,
            violation.first.site if violation.first is not None else None,
            violation.second.site,
        )
        existing = self._dedup.get(key)
        if existing is not None:
            existing.count += 1
            return
        self._dedup[key] = violation
        self.violations.append(violation)
        if self.strict:
            raise RaceError(violation.report())


# ---------------------------------------------------------------------------
# Global opt-in switch — instrumented code checks ``active()`` per hook.
# ---------------------------------------------------------------------------
_ACTIVE: Optional[RaceDetector] = None


def enable(strict: bool = False, env=None, record: bool = False) -> RaceDetector:
    """Install a fresh detector as the process-wide active instance."""
    global _ACTIVE
    _ACTIVE = RaceDetector(strict=strict, env=env, record=record)
    return _ACTIVE


def disable() -> None:
    """Deactivate the detector (flushes end-of-run obligations)."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.finish()
    _ACTIVE = None


def active() -> Optional[RaceDetector]:
    """The currently installed detector, or None when disabled."""
    return _ACTIVE


@contextmanager
def traced(
    strict: bool = False, env=None, record: bool = False
) -> Iterator[RaceDetector]:
    """Run a block under a fresh detector, restoring the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    det = RaceDetector(strict=strict, env=env, record=record)
    _ACTIVE = det
    try:
        yield det
    finally:
        det.finish()
        _ACTIVE = previous


# ---------------------------------------------------------------------------
# Offline trace replay — ``python -m repro.analysis.races trace.jsonl``
# ---------------------------------------------------------------------------
def replay(records) -> RaceDetector:
    """Re-run the race analysis over a recorded access trace.

    ``records`` is an iterable of trace dicts (the JSON-lines format
    written by :meth:`RaceDetector.dump_trace`).  Field-level diffs are
    not reconstructed offline; sites, roles, and timings are.
    """
    det = RaceDetector()
    structures: Dict[int, _Shared] = det._structures
    generation = 0
    for record in records:
        event = record.get("event")
        if event == "begin":
            # Test boundary: object ids may be recycled across tests.
            structures.clear()
            det._pending_bumps = []
            generation = 0
        elif event == "register":
            structures[record["obj"]] = _Shared(
                obj=record["obj"],
                label=record["label"],
                owner=record["owner"],
                parts=dict(record.get("parts") or {}),
                rule_parts=frozenset(record.get("rule_parts") or ()),
            )
        elif event == "access":
            shared = structures.get(record["obj"])
            if shared is None:
                continue
            access = Access(
                role=record.get("role"),
                process=record.get("process", "<main>"),
                kind=record["kind"],
                site=record.get("site", "<unknown>"),
                time=record.get("time", 0.0),
                generation=record.get("generation", 0),
                detail=record.get("detail", ""),
            )
            generation = max(generation, access.generation)
            det._flush_stale_bumps(generation)
            det._ingest(
                shared, record["part"], access, None,
                bool(record.get("rule_mutation")),
            )
        elif event == "bump":
            gen = record.get("generation", generation)
            det._pending_bumps = [
                pending
                for pending in det._pending_bumps
                if pending[2].generation != gen
            ]
        elif event == "resume":
            generation = record.get("generation", generation)
            det._flush_stale_bumps(generation)
    det.finish()
    return det


def _load_trace(path: str) -> List[dict]:
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read().strip()
    if not text:
        return records
    if text.startswith("["):
        return json.loads(text)
    for line in text.splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.races",
        description=(
            "Replay a recorded shared-state access trace "
            "(pytest --race --race-trace=PATH) through the race detector."
        ),
    )
    parser.add_argument("trace", help="JSON-lines (or JSON array) trace file")
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)
    try:
        records = _load_trace(args.trace)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    det = replay(records)
    if args.as_json:
        print(json.dumps(det.to_dict(), indent=2))
    else:
        print(det.report())
        print(
            f"{det.accesses} access(es) over {len(det._structures)} "
            "structure(s) replayed"
        )
    return 1 if det.violations else 0


if __name__ == "__main__":
    sys.exit(main())
