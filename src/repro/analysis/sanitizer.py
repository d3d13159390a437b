"""Runtime descriptor sanitizer for the zero-copy shared-memory core.

The L25GC transports never copy: :class:`~repro.core.transport.MessageBus`
passes live message references and :class:`~repro.core.rings.Ring`
passes descriptor pointers.  That is the whole performance story — and
a hazard class the kernel used to absorb: a writer that keeps mutating
an object *after* handing it over corrupts the reader silently, and an
object enqueued twice aliases two owners.

When enabled (it is off by default and costs nothing on the hot path
beyond one ``is None`` check), the sanitizer stamps every handed-over
object with its current owner and a content fingerprint, then checks:

* **mutate-after-send** — the fingerprint at delivery/dequeue differs
  from the one at send/enqueue.  The report names the offending send
  site and a field-level diff.
* **double-enqueue** — an object is sent/enqueued again while still in
  flight, aliasing two owners.
* **use-after-dequeue** — an object surfaces from a ring after another
  consumer already took ownership (the downstream symptom of a
  double-enqueue).
* **leaked descriptors** — at teardown, :meth:`~DescriptorSanitizer.leaks`
  lists every object still in flight or sitting in a ring: enqueued but
  never dequeued/delivered, i.e. a descriptor the platform lost track
  of.  Each leak carries the send site that originated it.

Usage::

    from repro.analysis import sanitizer

    with sanitizer.sanitized() as san:
        run_simulation()
    assert not san.violations, san.report()

or run the whole test suite under it: ``pytest --sanitize``.
"""

from __future__ import annotations

import enum
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields as dataclass_fields, is_dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

# Violation kinds and ownership-state names come from the shared
# lifecycle vocabulary, where every detector's hazard names live.
from .lifecycle import (
    DOUBLE_ENQUEUE,
    MUTATE_AFTER_SEND,
    TRANSPORT_CHECKED_OUT,
    TRANSPORT_IN_FLIGHT,
    TRANSPORT_IN_RING,
    USE_AFTER_DEQUEUE,
)

__all__ = [
    "SanitizerError",
    "Violation",
    "Leak",
    "DescriptorSanitizer",
    "enable",
    "disable",
    "active",
    "sanitized",
]

#: Maximum recursion depth for content fingerprints; beyond it the
#: structure is summarized, which can only cause false negatives.
_MAX_DEPTH = 10

#: Types exempt from tracking: they cannot be mutated, and CPython
#: interns/caches many of them, so identity-based ownership tracking
#: would report spurious aliasing (e.g. the int 2 enqueued twice).
_UNTRACKED_TYPES = (
    type(None),
    bool,
    int,
    float,
    complex,
    str,
    bytes,
    tuple,
    frozenset,
)


class SanitizerError(AssertionError):
    """Raised in strict mode the moment a violation is detected."""


class _State(enum.Enum):
    IN_FLIGHT = TRANSPORT_IN_FLIGHT  # handed to a MessageBus, not yet delivered
    IN_RING = TRANSPORT_IN_RING  # sitting in a descriptor ring
    CHECKED_OUT = TRANSPORT_CHECKED_OUT  # dequeued; consumer owns it


@dataclass
class Violation:
    """One detected ownership/aliasing violation."""

    kind: str  # "mutate-after-send" | "double-enqueue" | "use-after-dequeue"
    obj_repr: str
    channel: str  # bus destination or ring name of the original handoff
    send_site: str  # file:line of the original send/enqueue
    detect_site: str  # file:line where the violation surfaced
    diff: List[Tuple[str, str, str]]  # (field path, before, after)
    detail: str = ""

    def report(self) -> str:
        lines = [
            f"{self.kind}: {self.obj_repr}",
            f"  handed over at {self.send_site} (via {self.channel})",
            f"  detected at    {self.detect_site}",
        ]
        if self.detail:
            lines.append(f"  {self.detail}")
        for path, before, after in self.diff:
            lines.append(f"  field {path}: {before} -> {after}")
        return "\n".join(lines)


@dataclass
class Leak:
    """A descriptor still owned by a transport at teardown.

    The object was handed over (``in-flight`` on a bus, or ``in-ring``)
    and never delivered, dequeued, dropped, or released — on the real
    platform this is a leaked mbuf that eventually exhausts the pool.
    """

    obj_repr: str
    state: str  # "in-flight" | "in-ring"
    channel: str  # bus destination / ring name holding the object
    send_site: str  # file:line of the send/enqueue that leaked it

    def report(self) -> str:
        return (
            f"leaked descriptor ({self.state}): {self.obj_repr}\n"
            f"  handed over at {self.send_site} (via {self.channel}), "
            "never dequeued or delivered"
        )


@dataclass
class _Entry:
    obj: Any
    state: _State
    channel: str
    site: str
    snapshot: Any


# ---------------------------------------------------------------------------
# Content fingerprinting
# ---------------------------------------------------------------------------
def _canon(obj: Any, depth: int = 0) -> Any:
    """A deep, immutable canonical form of ``obj`` for comparison.

    Dataclasses contribute their compare-relevant fields; containers
    recurse; unknown objects contribute only their identity, so
    mutations inside them go unflagged rather than causing spurious
    reports.
    """
    if depth > _MAX_DEPTH:
        return "<max-depth>"
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, enum.Enum):
        return f"<enum {type(obj).__name__}.{obj.name}>"
    if is_dataclass(obj) and not isinstance(obj, type):
        return (
            "<dc>",
            type(obj).__name__,
            tuple(
                (f.name, _canon(getattr(obj, f.name), depth + 1))
                for f in dataclass_fields(obj)
                if f.compare
            ),
        )
    if isinstance(obj, dict):
        return (
            "<dict>",
            tuple(
                (repr(k), _canon(v, depth + 1))
                for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))
            ),
        )
    if isinstance(obj, (list, tuple)):
        return ("<seq>", tuple(_canon(v, depth + 1) for v in obj))
    if isinstance(obj, (set, frozenset)):
        return ("<set>", tuple(sorted(repr(v) for v in obj)))
    return f"<{type(obj).__name__}#{id(obj):x}>"


def _diff(before: Any, after: Any, path: str = "") -> List[Tuple[str, str, str]]:
    """Field-level differences between two canonical forms."""
    if before == after:
        return []
    if (
        isinstance(before, tuple)
        and isinstance(after, tuple)
        and before[:1] == after[:1]
        and before
        and before[0] in ("<dc>", "<dict>", "<seq>", "<set>")
    ):
        tag = before[0]
        if tag == "<dc>" and before[1] == after[1]:
            out: List[Tuple[str, str, str]] = []
            b_fields, a_fields = dict(before[2]), dict(after[2])
            for name in b_fields:
                sub = f"{path}.{name}" if path else name
                out.extend(_diff(b_fields[name], a_fields.get(name), sub))
            return out
        if tag == "<dict>":
            out = []
            b_items, a_items = dict(before[1]), dict(after[1])
            for key in sorted(set(b_items) | set(a_items)):
                sub = f"{path}[{key}]" if path else f"[{key}]"
                if b_items.get(key) != a_items.get(key):
                    out.extend(
                        _diff(b_items.get(key), a_items.get(key), sub)
                    )
            return out
        if tag == "<seq>" and len(before[1]) == len(after[1]):
            out = []
            for index, (b, a) in enumerate(zip(before[1], after[1])):
                sub = f"{path}[{index}]" if path else f"[{index}]"
                out.extend(_diff(b, a, sub))
            return out
    return [(path or "<value>", _short(before), _short(after))]


def _short(value: Any, limit: int = 120) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


#: Basenames of the instrumented core modules, skipped when walking the
#: stack for the user-level call site.  Matched on the exact basename so
#: that e.g. ``test_analysis_sanitizer.py`` is not skipped too.
_SKIP_FILES = frozenset({"sanitizer.py", "transport.py", "rings.py"})


def _call_site() -> str:
    """``file:line`` of the nearest frame outside the instrumented core."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename.rpartition("/")[2] not in _SKIP_FILES:
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


# ---------------------------------------------------------------------------
# The sanitizer
# ---------------------------------------------------------------------------
class DescriptorSanitizer:
    """Tracks ownership and content of zero-copy handoffs.

    Parameters
    ----------
    strict:
        When True, raise :class:`SanitizerError` at the moment a
        violation is detected instead of only recording it.
    """

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.violations: List[Violation] = []
        self._tracked: Dict[int, _Entry] = {}
        self.handoffs = 0

    # -- reporting -------------------------------------------------------
    def report(self) -> str:
        if not self.violations:
            return "descriptor sanitizer: no violations"
        blocks = [v.report() for v in self.violations]
        header = (
            f"descriptor sanitizer: {len(self.violations)} violation(s)\n"
        )
        return header + "\n\n".join(blocks)

    def reset(self) -> None:
        self.violations.clear()
        self._tracked.clear()
        self.handoffs = 0

    def _record(self, violation: Violation) -> None:
        self.violations.append(violation)
        if self.strict:
            raise SanitizerError(violation.report())

    # -- MessageBus hooks ------------------------------------------------
    def on_send(self, source: str, destination: str, message: Any) -> None:
        """A message was handed to the bus; the sender loses ownership."""
        if isinstance(message, _UNTRACKED_TYPES):
            return
        self.handoffs += 1
        entry = self._tracked.get(id(message))
        site = _call_site()
        if entry is not None and entry.state is _State.IN_FLIGHT:
            self._record(
                Violation(
                    kind=DOUBLE_ENQUEUE,
                    obj_repr=_short(message),
                    channel=entry.channel,
                    send_site=entry.site,
                    detect_site=site,
                    diff=[],
                    detail=(
                        f"message re-sent ({source} -> {destination}) while "
                        "still in flight; two receivers now alias one object"
                    ),
                )
            )
            return
        self._tracked[id(message)] = _Entry(
            obj=message,
            state=_State.IN_FLIGHT,
            channel=f"{source} -> {destination}",
            site=site,
            snapshot=_canon(message),
        )

    def on_deliver(self, destination: str, message: Any) -> None:
        """The bus is about to invoke the receiver's handler."""
        entry = self._tracked.pop(id(message), None)
        if entry is None or entry.state is not _State.IN_FLIGHT:
            return
        current = _canon(message)
        if current != entry.snapshot:
            self._record(
                Violation(
                    kind=MUTATE_AFTER_SEND,
                    obj_repr=_short(message),
                    channel=entry.channel,
                    send_site=entry.site,
                    detect_site=_call_site(),
                    diff=_diff(entry.snapshot, current),
                    detail=(
                        f"content changed between send and delivery to "
                        f"{destination!r}; the sender kept writing through "
                        "its reference"
                    ),
                )
            )

    def on_drop(self, message: Any) -> None:
        """The bus dropped the message (dead endpoint); stop tracking."""
        self._tracked.pop(id(message), None)

    # -- Ring hooks ------------------------------------------------------
    def on_enqueue(self, ring_name: str, descriptor: Any) -> None:
        if isinstance(descriptor, _UNTRACKED_TYPES):
            return
        self.handoffs += 1
        entry = self._tracked.get(id(descriptor))
        site = _call_site()
        if entry is not None and entry.state is _State.IN_RING:
            self._record(
                Violation(
                    kind=DOUBLE_ENQUEUE,
                    obj_repr=_short(descriptor),
                    channel=entry.channel,
                    send_site=entry.site,
                    detect_site=site,
                    diff=[],
                    detail=(
                        f"descriptor enqueued on {ring_name!r} while still "
                        f"queued on {entry.channel!r}; two consumers now "
                        "alias one descriptor"
                    ),
                )
            )
            return
        self._tracked[id(descriptor)] = _Entry(
            obj=descriptor,
            state=_State.IN_RING,
            channel=ring_name,
            site=site,
            snapshot=_canon(descriptor),
        )

    def on_dequeue(self, ring_name: str, descriptor: Any) -> None:
        if isinstance(descriptor, _UNTRACKED_TYPES):
            return
        entry = self._tracked.get(id(descriptor))
        if entry is None:
            return  # enqueued before the sanitizer was enabled
        site = _call_site()
        if entry.state is _State.CHECKED_OUT:
            self._record(
                Violation(
                    kind=USE_AFTER_DEQUEUE,
                    obj_repr=_short(descriptor),
                    channel=ring_name,
                    send_site=entry.site,
                    detect_site=site,
                    diff=[],
                    detail=(
                        "descriptor surfaced from a ring after ownership "
                        f"already moved to the consumer at {entry.site}; "
                        "a stale alias is circulating"
                    ),
                )
            )
            return
        if entry.state is _State.IN_RING:
            current = _canon(descriptor)
            if current != entry.snapshot:
                self._record(
                    Violation(
                        kind=MUTATE_AFTER_SEND,
                        obj_repr=_short(descriptor),
                        channel=entry.channel,
                        send_site=entry.site,
                        detect_site=site,
                        diff=_diff(entry.snapshot, current),
                        detail=(
                            "content changed while queued on "
                            f"{entry.channel!r}; the producer kept writing "
                            "through its reference"
                        ),
                    )
                )
        entry.state = _State.CHECKED_OUT
        entry.site = site
        entry.snapshot = None

    def on_clear(self, ring_name: str, descriptors: Iterable[Any]) -> None:
        """A ring dropped its contents; the descriptors become free."""
        for descriptor in descriptors:
            self._tracked.pop(id(descriptor), None)

    def release(self, descriptor: Any) -> None:
        """Explicitly mark a descriptor free (e.g. returned to a pool)."""
        self._tracked.pop(id(descriptor), None)

    # -- teardown --------------------------------------------------------
    def leaks(self) -> List[Leak]:
        """Descriptors still owned by a transport: enqueued or sent but
        never dequeued/delivered.  Checked-out objects are the
        consumer's responsibility and are not leaks."""
        out: List[Leak] = []
        for entry in self._tracked.values():
            if entry.state in (_State.IN_FLIGHT, _State.IN_RING):
                out.append(
                    Leak(
                        obj_repr=_short(entry.obj),
                        state=entry.state.value,
                        channel=entry.channel,
                        send_site=entry.site,
                    )
                )
        return out

    def leak_report(self) -> str:
        leaks = self.leaks()
        if not leaks:
            return "descriptor sanitizer: no leaked descriptors"
        header = f"descriptor sanitizer: {len(leaks)} leaked descriptor(s)\n"
        return header + "\n\n".join(leak.report() for leak in leaks)


# ---------------------------------------------------------------------------
# Global opt-in switch — the transports check ``active()`` on each handoff.
# ---------------------------------------------------------------------------
_ACTIVE: Optional[DescriptorSanitizer] = None


def enable(strict: bool = False) -> DescriptorSanitizer:
    """Install a fresh sanitizer as the process-wide active instance."""
    global _ACTIVE
    _ACTIVE = DescriptorSanitizer(strict=strict)
    return _ACTIVE


def disable() -> None:
    """Deactivate the sanitizer (tracking state is discarded)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[DescriptorSanitizer]:
    """The currently installed sanitizer, or None when disabled."""
    return _ACTIVE


@contextmanager
def sanitized(strict: bool = False) -> Iterator[DescriptorSanitizer]:
    """Run a block under a fresh sanitizer, restoring the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    san = DescriptorSanitizer(strict=strict)
    _ACTIVE = san
    try:
        yield san
    finally:
        _ACTIVE = previous
