"""Derive the paper's latency breakdowns from a span tree.

Fig 6 splits one SBI message exchange into serialize / protocol
traversal / deserialize; Fig 8 splits a UE event across interfaces
(SBI, N4, NGAP, radio).  With tracing on, both decompositions are
queries over one trace instead of per-experiment bookkeeping:

* every ``category="message"`` span carries ``channel``/``interface``
  attrs and child cost-component spans named ``serialize`` /
  ``protocol`` / ``deserialize`` / ``handler`` (emitted post-hoc by
  ``MessageBus`` from the :class:`~repro.core.costs.CostModel`, no
  extra simulation events), and
* every procedure root span covers exactly one 3GPP event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .spans import Span, Tracer

__all__ = [
    "MessageBreakdown",
    "message_breakdowns",
    "interface_breakdown",
    "COST_COMPONENTS",
]

#: Child-span names a message span decomposes into (Fig 6 components
#: plus the receiver's handler time).
COST_COMPONENTS = ("serialize", "protocol", "deserialize", "handler")


@dataclass
class MessageBreakdown:
    """One message span resolved into its cost components (seconds)."""

    name: str
    source: str
    destination: str
    channel: str
    interface: str
    start: float
    total: float
    components: Dict[str, float] = field(default_factory=dict)


def message_breakdowns(
    tracer: Tracer,
    within: Optional[Span] = None,
    name: Optional[str] = None,
) -> List[MessageBreakdown]:
    """Every (finished) message span as a :class:`MessageBreakdown`."""
    out: List[MessageBreakdown] = []
    for span in tracer.find(category="message", within=within):
        if not span.finished:
            continue
        if name is not None and span.name != name:
            continue
        components = {
            child.name: child.duration
            for child in tracer.children(span)
            if child.name in COST_COMPONENTS
        }
        out.append(
            MessageBreakdown(
                name=span.name,
                source=str(span.attrs.get("source", "")),
                destination=str(span.attrs.get("destination", "")),
                channel=str(span.attrs.get("channel", "")),
                interface=str(span.attrs.get("interface", "")),
                start=span.start,
                total=span.duration,
                components=components,
            )
        )
    return out


def interface_breakdown(
    tracer: Tracer, root: Span
) -> Dict[str, float]:
    """Wall time of one procedure bucketed by interface (Fig 8 style).

    Message spans under ``root`` are summed per ``interface`` attr
    (``sbi`` / ``n4`` / ``ngap``), radio legs per their own category,
    and whatever the components do not cover is reported as ``other``
    (NF processing gaps, ring waits already inside message time, etc.).
    Buckets are sim-time sums of span durations, so overlapping
    messages (pipelined exchanges) can legitimately sum past the
    procedure duration; ``other`` is clamped at zero.
    """
    totals: Dict[str, float] = {}
    for span in tracer.find(category="message", within=root):
        bucket = str(span.attrs.get("interface") or "unknown")
        totals[bucket] = totals.get(bucket, 0.0) + span.duration
    for span in tracer.find(category="radio", within=root):
        totals["radio"] = totals.get("radio", 0.0) + span.duration
    accounted = sum(totals.values())
    totals["other"] = max(0.0, root.duration - accounted)
    totals["total"] = root.duration
    return totals
