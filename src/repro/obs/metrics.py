"""Metric primitives: counters, gauges, fixed-bucket histograms.

The paper's evaluation is built out of a handful of aggregate shapes —
monotonic tallies (messages delivered, packets dropped), point-in-time
levels (ring occupancy, buffered packets), and latency distributions
summarised as p50/p99/max.  This module provides exactly those three
primitives plus a :class:`MetricsRegistry` to collect them, so core /
cp / up / resiliency modules stop growing hand-rolled ledgers.

Everything here is plain arithmetic on plain Python objects: no
wall-clock reads, no simulation events, no I/O.  Recording a sample is
zero-cost in *sim time* by construction — only the caller's real CPU
pays.  Timestamps, where needed, are supplied by the caller from
``env.now``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]


#: Log-spaced bucket bounds (seconds) spanning 1 µs .. 10 s — wide
#: enough for everything from a shared-memory descriptor pass (~µs) to
#: a 3GPP re-attachment (~hundreds of ms).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    round(mantissa * 10.0 ** exponent, 12)
    for exponent in range(-6, 1)
    for mantissa in (1.0, 2.0, 5.0)
) + (10.0,)


class Counter:
    """A monotonically increasing tally.

    ``inc`` with a negative amount is rejected: anything that can go
    down is a :class:`Gauge`.  ``reset`` exists for harnesses that
    reuse one object across runs.
    """

    __slots__ = ("name", "description", "_value")

    kind = "counter"

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def inc(self, amount: int = 1) -> None:  # repro: noqa[W009] -- the named drop/outcome counters of ROADMAP item 6 count with it
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self._value += amount

    def reset(self) -> None:
        self._value = 0

    def to_dict(self) -> Dict[str, Union[str, int]]:
        return {"kind": self.kind, "value": self._value}

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """A level that can move both ways, or a live view over other state.

    A gauge either stores a value (``set`` / ``add``) or
    wraps a zero-argument callable (``set_function``) so existing
    attributes — ``len(ring)``, a dataclass field — can be exported
    without duplicating state.  The callable form is what lets legacy
    APIs stay *thin views* over the registry rather than second copies.
    """

    __slots__ = ("name", "description", "_value", "_fn")

    kind = "gauge"

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._value: float = 0
        self._fn: Optional[Callable[[], float]] = None

    @property
    def value(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self._value

    def set(self, value: float) -> None:
        self._fn = None
        self._value = value

    def add(self, delta: float) -> None:
        self._fn = None
        self._value += delta

    def set_function(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    def to_dict(self) -> Dict[str, Union[str, float]]:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """A fixed-bucket histogram with interpolated quantiles.

    Buckets are defined by their upper bounds; a final overflow bucket
    catches everything above the last bound.  ``quantile`` linearly
    interpolates inside the winning bucket, and — unlike
    ``traffic.measurement.percentile`` before this subsystem — returns
    ``nan`` on an empty histogram instead of raising, so empty
    measurement windows degrade gracefully.

    Exact ``min``/``max`` are tracked on the side so ``quantile(1.0)``
    and summary tables report true extremes, not bucket bounds.
    """

    __slots__ = ("name", "description", "_bounds", "_counts", "_count",
                 "_sum", "_min", "_max")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError(f"histogram {name}: need at least one bucket bound")
        self.name = name
        self.description = description
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- recording ----------------------------------------------------------
    def observe(self, value: float) -> None:
        self._counts[bisect_left(self._bounds, value)] += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def reset(self) -> None:
        self._counts = [0] * (len(self._bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- summary ------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else math.nan

    @property
    def min(self) -> float:
        return self._min if self._count else math.nan

    @property
    def max(self) -> float:
        return self._max if self._count else math.nan

    def quantile(self, fraction: float) -> float:
        """The value at ``fraction`` (0..1) of the distribution.

        Interpolates linearly within the bucket that contains the
        target rank; the extremes are clamped to the exact observed
        min/max.  Returns ``nan`` when no samples were observed.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        if self._count == 0:
            return math.nan
        if fraction == 0.0:
            return self._min
        if fraction == 1.0:
            return self._max
        target = fraction * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                low = self._bounds[index - 1] if index > 0 else 0.0
                high = (
                    self._bounds[index]
                    if index < len(self._bounds)
                    else self._max
                )
                # Every sample in this bucket also lies in [min, max],
                # so intersecting tightens the estimate for edge buckets.
                low = max(low, self._min)
                high = min(high, self._max)
                if high <= low or bucket_count == 1:
                    return high
                return low + (high - low) * (target - previous) / bucket_count
        return self._max

    def p50(self) -> float:
        return self.quantile(0.50)

    def p99(self) -> float:
        return self.quantile(0.99)

    def buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, count)`` pairs; the overflow bound is +inf."""
        out = list(zip(self._bounds, self._counts))
        out.append((math.inf, self._counts[-1]))
        return out

    def to_dict(self) -> Dict[str, Union[str, int, float]]:
        return {
            "kind": self.kind,
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50(),
            "p99": self.p99(),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self._count})"


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A flat, name-keyed collection of metrics.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking
    twice for the same name returns the same object, and asking for an
    existing name with a different kind raises — one name, one truth.
    """

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, factory: Callable[[], Metric]) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, description: str = "") -> Counter:
        metric = self._get_or_create(name, lambda: Counter(name, description))
        if not isinstance(metric, Counter):
            raise TypeError(f"{name} is a {metric.kind}, not a counter")
        return metric

    def gauge(self, name: str, description: str = "") -> Gauge:
        metric = self._get_or_create(name, lambda: Gauge(name, description))
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name} is a {metric.kind}, not a gauge")
        return metric

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        metric = self._get_or_create(
            name, lambda: Histogram(name, description, buckets)
        )
        if not isinstance(metric, Histogram):
            raise TypeError(f"{name} is a {metric.kind}, not a histogram")
        return metric

    def register(self, metric: Metric) -> Metric:
        """Adopt an externally constructed metric (e.g. the bus's own)."""
        existing = self._metrics.get(metric.name)
        if existing is not None and existing is not metric:
            raise ValueError(f"metric name already registered: {metric.name}")
        self._metrics[metric.name] = metric
        return metric

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def collect(self) -> Dict[str, Dict[str, Union[str, int, float]]]:
        """Snapshot every metric as plain dicts, sorted by name."""
        return {name: self._metrics[name].to_dict() for name in self.names()}

    def __iter__(self) -> Iterator[Metric]:
        for name in self.names():
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics
