"""Message-level inter-NF transports.

The control-plane procedures exchange typed messages over a
:class:`MessageBus`.  Each named endpoint (an NF) registers a handler.
A delivered message is one :class:`MessageRecord` and two timers:

* ``send`` builds the record (``sent_at`` = now) and schedules the
  arrival, due after the one-way cost of the configured channel
  (HTTP/JSON, UDP/PFCP, shared memory, SCTP...) from the
  :class:`~repro.core.costs.CostModel`;
* the arrival (``_deliver``) decides whether the endpoint is up, stamps
  ``delivered_at`` and schedules the receiver's handler-processing time
  (a dropped message discards the record and leaves a
  :class:`DropRecord`);
* the handler hop invokes the handler, logs the record — the object
  built at ``send``, nothing is copied — and fires the event the sender
  waits on *in place* (:meth:`~repro.sim.engine.Event.fire`): the sender
  resumes inside that hop, at the completion instant, ahead of anything
  else already queued for it.

No process and no heap-scheduled event is involved.

The bus keeps the last :attr:`MessageBus.LOG_CAPACITY` deliveries in
:attr:`MessageBus.log` and the last as many drops in
:attr:`MessageBus.drops` — bounded windows the experiment harnesses mine
for per-message latency (Figs 6, 7, 9) — beside exact counts of both
(:meth:`MessageBus.total_messages`, :attr:`MessageBus.lost`), so its
memory does not grow with the number of messages it has carried.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional

from ..analysis import sanitizer as _sanitizer
from ..obs import spans as _tracing
from ..obs.metrics import MetricsRegistry
from ..sim.engine import Environment, Event
from .costs import DEFAULT_COSTS, Channel, CostModel

__all__ = ["MessageRecord", "DropRecord", "MessageBus", "Endpoint"]


@dataclass
class MessageRecord:
    """One delivered control-plane message, for offline analysis."""

    # Built per message; the log retains the last LOG_CAPACITY of them.
    __slots__ = (
        "source", "destination", "name", "channel", "size", "sent_at",
        "delivered_at", "handler_time",
    )

    source: str
    destination: str
    name: str
    channel: Channel
    size: int
    sent_at: float
    delivered_at: float
    handler_time: float

    @property
    def transport_latency(self) -> float:
        """Time on the wire/stack, excluding the receiver's handler."""
        return self.delivered_at - self.sent_at

    @property
    def total_latency(self) -> float:
        """Transport plus handler — the paper's 'message latency'."""
        return self.transport_latency + self.handler_time


@dataclass
class DropRecord:
    """One message the bus could not deliver, with the reason why.

    ``reason`` is ``"unknown-endpoint"`` when nothing ever registered
    under the destination name and ``"endpoint-down"`` when a
    registered endpoint was marked dead (crashed NF) — failure-injection
    experiments need to tell these apart.
    """

    source: str
    destination: str
    name: str
    reason: str
    at: float


@dataclass
class Endpoint:
    """A registered message receiver."""

    name: str
    handler: Callable[[Any, "MessageBus"], Optional[float]]
    #: When False the endpoint silently discards messages (crashed NF).
    alive: bool = True


class MessageBus:
    """Delivers typed messages between named NF endpoints.

    Parameters
    ----------
    env:
        Simulation environment.
    costs:
        The cost model supplying per-channel latencies.
    default_channel:
        Channel used when ``send`` does not specify one; this is the
        single switch that turns a free5GC deployment (HTTP_JSON) into
        an L25GC one (SHARED_MEMORY).
    """

    #: Records retained in ``log`` and in ``drops``: the per-queue bound
    #: of the paper's LB packet log
    #: (:class:`~repro.resiliency.logger.PacketLogger`).
    LOG_CAPACITY = 4096

    def __init__(
        self,
        env: Environment,
        costs: CostModel = DEFAULT_COSTS,
        default_channel: Channel = Channel.HTTP_JSON,
    ):
        self.env = env
        self.costs = costs
        self.default_channel = default_channel
        self.endpoints: Dict[str, Endpoint] = {}
        #: The bus's ledger: the last ``LOG_CAPACITY`` records of each
        #: kind, and exact counts of all of them.  ``bus.delivered`` and
        #: ``bus.lost`` are callback gauges over the counts.
        self.log: Deque[MessageRecord] = deque(maxlen=self.LOG_CAPACITY)
        self.drops: Deque[DropRecord] = deque(maxlen=self.LOG_CAPACITY)
        self.delivered = 0
        #: Undelivered messages, including drops older than the window.
        self.lost = 0
        self.metrics = MetricsRegistry()
        self.metrics.gauge(
            "bus.delivered", "messages delivered to a live endpoint"
        ).set_function(lambda: self.delivered)
        self.metrics.gauge(
            "bus.lost", "messages the bus could not deliver"
        ).set_function(lambda: self.lost)
        self._latency = self.metrics.histogram(
            "bus.message_latency", "transport + handler latency (s)"
        )
        #: ``costs.message_cost(channel, size)`` by ``(channel value,
        #: size)``, filled on first use: a cost model does not change
        #: once built.
        self._one_way: Dict[tuple, float] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        handler: Callable[[Any, "MessageBus"], Optional[float]],
    ) -> Endpoint:
        """Register (or replace) the handler for endpoint ``name``.

        The handler receives ``(message, bus)`` and may return an extra
        processing time in seconds, added to the recorded handler time.
        """
        endpoint = Endpoint(name=name, handler=handler)
        self.endpoints[name] = endpoint
        return endpoint

    def set_alive(self, name: str, alive: bool) -> None:  # repro: noqa[W009] -- the kill(nf) seam ROADMAP items 4b and 7 drive
        """Mark an endpoint up or down (failure injection)."""
        if name not in self.endpoints:
            raise KeyError(f"unknown endpoint: {name}")
        self.endpoints[name].alive = alive

    # ------------------------------------------------------------------
    def send(
        self,
        source: str,
        destination: str,
        message: Any,
        channel: Optional[Channel] = None,
        size: int = 1024,
        handler_time: Optional[float] = None,
        name: Optional[str] = None,
        interface: Optional[str] = None,
    ) -> Event:
        """Send ``message``; the returned event fires when the receiver's
        handler has *completed* (transport + handler time elapsed).

        ``handler_time`` overrides the cost model's default
        ``handler_processing`` — procedures use this for heavyweight
        steps like authentication.  ``interface`` is a pure annotation
        (``"sbi"`` / ``"n4"`` / ``"ngap"``) recorded on the message's
        trace span for per-interface breakdowns; it does not affect
        delivery.
        """
        env = self.env
        channel = channel or self.default_channel
        # ``_value_`` is the member's plain string: hashing the member
        # itself runs ``Enum.__hash__`` in Python on every probe.
        key = (channel._value_, size)
        latency = self._one_way.get(key)
        if latency is None:
            latency = self._one_way[key] = self.costs.message_cost(channel, size)
        if handler_time is None:
            handler_time = self.costs.handler_processing
        now = env.now
        record = MessageRecord(
            source,
            destination,
            name or getattr(message, "name", type(message).__name__),
            channel,
            size,
            now,
            now,  # delivered_at: stamped at arrival
            handler_time,
        )
        done = Event(env)
        san = _sanitizer._ACTIVE
        if san is not None:
            san.on_send(source, destination, message)
        tracer = _tracing._ACTIVE
        span = None
        if tracer is not None:
            span = tracer.start_span(
                record.name,
                category="message",
                source=source,
                destination=destination,
                channel=channel.name.lower(),
                size=size,
                interface=interface or "",
            )
            tracer.attach(message, span)
        env.call_later(latency, self._deliver, record, message, done, span)
        return done

    def _drop(self, record: MessageRecord, reason: str) -> None:
        """The single drop path.  The message's own record never
        reaches the log; the :class:`DropRecord` is its account."""
        self.lost += 1
        self.drops.append(
            DropRecord(
                source=record.source,
                destination=record.destination,
                name=record.name,
                reason=reason,
                at=self.env.now,
            )
        )

    def _finish_span(self, span: Any, message: Any, **attrs: Any) -> None:
        span.end = self.env.now
        span.attrs.update(attrs)
        tracer = _tracing._ACTIVE
        if tracer is not None:
            tracer.detach(message)

    def _deliver(
        self, record: MessageRecord, message: Any, done: Event, span: Any
    ) -> None:
        """The message arrives: drop it, or start the handler hop."""
        endpoint = self.endpoints.get(record.destination)
        san = _sanitizer._ACTIVE
        if endpoint is None or not endpoint.alive:
            self._drop(
                record,
                "unknown-endpoint" if endpoint is None else "endpoint-down",
            )
            if san is not None:
                san.on_drop(message)
            if span is not None:
                self._finish_span(span, message, dropped=True)
            done.fire(None)
            return
        record.delivered_at = self.env.now
        if san is not None:
            san.on_deliver(record.destination, message)
        if record.handler_time > 0:
            self.env.call_later(
                record.handler_time, self._handle, endpoint, record, message,
                done, span,
            )
        else:
            self._handle(endpoint, record, message, done, span)

    def _handle(
        self,
        endpoint: Endpoint,
        record: MessageRecord,
        message: Any,
        done: Event,
        span: Any,
    ) -> None:
        """The handler time has elapsed: run the handler, then finish."""
        extra = endpoint.handler(message, self)
        if extra:
            record.handler_time += extra
            self.env.call_later(
                extra, self._complete, record, message, done, span
            )
        else:
            self._complete(record, message, done, span)

    def _complete(
        self, record: MessageRecord, message: Any, done: Event, span: Any
    ) -> None:
        """The last hop: log the record and resume the sender in place."""
        self._latency.observe(self.env.now - record.sent_at)
        self.delivered += 1
        self.log.append(record)
        if span is not None:
            self._emit_breakdown(span, record)
            self._finish_span(span, message)
        done.fire(message)

    def _emit_breakdown(self, span: Any, record: MessageRecord) -> None:
        """Attach the Fig 6 cost components as child spans, post hoc.

        The intervals are reconstructed from the :class:`CostModel`'s
        decomposition of the transport latency that already elapsed —
        no additional simulation events are created.
        """
        tracer = _tracing._ACTIVE
        if tracer is None:
            return
        sent_at, delivered_at = record.sent_at, record.delivered_at
        serialize = self.costs.serialize_cost(record.channel)
        deserialize = self.costs.deserialize_cost(record.channel)
        cursor = sent_at
        for part, width in (
            ("serialize", serialize),
            ("protocol", max(0.0, (delivered_at - sent_at) - serialize - deserialize)),
            ("deserialize", deserialize),
        ):
            tracer.add_span(
                part, start=cursor, end=min(cursor + width, delivered_at),
                category="cost", parent=span,
            )
            cursor += width
        if record.handler_time > 0:
            tracer.add_span(
                "handler",
                start=delivered_at,
                end=delivered_at + record.handler_time,
                category="cost",
                parent=span,
            )

    # ------------------------------------------------------------------
    def total_messages(self) -> int:
        """Every message delivered over the bus's life, not only the
        retained window."""
        return self.delivered
