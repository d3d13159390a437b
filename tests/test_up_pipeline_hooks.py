"""The UPF-U pipeline's instrumentation, pinned per outcome.

A packet through :meth:`UPFUserPlane.process` writes one ordered log:
every race-detector read and write (structure, part), every span the
tracer starts (name, parent, attributes) and every sink call.  The
expected logs are spelled out below, so a refactor of the
pipeline that moves, drops or adds a hook — or reorders one against a
sink call — fails here, while the outcome and the counters stay
pinned by the rest of the suite.
"""

import pytest

from repro.analysis import races
from repro.classifier import LinearClassifier
from repro.obs import spans
from repro.sim import Environment
from repro.up import (
    FAR,
    PDR,
    QerEnforcer,
    RuleDelta,
    SessionTable,
    UPFUserPlane,
    UsageCounter,
)

from .test_up_flow_cache import dl_packet, make_session, ul_packet


class _Detector(races.RaceDetector):
    def __init__(self, log):
        super().__init__()
        self.log = log

    def on_read(self, obj, part, detail=""):
        self.log.append(("read", type(obj).__name__, part))
        super().on_read(obj, part, detail)

    def on_write(self, obj, part, value=races._UNSET, detail=""):
        self.log.append(("write", type(obj).__name__, part))
        super().on_write(obj, part, value, detail)


class _Tracer(spans.Tracer):
    def __init__(self, env, log):
        super().__init__(env)
        self.log = log

    def start_span(self, name, category="span", parent=None, **attrs):
        span = super().start_span(name, category, parent, **attrs)
        parent_name = self.get(span.parent_id).name if span.parent_id else None
        self.log.append(("span", name, parent_name, dict(attrs)))
        return span


def _drop_pdr(session):
    session.apply(RuleDelta(removed_pdrs=(1,)))


def _dangling_far(session):
    session.apply(RuleDelta(removed_pdrs=(1,)))
    fresh = make_session(1, LinearClassifier).pdrs[1]
    session.apply(RuleDelta(pdrs=(
        PDR(ranges=fresh.ranges, priority=fresh.priority, rule_id=1,
            far_id=9, source_interface=fresh.source_interface),
    )))


def _buffer(session):
    session.apply(RuleDelta(far_updates=(
        FAR(far_id=2, forward=False, buffer=True, notify_cp=True),
    )))


def _gate_closed(session):
    session.apply(RuleDelta(qers=(QerEnforcer(qer_id=1, ul_gate_open=False),)))


def _report_every_byte(session):
    session.apply(RuleDelta(urrs=(
        UsageCounter(urr_id=1, volume_threshold_bytes=1),
    )))


def _run(case, flow_cache, warm=0):
    """Build the stack under both hooks, send ``warm`` packets of the
    case's flow, then log one more packet's pass."""
    setup, make_packet = case
    log = []
    env = Environment()
    detector = _Detector(log)
    tracer = _Tracer(env, log)
    saved = races._ACTIVE, spans._ACTIVE
    races._ACTIVE, spans._ACTIVE = detector, tracer
    try:
        table = SessionTable()
        upf = UPFUserPlane(env, table, flow_cache=flow_cache)
        upf.uplink_sink = lambda packet: log.append(("sink", "uplink"))
        upf.downlink_sink = lambda packet, teid, address: log.append(
            ("sink", "downlink", teid, address)
        )
        upf.notify_cp = lambda session: log.append(("sink", "notify_cp"))
        upf.usage_report_sink = lambda session, counter: log.append(
            ("sink", "usage_report", counter.urr_id)
        )
        with detector.role("upf-c"):
            session = make_session(1, LinearClassifier, qer=True, urr=True)
            table.add(session)
            setup(session)
        for _ in range(warm):
            upf.process(make_packet())
        del log[:]
        outcome = upf.process(make_packet())
    finally:
        races._ACTIVE, spans._ACTIVE = saved
    assert detector.violations == [], detector.report()
    pipeline = [s for s in tracer.spans if s.name == "upf-u.pipeline"][-1]
    assert pipeline.end == pytest.approx(env.now)
    assert pipeline.attrs["outcome"] == outcome
    return outcome, log


def _nothing(session):
    pass


CASES = {
    "forwarded-ul": (_report_every_byte, lambda: ul_packet(1)),
    "forwarded-dl": (_nothing, lambda: dl_packet(1)),
    "drop-no-session": (_nothing, lambda: ul_packet(7)),
    "drop-no-pdr": (_drop_pdr, lambda: ul_packet(1)),
    "drop-no-far": (_dangling_far, lambda: ul_packet(1)),
    "buffered": (_buffer, lambda: dl_packet(1)),
    "drop-qos": (_gate_closed, lambda: ul_packet(1)),
}

UL_SPAN = ("span", "upf-u.pipeline", None,
           {"direction": "uplink", "size": 100})
DL_SPAN = ("span", "upf-u.pipeline", None,
           {"direction": "downlink", "size": 100})
PROBE = ("read", "FlowCache", "entries")
FILL = ("write", "FlowCache", "entries")
SESSIONS = ("read", "SessionTable", "sessions")
PDRS = ("read", "UPFSession", "pdrs")
FARS = ("read", "UPFSession", "fars")
PUSH = ("write", "SmartBuffer", "packets")
REPORT = ("write", "UPFSession", "report_pending")


def _instant(name, **attrs):
    return ("span", name, "upf-u.pipeline", attrs)


def _applied(outcome, *before):
    return list(before) + [_instant("far-apply", outcome=outcome)]


#: What follows FAR resolution: the apply's hooks and sinks, then the
#: ``far-apply`` instant.  A hit runs the same apply.
APPLY = {
    "forwarded-ul": _applied(
        "forwarded-ul", ("sink", "usage_report", 1), ("sink", "uplink")
    ),
    "forwarded-dl": _applied(
        "forwarded-dl", ("sink", "downlink", 0x501, 0xC0A80201)
    ),
    "buffered": _applied("buffered", PUSH, REPORT, ("sink", "notify_cp")),
    "drop-qos": _applied("drop-qos"),
}


def _expected(outcome, span, flow_cache):
    """The log of a packet the cache does not answer: session lookup,
    classify, FAR resolution, fill, apply — each cut short where the
    outcome says the pipeline stops."""
    log = [span]
    if flow_cache:
        log += [PROBE, _instant("flow-cache", hit=False)]
    found = outcome != "drop-no-session"
    log += [SESSIONS, _instant("session-lookup", hit=found)]
    if not found:
        return log
    matched = outcome != "drop-no-pdr"
    log += [PDRS, _instant("pdr-match", matched=matched)]
    if not matched:
        return log
    log.append(FARS)
    if outcome == "drop-no-far":
        return log
    if flow_cache:
        log.append(FILL)
    return log + APPLY[outcome]


def _span(outcome):
    uplink = CASES[outcome][1]().direction.name == "UPLINK"
    return UL_SPAN if uplink else DL_SPAN


@pytest.mark.parametrize("flow_cache", [False, True], ids=["off", "miss"])
@pytest.mark.parametrize("outcome", sorted(CASES))
def test_uncached_packet_records_the_same_hooks(outcome, flow_cache):
    assert _run(CASES[outcome], flow_cache) == (
        outcome, _expected(outcome, _span(outcome), flow_cache)
    )


#: On a hit the buffering episode is already open: no second report.
HIT_APPLY = dict(APPLY, buffered=_applied("buffered", PUSH))


@pytest.mark.parametrize("outcome", sorted(APPLY))
def test_cache_hit_records_the_same_hooks(outcome):
    got = _run(CASES[outcome], flow_cache=True, warm=1)
    assert got == (
        outcome,
        [_span(outcome), PROBE, _instant("flow-cache", hit=True)]
        + HIT_APPLY[outcome],
    )
