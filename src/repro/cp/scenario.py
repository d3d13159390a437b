"""Scenarios as data: each UE's operations, run through the procedures.

A scenario maps a SUPI to the operations that UE performs, in order.
An operation is a plain tuple whose first element names it; the rest
are its arguments:

=================================  ====================================
``("register", gnb_id)``           :meth:`ProcedureRunner.register_ue`
``("register_non3gpp", n3iwf)``    ``register_ue_non3gpp``
``("establish", pdu_session)``     ``establish_session``
``("establish_non3gpp", pdu)``     ``establish_session_non3gpp``
``("handover", target_gnb)``       ``handover`` (N2)
``("xn_handover", target_gnb)``    ``xn_handover``
``("idle",)``                      ``release_to_idle``
``("page",)``                      ``page_ue``
``("deregister",)``                ``deregister_ue``
``("report",)``                    wait for the UE's downlink data
                                   report to reach the SMF (through
                                   ``core.on_report``, which it sets)
``("wait", seconds)``              a sim-clock delay
``("downlink", rate_pps, secs)``   start constant-rate DL traffic from
                                   the DN towards PDU session 1 and
                                   go on at once
=================================  ====================================

The arguments are str/int/float, so ``json.loads(json.dumps(s))``
gives back a scenario that :func:`run` accepts.  Each UE's operations
run in one process, every UE concurrently from the current instant;
:func:`run` returns when the simulation drains.  Building the core
(config, radio latency, N3IWF, admission limits) stays with the
caller, as does reading the data plane afterwards.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

from ..net.packet import FiveTuple
from ..traffic.generator import ConstantRateGenerator
from .core5g import FiveGCore
from .procedures import EventResult, ProcedureRunner

__all__ = ["ATTACH", "PROCEDURES", "UE_LIFECYCLE", "run"]

#: Operation -> (runner method, the keyword its one argument binds).
#: Arguments go by keyword so a traced span records them as the
#: hand-written calls did.
PROCEDURES = {
    "register": ("register_ue", "gnb_id"),
    "register_non3gpp": ("register_ue_non3gpp", "n3iwf_id"),
    "establish": ("establish_session", "pdu_session_id"),
    "establish_non3gpp": ("establish_session_non3gpp", "pdu_session_id"),
    "handover": ("handover", "target_gnb_id"),
    "xn_handover": ("xn_handover", "target_gnb_id"),
    "idle": ("release_to_idle", "pdu_session_id"),
    "page": ("page_ue", "pdu_session_id"),
    "deregister": ("deregister_ue", None),
}

_OTHER = {"report", "wait", "downlink"}

#: Registration on gNB 1, then PDU session 1.
ATTACH = (("register", 1), ("establish", 1))

#: Fig 8's UE lifecycle: attach, N2 handover, then idle and paging.
UE_LIFECYCLE = (*ATTACH, ("handover", 2), ("idle",), ("page",))


def run(
    core: FiveGCore, scenario: Mapping[str, Sequence[Sequence]]
) -> List[Tuple[str, EventResult]]:
    """Run every UE's operations; ``(supi, result)`` in completion order.

    A UE not yet in ``core.ues`` is added.  Raises ``ValueError`` on an
    unknown operation before anything runs, and ``RuntimeError`` if a
    UE's operations have not all completed when the simulation drains.
    """
    for ops in scenario.values():
        for op in ops:
            if op[0] not in PROCEDURES and op[0] not in _OTHER:
                raise ValueError(f"unknown operation {op[0]!r}")
    env = core.env
    runner = ProcedureRunner(core)
    results: List[Tuple[str, EventResult]] = []
    unfinished = set(scenario)
    reports = {}  # SEID -> the event a "report" operation waits on

    def on_report(report) -> None:
        waiting = reports.pop(report.seid, None)
        if waiting is not None:
            waiting.succeed()

    def drive(supi, ue, ops):
        for name, *args in ops:
            if name in PROCEDURES:
                method, keyword = PROCEDURES[name]
                result = yield from getattr(runner, method)(
                    ue, **dict(zip((keyword,), args)))
                results.append((supi, result))
            elif name == "wait":
                yield env.timeout(*args)
            elif name == "downlink":
                rate_pps, duration = args
                ConstantRateGenerator(
                    env,
                    sink=core.inject_downlink,
                    rate_pps=rate_pps,
                    duration=duration,
                    flow=FiveTuple(
                        src_ip=core.DN_ADDRESS,
                        dst_ip=core.smf.context_for(supi, 1).ue_ip,
                        src_port=80,
                        dst_port=40000,
                    ),
                )
            else:  # "report"
                core.on_report = on_report
                waiting = reports[core.smf.context_for(supi, 1).seid] = (
                    env.event())
                yield waiting
        unfinished.discard(supi)

    for supi, ops in scenario.items():
        ue = core.ues.get(supi) or core.add_ue(supi)
        env.process(drive(supi, ue, ops))
    env.run()
    if unfinished:
        raise RuntimeError(
            f"operations did not complete for {sorted(unfinished)}")
    return results
