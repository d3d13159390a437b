#!/usr/bin/env python3
"""Quickstart: bring up an L25GC core, attach a UE, and push packets.

Runs the full UE lifecycle — registration, PDU session establishment,
uplink/downlink traffic, idle transition, paging — on the simulated
shared-memory core, and prints what happened at each step.  Each step
is a scenario (:mod:`repro.cp.scenario`): the UE's operations as data.

    python examples/quickstart.py

Set ``REPRO_TRACE=/path/to/trace.json`` to run the same scenario under
:mod:`repro.obs` tracing and write a Chrome-trace file you can open in
``chrome://tracing`` or https://ui.perfetto.dev (CI's obs smoke job
does exactly this).
"""

import os

from repro import obs
from repro.cp import FiveGCore, SystemConfig, scenario
from repro.net import Direction, FiveTuple, Packet, int_to_ip
from repro.sim import Environment

SUPI = "imsi-208930000000003"


def main() -> None:
    env = Environment()
    core = FiveGCore(env, SystemConfig.l25gc())
    trace_path = os.environ.get("REPRO_TRACE")
    tracer = obs.enable(env) if trace_path else None
    try:
        # 1. Register the UE (authentication, security mode, policy),
        # 2. then establish a PDU session; the UPF installs UL/DL rules.
        (_, result), (_, session) = scenario.run(
            core, {SUPI: [("register", 1), ("establish", 1)]})
        print(f"registration  : {result.duration * 1e3:7.1f} ms "
              f"({result.messages} control messages)")
        ue_ip = session.detail["ue_ip"]
        print(f"pdu session   : {session.duration * 1e3:7.1f} ms "
              f"(UE IP {int_to_ip(ue_ip)}, UL TEID "
              f"{session.detail['ul_teid']:#x})")

        # 3. Uplink + downlink user traffic through the UPF.
        core.inject_uplink(Packet(
            direction=Direction.UPLINK,
            teid=session.detail["ul_teid"],
            flow=FiveTuple(src_ip=ue_ip, dst_ip=0x08080808,
                           src_port=40000, dst_port=443),
        ))
        core.inject_downlink(Packet(
            direction=Direction.DOWNLINK,
            flow=FiveTuple(src_ip=0x08080808, dst_ip=ue_ip,
                           src_port=443, dst_port=40000),
            created_at=env.now,
        ))
        env.run()
        print(f"data plane    : {core.upf_u.stats.forwarded} packets "
              f"forwarded (UL {core.upf_u.stats.forwarded_ul}, "
              f"DL {core.upf_u.stats.forwarded_dl})")

        # 4. Idle transition, then a downlink packet's data report
        # pages the UE back.
        scenario.run(core, {SUPI: [("idle",)]})
        print(f"ue state      : {core.ues[SUPI].cm_state.value}")
        [(_, result)] = scenario.run(
            core, {SUPI: [("downlink", 1000, 0.001), ("report",), ("page",)]})
        print(f"paging        : {result.duration * 1e3:7.1f} ms "
              f"-> {core.ues[SUPI].cm_state.value}")
    finally:
        if tracer is not None:
            obs.disable()
    print(f"total messages: {core.bus.total_messages()} over "
          f"{core.config.sbi_channel.value}")
    if tracer is not None:
        doc = obs.write_chrome_trace(trace_path, tracer,
                                     process_name="quickstart")
        print(f"trace         : {trace_path} "
              f"({len(doc['traceEvents'])} events)")


if __name__ == "__main__":
    main()
