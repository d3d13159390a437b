#!/usr/bin/env python3
"""IoT device on WiFi reaching the 5GC through an N3IWF (§2.2).

The device registers with EAP-AKA' over IKEv2, brings up an IPsec
child SA for its PDU session, and exchanges data — no licensed
spectrum or base station involved.

    python examples/non3gpp_access.py
"""

from repro.cp import FiveGCore, SystemConfig, scenario
from repro.net import Direction, FiveTuple, Packet, int_to_ip
from repro.sim import Environment


def main() -> None:
    env = Environment()
    core = FiveGCore(env, SystemConfig.l25gc())
    n3iwf = core.add_n3iwf(100)
    supi = "imsi-208930000042001"  # a WiFi sensor
    (_, result), (_, session) = scenario.run(core, {supi: [
        ("register_non3gpp", 100), ("establish_non3gpp", 1),
    ]})
    print(f"EAP-AKA' registration : {result.duration * 1e3:6.1f} ms "
          f"(signalling SA spi={result.detail['signalling_spi']:#x})")
    detail = session.detail
    print(f"PDU session over IPsec: {session.duration * 1e3:6.1f} ms "
          f"(child SA spi={detail['child_spi']:#x}, "
          f"IP {int_to_ip(detail['ue_ip'])})")

    # Downlink telemetry command to the sensor.
    core.inject_downlink(Packet(
        direction=Direction.DOWNLINK,
        size=120,
        flow=FiveTuple(src_ip=0x08080808, dst_ip=detail["ue_ip"],
                       src_port=8883, dst_port=40000),
        created_at=env.now,
    ))
    # Uplink reading from the sensor through the tunnel.
    core.inject_uplink(Packet(
        direction=Direction.UPLINK,
        size=90,
        teid=detail["ul_teid"],
        flow=FiveTuple(src_ip=detail["ue_ip"], dst_ip=0x08080808,
                       src_port=40000, dst_port=8883),
    ))
    env.run()
    received = core.ues[supi].received[0]
    print(f"downlink delivered    : {received.size} B on the wire "
          f"(ESP spi={received.meta['esp_spi']:#x}, "
          f"{received.latency * 1e3:.1f} ms over WiFi)")
    print(f"uplink at DN          : {len(core.dn_received)} packet(s)")
    print(f"N3IWF state           : {n3iwf}")


if __name__ == "__main__":
    main()
