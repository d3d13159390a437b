#!/usr/bin/env python3
"""Deployment demo (§4): per-shard UPF failover and a canary rollout.

A four-shard UPF-U serves 16 attached UEs.  One shard fails: its
sessions move to the survivors and every UE still receives downlink.
The shard recovers and gets back exactly the sessions it lost.  Then a
new UPF version takes a growing share of the NF manager's traffic.
The script exits non-zero if a downlink packet is lost after the
failure or the recovered shard does not get its sessions back.

    python examples/deployment_scaling.py
"""

from repro.core import NFManager, NFStatus, NetworkFunction
from repro.cp import FiveGCore, SystemConfig, scenario
from repro.net import Direction, FiveTuple, Packet
from repro.sim import Environment

UES = 16
SHARDS = 4


def shard_failover() -> None:
    print(f"--- per-shard failover: {UES} UEs on {SHARDS} UPF-U shards ---")
    env = Environment()
    core = FiveGCore(env, SystemConfig(upf_shards=SHARDS))
    supis = [f"imsi-2089300000{index:05d}" for index in range(UES)]
    scenario.run(core, {supi: scenario.ATTACH for supi in supis})
    upf_u = core.upf_u

    def seids_by_shard():
        return {shard.shard_id: {s.seid for s in shard.table.sessions()}
                for shard in upf_u.shards}

    before = seids_by_shard()
    print(f"sessions per shard        : "
          f"{[len(before[i]) for i in range(SHARDS)]}")
    victim = max(before, key=lambda shard_id: len(before[shard_id]))
    moved = upf_u.mark_failed(victim)
    print(f"shard {victim} failed            : {moved} sessions rehomed")

    received = {supi: len(core.ues[supi].received) for supi in supis}
    for supi in supis:
        core.inject_downlink(Packet(
            direction=Direction.DOWNLINK,
            flow=FiveTuple(src_ip=core.DN_ADDRESS,
                           dst_ip=core.smf.context_for(supi, 1).ue_ip,
                           src_port=443, dst_port=40000),
            created_at=env.now,
        ))
    env.run()
    delivered = sum(
        len(core.ues[supi].received) - received[supi] for supi in supis)
    print(f"downlink after failover   : {delivered} of {UES} forwarded")
    if delivered != UES:
        raise SystemExit(f"{UES - delivered} downlink packet(s) lost "
                         f"after shard {victim} failed")

    returned = upf_u.mark_recovered(victim)
    after = seids_by_shard()
    print(f"shard {victim} recovered         : {returned} sessions "
          f"returned, per shard {[len(after[i]) for i in range(SHARDS)]}")
    if after[victim] != before[victim] or returned != len(before[victim]):
        raise SystemExit(f"shard {victim} got back {sorted(after[victim])}, "
                         f"not its sessions {sorted(before[victim])}")


def canary_rollout() -> None:
    print("\n--- canary rollout of upf-u v2 ---")
    env = Environment()
    manager = NFManager(env)
    for instance_id, name in ((0, "upf-u"), (1, "upf-u-v2")):
        nf = NetworkFunction(env, name, service_id=2, instance_id=instance_id)
        manager.register(nf)
        nf.status = NFStatus.RUNNING
    for share in (0.0, 0.1, 0.5, 1.0):
        manager.set_canary_weights(2, {0: 1.0 - share, 1: share})
        hits = sum(
            1 for _ in range(1000)
            if manager.lookup(2).instance_id == 1
        )
        print(f"canary share {share:4.0%}         : "
              f"{hits / 10:.1f}% of traffic to v2")


if __name__ == "__main__":
    shard_failover()
    canary_rollout()
