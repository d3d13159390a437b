"""Per-layer probes: host time of each layer's public functions.

Every probe times calls into one public function of one package, from
outside, in a tight loop over inputs drawn from the workload's own
generator (its first 256 sessions and a packet sample in its traffic
mix).  A probe is repeated ``repeats`` times and reports the 10th
percentile of the per-call times; packets are reset between repeats,
outside the clock, because the pipeline rewrites their tunnel id.

The probes build their own small fixtures, so their values are defined
on every workload: they say what one call costs on inputs of that
workload's shape, and the end-to-end numbers say how often it is paid.
"""

from __future__ import annotations

import gc

from repro.classifier.classbench import ClassBenchGenerator
from repro.classifier.partition_sort import PartitionSortClassifier
from repro.core.costs import DEFAULT_COSTS, Channel
from repro.core.manager import NFManager
from repro.core.nf import NetworkFunction, NFStatus
from repro.core.pool import SharedMemoryPool
from repro.core.rings import Ring
from repro.core.transport import MessageBus
from repro.cp.core5g import FiveGCore, SystemConfig
from repro.cp.procedures import ProcedureRunner
from repro.deploy.sharded import ShardedUserPlane
from repro.net.packet import Direction
from repro.pfcp.builder import build_path_switch, build_session_establishment
from repro.pfcp.messages import SessionDeletionRequest, decode_message
from repro.ran.gnb import GNodeB
from repro.ran.ue import UserEquipment
from repro.sbi import messages as sbi
from repro.sim.engine import Environment
from repro.traffic.generator import ConstantRateGenerator
from repro.up import SessionTable, UPFControlPlane, UPFSession, UPFUserPlane
from repro.up.buffer import SmartBuffer
from repro.up.flow_cache import FlowCache
from repro.up.qos import QerEnforcer, TokenBucket, UsageCounter
from repro.up.session import packet_key, packet_keys

from drivers import GNB_ADDRESS, install_sessions, run_wave
from hostspeed import clock_ns, host_speed, p10, reference_samples
from workloads import Generator

__all__ = ["probe_layers"]

SESSIONS = 256
SAMPLE = 512
BATCH = 32
WAVE = 8
#: Ids and addresses of sessions the probes add and remove; disjoint
#: from anything the generator hands out.
PROBE_ID = 1 << 20
PROBE_IP = 0x0B000000


class Probes:
    """Collects ``name -> p10 time per call`` over repeated timed runs."""

    def __init__(self, repeats: int):
        self.repeats = repeats
        self.results: dict = {}

    def time(self, name, calls, run, reset=None, unit_ns=1.0):
        """``run()`` makes ``calls`` calls; ``reset()`` is untimed."""
        samples = []
        for _ in range(self.repeats):
            if reset is not None:
                reset()
            start = clock_ns()
            run()
            samples.append((clock_ns() - start) / calls)
        self.results[name] = p10(samples) / unit_ns


class Fixture:
    """A UPF holding the workload's first sessions, and a packet sample."""

    def __init__(self, gen: Generator):
        config = gen.spec["config"]
        self.env = Environment()
        self.table = SessionTable()
        self.upf = UPFUserPlane(
            self.env, self.table,
            flow_cache=config.get("flow_cache", False),
            burst_size=config.get("burst_size", 1),
        )
        self.upf_c = UPFControlPlane(self.table, upf_u=self.upf)
        self.refs = install_sessions(self.upf_c, gen, SESSIONS)
        gen.bind(self.refs)
        self.packets, _ = gen.packets(SAMPLE)
        self.teids = [packet.teid for packet in self.packets]

    def reset(self) -> None:
        for packet, teid in zip(self.packets, self.teids):
            packet.teid = teid


def probe_layers(name: str, seed: int, scale: float, repeats: int) -> dict:
    """All per-layer timings (and the modeled sim times) of one workload."""
    gen = Generator(name, seed, scale)
    probes = Probes(repeats)
    gc.collect()
    gc.disable()
    try:
        reference = reference_samples()
        fixture = Fixture(gen)
        _probe_up(probes, fixture)
        _probe_n4_and_pfcp(probes, fixture)
        _probe_classifier(probes, seed)
        _probe_deploy(probes, fixture)
        _probe_core(probes, fixture)
        _probe_sim_ran_traffic(probes, fixture)
        sim_ms = _probe_cp(probes)
        reference += reference_samples()
    finally:
        gc.enable()
    speed = host_speed(reference)
    return {
        **{name: value * speed for name, value in probes.results.items()},
        **sim_ms,
    }


# ---------------------------------------------------------------------------
def _probe_up(probes: Probes, fx: Fixture) -> None:
    packets, upf, table = fx.packets, fx.upf, fx.table
    count = len(packets)

    def key_build():
        for packet in packets:
            packet_key(packet)

    probes.time("up.key_build_ns", count, key_build)
    probes.time("up.key_build_many_ns", count, lambda: packet_keys(packets))

    keys = packet_keys(packets)
    store = table.hot_store
    lookups = [
        (store.by_teid, packet.teid)
        if packet.direction is Direction.UPLINK
        else (store.by_ue_ip, packet.flow.dst_ip)
        for packet in packets
    ]

    def slab_resolve():
        for lookup, key in lookups:
            lookup(key)

    probes.time("up.slab_resolve_ns", count, slab_resolve)

    hots = [lookup(key) for lookup, key in lookups]

    def classify():
        for hot, packet, key in zip(hots, packets, keys):
            hot.match_pdr(packet, key)

    probes.time("up.pdr_classify_ns", count, classify)

    # Flow cache: every sampled key resident, then probed; inserts go to
    # a full cache so each one evicts.
    cache = FlowCache(table.epoch, capacity=8192)
    for hot, packet, key in zip(hots, packets, keys):
        pdr = hot.match_pdr(packet, key)
        cache.insert(key, hot, pdr, hot.fars[pdr.far_id])

    def probe():
        lookup = cache.lookup
        for key in keys:
            lookup(key)

    probes.time("up.cache_probe_ns", count, probe)
    bursts = [keys[begin:begin + BATCH] for begin in range(0, count, BATCH)]

    def probe_many():
        for burst in bursts:
            cache.lookup_many(burst)

    probes.time("up.cache_probe_many_ns", count, probe_many)

    full = FlowCache(table.epoch, capacity=SESSIONS)
    hot, pdr = hots[0], hots[0].match_pdr(packets[0], keys[0])
    far = hot.fars[pdr.far_id]
    serial = iter(range(1 << 60))
    unseen = []

    def new_keys():
        unseen[:] = [(next(serial),) + key[1:] for key in keys]

    def insert():
        for key in unseen:
            full.insert(key, hot, pdr, far)

    probes.time("up.cache_insert_ns", count, insert, new_keys)

    # The pipeline itself, sinks null, in the workload's cache/burst mode.
    def process():
        run = upf.process
        for packet in packets:
            run(packet)

    process()
    probes.time("up.process_ns", count, process, fx.reset)
    for size in (1, 4, 32):
        groups = [packets[b:b + size] for b in range(0, count, size)]

        def burst(groups=groups):
            run = upf.process_burst
            for group in groups:
                run(group)

        probes.time(f"up.burst{size}_ns", count, burst, fx.reset)
    fx.reset()

    enforcer = QerEnforcer(
        qer_id=1, ul_bucket=TokenBucket(1e15), dl_bucket=TokenBucket(1e15)
    )

    def admit():
        for packet in packets:
            enforcer.admit(packet, 0.0)

    probes.time("up.qer_admit_ns", count, admit)
    counter = UsageCounter(urr_id=1, volume_threshold_bytes=1 << 60)

    def account():
        for packet in packets:
            counter.account(packet)

    probes.time("up.urr_account_ns", count, account)

    buffer = SmartBuffer(capacity=count)

    def push():
        for packet in packets:
            buffer.push(packet)

    probes.time("up.buffer_push_ns", count, push, buffer.drain)

    session = table.by_seid(fx.refs[0].seid)
    held = packets[:SESSIONS]

    def fill():
        for packet in held:
            session.buffer.push(packet)

    probes.time(
        "up.flush_pkt_ns", len(held), lambda: upf.flush_session(session), fill
    )
    fx.reset()


def _probe_n4_and_pfcp(probes: Probes, fx: Fixture) -> None:
    upf_c = fx.upf_c
    establishments = [
        build_session_establishment(
            seid=PROBE_ID + i, sequence=i, ue_ip=PROBE_IP + i,
            upf_address=upf_c.address, ul_teid=PROBE_ID + i,
            gnb_address=GNB_ADDRESS, dl_teid=PROBE_ID + i,
        )
        for i in range(BATCH)
    ]

    def remove():
        for i in range(BATCH):
            upf_c.handle(SessionDeletionRequest(seid=PROBE_ID + i, sequence=i))

    def establish():
        for message in establishments:
            upf_c.handle(message)

    probes.time("up.n4_establish_us", BATCH, establish, remove, unit_ns=1e3)
    remove()
    # A modification that re-points the DL tunnel and flushes nothing.
    switches = [
        build_path_switch(ref.seid, i, GNB_ADDRESS, ref.dl_teid)
        for i, ref in enumerate(fx.refs[:BATCH])
    ]

    def modify():
        for message in switches:
            upf_c.handle(message)

    probes.time("up.n4_modify_us", BATCH, modify, unit_ns=1e3)

    def encode():
        for message in establishments:
            message.encode()

    probes.time("pfcp.encode_us", BATCH, encode, unit_ns=1e3)
    wire = [message.encode() for message in establishments]

    # Off every end-to-end path today: the cores hand PFCP objects over.
    def decode():
        for data in wire:
            decode_message(data)

    probes.time("pfcp.decode_us", BATCH, decode, unit_ns=1e3)


def _probe_classifier(probes: Probes, seed: int) -> None:
    bench = ClassBenchGenerator(seed=seed)
    rules = bench.rules(64)
    keys = bench.matching_keys(rules, SAMPLE)

    def build():
        classifier = PartitionSortClassifier()
        for rule in rules:
            classifier.insert(rule)
        return classifier

    probes.time("classifier.insert_us", len(rules), build, unit_ns=1e3)
    classifier = build()

    def lookup():
        find = classifier.lookup
        for key in keys:
            find(key)

    probes.time("classifier.lookup_ns", len(keys), lookup)


def _probe_deploy(probes: Probes, fx: Fixture) -> None:
    packets = fx.packets
    count = len(packets)
    plane = ShardedUserPlane(Environment(), 4)
    shard_for_packet = plane.router.shard_for_packet

    def dispatch():
        for packet in packets:
            shard_for_packet(packet)

    probes.time("deploy.rss_dispatch_ns", count, dispatch)

    # Scatter/gather alone: the shards' pipelines answer from a stub.
    for shard in plane.shards:
        shard.upf_u.process_burst = lambda burst: [None] * len(burst)
    bursts = [packets[b:b + BATCH] for b in range(0, count, BATCH)]

    def scatter_gather():
        for burst in bursts:
            plane.process_burst(burst)

    probes.time("deploy.scatter_gather_ns", count, scatter_gather)
    probes.results["deploy.scatter_gather_ns"] -= probes.results[
        "deploy.rss_dispatch_ns"
    ]

    table, router = plane.sessions, plane.router
    sessions = [
        UPFSession(
            PROBE_ID + i, PROBE_IP + i,
            router.steer_teid(PROBE_IP + i, PROBE_ID + i),
        )
        for i in range(BATCH)
    ]

    def remove():
        for session in sessions:
            table.remove(session.seid)

    def add():
        for session in sessions:
            table.add(session)

    probes.time("deploy.table_add_us", BATCH, add, remove, unit_ns=1e3)


def _probe_core(probes: Probes, fx: Fixture) -> None:
    packets = fx.packets[:BATCH]
    pool = SharedMemoryPool(64)

    def alloc_free():
        for packet in packets:
            pool.alloc(packet).free()

    probes.time("core.pool_alloc_free_ns", BATCH, alloc_free)

    ring = Ring(64)
    descriptors = [pool.alloc(packet) for packet in packets]
    probes.time(
        "core.ring_enq_ns", BATCH,
        lambda: ring.enqueue_burst(descriptors), ring.clear,
    )
    ring.clear()
    probes.time(
        "core.ring_deq_ns", BATCH,
        lambda: ring.dequeue_burst(BATCH),
        lambda: ring.enqueue_burst(descriptors),
    )

    env = Environment()
    manager = NFManager(env, pool_size=64)
    nf = NetworkFunction(env, "probe", service_id=7)
    manager.register(nf)
    nf.status = NFStatus.RUNNING

    def inject():
        for packet in packets:
            manager.inject(packet, 7)

    def drain():
        for descriptor in nf.rx_ring.dequeue_burst(BATCH):
            descriptor.free()

    probes.time("core.manager_inject_ns", BATCH, inject, drain)

    bus = MessageBus(env, DEFAULT_COSTS, default_channel=Channel.SHARED_MEMORY)
    bus.register("a", lambda message, bus: None)
    bus.register("b", lambda message, bus: None)
    message = sbi.UpdateSmContextRequest()

    def send():
        for _ in range(BATCH):
            bus.send("a", "b", message, interface="sbi")
        env.run()

    probes.time("core.bus_send_us", BATCH, send, unit_ns=1e3)


def _probe_sim_ran_traffic(probes: Probes, fx: Fixture) -> None:
    packets = fx.packets
    count = len(packets)
    env = Environment()

    def schedule():
        for index in range(count):
            env.timeout(index * 1e-6)

    probes.time("sim.step_ns", count, env.run, schedule)

    gnb = GNodeB(env, gnb_id=1, address=GNB_ADDRESS)
    ue = UserEquipment()
    gnb.connect(ue)

    def deliver():
        receive = gnb.receive_downlink
        for packet in packets:
            receive(packet, ue)
        env.run()

    probes.time("ran.gnb_deliver_ns", count, deliver, ue.received.clear)

    flow = packets[0].flow

    def source():
        ConstantRateGenerator(
            env, sink=lambda packet: None, rate_pps=1e6, flow=flow,
            duration=count * 1e-6,
        )

    probes.time("traffic.gen_ns", count, env.run, source)


def _probe_cp(probes: Probes) -> dict:
    env = Environment()
    core = FiveGCore(env, SystemConfig.l25gc())
    runner = ProcedureRunner(core)
    request, response = sbi.UpdateSmContextRequest(), sbi.UpdateSmContextResponse()

    def wave(procedures):
        return run_wave(env, procedures)

    probes.time(
        "cp.sbi_exchange_us", BATCH,
        lambda: wave(
            core.sbi_exchange("amf", "smf", request, response)
            for _ in range(BATCH)
        ),
        unit_ns=1e3,
    )

    # Waves of 8 concurrent UEs, one procedure type per wave, run to
    # quiescence; host time per procedure.  The sim-clock durations are
    # modeled (cost-model) times and must not move with host speed.
    serial = iter(range(1 << 30))
    state = {}
    durations = {"cp.reg_sim_ms": set(), "cp.pdu_sim_ms": set(), "cp.ho_sim_ms": set()}

    def new_ues():
        state["ues"] = [
            core.add_ue(f"imsi-20899{next(serial):010d}") for _ in range(WAVE)
        ]

    def timed(metric, sim_metric, procedure):
        def run():
            results = wave(procedure(ue) for ue in state["ues"])
            durations[sim_metric].update(
                round(result.duration * 1e3, 9) for result in results
            )
        return metric, run

    steps = [
        timed("cp.reg_us", "cp.reg_sim_ms", lambda ue: runner.register_ue(ue, 1)),
        timed("cp.pdu_us", "cp.pdu_sim_ms", runner.establish_session),
        timed("cp.ho_us", "cp.ho_sim_ms", lambda ue: runner.handover(ue, 2)),
    ]
    samples = {metric: [] for metric, _ in steps}
    for _ in range(probes.repeats):
        new_ues()
        for metric, run in steps:
            start = clock_ns()
            run()
            samples[metric].append((clock_ns() - start) / WAVE / 1e3)
    for metric, values in samples.items():
        probes.results[metric] = p10(values)

    sessions = [
        core.smf.context_for(ue.supi, 1) for ue in state["ues"]
    ]
    switches = [
        build_path_switch(sm.seid, i, sm.gnb_address, sm.dl_teid)
        for i, sm in enumerate(sessions)
    ]
    probes.time(
        "cp.n4_exchange_us", len(switches),
        lambda: wave(core.n4_exchange(message) for message in switches),
        unit_ns=1e3,
    )
    # One value per procedure type, or the model is not deterministic:
    # NaN makes the run incorrect.
    return {
        metric: values.pop() if len(values) == 1 else float("nan")
        for metric, values in durations.items()
    }
