"""One driver per workload: build the real composition, run a slice, check it.

A driver's constructor is the workload's set-up (build the core, attach
UEs through the real procedures or install sessions over N4).  After
that the harness calls ``prepare`` (inputs for one slice, made before
the clock starts), ``run`` (the timed part: only calls into the
program) and ``verify`` (untimed; returns how many operations the
slice attempted and how many of them had a wrong or missing result).

Traffic is in-process: it crosses neither a real link nor loopback.
"""

from __future__ import annotations

from repro.core.manager import NFManager
from repro.cp.core5g import FiveGCore, SystemConfig
from repro.cp.procedures import EventResult, ProcedureRunner
from repro.net.addresses import ip_to_int
from repro.pfcp.builder import build_session_establishment
from repro.sim.engine import Environment
from repro.traffic.generator import ConstantRateGenerator
from repro.up import SessionTable, UPFControlPlane, UPFUserPlane

from hostspeed import clock_ns
from spans import Proxy
from workloads import SessionRef

__all__ = ["DRIVERS", "install_sessions", "run_wave"]

GNB_ADDRESS = ip_to_int("192.168.2.1")
UPF_SERVICE_ID = 2
#: Sim time one env.run() advances while platform_ring waits for the NF.
POLL_QUANTUM_S = 25e-6


def install_sessions(upf_c, gen, count: int) -> list:
    """``count`` sessions over N4 only (no RAN, no SMF context)."""
    refs = []
    for index, ue_ip in enumerate(gen.ue_addresses(count)):
        ref = SessionRef(
            seid=index + 1,
            ue_ip=ue_ip,
            ul_teid=upf_c.allocate_teid(ue_ip=ue_ip),
            dl_teid=0x100000 + index,
        )
        upf_c.handle(build_session_establishment(
            seid=ref.seid,
            sequence=index + 1,
            ue_ip=ue_ip,
            upf_address=upf_c.address,
            ul_teid=ref.ul_teid,
            gnb_address=GNB_ADDRESS,
            dl_teid=ref.dl_teid,
        ))
        refs.append(ref)
    return refs


def misdelivered(packets, refs, outcomes=None, stamped=False) -> int:
    """Packets whose outcome label, tunnel or delivery stamp is wrong.

    ``stamped`` is for paths whose last hop stamps ``delivered_at``.
    """
    failed = 0
    for index, (packet, ref) in enumerate(zip(packets, refs)):
        if (
            packet.teid != ref.teid_after
            or (outcomes is not None and outcomes[index] != ref.outcome)
            or (stamped and packet.delivered_at is None)
        ):
            failed += 1
    return failed


def spawn(env, procedures) -> list:
    """Start procedures as sim processes; the list their results go to."""
    results = []

    def collect(procedure):
        results.append((yield from procedure))

    for procedure in procedures:
        env.process(collect(procedure))
    return results


def run_wave(env, procedures) -> list:
    """Run procedures concurrently to quiescence; their results."""
    results = spawn(env, procedures)
    env.run()
    return results


class Driver:
    """State every driver exposes to the harness (counters, shims)."""

    def __init__(self, gen, tracer=None):
        self.gen = gen
        self.tracer = tracer
        self.traffic = gen.spec["traffic"]
        self.env = Environment()
        #: Objects the counters are read from; None/empty where the
        #: workload's path does not include that layer.
        self.core = None
        self.upfs: list = []
        self.bus = None
        self.rx_ring = None
        self.manager = None
        self.packets = 0
        self.procedures = 0
        #: Host ns of each separately timed part of the last slice, for
        #: drivers whose slice is longer than a few ms; None when the
        #: slice is one part and the harness times it.
        self.segments = None
        self._retired_messages = 0
        if tracer is not None:
            tracer.wrap(self.env, "run", "sim")

    def prepare(self):
        """Inputs of one slice: fresh packets and their expected fates."""
        return self.gen.packets(self.traffic["packets_per_slice"])

    def messages(self) -> int:
        """Control messages delivered so far, over every core built."""
        current = self.bus.total_messages() if self.bus is not None else 0
        return self._retired_messages + current

    def _core(self) -> FiveGCore:
        self._retired_messages = self.messages()
        core = FiveGCore(self.env, SystemConfig(**self.gen.spec["config"]))
        self.core = core
        self.bus = core.bus
        shards = getattr(core.upf_u, "shards", None)
        self.upfs = (
            [shard.upf_u for shard in shards] if shards else [core.upf_u]
        )
        self.runner = ProcedureRunner(core)
        return core

    def _procedure(self, generator, name: str):
        """A procedure generator, traced per resume when tracing."""
        if self.tracer is None:
            return generator
        return self.tracer.generator(generator, "cp", f"cp.{name}")

    def _wave(self, procedures) -> list:
        results = run_wave(self.env, procedures)
        self.procedures += len(results)
        return results

    def _attach(self, count: int) -> list:
        """Register ``count`` UEs and establish a session for each."""
        core, runner = self.core, self.runner
        ues = [core.add_ue(supi) for supi in self.gen.supis(count)]

        def attach(ue):
            yield from runner.register_ue(ue, gnb_id=1)
            return (yield from runner.establish_session(ue))

        results = self._wave(attach(ue) for ue in ues)
        self.ues = ues
        self.gen.bind(
            SessionRef(
                r.detail["seid"], r.detail["ue_ip"],
                r.detail["ul_teid"], r.detail["dl_teid"],
            )
            for r in results
        )
        return ues

    # -- tracing ------------------------------------------------------------
    def _trace_core(self) -> None:
        """Shim every boundary the core's packets and messages cross."""
        tracer, core = self.tracer, self.core
        if tracer is None:
            return
        for attr in ("inject_downlink", "inject_uplink", "inject_downlink_burst"):
            tracer.wrap(core, attr, "cp")
        tracer.wrap(core.bus, "send", "core")
        tracer.wrap_process(core.bus, "_deliver", "core")
        tracer.wrap(core.upf_c, "handle", "up")
        if len(self.upfs) > 1:
            tracer.wrap(core.upf_u, "process_burst", "deploy")
        for upf in self.upfs:
            self._trace_upf(upf)
        for gnb in core.gnbs.values():
            tracer.wrap(gnb, "receive_downlink", "ran")
            tracer.wrap_process(gnb, "_air_delivery", "ran")

    def _trace_upf(self, upf) -> None:
        tracer = self.tracer
        for attr in ("process", "process_burst", "flush_session"):
            tracer.wrap(upf, attr, "up")
        if self.core is not None:
            # The sinks are the core's bound methods.
            tracer.wrap(upf, "uplink_sink", "cp", "cp.FiveGCore.uplink_to_dn")
            tracer.wrap(upf, "downlink_sink", "cp", "cp.FiveGCore.downlink_to_ran")
        if upf.flow_cache is not None:
            upf.flow_cache = Proxy(
                upf.flow_cache, tracer, "up",
                ("lookup_many", "touch_burst", "commit_burst"),
            )

    def _trace_ues(self) -> None:
        if self.tracer is not None:
            for ue in self.ues:
                self.tracer.wrap(ue, "deliver", "ran")


class DlSteady(Driver):
    def __init__(self, gen, tracer=None):
        super().__init__(gen, tracer)
        core = self._core()
        self._trace_core()
        self._attach(gen.ue_count)
        self._trace_ues()
        self.inject = core.inject_downlink_burst

    def run(self, inputs):
        outcomes = self.inject(inputs[0])
        self.env.run()
        return outcomes

    def verify(self, inputs, outcomes):
        packets, refs = inputs
        self.packets += len(packets)
        failed = misdelivered(packets, refs, outcomes, stamped=True)
        received = 0
        for ue in self.ues:
            received += len(ue.received)
            ue.received.clear()
        return len(packets), failed + abs(len(packets) - received)


class UlPercall(Driver):
    def __init__(self, gen, tracer=None):
        super().__init__(gen, tracer)
        core = self._core()
        self._trace_core()
        self._attach(gen.ue_count)
        self.inject = core.inject_uplink

    def run(self, inputs):
        inject = self.inject
        for packet in inputs[0]:
            inject(packet)

    def verify(self, inputs, _):
        packets, refs = inputs
        self.packets += len(packets)
        failed = misdelivered(packets, refs, stamped=True)
        failed += abs(len(packets) - len(self.core.dn_received))
        self.core.dn_received.clear()
        return len(packets), failed


class WideSharded(Driver):
    def __init__(self, gen, tracer=None):
        super().__init__(gen, tracer)
        core = self._core()
        self._trace_core()
        gen.bind(install_sessions(core.upf_c, gen, gen.session_count))
        self.process_burst = core.upf_u.process_burst
        self.burst = core.config.burst_size

    def run(self, inputs):
        packets, burst, process_burst = inputs[0], self.burst, self.process_burst
        outcomes = []
        for begin in range(0, len(packets), burst):
            outcomes.extend(process_burst(packets[begin:begin + burst]))
        return outcomes

    def verify(self, inputs, outcomes):
        packets, refs = inputs
        self.packets += len(packets)
        failed = misdelivered(packets, refs, outcomes)
        # UL packets end in the DN sink; DL packets end encapsulated
        # towards a gNB this workload does not model (terminal outcome).
        uplink = sum(1 for ref in refs if ref.teid is not None)
        failed += abs(uplink - len(self.core.dn_received))
        self.core.dn_received.clear()
        return len(packets), failed


class Mobility(Driver):
    def __init__(self, gen, tracer=None):
        super().__init__(gen, tracer)
        core = self._core()
        for gnb in core.gnbs.values():
            # Measurements end at the RAN host, as in the paper's testbed.
            gnb.radio_latency = 0.0
        self._trace_core()
        ues = self._attach(gen.ue_count)
        self._trace_ues()
        self.flows = [ref.flow for ref in gen.flows]
        self.movers = gen.movers(ues)
        self.generator_class = ConstantRateGenerator
        if tracer is not None:
            # The generator starts its loop in __init__, so the shim has
            # to be a subclass rather than an instance attribute.
            class TracedRateGenerator(ConstantRateGenerator):
                def _run(self):
                    return tracer.generator(
                        super()._run(), "traffic",
                        "traffic.ConstantRateGenerator.run",
                    )

            self.generator_class = TracedRateGenerator

    def prepare(self):
        traffic = self.traffic
        sources = [
            self.generator_class(
                self.env,
                sink=self.core.inject_downlink,
                rate_pps=traffic["rate_pps"],
                flow=flow,
                duration=traffic["sim_seconds"],
            )
            for flow in self.flows
        ]
        # Ping-pong: every mover goes to the gNB it is not on.
        moves = [(ue, 3 - ue.serving_gnb_id) for ue in self.movers]
        return sources, moves

    def run(self, inputs):
        env, runner, stagger = self.env, self.runner, self.traffic["stagger_s"]
        step = self.traffic["segment_s"]

        def move(ue, target, delay):
            yield env.timeout(delay)
            return (yield from self._procedure(
                runner.handover(ue, target), "handover"
            ))

        results = spawn(env, (
            move(ue, target, index * stagger)
            for index, (ue, target) in enumerate(inputs[1])
        ))
        # Fixed sim-time windows, so that every slice has the same
        # segments; the last one runs whatever is left to quiescence.
        began, segments = env.now, []
        for window in range(1, round(self.traffic["sim_seconds"] / step) + 1):
            start = clock_ns()
            env.run(until=began + window * step)
            segments.append(clock_ns() - start)
        start = clock_ns()
        env.run()
        segments.append(clock_ns() - start)
        self.segments = segments
        self.procedures += len(results)
        return results

    def verify(self, inputs, results):
        sources, moves = inputs
        emitted = sum(source.emitted for source in sources)
        self.packets += emitted
        failed = sum(
            1
            for (ue, target), result in zip(moves, results)
            if not isinstance(result, EventResult)
            or result.event != "handover"
            or ue.serving_gnb_id != target
        ) + abs(len(moves) - len(results))
        delivered = 0
        for ue in self.ues:
            delivered += len(ue.received)
            failed += sum(1 for p in ue.received if p.delivered_at is None)
            ue.received.clear()
        # Conservation: everything emitted reached its UE; nothing is
        # left in a smart buffer and nothing was dropped on the way.
        stranded = sum(len(s.buffer) for s in self.core.sessions.sessions())
        failed += abs(emitted - delivered) + stranded
        return emitted + len(moves), failed


class CpLifecycle(Driver):
    #: Procedure waves of one lifecycle: (event label, runner method(s)).
    WAVES = (
        ("registration", ("register_ue",)),
        ("session-request", ("establish_session",)),
        ("handover", ("handover",)),
        ("paging", ("release_to_idle", "page_ue")),
        ("deregistration", ("deregister_ue",)),
    )

    def __init__(self, gen, tracer=None):
        super().__init__(gen, tracer)
        self.next_supi = 0

    def prepare(self):
        # A new core per slice: the NFs keep every context they ever made
        # (and the SMF searches them linearly), so on one long-lived core
        # each slice would run slower than the one before.
        self._core()
        self._trace_core()
        wave = self.traffic["wave"]
        supis = self.gen.supis(wave, first=self.next_supi)
        self.next_supi += wave
        return [self.core.add_ue(supi) for supi in supis]

    def _call(self, method: str, ue):
        runner = self.runner
        if method == "register_ue":
            procedure = runner.register_ue(ue, gnb_id=1)
        elif method == "handover":
            procedure = runner.handover(ue, target_gnb_id=2)
        else:
            procedure = getattr(runner, method)(ue)
        return self._procedure(procedure, method)

    def run(self, ues):
        results, segments = [], []
        for _label, methods in self.WAVES:
            for method in methods:
                start = clock_ns()
                results.append(self._wave(self._call(method, ue) for ue in ues))
                segments.append(clock_ns() - start)
        self.segments = segments
        return results

    def verify(self, ues, results):
        expected = [
            label if method != "release_to_idle" else "an-release"
            for label, methods in self.WAVES
            for method in methods
        ]
        failed = 0
        for label, wave in zip(expected, results):
            failed += abs(len(ues) - len(wave))
            failed += sum(
                1
                for result in wave
                if not isinstance(result, EventResult) or result.event != label
            )
        failed += len(self.core.sessions)
        failed += sum(1 for ue in ues if ue.serving_gnb_id is not None)
        return len(expected) * len(ues), failed


class PlatformRing(Driver):
    def __init__(self, gen, tracer=None):
        super().__init__(gen, tracer)
        env = self.env
        self.manager = NFManager(env)
        table = SessionTable()
        config = gen.spec["config"]
        upf = UPFUserPlane(
            env, table,
            service_id=UPF_SERVICE_ID,
            downlink_sink=self._sink,
            flow_cache=config["flow_cache"],
            burst_size=config["burst_size"],
        )
        self.upf = upf
        self.upfs = [upf]
        self.manager.register(upf)
        self.rx_ring = upf.rx_ring
        self.delivered = 0
        if tracer is not None:
            tracer.wrap(self.manager, "inject", "core")
            upf.rx_ring = Proxy(
                upf.rx_ring, tracer, "core", ("enqueue", "dequeue_burst")
            )
            tracer.wrap(upf, "handle_burst", "up")
            self._trace_upf(upf)
        upf_c = UPFControlPlane(table, upf_u=upf)
        gen.bind(install_sessions(upf_c, gen, gen.session_count))
        upf.start()
        self.manager.start()

    def _sink(self, packet, teid, address) -> None:
        self.delivered += 1

    def run(self, inputs):
        packets, batch = inputs[0], self.traffic["batch"]
        env, upf, inject = self.env, self.upf, self.manager.inject
        target = upf.handled
        accepted = 0
        for begin in range(0, len(packets), batch):
            for packet in packets[begin:begin + batch]:
                accepted += inject(packet, UPF_SERVICE_ID)
            target += min(batch, len(packets) - begin)
            while upf.handled < target:
                env.run(until=env.now + POLL_QUANTUM_S)
        return accepted

    def verify(self, inputs, accepted):
        packets, refs = inputs
        self.packets += len(packets)
        failed = misdelivered(packets, refs)
        failed += abs(len(packets) - accepted)
        failed += abs(len(packets) - self.delivered)
        self.delivered = 0
        # Every descriptor went back to the pool; no ring ever overflowed.
        failed += self.manager.pool.in_use + self.manager.dropped
        return len(packets), failed


DRIVERS = {
    "dl_steady": DlSteady,
    "ul_percall": UlPercall,
    "wide_sharded": WideSharded,
    "mobility": Mobility,
    "cp_lifecycle": CpLifecycle,
    "platform_ring": PlatformRing,
}
