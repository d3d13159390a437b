"""Micro-benchmarks of the real platform primitives.

Not tied to a single figure — these quantify the building blocks the
shared-memory design leans on: descriptor rings, the mempool, GTP-U
encap/decap, the Toeplitz RSS hash, checkpoint deltas, and the UPF-U
flow-cache fast path.
"""

import time

from repro.classifier import Rule, exact
from repro.core import Ring, SharedMemoryPool
from repro.deploy.rss import hash_five_tuple
from repro.net import Direction, FiveTuple, Packet, decapsulate, encapsulate
from repro.pfcp import ies as pfcp_ies
from repro.pfcp.builder import build_session_establishment
from repro.resiliency import compute_delta
from repro.sim import Environment
from repro.up import PDR, SessionTable, UPFControlPlane, UPFUserPlane


def test_ring_enqueue_dequeue(benchmark):
    ring = Ring(1024)

    def cycle():
        ring.enqueue("descriptor")
        return ring.dequeue()

    benchmark(cycle)


def test_ring_burst_32(benchmark):
    ring = Ring(1024)
    batch = list(range(32))

    def cycle():
        ring.enqueue_burst(batch)
        return ring.dequeue_burst(32)

    benchmark(cycle)


def test_pool_alloc_free(benchmark):
    pool = SharedMemoryPool(size=1024)

    def cycle():
        descriptor = pool.alloc("payload")
        descriptor.free()

    benchmark(cycle)


def test_gtp_encapsulate(benchmark):
    inner = Packet(
        size=128,
        flow=FiveTuple(src_ip=1, dst_ip=2, src_port=3, dst_port=4),
    ).to_bytes()
    benchmark(encapsulate, inner, 0x100, 10, 20, 9)


def test_gtp_decapsulate(benchmark):
    inner = Packet(
        size=128,
        flow=FiveTuple(src_ip=1, dst_ip=2, src_port=3, dst_port=4),
    ).to_bytes()
    outer = encapsulate(inner, 0x100, 10, 20, 9)
    benchmark(decapsulate, outer)


def test_rss_toeplitz(benchmark):
    flow = FiveTuple(src_ip=0x0A000001, dst_ip=0x08080808,
                     src_port=40000, dst_port=443)
    benchmark(hash_five_tuple, flow)


UE_IP = 0x0A3C0001
FILLER_PDRS = 64
FLOWS = 8
STEADY_ITERS = 4000


def _upf(flow_cache):
    """A UPF-U with one session padded with non-matching PDRs, so the
    uncached walk has a realistic (64-rule) match to pay."""
    env = Environment()
    table = SessionTable()
    upf_u = UPFUserPlane(env, table, flow_cache=flow_cache)
    upf_c = UPFControlPlane(table, upf_u=upf_u, address=1)
    upf_c.handle(
        build_session_establishment(
            seid=1, sequence=1, ue_ip=UE_IP, upf_address=1,
            ul_teid=0x100, gnb_address=2, dl_teid=0x500,
        )
    )
    session = table.by_seid(1)
    dl_far_id = next(
        pdr.far_id
        for pdr in session.pdrs.values()
        if pdr.source_interface == pfcp_ies.CORE
    )
    for i in range(FILLER_PDRS):
        session.install_pdr(
            PDR(
                pdr_id=100 + i,
                precedence=1,
                match=Rule.from_fields(
                    priority=500 + i,
                    rule_id=100 + i,
                    far_id=dl_far_id,
                    dst_ip=exact(UE_IP),
                    dst_port=exact(10000 + i),
                    source_iface=exact(pfcp_ies.CORE),
                ),
                far_id=dl_far_id,
                source_interface=pfcp_ies.CORE,
            )
        )
    return upf_u


def _dl_flows():
    return [
        Packet(
            direction=Direction.DOWNLINK,
            flow=FiveTuple(
                src_ip=1, dst_ip=UE_IP, src_port=80 + i, dst_port=4000
            ),
            size=128,
        )
        for i in range(FLOWS)
    ]


def _steady_state_seconds(upf_u, packets, iters=STEADY_ITERS):
    for packet in packets:  # warm: fill the cache / fault the code paths
        upf_u.process(packet)
    begin = time.perf_counter()
    for i in range(iters):
        packet = packets[i % len(packets)]
        packet.teid = None  # undo the previous pass's GTP encap
        upf_u.process(packet)
    return (time.perf_counter() - begin) / iters


def test_flow_cache_steady_state_speedup(benchmark):
    """Regression guard: the memoized fast path must beat the full
    match pipeline at steady state by a comfortable margin."""

    def measure():
        uncached_s = _steady_state_seconds(_upf(False), _dl_flows())
        cached_s = _steady_state_seconds(_upf(True), _dl_flows())
        return uncached_s, cached_s

    uncached_s, cached_s = benchmark.pedantic(measure, rounds=3, iterations=1)
    speedup = uncached_s / cached_s
    benchmark.extra_info["uncached_us"] = uncached_s * 1e6
    benchmark.extra_info["cached_us"] = cached_s * 1e6
    benchmark.extra_info["flow_cache_speedup"] = speedup
    assert speedup >= 1.2


def test_flow_cache_hit_path(benchmark):
    """Raw per-packet cost with every packet a cache hit."""
    upf_u = _upf(True)
    packet = _dl_flows()[0]
    upf_u.process(packet)  # fill

    def cycle():
        packet.teid = None  # undo the previous pass's GTP encap
        return upf_u.process(packet)

    benchmark(cycle)
    assert upf_u.flow_cache.hits > 0
    assert upf_u.flow_cache.misses == 1  # only the initial fill missed


def test_hot_store_steady_state(benchmark):
    """Working-set regression guard for the hot/cold split.

    The hot-slab resolution path must not regress against the legacy
    dict-of-objects layout at a mid-size working set: the slab probe +
    fixed-offset record reads replace an object-dict probe + property-
    delegated reads, so slab/dict <= 1.1 (slab at least roughly as
    fast; in practice it wins).  Also pins that the slab really is the
    production path: the pipeline's session lookup and the measured
    slab series resolve the same records.
    """
    from repro.experiments.cache import working_set_sweep

    def measure():
        return working_set_sweep(
            session_counts=(2_000,), repeats=3, min_resolutions=10_000
        )

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    row = rows[0]
    benchmark.extra_info["slab_ns"] = round(row.slab_ns_per_packet, 2)
    benchmark.extra_info["dict_ns"] = round(row.dict_ns_per_packet, 2)
    benchmark.extra_info["dict_over_slab"] = round(row.dict_over_slab, 4)
    assert row.slab_ns_per_packet <= row.dict_ns_per_packet * 1.1


def test_checkpoint_delta(benchmark):
    old = {f"session-{i}": {"teid": i, "state": "active"} for i in range(50)}
    new = dict(old)
    new["session-7"] = {"teid": 7, "state": "handover"}
    new["session-99"] = {"teid": 99, "state": "active"}
    benchmark(compute_delta, old, new)
