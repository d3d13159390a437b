"""Micro-benchmarks of the platform primitives no ``benchmarks/e2e`` row
measures: GTP-U encap/decap and the resiliency checkpoint delta.

Rings, the mempool, RSS dispatch, the flow-cache probe and the session
lookup are timed by the per-layer rows of ``benchmarks/e2e``
(``core.ring_*``, ``core.pool_alloc_free_ns``, ``deploy.rss_dispatch_ns``,
``up.cache_probe_ns``, ``up.slab_resolve_ns``).
"""

from repro.net import FiveTuple, Packet, decapsulate, encapsulate
from repro.resiliency import compute_delta


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


def test_checkpoint_delta(benchmark):
    old = {f"session-{i}": {"teid": i, "state": "active"} for i in range(50)}
    new = dict(old)
    new["session-7"] = {"teid": 7, "state": "handover"}
    new["session-99"] = {"teid": 99, "state": "active"}
    benchmark(compute_delta, old, new)
