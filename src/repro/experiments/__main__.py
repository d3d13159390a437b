"""Command-line runner for the reproduction experiments.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig08
    python -m repro.experiments table1 table2
    python -m repro.experiments all
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Sequence


def _print_rows(title: str, header: Sequence[str], rows) -> None:
    print(f"\n=== {title} ===")
    rows = [
        [f"{c:.4g}" if isinstance(c, float) else str(c) for c in row]
        for row in rows
    ]
    widths = [
        max(len(col), *(len(row[i]) for row in rows)) + 2
        if rows
        else len(col) + 2
        for i, col in enumerate(header)
    ]
    print("".join(col.ljust(w) for col, w in zip(header, widths)))
    for row in rows:
        print("".join(cell.ljust(w) for cell, w in zip(row, widths)))


def run_fig06() -> None:
    from .fig06 import measure_serialization

    _print_rows(
        "Fig 6: serialization overheads",
        ["format", "ser_us", "deser_us", "proto_us", "total_us", "bytes"],
        [
            (r.format, r.serialize_s * 1e6, r.deserialize_s * 1e6,
             r.protocol_s * 1e6, r.total_s * 1e6, r.encoded_bytes)
            for r in measure_serialization()
        ],
    )


def run_fig07() -> None:
    from .fig07 import pfcp_message_latency

    _print_rows(
        "Fig 7: PFCP message latency",
        ["message", "free5gc_us", "l25gc_us", "reduction_%"],
        [
            (r.message, r.free5gc_s * 1e6, r.l25gc_s * 1e6,
             r.reduction * 100)
            for r in pfcp_message_latency()
        ],
    )


def run_fig08() -> None:
    from .fig08 import event_completion_times

    _print_rows(
        "Fig 8: UE event completion time (ms)",
        ["event", "free5gc", "onvm-upf", "l25gc", "reduction_%"],
        [
            (r.event, r.free5gc_s * 1e3, r.onvm_upf_s * 1e3,
             r.l25gc_s * 1e3, r.reduction * 100)
            for r in event_completion_times()
        ],
    )


def run_fig09() -> None:
    from .fig09 import average_speedup, communication_speedup

    rows = communication_speedup()
    _print_rows(
        "Fig 9: speedup over HTTP",
        ["message", "http_us", "shm_us", "speedup_x"],
        [(r.message, r.http_s * 1e6, r.shm_s * 1e6, r.speedup) for r in rows],
    )
    print(f"average: {average_speedup(rows):.1f}x")


def run_fig10() -> None:
    from .fig10 import (
        burst_scaling,
        latency_vs_packet_size,
        scaling_40g,
        throughput_vs_packet_size,
    )

    _print_rows(
        "Fig 10(a,b): throughput (Gbps)",
        ["size", "free_uni", "l25gc_uni", "ratio", "free_bi", "l25gc_bi"],
        [
            (r.size, r.free5gc_uni_gbps, r.l25gc_uni_gbps, r.uni_ratio,
             r.free5gc_bidir_gbps, r.l25gc_bidir_gbps)
            for r in throughput_vs_packet_size()
        ],
    )
    _print_rows(
        "Fig 10(c): latency (us)",
        ["size", "free5gc", "l25gc"],
        [
            (r.size, r.free5gc_s * 1e6, r.l25gc_s * 1e6)
            for r in latency_vs_packet_size()
        ],
    )
    _print_rows(
        "40G scaling",
        ["cores", "gbps"],
        [(r.cores, r.mtu_gbps) for r in scaling_40g()],
    )
    _print_rows(
        "Burst scaling (modeled): 68 B forwarding rate vs burst size",
        ["burst", "L25GC_Mpps", "free5GC_Mpps", "us/pkt"],
        [
            (r.burst_size, r.l25gc_mpps, r.free5gc_mpps,
             r.l25gc_per_packet_us)
            for r in burst_scaling()
        ],
    )


def run_fig11() -> None:
    from .fig11 import CLASSIFIER_VARIANTS, lookup_latency_sweep, update_latency

    variants = list(CLASSIFIER_VARIANTS)
    _print_rows(
        "Fig 11: PDR lookup latency (us)",
        ["rules"] + variants,
        [
            tuple([r.rules] + [r.latency_s[v] * 1e6 for v in variants])
            for r in lookup_latency_sweep()
        ],
    )
    _print_rows(
        "PDR update latency (us)",
        ["variant", "update_us", "insert_us"],
        [
            (r.variant, r.update_s * 1e6, r.insert_s * 1e6)
            for r in update_latency()
        ],
    )


def run_fig12() -> None:
    from .fig12 import page_load_under_handovers

    c = page_load_under_handovers()
    _print_rows(
        "Fig 12: page load under handovers",
        ["system", "plt_s", "stall_ms", "spurious", "rtx"],
        [
            ("free5gc", c.free5gc.plt, c.free5gc_stall_s * 1e3,
             c.free5gc.spurious_timeouts, c.free5gc.retransmissions),
            ("l25gc", c.l25gc.plt, c.l25gc_stall_s * 1e3,
             c.l25gc.spurious_timeouts, c.l25gc.retransmissions),
        ],
    )
    print(f"PLT improvement: {c.plt_improvement * 100:.1f}%")


def run_table1() -> None:
    from ..cp.core5g import SystemConfig
    from .fig13 import paging_data_plane

    _print_rows(
        "Table 1: paging event",
        ["system", "base_rtt_us", "paging_ms", "after_ms", "elevated",
         "dropped"],
        [
            tuple(paging_data_plane(cfg).as_row().values())
            for cfg in (SystemConfig.free5gc(), SystemConfig.l25gc())
        ],
    )


def run_table2() -> None:
    from ..cp.core5g import SystemConfig
    from .fig14 import handover_data_plane

    rows = []
    for sessions in (1, 4):
        for cfg in (SystemConfig.free5gc(), SystemConfig.l25gc()):
            rows.append(
                tuple(
                    handover_data_plane(
                        cfg, concurrent_sessions=sessions
                    ).as_row().values()
                )
            )
    _print_rows(
        "Table 2: handover event",
        ["system", "expt", "base_rtt_us", "ho_ms", "after_ms", "elevated",
         "dropped"],
        rows,
    )


def run_smart_buffering() -> None:
    from .smart_buffering import smart_buffering_cases

    rows = []
    for case, entries in smart_buffering_cases().items():
        for entry in entries:
            rows.append(
                (case, entry.scheme, entry.buffer_packets, entry.drops,
                 entry.one_way_delay_s * 1e3)
            )
    _print_rows(
        "§5.4.2: Eqs 1-2",
        ["case", "scheme", "buffer", "drops", "one_way_ms"],
        rows,
    )


def run_fig15() -> None:
    from .fig15 import control_plane_failover, data_plane_failover

    cp = control_plane_failover()
    _print_rows(
        "§5.5.1: failover (control plane)",
        ["scheme", "completion_ms"],
        [
            ("l25gc no-failure", cp.l25gc_ho_without_failure_s * 1e3),
            ("l25gc failure", cp.l25gc_ho_with_failure_s * 1e3),
            ("3gpp reattach", cp.reattach_ho_with_failure_s * 1e3),
        ],
    )
    _print_rows(
        "Fig 15: failover (data plane)",
        ["scheme", "outage_ms", "lost", "replayed", "rtx"],
        [
            (name, r.outage_s * 1e3, r.packets_lost, r.packets_replayed,
             r.retransmissions)
            for name, r in data_plane_failover().items()
        ],
    )


def run_fig16() -> None:
    from .fig16 import failover_during_handover

    _print_rows(
        "Fig 16: failover during handover",
        ["scheme", "stall_ms", "before_Mbps", "after_Mbps", "MB", "rtx"],
        [
            (name, r.stall_s * 1e3, r.goodput_before_bps / 1e6,
             r.goodput_after_bps / 1e6,
             r.total_transferred_bytes / (1 << 20), r.retransmissions)
            for name, r in failover_during_handover().items()
        ],
    )


def run_fig17() -> None:
    from .fig17 import repeated_handovers

    _print_rows(
        "Fig 17: repeated handovers",
        ["system", "HOs", "MB", "rtx", "spurious", "max_rtt_ms"],
        [
            (name, r.handovers, r.transferred_bytes / (1 << 20),
             r.retransmissions, r.spurious_timeouts, r.max_rtt_s * 1e3)
            for name, r in repeated_handovers().items()
        ],
    )


def run_scalability() -> None:
    from ..cp.core5g import SystemConfig
    from .scalability import classifier_ablation, session_scale_sweep

    _print_rows(
        "Ablation: session scaling (L25GC)",
        ["sessions", "reg_ms", "est_ms", "total_s", "messages"],
        [
            (r.sessions, r.mean_registration_s * 1e3,
             r.mean_session_establishment_s * 1e3, r.total_onboarding_s,
             r.control_messages)
            for r in session_scale_sweep(SystemConfig.l25gc())
        ],
    )
    _print_rows(
        "Ablation: classifier inside the UPF",
        ["rules/session", "PDR-LL_us", "PDR-PS_us", "speedup"],
        [
            (r.rules_per_session, r.lookup_us["PDR-LL"],
             r.lookup_us["PDR-PS"], r.speedup())
            for r in classifier_ablation()
        ],
    )


def run_shard_scale() -> None:
    from .scalability import shard_scale_sweep

    # CLI-sized sweep; shard_scale_sweep() defaults to the full
    # 10k -> 1M grid.
    _print_rows(
        "Scale-out: sessions x UPF-U shards (RSS dispatch)",
        ["sessions", "shards", "Mpps/shard", "Mpps_total", "skew",
         "hit_rate"],
        [
            (r.sessions, r.shards, r.modeled_mpps_per_shard,
             r.modeled_mpps_total, r.load_skew, r.flow_cache_hit_rate)
            for r in shard_scale_sweep(
                session_counts=(10_000, 125_000),
                shard_counts=(1, 2, 4, 8),
            )
        ],
    )


EXPERIMENTS: Dict[str, Callable[[], None]] = {
    "fig06": run_fig06,
    "fig07": run_fig07,
    "fig08": run_fig08,
    "fig09": run_fig09,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "table1": run_table1,
    "table2": run_table2,
    "smart-buffering": run_smart_buffering,
    "fig15": run_fig15,
    "fig16": run_fig16,
    "fig17": run_fig17,
    "scalability": run_scalability,
    "shard-scale": run_shard_scale,
}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the L25GC paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment names, 'list', or 'all'",
    )
    args = parser.parse_args(argv)
    if args.experiments == ["list"]:
        for name in EXPERIMENTS:
            print(name)
        return 0
    names = (
        list(EXPERIMENTS)
        if args.experiments == ["all"]
        else args.experiments
    )
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(try 'list')"
        )
    for name in names:
        EXPERIMENTS[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
