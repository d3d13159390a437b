"""The 20-field classification key of a packet.

Defined below ``session`` and ``upf_u`` in the import order, so each
imports :func:`packet_key` and :func:`packet_keys` plainly.
"""

from __future__ import annotations

from ..net.packet import Direction, Packet
from ..pfcp import ies as pfcp_ies

__all__ = ["packet_key", "packet_keys"]

# Bound once: looked up per packet they cost a third of the key build.
_UPLINK = Direction.UPLINK
_ACCESS = pfcp_ies.ACCESS
_CORE = pfcp_ies.CORE


def _meta_key(packet: Packet, meta, iface: int):
    """The key of a packet that carries meta fields (the cold branch)."""
    flow = packet.flow
    tos = packet.tos
    get = meta.get
    return (  # repro: noqa[W001] -- the one per-packet key tuple, cold case (packet with meta fields); never built beside packet_key's
        flow.src_ip,
        flow.dst_ip,
        flow.src_port,
        flow.dst_port,
        flow.protocol,
        tos,
        packet.teid or 0,
        packet.qfi or 0,
        get("app_id", 0),
        get("spi", 0),
        get("flow_label", 0),
        get("sdf_filter_id", 0),
        iface,
        get("pdu_type", 0),
        get("network_instance", 0),
        tos >> 2,
        get("session_id", 0),
        get("slice_id", 0),
        get("urr_id", 0),
        get("outer_header", 0),
    )


def packet_key(packet: Packet):
    """The packet's exact 20-field classification key.

    Built once per packet and shared by the flow cache and the
    classifier — field order must mirror
    ``repro.classifier.rule.PDI_FIELDS``, and every element must be
    in-domain (``0 <= value <= spec.max_value``; a well-formed
    packet's are), which is what lets a classifier skip the dimensions
    no rule constrains.  Equals ``packet_keys([packet])[0]`` whenever
    that is not ``None``.
    """
    meta = packet.meta
    iface = _ACCESS if packet.direction is _UPLINK else _CORE
    if meta:
        return _meta_key(packet, meta, iface)
    # Plain data packets carry no meta fields: the ten dict probes
    # collapse to literals (same branch as packet_keys).
    flow = packet.flow
    tos = packet.tos
    return (  # repro: noqa[W001] -- the 20-field classification key itself: built once per packet, shared by flow cache and classifier
        flow.src_ip,
        flow.dst_ip,
        flow.src_port,
        flow.dst_port,
        flow.protocol,
        tos,
        packet.teid or 0,
        packet.qfi or 0,
        0, 0, 0, 0,  # app_id, spi, flow_label, sdf_filter_id
        iface,
        0, 0,  # pdu_type, network_instance
        tos >> 2,
        0, 0, 0, 0,  # session_id, slice_id, urr_id, outer_header
    )


def packet_keys(packets):
    """Classification keys for a whole burst, built in one pass.

    The vectorized front half of :meth:`UPFUserPlane.process_burst`:
    every packet's 20-field key is derived before any probe or rule
    application runs (keys depend on packet fields only, so they
    cannot go stale mid-burst).  A TEID-less uplink packet gets
    ``None`` — its key would alias TEID 0, so it bypasses the flow
    cache, exactly as it does under :meth:`UPFUserPlane.process`.

    Key reuse across a burst assumes each element is a distinct packet
    object; enqueueing the same object twice in one burst is
    unsupported (the descriptor sanitizer flags the double-enqueue).
    """
    keys = []  # repro: noqa[W001] -- one output list per burst, amortized over burst_size packets
    append = keys.append
    for packet in packets:
        direction = packet.direction
        teid = packet.teid
        if direction is _UPLINK and teid is None:
            append(None)
            continue
        meta = packet.meta
        if meta:
            append(
                _meta_key(
                    packet, meta, _ACCESS if direction is _UPLINK else _CORE
                )
            )
            continue
        # Plain data packets carry no meta fields: every meta-derived
        # key element is its default, so the ten dict probes collapse
        # away.  This is the vectorization win — the bulk build touches
        # only real packet state.
        flow = packet.flow
        tos = packet.tos
        append((  # repro: noqa[W001] -- the same single per-packet key tuple packet_key builds, inline to save a call per packet
            flow.src_ip,
            flow.dst_ip,
            flow.src_port,
            flow.dst_port,
            flow.protocol,
            tos,
            teid or 0,
            packet.qfi or 0,
            0, 0, 0, 0,  # app_id, spi, flow_label, sdf_filter_id
            _ACCESS if direction is _UPLINK else _CORE,
            0, 0,  # pdu_type, network_instance
            tos >> 2,
            0, 0, 0, 0,  # session_id, slice_id, urr_id, outer_header
        ))
    return keys
