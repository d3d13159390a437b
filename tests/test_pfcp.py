"""Tests for the PFCP (N4) TLV codecs, messages, and builders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pfcp import builder, messages, qos_ies
from repro.pfcp import (
    ACCESS,
    ACTION_BUFF,
    ACTION_FORW,
    ACTION_NOCP,
    CAUSE_ACCEPTED,
    CORE,
    PFCPHeader,
    SessionEstablishmentRequest,
    SessionModificationRequest,
    SessionReportRequest,
    build_buffering_update,
    build_downlink_report,
    build_forward_update,
    build_path_switch,
    build_session_establishment,
    decode_ies,
    decode_message,
    encode_ies,
    ies,
)

from .test_up_qos import build_qos_rules


class TestHeader:
    def test_session_header_roundtrip(self):
        header = PFCPHeader(message_type=52, seid=0xABCDEF, sequence=777)
        decoded, rest = PFCPHeader.unpack(header.pack(0))
        assert decoded.message_type == 52
        assert decoded.seid == 0xABCDEF
        assert decoded.sequence == 777
        assert rest == b""

    def test_node_header_has_no_seid(self):
        header = PFCPHeader(message_type=1, seid=None, sequence=3)
        raw = header.pack(0)
        decoded, _ = PFCPHeader.unpack(raw)
        assert decoded.seid is None
        assert len(raw) == 8

    def test_truncated_raises(self):
        with pytest.raises(ValueError):
            PFCPHeader.unpack(b"\x21\x34")

    def test_wrong_version_raises(self):
        raw = bytearray(PFCPHeader(message_type=1).pack(0))
        raw[0] = 0x40
        with pytest.raises(ValueError):
            PFCPHeader.unpack(bytes(raw))


class TestScalarIEs:
    @pytest.mark.parametrize(
        "ie",
        [
            ies.CauseIE(cause=CAUSE_ACCEPTED),
            ies.OffendingIeIE(ie_type=ies.QerIdIE.IE_TYPE),
            ies.NodeIdIE(address=0xC0A80101),
            ies.FSeidIE(seid=99, address=0x0A000001),
            ies.PdrIdIE(rule_id=12),
            ies.FarIdIE(rule_id=3),
            ies.QerIdIE(rule_id=4),
            ies.PrecedenceIE(precedence=255),
            ies.SourceInterfaceIE(interface=CORE),
            ies.DestinationInterfaceIE(interface=ACCESS),
            ies.FTeidIE(teid=0xDEAD, address=7, choose=False),
            ies.FTeidIE(teid=0, address=7, choose=True),
            ies.UeIpAddressIE(address=5, source_or_destination=1),
            ies.NetworkInstanceIE(instance="internet"),
            ies.QfiIE(qfi=9),
            ies.ApplyActionIE(flags=ACTION_FORW | ACTION_BUFF),
            ies.OuterHeaderCreationIE(teid=1, address=2),
            ies.OuterHeaderRemovalIE(),
            ies.ReportTypeIE(dldr=True),
        ],
        ids=lambda ie: type(ie).__name__,
    )
    def test_roundtrip(self, ie):
        decoded = decode_ies(ie.encode())
        assert len(decoded) == 1
        assert decoded[0] == ie

    @pytest.mark.parametrize("cause, missing", [
        (ies.CAUSE_MANDATORY_IE_MISSING, ies.QerIdIE.IE_TYPE),
        (ies.CAUSE_RULE_CREATION_MODIFICATION_FAILURE, ies.CreatePdrIE.IE_TYPE),
    ])
    def test_rejection_cause_and_offending_ie_roundtrip(self, cause, missing):
        """TS 29.244 §8.2.1 causes 66 and 73, and the Offending IE
        (type 40) that names the IE type a rejection is about."""
        assert (ies.CAUSE_MANDATORY_IE_MISSING,
                ies.CAUSE_RULE_CREATION_MODIFICATION_FAILURE) == (66, 73)
        assert ies.OffendingIeIE.IE_TYPE == 40
        pair = [ies.CauseIE(cause=cause), ies.OffendingIeIE(ie_type=missing)]
        wire = ies.encode_ies(pair)
        assert wire[4 + 1 + 4:] == bytes([0, missing])  # 16-bit IE type
        assert decode_ies(wire) == pair
        assert not decode_ies(wire)[0].accepted

    def test_sdf_filter_full_roundtrip(self):
        sdf = ies.SdfFilterIE(
            flow_description="permit out 17 from 8.8.8.8 to assigned",
            tos=0x2800,
            spi=12345,
            flow_label=0x0ABCD,
            filter_id=42,
        )
        (decoded,) = decode_ies(sdf.encode())
        assert decoded == sdf

    def test_apply_action_flags(self):
        action = ies.ApplyActionIE(flags=ACTION_BUFF | ACTION_NOCP)
        assert action.buffer and action.notify_cp
        assert not action.forward and not action.drop

    def test_unknown_ie_skipped(self):
        unknown = (60000).to_bytes(2, "big") + (2).to_bytes(2, "big") + b"xy"
        known = ies.PdrIdIE(rule_id=5).encode()
        decoded = decode_ies(unknown + known)
        assert len(decoded) == 1
        assert decoded[0].rule_id == 5

    def test_truncated_body_raises(self):
        raw = ies.PdrIdIE(rule_id=5).encode()[:-1]
        with pytest.raises(ValueError):
            decode_ies(raw)


class TestGroupedIEs:
    def test_nested_roundtrip(self):
        pdi = ies.PdiIE(
            children=[
                ies.SourceInterfaceIE(interface=ACCESS),
                ies.FTeidIE(teid=0x100, address=1),
            ]
        )
        create = ies.CreatePdrIE(
            children=[ies.PdrIdIE(rule_id=1), pdi, ies.FarIdIE(rule_id=2)]
        )
        (decoded,) = decode_ies(create.encode())
        assert isinstance(decoded, ies.CreatePdrIE)
        nested = decoded.child(ies.PdiIE)
        assert nested.child(ies.FTeidIE).teid == 0x100


class TestMessages:
    def test_establishment_roundtrip(self):
        message = build_session_establishment(
            seid=4,
            sequence=9,
            ue_ip=0x0A3C0002,
            upf_address=1,
            ul_teid=0x40,
            gnb_address=2,
            dl_teid=0x41,
        )
        decoded = decode_message(message.encode())
        assert isinstance(decoded, SessionEstablishmentRequest)
        assert decoded.seid == 4 and decoded.sequence == 9
        assert len(decoded.find_all(ies.CreatePdrIE)) == 2
        assert len(decoded.find_all(ies.CreateFarIE)) == 2

    def test_unknown_message_type_raises(self):
        raw = bytearray(messages.SessionDeletionRequest(seid=1).encode())
        raw[1] = 250
        with pytest.raises(ValueError):
            decode_message(bytes(raw))

    def test_handler_times_ordering(self):
        """Establishment > modification > report (rule-install work)."""
        assert (
            SessionEstablishmentRequest.HANDLER_TIME
            > SessionModificationRequest.HANDLER_TIME
            > SessionReportRequest.HANDLER_TIME
        )

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=2**24 - 1),
    )
    def test_header_roundtrip_property(self, seid, sequence):
        header = PFCPHeader(message_type=52, seid=seid, sequence=sequence)
        decoded, _ = PFCPHeader.unpack(header.pack(0))
        assert decoded.seid == seid and decoded.sequence == sequence


class TestBuilders:
    def test_buffering_update_piggybacks_choose(self):
        """§3.3: the buffering IE rides the TEID-allocation message."""
        message = build_buffering_update(
            seid=1, sequence=2, notify_cp=True,
            choose_new_teid=True, upf_address=9,
        )
        decoded = decode_message(message.encode())
        far = decoded.find(ies.UpdateFarIE)
        action = far.child(ies.ApplyActionIE)
        assert action.buffer and action.notify_cp
        fteid = decoded.find(ies.FTeidIE)
        assert fteid is not None and fteid.choose

    def test_path_switch_targets_new_gnb(self):
        message = build_path_switch(
            seid=1, sequence=2, new_gnb_address=0xC0A80202,
            new_dl_teid=0x777,
        )
        far = message.find(ies.UpdateFarIE)
        params = far.child(ies.ForwardingParametersIE)
        outer = params.child(ies.OuterHeaderCreationIE)
        assert outer.teid == 0x777
        assert outer.address == 0xC0A80202
        assert far.child(ies.ApplyActionIE).forward

    def test_forward_update_is_path_switch(self):
        message = build_forward_update(
            seid=1, sequence=2, gnb_address=5, dl_teid=6
        )
        assert message.find(ies.UpdateFarIE) is not None

    def test_downlink_report(self):
        message = build_downlink_report(seid=3, sequence=4)
        decoded = decode_message(message.encode())
        assert isinstance(decoded, SessionReportRequest)
        assert decoded.find(ies.ReportTypeIE).dldr
        report = decoded.find(ies.DownlinkDataReportIE)
        assert report.child(ies.PdrIdIE).rule_id == 2


# ---------------------------------------------------------------------------
# wire_size() == len(encode()), for everything that can be encoded
# ---------------------------------------------------------------------------
U8, U16, U32, U64 = (
    st.integers(min_value=0, max_value=2**bits - 1) for bits in (8, 16, 32, 64)
)
FLAG = st.booleans()
ASCII = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=80)


def _maybe(strategy):
    return st.none() | strategy


#: Every non-grouped IE class with each field inside its wire range.
SCALAR_FIELDS = {
    ies.CauseIE: dict(cause=U8),
    ies.OffendingIeIE: dict(ie_type=U16),
    ies.NodeIdIE: dict(address=U32),
    ies.FSeidIE: dict(seid=U64, address=U32),
    ies.PdrIdIE: dict(rule_id=U16),
    ies.FarIdIE: dict(rule_id=U32),
    ies.QerIdIE: dict(rule_id=U32),
    ies.PrecedenceIE: dict(precedence=U32),
    ies.SourceInterfaceIE: dict(interface=U8),
    ies.DestinationInterfaceIE: dict(interface=U8),
    ies.FTeidIE: dict(teid=U32, address=U32, choose=FLAG),
    ies.UeIpAddressIE: dict(
        address=U32, source_or_destination=st.integers(0, 1)
    ),
    ies.NetworkInstanceIE: dict(instance=ASCII),
    ies.SdfFilterIE: dict(
        flow_description=ASCII, tos=_maybe(U16), spi=_maybe(U32),
        flow_label=_maybe(U32), filter_id=_maybe(U32),
    ),
    ies.QfiIE: dict(qfi=U8),
    ies.ApplyActionIE: dict(flags=U8),
    ies.OuterHeaderCreationIE: dict(teid=U32, address=U32),
    ies.OuterHeaderRemovalIE: dict(description=U8),
    ies.ReportTypeIE: dict(dldr=FLAG, usar=FLAG),
    qos_ies.GateStatusIE: dict(
        ul_gate=st.integers(0, 3), dl_gate=st.integers(0, 3)
    ),
    qos_ies.MbrIE: dict(ul_kbps=U64, dl_kbps=U64),
    qos_ies.GbrIE: dict(ul_kbps=U64, dl_kbps=U64),
    qos_ies.UrrIdIE: dict(rule_id=U32),
    qos_ies.MeasurementMethodIE: dict(volume=FLAG, duration=FLAG),
    qos_ies.VolumeThresholdIE: dict(total_bytes=U64),
    qos_ies.VolumeMeasurementIE: dict(
        total_bytes=U64, uplink_bytes=U64, downlink_bytes=U64
    ),
}
GROUPED = [cls for cls in ies.IE_REGISTRY.values() if cls.GROUPED]

any_scalar = st.one_of(
    [st.builds(cls, **fields) for cls, fields in SCALAR_FIELDS.items()]
)
#: Scalars and grouped IEs nested a few levels deep.
any_ie = st.recursive(
    any_scalar,
    lambda inner: st.builds(
        lambda cls, children: cls(children=children),
        st.sampled_from(GROUPED),
        st.lists(inner, max_size=4),
    ),
    max_leaves=12,
)


def instances_of(cls):
    if cls.GROUPED:
        return st.builds(cls, children=st.lists(any_ie, max_size=5))
    return st.builds(cls, **SCALAR_FIELDS[cls])


class TestWireSize:
    """The structural size is the encoded length, so a shared-memory N4
    leg that never serialises records the size a UDP one would send."""

    def test_every_registered_ie_has_a_strategy(self):
        assert set(SCALAR_FIELDS) | set(GROUPED) == set(ies.IE_REGISTRY.values())

    @pytest.mark.parametrize(
        "cls", list(ies.IE_REGISTRY.values()), ids=lambda cls: cls.__name__
    )
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_ie(self, cls, data):
        ie = data.draw(instances_of(cls))
        encoded = ie.encode()
        assert ie.wire_size() == len(encoded)
        assert ie.payload_size() == len(ie.payload()) == len(encoded) - 4

    @pytest.mark.parametrize(
        "cls", list(messages.MESSAGE_TYPES.values()), ids=lambda cls: cls.__name__
    )
    @settings(max_examples=25, deadline=None)
    @given(
        seid=U64,
        sequence=st.integers(0, 2**24 - 1),
        message_ies=st.lists(any_ie, max_size=6),
    )
    def test_message(self, cls, seid, sequence, message_ies):
        message = cls(seid=seid, sequence=sequence, ies=message_ies)
        assert message.wire_size() == len(message.encode())

    def test_every_builder_is_exercised_below(self):
        assert set(builder.__all__) == {
            "build_session_establishment",
            "build_path_switch", "build_buffering_update",
            "build_forward_update", "build_downlink_report",
        }

    def test_ies_size_of_nothing(self):
        assert ies.ies_size([]) == 0
        empty = messages.SessionDeletionRequest(seid=1)
        assert empty.wire_size() == len(empty.encode()) == 16

    @settings(max_examples=25, deadline=None)
    @given(
        seid=U64, sequence=st.integers(0, 2**24 - 1), address=U32, teid=U32,
        qer_id=_maybe(U32), urr_id=_maybe(U32), threshold=_maybe(U64),
        flags=st.tuples(FLAG, FLAG),
    )
    def test_every_builder_output(
        self, seid, sequence, address, teid, qer_id, urr_id, threshold, flags
    ):
        qos_rules = build_qos_rules(
            qer_id=qer_id or 1, mbr_ul_kbps=teid, mbr_dl_kbps=address,
            urr_id=urr_id, volume_threshold_bytes=threshold,
        )
        built = [
            build_session_establishment(
                seid, sequence, ue_ip=address, upf_address=address,
                ul_teid=teid, gnb_address=address, dl_teid=teid,
                smf_address=address, qos_rules=qos_rules if flags[0] else None,
                qer_id=qer_id, urr_id=urr_id,
            ),
            build_path_switch(
                seid, sequence, new_gnb_address=address, new_dl_teid=teid
            ),
            build_buffering_update(
                seid, sequence, notify_cp=flags[0], choose_new_teid=flags[1],
                upf_address=address,
            ),
            build_forward_update(
                seid, sequence, gnb_address=address, dl_teid=teid
            ),
            build_downlink_report(seid, sequence, pdr_id=teid % 2**16),
        ]
        for message in built:
            assert message.wire_size() == len(message.encode())
        assert ies.ies_size(qos_rules) == len(encode_ies(qos_rules))
