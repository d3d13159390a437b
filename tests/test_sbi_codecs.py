"""Tests for the SBI serialization codecs (Fig 6's subjects)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sbi import (
    DescriptorCodec,
    FlatCodec,
    FlatView,
    JsonCodec,
    PostSmContextsRequest,
    ProtoCodec,
    SubscriptionDataRequest,
    UpdateSmContextRequest,
    all_codecs,
)
from repro.sbi.messages import MESSAGE_REGISTRY

BYTE_CODECS = [JsonCodec(), ProtoCodec(), FlatCodec()]


def sample_messages():
    """One default-valued instance of every registered message type."""
    return [cls() for cls in MESSAGE_REGISTRY.values()]


def materialize(decoded, cls):
    """FlatViews decode lazily; force the typed message."""
    if isinstance(decoded, FlatView):
        return cls.from_dict({key: decoded[key] for key in decoded.keys()})
    return decoded


class TestRoundTrips:
    @pytest.mark.parametrize(
        "codec", all_codecs(), ids=lambda codec: codec.name
    )
    def test_every_message_roundtrips(self, codec):
        for message in sample_messages():
            decoded = materialize(
                codec.decode(codec.encode(message)), type(message)
            )
            assert type(decoded) is type(message)
            assert decoded.to_dict() == message.to_dict()

    def test_from_dict_ignores_unknown_fields(self):
        message = UpdateSmContextRequest.from_dict(
            {"up_cnx_state": "ACTIVATED", "novel_field": 1}
        )
        assert message.up_cnx_state == "ACTIVATED"

    def test_proto_smaller_than_json(self):
        message = PostSmContextsRequest()
        assert len(ProtoCodec().encode(message)) < len(
            JsonCodec().encode(message)
        )

    def test_descriptor_codec_is_identity(self):
        codec = DescriptorCodec()
        message = PostSmContextsRequest()
        assert codec.encode(message) is message
        assert codec.decode(message) is message


class TestProtoValues:
    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers(min_value=-(2**60), max_value=2**60)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.text(max_size=40)
            | st.binary(max_size=40),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=8), children, max_size=4),
            max_leaves=25,
        )
    )
    def test_value_roundtrip_property(self, value):
        from repro.sbi.codecs import _decode_value, _encode_value

        out = bytearray()
        _encode_value(out, value)
        decoded, consumed = _decode_value(bytes(out), 0)
        assert consumed == len(out)
        if isinstance(value, tuple):
            value = list(value)
        assert decoded == value

    def test_negative_integers(self):
        from repro.sbi.codecs import _decode_value, _encode_value

        for value in (-1, -127, -128, -300000, 0, 1, 300000):
            out = bytearray()
            _encode_value(out, value)
            decoded, _ = _decode_value(bytes(out), 0)
            assert decoded == value

    def test_unencodable_type_raises(self):
        from repro.sbi.codecs import _encode_value

        with pytest.raises(TypeError):
            _encode_value(bytearray(), object())


class TestFlatView:
    def test_lazy_field_access(self):
        codec = FlatCodec()
        message = SubscriptionDataRequest()
        view = codec.decode(codec.encode(message))
        assert view["supi"] == message.supi
        assert view["dataset_names"] == message.dataset_names

    def test_contains_and_get(self):
        codec = FlatCodec()
        view = codec.decode(codec.encode(PostSmContextsRequest()))
        assert "supi" in view
        assert "nonexistent" not in view
        assert view.get("nonexistent", "fallback") == "fallback"

    def test_missing_field_raises(self):
        codec = FlatCodec()
        view = codec.decode(codec.encode(PostSmContextsRequest()))
        with pytest.raises(KeyError):
            view["nonexistent"]

    def test_truncated_buffer_raises(self):
        with pytest.raises(ValueError):
            FlatView(b"\x00\x00")

    def test_decode_is_constant_work(self):
        """Constructing a view must not parse values (near-zero
        deserialization, Fig 6's FlatBuffers property)."""
        codec = FlatCodec()
        encoded = codec.encode(PostSmContextsRequest())
        view = codec.decode(encoded)
        # Neither the vtable nor any value has been parsed yet.
        assert view._vtable is None


class TestSampleMessages:
    def test_registry_covers_samples(self):
        from repro.sbi import MESSAGE_REGISTRY

        samples = sample_messages()
        assert len(samples) == len(MESSAGE_REGISTRY)
        assert len({type(s) for s in samples}) == len(samples)

    def test_message_names_match_classes(self):
        for message in sample_messages():
            assert message.name == type(message).__name__

    def test_default_payloads_are_shared_but_to_dict_copies(self):
        """Default-constructed messages hold the same nested payload
        (nothing rebuilds it per exchange); the copy ``to_dict`` hands
        out is the caller's to write."""
        for cls in map(type, sample_messages()):
            first, second = cls(), cls()
            copy = first.to_dict()
            assert copy == second.to_dict()
            nested = [
                name for name, value in copy.items()
                if isinstance(value, (dict, list))
            ]
            for name in nested:
                assert getattr(first, name) is getattr(second, name)
                assert copy[name] is not getattr(first, name)
                copy[name].clear()
            assert not nested or copy != second.to_dict()
            assert first == second == cls()

    def test_nested_levels_of_the_copy_are_copies_too(self):
        from repro.sbi import NFDiscoveryResponse

        first = NFDiscoveryResponse()
        copy = first.to_dict()
        copy["nf_instances"][0]["nfServices"][0]["ipEndPoints"].append("x")
        copy["nf_instances"][0]["nfType"] = "UPF"
        assert NFDiscoveryResponse().to_dict() == first.to_dict() != copy
        assert NFDiscoveryResponse().nf_instances[0]["nfType"] == "SMF"
