"""Real serialization codecs for SBI messages.

The paper's Fig 6 compares the serialization/deserialization/protocol
cost of exchanging a ``PostSmContextsRequest`` using JSON (free5GC),
Protobuf (Buyakar et al.), FlatBuffers (Neutrino) and L25GC's
shared-memory descriptor passing.  These codecs are genuine
implementations, not cost constants — the benchmarks measure them:

* :class:`JsonCodec` — the stdlib ``json`` round trip.
* :class:`ProtoCodec` — a protobuf-style compact binary format with
  varint-tagged fields and length-delimited submessages.
* :class:`FlatCodec` — a FlatBuffers-style format: encode builds an
  offset table; *decode is O(1)* and field access reads directly from
  the buffer (:class:`FlatView`), which is exactly why FlatBuffers'
  deserialization cost in Fig 6 is near zero.
* :class:`DescriptorCodec` — L25GC: the message object itself is the
  shared-memory payload; encode/decode pass a reference.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Optional, Tuple

from .messages import MESSAGE_REGISTRY, SBIMessage

__all__ = [
    "Codec",
    "JsonCodec",
    "ProtoCodec",
    "FlatCodec",
    "FlatView",
    "DescriptorCodec",
    "all_codecs",
]


class Codec:
    """Interface: ``encode`` a message, ``decode`` it back."""

    name = "abstract"

    def encode(self, message: SBIMessage) -> Any:
        raise NotImplementedError

    def decode(self, data: Any) -> Any:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# JSON (free5GC's REST bodies)
# ---------------------------------------------------------------------------
class JsonCodec(Codec):
    """UTF-8 JSON with a type-name envelope, as REST/OpenAPI would."""

    name = "json"

    def encode(self, message: SBIMessage) -> bytes:
        envelope = {"@type": message.name, "body": message.to_dict()}
        return json.dumps(envelope, separators=(",", ":")).encode("utf-8")

    def decode(self, data: bytes) -> SBIMessage:
        envelope = json.loads(data.decode("utf-8"))
        cls = MESSAGE_REGISTRY[envelope["@type"]]
        return cls.from_dict(envelope["body"])


# ---------------------------------------------------------------------------
# Protobuf-style compact binary
# ---------------------------------------------------------------------------
_WT_VARINT = 0
_WT_LEN = 2
_WT_F64 = 1

_T_NONE = 0
_T_BOOL_FALSE = 1
_T_BOOL_TRUE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_LIST = 6
_T_DICT = 7
_T_BYTES = 8


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        # zigzag for negatives
        value = (-value << 1) | 1
    else:
        value = value << 1
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    shift = 0
    result = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
    if result & 1:
        return -(result >> 1), pos
    return result >> 1, pos


def _encode_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_BOOL_TRUE)
    elif value is False:
        out.append(_T_BOOL_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        _write_varint(out, value)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out.extend(struct.pack("!d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        _write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, bytes):
        out.append(_T_BYTES)
        _write_varint(out, len(value))
        out.extend(value)
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        _write_varint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        _write_varint(out, len(value))
        for key, item in value.items():
            raw = str(key).encode("utf-8")
            _write_varint(out, len(raw))
            out.extend(raw)
            _encode_value(out, item)
    else:
        raise TypeError(f"cannot encode value of type {type(value).__name__}")


def _decode_value(data: bytes, pos: int) -> Tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_BOOL_TRUE:
        return True, pos
    if tag == _T_BOOL_FALSE:
        return False, pos
    if tag == _T_INT:
        return _read_varint(data, pos)
    if tag == _T_FLOAT:
        return struct.unpack("!d", data[pos : pos + 8])[0], pos + 8
    if tag == _T_STR:
        length, pos = _read_varint(data, pos)
        return data[pos : pos + length].decode("utf-8"), pos + length
    if tag == _T_BYTES:
        length, pos = _read_varint(data, pos)
        return bytes(data[pos : pos + length]), pos + length
    if tag == _T_LIST:
        count, pos = _read_varint(data, pos)
        items: List[Any] = []
        for _ in range(count):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return items, pos
    if tag == _T_DICT:
        count, pos = _read_varint(data, pos)
        result: Dict[str, Any] = {}
        for _ in range(count):
            klen, pos = _read_varint(data, pos)
            key = data[pos : pos + klen].decode("utf-8")
            pos += klen
            value, pos = _decode_value(data, pos)
            result[key] = value
        return result, pos
    raise ValueError(f"unknown type tag: {tag}")


class ProtoCodec(Codec):
    """A protobuf-like length-delimited binary format.

    Roughly 2-3x smaller and several times faster than JSON for the
    SBI message shapes, matching the relative ordering in Fig 6.
    """

    name = "protobuf"

    def encode(self, message: SBIMessage) -> bytes:
        out = bytearray()
        name = message.name.encode("utf-8")
        _write_varint(out, len(name))
        out.extend(name)
        _encode_value(out, message.to_dict())
        return bytes(out)

    def decode(self, data: bytes) -> SBIMessage:
        name_len, pos = _read_varint(data, 0)
        name = data[pos : pos + name_len].decode("utf-8")
        pos += name_len
        body, _ = _decode_value(data, pos)
        return MESSAGE_REGISTRY[name].from_dict(body)


# ---------------------------------------------------------------------------
# FlatBuffers-style zero-parse format
# ---------------------------------------------------------------------------
class FlatView:
    """Lazy field access over a flat-encoded buffer.

    Construction (the 'deserialization' step) only reads the 8-byte
    header — O(1) regardless of message size.  Individual fields decode
    on demand, and the vtable itself parses lazily on first access.
    """

    __slots__ = ("_data", "_vtable_offset", "_vtable")

    def __init__(self, data: bytes):
        if len(data) < 8:
            raise ValueError("truncated flat buffer")
        (self._vtable_offset,) = struct.unpack_from("!I", data, 0)
        self._data = data
        self._vtable: Optional[Dict[str, int]] = None

    def _load_vtable(self) -> Dict[str, int]:
        if self._vtable is None:
            pos = self._vtable_offset
            data = self._data
            (name_len,) = struct.unpack_from("!H", data, pos)
            pos += 2 + name_len  # the type name: the caller knows the type
            (count,) = struct.unpack_from("!H", data, pos)
            pos += 2
            table: Dict[str, int] = {}
            for _ in range(count):
                (klen,) = struct.unpack_from("!H", data, pos)
                pos += 2
                key = data[pos : pos + klen].decode("utf-8")
                pos += klen
                (offset,) = struct.unpack_from("!I", data, pos)
                pos += 4
                table[key] = offset
            self._vtable = table
        return self._vtable

    def keys(self) -> List[str]:
        return list(self._load_vtable().keys())

    def __contains__(self, key: str) -> bool:
        return key in self._load_vtable()

    def __getitem__(self, key: str) -> Any:
        offset = self._load_vtable()[key]
        value, _ = _decode_value(self._data, offset)
        return value

    def get(self, key: str, default: Any = None) -> Any:
        if key in self:
            return self[key]
        return default


class FlatCodec(Codec):
    """FlatBuffers-style encoding: offset table + in-place values."""

    name = "flatbuffers"

    def encode(self, message: SBIMessage) -> bytes:
        body = message.to_dict()
        out = bytearray(b"\x00" * 8)  # header: vtable offset + reserved
        offsets: Dict[str, int] = {}
        for key, value in body.items():
            offsets[key] = len(out)
            _encode_value(out, value)
        vtable_offset = len(out)
        name = message.name.encode("utf-8")
        out.extend(struct.pack("!H", len(name)))
        out.extend(name)
        out.extend(struct.pack("!H", len(offsets)))
        for key, offset in offsets.items():
            raw = key.encode("utf-8")
            out.extend(struct.pack("!H", len(raw)))
            out.extend(raw)
            out.extend(struct.pack("!I", offset))
        struct.pack_into("!I", out, 0, vtable_offset)
        return bytes(out)

    def decode(self, data: bytes) -> FlatView:
        return FlatView(data)


# ---------------------------------------------------------------------------
# Shared-memory descriptor passing (L25GC)
# ---------------------------------------------------------------------------
class DescriptorCodec(Codec):
    """L25GC's approach: no serialization at all.

    The message lives in the shared hugepage pool; NFs exchange a
    descriptor pointing at it.  ``encode``/``decode`` are identity
    functions — the benchmark measures exactly that.
    """

    name = "shm-descriptor"

    def encode(self, message: SBIMessage) -> SBIMessage:
        return message

    def decode(self, data: SBIMessage) -> SBIMessage:
        return data


def all_codecs() -> List[Codec]:
    """The four codecs of Fig 6, in the paper's order."""
    return [JsonCodec(), ProtoCodec(), FlatCodec(), DescriptorCodec()]
