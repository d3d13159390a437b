"""A byte-level NAS codec (TS 24.501, simplified but real).

The N1 messages of :mod:`repro.ran.ngap` normally travel the simulator
as objects (the transport cost is identical for both systems), but a
genuine wire form is useful for trace generation and for validating
message sizes.  This codec implements the plain-5GS NAS header
(extended protocol discriminator, security header type, message type)
plus a TLV body, with encoders for the registration/authentication/
session vocabulary used by the procedures.

Encoded messages decode back to the same dataclasses; a property test
fuzzes the round trip.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Tuple, Type

from . import ngap

__all__ = ["encode_nas", "decode_nas", "NASCodecError"]

#: Extended protocol discriminators.
EPD_5GMM = 0x7E  # mobility management
EPD_5GSM = 0x2E  # session management

#: 5GMM message types (TS 24.501 Table 9.7.1).
MSG_REGISTRATION_REQUEST = 0x41
MSG_REGISTRATION_ACCEPT = 0x42
MSG_REGISTRATION_COMPLETE = 0x43
MSG_AUTHENTICATION_REQUEST = 0x56
MSG_AUTHENTICATION_RESPONSE = 0x57
MSG_SECURITY_MODE_COMMAND = 0x5D
MSG_SECURITY_MODE_COMPLETE = 0x5E
MSG_SERVICE_REQUEST = 0x4C
MSG_SERVICE_ACCEPT = 0x4E

#: 5GSM message types (Table 9.7.2).
MSG_PDU_SESSION_ESTABLISHMENT_REQUEST = 0xC1
MSG_PDU_SESSION_ESTABLISHMENT_ACCEPT = 0xC2

# IE tags (internal TLV vocabulary; 1-byte tag, 2-byte length).
_IE_SUPI = 0x01
_IE_SUCI = 0x02
_IE_GUTI = 0x03
_IE_RAND = 0x10
_IE_AUTN = 0x11
_IE_RES = 0x12
_IE_CIPHER = 0x20
_IE_INTEGRITY = 0x21
_IE_PDU_SESSION_ID = 0x30
_IE_DNN = 0x31
_IE_PDU_TYPE = 0x32
_IE_UE_IP = 0x33
_IE_SERVICE_TYPE = 0x40
_IE_REG_TYPE = 0x41


class NASCodecError(ValueError):
    """Malformed NAS bytes."""


def _tlv(tag: int, value: bytes) -> bytes:
    if len(value) > 0xFFFF:
        raise NASCodecError(f"IE {tag:#x} too long")
    return struct.pack("!BH", tag, len(value)) + value


def _text(tag: int, value: str) -> bytes:
    return _tlv(tag, value.encode("utf-8"))


def _parse_tlvs(body: bytes) -> Dict[int, bytes]:  # repro: noqa[W009] -- decode_nas's TLV reader (ROADMAP items 9 and 15)
    out: Dict[int, bytes] = {}
    pos = 0
    while pos < len(body):
        if pos + 3 > len(body):
            raise NASCodecError("truncated NAS IE header")
        tag, length = struct.unpack_from("!BH", body, pos)
        pos += 3
        value = body[pos : pos + length]
        if len(value) < length:
            raise NASCodecError(f"truncated NAS IE {tag:#x}")
        out[tag] = value
        pos += length
    return out


def _t(ies: Dict[int, bytes], tag: int, default: str = "") -> str:
    return ies[tag].decode("utf-8") if tag in ies else default


# ---------------------------------------------------------------------------
# Per-message encoders/decoders
# ---------------------------------------------------------------------------
def _enc_registration_request(msg: ngap.RegistrationRequest) -> bytes:
    return (
        _text(_IE_SUCI, msg.suci)
        + _text(_IE_SUPI, msg.supi)
        + _text(_IE_REG_TYPE, msg.registration_type)
    )


def _dec_registration_request(ies: Dict[int, bytes]) -> ngap.NASMessage:
    return ngap.RegistrationRequest(
        suci=_t(ies, _IE_SUCI),
        supi=_t(ies, _IE_SUPI),
        registration_type=_t(ies, _IE_REG_TYPE, "initial"),
    )


def _enc_registration_accept(msg: ngap.RegistrationAccept) -> bytes:
    return _text(_IE_GUTI, msg.guti)


def _dec_registration_accept(ies: Dict[int, bytes]) -> ngap.NASMessage:
    return ngap.RegistrationAccept(guti=_t(ies, _IE_GUTI))


def _enc_authentication_request(msg: ngap.AuthenticationRequest) -> bytes:
    return _tlv(_IE_RAND, bytes.fromhex(msg.rand)) + _tlv(
        _IE_AUTN, bytes.fromhex(msg.autn)
    )


def _dec_authentication_request(ies: Dict[int, bytes]) -> ngap.NASMessage:
    return ngap.AuthenticationRequest(
        rand=ies.get(_IE_RAND, b"").hex(),
        autn=ies.get(_IE_AUTN, b"").hex(),
    )


def _enc_authentication_response(msg: ngap.AuthenticationResponse) -> bytes:
    return _tlv(_IE_RES, bytes.fromhex(msg.res_star))


def _dec_authentication_response(ies: Dict[int, bytes]) -> ngap.NASMessage:
    return ngap.AuthenticationResponse(res_star=ies.get(_IE_RES, b"").hex())


def _enc_security_mode_command(msg: ngap.SecurityModeCommand) -> bytes:
    return _text(_IE_CIPHER, msg.ciphering) + _text(
        _IE_INTEGRITY, msg.integrity
    )


def _dec_security_mode_command(ies: Dict[int, bytes]) -> ngap.NASMessage:
    return ngap.SecurityModeCommand(
        ciphering=_t(ies, _IE_CIPHER, "NEA0"),
        integrity=_t(ies, _IE_INTEGRITY, "NIA0"),
    )


def _enc_empty(_msg: ngap.NASMessage) -> bytes:
    return b""


def _dec_security_mode_complete(_ies: Dict[int, bytes]) -> ngap.NASMessage:
    return ngap.SecurityModeComplete()


def _dec_registration_complete(_ies: Dict[int, bytes]) -> ngap.NASMessage:
    return ngap.RegistrationComplete()


def _dec_service_accept(_ies: Dict[int, bytes]) -> ngap.NASMessage:
    return ngap.ServiceAccept()


def _enc_service_request(msg: ngap.ServiceRequest) -> bytes:
    return _text(_IE_SERVICE_TYPE, msg.service_type)


def _dec_service_request(ies: Dict[int, bytes]) -> ngap.NASMessage:
    return ngap.ServiceRequest(
        service_type=_t(ies, _IE_SERVICE_TYPE, "data")
    )


def _enc_pdu_establishment_request(
    msg: ngap.PDUSessionEstablishmentRequest,
) -> bytes:
    return (
        _tlv(_IE_PDU_SESSION_ID, struct.pack("!B", msg.pdu_session_id))
        + _text(_IE_DNN, msg.dnn)
        + _text(_IE_PDU_TYPE, msg.pdu_type)
    )


def _dec_pdu_establishment_request(
    ies: Dict[int, bytes],
) -> ngap.NASMessage:
    return ngap.PDUSessionEstablishmentRequest(
        pdu_session_id=ies.get(_IE_PDU_SESSION_ID, b"\x01")[0],
        dnn=_t(ies, _IE_DNN, "internet"),
        pdu_type=_t(ies, _IE_PDU_TYPE, "IPV4"),
    )


def _enc_pdu_establishment_accept(
    msg: ngap.PDUSessionEstablishmentAccept,
) -> bytes:
    return (
        _tlv(_IE_PDU_SESSION_ID, struct.pack("!B", msg.pdu_session_id))
        + _text(_IE_UE_IP, msg.ue_ip)
    )


def _dec_pdu_establishment_accept(ies: Dict[int, bytes]) -> ngap.NASMessage:
    return ngap.PDUSessionEstablishmentAccept(
        pdu_session_id=ies.get(_IE_PDU_SESSION_ID, b"\x01")[0],
        ue_ip=_t(ies, _IE_UE_IP, "0.0.0.0"),
    )


_CODECS: Dict[
    Type[ngap.NASMessage], Tuple[int, int, Callable]
] = {
    ngap.RegistrationRequest: (
        EPD_5GMM, MSG_REGISTRATION_REQUEST, _enc_registration_request
    ),
    ngap.RegistrationAccept: (
        EPD_5GMM, MSG_REGISTRATION_ACCEPT, _enc_registration_accept
    ),
    ngap.RegistrationComplete: (
        EPD_5GMM, MSG_REGISTRATION_COMPLETE, _enc_empty
    ),
    ngap.AuthenticationRequest: (
        EPD_5GMM, MSG_AUTHENTICATION_REQUEST, _enc_authentication_request
    ),
    ngap.AuthenticationResponse: (
        EPD_5GMM, MSG_AUTHENTICATION_RESPONSE, _enc_authentication_response
    ),
    ngap.SecurityModeCommand: (
        EPD_5GMM, MSG_SECURITY_MODE_COMMAND, _enc_security_mode_command
    ),
    ngap.SecurityModeComplete: (
        EPD_5GMM, MSG_SECURITY_MODE_COMPLETE, _enc_empty
    ),
    ngap.ServiceRequest: (EPD_5GMM, MSG_SERVICE_REQUEST, _enc_service_request),
    ngap.ServiceAccept: (EPD_5GMM, MSG_SERVICE_ACCEPT, _enc_empty),
    ngap.PDUSessionEstablishmentRequest: (
        EPD_5GSM,
        MSG_PDU_SESSION_ESTABLISHMENT_REQUEST,
        _enc_pdu_establishment_request,
    ),
    ngap.PDUSessionEstablishmentAccept: (
        EPD_5GSM,
        MSG_PDU_SESSION_ESTABLISHMENT_ACCEPT,
        _enc_pdu_establishment_accept,
    ),
}

_DECODERS: Dict[Tuple[int, int], Callable] = {
    (EPD_5GMM, MSG_REGISTRATION_REQUEST): _dec_registration_request,
    (EPD_5GMM, MSG_REGISTRATION_ACCEPT): _dec_registration_accept,
    (EPD_5GMM, MSG_REGISTRATION_COMPLETE): _dec_registration_complete,
    (EPD_5GMM, MSG_AUTHENTICATION_REQUEST): _dec_authentication_request,
    (EPD_5GMM, MSG_AUTHENTICATION_RESPONSE): _dec_authentication_response,
    (EPD_5GMM, MSG_SECURITY_MODE_COMMAND): _dec_security_mode_command,
    (EPD_5GMM, MSG_SECURITY_MODE_COMPLETE): _dec_security_mode_complete,
    (EPD_5GMM, MSG_SERVICE_REQUEST): _dec_service_request,
    (EPD_5GMM, MSG_SERVICE_ACCEPT): _dec_service_accept,
    (EPD_5GSM, MSG_PDU_SESSION_ESTABLISHMENT_REQUEST):
        _dec_pdu_establishment_request,
    (EPD_5GSM, MSG_PDU_SESSION_ESTABLISHMENT_ACCEPT):
        _dec_pdu_establishment_accept,
}


def encode_nas(message: ngap.NASMessage) -> bytes:  # repro: noqa[W009] -- the NAS byte codec ROADMAP items 9 and 15 put on the path
    """Encode a NAS message: EPD + security header + type + IE TLVs."""
    entry = _CODECS.get(type(message))
    if entry is None:
        raise NASCodecError(
            f"no NAS codec for {type(message).__name__}"
        )
    epd, message_type, encoder = entry
    body = encoder(message)
    # Security header type 0 = plain NAS.
    return struct.pack("!BBB", epd, 0x00, message_type) + body


def decode_nas(data: bytes) -> ngap.NASMessage:  # repro: noqa[W009] -- the NAS byte codec ROADMAP items 9 and 15 put on the path
    """Decode NAS bytes back to the typed message."""
    if len(data) < 3:
        raise NASCodecError("truncated NAS header")
    epd, _security, message_type = struct.unpack_from("!BBB", data, 0)
    decoder = _DECODERS.get((epd, message_type))
    if decoder is None:
        raise NASCodecError(
            f"unknown NAS message: epd={epd:#x} type={message_type:#x}"
        )
    return decoder(_parse_tlvs(data[3:]))
