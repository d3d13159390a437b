"""Control-plane message schemas for the Service Based Interface.

These are faithful (if trimmed) Python counterparts of the OpenAPI
datatypes 3GPP specifies for the 5GC SBI (TS 29.502, 29.509, 29.518,
29.507...).  free5GC generates Go structs from the same specifications;
we define dataclasses with ``to_dict``/``from_dict`` so the codecs in
:mod:`repro.sbi.codecs` can serialize genuinely representative payloads.

The message registry maps each message name to its class so transports
can reconstruct typed objects after decoding.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Type

__all__ = [
    "SBIMessage",
    "PostSmContextsRequest",
    "PostSmContextsResponse",
    "UpdateSmContextRequest",
    "UpdateSmContextResponse",
    "UEAuthenticationRequest",
    "UEAuthenticationResponse",
    "AuthConfirmationRequest",
    "N1N2MessageTransfer",
    "N1N2MessageTransferResponse",
    "AmPolicyCreateRequest",
    "SmPolicyCreateRequest",
    "SubscriptionDataRequest",
    "SubscriptionDataResponse",
    "NFDiscoveryRequest",
    "NFDiscoveryResponse",
    "MESSAGE_REGISTRY",
    "register_message",
    "sample_messages",
]

MESSAGE_REGISTRY: Dict[str, Type["SBIMessage"]] = {}


def _shared(payload: Any) -> Any:
    """A field whose default is ``payload`` itself, not a copy of it.

    Every default-constructed instance holds the *same* nested object:
    messages are frozen, nothing may mutate one after it is sent (the
    sanitizer enforces that), and :meth:`SBIMessage.to_dict` deep-copies
    before a codec or a caller gets to write.  Rebuilding the nested
    dicts per instance was most of what a discovery exchange cost.
    """
    return field(default_factory=lambda: payload)


def register_message(cls: Type["SBIMessage"]) -> Type["SBIMessage"]:
    """Class decorator adding a message type to the registry."""
    MESSAGE_REGISTRY[cls.__name__] = cls
    return cls


@dataclass(frozen=True)
class SBIMessage:
    """Base class for all SBI messages."""

    @property
    def name(self) -> str:
        return type(self).__name__

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form consumed by the codecs."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SBIMessage":
        """Rebuild a message, ignoring unknown keys (forward compat)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@register_message
@dataclass(frozen=True)
class PostSmContextsRequest(SBIMessage):
    """AMF -> SMF: create an SM context (TS 29.502 SmContextCreateData).

    This is the exact message the paper uses for Fig 6's serialization
    study.
    """

    supi: str = "imsi-208930000000003"
    pei: str = "imeisv-4370816125816151"
    pdu_session_id: int = 1
    dnn: str = "internet"
    s_nssai: Dict[str, Any] = _shared({"sst": 1, "sd": "010203"})
    serving_nf_id: str = "0ca2dd1c-4b0c-4a29-88ad-6ba40b2f13d1"
    serving_network: Dict[str, str] = _shared({"mcc": "208", "mnc": "93"})
    guami: Dict[str, Any] = _shared(
        {
            "plmnId": {"mcc": "208", "mnc": "93"},
            "amfId": "cafe00",
        }
    )
    an_type: str = "3GPP_ACCESS"
    rat_type: str = "NR"
    ue_location: Dict[str, Any] = _shared(
        {
            "nrLocation": {
                "tai": {"plmnId": {"mcc": "208", "mnc": "93"}, "tac": "000001"},
                "ncgi": {
                    "plmnId": {"mcc": "208", "mnc": "93"},
                    "nrCellId": "000000010",
                },
            }
        }
    )
    ue_time_zone: str = "+08:00"
    sm_context_status_uri: str = (
        "http://amf.5gc.mnc093.mcc208:8000/namf-callback/v1/"
        "smContextStatus/imsi-208930000000003/1"
    )
    n1_sm_msg: str = "2e0101c1ffff91a12801007b000780000a00000d00"
    pcf_id: str = "6a0e1e4e-5f26-4b3b-9b4d-c9e2f1a7b310"


@register_message
@dataclass(frozen=True)
class PostSmContextsResponse(SBIMessage):
    """SMF -> AMF: SM context created."""

    sm_context_ref: str = "urn:uuid:9e1b2c3d-1"
    status: int = 201
    allocated_ue_ip: str = "10.60.0.1"
    n2_sm_info: str = "88000a0f0e0a2e0501"
    n2_sm_info_type: str = "PDU_RES_SETUP_REQ"


@register_message
@dataclass(frozen=True)
class UpdateSmContextRequest(SBIMessage):
    """AMF -> SMF: update an SM context (handover, service request)."""

    sm_context_ref: str = "urn:uuid:9e1b2c3d-1"
    up_cnx_state: str = "ACTIVATING"
    ho_state: Optional[str] = None
    target_id: Optional[Dict[str, Any]] = None
    n2_sm_info: Optional[str] = None
    n2_sm_info_type: Optional[str] = None
    cause: Optional[str] = None
    an_type_can_be_changed: bool = False


@register_message
@dataclass(frozen=True)
class UpdateSmContextResponse(SBIMessage):
    """SMF -> AMF: SM context updated."""

    status: int = 200
    up_cnx_state: str = "ACTIVATED"
    ho_state: Optional[str] = None
    n2_sm_info: Optional[str] = None


@register_message
@dataclass(frozen=True)
class UEAuthenticationRequest(SBIMessage):
    """AMF -> AUSF: initiate 5G-AKA (TS 29.509)."""

    supi_or_suci: str = (
        "suci-0-208-93-0000-0-0-0000000003"
    )
    serving_network_name: str = "5G:mnc093.mcc208.3gppnetwork.org"
    resynchronization_info: Optional[Dict[str, str]] = None


@register_message
@dataclass(frozen=True)
class UEAuthenticationResponse(SBIMessage):
    """AUSF -> AMF: authentication context with the 5G-AKA challenge."""

    auth_type: str = "5G_AKA"
    rand: str = "a2e1f8d90b4c6e1735fa0d2246c8b9e1"
    autn: str = "bb2c61d3f8e0800032f9c04dd7b8a1c5"
    hxres_star: str = "c4a1d0e9b36f2278a5d4e8f1903b7c62"
    auth_ctx_id: str = "authctx-0001"
    links: Dict[str, Any] = _shared(
        {
            "5g-aka": {
                "href": "http://ausf.5gc.mnc093.mcc208:8000/"
                "nausf-auth/v1/ue-authentications/authctx-0001/5g-aka-confirmation"
            }
        }
    )


@register_message
@dataclass(frozen=True)
class AuthConfirmationRequest(SBIMessage):
    """AMF -> AUSF: RES* confirmation."""

    res_star: str = "d1e2f3a4b5c6d7e8f90a1b2c3d4e5f60"
    auth_ctx_id: str = "authctx-0001"


@register_message
@dataclass(frozen=True)
class N1N2MessageTransfer(SBIMessage):
    """SMF -> AMF: deliver N1 (NAS) / N2 (NGAP) payloads to the RAN.

    Used for paging (DL data notification) and session setup.
    """

    n1_message_container: Optional[Dict[str, str]] = None
    n2_info_container: Dict[str, Any] = _shared(
        {
            "n2InformationClass": "SM",
            "smInfo": {
                "pduSessionId": 1,
                "n2InfoContent": {
                    "ngapIeType": "PDU_RES_SETUP_REQ",
                    "ngapData": {"contentId": "N2SmInformation"},
                },
            },
        }
    )
    pdu_session_id: int = 1
    skip_ind: bool = False
    last_msg_indication: bool = False


@register_message
@dataclass(frozen=True)
class N1N2MessageTransferResponse(SBIMessage):
    """AMF -> SMF: transfer outcome (may indicate 'attempting to reach UE')."""

    cause: str = "N1_N2_TRANSFER_INITIATED"
    status: int = 200


@register_message
@dataclass(frozen=True)
class AmPolicyCreateRequest(SBIMessage):
    """AMF -> PCF: create the AM policy association (TS 29.507)."""

    notification_uri: str = (
        "http://amf.5gc.mnc093.mcc208:8000/namf-callback/v1/am-policy/1"
    )
    supi: str = "imsi-208930000000003"
    access_type: str = "3GPP_ACCESS"
    pei: str = "imeisv-4370816125816151"
    user_loc: Dict[str, Any] = _shared(
        {
            "nrLocation": {
                "tai": {"plmnId": {"mcc": "208", "mnc": "93"}, "tac": "000001"}
            }
        }
    )
    rat_type: str = "NR"


@register_message
@dataclass(frozen=True)
class SmPolicyCreateRequest(SBIMessage):
    """SMF -> PCF: create the SM policy association (TS 29.512)."""

    supi: str = "imsi-208930000000003"
    pdu_session_id: int = 1
    dnn: str = "internet"
    pdu_session_type: str = "IPV4"
    notification_uri: str = (
        "http://smf.5gc.mnc093.mcc208:8000/nsmf-callback/v1/sm-policy/1"
    )
    sl_nssai: Dict[str, Any] = _shared({"sst": 1, "sd": "010203"})
    ipv4_address: str = "10.60.0.1"


@register_message
@dataclass(frozen=True)
class SubscriptionDataRequest(SBIMessage):
    """AMF/SMF -> UDM: fetch subscription data (TS 29.503)."""

    supi: str = "imsi-208930000000003"
    dataset_names: List[str] = _shared(["AM", "SMF_SEL", "UEC_SMF"])
    plmn_id: Dict[str, str] = _shared({"mcc": "208", "mnc": "93"})


@register_message
@dataclass(frozen=True)
class SubscriptionDataResponse(SBIMessage):
    """UDM -> AMF/SMF: the subscription profile."""

    am_data: Dict[str, Any] = _shared(
        {
            "gpsis": ["msisdn-886912345678"],
            "subscribedUeAmbr": {"uplink": "1 Gbps", "downlink": "2 Gbps"},
            "nssai": {
                "defaultSingleNssais": [{"sst": 1, "sd": "010203"}],
            },
        }
    )
    smf_sel_data: Dict[str, Any] = _shared(
        {
            "subscribedSnssaiInfos": {
                "01010203": {"dnnInfos": [{"dnn": "internet"}]}
            }
        }
    )


@register_message
@dataclass(frozen=True)
class NFDiscoveryRequest(SBIMessage):
    """Any NF -> NRF: discover instances of a target NF type."""

    target_nf_type: str = "SMF"
    requester_nf_type: str = "AMF"
    service_names: List[str] = _shared(["nsmf-pdusession"])
    snssais: List[Dict[str, Any]] = _shared([{"sst": 1, "sd": "010203"}])


@register_message
@dataclass(frozen=True)
class NFDiscoveryResponse(SBIMessage):
    """NRF -> requester: matching NF profiles."""

    validity_period: int = 100
    nf_instances: List[Dict[str, Any]] = _shared(
        [
            {
                "nfInstanceId": "9e1b2c3d-4f5a-6b7c-8d9e-0f1a2b3c4d5e",
                "nfType": "SMF",
                "nfStatus": "REGISTERED",
                "ipv4Addresses": ["127.0.0.2"],
                "nfServices": [
                    {
                        "serviceInstanceId": "nsmf-pdusession",
                        "serviceName": "nsmf-pdusession",
                        "versions": [
                            {"apiVersionInUri": "v1", "apiFullVersion": "1.0.0"}
                        ],
                        "scheme": "http",
                        "ipEndPoints": [
                            {"ipv4Address": "127.0.0.2", "port": 8000}
                        ],
                    }
                ],
            }
        ]
    )


def sample_messages() -> List[SBIMessage]:
    """One default-valued instance of every registered message type.

    Used by the serialization benchmarks (Figs 6 and 9) and by codec
    round-trip property tests.
    """
    return [cls() for cls in MESSAGE_REGISTRY.values()]
