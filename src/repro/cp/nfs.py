"""The 5GC control-plane network functions.

Each NF is a small, stateful service: the AMF owns UE contexts, the SMF
owns SM contexts and drives N4, the AUSF derives 5G-AKA vectors (real
hash-chain derivations, not placeholders), the UDM/UDR hold the
subscriber database, the PCF issues policies and the NRF is the service
registry.  They communicate exclusively through the
:class:`~repro.core.transport.MessageBus`, so flipping the bus channel
between HTTP/JSON and shared memory converts free5GC into L25GC without
touching any NF logic — exactly the paper's claim of 3GPP compliance.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .context import RegistrationState, SMContext, UEContext

__all__ = [
    "AMF", "SMF", "AUSF", "UDM", "PCF", "NRF", "AuthVector",
    "SERVING_NETWORK", "NON3GPP_NETWORK", "res_star", "at_res",
]

#: The serving network name 5G-AKA binds RES* to.
SERVING_NETWORK = "5G:mnc093.mcc208.3gppnetwork.org"
#: The access network name EAP-AKA' binds CK'/IK' to (untrusted
#: non-3GPP access through an N3IWF).
NON3GPP_NETWORK = "5G:NR:non3gpp"


@dataclass
class AuthVector:
    """A 5G-AKA authentication vector."""

    rand: str
    autn: str
    hxres_star: str
    kausf: str


def _digest(*parts: str) -> str:
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:32]


def res_star(key: str, rand: str, serving_network: str) -> str:
    """5G-AKA RES*: what the UE answers a challenge with, and the XRES*
    the AUSF expects — one derivation for both sides."""
    return _digest("xres*", key, rand, serving_network)


def at_res(key: str, rand: str, network_name: str) -> str:
    """EAP-AKA' AT_RES, derived alike by the UE and the AUSF."""
    return _digest("at-res", key, rand, network_name)


class AMF:
    """Access and Mobility Management Function."""

    def __init__(self, name: str = "amf"):
        self.name = name
        self.ue_contexts: Dict[str, UEContext] = {}
        self._guti_counter = itertools.count(1)
        self.handled = 0

    def context(self, supi: str) -> UEContext:
        if supi not in self.ue_contexts:
            self.ue_contexts[supi] = UEContext(supi=supi)
        return self.ue_contexts[supi]

    def begin_authentication(self, supi: str) -> None:
        ctx = self.context(supi)
        ctx.state = RegistrationState.AUTHENTICATING
        ctx.bump()

    def complete_security(self, supi: str, kseaf: str) -> None:
        ctx = self.context(supi)
        ctx.security_context = kseaf
        ctx.state = RegistrationState.SECURITY
        ctx.bump()

    def complete_registration(self, supi: str, gnb_id: int) -> str:
        ctx = self.context(supi)
        ctx.state = RegistrationState.REGISTERED
        ctx.serving_gnb_id = gnb_id
        ctx.cm_connected = True
        ctx.guti = f"5g-guti-20893cafe{next(self._guti_counter):010d}"
        ctx.bump()
        return ctx.guti

    def deregister(self, supi: str) -> None:
        """Forget the registration: a later one starts from scratch and
        gets a fresh GUTI."""
        ctx = self.context(supi)
        ctx.state = RegistrationState.DEREGISTERED
        ctx.guti = None
        ctx.security_context = None
        ctx.serving_gnb_id = None
        ctx.cm_connected = False
        ctx.bump()

    def release_connection(self, supi: str) -> None:
        ctx = self.context(supi)
        ctx.cm_connected = False
        ctx.bump()

    def resume_connection(self, supi: str) -> None:
        ctx = self.context(supi)
        ctx.cm_connected = True
        ctx.bump()

    def relocate(self, supi: str, target_gnb_id: int) -> None:
        ctx = self.context(supi)
        ctx.serving_gnb_id = target_gnb_id
        ctx.bump()

    def handle_message(self, message: Any, bus: Any) -> None:
        self.handled += 1

    # -- resiliency hooks --------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        return {
            supi: ctx.snapshot() for supi, ctx in self.ue_contexts.items()
        }

    def restore(self, data: Dict[str, Any]) -> None:
        self.ue_contexts = {
            supi: UEContext.restore(ctx) for supi, ctx in data.items()
        }


class SMF:
    """Session Management Function."""

    def __init__(self, name: str = "smf"):
        self.name = name
        #: Live SM contexts by ``(supi, pdu_session_id)``.
        self.sm_contexts: Dict[Tuple[str, int], SMContext] = {}
        self._seid_counter = itertools.count(1)
        self._seq_counter = itertools.count(1)
        self.handled = 0

    def create_sm_context(
        self, supi: str, pdu_session_id: int, dnn: str = "internet"
    ) -> SMContext:
        seid = next(self._seid_counter)
        ctx = SMContext(
            supi=supi, pdu_session_id=pdu_session_id, seid=seid, dnn=dnn
        )
        self.sm_contexts[supi, pdu_session_id] = ctx
        return ctx

    def context_for(self, supi: str, pdu_session_id: int) -> SMContext:
        ctx = self.sm_contexts.get((supi, pdu_session_id))
        if ctx is None:
            raise KeyError(f"no SM context for {supi}/{pdu_session_id}")
        return ctx

    def release_sm_context(self, supi: str, pdu_session_id: int) -> None:
        """Forget a released session, so a re-established one with the
        same id resolves to its own (new) SEID."""
        del self.sm_contexts[supi, pdu_session_id]

    def next_sequence(self) -> int:
        return next(self._seq_counter)

    def handle_message(self, message: Any, bus: Any) -> None:
        self.handled += 1

    def snapshot(self) -> Dict[str, Any]:
        return {
            ctx.seid: ctx.snapshot() for ctx in self.sm_contexts.values()
        }

    def restore(self, data: Dict[str, Any]) -> None:
        contexts = map(SMContext.restore, data.values())
        self.sm_contexts = {
            (ctx.supi, ctx.pdu_session_id): ctx for ctx in contexts
        }


class AUSF:
    """Authentication Server Function (5G-AKA, hash-chain derived)."""

    def __init__(self, name: str = "ausf"):
        self.name = name
        self.pending: Dict[str, AuthVector] = {}
        self.handled = 0

    def challenge(self, supi: str, serving_network: str, key: str) -> AuthVector:
        """Derive the AKA vector from the subscriber key."""
        rand = _digest("rand", supi, serving_network)
        autn = _digest("autn", key, rand)
        vector = AuthVector(
            rand=rand,
            autn=autn,
            hxres_star=_digest("hxres*", res_star(key, rand, serving_network)),
            kausf=_digest("kausf", key, rand),
        )
        self.pending[supi] = vector
        return vector

    def confirm(self, supi: str, response: str, key: str) -> Optional[str]:
        """Verify RES*; returns KSEAF on success, None on failure."""
        vector = self.pending.get(supi)
        if vector is None:
            return None
        if response != res_star(key, vector.rand, SERVING_NETWORK):
            return None
        del self.pending[supi]
        return _digest("kseaf", vector.kausf)

    # -- EAP-AKA' (RFC 5448 / TS 33.501 Annex F) --------------------------
    def eap_aka_prime_challenge(
        self, supi: str, network_name: str, key: str
    ) -> AuthVector:
        """EAP-AKA' challenge for non-3GPP access (via N3IWF).

        CK'/IK' bind the keys to the access network name, which is what
        distinguishes AKA' from plain AKA.
        """
        rand = _digest("eap-rand", supi, network_name)
        ck_prime = _digest("ck'", key, rand, network_name)
        ik_prime = _digest("ik'", key, rand, network_name)
        vector = AuthVector(
            rand=rand,
            autn=_digest("eap-autn", key, rand),
            hxres_star=_digest("mk", ik_prime, ck_prime, supi),
            kausf=_digest("emsk", ik_prime, ck_prime),
        )
        self.pending[f"eap:{supi}"] = vector
        return vector

    def eap_aka_prime_confirm(
        self, supi: str, response: str, network_name: str, key: str
    ) -> Optional[str]:
        """Verify the AT_RES; returns KSEAF (from EMSK) on success."""
        vector = self.pending.get(f"eap:{supi}")
        if vector is None:
            return None
        if response != at_res(key, vector.rand, network_name):
            return None
        del self.pending[f"eap:{supi}"]
        return _digest("kseaf", vector.kausf)

    def handle_message(self, message: Any, bus: Any) -> None:
        self.handled += 1


class UDM:
    """Unified Data Management + Repository (subscriber database)."""

    def __init__(self, name: str = "udm"):
        self.name = name
        self.subscribers: Dict[str, Dict[str, Any]] = {}
        self.handled = 0

    def provision(
        self, supi: str, key: str = "465b5ce8b199b49faa5f0a2ee238a6bc"
    ) -> None:
        """Add a subscriber record (the free5GC test-subscriber shape)."""
        self.subscribers[supi] = {
            "key": key,
            "am_data": {
                "subscribedUeAmbr": {"uplink": "1 Gbps", "downlink": "2 Gbps"},
                "nssai": {"defaultSingleNssais": [{"sst": 1, "sd": "010203"}]},
            },
            "sm_data": {"dnnConfigurations": {"internet": {"pduSessionTypes": ["IPV4"]}}},
        }

    def subscriber_key(self, supi: str) -> str:
        if supi not in self.subscribers:
            raise KeyError(f"unknown subscriber: {supi}")
        return self.subscribers[supi]["key"]

    def subscription_data(self, supi: str, dataset: str) -> Dict[str, Any]:
        if supi not in self.subscribers:
            raise KeyError(f"unknown subscriber: {supi}")
        return self.subscribers[supi].get(dataset, {})

    def deconceal_suci(self, suci: str) -> str:
        """Map a SUCI back to its SUPI (ECIES deconcealment, modeled)."""
        # suci-0-<mcc>-<mnc>-0000-0-0-<msin> -> imsi-<mcc><mnc><msin>
        parts = suci.split("-")
        if len(parts) >= 8 and parts[0] == "suci":
            return f"imsi-{parts[2]}{parts[3]}{parts[7]}"
        return suci

    def handle_message(self, message: Any, bus: Any) -> None:
        self.handled += 1


class PCF:
    """Policy Control Function."""

    def __init__(self, name: str = "pcf"):
        self.name = name
        self.am_policies: Dict[str, Dict[str, Any]] = {}
        self.sm_policies: Dict[str, Dict[str, Any]] = {}
        self._policy_counter = itertools.count(1)
        self.handled = 0

    def create_am_policy(self, supi: str) -> str:
        policy_id = f"am-policy-{next(self._policy_counter)}"
        self.am_policies[supi] = {
            "id": policy_id,
            "rfsp": 1,
            "serviceAreaRestriction": None,
        }
        return policy_id

    def create_sm_policy(self, supi: str, pdu_session_id: int) -> str:
        policy_id = f"sm-policy-{next(self._policy_counter)}"
        self.sm_policies[f"{supi}/{pdu_session_id}"] = {
            "id": policy_id,
            "sessionRules": {"rule-1": {"authSessAmbr": {"uplink": "1 Gbps"}}},
            "pccRules": {"pcc-1": {"precedence": 255, "qfi": 9}},
        }
        return policy_id

    def delete_am_policy(self, supi: str) -> None:
        self.am_policies.pop(supi, None)

    def delete_sm_policy(self, supi: str, pdu_session_id: int) -> None:
        self.sm_policies.pop(f"{supi}/{pdu_session_id}", None)

    def handle_message(self, message: Any, bus: Any) -> None:
        self.handled += 1


class NRF:
    """NF Repository Function: the service registry."""

    def __init__(self, name: str = "nrf"):
        self.name = name
        self.profiles: Dict[str, Dict[str, Any]] = {}
        #: ``profiles`` by ``nfType`` then instance id, in registration
        #: order: every SBI exchange discovers, few calls register.
        self._by_type: Dict[str, Dict[str, Dict[str, Any]]] = {}
        self.discoveries = 0
        self.handled = 0

    def register_nf(self, nf_type: str, instance_id: str, address: str) -> None:
        previous = self.profiles.get(instance_id)
        if previous is not None and previous["nfType"] != nf_type:
            del self._by_type[previous["nfType"]][instance_id]
        profile = {
            "nfType": nf_type,
            "nfInstanceId": instance_id,
            "address": address,
            "nfStatus": "REGISTERED",
        }
        self.profiles[instance_id] = profile
        self._by_type.setdefault(nf_type, {})[instance_id] = profile

    def discover(self, target_nf_type: str) -> List[Dict[str, Any]]:
        self.discoveries += 1
        return list(self._by_type.get(target_nf_type, {}).values())

    def handle_message(self, message: Any, bus: Any) -> None:
        self.handled += 1
