"""Control plane: NFs, contexts, 5GC assembly, 3GPP procedures."""

from .context import HOState, RegistrationState, SMContext, UEContext
from .core5g import SYSTEMS, FiveGCore, SystemConfig
from .nfs import AMF, AUSF, NRF, PCF, SMF, UDM, AuthVector
from .procedures import EventResult, ProcedureRunner

__all__ = [
    "HOState",
    "RegistrationState",
    "SMContext",
    "UEContext",
    "FiveGCore",
    "SystemConfig",
    "SYSTEMS",
    "AMF",
    "AUSF",
    "NRF",
    "PCF",
    "SMF",
    "UDM",
    "AuthVector",
    "EventResult",
    "ProcedureRunner",
]
