"""Traffic generation and measurement (the MoonGen/Wireshark stand-ins)."""

from .generator import ConstantRateGenerator
from .measurement import LatencySeries, percentile

__all__ = [
    "ConstantRateGenerator",
    "LatencySeries",
    "percentile",
]
