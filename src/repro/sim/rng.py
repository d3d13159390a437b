"""Seeded randomness helpers for reproducible simulations.

Every stochastic element of the models draws from a :class:`StreamRNG`,
which derives independent named substreams from a single root seed.  Two
runs with the same root seed therefore produce identical traces even if
components are constructed in a different order.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["StreamRNG"]


class StreamRNG:  # repro: noqa[W009] -- the seeded-stream route that lint R002's message names for stochastic models
    """A family of independent, named random streams under one seed.

    >>> rng = StreamRNG(42)
    >>> a = rng.stream("arrivals")
    >>> b = rng.stream("failures")
    >>> a is rng.stream("arrivals")
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (memoized) substream for ``name``."""
        if name not in self._streams:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode("utf-8")
            ).digest()
            self._streams[name] = random.Random(
                int.from_bytes(digest[:8], "big")
            )
        return self._streams[name]

    def fork(self, name: str) -> "StreamRNG":
        """Derive a child RNG family, e.g. one per simulated node."""
        digest = hashlib.sha256(f"{self.seed}/{name}".encode("utf-8")).digest()
        return StreamRNG(int.from_bytes(digest[:8], "big"))
