"""Deterministic, splittable random streams.

Every random draw in the package comes from a counter-based Philox
generator keyed by ``(seed, label)``. Streams keyed by a stable label
(e.g. a parameter's qualified name) are independent of how many other
streams exist, so two models built from the same seed initialise shared
submodules identically even when the rest of their parameter sets differ.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_key(label: str) -> int:
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RngSource:
    """Factory of named and sequential random streams for one run."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._counter = 0

    def stream(self, label: str) -> np.random.Generator:
        """Stream fully determined by (seed, label)."""
        key = np.array([self.seed, _label_key(label)], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def next_stream(self, label: str = "seq") -> np.random.Generator:
        """Fresh stream per call; sequence determined by seed and call order."""
        self._counter += 1
        return self.stream(f"{label}#{self._counter}")
