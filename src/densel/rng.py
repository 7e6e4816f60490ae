"""Deterministic, splittable random-number streams.

Every Monte-Carlo routine in this package draws from an :class:`RngStream`,
identified by a 64-bit experiment seed plus a stream id ``(rep, tag)``.
Streams are backed by the counter-based Philox generator, so the same
``(seed, rep, tag)`` triple produces bit-identical draws on every platform
and distinct triples behave as independent generators.  Replications can
therefore run in any order, or in parallel, without sharing state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(z: int) -> int:
    """One round of the SplitMix64 finalizer (stable across platforms)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _hash_tag(tag: str) -> int:
    """FNV-1a over the UTF-8 bytes of the purpose tag."""
    h = 0xCBF29CE484222325
    for b in tag.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Parameters
    ----------
    seed : int
        Experiment-level seed (any Python int; folded to 64 bits).
    rep : int
        Replication index.
    tag : str
        Purpose tag, e.g. ``"data"`` or ``"weights"``.
    """

    seed: int
    rep: int = 0
    tag: str = "data"

    def _key(self) -> np.ndarray:
        lo = _splitmix64((self.rep & _MASK64) ^ _hash_tag(self.tag))
        return np.array([self.seed & _MASK64, lo], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=self._key()))
