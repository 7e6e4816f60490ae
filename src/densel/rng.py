"""Deterministic, splittable random-number streams.

Every Monte-Carlo routine in this package draws from an :class:`RngStream`,
identified by a 64-bit experiment seed plus a stream id ``(rep, tag)``.
Streams are backed by the counter-based Philox4x64-10 generator (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011), so the same
``(seed, rep, tag)`` triple produces bit-identical draws on every platform
and distinct triples behave as independent generators.  Replications can
therefore run in any order, or in parallel, without sharing state.

Philox block i of a stream is a pure function of (key, counter i), so
:func:`uniforms` computes the first uniforms of many streams at once with
uint64 array arithmetic, bit for bit those of numpy's generator on the same
key, without importing ``numpy.random``.  Samples and replications draw
that way; :meth:`RngStream.generator` gives numpy's C generator, for
callers that draw far more than one sample's worth from one stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Philox4x64 round multipliers and Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


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
        """Fresh numpy generator positioned at the start of this stream;
        its ``random(n)`` equals ``uniforms([self], n)[0]``."""
        return np.random.Generator(np.random.Philox(key=self._key()))


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64 bits of the 128-bit products m * x, the high word
    summed from the 32-bit halves of both factors."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _32
    lo_hi, hi_lo = x_lo * m_hi, x_hi * m_lo
    mid = ((x_lo * m_lo) >> _32) + (lo_hi & _LO32) + (hi_lo & _LO32)
    hi = x_hi * m_hi + (lo_hi >> _32) + (hi_lo >> _32) + (mid >> _32)
    return hi, x * np.uint64(m)


def uniforms(streams, n: int) -> np.ndarray:
    """The first n uniforms in [0, 1) of each stream, one row per stream:
    row i equals ``streams[i].generator().random(n)`` bit for bit.

    Philox4x64-10 on uint64 arrays of shape (streams, ceil(n / 4)): block
    i has the counter (i, 0, 0, 0) for i = 1, 2, ... (numpy's Philox
    increments its counter before each block), its four words are the next
    four outputs, and each output x gives the double (x >> 11) * 2**-53.
    """
    keys = np.array([s._key() for s in streams],
                    dtype=np.uint64).reshape(-1, 2)
    blocks = -(-n // 4)
    k0, k1 = keys[:, :1], keys[:, 1:]
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64),
                         (len(keys), blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(len(keys), -1)
    return (words[:, :n] >> np.uint64(11)) * 2.0 ** -53
