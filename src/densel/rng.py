"""Deterministic, splittable random-number streams.

Every Monte-Carlo routine in this package draws from an :class:`RngStream`,
identified by a 64-bit experiment seed plus a stream id ``(rep, tag)``.
Streams are backed by the counter-based Philox4x64-10 generator (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011), so the same
``(seed, rep, tag)`` triple produces bit-identical draws on every platform
and distinct triples behave as independent generators.  Replications can
therefore run in any order, or in parallel, without sharing state.

Philox block i of a stream is a pure function of (key, counter i), so
:func:`uniforms` computes any run of a stream's uniforms, or of many
streams' at once, with in-place uint64 array arithmetic, bit for bit those
of numpy's generator on the same key.  It is the package's one generator:
samples, replications and the concentration checks all draw with it, and
no command loads numpy's random module.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Philox4x64 round multipliers and Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_11 = np.uint64(11)


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


class RngStream(NamedTuple):
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


# Philox blocks per piece of :func:`uniforms`: a call works through pieces
# of at most this many (stream, block) pairs, so that its scratch holds
# 12 * 8 * 8192 bytes (768 KB) however many uniforms it returns.
PIECE_BLOCKS = 8192

# the multipliers as (2, 1, 1) arrays of their 32-bit halves, one row for
# each of the words 0 and 2 that a round multiplies
_M = np.array(_PHILOX_M, dtype=np.uint64).reshape(2, 1, 1)
_M_LO, _M_HI = _M & _LO32, _M >> _32


def _mulhi(x: np.ndarray, out: np.ndarray, a: np.ndarray, b: np.ndarray,
           c: np.ndarray) -> None:
    """High 64 bits of the 128-bit products _M * x into ``out``, from the
    32-bit halves of both factors, in the scratch a, b, c shaped like x;
    no partial sum overflows 64 bits."""
    np.bitwise_and(x, _LO32, out=a)                 # x_lo
    np.multiply(a, _M_LO, out=b)
    b >>= _32
    a *= _M_HI
    a += b                                          # u = x_lo m_hi + carry
    np.right_shift(x, _32, out=out)                 # x_hi
    np.multiply(out, _M_LO, out=b)
    out *= _M_HI
    np.bitwise_and(a, _LO32, out=c)
    b += c                                          # w = x_hi m_lo + u_lo
    a >>= _32
    out += a
    b >>= _32
    out += b


def uniforms(streams, n: int, start: int = 0) -> np.ndarray:
    """Uniforms start .. start + n - 1 in [0, 1) of each stream, one row
    per stream, bit for bit those of numpy's ``Philox`` generator on the
    stream's key after ``start`` draws.

    Philox4x64-10 on uint64 arrays: block i has the counter (i, 0, 0, 0)
    for i = 1, 2, ... (numpy's Philox increments its counter before each
    block), its four words are the next four outputs, and each output x
    gives the double (x >> 11) * 2**-53.  Uniform s is word s % 4 of block
    s // 4 + 1, so a run that starts inside a block drops that block's
    leading words.  The rounds run in place on scratch arrays, through
    pieces of at most ``PIECE_BLOCKS`` (stream, block) pairs; the words
    0 and 2, which a round multiplies, are one (2, streams, blocks) array
    and the words 1 and 3 another.
    """
    keys = np.array([s._key() for s in streams],
                    dtype=np.uint64).reshape(-1, 2)
    rows = len(keys)
    out = np.empty((rows, n))
    if rows == 0 or n == 0:
        return out
    first, skip = divmod(start, 4)      # block index (counter - 1), words
    blocks = -(-(skip + n) // 4)
    width = -(-blocks // -(-blocks // PIECE_BLOCKS))    # even pieces
    height = min(rows, max(1, PIECE_BLOCKS // width))
    # round r's key words (k0, k1) of every stream, as (2, streams, 1)
    weyl = np.array(_PHILOX_W, dtype=np.uint64)[:, None]
    round_keys = [(keys.T + weyl * np.uint64(r))[:, :, None]
                  for r in range(_PHILOX_ROUNDS)]
    scratch = np.empty((6, 2 * height * width), dtype=np.uint64)
    for r0 in range(0, rows, height):
        r1 = min(r0 + height, rows)
        for b0 in range(0, blocks, width):
            b1 = min(b0 + width, blocks)
            shape = (2, r1 - r0, b1 - b0)
            x, y, h, a, b, c = (s[:2 * (r1 - r0) * (b1 - b0)].reshape(shape)
                                for s in scratch)
            x[0] = np.arange(first + b0 + 1, first + b1 + 1, dtype=np.uint64)
            x[1] = 0
            y[...] = 0
            for r in range(_PHILOX_ROUNDS):
                _mulhi(x, h, a, b, c)
                h = h[::-1]                 # (hi of word 2, hi of word 0)
                h ^= y
                h ^= round_keys[r][:, r0:r1]
                np.multiply(x, _M, out=y[::-1])
                x, h = h, x
            # word k of block b is uniform 4 b + k - skip of this call
            for k, word in enumerate((x[0], y[0], x[1], y[1])):
                lo = max(b0, int(k < skip))
                hi = min(b1, (n + skip - k + 3) // 4)
                if lo >= hi:
                    continue
                word >>= _11
                col = 4 * lo + k - skip
                np.multiply(word[:, lo - b0:hi - b0], 2.0 ** -53,
                            out=out[r0:r1, col:col + 4 * (hi - lo) - 3:4])
    return out
