"""The lower envelope of a set of lines K -> intercept + K * slope on
[0, inf): one pruning pass, ``_prune``, for every set of lines.

The lines are sorted and filtered with arrays, then pruned pass after
pass, also with arrays: every line that is not strictly convex with its
two neighbours drops, until none does.  Float lines (the Fourier
collection's) keep a relative tie tolerance; integer lines are decided
exactly by cross-products, in int64 wherever it holds them.  A batch of
integer rows in rising slope order (the blocks of both histogram labs)
is filtered row by row and pruned in the same passes; any other integer
lines, over integer denominators (the two-block lab's pair lines, or
ones), go through ``_rational_envelope``.
"""

from __future__ import annotations

from functools import cmp_to_key

import numpy as np

__all__ = ["lower_envelope"]

_TIE_RTOL = 1e-12

# Entries per block of rows the batched integer hull filters at once;
# bounds its temporaries for any number of rows.
_HULL_CHUNK = 4096


def lower_envelope(slopes: np.ndarray, intercepts: np.ndarray, sizes=None):
    """Lower envelopes of the lines K -> intercept + K * slope on [0, inf).

    Returns (indices, start_ks): the active pieces in slope-decreasing
    order, each one's index and start K (0 at the first).  Of lines with
    equal slope only the smallest intercept survives (smallest index on
    full ties), and a breakpoint belongs to the flatter of its two lines.

    One row of float lines (integer ones take ``_rational_envelope``) is
    sorted and filtered with arrays (a line drops when a flatter line is
    at least as cheap at K = 0), then ``_prune`` prunes the lines left.
    Intercepts within one part in 1e12 count as tied: float noise on an
    exact tie would otherwise open a sliver segment of width ~1e-16 that
    the jump detectors would see as a genuine complexity jump.

    A 2-D batch of integer rows, row r holding its lines in its first
    ``sizes[r]`` entries in increasing slope order (as cell counts rise),
    is filtered row by row and pruned in the same passes (see
    ``_pruned_envelopes``).  Indices are then positions in the flattened
    batch, row after row, and start_ks is a pair (numerators,
    denominators) of integer arrays, 0 / 1 at each row's first piece.
    """
    slopes, intercepts = np.asarray(slopes), np.asarray(intercepts)
    if slopes.size == 0:
        raise ValueError("a path needs at least one line")
    if slopes.ndim == 2:
        if slopes.dtype.kind not in "iu" or intercepts.dtype.kind not in "iu":
            raise ValueError("a batch of rows needs integer lines")
        return _pruned_envelopes(slopes, intercepts, np.asarray(sizes))
    if slopes.dtype.kind in "iuO" and intercepts.dtype.kind in "iuO":
        raise ValueError("one row of integer lines takes slope.envelope_path")
    slopes, intercepts = slopes.astype(float), intercepts.astype(float)
    order = np.lexsort((intercepts, -slopes))  # (-slope, intercept, index)
    s, c = slopes[order], intercepts[order]
    live = np.append(True, s[1:] != s[:-1])  # drop the later of equal slopes
    order, s, c = order[live], s[live], c[live]
    # drop a line when a later (flatter) line is at least as cheap at K = 0
    # up to the tie tolerance; what is left rises strictly
    tie = c[:-1] + _TIE_RTOL * np.maximum(np.abs(c[:-1]), 1.0)
    keep = np.append(~(np.minimum.accumulate(c[:0:-1])[::-1] <= tie), True)
    order, s, c = order[keep], s[keep], c[keep]
    pos, num, den = _prune(s, c, np.ones(max(s.size - 2, 0), dtype=bool))
    return order[pos], num / den


def _rational_envelope(slopes, intercepts, dens):
    """(indices, num, den) of the lower envelope on [0, inf) of the lines
    K -> (intercept + K * slope) / den, all three integers and den > 0,
    ties as in ``lower_envelope``.

    Every line that a strictly flatter line beats strictly at K = 0 drops
    first, by the correctly rounded floats of the slopes and intercepts
    (from Python ints past 2^53); rounding being monotone, the exact lines
    compare so too.  The lines left are sorted by their floats and checked
    pair by pair by cross-products, which sort them where equal floats
    hide their order.  The first of each run of equal slopes is pruned
    with the others over all K, and the pieces that end at K <= 0 go.
    The cross-products stay in int64 while every |slope| and |intercept|
    times the largest den is below 2^62 (for the two-block lab's pair
    lines, at most n^4 / 4 times n^3 / 4, up to n = 689), and are Python
    ints past that."""
    s, c, d = (np.asarray(x) for x in (slopes, intercepts, dens))
    top, d_max = max(_magnitude(s), _magnitude(c)), int(d.max())
    if top * d_max >= 2 ** 62 or max(top, d_max) >= 2 ** 53:
        s, c, d = (x.astype(object) for x in (s, c, d))

    def steps(order):
        a, b = order[:-1], order[1:]
        return s[a] * d[b] - s[b] * d[a], c[b] * d[a] - c[a] * d[b]

    def compare(i, k):
        """Line i against line k in (-slope, intercept, index) order, by
        cross-products in Python ints: negative when i comes first."""
        si, ci, di, sk, ck, dk = (int(x[j]) for j in (i, k) for x in (s, c, d))
        return (sk * di - si * dk) or (ci * dk - ck * di) or (i - k)

    fs, fc = (s / d).astype(float), (c / d).astype(float)
    # drop a line when a strictly flatter line is strictly cheaper at K = 0
    # by the floats (the cheapest line before its run of equal float slopes)
    rise = np.argsort(fs)
    flat, cost = fs[rise], fc[rise]
    cheapest = np.append(np.inf, np.minimum.accumulate(cost))
    order = np.sort(rise[cost <= cheapest[np.searchsorted(flat, flat)]])
    # sort the lines left, in index order, by (-slope, intercept, index)
    order = order[np.lexsort((fc[order], -fs[order]))]
    flatter, dearer = steps(order)
    if np.any((flatter < 0) | ((flatter == 0) & (dearer < 0))):
        order = np.array(sorted(order.tolist(), key=cmp_to_key(compare)),
                         dtype=np.int64)
        flatter, _ = steps(order)
    order = order[np.concatenate(([True], flatter != 0))]
    pos, num, den = _prune(s[order], c[order],
                           np.ones(max(order.size - 2, 0), dtype=bool),
                           d[order])
    first = int(np.count_nonzero(num[1:] <= 0))
    pos, num, den = pos[first:], num[first:], den[first:]
    num[0], den[0] = 0, 1
    return order[pos], num, den


def _magnitude(x: np.ndarray) -> int:
    """The largest |entry| of an integer array, as a Python int."""
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _prune(s: np.ndarray, c: np.ndarray, inner: np.ndarray, d=None):
    """The lower envelope of lines in slope-decreasing order with strictly
    rising intercepts, the lines not marked ``inner`` staying.  Each pass
    drops every marked line that is not strictly convex with its two
    neighbours (its crossing with the previous line is not before its
    crossing with the next), until none drops: no line of the envelope
    ever drops, and a sequence strictly convex at every line is the
    envelope itself.  With integer denominators ``d`` the lines are
    (c + K s) / d.

    Returns (positions, num, den): the lines left, each starting at its
    crossing with the line before it, num / den (0 / 1 at the first).
    Float lines compare crossings as quotients, as a chain would; where
    many crossings agree to rounding (long collinear runs), which sliver
    survives can differ from a chain's.  Integer lines are decided
    exactly, by cross-products alone.  With B the largest |num| or |den|
    of a crossing (2 |slope| or 2 |intercept| times the largest d), the
    cross-products stay within B^2, and int64 holds them while
    (B + 1)^2 < 2^63 (for the histogram labs' block lines, B <= 2 n^3, up
    to n = 1,149; for the two-block lab's pair lines, B <= n^7 / 8, up to
    n = 30); past that the lines turn into Python ints."""
    if s.dtype.kind in "iu":
        bound = 2 * max(_magnitude(s), _magnitude(c)) * (
            1 if d is None else int(d.max()))
        if (bound + 1) ** 2 >= 2 ** 63:
            s, c = s.astype(object), c.astype(object)
            d = None if d is None else d.astype(object)
    pos = np.arange(s.size)
    while True:
        if d is None:
            ds, dc = s[:-1] - s[1:], c[1:] - c[:-1]
        else:
            ds = s[:-1] * d[1:] - s[1:] * d[:-1]
            dc = c[1:] * d[:-1] - c[:-1] * d[1:]
        if s.dtype.kind == "f":
            k = dc / ds
            drop = k[:-1] >= k[1:]
        else:
            drop = dc[:-1] * ds[1:] >= dc[1:] * ds[:-1]
        drop &= inner
        if not drop.any():
            break
        keep = np.concatenate(([True], ~drop, [True]))
        pos, s, c, inner = pos[keep], s[keep], c[keep], inner[~drop]
        if d is not None:
            d = d[keep]
    num, den = np.zeros_like(c), np.ones_like(s)
    num[1:], den[1:] = dc, ds
    return pos, num, den


def _pruned_envelopes(slopes: np.ndarray, intercepts: np.ndarray,
                      sizes: np.ndarray):
    """``lower_envelope`` of a batch of integer rows: each row is filtered
    as one row is, in blocks of rows of ``_HULL_CHUNK`` entries, and the
    lines left are pruned all rows at once, each row's first and last
    lines staying.  Breakpoints are integer (numerator, denominator)
    pairs."""
    rows, width = slopes.shape
    step = max(1, _HULL_CHUNK // width)
    parts = [_row_filter(slopes[r:r + step], intercepts[r:r + step],
                         sizes[r:r + step], r)
             for r in range(0, rows, step)]
    idx, row, s, c = (np.concatenate(part) for part in zip(*parts))
    head = np.ones(idx.size + 1, dtype=bool)
    head[1:-1] = row[1:] != row[:-1]
    pos, num, den = _prune(s, c, ~(head[1:-2] | head[2:-1]))
    row = row[pos]
    head = np.ones(pos.size, dtype=bool)
    head[1:] = row[1:] != row[:-1]
    num[head], den[head] = 0, 1
    return idx[pos], (num, den)


def _row_filter(slopes, intercepts, sizes, row0: int):
    """The lines of a block of rows, first row ``row0``, cheaper at K = 0
    than every flatter line of their row, as (flat index, row, slope,
    intercept) arrays in slope-decreasing order row by row."""
    rows, width = slopes.shape
    pos = np.arange(width)
    live = pos < sizes[:, None]
    if not np.all((slopes[:, 1:] > slopes[:, :-1]) | ~live[:, 1:]):
        raise ValueError("the lines of a row must rise in slope")
    # a line is cheaper than every earlier (flatter) line of its row
    live[:, 1:] &= (intercepts[:, 1:]
                    < np.minimum.accumulate(intercepts, axis=1)[:, :-1])
    # slope-decreasing order is each row reversed
    at = np.flatnonzero(live[:, ::-1])
    at += width - 1 - 2 * (at % width)
    return (row0 * width + at, row0 + at // width, slopes.ravel()[at],
            intercepts.ravel()[at])
