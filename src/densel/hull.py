"""The lower envelope of a set of lines K -> intercept + K * slope on
[0, inf): one pruning pass, ``_prune``, for every set of lines.

The lines are sorted and filtered with arrays, then pruned pass after
pass, also with arrays: every line that is not strictly convex with its
two neighbours drops, until none does.  Float lines (the Fourier
collection's) keep a relative tie tolerance; integer lines are decided
exactly, and so are lines over integer denominators (the two-block lab's
merged cut lines), in int64 wherever it holds them.  A batch of integer
rows (the two-block lab's blocks) is filtered row by row and pruned in
the same passes.  The exact slope paths of ``slope`` run on these.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = ["lower_envelope"]

_TIE_RTOL = 1e-12

# Entries per block of rows the batched integer hull filters at once;
# bounds its temporaries for any number of rows.
_HULL_CHUNK = 4096


def lower_envelope(slopes: np.ndarray, intercepts: np.ndarray, sizes=None):
    """Lower envelopes of the lines K -> intercept + K * slope on [0, inf).

    Returns (indices, start_ks): the active pieces in slope-decreasing
    order, each one's index and the K at which it starts; the first piece
    starts at K = 0.  Among lines with equal slope only the smallest
    intercept survives (smallest index on full ties), and a breakpoint
    belongs to the flatter of its two lines, so the selected slope is
    right-continuous in K.

    One row of lines is sorted and filtered with arrays (a line is dropped
    when a flatter line is at least as cheap at K = 0), then ``_prune``
    prunes the lines left.  Integer lines (integer dtypes, or Python ints
    in an object array) are decided exactly and their breakpoints are
    ``Fraction``s.  Float lines (the Fourier collection's) count
    intercepts within one part in 1e12 as tied: float noise on an exact
    tie would otherwise open a sliver segment of width ~1e-16 that the
    jump detectors would see as a genuine complexity jump.

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
    exact = slopes.dtype.kind in "iuO" and intercepts.dtype.kind in "iuO"
    if not exact:
        slopes = slopes.astype(float, copy=False)
        intercepts = intercepts.astype(float, copy=False)
    order, num, den = _filtered_envelope(slopes, intercepts)
    if not exact:
        return order, num / den
    starts = [Fraction(p, q) for p, q in zip(num.tolist(), den.tolist())]
    starts[0] = 0.0
    return order, np.array(starts, dtype=object)


def _filtered_envelope(slopes: np.ndarray, intercepts: np.ndarray):
    """(indices, num, den) of ``lower_envelope`` on one row of lines, float
    or integer: sorted and filtered with arrays, then pruned."""
    exact = slopes.dtype.kind != "f"
    # sort by (-slope, intercept, index); lines already in increasing slope
    # order (dimensions) are simply reversed
    if np.all(slopes[1:] > slopes[:-1]):
        order = np.arange(slopes.size - 1, -1, -1)
    else:
        order = np.lexsort((intercepts, -slopes))
    s, c = slopes[order], intercepts[order]
    live = np.ones(s.size, dtype=bool)
    live[1:] = s[1:] != s[:-1]          # drop the later of equal slopes
    order, s, c = order[live], s[live], c[live]
    # drop a line when a later (flatter) line is at least as cheap at K = 0
    # up to the tie tolerance; what is left rises strictly
    tie = c[:-1]
    if not exact:
        tie = np.maximum(np.abs(tie), 1.0)
        tie *= _TIE_RTOL
        tie += c[:-1]
    keep = np.ones(s.size, dtype=bool)
    keep[:-1] = ~(np.minimum.accumulate(c[:0:-1])[::-1] <= tie)
    order, s, c = order[keep], s[keep], c[keep]
    pos, num, den = _prune(s, c, np.ones(max(s.size - 2, 0), dtype=bool))
    return order[pos], num, den


def _rational_envelope(slopes, intercepts, dens):
    """(indices, num, den) of the lower envelope on [0, inf) of the lines
    K -> (intercept + K * slope) / den, all three integers and den > 0,
    ties as in ``lower_envelope``.

    The lines are sorted by their float slopes and intercepts, correctly
    rounded, so unequal floats order them; adjacent lines are checked by
    cross-products, and if a float tie hides an order they are sorted as
    ``Fraction``s.  The first of each run of equal slopes is pruned with
    the others over all K, and the pieces that end at K <= 0 go.  The
    cross-products stay in int64 while every |slope| and |intercept| times
    the largest den is below 2^62 (for the two-block lab's merged lines,
    at most n^4 / 4 times n^3 / 4, up to n = 689), and are Python ints
    past that."""
    s, c, d = (np.asarray(x) for x in (slopes, intercepts, dens))
    if max(_magnitude(s), _magnitude(c)) * int(d.max()) >= 2 ** 62:
        s, c, d = (x.astype(object) for x in (s, c, d))

    def steps(order):
        a, b = order[:-1], order[1:]
        return s[a] * d[b] - s[b] * d[a], c[b] * d[a] - c[a] * d[b]

    order = np.lexsort(((c / d).astype(float), -(s / d).astype(float)))
    flatter, dearer = steps(order)
    if np.any((flatter < 0) | ((flatter == 0) & (dearer < 0))):
        order = np.array(sorted(range(s.size), key=lambda i: (
            Fraction(-int(s[i]), int(d[i])), Fraction(int(c[i]), int(d[i])),
            i)), dtype=np.int64)
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
    exactly.  With B the largest |num| or |den| of a crossing (2 |slope|
    or 2 |intercept| times the largest d), their cross-products stay
    within B^2, and int64 holds them while (B + 1)^2 < 2^63 (for the
    two-block lab's block lines, B <= 2 n^3, up to n = 1,149).  Past that,
    while B < 2^53 (the two-block lab's merged lines, B <= n^7 / 8, up to
    n = 255), the crossings' floats are exact and their quotients
    correctly rounded, so unequal quotients order the crossings and only
    equal ones are cross-multiplied, in Python ints; past that the lines
    turn into Python ints."""
    quotients = s.dtype.kind == "f"
    if not quotients and s.dtype != object:
        bound = 2 * max(_magnitude(s), _magnitude(c)) * (
            1 if d is None else int(d.max()))
        if (bound + 1) ** 2 >= 2 ** 63:
            quotients = bound < 2 ** 53
            if not quotients:
                s, c = s.astype(object), c.astype(object)
                d = None if d is None else d.astype(object)
    pos = np.arange(s.size)
    while True:
        if d is None:
            ds, dc = s[:-1] - s[1:], c[1:] - c[:-1]
        else:
            ds = s[:-1] * d[1:] - s[1:] * d[:-1]
            dc = c[1:] * d[:-1] - c[:-1] * d[1:]
        if quotients:
            k = dc / ds
            drop = k[:-1] >= k[1:]
            if s.dtype.kind != "f":
                for i in np.flatnonzero(k[:-1] == k[1:]).tolist():
                    drop[i] = (int(dc[i]) * int(ds[i + 1])
                               >= int(dc[i + 1]) * int(ds[i]))
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
