"""The exact penalty-constant path, jump rules and the slope pick.

``envelope_path`` computes, exactly, the map from the penalty constant K
to the selected model when the penalty is K times a per-model complexity:
each model is a line K -> contrast + K * delta, and the selected model is
the lower envelope of those lines, found by a convex-hull pass instead of a
K grid.  The jump detectors then read the calibration constant off the
path: either the breakpoint with the largest complexity drop, or the first
K beyond which the selected complexity falls under max_complexity / ln(n).
``slope_pick`` is the slope algorithm itself: K_min from either rule,
then the model selected at twice that constant.  The experiment labs feed
their arrays to ``envelope_path``.

Every path runs on one hull, ``lower_envelope``: it sorts and filters
a set of lines with arrays, then prunes the lines left, pass after pass,
also with arrays (``_prune``).  Only float lines (the Fourier
collection's) keep a relative tie tolerance.  Histogram contrasts and
complexities are rationals built from integer counts, so both histogram
labs hand in integer lines with exact units; the hull decides them by
integer cross-products alone, their breakpoints are ``Fraction``s, and the
jump argmax compares exact numbers.  A batch of integer rows (the
two-block lab's blocks) is filtered row by row and pruned in the same
passes, its breakpoints integer pairs.  Under either jump rule K_min is
the exact start of a segment, and the pick bisects the path at exact
2 * K_min.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .densities import _Frozen

__all__ = [
    "PathSegment",
    "SlopePath",
    "NoJumpError",
    "MAX_JUMP",
    "LOG_THRESHOLD",
    "lower_envelope",
    "envelope_path",
    "detect_kmin",
    "slope_pick",
]

MAX_JUMP = "max"
LOG_THRESHOLD = "log"


class NoJumpError(RuntimeError):
    """Raised when a path has no breakpoint to calibrate on."""


class PathSegment(NamedTuple):
    k_lo: float
    k_hi: float
    model_id: str
    delta: float
    contrast: float


class SlopePath(_Frozen):
    """The exact piecewise-constant map K -> selected model on [0, inf).

    ``delta_max`` is the largest complexity in the whole collection, not
    only on the path; the log-threshold rule is scaled by it.  On an exact
    path the segments' K, delta and contrast are ``Fraction``s or ints.
    """

    _fields = ("segments", "delta_max")

    def __init__(self, segments: tuple[PathSegment, ...], delta_max: float):
        if not segments:
            raise ValueError("a path needs at least one segment")
        self._set(segments, delta_max)

    @property
    def breakpoints(self) -> list[float]:
        return [seg.k_lo for seg in self.segments[1:]]

    def segment_at(self, k: float) -> PathSegment:
        """Segment active at K; a breakpoint belongs to its right segment."""
        return self.segments[self._position(k)]

    def _position(self, k) -> int:
        """Position of ``segment_at(k)``, K compared exactly with the
        segments' starts."""
        if k < 0.0:
            raise ValueError("the penalty constant is nonnegative")
        return bisect_right([seg.k_lo for seg in self.segments], k) - 1

    def model_at(self, k: float) -> str:
        return self.segment_at(k).model_id


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
    in an object array) are decided by integer cross-products alone and
    their breakpoints are ``Fraction``s.  Float lines (the Fourier
    collection's) count intercepts within one part in 1e12 as tied: float
    noise on an exact tie would otherwise open a sliver segment of width
    ~1e-16 that the jump detectors would see as a genuine complexity jump.

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
    if not exact:
        return order[pos], num / den
    starts = [Fraction(p, q) for p, q in zip(num.tolist(), den.tolist())]
    starts[0] = 0.0
    return order[pos], np.array(starts, dtype=object)


def _prune(s: np.ndarray, c: np.ndarray, inner: np.ndarray):
    """The lower envelope of lines in slope-decreasing order with strictly
    rising intercepts, the lines not marked ``inner`` staying.  Each pass
    drops every marked line that is not strictly convex with its two
    neighbours (its crossing with the previous line is not before its
    crossing with the next), until none drops: no line of the envelope
    ever drops, and a sequence strictly convex at every line is the
    envelope itself.

    Returns (positions, num, den): the lines left, each starting at its
    crossing with the line before it, num / den (0 / 1 at the first).
    Float lines compare crossings as quotients, as a chain would; where
    many crossings agree to rounding (long collinear runs), which sliver
    survives can differ from a chain's.  Integer lines compare only by
    cross-multiplying.  With B the largest |slope| or |intercept|, the
    cross-products stay within (2 B)^2: int64 holds them while
    (2 B + 1)^2 < 2^63 (for the two-block lab's lines, B <= n^3, up to
    n = 1,149), and past that the lines turn into Python ints."""
    if s.dtype.kind in "iu" or c.dtype.kind in "iu":
        bound = max(max(int(x.max(initial=0)), -int(x.min(initial=0)))
                    for x in (s, c))
        if (2 * bound + 1) ** 2 >= 2 ** 63:
            s, c = s.astype(object), c.astype(object)
    pos = np.arange(s.size)
    while True:
        ds, dc = s[:-1] - s[1:], c[1:] - c[:-1]
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


def envelope_path(contrasts: np.ndarray, deltas: np.ndarray,
                  model_id: Callable[[int], str], delta_max: float,
                  units: tuple) -> tuple[SlopePath, list[int]]:
    """Exact path of the lines contrasts[i] + K * deltas[i].

    ``units`` = (contrast unit, complexity unit) carries the lines to the
    path's scale: a segment's contrast is contrasts[i] * units[0], its
    delta deltas[i] * units[1], and its K the hull's K times
    units[0] / units[1].  Integer lines with ``Fraction`` units give an
    exact path; float lines already on the path's scale come with units
    (1, 1).  Returns the path and, per segment, the index of its line;
    only the lines on the envelope get an id, through ``model_id(index)``.
    Ties follow ``lower_envelope``.
    """
    deltas, contrasts = np.asarray(deltas), np.asarray(contrasts)
    if np.any(deltas < 0):
        raise ValueError("complexities must be >= 0")
    hull, starts = lower_envelope(deltas, contrasts)
    hull, starts = hull.tolist(), starts.tolist()
    c_unit, d_unit = units
    k_unit = c_unit / d_unit
    ks = [k * k_unit for k in starts] + [np.inf]
    deltas, contrasts = deltas.tolist(), contrasts.tolist()
    segs = tuple(
        PathSegment(k_lo=ks[pos], k_hi=ks[pos + 1], model_id=model_id(i),
                    delta=deltas[i] * d_unit, contrast=contrasts[i] * c_unit)
        for pos, i in enumerate(hull))
    return SlopePath(segments=segs, delta_max=float(delta_max)), hull


def _kmin_position(path: SlopePath, rule: str, n: int,
                   delta_max: float | None = None) -> int:
    """Position of the segment whose start is K_min under a jump rule."""
    segs = path.segments
    if rule == MAX_JUMP:
        drops = [segs[i].delta - segs[i + 1].delta
                 for i in range(len(segs) - 1)]
        return int(np.argmax(drops)) + 1
    if rule == LOG_THRESHOLD:
        if n < 3:
            raise ValueError("the log-threshold rule needs n >= 3")
        if delta_max is None:
            delta_max = path.delta_max
        thresh = delta_max / np.log(n)
        return next((i for i, seg in enumerate(segs) if seg.delta <= thresh),
                    len(segs) - 1)
    raise ValueError(f"unknown jump rule {rule!r}")


def detect_kmin(path: SlopePath, rule: str, n: int,
                delta_max: float | None = None) -> float:
    """Calibration constant from a path.

    ``max``: breakpoint with the largest complexity drop (earliest wins on
    ties).  ``log``: smallest K from which the selected complexity is at
    most ``delta_max / ln(n)``, ``delta_max`` defaulting to the path's;
    when no segment qualifies, the last breakpoint (or 0 for a one-segment
    path) is returned.
    """
    if rule == MAX_JUMP and len(path.segments) < 2:
        raise NoJumpError("path has a single segment, no jump to detect")
    return float(path.segments[_kmin_position(path, rule, n, delta_max)].k_lo)


def slope_pick(path: SlopePath, rule: str = MAX_JUMP,
               n: int = 0) -> tuple[int, float, str | None]:
    """The slope algorithm: (position of the picked segment, K_min, flag).

    K_min is the start of a segment, read off the path by the jump rule of
    ``detect_kmin`` (``log`` needs the sample size n), and the pick is the
    segment active at 2 * K_min, compared exactly on an exact path; K_min
    is returned as a float.  Under the ``max`` rule a one-segment path has
    no jump: its only model is picked at K_min = 0 and flagged
    ``no-jump-fallback``.
    """
    if rule == MAX_JUMP and len(path.segments) == 1:
        return 0, 0.0, "no-jump-fallback"
    k_min = path.segments[_kmin_position(path, rule, n)].k_lo
    return path._position(2 * k_min), float(k_min), None
