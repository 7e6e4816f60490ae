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
rows of lines with arrays, then runs one monotone chain over the lines
left.  Float lines (Fourier, and the two-block lab's per-block envelopes,
a batch of rows at once) keep a relative tie tolerance.  Histogram
contrasts and complexities are rationals built from integer counts, so the
regular-histogram lab hands in integer lines with exact units; the chain
decides them exactly (correctly rounded float crossings, and integer
cross-multiplication where two crossings round alike), their breakpoints
are ``Fraction``s, and the jump argmax compares exact numbers.  Under
either jump rule K_min is the exact start of a segment, and the pick
bisects the path at exact 2 * K_min.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

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


@dataclass(frozen=True)
class PathSegment:
    k_lo: float
    k_hi: float
    model_id: str
    delta: float
    contrast: float


@dataclass(frozen=True)
class SlopePath:
    """The exact piecewise-constant map K -> selected model on [0, inf).

    ``delta_max`` is the largest complexity in the whole collection, not
    only on the path; the log-threshold rule is scaled by it.  On an exact
    path the segments' K, delta and contrast are ``Fraction``s or ints.
    """

    segments: tuple[PathSegment, ...]
    delta_max: float

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a path needs at least one segment")

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

# Entries per block of rows the float hull sorts and filters at once; bounds
# its temporaries for any number of rows.
_HULL_CHUNK = 4096


def lower_envelope(slopes: np.ndarray, intercepts: np.ndarray):
    """Lower envelopes of the lines K -> intercept + K * slope on [0, inf).

    Returns (indices, start_ks) as arrays: the active pieces in
    slope-decreasing order, each one's index and the K at which it starts;
    the first piece starts at K = 0.  Among lines with equal slope only the
    smallest intercept survives (smallest index on full ties), and a
    breakpoint belongs to the flatter of its two lines, so the selected
    slope is right-continuous in K.

    The lines come as one row or as a 2-D batch of rows, each row its own
    set of lines; float rows mark absent entries (padding) with NaN slopes.
    Indices are positions in the flattened input, row after row.  Every
    row is sorted and filtered with arrays: a line is dropped when a
    flatter line is at least as cheap at K = 0.  Float intercepts within
    one part in 1e12 count as tied (float noise on an exact tie would
    otherwise open a sliver segment of width ~1e-16 that the jump
    detectors would see as a genuine complexity jump); integer intercepts
    tie only when equal.  The monotone chain then runs once over the lines
    left in all rows.  Integer lines (integer slopes and intercepts) are
    decided exactly, and their breakpoints are ``Fraction``s.
    """
    slopes, intercepts = np.asarray(slopes), np.asarray(intercepts)
    if slopes.size == 0:
        raise ValueError("a path needs at least one line")
    exact = slopes.dtype.kind in "iu" and intercepts.dtype.kind in "iu"
    if not exact:
        slopes = slopes.astype(float, copy=False)
        intercepts = intercepts.astype(float, copy=False)
    slopes, intercepts = np.atleast_2d(slopes), np.atleast_2d(intercepts)
    rows, width = slopes.shape
    step = max(1, _HULL_CHUNK // width)
    pieces = [_envelope(slopes[r:r + step], intercepts[r:r + step], r, exact)
              for r in range(0, rows, step)]
    return tuple(np.concatenate(part) for part in zip(*pieces))


def _envelope(slopes: np.ndarray, intercepts: np.ndarray, row0: int,
              exact: bool):
    """Envelopes of a block of rows whose first row is row ``row0``."""
    rows, width = slopes.shape
    # sort each row by (-slope, intercept, index), absent entries last; rows
    # already in increasing slope order (dimensions) are simply reversed
    if np.all((slopes[:, 1:] > slopes[:, :-1]) | np.isnan(slopes[:, 1:])):
        order = np.arange(width - 1, -1, -1)[None].repeat(rows, axis=0)
    else:
        order = np.lexsort((intercepts, -slopes), axis=-1)
    at = np.arange(rows)[:, None], order
    s, c = slopes[at], intercepts[at]
    live = ~np.isnan(s)
    live[:, 1:] &= s[:, 1:] != s[:, :-1]  # drop the later of equal slopes
    # drop a line when a later (flatter) live line is at least as cheap at
    # K = 0 up to the tie tolerance; what is left rises strictly
    if exact:
        tie, absent = c[:, :-1], np.iinfo(c.dtype).max
    else:
        tie, absent = np.abs(c[:, :-1]), np.inf
        np.maximum(tie, 1.0, out=tie)
        tie *= _TIE_RTOL
        tie += c[:, :-1]
    later = np.where(live, c, absent)[:, :0:-1]
    np.minimum.accumulate(later, axis=1, out=later)
    live[:, :-1] &= ~(later[:, ::-1] <= tie)
    del later, tie
    row, pos = np.nonzero(live)
    s, c = s[row, pos].tolist(), c[row, pos].tolist()
    heads = [0] + (np.flatnonzero(row[1:] != row[:-1]) + 1).tolist()
    hull, starts = _chain(heads, s, c, exact)
    if exact:
        # a kept start k > 0 is the crossing with the previous kept line
        starts = [Fraction(c[q] - c[p], s[p] - s[q]) if k else 0.0
                  for p, q, k in zip([0] + hull, hull, starts)]
    return ((row0 + row[hull]) * width + order[row[hull], pos[hull]],
            np.array(starts, dtype=object if exact else float))


def _chain(heads: list[int], s: list, c: list, exact: bool):
    """Monotone chain over lines sorted row by row in slope-decreasing
    order, none at least as cheap at K = 0 as a later line of its row;
    ``heads`` are the positions where rows begin.  A top line is popped
    when the new line crosses it no later than it starts.

    Crossings are float divisions.  On integer lines (``exact``) they are
    correctly rounded, hence monotone in the exact crossing, so only two
    crossings that round to the same float need deciding exactly, by
    cross-multiplying the lines.  Such a tie is never with a row's first
    line, which starts at 0: integer intercepts rise strictly along a
    row, so every crossing is > 0."""
    hull: list[int] = []
    starts: list[float] = []
    base, heads = 0, iter(heads + [len(s)])
    nxt = next(heads)
    for q in range(len(s)):
        if q == nxt:                      # a new row: its first line
            base, nxt = len(hull), next(heads)
            hull.append(q)
            starts.append(0.0)
            continue
        sq, cq = s[q], c[q]
        while True:
            top = hull[-1]
            k_cross = (cq - c[top]) / (s[top] - sq)
            if k_cross > starts[-1] or (
                    exact and k_cross == starts[-1]
                    and (cq - c[top]) * (s[hull[-2]] - s[top])
                    > (c[top] - c[hull[-2]]) * (s[top] - sq)):
                break
            hull.pop()
            starts.pop()
            if len(hull) == base:
                k_cross = 0.0
                break
        hull.append(q)
        starts.append(k_cross)
    return hull, starts


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
    ks = [k * c_unit / d_unit for k in starts] + [np.inf]
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
