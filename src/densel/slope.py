"""The exact penalty-constant path, jump rules and the slope pick.

``envelope_path`` computes, exactly, the map from the penalty constant K
to the selected model when the penalty is K times a per-model complexity:
each model is a line K -> contrast + K * delta, and the selected model is
the lower envelope of those lines, found by a convex-hull pass instead of a
K grid.  The jump detectors then read the calibration constant off the
path: either the breakpoint with the largest complexity drop, or the first
K beyond which the selected complexity falls under max_complexity / ln(n).
``slope_pick`` is the slope algorithm itself: the maximal jump, then the
model selected at twice that constant.  The experiment labs feed their
arrays to ``envelope_path``.

Integer lines are decided exactly: the hull pops by integer
cross-multiplication, breakpoints are ``Fraction``s, and the jump argmax
and the pick at 2 * K_min compare exact numbers.  Histogram contrasts and
complexities are rationals built from integer counts, so the
regular-histogram lab hands in integer lines with exact units; float lines
keep a relative tie tolerance, and the float hull takes a batch of rows at
once (the two-block lab's per-block envelopes).
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
        if k < 0.0:
            raise ValueError("the penalty constant is nonnegative")
        starts = [seg.k_lo for seg in self.segments]
        return self.segments[bisect_right(starts, k) - 1]

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

    Integer slopes and intercepts (one set of lines) are compared exactly,
    by integer cross-multiplication, and the breakpoints are ``Fraction``s.

    Float lines come as one row or as a 2-D batch of rows, each row its own
    set of lines, with NaN slopes for absent entries (padding); indices
    are then positions in the flattened input, row after row.  A line is
    dropped when a flatter line is at least as cheap at K = 0, intercepts
    within one part in 1e12 counting as tied (float noise on an exact tie
    would otherwise open a sliver segment of width ~1e-16 that the jump
    detectors would see as a genuine complexity jump); the monotone chain
    then runs once over the lines left in all rows.
    """
    slopes, intercepts = np.asarray(slopes), np.asarray(intercepts)
    if slopes.size == 0:
        raise ValueError("a path needs at least one line")
    if slopes.dtype.kind in "iu" and intercepts.dtype.kind in "iu":
        return _exact_envelope(slopes, intercepts)
    slopes = np.atleast_2d(slopes.astype(float, copy=False))
    intercepts = np.atleast_2d(intercepts.astype(float, copy=False))
    rows, width = slopes.shape
    step = max(1, _HULL_CHUNK // width)
    pieces = [_float_envelope(slopes[r:r + step], intercepts[r:r + step], r)
              for r in range(0, rows, step)]
    return tuple(np.concatenate(part) for part in zip(*pieces))


def _exact_envelope(slopes: np.ndarray, intercepts: np.ndarray):
    """The monotone chain on integer lines; a start is kept as the pair
    (numerator, denominator > 0) until the end."""
    order = np.lexsort((intercepts, -slopes)).tolist()
    slopes, intercepts = slopes.tolist(), intercepts.tolist()
    hull: list[int] = []
    nums: list[int] = []
    dens: list[int] = []
    prev_slope = None
    for i in order:
        s, c = slopes[i], intercepts[i]
        if s == prev_slope:
            continue                      # dominated duplicate slope
        prev_slope = s
        num, den = 0, 1
        while hull:
            top = hull[-1]
            num, den = c - intercepts[top], slopes[top] - s
            # flatter and at least as cheap at K = 0, or crossing the top
            # no later than the top starts: the top is dominated
            if num <= 0 or num * dens[-1] <= nums[-1] * den:
                hull.pop()
                nums.pop()
                dens.pop()
                continue
            break
        if not hull:
            num, den = 0, 1
        hull.append(i)
        nums.append(num)
        dens.append(den)
    starts = [0.0] + [Fraction(a, b) for a, b in zip(nums[1:], dens[1:])]
    return np.array(hull, dtype=np.int64), np.array(starts, dtype=object)


def _float_envelope(slopes: np.ndarray, intercepts: np.ndarray, row0: int):
    """Envelopes of a block of rows whose first row is row ``row0``."""
    rows, width = slopes.shape
    # sort each row by (-slope, intercept, index), absent entries last; rows
    # already in increasing slope order (dimensions) are simply reversed
    if np.all((slopes[:, 1:] > slopes[:, :-1]) | np.isnan(slopes[:, 1:])):
        order = np.broadcast_to(np.arange(width - 1, -1, -1), slopes.shape)
    else:
        order = np.lexsort((intercepts, -slopes), axis=-1)
    s = np.take_along_axis(slopes, order, axis=1)
    c = np.take_along_axis(intercepts, order, axis=1)
    live = ~np.isnan(s)
    live[:, 1:] &= s[:, 1:] != s[:, :-1]  # drop the later of equal slopes
    # drop a line when a later (flatter) live line is at least as cheap at
    # K = 0 up to the tie tolerance; what is left rises strictly
    later = np.where(live, c, np.inf)[:, :0:-1]
    np.minimum.accumulate(later, axis=1, out=later)
    tie = np.abs(c[:, :-1])
    np.maximum(tie, 1.0, out=tie)
    tie *= _TIE_RTOL
    tie += c[:, :-1]
    live[:, :-1] &= ~(later[:, ::-1] <= tie)
    del later, tie
    row, pos = np.nonzero(live)
    hull, starts = _chain(np.flatnonzero(np.diff(row, prepend=-1)).tolist(),
                          s[row, pos].tolist(), c[row, pos].tolist())
    return ((row0 + row[hull]) * width + order[row[hull], pos[hull]],
            np.array(starts))


def _chain(heads: list[int], s: list[float], c: list[float]):
    """Monotone chain over lines sorted row by row in slope-decreasing
    order, none at least as cheap at K = 0 as a later line of its row;
    ``heads`` are the positions where rows begin.  A top line is popped
    when the new line crosses it no later than it starts."""
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
            if k_cross > starts[-1]:
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


def detect_kmin(path: SlopePath, rule: str, n: int,
                delta_max: float | None = None) -> float:
    """Calibration constant from a path.

    ``max``: breakpoint with the largest complexity drop (earliest wins on
    ties).  ``log``: smallest K from which the selected complexity is at
    most ``delta_max / ln(n)``, ``delta_max`` defaulting to the path's;
    when no segment qualifies, the last breakpoint (or 0 for a one-segment
    path) is returned.
    """
    segs = path.segments
    if rule == MAX_JUMP:
        if len(segs) < 2:
            raise NoJumpError("path has a single segment, no jump to detect")
        return slope_pick(path)[1]
    if rule == LOG_THRESHOLD:
        if n < 3:
            raise ValueError("the log-threshold rule needs n >= 3")
        if delta_max is None:
            delta_max = path.delta_max
        thresh = delta_max / np.log(n)
        for seg in segs:
            if seg.delta <= thresh:
                return float(seg.k_lo)
        return float(segs[-1].k_lo)
    raise ValueError(f"unknown jump rule {rule!r}")


def slope_pick(path: SlopePath) -> tuple[int, float, str | None]:
    """The slope algorithm: (position of the picked segment, K_min, flag).

    K_min is the breakpoint with the largest complexity drop and the pick
    is the segment active at 2 * K_min, compared exactly on an exact path;
    K_min is returned as a float.  A one-segment path has no jump: its
    only model is picked at K_min = 0 and flagged ``no-jump-fallback``.
    """
    segs = path.segments
    if len(segs) == 1:
        return 0, 0.0, "no-jump-fallback"
    drops = [segs[i].delta - segs[i + 1].delta for i in range(len(segs) - 1)]
    k_min = segs[int(np.argmax(drops)) + 1].k_lo
    starts = [seg.k_lo for seg in segs]
    return bisect_right(starts, 2 * k_min) - 1, float(k_min), None
