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

Integer lines are decided exactly: breakpoints are ``Fraction``s, and the
hull's pop test, the jump argmax and the pick at 2 * K_min compare exact
numbers.  Histogram contrasts and complexities are rationals built from
integer counts, so the regular-histogram lab hands in integer lines with
exact units; float lines keep a relative tie tolerance.
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


def lower_envelope(slopes: np.ndarray,
                   intercepts: np.ndarray) -> tuple[list[int], list[float]]:
    """Lower envelope of the lines K -> intercept + K * slope on [0, inf).

    Returns (indices, start_ks) of the active pieces in slope-decreasing
    order; the first piece starts at K = 0.  Among lines with equal slope
    only the smallest intercept survives (smallest index on full ties), and
    a breakpoint belongs to the flatter of its two lines, so the selected
    slope is right-continuous in K.

    Integer slopes and intercepts are compared exactly and the breakpoints
    are ``Fraction``s.  Float intercepts within one part in 1e12 are
    treated as tied and resolved to the flatter line: float noise on an
    exact tie would otherwise open a sliver segment of width ~1e-16 that
    the jump detectors would see as a genuine complexity jump.
    """
    slopes, intercepts = np.asarray(slopes), np.asarray(intercepts)
    if slopes.size == 0:
        raise ValueError("a path needs at least one line")
    exact = slopes.dtype.kind in "iu" and intercepts.dtype.kind in "iu"
    if not exact:
        slopes, intercepts = slopes.astype(float), intercepts.astype(float)
    order = np.lexsort((np.arange(slopes.size), intercepts, -slopes))
    slopes, intercepts = slopes.tolist(), intercepts.tolist()
    tol = 0 if exact else _TIE_RTOL
    hull: list[int] = []
    starts: list[float] = []
    prev_slope = None
    for i in order.tolist():
        s, c = slopes[i], intercepts[i]
        if prev_slope is not None and s == prev_slope:
            continue                      # dominated duplicate slope
        prev_slope = s
        k_cross = 0.0
        while hull:
            top = hull[-1]
            top_c = intercepts[top]
            if c <= top_c + tol * max(1, abs(top_c)):
                # flatter and at least as cheap at K=0 (up to float noise):
                # dominates from 0 on
                hull.pop()
                starts.pop()
                continue
            k_cross = (Fraction(c - top_c, slopes[top] - s) if exact
                       else (c - top_c) / (slopes[top] - s))
            if k_cross <= starts[-1]:
                hull.pop()
                starts.pop()
                continue
            break
        hull.append(i)
        starts.append(k_cross if len(hull) > 1 else 0.0)
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
