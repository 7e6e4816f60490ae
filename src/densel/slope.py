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

Every path runs on the one hull of module ``hull``.  Only float lines
(the Fourier collection's) keep a relative tie tolerance.  Histogram
contrasts and complexities are rationals built from integer counts, so
both histogram labs hand in integer lines with exact units, the
two-block lab's merged lines each over its own integer denominator; the
hull decides them exactly, and their breakpoints stay integer
(numerator, denominator) pairs (``_ExactLines``), from which the jump
argmax and the pick at 2 * K_min compare exact numbers by
cross-multiplying.  A path makes ``Fraction``s only when its segments
are read.  Under either jump rule K_min is the exact start of a
segment.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .densities import _Frozen
from .hull import _filtered_envelope, _rational_envelope, lower_envelope

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
    An exact path from ``envelope_path`` keeps its segments as integers
    (``_ExactLines``), on which the slope pick and the argmin compare K
    exactly, and makes the ``Fraction``s of ``segments`` when they are
    first read.
    """

    _fields = ("segments", "delta_max")

    def __init__(self, segments: tuple[PathSegment, ...], delta_max: float,
                 exact: _ExactLines | None = None):
        if not segments and exact is None:
            raise ValueError("a path needs at least one segment")
        object.__setattr__(self, "_segments",
                           tuple(segments) if exact is None else None)
        object.__setattr__(self, "delta_max", delta_max)
        object.__setattr__(self, "_exact", exact)

    @property
    def segments(self) -> tuple[PathSegment, ...]:
        if self._segments is None:
            object.__setattr__(self, "_segments", self._exact.segments())
        return self._segments

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
        if self._exact is not None:
            return self._exact.position(k)
        return bisect_right([seg.k_lo for seg in self.segments], k) - 1

    def _size(self) -> int:
        return (len(self.segments) if self._exact is None
                else len(self._exact.hull))

    def _delta(self, pos: int) -> float:
        """Segment pos's complexity, as a float."""
        if self._exact is not None:
            return self._exact.delta_float(pos)
        return float(self.segments[pos].delta)

    def model_at(self, k: float) -> str:
        return self.segment_at(k).model_id


class _ExactLines(NamedTuple):
    """An exact path in integers.  Segment i selects line hull[i], whose
    value is (contrast[i] + K' delta[i]) / scale[i], from K' = num[i] /
    den[i] on (0 / 1 at the first); K' is the path's K over k_unit =
    units[0] / units[1], and a segment's contrast and delta on the path's
    scale are its line's times units[0] and units[1].  Only ``segments``
    makes ``Fraction``s."""

    hull: list
    num: list
    den: list
    delta: list
    contrast: list
    scale: list
    units: tuple
    model_id: Callable[[int], str]

    @property
    def k_unit(self) -> Fraction:
        return Fraction(self.units[0]) / self.units[1]

    def segments(self) -> tuple[PathSegment, ...]:
        c_unit, d_unit = self.units
        k_unit = self.k_unit
        ks = ([0.0] + [Fraction(p, q) * k_unit
                       for p, q in zip(self.num[1:], self.den[1:])]
              + [np.inf])
        return tuple(
            PathSegment(k_lo=ks[pos], k_hi=ks[pos + 1], model_id=self.model_id(i),
                        delta=_over(d, s) * d_unit,
                        contrast=_over(c, s) * c_unit)
            for pos, (i, d, c, s) in enumerate(zip(
                self.hull, self.delta, self.contrast, self.scale)))

    def position(self, k) -> int:
        """Position of the segment active at the path's K = k."""
        k = Fraction(k) / self.k_unit
        p, q = k.numerator, k.denominator
        return sum(a * q <= p * b for a, b in zip(self.num[1:], self.den[1:]))

    def twice(self, pos: int) -> tuple[int, float]:
        """(position of the segment active at twice segment pos's start K,
        that K as a float)."""
        p, q = self.num[pos], self.den[pos]
        k_unit = self.k_unit
        return (sum(a * q <= 2 * p * b
                    for a, b in zip(self.num[1:], self.den[1:])),
                p * k_unit.numerator / (q * k_unit.denominator))

    def largest_drop(self) -> int:
        """Position of the segment after the largest complexity drop, the
        earliest on ties."""
        best, top = 0, None
        for i in range(len(self.hull) - 1):
            (d0, d1), (s0, s1) = self.delta[i:i + 2], self.scale[i:i + 2]
            drop = (d0 * s1 - d1 * s0, s0 * s1)
            if top is None or drop[0] * top[1] > top[0] * drop[1]:
                best, top = i, drop
        return best + 1

    def first_at_most(self, thresh: float) -> int:
        """Position of the first segment whose complexity is at most thresh,
        the last one if none is."""
        t = Fraction(thresh) / self.units[1]
        return next((i for i, (d, s) in enumerate(zip(self.delta, self.scale))
                     if d * t.denominator <= t.numerator * s),
                    len(self.hull) - 1)

    def delta_float(self, pos: int) -> float:
        d_unit = Fraction(self.units[1])
        return (self.delta[pos] * d_unit.numerator
                / (self.scale[pos] * d_unit.denominator))


def _over(a: int, b: int):
    return a if b == 1 else Fraction(a, b)


def envelope_path(contrasts: np.ndarray, deltas: np.ndarray,
                  model_id: Callable[[int], str], delta_max: float,
                  units: tuple, dens=None) -> tuple[SlopePath, list[int]]:
    """Exact path of the lines contrasts[i] + K * deltas[i], or of
    (contrasts[i] + K * deltas[i]) / dens[i] with integer dens.

    ``units`` = (contrast unit, complexity unit) carries the lines to the
    path's scale: a segment's contrast is contrasts[i] * units[0], its
    delta deltas[i] * units[1], and its K the hull's K times
    units[0] / units[1].  Integer lines with ``Fraction`` units give an
    exact path, kept in integers (``_ExactLines``); float lines already
    on the path's scale come with units (1, 1).  Returns the path and, per
    segment, the index of its line; only the lines on the envelope get an
    id, through ``model_id(index)``.  Ties follow ``lower_envelope``.
    """
    deltas, contrasts = np.asarray(deltas), np.asarray(contrasts)
    if np.any(deltas < 0):
        raise ValueError("complexities must be >= 0")
    if deltas.dtype.kind in "iuO" and contrasts.dtype.kind in "iuO":
        hull, num, den = (_filtered_envelope(deltas, contrasts) if dens is None
                          else _rational_envelope(deltas, contrasts, dens))
        hull = hull.tolist()
        exact = _ExactLines(
            hull=hull, num=num.tolist(), den=den.tolist(),
            delta=deltas[hull].tolist(), contrast=contrasts[hull].tolist(),
            scale=([1] * len(hull) if dens is None
                   else np.asarray(dens)[hull].tolist()),
            units=units, model_id=model_id)
        return SlopePath((), float(delta_max), exact=exact), hull
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
    exact = path._exact
    if rule == MAX_JUMP:
        if exact is not None:
            return exact.largest_drop()
        segs = path.segments
        drops = [segs[i].delta - segs[i + 1].delta
                 for i in range(len(segs) - 1)]
        return int(np.argmax(drops)) + 1
    if rule == LOG_THRESHOLD:
        if n < 3:
            raise ValueError("the log-threshold rule needs n >= 3")
        if delta_max is None:
            delta_max = path.delta_max
        thresh = delta_max / np.log(n)
        if exact is not None:
            return exact.first_at_most(thresh)
        segs = path.segments
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
    if rule == MAX_JUMP and path._size() == 1:
        return 0, 0.0, "no-jump-fallback"
    pos = _kmin_position(path, rule, n)
    if path._exact is not None:
        return (*path._exact.twice(pos), None)
    k_min = path.segments[pos].k_lo
    return path._position(2 * k_min), float(k_min), None
