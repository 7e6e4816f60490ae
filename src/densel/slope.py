"""Penalized selection, the exact penalty-constant path, and jump rules.

``select`` is the plain argmin of contrast + penalty.  ``envelope_path``
computes, exactly, the map from the penalty constant K to the selected
model when the penalty is K times a per-model complexity: each model is a
line K -> contrast + K * delta, and the selected model is the lower
envelope of those lines, found by a convex-hull pass instead of a K grid.
The jump detectors then read the calibration constant off the path: either
the breakpoint with the largest complexity drop, or the first K beyond
which the selected complexity falls under max_complexity / ln(n).
``slope_pick`` is the slope algorithm itself: the maximal jump, then the
model selected at twice that constant.  ``select`` and ``slope_path`` take
per-model lists; the experiment labs feed arrays to ``envelope_path``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .penalties import PenaltyValue

__all__ = [
    "SelectionResult",
    "PathSegment",
    "SlopePath",
    "NoJumpError",
    "MAX_JUMP",
    "LOG_THRESHOLD",
    "lower_envelope",
    "envelope_path",
    "select",
    "slope_path",
    "detect_kmin",
    "slope_pick",
]

MAX_JUMP = "max"
LOG_THRESHOLD = "log"


class NoJumpError(RuntimeError):
    """Raised when a path has no breakpoint to calibrate on."""


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one penalized selection."""

    model_id: str
    criterion: float
    penalty: float
    dim: int | None = None
    d_exact: float | None = None
    dmw: float | None = None
    flag: str | None = None


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
    only on the path; the log-threshold rule is scaled by it.
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

    Intercepts within one part in 1e12 are treated as tied and resolved to
    the flatter line: float noise on an exact tie would otherwise open a
    sliver segment of width ~1e-16 that the jump detectors would see as a
    genuine complexity jump.
    """
    slopes = np.asarray(slopes, dtype=float)
    intercepts = np.asarray(intercepts, dtype=float)
    if slopes.size == 0:
        raise ValueError("a path needs at least one line")
    order = np.lexsort((np.arange(slopes.size), intercepts, -slopes))
    hull: list[int] = []
    starts: list[float] = []
    prev_slope = None
    for i in order:
        s, c = slopes[i], intercepts[i]
        if prev_slope is not None and s == prev_slope:
            continue                      # dominated duplicate slope
        prev_slope = s
        k_cross = 0.0
        while hull:
            top = hull[-1]
            top_c = intercepts[top]
            if c <= top_c + _TIE_RTOL * max(1.0, abs(top_c)):
                # flatter and at least as cheap at K=0 (up to float noise):
                # dominates from 0 on
                hull.pop()
                starts.pop()
                continue
            k_cross = (c - top_c) / (slopes[top] - s)
            if k_cross <= starts[-1]:
                hull.pop()
                starts.pop()
                continue
            break
        hull.append(int(i))
        starts.append(k_cross if len(hull) > 1 else 0.0)
    return hull, starts


def select(fits: Sequence[tuple[str, float]],
           pens: Sequence[PenaltyValue],
           dims: Mapping[str, int] | None = None) -> SelectionResult:
    """Argmin of contrast + penalty over a model list.

    Ties go to the smaller dimension (when ``dims`` is given), then to the
    lexicographically smaller model id.
    """
    if not fits:
        raise ValueError("nothing to select from")
    pen_by_id = {p.model_id: p.value for p in pens}
    if set(pen_by_id) != {mid for mid, _ in fits}:
        raise ValueError("fits and penalties must cover the same model ids")
    if len(pen_by_id) != len(fits):
        raise ValueError("duplicate model ids")
    best = None
    for mid, contrast in fits:
        crit = contrast + pen_by_id[mid]
        dim = dims.get(mid, 0) if dims is not None else 0
        key = (crit, dim, mid)
        if best is None or key < best[0]:
            best = (key, mid, crit, pen_by_id[mid], dim)
    _, mid, crit, pen, dim = best
    return SelectionResult(model_id=mid, criterion=crit, penalty=pen,
                           dim=dim if dims is not None else None)


def envelope_path(contrasts: np.ndarray, deltas: np.ndarray,
                  model_id: Callable[[int], str],
                  delta_max: float) -> tuple[SlopePath, list[int]]:
    """Exact path of the lines contrasts[i] + K * deltas[i].

    Returns the path and, per segment, the index of its line; only the
    lines on the envelope get an id, through ``model_id(index)``.  Ties
    follow ``lower_envelope``.
    """
    deltas = np.asarray(deltas, dtype=float)
    contrasts = np.asarray(contrasts, dtype=float)
    if np.any(deltas < 0.0):
        raise ValueError("complexities must be >= 0")
    hull, starts = lower_envelope(deltas, contrasts)
    segs = tuple(
        PathSegment(k_lo=starts[pos],
                    k_hi=starts[pos + 1] if pos + 1 < len(hull) else np.inf,
                    model_id=model_id(i), delta=deltas[i],
                    contrast=contrasts[i])
        for pos, i in enumerate(hull))
    return SlopePath(segments=segs, delta_max=float(delta_max)), hull


def slope_path(points: Sequence[tuple[str, float, float]]) -> SlopePath:
    """Exact selected-model path for penalties K * delta.

    ``points`` holds (model_id, contrast, delta) with delta >= 0.  Among
    duplicate (contrast, delta) pairs the lexicographically smallest id
    survives.  At a breakpoint the smaller-delta model is selected, so the
    selected complexity is right-continuous in K.
    """
    if not points:
        raise ValueError("a path needs at least one model")
    pts = sorted(points, key=lambda p: p[0])
    deltas = np.array([p[2] for p in pts])
    contrasts = np.array([p[1] for p in pts])
    path, _ = envelope_path(contrasts, deltas, lambda i: pts[i][0],
                            delta_max=deltas.max())
    return path


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
                return seg.k_lo
        return segs[-1].k_lo
    raise ValueError(f"unknown jump rule {rule!r}")


def slope_pick(path: SlopePath) -> tuple[int, float, str | None]:
    """The slope algorithm: (position of the picked segment, K_min, flag).

    K_min is the breakpoint with the largest complexity drop and the pick
    is the segment active at 2 * K_min.  A one-segment path has no jump:
    its only model is picked at K_min = 0 and flagged ``no-jump-fallback``.
    """
    segs = path.segments
    if len(segs) == 1:
        return 0, 0.0, "no-jump-fallback"
    drops = [segs[i].delta - segs[i + 1].delta for i in range(len(segs) - 1)]
    k_min = segs[int(np.argmax(drops)) + 1].k_lo
    starts = [seg.k_lo for seg in segs]
    return bisect_right(starts, 2.0 * k_min) - 1, k_min, None
