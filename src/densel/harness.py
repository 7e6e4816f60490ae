"""End-to-end experiments: oracle-ratio simulations and penalty sweeps.

A replication draws one sample and evaluates every model of a collection
once; each selection method then picks from that evaluation, and its score
is the oracle ratio, the exact loss of the selected estimator divided by
the smallest exact loss in the collection.  Reports aggregate mean, median
and 0.95-quantile (nearest-rank) over replications.

A lab is made from a collection's kind and index n: it generates the
models' ids and dimensions, holds the exact population tables and
evaluates a sample into per-model contrast, dmw, variance number D and
loss.  Every caller, the CLI included, picks from an evaluation through
two operations: ``argmin`` of contrast + K * complexity / n, and
``path``, the exact slope path, on which ``slope.slope_pick`` makes the
slope heuristic's pick.  Both break ties on the criterion, then the
dimension, then enumeration order.

Both histogram families run on one block engine over a row of blocks
[lo, hi): ``_block_row`` holds the cell probabilities of j = 1..J equal
cells of every block, ``_bin_counts`` bins one sample's points in every
block for every j, one pass per chunk of blocks whose (points x cells)
index array fits ``CHUNK_BYTES``, and ``_row_stats`` turns the sums into
each j's statistics.  ``CollectionLab`` runs it on the single block
[0, 1] for the regular histograms, whose slope paths are integer lines
decided exactly, and keeps the nested Fourier models as arrays.
``TwoBlockLab`` runs it on the row of all cuts' left blocks, then right
blocks: each per-model statistic splits into a left part depending on
(k, j1) and a right part depending on (k, j2), held as (side, cut, cells)
arrays, so the argmin over roughly n^3/6 models costs O(n^2) array work
per replication.  Its slope paths run on integer lines, as the regular
histograms' do: the path prunes the lower envelopes of all blocks in one
integer batch, merges each cut's two envelopes by their exact
breakpoints, and runs the exact hull once more on the merged lines that
no other line beats at K = 0.  The model lists, the per-model loop both
labs are checked against, and the block-by-block two-block evaluation
and selections (the path in ``Fraction``s) are in ``tests/oracles.py``.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from typing import NamedTuple

import numpy as np

from .densities import Density, PowerLaw, Sample
from .models import fourier_means, fourier_pop_coeffs
from .rng import RngStream, uniforms
from .slope import SlopePath, envelope_path, lower_envelope, slope_pick

__all__ = [
    "Method",
    "penalty_constant",
    "parse_method",
    "MethodOutcome",
    "ModelRow",
    "SimulationReport",
    "SweepReport",
    "CollectionLab",
    "TwoBlockLab",
    "make_lab",
    "summarize",
    "run_example",
    "penalty_sweep",
]

ORACLE_EPS = 1e-15


# ---------------------------------------------------------------------------
# Methods
# ---------------------------------------------------------------------------

class Method(NamedTuple):
    """A selection method: slope on dims, resampling, slope on dmw, or the
    deterministic K * D / n penalty (needs the true density)."""

    kind: str                  # slope-dim | resampling | resampling-slope | ideal
    k_const: float | None = None

    @property
    def name(self) -> str:
        if self.kind == "ideal":
            return f"ideal:{self.k_const:g}"
        return self.kind


def penalty_constant(text: str | float) -> float:
    """The constant K of a K * complexity / n penalty: finite and >= 0."""
    k_const = float(text)
    if not 0.0 <= k_const < float("inf"):
        raise ValueError(f"penalty constant must be >= 0 and finite, "
                         f"got {str(text).strip()!r}")
    return k_const


def parse_method(spec: str) -> Method:
    spec = spec.strip().lower()
    if spec in ("slope-dim", "resampling", "resampling-slope"):
        return Method(kind=spec)
    if spec.startswith("ideal:"):
        return Method(kind="ideal",
                      k_const=penalty_constant(spec.split(":", 1)[1]))
    if spec == "ideal":
        return Method(kind="ideal", k_const=2.0)
    raise ValueError(f"unknown method {spec!r}")


DEFAULT_METHODS = (Method("slope-dim"), Method("resampling"),
                   Method("resampling-slope"))


class MethodOutcome(NamedTuple):
    """One method's result on one replication."""

    method: str
    ratio: float
    selected: str
    flag: str | None = None


# ---------------------------------------------------------------------------
# Evaluations: the two operations every caller picks with
# ---------------------------------------------------------------------------

_SLOPE_COMPLEXITY = {"slope-dim": "dim", "resampling-slope": "dmw"}


class ModelRow(NamedTuple):
    """One model's statistics on one sample under one penalty.

    ``criterion`` is the empirical contrast plus ``penalty``; ``dmw`` is
    the resampling estimate of the variance number, ``d_exact`` its exact
    value D, and ``loss`` the exact loss of the fitted estimator.
    """

    model_id: str
    criterion: float
    penalty: float
    dim: int
    dmw: float
    d_exact: float
    loss: float


def _tie_tolerance(n: int, k_const: float) -> float:
    """How far above the least float criterion a histogram model's float
    criterion under a ``dim`` or ``dmw`` penalty may lie and still tie it
    exactly, for samples of n points (n^3 < 2^53).

    A block of s / n with j <= s cells and c points has the contrast share
    j T / (s n) <= n, T = sum c^2 <= c^2, and a penalty share K j / n
    (``dim``) or K j (n c - T) / (s n (n - 1)) <= 2 K (``dmw``); a regular
    histogram is the block [0, 1] with s = c = n.  With u = 2^-53, a float
    share is within e = 2 u (n + 8) (n + 2 K) of its exact value: T and
    j T are exact, the width 1 - fl(k / n) of a right block is off by a
    relative u n at most, rounding c - T / n, which lies in [0, c], costs
    2 u c before the scale j / (s (n - 1)), and the other few steps a
    relative u each.  A criterion, one share or two and the rounding of
    their sum, is within 3 e, so an exact minimizer lies within 6 e of the
    float minimum; this returns 8 e."""
    return 16.0 * 2.0 ** -53 * (n + 8) * (n + 2.0 * k_const)


class _LabEvaluation:
    """Selection on one evaluated sample.

    Subclasses key their models in their own way and provide
    ``_argmin(k_const, complexity) -> (key, penalty)``,
    ``_path(complexity) -> (SlopePath, key per segment)``,
    ``_row(key, penalty)`` and ``oracle_loss()``.
    """

    def argmin(self, k_const: float, complexity: str) -> ModelRow:
        """The model minimizing contrast + k_const * complexity / n, where
        the complexity is ``dim``, ``dmw`` or ``d_exact``."""
        return self._row(*self._argmin(k_const, complexity))

    def path(self, complexity: str) -> SlopePath:
        """Exact slope path for the complexity ``dim`` or ``dmw``."""
        return self._path(complexity)[0]

    def apply(self, method: Method) -> MethodOutcome:
        if method.kind in _SLOPE_COMPLEXITY:
            path, keys = self._path(_SLOPE_COMPLEXITY[method.kind])
            pos, k_min, flag = slope_pick(path)
            row = self._row(keys[pos], 2.0 * k_min * path.segments[pos].delta)
        elif method.kind == "resampling":
            row, flag = self.argmin(2.0, "dmw"), None
        elif method.kind == "ideal":
            row, flag = self.argmin(method.k_const, "d_exact"), None
        else:
            raise ValueError(f"unknown method {method.kind!r}")
        oracle = self.oracle_loss()
        if oracle <= ORACLE_EPS:
            return MethodOutcome(method=method.name, ratio=float("nan"),
                                 selected=row.model_id, flag="degenerate-oracle")
        return MethodOutcome(method=method.name, ratio=row.loss / oracle,
                             selected=row.model_id, flag=flag)


# ---------------------------------------------------------------------------
# The block engine: j = 1..J equal cells on each block of a row
# ---------------------------------------------------------------------------

def _block_tables(density: Density, lo: float, hi: float, jmax: int,
                  mass: float, out: np.ndarray | None = None):
    """Flat cell-probability tables for j = 1..jmax cells on [lo, hi):
    (starts, pop, js, d_vec), with one ``cdf`` call over every edge; pop
    is written into ``out`` when given."""
    js = np.arange(1, jmax + 1)
    starts = np.concatenate(([0], np.cumsum(js)[:-1]))
    first = starts + np.arange(jmax)         # edge 0 of each j; j has j + 1
    i = np.arange(first[-1] + jmax + 1) - np.repeat(first, js + 1)
    edges = np.clip(lo + (hi - lo) * i / np.repeat(js, js + 1), 0.0, 1.0)
    edges[first], edges[first + js] = lo, hi  # pin float tails of the ends
    cdf = np.asarray(density.cdf(edges))
    cell = np.ones(cdf.size - 1, dtype=bool)
    cell[(first + js)[:-1]] = False          # drop the j -> j+1 steps
    pop = np.compress(cell, np.diff(cdf), out=out)
    sumsq = np.add.reduceat(pop * pop, starts)
    width_inv = js / (hi - lo)           # 1/cell width per j
    d_vec = width_inv * (mass - sumsq)
    return starts, pop, js, d_vec


# A chunk of blocks keeps its (points x cells) index array of n points per
# block within this many bytes; a block larger than that is a chunk alone.
# A batch of replications keeps its (reps x n) uniforms within it too.
CHUNK_BYTES = 256 * 1024
_BELOW_ONE = np.nextafter(1.0, 0.0)


class _BlockRow(NamedTuple):
    """A row of blocks [lo_b, lo_b + width_b), each cut into j = 1..cells_b
    equal cells for every j, with the cell probabilities of all of them.

    The tables come in chunks of consecutive blocks.  A chunk pads each of
    its blocks to its largest cell count J with probability 0, so a block
    holds J (J + 1) / 2 cells there, segment j starting at j (j - 1) / 2;
    ``chunks`` holds (first block, end block, J, offset into ``pop``).
    ``d`` is D per (block, j - 1), 0 past a block's cells.
    """

    lo: np.ndarray
    width: np.ndarray
    pop: np.ndarray
    chunks: tuple
    d: np.ndarray


def _block_row(density: Density, lo, hi, mass, cells, n: int) -> _BlockRow:
    """The tables of blocks [lo_b, hi_b) of mass mass_b with j = 1..cells_b
    cells, chunked so that n points per block stay within CHUNK_BYTES."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    cells = np.asarray(cells, dtype=np.int64)
    bounds, b0, jmax = [], 0, 0
    for b, j in enumerate(cells.tolist()):
        if b > b0 and (b + 1 - b0) * n * max(jmax, j) * 8 > CHUNK_BYTES:
            bounds.append((b0, b, jmax))
            b0, jmax = b, 0
        jmax = max(jmax, j)
    bounds.append((b0, cells.size, jmax))
    chunks, offset = [], 0
    for b0, b1, jmax in bounds:
        chunks.append((b0, b1, jmax, offset))
        offset += (b1 - b0) * (jmax * (jmax + 1) // 2)
    pop = np.zeros(offset)
    d = np.zeros((cells.size, int(cells.max())))
    for b0, b1, jmax, offset in chunks:
        size = jmax * (jmax + 1) // 2
        for b in range(b0, b1):
            at = offset + (b - b0) * size
            d[b, :cells[b]] = _block_tables(
                density, lo[b], hi[b], cells[b], mass[b],
                pop[at:at + cells[b] * (cells[b] + 1) // 2])[3]
    return _BlockRow(lo=lo, width=hi - lo, pop=pop, chunks=tuple(chunks),
                     d=d)


def _bin_counts(row: _BlockRow, pts: np.ndarray, first: np.ndarray,
                count: np.ndarray):
    """T = sum c^2 and W = sum c pop over the cells, per (block, j - 1), of
    the points pts[first_b:first_b + count_b] in each block b (T holds
    integers).  Entries past a block's cells hold no sum.

    One pass per chunk bins all its (block, point) pairs for every j at
    once.  The sums run over the same (block, j) segments of cells as a
    block-by-block loop would, so they are the same floats.

    A point x goes to cell floor(j (x - lo) / w) of its block, in floats.
    The per-model forms (``fitting.histogram_counts``,
    ``models.histogram_cell_index``) search the float breaks instead; the
    two differ only for a point on a float cell edge: at j = 22 on [0, 1],
    fl(15/22) * 22 rounds to 14.999999999999998, so the engine bins
    x = fl(15/22) into [14/22, 15/22), the breaks into [15/22, 16/22)."""
    end = np.cumsum(count)
    pairs = int(end[-1])
    # the pairs in block order, as points y in [0, 1): with y below one,
    # fl(y j) < j, so y = 1 falls into cell j - 1 with no clamp on cells;
    # the O(n^2) pair arrays go as soon as y is made, to keep the peak low
    block = np.repeat(np.arange(count.size), count)
    at = (first - end + count)[block]
    at += np.arange(pairs)
    y = pts[at]
    del at
    y -= row.lo[block]
    y /= row.width[block]
    del block
    np.minimum(y, _BELOW_ONE, out=y)
    t = np.zeros(row.d.shape)
    w = np.zeros(row.d.shape)
    js = np.arange(1, row.d.shape[1] + 1)
    seg = js * (js - 1) // 2
    js = js.astype(float)
    buf = np.empty(max((end[b1 - 1] - end[b0] + count[b0]) * jmax
                       for b0, b1, jmax, _ in row.chunks), dtype=np.int64)
    for b0, b1, jmax, offset in row.chunks:
        p0, p1 = end[b0] - count[b0], end[b1 - 1]
        if p0 == p1:
            continue
        size = jmax * (jmax + 1) // 2
        base = np.arange(0, (b1 - b0) * size, size)   # each block's table
        idx = buf[:(p1 - p0) * jmax].reshape(p1 - p0, jmax)
        np.multiply(y[p0:p1, None], js[:jmax], out=idx, casting="unsafe")
        idx += seg[:jmax]
        idx += np.repeat(base, count[b0:b1])[:, None]
        c = np.bincount(idx.ravel(), minlength=base.size * size)
        starts = (base[:, None] + seg[:jmax]).ravel()
        t[b0:b1, :jmax] = np.add.reduceat(c * c, starts).reshape(-1, jmax)
        w[b0:b1, :jmax] = np.add.reduceat(
            c * row.pop[offset:offset + base.size * size],
            starts).reshape(-1, jmax)
    return t, w


def _row_stats(row: _BlockRow, t: np.ndarray, w: np.ndarray,
               count: np.ndarray, n: int):
    """A (sum sq coeffs), V (variance part of dmw) and L (loss part) per
    (block, j - 1) from the sums of ``_bin_counts``, for a sample of size
    n; V and L are built in the arrays of T and W.

    V = sum c (n - c) / (n^2 w) over the cells, never negative."""
    width_inv = np.arange(1, row.d.shape[1] + 1) / row.width[:, None]
    a = width_inv * t
    a /= n * n
    # L = A - 2 (1/w) W / n, doubling being exact
    w *= 2.0
    w *= width_inv
    w /= n
    np.subtract(a, w, out=w)
    # V = (1/w) (count - T / n) / n
    t /= n
    np.subtract(count[:, None], t, out=t)
    t *= width_inv
    t /= n
    return a, t, w


# ---------------------------------------------------------------------------
# Regular histograms and Fourier models
# ---------------------------------------------------------------------------

class CollectionLab:
    """Exact population arrays of the regular-histogram or the Fourier
    collection plus a per-sample evaluator; it generates the models' ids
    and dims, ``reg-hist:d={d}`` (d) and ``fourier:j={j}`` (2j+1), 1..n.

    Regular histograms are the one-block case of the block engine: j = 1..n
    equal cells on [0, 1].  Nested Fourier models share coefficients:
    ``pop`` holds those of the largest model, every model's bias and D fall
    out of one cumulative sum, and each sample is fitted once, from the
    basis means of ``fourier_means``.
    """

    def __init__(self, kind: str, n: int, density: Density):
        kind = kind.strip().lower()
        if kind not in ("regular-hist", "fourier"):
            raise ValueError(f"unknown collection kind {kind!r}")
        if n < 1:
            raise ValueError("n must be >= 1")
        self.density = density
        self.n = n
        self.kind = kind
        self.s_norm = density.l2_norm_sq()
        if kind == "regular-hist":
            self.ids = [f"reg-hist:d={d}" for d in range(1, n + 1)]
            self.dims = np.arange(1.0, n + 1.0)
            self.block = _block_row(density, [0.0], [1.0], [1.0], [n], n)
            d_exact = self.block.d[0]
        else:
            self.ids = [f"fourier:j={j}" for j in range(1, n + 1)]
            self.dims = 2.0 * np.arange(1.0, n + 1.0) + 1.0
            self.pop = fourier_pop_coeffs(density, n)
            self._last = self.dims.astype(int) - 1    # last coefficient
            sm = np.cumsum(self.pop ** 2)[self._last]
            # guard the float tail: bias and D are nonnegative by construction
            self.bias_sq = np.maximum(self.s_norm - sm, 0.0)
            d_exact = self.dims - sm
        self.d_exact = np.maximum(d_exact, 0.0)
        self.d_max = float(self.d_exact.max())

    def evaluate(self, sample: Sample):
        n = sample.n
        if self.kind == "regular-hist":
            count = np.array([n])
            t, w = _bin_counts(self.block, sample.points,
                               np.zeros(1, dtype=np.int64), count)
            t_sq = t[0].astype(np.int64)
            a, v, loss_part = (s[0] for s in _row_stats(self.block, t, w,
                                                         count, n))
            dmws = v * n / (n - 1.0) if n >= 2 else np.full(a.size, np.nan)
            return _HistogramEvaluation(
                ids=self.ids, dims=self.dims, contrasts=-a, dmws=dmws,
                losses=self.s_norm + loss_part, d_exact=self.d_exact,
                n=self.n, t_sq=t_sq)
        coeffs = fourier_means(self.pop.size // 2, sample.points)
        contrasts = -np.cumsum(coeffs ** 2)[self._last]
        # squared basis values sum to dim at every point; the clamp guards
        # the float tail, dmw is nonnegative by construction
        dmws = (np.maximum(n / (n - 1.0) * (self.dims + contrasts), 0.0)
                if n >= 2 else np.full(len(self.ids), np.nan))
        losses = self.bias_sq + np.cumsum((coeffs - self.pop) ** 2)[self._last]
        return _Evaluation(ids=self.ids, dims=self.dims, contrasts=contrasts,
                           dmws=dmws, losses=losses, d_exact=self.d_exact,
                           n=self.n)


class _Evaluation(_LabEvaluation):
    """All per-model statistics of one replication; a model's key is its
    position in the collection."""

    def __init__(self, ids, dims, contrasts, dmws, losses, d_exact, n):
        self.ids, self.dims, self.contrasts = ids, dims, contrasts
        self.dmws, self.losses, self.d_exact, self.n = dmws, losses, d_exact, n

    def _complexity(self, name: str) -> np.ndarray:
        if name == "dmw" and self.n < 2:
            raise ValueError("resampling estimate needs n >= 2")
        return {"dim": self.dims, "dmw": self.dmws, "d_exact": self.d_exact}[name]

    def _argmin(self, k_const: float, complexity: str) -> tuple[int, float]:
        pens = k_const * self._complexity(complexity) / self.n
        crits = self.contrasts + pens
        idx = int(np.lexsort((self.dims, crits))[0])
        if complexity != "d_exact":
            idx = self._settle(crits, idx, k_const, complexity)
        return idx, pens[idx]

    def _settle(self, crits: np.ndarray, idx: int, k_const: float,
                complexity: str) -> int:
        """The float argmin stands: Fourier criteria are irrational."""
        return idx

    def _lines(self, complexity: str):
        """(contrasts, complexities, units) of the path's lines."""
        return self.contrasts, self._complexity(complexity), (1, 1)

    def _path(self, complexity: str) -> tuple[SlopePath, list[int]]:
        delta_max = self._complexity(complexity).max()
        contrasts, deltas, units = self._lines(complexity)
        return envelope_path(contrasts, deltas, self.ids.__getitem__,
                             delta_max, units)

    def _row(self, idx: int, penalty: float) -> ModelRow:
        return ModelRow(model_id=self.ids[idx],
                        criterion=float(self.contrasts[idx] + penalty),
                        penalty=float(penalty), dim=int(self.dims[idx]),
                        dmw=float(self.dmws[idx]),
                        d_exact=float(self.d_exact[idx]),
                        loss=float(self.losses[idx]))

    def oracle_loss(self) -> float:
        return float(self.losses.min())


class _HistogramEvaluation(_Evaluation):
    """A regular-histogram evaluation, whose slope paths run on integer
    lines: with T = sum c^2 over the j cells, the contrast is -j T / n^2,
    and the complexity j for ``dim`` or j (n^2 - T) / (n (n - 1)) for
    ``dmw``, so the lines are -j T + K' j or -j T + K' j (n^2 - T) with K'
    in units of 1/n^2 or (n - 1)/n."""

    def __init__(self, *args, t_sq: np.ndarray, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.t_sq = t_sq

    def _lines(self, complexity: str):
        n, j, t = self.n, self.dims.astype(np.int64), self.t_sq
        if complexity == "dim":
            return -j * t, j, (Fraction(1, n * n), 1)
        return (-j * t, j * (n * n - t),
                (Fraction(1, n * n), Fraction(1, n * (n - 1))))

    def _settle(self, crits: np.ndarray, idx: int, k_const: float,
                complexity: str) -> int:
        """The exact argmin, by (criterion, dim, order), among the models
        whose float criterion may tie the least: the criterion of line i
        is contrasts_i c_unit + (K / n) deltas_i d_unit, K = Fraction(K)."""
        near = np.flatnonzero(crits <= crits[idx]
                              + _tie_tolerance(self.n, k_const))
        contrasts, deltas, (c_unit, d_unit) = self._lines(complexity)
        k = Fraction(k_const) / self.n * d_unit
        return min(near.tolist(), key=lambda i: (
            int(contrasts[i]) * c_unit + k * int(deltas[i]), self.dims[i], i))


# ---------------------------------------------------------------------------
# Fast two-block engine
# ---------------------------------------------------------------------------

class TwoBlockLab:
    """Separable evaluation of the two-block family.

    For a model (k, j1, j2) every statistic is a sum of a left term indexed
    by (k, j1) and a right term indexed by (k, j2).  The block engine gives
    all of them at once from one row of blocks, the left blocks of every
    cut and then the right ones: its binning pass runs over chunks of
    consecutive blocks, and its tables are one padded array for the whole
    row rather than one table per block.  An evaluation keeps them
    as (2, n-1, n-1) arrays indexed by (side, cut k - 1, cells j - 1), side
    0 the left block [0, k/n) with j <= k cells and side 1 the right block
    with j <= n - k; ``valid`` marks the existing entries, ``d_exact``
    holds D (0 elsewhere).  Each evaluation also keeps the integer
    T = sum c^2 per (side, cut, cells) and the block counts, from which
    the slope paths build integer lines.  Selections are array operations
    over all cuts: the argmin reduces per (side, cut), and the slope path
    prunes the lower envelopes of all 2(n-1) blocks in one integer batch,
    merges each cut's two envelopes by their exact breakpoints and runs
    the exact hull once more on the merged lines that may be on it.
    """

    def __init__(self, n: int, density: Density):
        if n < 2:
            raise ValueError("the two-block family needs n >= 2")
        self.n = n
        self.kind = "two-block"
        self.density = density
        self.s_norm = density.l2_norm_sq()
        self.cuts = np.arange(1, n) / n
        fcut = np.asarray(density.cdf(self.cuts))
        m = n - 1
        # s per (side, cut): the block is s / n wide, with up to s cells
        self.cells = cells = np.stack((np.arange(1, n), np.arange(m, 0, -1)))
        self.valid = np.arange(m) < cells[:, :, None]
        # the left blocks [0, k/n) for k = 1..n-1, then the right blocks
        self.blocks = _block_row(
            density, np.concatenate((np.zeros(m), self.cuts)),
            np.concatenate((self.cuts, np.ones(m))),
            np.concatenate((fcut, 1.0 - fcut)), cells.ravel(), n)
        self.d_exact = self.blocks.d.reshape(2, m, m)
        self.d_max = float(np.where(self.valid, self.d_exact, -np.inf)
                           .max(axis=2).sum(axis=0).max())

    def evaluate(self, sample: Sample):
        n, m = self.n, self.n - 1
        pts = sample.points if sample.sorted_flag else np.sort(sample.points)
        n_left = np.searchsorted(pts, self.cuts, side="left")
        count = np.concatenate((n_left, n - n_left))
        first = np.concatenate((np.zeros(m, dtype=np.int64), n_left))
        t, w = _bin_counts(self.blocks, pts, first, count)
        t_sq = t.astype(np.int64).reshape(2, m, m)
        a, v, loss_part = _row_stats(self.blocks, t, w, count, n)
        invalid = ~self.valid
        contrast = np.negative(a, out=a).reshape(2, m, m)
        contrast[invalid] = np.inf
        var = v.reshape(2, m, m)
        var[invalid] = 0.0
        loss = loss_part.reshape(2, m, m)
        loss[invalid] = np.inf
        return _TwoBlockEvaluation(lab=self, contrast=contrast, var=var,
                                   loss=loss, t_sq=t_sq,
                                   count=count.reshape(2, m))


def _two_block_id(kk: int, i1: int, i2: int) -> str:
    return f"two-block:k={kk + 1},j1={i1 + 1},j2={i2 + 1}"


def _breakpoint_order(cut: np.ndarray, num: np.ndarray, den: np.ndarray):
    """Order of the breakpoints num / den (den > 0) by cut, then exact K,
    and along it whether each is the last one of its cut and K.

    num and den are at most n^3, so their floats are exact and num / den
    is correctly rounded; rounding is monotone, so unequal floats order
    unequal K.  Equal floats are compared by cross-multiplying, within
    2^63 for the integers of ``lower_envelope``.  Unequal K differ by a
    relative 1 / n^6 or more, which keeps their floats apart up to
    n = 406; past that a float tie may hide unequal K, and then the
    breakpoints are sorted as ``Fraction``s."""
    order = np.lexsort((np.asarray(num / den, dtype=float), cut))
    c, p, q = cut[order], num[order], den[order]
    if np.any((c[1:] == c[:-1]) & (p[:-1] * q[1:] > p[1:] * q[:-1])):
        order = np.array(sorted(range(cut.size), key=lambda i: (
            cut[i], Fraction(int(num[i]), int(den[i])))), dtype=np.int64)
        c, p, q = cut[order], num[order], den[order]
    last = np.ones(cut.size, dtype=bool)
    last[:-1] = (c[1:] != c[:-1]) | (p[:-1] * q[1:] != p[1:] * q[:-1])
    return order, last


def _undominated(slopes: np.ndarray, intercepts: np.ndarray,
                 dens: np.ndarray) -> np.ndarray:
    """Indices, increasing, of the lines (intercepts + K slopes) / dens
    that no other line beats by being at least as flat and strictly
    cheaper at K = 0: a superset of the lines on the lower envelope, which
    the exact hull narrows down.

    Every term is below 2^53 (n^4 for any n whose lab fits in memory), so
    the ratios' floats are correctly rounded; rounding is monotone, so
    unequal floats order the ratios, and equal ones beat nothing.  Equal
    float slopes are compared exactly by cross-multiplying, at most
    n^7 / 4: in int64 up to n = 624 and in Python ints past that."""
    fs, fc = slopes / dens, intercepts / dens
    order = np.lexsort((fc, -fs))
    fs, fc = fs[order], fc[order]
    # the cheapest strictly flatter line, past the run of equal floats
    cheapest = np.append(np.minimum.accumulate(fc[::-1])[::-1], np.inf)
    keep = fc <= cheapest[np.searchsorted(-fs, -fs, side="right")]
    # the cheapest line of a run of exactly equal slopes is its first
    if int(np.abs(slopes).max()) * int(dens.max()) >= 2 ** 63:
        slopes, dens = slopes.astype(object), dens.astype(object)
    s, d = slopes[order], dens[order]
    tied = np.zeros(fs.size, dtype=bool)
    tied[1:] = (fs[1:] == fs[:-1]) & (s[1:] * d[:-1] == s[:-1] * d[1:])
    run = np.maximum.accumulate(np.where(tied, 0, np.arange(fs.size)))
    keep &= fc <= fc[run]
    return np.sort(order[keep])


class _TwoBlockEvaluation(_LabEvaluation):
    """Block statistics of one replication as (side, cut, cells) arrays: the
    block's share -A of the contrast (+inf where no model is), V of the
    variance part of dmw (0 there), L of the loss (+inf there) and the
    integer T = sum c^2 over the cells (0 there), with each block's count
    c as a (side, cut) array.  A model's key is (cut index, left cell
    index, right cell index).

    The slope paths run on integer lines.  A block of s / n (s = k left
    of cut k / n, n - k right of it) with j cells has contrast share
    -j T / (s n) and dmw share j (n c - T) / (s (n - 1)), so its line
    times s n is -j T + K j s n for ``dim`` and -j T + K' j (n c - T)
    for ``dmw``, in the unit K' = K n / (n - 1); a cut's merged line is
    the sum of its blocks' lines over the denominator D = k (n - k) n.
    Both paths of an evaluation share the blocks' envelopes: a block's
    ``dmw`` envelope is the start of its ``dim`` one."""

    def __init__(self, lab, contrast, var, loss, t_sq, count):
        self.lab, self.contrast, self.var, self.loss = lab, contrast, var, loss
        self.t_sq, self.count = t_sq, count

    def _part(self, complexity: str) -> np.ndarray:
        """Each block's share of a complexity: its cell count, V or D."""
        if complexity == "dim":
            return np.arange(1.0, self.lab.n)
        return {"dmw": self.var, "d_exact": self.lab.d_exact}[complexity]

    def _argmin(self, k_const: float, complexity: str):
        n = self.lab.n
        # k dmw / n with dmw = n/(n-1) (V_left + V_right)
        scale = k_const / (n - 1.0) if complexity == "dmw" else k_const / n
        pens = np.broadcast_to(scale * self._part(complexity),
                               self.contrast.shape)
        g = pens + self.contrast
        mins = g.min(axis=2)
        crits = mins[0] + mins[1]
        if complexity != "d_exact":
            kk, i1, i2 = self._settle(g, mins, crits, k_const, complexity)
            return (kk, i1, i2), pens[0, kk, i1] + pens[1, kk, i2]
        crit = crits.min()
        best = None
        for kk in np.flatnonzero(crits == crit):
            g1, g2 = g[:, kk]
            m1, m2 = mins[:, kk]
            # float ties: rounding is monotone, so a pair sums to crit only
            # if each of its parts does so with the other block's minimum
            tied = min((i1 + i2, i1, i2)
                       for i1 in np.flatnonzero(g1 + m2 == crit)
                       for i2 in np.flatnonzero(m1 + g2 == crit)
                       if g1[i1] + g2[i2] == crit)
            if best is None or tied[0] < best[0][0]:
                best = (tied, int(kk))
        (_, i1, i2), kk = best
        return (kk, int(i1), int(i2)), pens[0, kk, i1] + pens[1, kk, i2]

    def _settle(self, g: np.ndarray, mins: np.ndarray, crits: np.ndarray,
                k_const: float, complexity: str) -> tuple[int, int, int]:
        """The exact argmin, by (criterion, dim, order), among the models
        whose float criterion may tie the least.  A model's criterion is
        the sum of its blocks' shares, so the least ones pair each side's
        least shares: a block of s / n with j cells and c points has the
        share -j T / (s n) + K j / n (``dim``) or -j T / (s n) + K j (n c
        - T) / (s n (n - 1)) (``dmw``), K = Fraction(K)."""
        lab, n = self.lab, self.lab.n
        tol = _tie_tolerance(n, k_const)
        k = Fraction(k_const)
        best = None
        for kk in np.flatnonzero(crits <= crits.min() + tol).tolist():
            least = []
            for side in (0, 1):
                s, c = int(lab.cells[side, kk]), int(self.count[side, kk])
                shares = []
                for i in np.flatnonzero(g[side, kk]
                                        <= mins[side, kk] + tol).tolist():
                    j, t = i + 1, int(self.t_sq[side, kk, i])
                    pen = (Fraction(j, n) if complexity == "dim"
                           else Fraction(j * (n * c - t), s * n * (n - 1)))
                    shares.append((Fraction(-j * t, s * n) + k * pen, i))
                least.append(min(shares))
            (c1, i1), (c2, i2) = least
            cand = (c1 + c2, i1 + i2, kk, i1, i2)
            if best is None or cand < best:
                best = cand
        return best[2:]

    @cached_property
    def _block_envelopes(self):
        """The lower envelopes of every block's ``dim`` lines, pieces row by
        row (left blocks, then right blocks): (index, num, den), each piece
        starting at K = num / den, 0 / 1 at a row's first piece.  The lines
        -j T + K j s n, at most n^3 in size, are the block's shares times
        s n."""
        n, m, cells = self.lab.n, self.lab.n - 1, self.lab.cells
        js = np.arange(1, n)
        idx, (num, den) = lower_envelope(
            (js * (n * cells)[:, :, None]).reshape(2 * m, m),
            (-js * self.t_sq).reshape(2 * m, m), cells.ravel())
        return idx, num, den

    def _path(self, complexity: str):
        lab = self.lab
        n, m = lab.n, lab.n - 1
        idx, num, den = self._block_envelopes
        if complexity == "dim":
            delta_max = float(n)
        else:
            # V >= 0 and 0 where no model is; x -> x n / (n - 1) rounds
            # monotonely, so scaling the largest V scales the largest share
            tops = self.var.max(axis=2) * n / (n - 1.0)
            delta_max = float((tops[0] + tops[1]).max())
            # the dmw lines -j T + K' j (n c - T) are (1 + K') (-j T + w j)
            # at w = n c K' / (1 + K'), which runs over [0, n c) as K' runs
            # over [0, inf), and the dim lines are -j T + w j at w = K s n:
            # a block's dmw envelope is its dim one up to w = n c.  A dim
            # piece starts at w = num / d, d the drop in j, so at
            # K' = num / (d n c - num).  As T <= c^2, w <= c^2 <= n c:
            # only a piece starting at w = n c (all n points in one cell)
            # never starts
            at = np.divmod(idx // m, m)
            reach = den // (n * lab.cells[at]) * (n * self.count[at])
            keep = (num < reach) | (num == 0)
            idx, num = idx[keep], num[keep]
            den = np.where(num == 0, 1, reach[keep] - num)
        row, col = np.divmod(idx, m)
        head = np.ones(idx.size, dtype=bool)   # each row's first piece
        head[1:] = row[1:] != row[:-1]
        first = np.flatnonzero(head).reshape(2, m)
        # per cut, the sorted union of both blocks' breakpoints, equal K on
        # both sides counting once; past each, the cut's envelope (the
        # Minkowski sum of its two block envelopes) takes from each block
        # the piece after the last of its breakpoints passed so far
        brk = np.flatnonzero(~head)
        side, cut = np.divmod(row[brk], m)
        order, last = _breakpoint_order(cut, num[brk], den[brk])
        side, cut = side[order], cut[order]
        passed = np.cumsum(np.stack((1 - side, side)), axis=1)
        cut = cut[last]
        nbrk = np.diff(first.ravel(), append=idx.size).reshape(2, m) - 1
        passed = passed[:, last] - (np.cumsum(nbrk, axis=1) - nbrk)[:, cut]
        # every cut's lines in K order: the two first pieces, then one line
        # past each breakpoint
        lcut = np.concatenate((np.arange(m), cut))
        order = np.argsort(lcut, kind="stable")
        lcut = lcut[order]
        steps = np.concatenate((np.zeros((2, m), dtype=passed.dtype), passed),
                               axis=1)[:, order]
        i1, i2 = col[first[:, lcut] + steps]
        # a cut's line is the sum of its blocks' lines times s n over
        # D = k (n - k) n; at most n^4 in size, int64 holds it for any n
        # whose lab fits in memory
        k = lcut + 1
        t1, t2 = self.t_sq[0, lcut, i1], self.t_sq[1, lcut, i2]
        d_cut = k * (n - k) * n
        c_cut = -(i1 + 1) * t1 * (n - k) - (i2 + 1) * t2 * k
        if complexity == "dim":
            s_cut = d_cut * (i1 + i2 + 2)
        else:
            s_cut = ((i1 + 1) * (n * self.count[0, lcut] - t1) * (n - k)
                     + (i2 + 1) * (n * self.count[1, lcut] - t2) * k)
        # the hull takes the lines that may be on it, as Python ints over
        # one common denominator; a full tie keeps the earliest cut
        kept = _undominated(s_cut, c_cut, d_cut)
        common = lcm(*set(d_cut[kept].tolist()))
        scale = common // d_cut[kept].astype(object)
        units = (Fraction(1, common),
                 Fraction(1, common) if complexity == "dim"
                 else Fraction(n, (n - 1) * common))
        tags = list(zip(lcut[kept].tolist(), i1[kept].tolist(),
                        i2[kept].tolist()))
        path, hull = envelope_path(c_cut[kept] * scale, s_cut[kept] * scale,
                                   lambda i: _two_block_id(*tags[i]),
                                   delta_max, units)
        return path, [tags[i] for i in hull]

    def _row(self, key: tuple[int, int, int], penalty: float) -> ModelRow:
        kk, i1, i2 = key
        n = self.lab.n
        return ModelRow(
            model_id=_two_block_id(kk, i1, i2),
            criterion=float(penalty + self.contrast[0, kk, i1]
                            + self.contrast[1, kk, i2]),
            penalty=float(penalty), dim=i1 + i2 + 2,
            dmw=float((self.var[0, kk, i1] + self.var[1, kk, i2])
                      * n / (n - 1.0)),
            d_exact=float(self.lab.d_exact[0, kk, i1]
                          + self.lab.d_exact[1, kk, i2]),
            loss=float(self.lab.s_norm + self.loss[0, kk, i1]
                       + self.loss[1, kk, i2]))

    def oracle_loss(self) -> float:
        best = self.loss.min(axis=2)
        return self.lab.s_norm + (best[0] + best[1]).min()


def make_lab(kind: str, n: int, density: Density):
    """Evaluation engine for a collection kind (fast path for two-block)."""
    if kind == "two-block":
        return TwoBlockLab(n, density)
    return CollectionLab(kind, n, density)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def summarize(ratios) -> tuple[float, float, float]:
    """Mean, median and 0.95-quantile (nearest-rank order statistics)."""
    vals = np.sort(np.asarray(ratios, dtype=float))
    if vals.size == 0:
        raise ValueError("nothing to summarize")
    med = vals[int(np.ceil(0.5 * vals.size)) - 1]
    q95 = vals[int(np.ceil(0.95 * vals.size)) - 1]
    return float(vals.mean()), float(med), float(q95)


class SimulationReport(NamedTuple):
    """Oracle-ratio statistics per method over N replications."""

    collection: str
    n: int
    reps: int
    seed: int
    methods: tuple[str, ...]
    ratios: dict[str, np.ndarray]
    selected: dict[str, list[str]]
    flags: dict[str, list[str | None]]

    def stats(self, method: str) -> tuple[float, float, float]:
        return summarize(self.ratios[method])

    def flagged(self, method: str) -> int:
        return sum(1 for f in self.flags[method] if f)


class SweepReport(NamedTuple):
    """Selected-variance ratios along a penalty-constant grid."""

    collection: str
    n: int
    reps: int
    seed: int
    k_grid: np.ndarray
    mean_d_ratio: np.ndarray
    mean_oracle_ratio: np.ndarray


# ---------------------------------------------------------------------------
# Replication drivers
# ---------------------------------------------------------------------------

_WORKER: dict = {}


def _init_worker(lab, task, seed):
    _WORKER["lab"] = lab
    _WORKER["task"] = task
    _WORKER["seed"] = seed


def _rep_batch(batch: range) -> list:
    """``task`` of the replications in ``batch``, whose uniforms are drawn
    as one array; each still gets its own quantile, sort and Sample."""
    lab, seed = _WORKER["lab"], _WORKER["seed"]
    streams = [RngStream(seed, r, "data") for r in batch]
    draws = uniforms(streams, lab.n)
    return [_WORKER["task"](lab.evaluate(lab.density.sample(lab.n, s, u=u)))
            for s, u in zip(streams, draws)]


def _run_reps(lab, task, seed: int, reps: int, threads: int):
    """``task(evaluation)`` for every replication, in replication order.

    Replications run in batches whose uniforms fill at most CHUNK_BYTES;
    the pool also keeps about 8 batches per worker.  The fork pool starts
    all its workers at once, so it gets no more than there are
    replications or CPUs this process may run on."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(threads, reps, cpus)
    size = max(1, CHUNK_BYTES // (8 * lab.n))
    if workers > 1:
        size = min(size, max(1, reps // (workers * 8)))
    batches = [range(a, min(a + size, reps)) for a in range(0, reps, size)]
    if workers <= 1:
        _init_worker(lab, task, seed)
        return [out for b in map(_rep_batch, batches) for out in b]
    # imported here: a serial run never pays for the pool's modules
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                             initializer=_init_worker,
                             initargs=(lab, task, seed)) as ex:
        return [out for b in ex.map(_rep_batch, batches, chunksize=1)
                for out in b]


def _apply_all(methods, ev) -> list[MethodOutcome]:
    return [ev.apply(m) for m in methods]


def _sweep_rep(k_grid, ev) -> list[tuple[float, float]]:
    """(oracle ratio, D of the pick) per K of the penalty K * D / n."""
    oracle = ev.oracle_loss()
    rows = [ev.argmin(float(k), "d_exact") for k in k_grid]
    return [(r.loss / oracle if oracle > ORACLE_EPS else float("nan"),
             r.d_exact) for r in rows]


def run_example(example: int, n: int, reps: int,
                methods=DEFAULT_METHODS, seed: int = 0,
                density: Density | None = None,
                threads: int = 1) -> SimulationReport:
    """The two benchmark experiments: regular histograms (example 1) and
    the two-block family (example 2), all methods sharing each sample."""
    if example not in (1, 2):
        raise ValueError("example must be 1 or 2")
    if n < 2:
        raise ValueError("examples need n >= 2")
    density = density if density is not None else PowerLaw()
    methods = tuple(methods)
    lab = make_lab("regular-hist" if example == 1 else "two-block", n, density)
    rows = _run_reps(lab, partial(_apply_all, methods), seed, reps, threads)
    ratios = {m.name: np.array([row[i].ratio for row in rows])
              for i, m in enumerate(methods)}
    selected = {m.name: [row[i].selected for row in rows]
                for i, m in enumerate(methods)}
    flags = {m.name: [row[i].flag for row in rows]
             for i, m in enumerate(methods)}
    return SimulationReport(collection=lab.kind, n=n, reps=reps, seed=seed,
                            methods=tuple(m.name for m in methods),
                            ratios=ratios, selected=selected, flags=flags)


def penalty_sweep(kind: str, n: int, k_grid, reps: int, seed: int = 0,
                  density: Density | None = None,
                  threads: int = 1) -> SweepReport:
    """Selection with the exact penalty K * D / n along a K grid.

    Reports, per K, the mean ratio of the selected model's variance number
    to the collection maximum, and the mean oracle ratio.
    """
    if n < 2:
        raise ValueError("a sweep needs n >= 2")
    density = density if density is not None else PowerLaw()
    k_grid = np.asarray(sorted(k_grid), dtype=float)
    if k_grid.size == 0 or np.any(np.diff(k_grid) <= 0):
        raise ValueError("K grid must be non-empty and strictly increasing")
    lab = make_lab(kind, n, density)
    out = np.array(_run_reps(lab, partial(_sweep_rep, k_grid), seed, reps,
                             threads)).reshape(reps, k_grid.size, 2)
    return SweepReport(collection=kind, n=n, reps=reps, seed=seed,
                       k_grid=k_grid,
                       mean_d_ratio=(out[:, :, 1] / lab.d_max).mean(axis=0),
                       mean_oracle_ratio=out[:, :, 0].mean(axis=0))
