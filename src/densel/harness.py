"""End-to-end experiments: oracle-ratio simulations and penalty sweeps.

A replication draws one sample and evaluates every model of a collection
once; each selection method then picks from that evaluation, and its score
is the oracle ratio, the exact loss of the selected estimator divided by
the smallest exact loss in the collection.  Reports aggregate mean, median
and 0.95-quantile (nearest-rank) over replications.

A lab holds a collection's exact population tables and evaluates a sample
into per-model contrast, dmw, variance number D and loss.  Every caller,
the CLI included, picks from an evaluation through two operations:
``argmin`` of contrast + K * complexity / n, and ``path``, the exact slope
path, on which ``slope.slope_pick`` makes the slope heuristic's pick.  Both
break ties on the criterion, then the dimension, then enumeration order.

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
per replication.  The path takes the lower envelopes of all blocks in one
batched hull, merges each cut's two envelopes by their breakpoints, and
runs the hull once more on the merged lines.  The per-model loop both
are checked against, and the block-by-block forms of the two-block
evaluation and selections, are in ``tests/oracles.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .densities import Density, PowerLaw, Sample
from .models import (ModelCollection, build_collection, exact_quantities,
                     fourier_basis_matrix)
from .rng import RngStream
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

@dataclass(frozen=True)
class Method:
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


@dataclass(frozen=True)
class MethodOutcome:
    """One method's result on one replication."""

    method: str
    ratio: float
    selected: str
    flag: str | None = None


# ---------------------------------------------------------------------------
# Evaluations: the two operations every caller picks with
# ---------------------------------------------------------------------------

_SLOPE_COMPLEXITY = {"slope-dim": "dim", "resampling-slope": "dmw"}


@dataclass(frozen=True)
class ModelRow:
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
CHUNK_BYTES = 256 * 1024
_BELOW_ONE = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class _BlockRow:
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
    collection plus a per-sample evaluator.

    Regular histograms are the one-block case of the block engine: j = 1..n
    equal cells on [0, 1].  Nested Fourier models share coefficients:
    ``pop`` holds those of the largest model, every model's bias and D fall
    out of one cumulative sum, and each sample is fitted once.
    """

    def __init__(self, collection: ModelCollection, density: Density):
        self.collection = collection
        self.density = density
        self.n = collection.n
        self.kind = collection.kind
        self.ids = [m.id for m in collection]
        self.dims = np.array([m.dim for m in collection], dtype=float)
        self.s_norm = density.l2_norm_sq()
        if self.kind == "regular-hist":
            self.block = _block_row(density, [0.0], [1.0], [1.0], [self.n],
                                    self.n)
            d_exact = self.block.d[0]
        elif self.kind == "fourier":
            big = max(collection, key=lambda m: m.dim)
            self.pop = exact_quantities(big, density, self.n).pop_coeffs
            self._last = self.dims.astype(int) - 1    # last coefficient
            sm = np.cumsum(self.pop ** 2)[self._last]
            # guard the float tail: bias and D are nonnegative by construction
            self.bias_sq = np.maximum(self.s_norm - sm, 0.0)
            d_exact = self.dims - sm
        else:
            raise ValueError(f"no lab for a {self.kind!r} collection")
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
        mat = fourier_basis_matrix(self.pop.size // 2, sample.points)
        coeffs = mat.mean(axis=0)
        var = (mat ** 2).mean(axis=0) - coeffs ** 2
        contrasts = -np.cumsum(coeffs ** 2)[self._last]
        dmws = (n / (n - 1.0) * np.cumsum(var)[self._last] if n >= 2
                else np.full(len(self.ids), np.nan))
        losses = self.bias_sq + np.cumsum((coeffs - self.pop) ** 2)[self._last]
        return _Evaluation(ids=self.ids, dims=self.dims, contrasts=contrasts,
                           dmws=dmws, losses=losses, d_exact=self.d_exact,
                           n=self.n)


@dataclass
class _Evaluation(_LabEvaluation):
    """All per-model statistics of one replication; a model's key is its
    position in the collection."""

    ids: list[str]
    dims: np.ndarray
    contrasts: np.ndarray
    dmws: np.ndarray
    losses: np.ndarray
    d_exact: np.ndarray
    n: int

    def _complexity(self, name: str) -> np.ndarray:
        if name == "dmw" and self.n < 2:
            raise ValueError("resampling estimate needs n >= 2")
        return {"dim": self.dims, "dmw": self.dmws, "d_exact": self.d_exact}[name]

    def _argmin(self, k_const: float, complexity: str) -> tuple[int, float]:
        pens = k_const * self._complexity(complexity) / self.n
        idx = int(np.lexsort((self.dims, self.contrasts + pens))[0])
        return idx, pens[idx]

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


@dataclass
class _HistogramEvaluation(_Evaluation):
    """A regular-histogram evaluation, whose slope paths run on integer
    lines: with T = sum c^2 over the j cells, the contrast is -j T / n^2,
    and the complexity j for ``dim`` or j (n^2 - T) / (n (n - 1)) for
    ``dmw``, so the lines are -j T + K' j or -j T + K' j (n^2 - T) with K'
    in units of 1/n^2 or (n - 1)/n."""

    t_sq: np.ndarray

    def _lines(self, complexity: str):
        n, j, t = self.n, self.dims.astype(np.int64), self.t_sq
        if complexity == "dim":
            return -j * t, j, (Fraction(1, n * n), 1)
        return (-j * t, j * (n * n - t),
                (Fraction(1, n * n), Fraction(1, n * (n - 1))))


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
    holds D (0 elsewhere).  Selections are array operations over all cuts:
    the argmin reduces per (side, cut), and the slope path takes the lower
    envelopes of all 2(n-1) blocks in one batched hull, merges each cut's
    two envelopes by their breakpoints and runs the hull once more on the
    merged lines.
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
        cells = np.stack((np.arange(1, n), np.arange(m, 0, -1)))
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
        a, v, loss_part = _row_stats(
            self.blocks, *_bin_counts(self.blocks, pts, first, count),
            count, n)
        invalid = ~self.valid
        contrast = np.negative(a, out=a).reshape(2, m, m)
        contrast[invalid] = np.inf
        var = v.reshape(2, m, m)
        var[invalid] = 0.0
        loss = loss_part.reshape(2, m, m)
        loss[invalid] = np.inf
        return _TwoBlockEvaluation(lab=self, contrast=contrast, var=var,
                                   loss=loss)


def _two_block_id(kk: int, i1: int, i2: int) -> str:
    return f"two-block:k={kk + 1},j1={i1 + 1},j2={i2 + 1}"


@dataclass
class _TwoBlockEvaluation(_LabEvaluation):
    """Block statistics of one replication as (side, cut, cells) arrays: the
    block's share -A of the contrast (+inf where no model is), V of the
    variance part of dmw (0 there) and L of the loss (+inf there).  A
    model's key is (cut index, left cell index, right cell index)."""

    lab: TwoBlockLab
    contrast: np.ndarray
    var: np.ndarray
    loss: np.ndarray

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
        crit = crits.min()
        best = None
        for kk in np.flatnonzero(crits == crit):
            g1, g2 = g[:, kk]
            m1, m2 = mins[:, kk]
            # exact ties: rounding is monotone, so a pair sums to crit only
            # if each of its parts does so with the other block's minimum
            tied = min((i1 + i2, i1, i2)
                       for i1 in np.flatnonzero(g1 + m2 == crit)
                       for i2 in np.flatnonzero(m1 + g2 == crit)
                       if g1[i1] + g2[i2] == crit)
            if best is None or tied[0] < best[0][0]:
                best = (tied, int(kk))
        (_, i1, i2), kk = best
        return (kk, int(i1), int(i2)), pens[0, kk, i1] + pens[1, kk, i2]

    def _path(self, complexity: str):
        lab = self.lab
        n, m = lab.n, lab.n - 1
        if complexity == "dim":
            slopes = np.where(lab.valid, np.arange(1.0, n), np.nan)
        else:
            slopes = self.var * n
            slopes /= n - 1.0
            slopes[~lab.valid] = np.nan
        tops = np.fmax.reduce(slopes, axis=2)
        delta_max = max(0.0, float((tops[0] + tops[1]).max()))
        # the envelopes of all blocks: pieces row by row (left blocks, then
        # right blocks), each row's first piece starting at K = 0
        idx, starts = lower_envelope(slopes.reshape(2 * m, m),
                                     self.contrast.reshape(2 * m, m))
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
        ks = starts[brk]
        order = np.lexsort((ks, cut))
        side, cut, ks = side[order], cut[order], ks[order]
        passed = np.cumsum(np.stack((1 - side, side)), axis=1)
        last = np.ones(cut.size, dtype=bool)
        last[:-1] = (cut[1:] != cut[:-1]) | (ks[1:] != ks[:-1])
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
        deltas = slopes[0, lcut, i1] + slopes[1, lcut, i2]
        contrasts = self.contrast[0, lcut, i1] + self.contrast[1, lcut, i2]
        tags = list(zip(lcut.tolist(), i1.tolist(), i2.tolist()))
        path, hull = envelope_path(contrasts, deltas,
                                   lambda i: _two_block_id(*tags[i]),
                                   delta_max, (1, 1))
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
    return CollectionLab(build_collection(kind, n), density)


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


@dataclass(frozen=True)
class SimulationReport:
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


@dataclass(frozen=True)
class SweepReport:
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


def _one_rep(rep: int):
    lab = _WORKER["lab"]
    sample = lab.density.sample(lab.n, RngStream(_WORKER["seed"], rep, "data"))
    return _WORKER["task"](lab.evaluate(sample))


def _run_reps(lab, task, seed: int, reps: int, threads: int):
    """``task(evaluation)`` for every replication, in replication order.

    The fork pool starts all its workers at once, so it gets no more than
    there are replications or CPUs."""
    workers = min(threads, reps, os.cpu_count() or 1)
    if workers <= 1:
        _init_worker(lab, task, seed)
        return [_one_rep(r) for r in range(reps)]
    # imported here: a serial run never pays for the pool's modules
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                             initializer=_init_worker,
                             initargs=(lab, task, seed)) as ex:
        return list(ex.map(_one_rep, range(reps),
                           chunksize=max(1, reps // (workers * 8))))


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
