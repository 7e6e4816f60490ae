"""Labs: a collection's exact tables, the per-sample evaluation of all
its models, and the selections made from that evaluation.

A lab is made from a collection's kind and index n: it generates the
models' ids and dimensions, holds the exact population tables and
evaluates a sample into per-model contrast, dmw, variance number D and
loss.  Every caller, the CLI included, picks from an evaluation through
two operations: ``argmin`` of contrast + K * complexity / n, and
``path``, the exact slope path, on which ``slope.slope_pick`` makes the
slope heuristic's pick.  The argmin breaks ties on the criterion, then
the dimension, then enumeration order; the path gives a breakpoint to
the flatter of its two lines and a full tie to the earliest line.

Both histogram families run on one block engine over a row of blocks
[lo, hi): ``_block_row`` holds the cell probabilities of j = 1..J equal
cells of every block, ``_bin_counts`` bins one sample's points in every
block for every j, one pass per chunk of blocks whose (points x cells)
index array fits ``CHUNK_BYTES``, and ``_row_stats`` turns the sums into
each j's statistics.  ``CollectionLab`` runs it on the single block
[0, 1] for the regular histograms, whose slope paths are integer lines
decided exactly, and keeps the nested Fourier models as arrays.  The
two-block family's lab runs it on a row of all cuts' blocks (module
``twoblock``); ``harness`` picks the lab for a kind and runs the
experiments.  The model lists and the per-model loop both labs are
checked against are in ``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .densities import Density, Sample
from .models import fourier_means, fourier_pop_coeffs
from .slope import SlopePath, envelope_path, slope_pick

__all__ = [
    "Method",
    "penalty_constant",
    "parse_method",
    "MethodOutcome",
    "ModelRow",
    "CollectionLab",
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
# A batch of replications (``harness._run_reps``) keeps its (reps x n)
# uniforms within it too.
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

