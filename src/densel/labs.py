"""Labs: a collection's exact tables, the per-sample evaluation of all
its models, and the selections made from that evaluation.

A lab is made from a collection's kind and index n: it generates the
models' ids and dimensions, holds the exact population tables and
evaluates a sample into per-model contrast, dmw, variance number D and
loss.  Every caller, the CLI included, picks from an evaluation through
two operations: ``argmin`` of contrast + K * complexity / n, and
``path``, the exact slope path, on which ``slope.slope_pick`` makes the
slope heuristic's pick.  Ties follow one rule: the least criterion,
then the least complexity, then the earliest model in enumeration order.
The path keeps it (a breakpoint goes to the flatter of its two lines, a
full tie to the earliest line), and on the histogram labs the ``dim``
and ``dmw`` argmin is the path's segment at the penalty constant.

Both histogram families run on one block engine over a row of blocks
[lo, hi): ``_block_row`` builds the cell probabilities of j = 1..J equal
cells of every block, one ``cdf`` call per chunk of blocks whose
(points x J) size fits ``CHUNK_BYTES``, in the chunk's own layout;
``_bin_counts`` bins one sample's points in every block for the j in
(J/2, J], one pass per chunk, and gets the counts of every smaller j as
pair sums of those of 2j; ``_row_stats`` turns the sums into each j's
statistics.  ``CollectionLab`` runs it on the single block [0, 1] for
the regular histograms, whose slope paths are integer lines decided
exactly, and keeps the nested Fourier models as arrays.  The two-block
family's lab runs it on a row of all cuts' blocks (module ``twoblock``);
``harness`` picks the lab for a kind and runs the experiments.  The
model lists, the per-model loop and the block-by-block tables both labs
are checked against are in ``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .densities import Density, Sample
from .methods import Method, MethodOutcome
from .models import fourier_means, fourier_pop_coeffs
from .slope import SlopePath, envelope_path, slope_pick

__all__ = [
    "ModelRow",
    "CollectionLab",
]

ORACLE_EPS = 1e-15


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


class _LabEvaluation:
    """Selection on one evaluated sample.

    Subclasses key their models in their own way, set ``n`` and an empty
    ``_paths`` dict, and provide ``_argmin(k_const, complexity) -> (key,
    penalty)``, ``_build_path(complexity) -> (SlopePath, key per
    segment)``, ``_row(key, penalty)`` and ``oracle_loss()``.  An argmin
    takes the least criterion, then the least complexity, then the
    earliest model in enumeration order.
    """

    def argmin(self, k_const: float, complexity: str) -> ModelRow:
        """The model minimizing contrast + k_const * complexity / n, where
        the complexity is ``dim``, ``dmw`` or ``d_exact``."""
        return self._row(*self._argmin(k_const, complexity))

    def path(self, complexity: str) -> SlopePath:
        """Exact slope path for the complexity ``dim`` or ``dmw``."""
        return self._path(complexity)[0]

    def _path(self, complexity: str) -> tuple[SlopePath, list]:
        """``_build_path``, once per evaluation and complexity."""
        if complexity not in self._paths:
            self._paths[complexity] = self._build_path(complexity)
        return self._paths[complexity]

    def _path_key(self, k_const: float, complexity: str):
        """The key of the exact path's segment at Fraction(k_const) / n."""
        path, keys = self._path(complexity)
        return keys[path._position(Fraction(k_const) / self.n)]

    @cached_property
    def _oracle(self) -> float:
        """``oracle_loss()``, once per evaluation for all its methods."""
        return self.oracle_loss()

    def apply(self, method: Method) -> MethodOutcome:
        if method.kind in _SLOPE_COMPLEXITY:
            path, keys = self._path(_SLOPE_COMPLEXITY[method.kind])
            pos, k_min, flag = slope_pick(path)
            row = self._row(keys[pos], 2.0 * k_min * path._delta(pos))
        elif method.kind == "resampling":
            row, flag = self.argmin(2.0, "dmw"), None
        elif method.kind == "ideal":
            row, flag = self.argmin(method.k_const, "d_exact"), None
        else:
            raise ValueError(f"unknown method {method.kind!r}")
        oracle = self._oracle
        if oracle <= ORACLE_EPS:
            return MethodOutcome(method=method.name, ratio=float("nan"),
                                 selected=row.model_id, flag="degenerate-oracle")
        return MethodOutcome(method=method.name, ratio=row.loss / oracle,
                             selected=row.model_id, flag=flag)


# ---------------------------------------------------------------------------
# The block engine: j = 1..J equal cells on each block of a row
# ---------------------------------------------------------------------------

# A chunk of blocks keeps its (points x cells) index array of n points per
# block within this many bytes; a block larger than that is a chunk alone.
# A batch of replications (``harness._run_reps``) keeps its (reps x n)
# uniforms within it too.
CHUNK_BYTES = 256 * 1024
_BELOW_ONE = np.nextafter(1.0, 0.0)


class _Chunk(NamedTuple):
    """Consecutive blocks b0..b1 - 1, each padded to J cells for every
    j = 1..J, their cell tables built at ``offset`` in the row's ``pop``.

    The j fall into levels (J / 2^(L+1), J / 2^L] (in integers), and the
    even j of level L are twice the j of level L + 1.  The tables hold the
    levels one after the other; a level holds the segments of its even j
    first, in the order of level L + 1's segments, each j as one segment of
    j cells per block, block after block.  Level L + 1 is then one pair sum
    of the front of level L: ``steps`` holds (level L's start, level
    L + 1's start, its cells).  ``js`` are level 0's j, the binned ones,
    and ``at`` (block, binned j) their segments' starts; ``cols`` and
    ``starts`` are every j - 1 and (j, block) segment start in table
    order."""

    b0: int
    b1: int
    jmax: int
    offset: int
    js: np.ndarray
    at: np.ndarray
    steps: tuple
    cols: np.ndarray
    starts: np.ndarray


def _chunk(b0: int, b1: int, jmax: int, offset: int) -> _Chunk:
    """The layout of a chunk."""
    nb = b1 - b0
    levels, hi = [], jmax
    while hi:
        levels.append(range(hi // 2 + 1, hi + 1))
        hi //= 2
    order = [[]]
    for level in reversed(levels):
        order.append([2 * j for j in order[-1]] + [j for j in level if j % 2])
    order = order[:0:-1]                              # level 0 first
    cells = np.cumsum([0] + [nb * sum(level) for level in order])
    steps = tuple((int(cells[lv]), int(cells[lv + 1]),
                   int(cells[lv + 2] - cells[lv + 1]))
                  for lv in range(len(order) - 1))
    js = np.array([j for level in order for j in level])
    starts = (nb * np.concatenate(([0], np.cumsum(js)[:-1])))[:, None] \
        + js[:, None] * np.arange(nb)
    binned = len(order[0])
    return _Chunk(b0=b0, b1=b1, jmax=jmax, offset=offset,
                  js=js[:binned].astype(float),
                  at=np.ascontiguousarray(starts[:binned].T), steps=steps,
                  cols=js - 1, starts=starts.ravel())


class _BlockRow(NamedTuple):
    """A row of blocks [lo_b, lo_b + width_b), each cut into j = 1..cells_b
    equal cells for every j, with the cell probabilities of all of them.

    The tables come in chunks of consecutive blocks (``_Chunk``), each
    built in its layout by one ``cdf`` call.  A chunk pads each of its
    blocks to its largest cell count J with probability 0, so a block
    holds J (J + 1) / 2 cells there.  ``d`` is D and ``width_inv`` the
    inverse cell width j / width_b per (block, j - 1), both 0 past a
    block's cells.
    """

    lo: np.ndarray
    width: np.ndarray
    pop: np.ndarray
    chunks: tuple
    d: np.ndarray
    width_inv: np.ndarray


def _block_row(density: Density, lo, hi, mass, cells, n: int) -> _BlockRow:
    """The tables of blocks [lo_b, hi_b) of mass mass_b with j = 1..cells_b
    cells, chunked so that n points per block times J cells stay within
    CHUNK_BYTES (the binning pass's index array takes half of that); a
    chunk's cells are the differences of one ``cdf`` call over the j + 1
    edges of each of its (j, block) segments that hold cells."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    cells = np.asarray(cells, dtype=np.int64)
    bounds, b0, jmax = [], 0, 0
    for b, j in enumerate(cells.tolist()):
        if b > b0 and (b + 1 - b0) * n * max(jmax, j) * 8 > CHUNK_BYTES:
            bounds.append((b0, b, jmax))
            b0, jmax = b, 0
        jmax = max(jmax, j)
    bounds.append((b0, cells.size, jmax))
    offsets = np.cumsum([0] + [(b1 - b0) * (jmax * (jmax + 1) // 2)
                               for b0, b1, jmax in bounds]).tolist()
    pop = np.zeros(offsets[-1])
    sumsq = np.zeros((cells.size, int(cells.max())))
    chunks = []
    for (b0, b1, jmax), offset, end in zip(bounds, offsets, offsets[1:]):
        ch = _chunk(b0, b1, jmax, offset)
        chunks.append(ch)
        seg = np.repeat(ch.cols + 1, b1 - b0)  # j per segment, table order
        held = seg <= np.tile(cells[b0:b1], jmax)
        js, blk = seg[held], np.tile(np.arange(b0, b1), jmax)[held]
        first = np.cumsum(js + 1) - js - 1     # edge 0 of each segment
        edges = (np.arange(first[-1] + js[-1] + 1, dtype=float)
                 - np.repeat(first, js + 1))  # i of each edge, then edge i
        edges *= np.repeat((hi - lo)[blk], js + 1)
        edges /= np.repeat(js, js + 1)
        edges += np.repeat(lo[blk], js + 1)
        np.clip(edges, 0.0, 1.0, out=edges)
        edges[first], edges[first + js] = lo[blk], hi[blk]  # pin the ends
        diff = np.diff(density.cdf(edges))
        table = pop[offset:end]
        # drop the steps from one segment to the next
        table[np.repeat(held, seg)] = np.delete(diff, (first + js)[:-1])
        sumsq[b0:b1, ch.cols] = np.add.reduceat(
            table * table, ch.starts).reshape(jmax, -1).T
    width_inv = np.arange(1, sumsq.shape[1] + 1) / (hi - lo)[:, None]
    width_inv[np.arange(sumsq.shape[1]) >= cells[:, None]] = 0.0
    d = width_inv * (np.asarray(mass)[:, None] - sumsq)
    return _BlockRow(lo=lo, width=hi - lo, pop=pop, chunks=tuple(chunks),
                     d=d, width_inv=width_inv)


def _bin_counts(row: _BlockRow, pts: np.ndarray, first: np.ndarray,
                count: np.ndarray):
    """T = sum c^2 (int64) and W = sum c pop over the cells, per (block,
    j - 1), of the points pts[first_b:first_b + count_b] in each block b.
    Entries past a block's cells hold no sum.

    One pass per chunk bins all its (block, point) pairs for the j in
    (J/2, J] at once, half the cell counts; every smaller j's counts are
    pair sums of those of 2j, one level at a time (see ``_Chunk``).  That
    is exact: doubling is exact in floats, so floor(fl(2 j y)) is
    2 floor(fl(j y)) or one more, and cell i of j holds cells 2i and 2i + 1
    of 2j.  The sums run over the same (block, j) segments of cells as a
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
    t = np.zeros(row.d.shape, dtype=np.int64)
    w = np.zeros(row.d.shape)
    buf = np.empty(max((end[ch.b1 - 1] - end[ch.b0] + count[ch.b0])
                       * ch.js.size for ch in row.chunks), dtype=np.int64)
    for ch in row.chunks:
        p0, p1 = end[ch.b0] - count[ch.b0], end[ch.b1 - 1]
        if p0 == p1:
            continue
        size = (ch.b1 - ch.b0) * (ch.jmax * (ch.jmax + 1) // 2)
        idx = buf[:(p1 - p0) * ch.js.size].reshape(p1 - p0, ch.js.size)
        np.multiply(y[p0:p1, None], ch.js, out=idx, casting="unsafe")
        idx += np.repeat(ch.at, count[ch.b0:ch.b1], axis=0)
        c = np.bincount(idx.ravel(), minlength=size)
        for src, dst, cells in ch.steps:
            np.add(c[src:src + 2 * cells:2], c[src + 1:src + 2 * cells:2],
                   out=c[dst:dst + cells])
        t[ch.b0:ch.b1, ch.cols] = np.add.reduceat(
            c * c, ch.starts).reshape(ch.jmax, -1).T
        w[ch.b0:ch.b1, ch.cols] = np.add.reduceat(
            c * row.pop[ch.offset:ch.offset + size],
            ch.starts).reshape(ch.jmax, -1).T
    return t, w


def _row_stats(row: _BlockRow, t: np.ndarray, w: np.ndarray, n: int):
    """A (sum sq coeffs) and L (loss part) per (block, j - 1) from the sums
    of ``_bin_counts``, for a sample of size n; L is built in the array of
    W.  Both are 0 past a block's cells."""
    a = _contrast_part(row.width_inv, t, n)
    # L = A - 2 (1/w) W / n, doubling being exact
    w *= 2.0
    w *= row.width_inv
    w /= n
    np.subtract(a, w, out=w)
    return a, w


def _contrast_part(width_inv, t, n: int) -> np.ndarray:
    """A = (1/w) T / n^2, elementwise: gathered entries get the floats of
    the whole array."""
    a = width_inv * t
    a /= n * n
    return a


def _variance_part(width_inv, t, count, n: int) -> np.ndarray:
    """V = (1/w) (count - T / n) / n = sum c (n - c) / (n^2 w) over the
    cells, never negative; elementwise, as ``_contrast_part``."""
    v = t / n
    np.subtract(count, v, out=v)
    v *= width_inv
    v /= n
    return v


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
            a, loss_part = _row_stats(self.block, t, w, n)
            dmws = (_variance_part(self.block.width_inv[0], t[0], count, n)
                    * n / (n - 1.0)
                    if n >= 2 else np.full(a.shape[1], np.nan))
            return _HistogramEvaluation(
                ids=self.ids, dims=self.dims, contrasts=-a[0], dmws=dmws,
                losses=self.s_norm + loss_part[0], d_exact=self.d_exact,
                n=self.n, t_sq=t[0])
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
        self._paths = {}

    def _complexity(self, name: str) -> np.ndarray:
        if name == "dmw" and self.n < 2:
            raise ValueError("resampling estimate needs n >= 2")
        return {"dim": self.dims, "dmw": self.dmws, "d_exact": self.d_exact}[name]

    def _argmin(self, k_const: float, complexity: str) -> tuple[int, float]:
        """The argmin in floats, kept for the Fourier models and for
        ``d_exact``, whose values are not rational."""
        deltas = self._complexity(complexity)
        pens = k_const * deltas / self.n
        idx = int(np.lexsort((deltas, self.contrasts + pens))[0])
        return idx, pens[idx]

    def _lines(self, complexity: str):
        """(contrasts, complexities, units) of the path's lines."""
        return self.contrasts, self._complexity(complexity), (1, 1)

    def _build_path(self, complexity: str) -> tuple[SlopePath, list[int]]:
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

    def _argmin(self, k_const: float, complexity: str) -> tuple[int, float]:
        if complexity == "d_exact":
            return super()._argmin(k_const, complexity)
        idx = self._path_key(k_const, complexity)
        return idx, k_const * self._complexity(complexity)[idx] / self.n
