"""Slow, obviously-correct forms the tests check the package against.

Nothing here runs in the ``densel`` command.  The labs of ``densel.labs``
and ``densel.twoblock`` compute every selection from arrays; each
definition below is the explicit, per-model version of one of their
steps:

* numpy's C Philox generator on a stream's key, whose draws
  ``rng.uniforms`` computes with array arithmetic;
* the resampling penalty by Monte-Carlo over drawn weight vectors (Efron
  multinomial, 0/2 coin flips, leave-one-out), and the O(n^2 d) double
  sums behind the closed-form dmw and the U-statistic identity
  p - dmw/n = u;
* per-model penalties (K * dim / n, K * D / n, 2 dmw / n), the plain
  argmin ``select`` and the list form of ``slope_path``;
* the model lists of the three collections: regular histograms, Fourier
  spaces and the enumerated two-block family (about n^3/6 ``ModelSpec``
  objects), whose ids and dimensions the labs generate from (kind, n);
  pointwise basis evaluation; and the Fourier population coefficients
  with cos and sin at every node and frequency, on numpy's
  Gauss-Legendre rule;
* the exact loss of one fit, the per-model lab that fits every model of
  a collection one at a time (the oracle of both block labs), and the
  oracle ratio of one method on one sample through it;
* the slope pick on regular histograms in ``Fraction`` arithmetic, walked
  along the envelope without a hull;
* the cell-probability tables and D of one block at a time
  (``_block_tables``), the reference for the block engine's chunked
  build;
* the lower envelope as one monotone chain per set of lines, and the
  two-block lab cut by cut: each block's statistics binned on their own,
  the per-cut argmin and oracle loss, and the slope path in ``Fraction``s
  over every pair of each cut's two block hulls.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from densel.densities import Density, Sample
from densel.fitting import FittedModel, fit_model, histogram_counts, p_term
from densel.harness import Method, TwoBlockLab, _Evaluation
from densel.models import (ExactModelQuantities, ModelSpec, exact_quantities,
                           fourier_basis_matrix, fourier_model,
                           histogram_cell_index, histogram_model,
                           regular_histogram)
from densel.penalties import resampling_dmw
from densel.rng import RngStream
from densel.hull import _TIE_RTOL
from densel.slope import PathSegment, SlopePath, envelope_path
from densel.twoblock import _two_block_id


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------

def generator(stream: RngStream) -> np.random.Generator:
    """Fresh numpy generator positioned at the start of ``stream``; its
    ``random(n)`` equals ``uniforms([stream], n)[0]``."""
    return np.random.Generator(np.random.Philox(key=stream._key()))


# ---------------------------------------------------------------------------
# Collections and bases
# ---------------------------------------------------------------------------

def two_block_params(n: int) -> Iterator[tuple[int, int, int]]:
    """Every (k, j1, j2) with 1 <= k < n, j1 <= k, j2 <= n - k, in the
    enumeration order of the two-block family."""
    for k in range(1, n):
        for j1 in range(1, k + 1):
            for j2 in range(1, n - k + 1):
                yield k, j1, j2


def two_block_breaks(n: int, k: int, j1: int, j2: int) -> np.ndarray:
    """Partition with j1 equal cells on [0, k/n) then j2 on [k/n, 1)."""
    c = k / n
    left = c * np.arange(j1 + 1) / j1
    right = c + (1.0 - c) * np.arange(1, j2 + 1) / j2
    right[-1] = 1.0                       # pin the float tail of c + (1-c)
    return np.concatenate((left, right))


@dataclass(frozen=True)
class ModelCollection:
    """A finite list of models sharing one basis type."""

    kind: str                       # "regular-hist" | "two-block" | "fourier"
    n: int
    models: tuple[ModelSpec, ...]

    def __post_init__(self) -> None:
        ids = [m.id for m in self.models]
        if len(set(ids)) != len(ids):
            raise ValueError("model ids must be unique")

    def __len__(self) -> int:
        return len(self.models)

    def __iter__(self):
        return iter(self.models)


def build_regular_histograms(n: int) -> ModelCollection:
    """Histograms with d = 1..n equal cells on [0,1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ModelCollection(kind="regular-hist", n=n, models=tuple(
        regular_histogram(d) for d in range(1, n + 1)))


def build_fourier_collection(n: int) -> ModelCollection:
    """Fourier spaces with cutoff j = 1..n (dim 2j+1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ModelCollection(kind="fourier", n=n,
                           models=tuple(fourier_model(j) for j in range(1, n + 1)))


def build_two_block_collection(n: int) -> ModelCollection:
    """The two-block family as one ``ModelSpec`` per (k, j1, j2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ModelCollection(kind="two-block", n=n, models=tuple(
        histogram_model(two_block_breaks(n, k, j1, j2),
                        id=f"two-block:k={k},j1={j1},j2={j2}",
                        params=(k, j1, j2))
        for k, j1, j2 in two_block_params(n)))


def build_collection(kind: str, n: int) -> ModelCollection:
    """The model list of a collection kind: regular histograms, Fourier
    spaces or the enumerated two-block family."""
    kind = kind.strip().lower()
    if kind == "regular-hist":
        return build_regular_histograms(n)
    if kind == "fourier":
        return build_fourier_collection(n)
    if kind == "two-block":
        return build_two_block_collection(n)
    raise ValueError(f"unknown collection kind {kind!r}")


def fourier_pop_coeffs_trig(density: Density, j: int) -> np.ndarray:
    """``models.fourier_pop_coeffs`` on numpy's ``leggauss`` rule, with
    cos and sin of 2 pi k x at every node: the same composite rules and
    the same 1e-10 agreement check."""
    breaks = np.asarray(getattr(density, "breaks", (0.0, 1.0)), dtype=float)
    kinks = np.cbrt(density.cdf(breaks))
    kinks[0], kinks[-1] = 0.0, 1.0
    kinks = np.unique(kinks)            # zero-mass cells have no width in t
    gl_x, gl_w = np.polynomial.legendre.leggauss(32)
    rules = []
    for panels in (j + 1, 2 * (j + 1)):
        edges = kinks[:-1, None] + np.diff(kinks)[:, None] * (
            np.arange(panels + 1) / panels)
        half = 0.5 * np.diff(edges, axis=1).reshape(-1, 1)
        t = (edges[:, :-1].reshape(-1, 1) + half * (1.0 + gl_x)).ravel()
        rules.append((density.quantile(t ** 3),
                      np.sqrt(2.0) * (half * gl_w).ravel() * 3.0 * t * t))
    coeffs = np.empty(2 * j + 1)
    coeffs[0] = 1.0
    for k in range(1, j + 1):
        (c1, s1), (c2, s2) = [(w @ np.cos(2.0 * np.pi * k * x),
                               w @ np.sin(2.0 * np.pi * k * x))
                              for x, w in rules]
        err = max(abs(c1 - c2), abs(s1 - s2))
        if not err <= 1e-10:
            raise ArithmeticError(
                f"Gauss-Legendre rule for Fourier coefficient k={k} did not "
                f"converge (two rules differ by {err:.2e})")
        coeffs[2 * k - 1], coeffs[2 * k] = c2, s2
    return coeffs


def basis_eval(model: ModelSpec, lam: int, x) -> np.ndarray:
    """Value of basis function ``lam`` of ``model`` at ``x``."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("point outside [0, 1]")
    if lam < 0 or lam >= model.dim:
        raise IndexError(f"basis index {lam} out of range for dim {model.dim}")
    if model.basis == "histogram":
        inside = (histogram_cell_index(model.breaks, x) == lam)
        return inside / np.sqrt(model.widths[lam])
    k, is_sin = (lam + 1) // 2, (lam % 2 == 0 and lam > 0)
    if lam == 0:
        return np.ones_like(x)
    if is_sin:
        return np.sqrt(2.0) * np.sin(2.0 * np.pi * k * x)
    return np.sqrt(2.0) * np.cos(2.0 * np.pi * k * x)


def _basis_matrix(fit: FittedModel, sample: Sample) -> np.ndarray:
    """psi_lambda(X_i) as an (n, d) matrix."""
    model = fit.model
    if model.basis == "fourier":
        return fourier_basis_matrix(model.j, sample.points)
    cell = histogram_cell_index(model.breaks, sample.points)
    mat = np.zeros((sample.n, model.dim))
    mat[np.arange(sample.n), cell] = 1.0 / np.sqrt(model.widths[cell])
    return mat


# ---------------------------------------------------------------------------
# Losses and oracle ratios
# ---------------------------------------------------------------------------

def exact_loss(fit: FittedModel, quantities: ExactModelQuantities) -> float:
    """True squared loss of the fitted estimator: bias + estimation error."""
    return quantities.bias_sq + p_term(fit, quantities)


class PerModelLab:
    """The lab interface over any collection, one model at a time: each
    model is fitted with ``fit_model`` and scored with ``resampling_dmw``
    and bias + ``p_term``."""

    def __init__(self, collection: ModelCollection, density: Density):
        self.collection = collection
        self.n = collection.n
        self.ids = [m.id for m in collection]
        self.dims = np.array([m.dim for m in collection], dtype=float)
        self.table = [exact_quantities(m, density, self.n) for m in collection]
        self.d_exact = np.array([q.d_exact for q in self.table])

    def evaluate(self, sample: Sample) -> _Evaluation:
        contrasts, dmws, losses = (np.empty(len(self.ids)) for _ in range(3))
        for i, (model, q) in enumerate(zip(self.collection, self.table)):
            fit = fit_model(model, sample)
            contrasts[i] = fit.emp_contrast
            dmws[i] = resampling_dmw(fit, sample) if sample.n >= 2 else np.nan
            losses[i] = exact_loss(fit, q)
        return _Evaluation(ids=self.ids, dims=self.dims, contrasts=contrasts,
                           dmws=dmws, losses=losses, d_exact=self.d_exact,
                           n=self.n)


def oracle_ratio(sample: Sample, collection: ModelCollection, method: Method,
                 density: Density) -> float:
    """Exact loss of the method's pick divided by the collection minimum."""
    lab = PerModelLab(collection, density)
    outcome = lab.evaluate(sample).apply(method)
    if outcome.flag == "degenerate-oracle":
        raise ArithmeticError("oracle loss is numerically zero")
    return outcome.ratio


# ---------------------------------------------------------------------------
# Per-model penalties
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PenaltyValue:
    """A penalty assignment for one model."""

    model_id: str
    value: float


def resampling_penalty(fit: FittedModel, sample: Sample) -> PenaltyValue:
    """Penalty 2*dmw/n from the closed-form dmw."""
    return PenaltyValue(model_id=fit.model.id,
                        value=2.0 * resampling_dmw(fit, sample) / fit.n)


def dimension_penalty(model: ModelSpec, k_const: float, n: int) -> PenaltyValue:
    """Penalty K * dim / n."""
    if k_const < 0.0:
        raise ValueError("penalty constant must be >= 0")
    return PenaltyValue(model_id=model.id, value=k_const * model.dim / n)


def ideal_deterministic_penalty(quantities: ExactModelQuantities, n: int,
                                k_const: float) -> PenaltyValue:
    """Penalty K * D / n from exact quantities (K = 2 is the optimum)."""
    if k_const < 0.0:
        raise ValueError("penalty constant must be >= 0")
    return PenaltyValue(model_id=quantities.model_id,
                        value=k_const * quantities.d_exact / n)


# ---------------------------------------------------------------------------
# Resampling by drawn weights, and the double sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResamplingScheme:
    """An exchangeable weight distribution with known variance v_w2(n).

    ``v_w2`` is Var(W_1 - mean(W)); the Monte-Carlo estimator divides by it,
    which is what makes the penalty scheme-independent.
    """

    name: str

    def draw(self, n: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """(size, n) array of weight vectors."""
        if self.name == "efron":
            return rng.multinomial(n, np.full(n, 1.0 / n), size=size).astype(float)
        if self.name == "rademacher-pair":
            return 2.0 * rng.integers(0, 2, size=(size, n)).astype(float)
        if self.name == "leave-one-out":
            w = np.full((size, n), n / (n - 1.0))
            drop = rng.integers(0, n, size=size)
            w[np.arange(size), drop] = 0.0
            return w
        raise ValueError(f"unknown scheme {self.name!r}")

    def v_w2(self, n: int) -> float:
        if self.name in ("efron", "rademacher-pair"):
            return (n - 1.0) / n
        if self.name == "leave-one-out":
            return 1.0 / (n - 1.0)
        raise ValueError(f"unknown scheme {self.name!r}")


EFRON = ResamplingScheme("efron")
RADEMACHER_PAIR = ResamplingScheme("rademacher-pair")
LEAVE_ONE_OUT = ResamplingScheme("leave-one-out")
SCHEMES = {s.name: s for s in (EFRON, RADEMACHER_PAIR, LEAVE_ONE_OUT)}


def resampling_dmw_double_sum(fit: FittedModel, sample: Sample) -> float:
    """The O(n^2 d) double-sum form of dmw.

    dmw/n = (1/n) sum_lambda [ Pn(psi^2)
            - (1/(n(n-1))) sum_{i != j} psi(X_i) psi(X_j) ].
    """
    n = fit.n
    if n < 2:
        raise ValueError("resampling estimate needs n >= 2")
    mat = _basis_matrix(fit, sample)
    gram = mat @ mat.T
    cross = (gram.sum() - np.trace(gram)) / (n * (n - 1.0))
    return float(np.trace(gram) / n - cross)


def resampling_mc_draws(fit: FittedModel, sample: Sample,
                        scheme: ResamplingScheme, b: int,
                        rng: RngStream) -> np.ndarray:
    """Per-draw resampled statistics sum_lambda (nu_w psi_lambda)^2."""
    n = fit.n
    if n < 2:
        raise ValueError("resampling estimate needs n >= 2")
    if b < 1:
        raise ValueError("need at least one weight draw")
    if scheme.v_w2(n) <= 0.0:
        raise ValueError(f"scheme {scheme.name!r} has zero weight variance")
    mat = _basis_matrix(fit, sample)
    w = scheme.draw(n, b, generator(rng))
    centered = (w - w.mean(axis=1, keepdims=True)) / n
    nu = centered @ mat                      # (b, d) resampled fluctuations
    return np.sum(nu ** 2, axis=1)


def resampling_penalty_mc(fit: FittedModel, sample: Sample,
                          scheme: ResamplingScheme, b: int,
                          rng: RngStream) -> PenaltyValue:
    """Monte-Carlo resampling penalty from B drawn weight vectors."""
    stat = resampling_mc_draws(fit, sample, scheme, b, rng)
    dmw_mc = fit.n * float(stat.mean()) / scheme.v_w2(fit.n)
    return PenaltyValue(model_id=fit.model.id, value=2.0 * dmw_mc / fit.n)


def u_statistic_double_sum(fit: FittedModel, sample: Sample,
                           quantities: ExactModelQuantities) -> float:
    """U = (1/(n(n-1))) sum_{i != j} sum_lambda c_i,lambda c_j,lambda.

    c_i,lambda = psi_lambda(X_i) - E psi_lambda(X); computed through the
    explicit Gram matrix of centered basis evaluations.  Algebraically this
    equals p_term - dmw/n.
    """
    n = fit.n
    if n < 2:
        raise ValueError("U-statistic needs n >= 2")
    centered = _basis_matrix(fit, sample) - quantities.pop_coeffs
    gram = centered @ centered.T
    return float((gram.sum() - np.trace(gram)) / (n * (n - 1.0)))


# ---------------------------------------------------------------------------
# Selection from per-model lists
# ---------------------------------------------------------------------------

class Selection(NamedTuple):
    """The pick of ``select``."""

    model_id: str
    criterion: float
    penalty: float


def select(fits: Sequence[tuple[str, float]],
           pens: Sequence[PenaltyValue],
           dims: Mapping[str, int] | None = None) -> Selection:
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
            best = (key, Selection(mid, crit, pen_by_id[mid]))
    return best[1]


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
                            delta_max=deltas.max(), units=(1, 1))
    return path


def exact_argmin(kind: str, sample: Sample, k_const: float,
                 complexity: str) -> str:
    """The regular-histogram or two-block model minimizing contrast +
    K complexity / n over the whole list, in ``Fraction``s with K =
    Fraction(K); ties go to the smaller complexity, then to the earlier
    model.

    A block of s / n with j cells and c points, T = sum c^2 over its
    cells, adds -j T / (s n) to the contrast, j to the dim and j (n c - T)
    / (s (n - 1)) to dmw; a regular histogram is the one block [0, 1],
    with s = c = n.  The points are binned by the float breaks of the
    model list."""
    n, k = sample.n, Fraction(k_const)

    def share(s: int, counts: np.ndarray) -> tuple[Fraction, Fraction]:
        """(criterion, complexity / n) shares of one block."""
        j, c, t = counts.size, int(counts.sum()), int(np.sum(counts ** 2))
        pen = (Fraction(j, n) if complexity == "dim"
               else Fraction(j * (n * c - t), s * n * (n - 1)))
        return Fraction(-j * t, s * n) + k * pen, pen

    if kind == "regular-hist":
        crits = ((*share(n, histogram_counts(np.arange(j + 1) / j, sample)),
                  j, f"reg-hist:d={j}") for j in range(1, n + 1))
        return min(crits)[3]
    left = {(kk, j): share(kk, histogram_counts(
        two_block_breaks(n, kk, j, 1), sample)[:j])
        for kk in range(1, n) for j in range(1, kk + 1)}
    right = {(kk, j): share(n - kk, histogram_counts(
        two_block_breaks(n, kk, 1, j), sample)[1:])
        for kk in range(1, n) for j in range(1, n - kk + 1)}
    best = min((left[kk, j1][0] + right[kk, j2][0],
                left[kk, j1][1] + right[kk, j2][1], pos, (kk, j1, j2))
               for pos, (kk, j1, j2) in enumerate(two_block_params(n)))
    return _two_block_id(*(v - 1 for v in best[3]))


def exact_histogram_slope_pick(sample: Sample,
                               complexity: str) -> tuple[str, list]:
    """The slope pick on the regular histograms with 1..n cells, in exact
    arithmetic: lines -j T / n^2 + K delta_j, T = sum c^2 over the j cells,
    with delta_j = j (``dim``) or j (n^2 - T) / (n (n - 1)) (``dmw``).

    The envelope is walked from K = 0 without a hull: from each segment
    the next breakpoint is the first crossing by a line of smaller delta.
    The selected model at K minimizes (criterion, delta, j), so a
    breakpoint belongs to its smaller-delta side.  K_min is the start of
    the segment after the largest delta drop (the earliest on ties), and
    the pick is the model selected at 2 K_min.  Returns the pick's id and
    the walked path, (start K as a ``Fraction``, model id) per segment.
    """
    n = sample.n
    contrast, delta = [], []
    for j in range(1, n + 1):
        t = int(np.sum(histogram_counts(np.arange(j + 1) / j, sample) ** 2))
        contrast.append(Fraction(-j * t, n * n))
        delta.append(j if complexity == "dim"
                     else Fraction(j * (n * n - t), n * (n - 1)))

    def pick(k):
        return min(range(n), key=lambda i: (contrast[i] + k * delta[i],
                                            delta[i], i))

    segs, starts = [pick(0)], [Fraction(0)]
    while True:
        cur = segs[-1]
        cross = [(contrast[i] - contrast[cur]) / (delta[cur] - delta[i])
                 for i in range(n) if delta[i] < delta[cur]]
        if not cross:
            break
        starts.append(min(cross))
        segs.append(pick(starts[-1]))
    path = [(k, f"reg-hist:d={i + 1}") for k, i in zip(starts, segs)]
    if len(segs) == 1:
        return path[0][1], path
    drops = [delta[a] - delta[b] for a, b in zip(segs, segs[1:])]
    k_min = starts[drops.index(max(drops)) + 1]
    return f"reg-hist:d={pick(2 * k_min) + 1}", path


# ---------------------------------------------------------------------------
# The lower envelope as one chain, and the two-block lab cut by cut
# ---------------------------------------------------------------------------

def lower_envelope_chain(slopes, intercepts) -> tuple[list[int], list]:
    """``slope.lower_envelope`` of one set of lines as a single monotone
    chain: lines in (-slope, intercept, index) order, each popping the top
    while it is at least as cheap at K = 0 (float intercepts within one
    part in 1e12 count as tied) or crosses the top no later than the top
    starts.  Integer or ``Fraction`` lines give ``Fraction`` breakpoints."""
    slopes, intercepts = np.asarray(slopes), np.asarray(intercepts)
    exact = slopes.dtype.kind in "iuO" and intercepts.dtype.kind in "iuO"
    if not exact:
        slopes, intercepts = slopes.astype(float), intercepts.astype(float)
    order = np.lexsort((np.arange(slopes.size), intercepts, -slopes))
    slopes, intercepts = slopes.tolist(), intercepts.tolist()
    tol = 0 if exact else _TIE_RTOL
    hull: list[int] = []
    starts: list = []
    prev_slope = None
    for i in order.tolist():
        s, c = slopes[i], intercepts[i]
        if prev_slope is not None and s == prev_slope:
            continue
        prev_slope = s
        k_cross = 0.0
        while hull:
            top = hull[-1]
            top_c = intercepts[top]
            if c <= top_c + tol * max(1, abs(top_c)):
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


def block_stats(tables, x: np.ndarray, lo: float, hi: float, n: int):
    """A (sum sq coeffs), V (variance part of dmw), L (loss part), D and
    T = sum c^2 over the cells, per j, of the points x in one block
    [lo, hi), binned on their own with the cell index clamped to j - 1;
    ``tables`` is the block's ``_block_tables``."""
    starts, pop, js, d_vec = tables
    total = starts[-1] + js[-1]
    if x.size:
        y = (x - lo) / (hi - lo)
        idx = (y[:, None] * js[None, :]).astype(np.int64)
        np.minimum(idx, js[None, :] - 1, out=idx)
        flat = (idx + starts[None, :]).ravel()
        counts = np.bincount(flat, minlength=total).astype(float)
    else:
        counts = np.zeros(total)
    t_sq = np.add.reduceat(counts * counts, starts)
    w_pop = np.add.reduceat(counts * pop, starts)
    width_inv = js / (hi - lo)
    a = width_inv * t_sq / (n * n)
    v = width_inv * (x.size - t_sq / n) / n
    loss_part = a - 2.0 * width_inv * w_pop / n
    return a, v, loss_part, d_vec, t_sq


_PER_CUT_TABLES = weakref.WeakKeyDictionary()


def per_cut_tables(lab: TwoBlockLab):
    """The ``_block_tables`` of each cut's left and right block."""
    if lab not in _PER_CUT_TABLES:
        n, fcut = lab.n, np.asarray(lab.density.cdf(lab.cuts))
        _PER_CUT_TABLES[lab] = [
            (_block_tables(lab.density, 0.0, c, k, fcut[k - 1]),
             _block_tables(lab.density, c, 1.0, n - k, 1.0 - fcut[k - 1]))
            for k, c in enumerate(lab.cuts, start=1)]
    return _PER_CUT_TABLES[lab]


def per_cut_arrays(lab: TwoBlockLab, sample: Sample):
    """The (side, cut, cells) contrast, var and loss arrays of a two-block
    evaluation, block by block through ``block_stats``."""
    m = lab.n - 1
    contrast, loss = np.full((2, m, m), np.inf), np.full((2, m, m), np.inf)
    var = np.zeros((2, m, m))
    for kk, blocks in enumerate(PerCutTwoBlock(lab, sample).per_k):
        for side, (a, v, loss_part, _) in enumerate(blocks):
            contrast[side, kk, :a.size] = -a
            var[side, kk, :a.size] = v
            loss[side, kk, :a.size] = loss_part
    return contrast, var, loss


class PerCutTwoBlock:
    """A two-block sample evaluated cut by cut: per cut, the left and right
    block statistics (A, V, L, D) from ``block_stats``, and each block's
    T = sum c^2 per j and count."""

    def __init__(self, lab: TwoBlockLab, sample: Sample):
        self.lab = lab
        n = lab.n
        pts = np.sort(sample.points)
        self.per_k, self.t_sq = [], []
        for c, (left, right) in zip(lab.cuts, per_cut_tables(lab)):
            nl = int(np.searchsorted(pts, c, side="left"))
            stats = (block_stats(left, pts[:nl], 0.0, c, n),
                     block_stats(right, pts[nl:], c, 1.0, n))
            self.per_k.append(tuple(blk[:4] for blk in stats))
            self.t_sq.append(((stats[0][4], nl), (stats[1][4], n - nl)))

    @staticmethod
    def _part(blk, complexity: str) -> np.ndarray:
        if complexity == "dim":
            return np.arange(1, blk[0].size + 1, dtype=float)
        return {"dmw": blk[1], "d_exact": blk[3]}[complexity]

    def argmin(self, k_const: float, complexity: str):
        """(key, penalty) of contrast + k_const * complexity / n, ties to
        the smaller complexity, then the earlier cut, j1 and j2.  Criteria
        and complexities compare in ``Fraction``s under ``dim`` and
        ``dmw``, from each block's T and count with K = Fraction(K), and
        in floats under ``d_exact``."""
        n = self.lab.n
        scale = k_const / (n - 1.0) if complexity == "dmw" else k_const / n
        best_key, best = None, None
        for kk, (left, right) in enumerate(self.per_k):
            p1 = scale * self._part(left, complexity)
            p2 = scale * self._part(right, complexity)
            if complexity == "d_exact":
                g1, g2 = p1 - left[0], p2 - right[0]
                m1, m2 = g1.min(), g2.min()
                crit = m1 + m2
                if best_key is not None and crit > best_key[0]:
                    continue
                tied = min((left[3][i1] + right[3][i2], i1, i2)
                           for i1 in np.flatnonzero(g1 + m2 == crit)
                           for i2 in np.flatnonzero(m1 + g2 == crit)
                           if g1[i1] + g2[i2] == crit)
            else:
                (m1, d1, i1), (m2, d2, i2) = (
                    self._least_share(kk, side, k_const, complexity)
                    for side in (0, 1))
                crit, tied = m1 + m2, (d1 + d2, i1, i2)
            key = (crit, tied[0])
            if best_key is None or key < best_key:
                best_key = key
                best = ((kk, int(tied[1]), int(tied[2])),
                        p1[tied[1]] + p2[tied[2]])
        return best

    def _least_share(self, kk: int, side: int, k_const: float,
                     complexity: str) -> tuple[Fraction, Fraction, int]:
        """(share, complexity share, j - 1) of the least share of one block
        of s / n with c points, the smallest complexity share and then the
        smallest j on ties.  The share is -j T / (s n) + K j / n (``dim``)
        or + K j (n c - T) / (s n (n - 1)) (``dmw``), K = Fraction(K); the
        complexity share is j or j (n c - T) / (s (n - 1))."""
        n, k = self.lab.n, Fraction(k_const)
        t_sq, c = self.t_sq[kk][side]
        s = kk + 1 if side == 0 else n - kk - 1
        least = min(
            (Fraction(-j * t, s * n) + k * d / n, d, j)
            for j, t in enumerate(t_sq.astype(np.int64).tolist(), start=1)
            for d in [j if complexity == "dim"
                      else Fraction(j * (n * c - t), s * (n - 1))])
        return least[0], least[1], least[2] - 1

    def oracle_loss(self) -> float:
        best = np.inf
        for left, right in self.per_k:
            best = min(best, left[2].min() + right[2].min())
        return self.lab.s_norm + best

    def exact_path(self, complexity: str) -> tuple[SlopePath, list]:
        """The slope path and the key of each segment in ``Fraction``s: per
        cut, the ``Fraction`` hull of each block's lines (contrast share
        -j T / (s n) and complexity share j or j (n c - T) / (s (n - 1))
        of a block of s / n with j cells), every pair of a left and a right
        hull line, then one ``Fraction`` hull over the pairs of all cuts."""
        n = self.lab.n
        lines_s, lines_c, tags = [], [], []
        delta_max = 0.0
        for kk, (blocks, counts) in enumerate(zip(self.per_k, self.t_sq)):
            hulls = []
            for s, blk, (t_sq, count) in zip((kk + 1, n - kk - 1), blocks,
                                             counts):
                # the hull is that of the integer lines -j T + K j or
                # -j T + K j (n c - T): scaling both axes changes no piece
                js, t = np.arange(1, t_sq.size + 1), t_sq.astype(np.int64)
                d = js if complexity == "dim" else js * (n * count - t)
                hull, _ = lower_envelope_chain(d, -js * t)
                hulls.append([(i, Fraction(int(d[i]), 1 if complexity == "dim"
                                           else s * (n - 1)),
                               Fraction(int(-js[i] * t[i]), s * n))
                              for i in hull])
            parts = [self._part(blk, complexity) for blk in blocks]
            if complexity == "dmw":
                parts = [part * n / (n - 1.0) for part in parts]
            delta_max = max(delta_max, float(parts[0].max() + parts[1].max()))
            for i1, d1, c1 in hulls[0]:
                for i2, d2, c2 in hulls[1]:
                    lines_s.append(d1 + d2)
                    lines_c.append(c1 + c2)
                    tags.append((kk, i1, i2))
        hull, starts = lower_envelope_chain(lines_s, lines_c)
        ks = starts + [np.inf]
        segs = tuple(PathSegment(k_lo=ks[pos], k_hi=ks[pos + 1],
                                 model_id=_two_block_id(*tags[i]),
                                 delta=lines_s[i], contrast=lines_c[i])
                     for pos, i in enumerate(hull))
        return (SlopePath(segments=segs, delta_max=float(delta_max)),
                [tags[i] for i in hull])
