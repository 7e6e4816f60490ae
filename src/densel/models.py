"""Model spaces: histogram and Fourier bases and their exact quantities.

A model is a finite-dimensional linear subspace of L2[0,1] described by an
orthonormal basis.  Histogram models are spanned by normalized indicators
of partition cells; Fourier models by {1, sqrt(2)cos(2*pi*k*x),
sqrt(2)sin(2*pi*k*x), k <= j}.  The commands use three collections:

* regular histograms with 1..n equal cells,
* Fourier spaces with cutoff j = 1..n,
* the two-block family (J1 equal cells on [0, k/n) then J2 equal cells on
  [k/n, 1), for all 1 <= k < n, J1 <= k, J2 <= n-k), about n^3/6 models.

None is built as a list of models: the labs of ``harness`` generate ids
and dimensions from the kind and n, compute histogram populations block
by block and take the Fourier coefficients from ``fourier_pop_coeffs``;
the lists are test oracles (``tests/oracles.py``).  One ``ModelSpec``,
with ``exact_quantities`` and ``scale_constants``, serves the
concentration lab and the tests.

Given a known density, every population quantity of a model is available in
closed form (histograms) or from one Gauss-Legendre rule over the quantile
function, computed here by Newton's method, on powers of exp(2 pi i x)
(Fourier coefficients): the projection coefficients, the projection norm,
the squared bias, the variance number ``d_exact`` (n times the expected
squared estimation error, written D below), and the scale constants that
drive all concentration thresholds.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .densities import Density, _Frozen

__all__ = [
    "ModelSpec",
    "ExactModelQuantities",
    "histogram_model",
    "regular_histogram",
    "fourier_model",
    "exact_quantities",
    "fourier_pop_coeffs",
    "scale_constants",
]


# ---------------------------------------------------------------------------
# Model specifications
# ---------------------------------------------------------------------------

class ModelSpec(_Frozen):
    """One basis: either a histogram partition or a Fourier cutoff.

    ``basis`` is "histogram" or "fourier", ``breaks`` the partition
    (histograms only), ``j`` the frequency cutoff (Fourier only).
    ``params`` carries the generating parameters, e.g. ``(k, j1, j2)`` for
    two-block models, for stable ids and joins; the id alone is compared.
    """

    _fields = ("id", "basis", "dim", "breaks", "j", "params")

    def __init__(self, id: str, basis: str, dim: int, breaks=None,
                 j: int | None = None, params: tuple = ()) -> None:
        if basis == "histogram":
            breaks = np.asarray(breaks, dtype=float)
            if (breaks[0] != 0.0 or breaks[-1] != 1.0
                    or np.any(np.diff(breaks) <= 0.0)):
                raise ValueError("histogram breakpoints must cover [0,1] strictly increasing")
            if dim != breaks.size - 1:
                raise ValueError("dim must equal the number of cells")
        elif basis == "fourier":
            if j is None or j < 1 or dim != 2 * j + 1:
                raise ValueError("fourier model needs j >= 1 and dim = 2j+1")
        else:
            raise ValueError(f"unknown basis {basis!r}")
        self._set(id, basis, dim, breaks, j, params)

    def __eq__(self, other) -> bool:
        return isinstance(other, ModelSpec) and self.id == other.id

    def __hash__(self) -> int:
        return hash(self.id)

    @property
    def widths(self) -> np.ndarray:
        if self.basis != "histogram":
            raise ValueError("widths only defined for histogram models")
        return np.diff(self.breaks)


def histogram_model(breaks: Iterable[float], id: str | None = None,
                    params: tuple = ()) -> ModelSpec:
    brk = np.asarray(list(breaks), dtype=float)
    d = brk.size - 1
    mid = id if id is not None else "hist:" + ",".join(f"{b:.12g}" for b in brk)
    return ModelSpec(id=mid, basis="histogram", dim=d, breaks=brk, params=params)


def regular_histogram(d: int) -> ModelSpec:
    """The histogram with d equal cells on [0, 1]."""
    return histogram_model(np.arange(d + 1, dtype=float) / d,
                           id=f"reg-hist:d={d}", params=(d,))


def fourier_model(j: int) -> ModelSpec:
    return ModelSpec(id=f"fourier:j={j}", basis="fourier", dim=2 * j + 1, j=j,
                     params=(j,))


# ---------------------------------------------------------------------------
# Basis evaluation
# ---------------------------------------------------------------------------

def fourier_basis_matrix(j: int, x: np.ndarray) -> np.ndarray:
    """Columns [1, sqrt2*cos(2pi k x), sqrt2*sin(2pi k x)] for k = 1..j.

    The result is allocated once and filled a sixteenth of the points at a
    time, so the per-column temporaries add about a sixteenth to its size;
    slices hold at least 2048 points, so that small inputs take one pass."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (2 * j + 1,))
    flat, rows = x.reshape(-1), out.reshape(-1, 2 * j + 1)
    step = max(2048, -(-flat.size // 16))
    for a in range(0, flat.size, step):
        xa = flat[a:a + step]
        cols = [np.ones_like(xa)]
        for k in range(1, j + 1):
            cols.append(np.sqrt(2.0) * np.cos(2.0 * np.pi * k * xa))
            cols.append(np.sqrt(2.0) * np.sin(2.0 * np.pi * k * xa))
        np.stack(cols, axis=-1, out=rows[a:a + step])
    return out


def fourier_means(j: int, x: np.ndarray) -> np.ndarray:
    """Means over the last (point) axis of the Fourier basis values, in
    the column order of ``fourier_basis_matrix``: shape x.shape[:-1] +
    (2j+1,).

    cos and sin of 2 pi k x are the parts of z**k with z = exp(2 pi i x),
    and the powers come by repeated multiplication, so only two complex
    arrays of the points' shape are held, never an (..., n, 2j+1) one."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[:-1] + (2 * j + 1,))
    out[..., 0] = 1.0
    z = np.exp(complex(0.0, 2.0 * np.pi) * x)
    zk = z.copy()
    for k in range(1, j + 1):
        mean = np.sqrt(2.0) * zk.mean(axis=-1)
        out[..., 2 * k - 1], out[..., 2 * k] = mean.real, mean.imag
        if k < j:
            zk *= z
    return out


def histogram_cell_index(breaks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cell of each point; cells are [a,b) except the last which is [a,1].

    For the d equal cells of ``regular_histogram``, whose breaks are the
    floats i / d, floor(d x) is the cell or one of its neighbours, so one
    comparison against each float end of that cell settles it: the same
    cell as the search of the breaks that other partitions use."""
    d = breaks.size - 1
    if not np.array_equal(breaks, np.arange(d + 1, dtype=float) / d):
        idx = np.searchsorted(breaks, x, side="right") - 1
        return np.minimum(idx, d - 1)
    idx = np.clip(np.floor(x * d), 0, d - 1).astype(np.intp)
    upper = breaks[1:].copy()
    upper[-1] = np.inf                  # the last cell is closed at 1
    idx -= x < breaks[idx]
    idx += x >= upper[idx]
    return idx


# ---------------------------------------------------------------------------
# Exact population quantities
# ---------------------------------------------------------------------------

class ExactModelQuantities(NamedTuple):
    """Population quantities of one model under a known density.

    ``d_exact`` is n times the expected squared estimation error of the
    projection estimator (the variance number D); ``risk`` is
    n*bias_sq + d_exact, i.e. n times the expected loss.
    """

    model_id: str
    n: int
    pop_coeffs: np.ndarray
    sm_norm_sq: float
    bias_sq: float
    d_exact: float
    risk: float


def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the m-point Gauss-Legendre rule on
    [-1, 1]: Newton's method on P_m from the three-term recurrence, started
    at cos(pi (i - 1/4) / (m + 1/2)); weights 2 / ((1 - x**2) P_m'(x)**2).
    Both are symmetrized, so the nodes are exactly odd about 0."""
    x = np.cos(np.pi * (np.arange(m, 0, -1) - 0.25) / (m + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for i in range(2, m + 1):
            p0, p1 = p1, ((2 * i - 1) * x * p1 - (i - 1) * p0) / i
        dp = m * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-16:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def fourier_pop_coeffs(density: Density, j: int) -> np.ndarray:
    """Population coefficients E psi(X) of the Fourier basis up to cutoff j.

    E psi(X) = integral over [0, 1] of psi(Q(t**3)) 3 t**2 dt, Q the quantile.
    Between the kinks t = F(b)**(1/3) at the density's breaks Q(t**3) is
    analytic (t**4 for the power law, a cubic for uniform and step
    densities), so a composite 32-point Gauss-Legendre rule with j+1 panels
    per piece converges exponentially; the same rule at 2(j+1) panels must
    agree within 1e-10.  cos and sin of 2 pi k x are the parts of z**k,
    z = exp(2 pi i x) at the nodes, and the powers come by repeated
    multiplication, so memory stays O(nodes).
    """
    breaks = np.asarray(getattr(density, "breaks", (0.0, 1.0)), dtype=float)
    kinks = np.sort(np.cbrt(density.cdf(breaks)))
    kinks[0], kinks[-1] = 0.0, 1.0
    kinks = kinks[np.diff(kinks, prepend=-1.0) > 0.0]   # drop zero-mass cells
    gl_x, gl_w = gauss_legendre(32)
    weights, powers, zs = [], [], []
    for panels in (j + 1, 2 * (j + 1)):
        edges = kinks[:-1, None] + np.diff(kinks)[:, None] * (
            np.arange(panels + 1) / panels)
        half = 0.5 * np.diff(edges, axis=1).reshape(-1, 1)
        t = (edges[:, :-1].reshape(-1, 1) + half * (1.0 + gl_x)).ravel()
        w = np.sqrt(2.0) * (half * gl_w).ravel() * 3.0 * t * t
        weights.append(w.astype(complex))   # each sum is one complex dot
        zs.append(np.exp(complex(0.0, 2.0 * np.pi) * density.quantile(t ** 3)))
        powers.append(zs[-1].copy())
    coeffs = np.empty(2 * j + 1)
    coeffs[0] = 1.0                     # psi_0 == 1 integrates s to 1
    for k in range(1, j + 1):
        c1, c2 = [w @ zk for w, zk in zip(weights, powers)]
        err = max(abs(c1.real - c2.real), abs(c1.imag - c2.imag))
        if not err <= 1e-10:
            raise ArithmeticError(
                f"Gauss-Legendre rule for Fourier coefficient k={k} did not "
                f"converge (two rules differ by {err:.2e})")
        coeffs[2 * k - 1], coeffs[2 * k] = c2.real, c2.imag
        for zk, z in zip(powers, zs):
            zk *= z
    return coeffs


def exact_quantities(model: ModelSpec, density: Density, n: int) -> ExactModelQuantities:
    """Exact projection coefficients, bias, and variance number of a model."""
    s_norm_sq = density.l2_norm_sq()
    if model.basis == "histogram":
        probs = density.cell_probabilities(model.breaks)
        widths = model.widths
        pop = probs / np.sqrt(widths)
        sm_norm_sq = float(np.sum(probs ** 2 / widths))
        d_exact = float(np.sum(probs / widths)) - sm_norm_sq
    else:
        pop = fourier_pop_coeffs(density, model.j)
        sm_norm_sq = float(np.sum(pop ** 2))
        # sum of psi_lambda^2 is identically dim, so D = dim - |s_m|^2
        d_exact = model.dim - sm_norm_sq
    bias_sq = s_norm_sq - sm_norm_sq
    # guard the float tail: bias and D are nonnegative by construction
    bias_sq = max(bias_sq, 0.0)
    d_exact = max(d_exact, 0.0)
    return ExactModelQuantities(
        model_id=model.id,
        n=n,
        pop_coeffs=pop,
        sm_norm_sq=sm_norm_sq,
        bias_sq=bias_sq,
        d_exact=d_exact,
        risk=n * bias_sq + d_exact,
    )


def scale_constants(model: ModelSpec, density: Density, n: int) -> tuple[float, float]:
    """Scale constants (e, v2) of one model.

    e is sup-norm-squared over the model's unit ball divided by n:
    the largest 1/(n*width) for histograms, dim/n for Fourier spaces.
    v2 is the largest basis-function variance for histograms; for Fourier
    spaces the closed bound ||s|| * sqrt(dim) is reported.
    """
    if model.basis == "histogram":
        widths = model.widths
        probs = density.cell_probabilities(model.breaks)
        e = float(np.max(1.0 / widths)) / n
        v2 = float(np.max(probs * (1.0 - probs) / widths))
    else:
        e = model.dim / n
        v2 = float(np.sqrt(density.l2_norm_sq() * model.dim))
    return e, v2
