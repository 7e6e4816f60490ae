"""Model spaces: collections, bases, exact quantities, scale constants."""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from densel.conclab import simulate_model_statistics
from densel.densities import Density, PiecewiseConstant, PowerLaw, Uniform
from densel.models import (exact_quantities, fourier_basis_matrix,
                           fourier_means, fourier_model, fourier_pop_coeffs,
                           gauss_legendre, histogram_model, scale_constants)
from densel.rng import RngStream
from oracles import (basis_eval, build_fourier_collection,
                     build_regular_histograms, build_two_block_collection,
                     fourier_pop_coeffs_trig, two_block_breaks,
                     two_block_params)


# ---------------------------------------------------------------------------
# Collections
# ---------------------------------------------------------------------------

def test_regular_histograms_small():
    col = build_regular_histograms(4)
    assert [m.dim for m in col] == [1, 2, 3, 4]
    col1 = build_regular_histograms(1)
    assert len(col1) == 1 and col1.models[0].dim == 1


def test_regular_histogram_breakpoints():
    col = build_regular_histograms(100)
    m3 = col.models[2]
    assert m3.id == "reg-hist:d=3"
    assert np.allclose(m3.breaks, [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])


def test_two_block_enumeration_n3():
    col = build_two_block_collection(3)
    triples = sorted(m.params for m in col)
    assert triples == [(1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 2, 1)]


def test_two_block_n2():
    col = build_two_block_collection(2)
    assert len(col) == 1
    assert np.allclose(col.models[0].breaks, [0.0, 0.5, 1.0])


@pytest.mark.parametrize("n", [5, 12, 25])
def test_two_block_cardinality_closed_form(n):
    col = build_two_block_collection(n)
    closed = sum(k * (n - k) for k in range(1, n))
    assert len(col) == closed <= n ** 3
    assert [m.params for m in col] == list(two_block_params(n))


def test_two_block_cardinality_n100():
    # enumeration matches the closed-form sum at the benchmark size; the
    # collection is built from the same generator (checked at small n)
    closed = sum(k * (100 - k) for k in range(1, 100))
    assert closed == 166_650
    assert sum(1 for _ in two_block_params(100)) == closed


def test_two_block_breaks_cover_unit_interval():
    brk = two_block_breaks(10, 3, 2, 4)
    assert brk[0] == 0.0 and brk[-1] == 1.0
    assert np.all(np.diff(brk) > 0)
    assert brk[2] == pytest.approx(0.3)


def test_fourier_collection():
    col = build_fourier_collection(2)
    assert sorted(m.dim for m in col) == [3, 5]
    col5 = build_fourier_collection(5)
    assert len(col5) == 5 and max(m.dim for m in col5) == 11


# ---------------------------------------------------------------------------
# Basis evaluation
# ---------------------------------------------------------------------------

def test_histogram_basis_values():
    m = histogram_model([0.0, 0.5, 1.0])
    assert basis_eval(m, 0, 0.25) == pytest.approx(np.sqrt(2.0))
    assert basis_eval(m, 0, 0.75) == 0.0
    assert basis_eval(m, 1, 1.0) == pytest.approx(np.sqrt(2.0))


def test_fourier_basis_values():
    m = fourier_model(1)
    assert basis_eval(m, 0, 0.0) == pytest.approx(1.0)
    assert basis_eval(m, 1, 0.0) == pytest.approx(np.sqrt(2.0))
    assert basis_eval(m, 2, 0.0) == pytest.approx(0.0)
    # sin-type function of frequency 1 at x = 1/4
    assert basis_eval(m, 2, 0.25) == pytest.approx(np.sqrt(2.0))


def test_basis_eval_errors():
    m = histogram_model([0.0, 0.5, 1.0])
    with pytest.raises(IndexError):
        basis_eval(m, 2, 0.3)
    with pytest.raises(ValueError):
        basis_eval(m, 0, 1.5)


@pytest.mark.parametrize("model", [
    histogram_model(np.linspace(0.0, 1.0, 7)),
    histogram_model(np.linspace(0.0, 1.0, 13)),
    histogram_model(two_block_breaks(6, 3, 2, 3)),
    fourier_model(2),
    fourier_model(5),
])
def test_gram_matrix_orthonormal(model):
    pts = list(model.breaks[1:-1]) if model.basis == "histogram" else None
    for a in range(model.dim):
        for b in range(a, model.dim):
            val, _ = integrate.quad(
                lambda x, a=a, b=b: float(basis_eval(model, a, x))
                * float(basis_eval(model, b, x)),
                0.0, 1.0, epsabs=1e-10, limit=200, points=pts)
            assert val == pytest.approx(1.0 if a == b else 0.0, abs=1e-8)


# ---------------------------------------------------------------------------
# Exact quantities
# ---------------------------------------------------------------------------

def test_constant_model_quantities():
    m = histogram_model([0.0, 1.0])
    for density in (PowerLaw(), Uniform()):
        q = exact_quantities(m, density, 50)
        assert q.d_exact == pytest.approx(0.0, abs=1e-14)
        assert q.pop_coeffs == pytest.approx([1.0])


def test_powerlaw_two_cell_quantities():
    q = exact_quantities(histogram_model([0.0, 0.5, 1.0]), PowerLaw(), 100)
    p1 = 0.5 ** 0.75
    sm = 2.0 * (p1 ** 2 + (1.0 - p1) ** 2)
    assert q.sm_norm_sq == pytest.approx(sm, abs=1e-14)
    assert q.d_exact == pytest.approx(2.0 - sm, abs=1e-14)
    assert q.d_exact == pytest.approx(0.9642006676323471, abs=1e-12)
    assert q.bias_sq == pytest.approx(1.125 - sm, abs=1e-14)
    assert q.risk == pytest.approx(100 * q.bias_sq + q.d_exact)


def test_fourier_uniform_quantities():
    q = exact_quantities(fourier_model(1), Uniform(), 30)
    assert q.sm_norm_sq == pytest.approx(1.0, abs=1e-12)
    assert q.d_exact == pytest.approx(2.0, abs=1e-10)
    assert q.pop_coeffs == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)


STEP3 = PiecewiseConstant(np.array([0.0, 0.3, 0.7, 1.0]),
                          np.array([0.5, 1.75, 0.5]))
STEP_ZERO = PiecewiseConstant(np.array([0.0, 0.25, 0.5, 1.0]),
                              np.array([2.0, 0.0, 1.0]))


def _quad_coeff(density, k, trig):
    """E sqrt2 trig(2 pi k X) by adaptive quadrature; the power law on
    x = t**4, which removes its pole at 0."""
    if isinstance(density, PowerLaw):
        def f(t):
            return 3.0 * t ** 2 * np.sqrt(2.0) * trig(2.0 * np.pi * k * t ** 4)
        pts = None
    else:
        def f(x):
            s = float(density.pdf(x))
            return s * np.sqrt(2.0) * trig(2.0 * np.pi * k * x)
        pts = list(getattr(density, "breaks", [0.0, 1.0])[1:-1]) or None
    return integrate.quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=400,
                          points=pts)[0]


@pytest.mark.parametrize("j", [2, 40])
@pytest.mark.parametrize("density", [PowerLaw(), Uniform(), STEP3, STEP_ZERO],
                         ids=["powerlaw", "uniform", "step", "step-zero-cell"])
def test_fourier_coeffs_match_quadrature(density, j):
    pop = exact_quantities(fourier_model(j), density, 30).pop_coeffs
    assert pop[0] == 1.0
    for k in range(1, j + 1):
        assert pop[2 * k - 1] == pytest.approx(
            _quad_coeff(density, k, np.cos), abs=1e-12)
        assert pop[2 * k] == pytest.approx(
            _quad_coeff(density, k, np.sin), abs=1e-12)
    if isinstance(density, PiecewiseConstant):
        # closed form: each cell adds h * sqrt2 * (primitive at b - at a)
        w = 2.0 * np.pi * np.arange(1, j + 1)[:, None]
        a, b, h = density.breaks[:-1], density.breaks[1:], density.heights
        scale = np.sqrt(2.0) / w[:, 0]
        assert pop[1::2] == pytest.approx(
            scale * (h * (np.sin(w * b) - np.sin(w * a))).sum(1), abs=1e-13)
        assert pop[2::2] == pytest.approx(
            scale * (h * (np.cos(w * a) - np.cos(w * b))).sum(1), abs=1e-13)


@pytest.mark.parametrize("j", [1, 2, 40, 300])
@pytest.mark.parametrize("density", [PowerLaw(), Uniform(), STEP3, STEP_ZERO],
                         ids=["powerlaw", "uniform", "step", "step-zero-cell"])
def test_fourier_coeffs_match_trig_oracle(density, j):
    """Powers of z on the in-package rule give the coefficients of cos and
    sin at every node on numpy's rule."""
    pop = fourier_pop_coeffs(density, j)
    assert np.max(np.abs(pop - fourier_pop_coeffs_trig(density, j))) <= 1e-13


def _gauss_legendre_long(m):
    """The m-point rule in extended precision: Newton polish of numpy's
    nodes on the recurrence in long double, weights 2 / ((1-x^2) P'^2)."""
    x = np.polynomial.legendre.leggauss(m)[0].astype(np.longdouble)
    for _ in range(3):
        p0, p1 = np.ones_like(x), x
        for i in range(2, m + 1):
            p0, p1 = p1, ((2 * i - 1) * x * p1 - (i - 1) * p0) / i
        dp = m * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("m", [1, 2, 3, 8, 32, 64])
def test_gauss_legendre_matches_numpy(m):
    x, w = gauss_legendre(m)
    ref_x, ref_w = np.polynomial.legendre.leggauss(m)
    assert np.max(np.abs(x - ref_x)) <= 1e-15
    # numpy's m = 64 weights are themselves 2.3e-15 off (checked against a
    # 40-digit rule); the extended-precision rule holds every m to 1e-15
    assert np.max(np.abs(w - ref_w)) <= (1e-15 if m <= 32 else 2.5e-15)
    long_x, long_w = _gauss_legendre_long(m)
    assert np.max(np.abs(x - long_x)) <= 1e-15
    assert np.max(np.abs(w - long_w)) <= 1e-15
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert w.sum() == pytest.approx(2.0, abs=4e-15)


class _HiddenKink(Density):
    """A step density that does not expose its breaks: the rule's panels
    straddle the kink of its quantile and the two rules disagree."""

    def __init__(self):
        self.inner = PiecewiseConstant(np.array([0.0, 0.3, 1.0]),
                                       np.array([2.0, 0.4 / 0.7]))

    def cdf(self, x):
        return self.inner.cdf(x)

    def quantile(self, u):
        return self.inner.quantile(u)

    def l2_norm_sq(self):
        return self.inner.l2_norm_sq()


def test_fourier_coeffs_unconverged_rule_raises():
    with pytest.raises(ArithmeticError, match="did not converge"):
        exact_quantities(fourier_model(5), _HiddenKink(), 30)


def test_fourier_coeffs_memory_independent_of_cutoff():
    # one frequency at a time: O(nodes); an O(j * nodes) table at j = 300
    # would take about 46 MB
    tracemalloc.start()
    try:
        exact_quantities(fourier_model(300), PowerLaw(), 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_fourier_basis_matrix_memory():
    """The basis matrix is allocated once: the traced peak stays within
    1.25 times the bytes of the result."""
    x = np.random.default_rng(7).random((300, 100))
    for j in (1, 10):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fourier_basis_matrix(j, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == (300, 100, 2 * j + 1)
        assert peak <= 1.25 * out.nbytes, j


@pytest.mark.parametrize("j", [1, 10, 100])
@pytest.mark.parametrize("n", [2, 100, 1000])
def test_fourier_means_match_basis_matrix(j, n):
    """The moments from powers of exp(2 pi i x) are the column means of
    the basis matrix, for one sample and for a stack of samples."""
    x = np.random.default_rng(j * n).random((3, n))
    x[:, 0], x[:, -1] = 0.0, 1.0
    want = fourier_basis_matrix(j, x).mean(axis=-2)
    got = fourier_means(j, x)
    assert got.shape == (3, 2 * j + 1)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(fourier_means(j, x[1]), want[1], rtol=0.0,
                               atol=1e-12)


@pytest.mark.parametrize("model", [
    histogram_model(np.linspace(0.0, 1.0, 5)),
    histogram_model(two_block_breaks(8, 5, 3, 2)),
    fourier_model(3),
])
def test_projection_identity(model):
    """bias + projection norm equals the full norm; bias is a true L2
    distance (checked by quadrature against the projection)."""
    density = PowerLaw()
    q = exact_quantities(model, density, 20)
    assert q.bias_sq + q.sm_norm_sq == pytest.approx(density.l2_norm_sq(),
                                                     abs=1e-10)

    def projection(x: float) -> float:
        return sum(q.pop_coeffs[lam] * float(basis_eval(model, lam, x))
                   for lam in range(model.dim))

    def integrand(t: float) -> float:
        x = t ** 4
        return (0.75 / t - projection(x)) ** 2 * 4.0 * t ** 3

    pts = (np.concatenate(([0.0], model.breaks[1:])) ** 0.25
           if model.basis == "histogram" else None)
    if pts is None:
        val, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-10, limit=400)
    else:
        val = sum(integrate.quad(integrand, a, b, epsabs=1e-11, limit=200)[0]
                  for a, b in zip(pts[:-1], pts[1:]))
    assert q.bias_sq == pytest.approx(val, abs=1e-7)


@pytest.mark.parametrize("model,density,n", [
    (histogram_model(np.linspace(0.0, 1.0, 8)), PowerLaw(), 50),
    (histogram_model(np.linspace(0.0, 1.0, 11)), Uniform(), 100),
    (fourier_model(2), PowerLaw(), 50),
])
def test_d_exact_matches_monte_carlo(model, density, n):
    reps = 100_000
    sims = simulate_model_statistics(model, density, n, reps,
                                     RngStream(17, 0, "dcheck"))
    q = exact_quantities(model, density, n)
    mc = n * sims["p"]
    se = np.std(mc, ddof=1) / np.sqrt(reps)
    assert abs(mc.mean() - q.d_exact) <= 3.0 * se


# ---------------------------------------------------------------------------
# Scale constants
# ---------------------------------------------------------------------------

def test_scale_constants_examples():
    n = 100
    m2 = histogram_model([0.0, 0.5, 1.0])
    e, v2 = scale_constants(m2, Uniform(), n)
    assert e == pytest.approx(2.0 / n)
    assert v2 == pytest.approx(0.5)
    e_f, _ = scale_constants(fourier_model(3), Uniform(), n)
    assert e_f == pytest.approx(7.0 / 100.0)
