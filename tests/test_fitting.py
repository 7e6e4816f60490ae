"""Projection fits: coefficients, contrast, exact losses."""

import numpy as np
import pytest

from densel.conclab import simulate_model_statistics
from densel.densities import PowerLaw, Sample
from densel.fitting import fit_model, histogram_counts, p_term
from densel.models import (exact_quantities, fourier_model, histogram_model)
from densel.rng import RngStream
from oracles import exact_loss

D2 = histogram_model([0.0, 0.5, 1.0])
D1 = histogram_model([0.0, 1.0])


def test_histogram_fit_example():
    s = Sample(np.array([0.1, 0.2, 0.6, 0.9]))
    fit = fit_model(D2, s)
    assert fit.coeffs == pytest.approx([np.sqrt(2.0) / 2.0] * 2)
    assert fit.counts.tolist() == [2, 2]
    # the fitted density is identically one here
    assert fit.coeffs[0] / np.sqrt(0.5) == pytest.approx(1.0)
    assert fit.emp_contrast == pytest.approx(-1.0)


def test_constant_fit():
    s = Sample(np.array([0.3, 0.9]))
    fit = fit_model(D1, s)
    assert fit.coeffs == pytest.approx([1.0])
    assert fit.emp_contrast == pytest.approx(-1.0)


def test_fourier_fit_example():
    s = Sample(np.array([0.25, 0.75]))
    fit = fit_model(fourier_model(1), s)
    assert fit.coeffs == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)


def test_boundary_points_counted_once():
    s = Sample(np.array([0.0, 0.5, 1.0]))
    counts = histogram_counts(D2.breaks, s)
    assert counts.tolist() == [1, 2]
    assert counts.sum() == s.n


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        Sample(np.array([]))


def test_contrast_nonpositive_random():
    gen = np.random.default_rng(0)
    for _ in range(25):
        pts = np.sort(gen.random(gen.integers(1, 40)))
        d = int(gen.integers(1, 9))
        m = histogram_model(np.linspace(0.0, 1.0, d + 1))
        assert fit_model(m, Sample(pts)).emp_contrast <= 0.0


def test_p_term_and_exact_loss_example():
    density = PowerLaw()
    s = Sample(np.array([0.25, 0.75]))
    fit = fit_model(D2, s)
    q = exact_quantities(D2, density, 2)
    # frozen from the analytic coefficients (sqrt2/2 vs sqrt2 * cdf diffs)
    assert p_term(fit, q) == pytest.approx(0.0357993323676529, abs=1e-12)
    assert exact_loss(fit, q) == pytest.approx(0.125, abs=1e-12)


def test_perfect_coefficients_give_bias_only():
    density = PowerLaw()
    q = exact_quantities(D2, density, 2)
    from densel.fitting import FittedModel
    fit = FittedModel(model=D2, coeffs=q.pop_coeffs.copy(), n=2,
                      emp_contrast=-float(np.sum(q.pop_coeffs ** 2)))
    assert p_term(fit, q) == 0.0
    assert exact_loss(fit, q) == q.bias_sq


def test_constant_model_loss_is_constant():
    density = PowerLaw()
    q = exact_quantities(D1, density, 5)
    for rep in range(5):
        s = density.sample(5, RngStream(3, rep, "data"))
        fit = fit_model(D1, s)
        assert exact_loss(fit, q) == pytest.approx(0.125, abs=1e-14)


def test_loss_alternative_expansion():
    """loss = |s|^2 - 2 sum(c * pop) + sum(c^2) to 1e-10."""
    density = PowerLaw()
    gen = np.random.default_rng(5)
    for _ in range(30):
        d = int(gen.integers(1, 10))
        m = histogram_model(np.linspace(0.0, 1.0, d + 1))
        n = int(gen.integers(2, 60))
        s = density.sample(n, RngStream(11, int(gen.integers(0, 10_000)), "x"))
        fit = fit_model(m, s)
        q = exact_quantities(m, density, n)
        alt = (density.l2_norm_sq()
               - 2.0 * float(np.dot(fit.coeffs, q.pop_coeffs))
               + float(np.sum(fit.coeffs ** 2)))
        assert exact_loss(fit, q) == pytest.approx(alt, abs=1e-10)


def test_nested_counts_aggregate():
    density = PowerLaw()
    s = density.sample(200, RngStream(9, 0, "agg"))
    fine = fit_model(histogram_model(np.linspace(0.0, 1.0, 7)), s)
    coarse = fit_model(histogram_model(np.linspace(0.0, 1.0, 4)), s)
    agg = fine.counts.reshape(3, 2).sum(axis=1)
    assert np.array_equal(agg, coarse.counts)


def test_model_mismatch_rejected():
    density = PowerLaw()
    s = Sample(np.array([0.25, 0.75]))
    fit = fit_model(D2, s)
    q = exact_quantities(D1, density, 2)
    with pytest.raises(ValueError):
        p_term(fit, q)


def test_p_term_mean_matches_variance_number():
    density = PowerLaw()
    n, reps = 100, 100_000
    m = histogram_model(np.linspace(0.0, 1.0, 6))
    sims = simulate_model_statistics(m, density, n, reps,
                                     RngStream(23, 0, "pmean"))
    q = exact_quantities(m, density, n)
    se = np.std(sims["p"], ddof=1) / np.sqrt(reps)
    assert abs(sims["p"].mean() - q.d_exact / n) <= 3.0 * se
