"""Penalties: closed form vs oracles, schemes, algebraic identities."""

import numpy as np
import pytest

from densel.densities import PowerLaw, Sample
from densel.fitting import fit_model
from densel.models import exact_quantities, fourier_model, histogram_model
from densel.penalties import resampling_dmw
from densel.rng import RngStream
from oracles import (EFRON, LEAVE_ONE_OUT, RADEMACHER_PAIR, SCHEMES,
                     ResamplingScheme, dimension_penalty,
                     ideal_deterministic_penalty, resampling_dmw_double_sum,
                     resampling_mc_draws, resampling_penalty,
                     resampling_penalty_mc, two_block_breaks,
                     u_statistic_double_sum)

D2 = histogram_model([0.0, 0.5, 1.0])


def _random_fit(gen, fourier_share=0.3):
    n = int(gen.integers(2, 51))
    pts = np.sort(gen.random(n))
    s = Sample(pts)
    if gen.random() < fourier_share:
        m = fourier_model(int(gen.integers(1, 4)))
    else:
        d = int(gen.integers(1, 9))
        m = histogram_model(np.linspace(0.0, 1.0, d + 1))
    return fit_model(m, s), s


def test_two_point_example():
    s = Sample(np.array([0.25, 0.75]))
    fit = fit_model(D2, s)
    assert resampling_dmw(fit, s) == pytest.approx(2.0, abs=1e-12)
    assert resampling_penalty(fit, s).value == pytest.approx(2.0, abs=1e-12)
    assert resampling_dmw_double_sum(fit, s) == pytest.approx(2.0, abs=1e-12)


def test_degenerate_cell_gives_zero_penalty():
    s = Sample(np.array([0.1, 0.2, 0.3]))
    fit = fit_model(D2, s)
    assert resampling_penalty(fit, s).value == pytest.approx(0.0, abs=1e-14)


def test_constant_model_zero_penalty():
    s = Sample(np.array([0.1, 0.6, 0.9]))
    fit = fit_model(histogram_model([0.0, 1.0]), s)
    assert resampling_penalty(fit, s).value == pytest.approx(0.0, abs=1e-14)


def test_histogram_dmw_never_negative():
    """Two-block models of the n = 40, seed-1 sample on which the form
    Pn(psi^2) - (Pn psi)^2 cancelled to about -2.3e-16."""
    n = 40
    s = PowerLaw().sample(n, RngStream(1, 0, "data"))
    for k, j1, j2 in ((38, 1, 1), (38, 1, 2), (39, 1, 1)):
        m = histogram_model(two_block_breaks(n, k, j1, j2))
        assert resampling_dmw(fit_model(m, s), s) >= 0.0


def test_single_point_rejected():
    s = Sample(np.array([0.5]))
    fit = fit_model(D2, s)
    with pytest.raises(ValueError):
        resampling_penalty(fit, s)
    with pytest.raises(ValueError):
        resampling_penalty_mc(fit, s, EFRON, 10, RngStream(0))


def test_closed_form_equals_double_sum():
    gen = np.random.default_rng(2)
    for _ in range(120):
        fit, s = _random_fit(gen)
        a = resampling_dmw(fit, s)
        b = resampling_dmw_double_sum(fit, s)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_u_statistic_identity():
    density = PowerLaw()
    gen = np.random.default_rng(3)
    for _ in range(60):
        n = int(gen.integers(2, 51))
        s = density.sample(n, RngStream(31, int(gen.integers(1 << 30)), "u"))
        d = int(gen.integers(1, 9))
        m = histogram_model(np.linspace(0.0, 1.0, d + 1))
        fit = fit_model(m, s)
        q = exact_quantities(m, density, n)
        u = u_statistic_double_sum(fit, s, q)
        from densel.fitting import p_term
        gap = p_term(fit, q) - resampling_dmw(fit, s) / n
        assert abs(u - gap) <= 1e-10 * max(1.0, abs(u))


def test_scheme_weight_variances():
    gen = np.random.default_rng(4)
    n, b = 12, 200_000
    for scheme in (EFRON, RADEMACHER_PAIR, LEAVE_ONE_OUT):
        w = scheme.draw(n, b, gen)
        emp = np.var(w[:, 0] - w.mean(axis=1), ddof=1)
        assert emp == pytest.approx(scheme.v_w2(n), rel=0.02)
        # exchangeability smoke: all coordinates share mean and variance
        assert np.allclose(w.mean(axis=0), w.mean(), atol=0.05)


def test_mc_penalty_converges_to_closed_form():
    s = Sample(np.sort(np.random.default_rng(6).random(20)))
    fit = fit_model(histogram_model(np.linspace(0.0, 1.0, 5)), s)
    closed = resampling_penalty(fit, s).value
    for scheme in (EFRON, RADEMACHER_PAIR, LEAVE_ONE_OUT):
        b = 100_000
        rng = RngStream(5, 0, f"mc-{scheme.name}")
        draws = resampling_mc_draws(fit, s, scheme, b, rng)
        scale = 2.0 / scheme.v_w2(fit.n)
        pen = scale * draws.mean()
        se = scale * draws.std(ddof=1) / np.sqrt(b)
        assert abs(pen - closed) <= 4.0 * se
        assert resampling_penalty_mc(fit, s, scheme, b, rng).value == pytest.approx(pen)


def test_mc_rademacher_two_points_exact():
    """n=2: the four weight outcomes give n*stat in {0, 2}, so the
    normalized penalty converges to the closed-form value 2."""
    s = Sample(np.array([0.25, 0.75]))
    fit = fit_model(D2, s)
    draws = resampling_mc_draws(fit, s, RADEMACHER_PAIR, 4096,
                                RngStream(8, 0, "rad"))
    assert set(np.round(2.0 * draws, 12)) <= {0.0, 2.0}
    pen = resampling_penalty_mc(fit, s, RADEMACHER_PAIR, 50_000,
                                RngStream(8, 1, "rad"))
    assert pen.value == pytest.approx(2.0, abs=0.05)


def test_mc_single_draw_deterministic():
    s = Sample(np.sort(np.random.default_rng(7).random(10)))
    fit = fit_model(D2, s)
    a = resampling_penalty_mc(fit, s, EFRON, 1, RngStream(9, 3, "w"))
    b = resampling_penalty_mc(fit, s, EFRON, 1, RngStream(9, 3, "w"))
    assert a == b


def test_unknown_scheme_rejected():
    s = Sample(np.array([0.25, 0.75]))
    fit = fit_model(D2, s)
    with pytest.raises(ValueError):
        resampling_penalty_mc(fit, s, ResamplingScheme("bogus"), 5, RngStream(0))
    with pytest.raises(ValueError):
        resampling_penalty_mc(fit, s, EFRON, 0, RngStream(0))
    assert set(SCHEMES) == {"efron", "rademacher-pair", "leave-one-out"}


def test_dmw_unbiased_smoke():
    density = PowerLaw()
    n, reps = 50, 4000
    m = histogram_model(np.linspace(0.0, 1.0, 5))
    q = exact_quantities(m, density, n)
    from densel.conclab import simulate_model_statistics
    sims = simulate_model_statistics(m, density, n, reps, RngStream(13, 0, "ub"))
    se = np.std(sims["dmw"], ddof=1) / np.sqrt(reps)
    assert abs(sims["dmw"].mean() - q.d_exact) <= 4.0 * se


def test_dimension_penalty_values():
    m5 = histogram_model(np.linspace(0.0, 1.0, 6))
    assert dimension_penalty(m5, 2.0, 100).value == pytest.approx(0.1)
    assert dimension_penalty(m5, 0.0, 100).value == 0.0
    mtb = histogram_model(two_block_breaks(100, 50, 2, 3))
    assert mtb.dim == 5
    assert dimension_penalty(mtb, 1.0, 100).value == pytest.approx(0.05)
    with pytest.raises(ValueError):
        dimension_penalty(m5, -1.0, 100)


def test_ideal_penalty_values():
    density = PowerLaw()
    q1 = exact_quantities(histogram_model([0.0, 1.0]), density, 100)
    assert ideal_deterministic_penalty(q1, 100, 7.0).value == 0.0
    q2 = exact_quantities(D2, density, 100)
    assert ideal_deterministic_penalty(q2, 100, 2.0).value == pytest.approx(
        2.0 * 0.9642006676323471 / 100.0, abs=1e-12)
