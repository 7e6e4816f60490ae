"""Density layer: exact forms, quadrature cross-checks, sampling."""

import numpy as np
import pytest
from scipy import integrate

from densel.densities import (PiecewiseConstant, PowerLaw, Sample, Uniform,
                              UnboundedPointError, density_from_config)
from densel.rng import RngStream

ALL_DENSITIES = [
    PowerLaw(),
    Uniform(),
    PiecewiseConstant(breaks=np.array([0.0, 0.25, 0.5, 1.0]),
                      heights=np.array([2.0, 1.2, 0.4])),
]


def test_powerlaw_pdf_values():
    d = PowerLaw()
    assert d.pdf(1.0) == pytest.approx(0.75)
    assert d.pdf(0.0625) == pytest.approx(1.5)
    # slope of the cdf reproduces the pdf
    h = 1e-7
    slope = (d.cdf(0.0625 + h) - d.cdf(0.0625 - h)) / (2 * h)
    assert slope == pytest.approx(1.5, rel=1e-6)


def test_uniform_pdf():
    assert Uniform().pdf(0.3) == pytest.approx(1.0)


def test_powerlaw_pdf_unbounded_at_zero():
    with pytest.raises(UnboundedPointError):
        PowerLaw().pdf(0.0)


@pytest.mark.parametrize("density", ALL_DENSITIES)
def test_domain_errors(density):
    with pytest.raises(ValueError):
        density.pdf(1.5)
    with pytest.raises(ValueError):
        density.cdf(-0.1)


def test_powerlaw_cdf_values():
    d = PowerLaw()
    assert d.cdf(1.0) == pytest.approx(1.0)
    assert d.cdf(0.5) == pytest.approx(0.5 ** 0.75, abs=1e-15)
    # independent check: quadrature of the pdf (x = t^4 removes the pole)
    val, _ = integrate.quad(lambda t: 3.0 * t ** 2, 0.0, 0.5 ** 0.25,
                            epsabs=1e-12)
    assert d.cdf(0.5) == pytest.approx(val, abs=1e-10)


def test_uniform_cdf():
    assert Uniform().cdf(0.25) == pytest.approx(0.25)


@pytest.mark.parametrize("density", ALL_DENSITIES)
def test_quantile_inverts_cdf(density):
    u = np.linspace(1e-6, 1.0, 501)
    x = density.quantile(u)
    assert np.all((0.0 <= x) & (x <= 1.0))
    assert np.max(np.abs(density.cdf(x) - u)) < 1e-12


def test_powerlaw_quantile_value():
    assert PowerLaw().quantile(0.5) == pytest.approx(0.5 ** (4.0 / 3.0))
    assert Uniform().quantile(0.7) == pytest.approx(0.7)


def test_sampling_deterministic():
    d = PowerLaw()
    s1 = d.sample(64, RngStream(42, 0, "data"))
    s2 = d.sample(64, RngStream(42, 0, "data"))
    assert np.array_equal(s1.points, s2.points)
    s3 = d.sample(64, RngStream(42, 1, "data"))
    assert not np.array_equal(s1.points, s3.points)
    s4 = d.sample(64, RngStream(43, 0, "data"))
    assert not np.array_equal(s1.points, s4.points)


def test_sampling_sorted_and_in_range():
    s = PowerLaw().sample(1000, RngStream(1, 2, "data"))
    assert s.sorted_flag
    assert np.all(np.diff(s.points) >= 0.0)
    assert s.n == 1000


def test_sample_size_error():
    with pytest.raises(ValueError):
        PowerLaw().sample(0, RngStream(0))


@pytest.mark.parametrize("density", ALL_DENSITIES)
def test_kolmogorov_smirnov_fit(density):
    s = density.sample(100_000, RngStream(7, 0, "ks"))
    emp_hi = np.arange(1, s.n + 1) / s.n
    emp_lo = np.arange(0, s.n) / s.n
    f = density.cdf(s.points)
    ks = max(np.max(np.abs(emp_hi - f)), np.max(np.abs(emp_lo - f)))
    assert ks < 0.01


def test_l2_norms():
    assert Uniform().l2_norm_sq() == pytest.approx(1.0)
    assert PowerLaw().l2_norm_sq() == pytest.approx(1.125)
    val, _ = integrate.quad(lambda t: (9.0 / 16.0) * 4.0 * t, 0.0, 1.0,
                            epsabs=1e-12)  # int s^2 after x = t^4
    assert PowerLaw().l2_norm_sq() == pytest.approx(val, abs=1e-10)
    half = PiecewiseConstant(breaks=np.array([0.0, 0.5, 1.0]),
                             heights=np.array([2.0, 0.0]))
    assert half.l2_norm_sq() == 2.0


def test_piecewise_l2_is_exact_sum():
    d = ALL_DENSITIES[2]
    expected = float(np.sum(d.heights ** 2 * np.diff(d.breaks)))
    assert d.l2_norm_sq() == expected


@pytest.mark.parametrize("density", [
    ALL_DENSITIES[2],
    density_from_config("piecewise", breaks=[0.0, 0.3, 1.0],
                        heights=[2.0, 4.0 / 7.0])])
def test_piecewise_cdf_is_the_one_expression(density):
    """The step cdf gives, bit for bit, cum + heights * (x - breaks) of the
    point's cell, clipped to [0, 1], on points across the support, its
    ends and breaks among them; a scalar point gives a numpy float."""
    x = np.concatenate((np.random.default_rng(4).random(10 ** 6),
                        density.breaks, [0.0, 0.3, 0.5, 1.0]))
    cum = np.concatenate(
        ([0.0], np.cumsum(density.heights * np.diff(density.breaks))))
    idx = np.minimum(np.searchsorted(density.breaks, x, side="right") - 1,
                     density.heights.size - 1)
    want = np.clip(cum[idx] + density.heights[idx] * (x - density.breaks[idx]),
                   0.0, 1.0)
    assert np.array_equal(density.cdf(x), want)
    for point in (0.0, 0.3, 0.5, 1.0):
        got = density.cdf(point)
        assert type(got) is np.float64
        assert got == want[np.flatnonzero(x == point)[0]]


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseConstant(breaks=np.array([0.0, 0.5, 1.0]),
                          heights=np.array([1.0, 1.5]))  # mass 1.25
    with pytest.raises(ValueError):
        PiecewiseConstant(breaks=np.array([0.1, 1.0]), heights=np.array([1.0]))
    with pytest.raises(ValueError):
        PiecewiseConstant(breaks=np.array([0.0, 0.0, 1.0]),
                          heights=np.array([1.0, 1.0]))


def test_piecewise_zero_height_quantile():
    d = PiecewiseConstant(breaks=np.array([0.0, 0.5, 1.0]),
                          heights=np.array([2.0, 0.0]))
    assert d.quantile(1.0) == pytest.approx(0.5)
    assert d.quantile(0.5) == pytest.approx(0.25)
    s = d.sample(2000, RngStream(3, 0, "z"))
    assert np.all(s.points <= 0.5 + 1e-12)


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(points=np.array([0.2, 1.4]))
    with pytest.raises(ValueError):
        Sample(points=np.array([0.5, 0.2]), sorted_flag=True)
    Sample(points=np.array([0.5, 0.2]), sorted_flag=False)


def test_density_from_config():
    assert density_from_config("powerlaw").kind == "powerlaw"
    assert density_from_config("uniform").kind == "uniform"
    d = density_from_config("piecewise", breaks=[0.0, 0.5, 1.0],
                            heights=[2.0, 0.0])
    assert d.l2_norm_sq() == 2.0
    with pytest.raises(ValueError):
        density_from_config("normal")
    with pytest.raises(ValueError):
        density_from_config("piecewise")
