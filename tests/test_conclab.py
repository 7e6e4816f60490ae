"""Concentration lab: tail reports, identities, regularization."""

import os
import tracemalloc
from dataclasses import dataclass
from math import isqrt

import numpy as np
import pytest

from densel import conclab
from densel.conclab import (check_p_concentration,
                            check_resampling_concentration,
                            check_ustat_concentration,
                            regularization_comparison,
                            simulate_model_statistics)
from densel.densities import PiecewiseConstant, PowerLaw, Sample, Uniform
from densel.fitting import fit_model
from densel.models import (exact_quantities, fourier_basis_matrix,
                           fourier_model, histogram_model, regular_histogram)
from densel.rng import RngStream
from oracles import (build_regular_histograms, generator,
                     u_statistic_double_sum)

MODEL10 = build_regular_histograms(10).models[-1]
STEP = PiecewiseConstant(np.array([0.0, 0.3, 0.7, 1.0]),
                         np.array([0.5, 1.75, 0.5]))


def test_simulation_deterministic():
    a = simulate_model_statistics(MODEL10, PowerLaw(), 50, 200,
                                  RngStream(3, 0, "sim"))
    b = simulate_model_statistics(MODEL10, PowerLaw(), 50, 200,
                                  RngStream(3, 0, "sim"))
    assert np.array_equal(a["p"], b["p"])
    assert np.array_equal(a["dmw"], b["dmw"])


def test_simulation_chunking_invariant(monkeypatch):
    """The byte budget sets the chunk and Gram sub-chunk sizes (one
    replication at a time under the smallest budget, all replications in
    one chunk but the Gram in sub-chunks under the middle one, which the
    chunk shares with its sub-chunks half and half) and changes no bit of
    p, dmw or u."""
    n, reps = 30, 300

    def run(model, budget):
        monkeypatch.setattr(conclab, "CHUNK_BYTES", budget)
        return simulate_model_statistics(model, PowerLaw(), n, reps,
                                         RngStream(4, 0, "c"), compute_u=True)
    for model in (MODEL10, fourier_model(3)):
        a = run(model, conclab.CHUNK_BYTES)
        one_chunk = 8 * (8 * n + 4 * model.dim) * reps
        assert 1 < one_chunk // (8 * n * (n + model.dim)) < reps
        for budget in (2 * one_chunk, 1):
            b = run(model, budget)
            for key in ("p", "dmw", "u"):
                assert np.array_equal(a[key], b[key]), (model.id, budget, key)


def test_forked_workers_bit_identical(monkeypatch):
    """Chunks split over forked workers give every bit of the serial p,
    dmw and u, for both bases.  There are min(threads, CPUs, chunks)
    workers: with a patched CPU count of 3, a budget of 50 replications
    per chunk (100 without u) and 300 replications, threads 2, 3 and 64
    make 2, 3 and 3 workers, and a run of one chunk makes one."""
    n, reps = 30, 300
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    made, fork_map = [], conclab.fork_map
    monkeypatch.setattr(conclab, "fork_map", lambda fn, parts: (
        made.append(len(parts)) or fork_map(fn, parts)))
    for model in (MODEL10, fourier_model(3)):
        monkeypatch.setattr(conclab, "CHUNK_BYTES",
                            2 * 8 * (8 * n + 4 * model.dim) * 50)
        for compute_u in (False, True):
            def run(threads, reps=reps):
                made.clear()
                out = simulate_model_statistics(
                    model, PowerLaw(), n, reps, RngStream(6, 0, "f"),
                    compute_u=compute_u, threads=threads)
                return out, made[0]
            serial, _ = run(1)
            for threads, workers in ((2, 2), (3, 3), (64, 3)):
                forked, count = run(threads)
                assert count == workers
                assert serial.keys() == forked.keys()
                for key in serial:
                    assert np.array_equal(serial[key], forked[key]), (
                        model.id, compute_u, threads, key)
            assert run(3, reps=50)[1] == 1


@pytest.mark.parametrize("model", [regular_histogram(20), fourier_model(10)],
                         ids=["reg-hist:d=20", "fourier:j=10"])
def test_ustat_memory_within_chunk_budget(model):
    """At n = isqrt(CHUNK_BYTES / 8) the (n, n) Gram array of one
    replication alone fills the chunk budget: the U-statistic run peaks
    within 1.5 budgets."""
    n = isqrt(conclab.CHUNK_BYTES // 8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        simulate_model_statistics(model, PowerLaw(), n, 3,
                                  RngStream(12, 0, "mem"), compute_u=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * conclab.CHUNK_BYTES


def _traced_peak(model, n, reps, compute_u=False):
    """Traced peak of one run above its start, after a warm-up call, so
    that whatever a first call loads or caches is not counted."""
    simulate_model_statistics(model, PowerLaw(), 2, 1, RngStream(12, 1, "mem"),
                              compute_u=compute_u)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        simulate_model_statistics(model, PowerLaw(), n, reps,
                                  RngStream(12, 1, "mem"), compute_u=compute_u)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model", [regular_histogram(1), fourier_model(1)],
                         ids=["reg-hist:d=1", "fourier:j=1"])
def test_small_dim_statistics_memory_within_budget(model):
    """At small d a replication holds more values per point than d (the
    draws, the points and their indices, or z and z**k); chunks count
    them, so the p/dmw run stays within 1.5 budgets."""
    assert _traced_peak(model, 100, 10_000) <= 1.5 * conclab.CHUNK_BYTES


@pytest.mark.parametrize("model", [regular_histogram(20), fourier_model(10)],
                         ids=["reg-hist:d=20", "fourier:j=10"])
def test_ustat_working_set_at_benchmark_shape(model):
    """At n = 200 the centered values of a replication are built inside
    its Gram sub-chunk, never for a whole chunk, and a chunk and its
    sub-chunk share the budget: the U-statistic run stays within one
    budget."""
    peak = _traced_peak(model, 200, 2000, compute_u=True)
    assert peak <= conclab.CHUNK_BYTES


@pytest.mark.parametrize("model", [regular_histogram(7),
                                   histogram_model([0.0, 0.1, 0.35, 1.0]),
                                   fourier_model(1), fourier_model(4)],
                         ids=["reg-hist:d=7", "hist:3-cells", "fourier:j=1",
                              "fourier:j=4"])
@pytest.mark.parametrize("n", [2, 9, 30])
def test_ustat_matches_double_sum_oracle(model, n):
    """Every replication's u equals the explicit Gram double sum of the
    oracles on the same sample, regenerated from the same stream."""
    reps = 40
    got = simulate_model_statistics(model, STEP, n, reps,
                                    RngStream(15, n, "u-oracle"),
                                    compute_u=True)["u"]
    draws = generator(RngStream(15, n, "u-oracle")).random((reps, n))
    x = STEP.quantile(draws)
    q = exact_quantities(model, STEP, n)
    for r in range(reps):
        sample = Sample(x[r], sorted_flag=False)
        want = u_statistic_double_sum(fit_model(model, sample), sample, q)
        assert abs(got[r] - want) <= 1e-12 * abs(want), (r, got[r], want)


def test_fourier_statistics_memory_below_chunk_budget():
    """p and dmw of a Fourier model come from moments: the run holds no
    (chunk, n, d) basis array, and peaks below one chunk budget."""
    assert _traced_peak(fourier_model(50), 1000, 200) < conclab.CHUNK_BYTES


@pytest.mark.parametrize("density", [PowerLaw(), Uniform(), STEP],
                         ids=["powerlaw", "uniform", "step"])
@pytest.mark.parametrize("j", [1, 10])
def test_fourier_moments_match_basis_matrix(density, j):
    """p and dmw from the basis means equal their basis-matrix forms."""
    n, reps = 40, 50
    model = fourier_model(j)
    got = simulate_model_statistics(model, density, n, reps,
                                    RngStream(13, j, "fm"))
    x = density.quantile(generator(RngStream(13, j, "fm")).random((reps, n)))
    mat = fourier_basis_matrix(j, x)
    coeffs = mat.mean(axis=1)
    pop = exact_quantities(model, density, n).pop_coeffs
    p = np.sum((coeffs - pop) ** 2, axis=1)
    dmw = n / (n - 1.0) * np.sum((mat ** 2).mean(axis=1) - coeffs ** 2,
                                 axis=1)
    np.testing.assert_allclose(got["p"], p, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got["dmw"], dmw, rtol=1e-12, atol=0.0)


@dataclass(frozen=True)
class _Atom(Uniform):
    """Every draw is the point x0 (the exact quantities stay uniform's
    for histograms)."""

    x0: float = 0.5

    def quantile(self, u):
        return np.full(np.shape(u), self.x0)


def test_dmw_nonnegative_on_identical_points():
    """When all points coincide dmw is exactly 0; its float form must not
    fall below it (both bases, with and without the U-statistic)."""
    models = ([fourier_model(j) for j in range(1, 16)]
              + [regular_histogram(d) for d in (1, 3, 7, 10, 30)]
              + [histogram_model([0.0, 0.1, 0.35, 1.0])])
    for n in (2, 7, 30):
        for x0 in np.linspace(0.0, 1.0, 21):
            for model in models:
                sims = simulate_model_statistics(model, _Atom(x0), n, 2,
                                                 RngStream(14, n, "atom"),
                                                 compute_u=n == 7)
                assert np.all(sims["dmw"] >= 0.0), (model.id, n, x0)
                assert np.all(sims["dmw"] <= 1e-12), (model.id, n, x0)


def test_p_concentration_passes():
    rep = check_p_concentration(MODEL10, PowerLaw(), 100, xs=(1.0, 20.0, 40.0),
                                reps=2000, rng=RngStream(5, 0, "p"))
    assert rep.all_passed
    assert {r.label for r in rep.rows} == {"p-upper", "p-lower"}
    for row in rep.rows:
        assert 0.0 <= row.frequency <= 1.0
        assert row.threshold > 0.0


def test_p_concentration_tiny_x_trivial():
    rep = check_p_concentration(MODEL10, PowerLaw(), 50, xs=(1e-9,),
                                reps=500, rng=RngStream(5, 1, "p"))
    for row in rep.rows:
        assert row.cap >= 1.0 - 1e-6
        assert row.passed


def test_resampling_concentration_passes():
    rep = check_resampling_concentration(MODEL10, PowerLaw(), 100,
                                         xs=(1.0, 3.0, 5.0), reps=2000,
                                         rng=RngStream(6, 0, "b"))
    assert rep.all_passed
    labels = {r.label for r in rep.rows}
    assert labels == {"dmw-minus-d-upper", "dmw-minus-d-two-sided",
                      "p-minus-dmw-upper", "dmw-minus-p-upper",
                      "dmw-unbiased"}


def test_resampling_needs_two_points():
    with pytest.raises(ValueError):
        check_resampling_concentration(MODEL10, PowerLaw(), 1, reps=10)


def test_ustat_identity_and_tails():
    m5 = build_regular_histograms(5).models[-1]
    rep = check_ustat_concentration(m5, PowerLaw(), 50, xs=(3.0, 5.0),
                                    reps=1500, rng=RngStream(7, 0, "u"))
    assert rep.all_passed
    ident = [r for r in rep.rows if r.label.startswith("identity")][0]
    assert ident.frequency <= 1e-10


def test_ustat_fourier_model():
    rep = check_ustat_concentration(fourier_model(2), Uniform(), 40,
                                    xs=(3.0,), reps=400,
                                    rng=RngStream(7, 1, "uf"))
    assert rep.all_passed


def test_insufficient_resolution_warning():
    with pytest.warns(UserWarning, match="insufficient"):
        check_ustat_concentration(MODEL10, PowerLaw(), 30, xs=(30.0,),
                                  reps=200, rng=RngStream(8, 0, "w"))


def test_regularization_improvement():
    rep = regularization_comparison(MODEL10, PowerLaw(), 100, reps=2000,
                                    rng=RngStream(9, 0, "r"))
    assert not rep.degenerate
    assert rep.ratio < 1.0
    assert rep.sd_dmw > 0.0 and rep.sd_np > 0.0


def test_regularization_constant_model_degenerate():
    rep = regularization_comparison(histogram_model([0.0, 1.0]), PowerLaw(),
                                    50, reps=300, rng=RngStream(9, 1, "r"))
    assert rep.degenerate
    assert np.isnan(rep.ratio)


def test_regularization_shrinks_with_n():
    lo = regularization_comparison(MODEL10, PowerLaw(), 100, reps=3000,
                                   rng=RngStream(10, 0, "r"))
    hi = regularization_comparison(MODEL10, PowerLaw(), 200, reps=3000,
                                   rng=RngStream(10, 1, "r"))
    assert hi.sd_dmw < lo.sd_dmw
    assert hi.sd_np < lo.sd_np
