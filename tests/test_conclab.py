"""Concentration lab: tail reports, identities, regularization."""

import tracemalloc

import numpy as np
import pytest

from densel import conclab
from densel.conclab import (check_p_concentration,
                            check_resampling_concentration,
                            check_ustat_concentration,
                            regularization_comparison,
                            simulate_model_statistics)
from densel.densities import PowerLaw, Uniform
from densel.models import (build_regular_histograms, fourier_model,
                           histogram_model, regular_histogram)
from densel.rng import RngStream

MODEL10 = build_regular_histograms(10).models[-1]


def test_simulation_deterministic():
    a = simulate_model_statistics(MODEL10, PowerLaw(), 50, 200,
                                  RngStream(3, 0, "sim"))
    b = simulate_model_statistics(MODEL10, PowerLaw(), 50, 200,
                                  RngStream(3, 0, "sim"))
    assert np.array_equal(a["p"], b["p"])
    assert np.array_equal(a["dmw"], b["dmw"])


def test_simulation_chunking_invariant(monkeypatch):
    """The byte budget sets the chunk size (one replication at a time
    under the smaller one) and changes no bit of p, dmw or u."""
    def run(model, budget):
        monkeypatch.setattr(conclab, "CHUNK_BYTES", budget)
        return simulate_model_statistics(model, PowerLaw(), 30, 300,
                                         RngStream(4, 0, "c"), compute_u=True)
    for model in (MODEL10, fourier_model(3)):
        a, b = run(model, conclab.CHUNK_BYTES), run(model, 1)
        for key in ("p", "dmw", "u"):
            assert np.array_equal(a[key], b[key])


@pytest.mark.parametrize("model", [regular_histogram(20), fourier_model(10)],
                         ids=["reg-hist:d=20", "fourier:j=10"])
def test_ustat_memory_within_chunk_budget(model):
    """At n = 1000 the (n, n) Gram array of one replication alone is 8 MB:
    the U-statistic run peaks within three chunk budgets."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        simulate_model_statistics(model, PowerLaw(), 1000, 3,
                                  RngStream(12, 0, "mem"), compute_u=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * conclab.CHUNK_BYTES


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
