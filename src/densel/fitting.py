"""Projection fits: empirical coefficients, contrast, estimation error.

Fitting a model to a sample means taking the empirical mean of each basis
function.  For histograms this reduces to bin counts, obtained by binary
search on the (sorted) sample, so a fit costs O(d + log n).  The empirical
contrast of the fitted estimator is minus the sum of squared coefficients;
it is the data term of every selection criterion in this package.

These are the per-model reference forms: the labs of ``densel.harness``
compute the same statistics for whole collections at once and never call
them, and the tests' per-model lab (``tests/oracles.py``) checks the labs
against ``fit_model`` and ``p_term``, the squared distance to the
population projection.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .densities import Sample
from .models import (ExactModelQuantities, ModelSpec, fourier_basis_matrix)

__all__ = [
    "FittedModel",
    "fit_model",
    "p_term",
]


class FittedModel(NamedTuple):
    """Empirical basis coefficients of one model on one sample.

    For histograms ``counts`` holds the per-cell bin counts used to derive
    the coefficients; it is kept so penalty computations need no second
    pass over the data.
    """

    model: ModelSpec
    coeffs: np.ndarray
    n: int
    emp_contrast: float
    counts: np.ndarray | None = None


def histogram_counts(breaks: np.ndarray, sample: Sample) -> np.ndarray:
    """Bin counts for a partition, cells [a,b) except the last, [a,1].

    The points are placed by a search of the float breaks.  The labs'
    block engine (``harness._bin_counts``) bins by floor(j x) instead, which
    differs only for a point on a float edge: x = fl(15/22) is counted in
    [15/22, 16/22) here and in [14/22, 15/22) by the engine."""
    pts = sample.points if sample.sorted_flag else np.sort(sample.points)
    edges = np.searchsorted(pts, breaks, side="left")
    edges[-1] = pts.size
    return np.diff(edges)


def fit_model(model: ModelSpec, sample: Sample) -> FittedModel:
    """Project a sample onto a model (empirical coefficients)."""
    if sample.n == 0:
        raise ValueError("cannot fit an empty sample")
    if model.basis == "histogram":
        counts = histogram_counts(model.breaks, sample)
        coeffs = counts / (sample.n * np.sqrt(model.widths))
    else:
        counts = None
        coeffs = fourier_basis_matrix(model.j, sample.points).mean(axis=0)
    contrast = -float(np.sum(coeffs ** 2))
    return FittedModel(model=model, coeffs=coeffs, n=sample.n,
                       emp_contrast=contrast, counts=counts)


def p_term(fit: FittedModel, quantities: ExactModelQuantities) -> float:
    """Squared distance between the fit and the population projection."""
    if fit.model.id != quantities.model_id:
        raise ValueError(
            f"fit is for {fit.model.id!r} but quantities are for "
            f"{quantities.model_id!r}")
    return float(np.sum((fit.coeffs - quantities.pop_coeffs) ** 2))
