"""The resampling estimate of the variance number D.

For any exchangeable weight vector the resampling penalty collapses to
``2*dmw/n`` with ``dmw = n/(n-1) * sum_lambda(Pn(psi^2) - (Pn psi)^2)``,
independent of the weight distribution, so no weights are ever drawn.
``resampling_dmw`` computes it for one fitted model; it is the per-model
reference form of the number the labs (``densel.labs``,
``densel.twoblock``) compute for whole collections at once, and the
tests' per-model lab checks them against it.  The Monte-Carlo weight schemes and the O(n^2 d) double sum
it replaces are kept as test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np

from .densities import Sample
from .fitting import FittedModel
from .models import fourier_basis_matrix

__all__ = ["resampling_dmw"]


def resampling_dmw(fit: FittedModel, sample: Sample) -> float:
    """Exchangeable-weight estimate of the variance number D (closed form).

    For a histogram the per-cell term Pn(psi^2) - (Pn psi)^2 is
    c (n - c) / (n^2 w), computed from the counts so that it cannot cancel
    below zero.
    """
    n = fit.n
    if n < 2:
        raise ValueError("resampling estimate needs n >= 2")
    model = fit.model
    if model.basis == "histogram":
        c = fit.counts
        var = np.sum(c * (n - c) / (n * n * model.widths))
    else:
        mean_sq = (fourier_basis_matrix(model.j, sample.points) ** 2).mean(axis=0)
        var = np.sum(mean_sq - fit.coeffs ** 2)
    return n / (n - 1.0) * float(var)
