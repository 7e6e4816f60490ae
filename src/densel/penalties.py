"""Penalty functions for model selection.

Four penalties are provided, all on the scale of the selection criterion
(a loss per observation):

* ``resampling_penalty``: the exchangeable-weight estimate of twice the
  estimation error, computed in closed form.  For any exchangeable weight
  vector the estimator collapses to
  ``dmw = n/(n-1) * sum_lambda(Pn(psi^2) - (Pn psi)^2)``, independent of
  the weight distribution, and the penalty is ``2*dmw/n``.
* ``resampling_penalty_mc``: the same penalty evaluated by actually drawing
  B weight vectors from a scheme (Efron multinomial, 0/2 coin flips, or
  leave-one-out).  Converges to the closed form as B grows; kept as an
  independent check of the normalization.
* ``dimension_penalty``: K * dim / n, the input of the slope algorithm on
  regular collections.
* ``ideal_deterministic_penalty``: K * D / n from exact model quantities,
  available only when the true density is known (oracle experiments).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import Sample
from .fitting import FittedModel
from .models import ExactModelQuantities, ModelSpec, fourier_basis_matrix
from .rng import RngStream

__all__ = [
    "PenaltyValue",
    "ResamplingScheme",
    "EFRON",
    "RADEMACHER_PAIR",
    "LEAVE_ONE_OUT",
    "SCHEMES",
    "resampling_dmw",
    "resampling_penalty",
    "resampling_dmw_double_sum",
    "resampling_penalty_mc",
    "dimension_penalty",
    "ideal_deterministic_penalty",
    "u_statistic_double_sum",
]


@dataclass(frozen=True)
class PenaltyValue:
    """A penalty assignment for one model."""

    model_id: str
    value: float


# ---------------------------------------------------------------------------
# Resampling schemes
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


# ---------------------------------------------------------------------------
# Closed-form resampling penalty
# ---------------------------------------------------------------------------

def _basis_matrix(fit: FittedModel, sample: Sample) -> np.ndarray:
    """psi_lambda(X_i) as an (n, d) matrix."""
    model = fit.model
    if model.basis == "fourier":
        return fourier_basis_matrix(model.j, sample.points)
    from .models import histogram_cell_index
    cell = histogram_cell_index(model.breaks, sample.points)
    mat = np.zeros((sample.n, model.dim))
    mat[np.arange(sample.n), cell] = 1.0 / np.sqrt(model.widths[cell])
    return mat


def _cell_counts(fit: FittedModel, sample: Sample) -> np.ndarray:
    """Bin counts of a histogram fit."""
    if fit.counts is not None:
        return fit.counts
    from .fitting import histogram_counts
    return histogram_counts(fit.model.breaks, sample)


def _mean_sq_basis(fit: FittedModel, sample: Sample) -> np.ndarray:
    """Pn(psi_lambda^2) per basis function."""
    model = fit.model
    if model.basis == "histogram":
        return _cell_counts(fit, sample) / (fit.n * model.widths)
    return (fourier_basis_matrix(model.j, sample.points) ** 2).mean(axis=0)


def resampling_dmw(fit: FittedModel, sample: Sample) -> float:
    """Exchangeable-weight estimate of the variance number D (closed form).

    For a histogram the per-cell term Pn(psi^2) - (Pn psi)^2 is
    c (n - c) / (n^2 w), computed from the counts so that it cannot cancel
    below zero.
    """
    n = fit.n
    if n < 2:
        raise ValueError("resampling estimate needs n >= 2")
    if fit.model.basis == "histogram":
        c = _cell_counts(fit, sample)
        var = np.sum(c * (n - c) / (n * n * fit.model.widths))
    else:
        var = np.sum(_mean_sq_basis(fit, sample) - fit.coeffs ** 2)
    return n / (n - 1.0) * float(var)


def resampling_penalty(fit: FittedModel, sample: Sample) -> PenaltyValue:
    """Penalty 2*dmw/n; exact for every exchangeable scheme, O(n + d)."""
    return PenaltyValue(model_id=fit.model.id,
                        value=2.0 * resampling_dmw(fit, sample) / fit.n)


def resampling_dmw_double_sum(fit: FittedModel, sample: Sample) -> float:
    """The O(n^2 d) double-sum form of dmw; test oracle for the closed form.

    dmw/n = (1/n) sum_lambda [ Pn(psi^2)
            - (1/(n(n-1))) sum_{i != j} psi(X_i) psi(X_j) ].
    """
    n = fit.n
    if n < 2:
        raise ValueError("resampling estimate needs n >= 2")
    mat = _basis_matrix(fit, sample)
    gram = mat @ mat.T
    cross = (gram.sum() - np.trace(gram)) / (n * (n - 1.0))
    mean_sq = float(np.sum(_mean_sq_basis(fit, sample)))
    return float(mean_sq - cross)


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
    w = scheme.draw(n, b, rng.generator())
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
# Degenerate second-order U-statistic
# ---------------------------------------------------------------------------

def u_statistic_double_sum(fit: FittedModel, sample: Sample,
                           quantities: ExactModelQuantities) -> float:
    """U = (1/(n(n-1))) sum_{i != j} sum_lambda c_i,lambda c_j,lambda.

    c_i,lambda = psi_lambda(X_i) - E psi_lambda(X); computed through the
    explicit Gram matrix of centered basis evaluations.  Algebraically this
    equals p_term - dmw/n, which the concentration lab verifies.
    """
    n = fit.n
    if n < 2:
        raise ValueError("U-statistic needs n >= 2")
    centered = _basis_matrix(fit, sample) - quantities.pop_coeffs
    gram = centered @ centered.T
    return float((gram.sum() - np.trace(gram)) / (n * (n - 1.0)))
