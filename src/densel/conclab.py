"""Monte-Carlo checks of the finite-sample concentration bounds.

Each check simulates, for one model under a known density, the variance
part of the loss ``p`` (squared distance between the fit and the
population projection), the resampling estimate ``dmw`` of the variance
number D, and the degenerate second-order U-statistic ``u`` that links
them (p - dmw/n = u).  Empirical exceedance frequencies of the proved
deviation thresholds are compared with their caps; the bounds hold for
every n, so a failing row indicates an implementation bug rather than bad
luck.  All thresholds are evaluated with the exact D, e, v2 of the model,
never with estimates, so the check isolates the inequality itself.

p and dmw come from moments (cell counts, or the Fourier basis means) and
only the U-statistic builds per-point basis values, one Gram sub-chunk of
replications at a time; a chunk and the Gram sub-chunks inside it share
the one budget ``CHUNK_BYTES``.

A chunk of replications draws its uniforms with one ``rng.uniforms`` call,
as the run of the check's stream that starts where the previous chunk's
ended, so the chunk sizes change no bit.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .densities import Density
from .models import (ModelSpec, exact_quantities, fourier_basis_matrix,
                     fourier_means, histogram_cell_index, scale_constants)
from .rng import RngStream, uniforms

__all__ = [
    "TailRow",
    "TailReport",
    "RegularizationReport",
    "simulate_model_statistics",
    "check_p_concentration",
    "check_resampling_concentration",
    "check_ustat_concentration",
    "regularization_comparison",
]

DEFAULT_X_GRID = (1.0, 5.0, 20.0, 40.0, 80.0)


class TailRow(NamedTuple):
    """One tested deviation bound at one x."""

    label: str
    x: float
    threshold: float
    frequency: float
    cap: float
    mc_se: float
    passed: bool
    note: str = ""


class TailReport(NamedTuple):
    bound: str
    model_id: str
    n: int
    reps: int
    rows: tuple[TailRow, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


class RegularizationReport(NamedTuple):
    """Spread of the resampling estimate vs the raw variance part."""

    model_id: str
    n: int
    reps: int
    sd_dmw: float
    sd_np: float
    ratio: float
    degenerate: bool


# ---------------------------------------------------------------------------
# Vectorized simulation of (p, dmw, u) for one model
# ---------------------------------------------------------------------------

CHUNK_BYTES = 2 << 20


def simulate_model_statistics(model: ModelSpec, density: Density, n: int,
                              reps: int, rng: RngStream,
                              compute_u: bool = False) -> dict[str, np.ndarray]:
    """Per-replication p, dmw (and optionally the double-sum u).

    p and dmw come from moments: the cell counts of a histogram, the
    basis means of ``fourier_means`` for a Fourier model, whose squared
    basis values sum to d at every point, so that dmw = n/(n-1) (d -
    |coeffs|^2).  dmw is clamped at 0, its exact value when all points
    coincide.  Only ``compute_u`` builds per-point values: the (n, d)
    centered basis values of a replication and their (n, n) Gram array,
    both inside one Gram sub-chunk.

    Replications run in chunks of 8 n + 4 d values each, and the
    centered values with their Gram arrays in sub-chunks of n (n + d)
    values each, one at a time: a chunk fills ``CHUNK_BYTES``, or half of
    it when its sub-chunks take the other half, unless one replication
    alone exceeds that; the chunk sizes change no bit of the results.
    """
    if n < 2:
        raise ValueError("dmw divides by n - 1: need n >= 2")
    quantities = exact_quantities(model, density, n)
    pop = quantities.pop_coeffs
    d = model.dim
    # a replication holds 8 values per point (the draws, the points and
    # the cell and flat indices of a histogram or the complex z and z**k
    # of a Fourier model, and the temporaries of a step density's
    # quantile) and 4 per coefficient (the counts or means, and the
    # squares and differences of p and dmw)
    budget = CHUNK_BYTES // 2 if compute_u else CHUNK_BYTES
    step = max(1, budget // (8 * (8 * n + 4 * d)))
    gram_step = max(1, budget // (8 * n * (n + d)))
    p_out = np.empty(reps)
    dmw_out = np.empty(reps)
    u_out = np.empty(reps) if compute_u else None
    if model.basis == "histogram":
        widths = model.widths
        # the centered value of a point at its own cell; every other cell
        # holds 0.0 - pop: the floats of (indicator / sqrt(w)) - pop
        own = 1.0 / np.sqrt(widths) - pop
    for lo in range(0, reps, step):
        hi = min(lo + step, reps)
        m = hi - lo
        x = density.quantile(uniforms([rng], m * n, lo * n).reshape(m, n))
        if model.basis == "histogram":
            cell = histogram_cell_index(model.breaks, x.ravel()).reshape(m, n)
            flat = cell + d * np.arange(m)[:, None]
            counts = np.bincount(flat.ravel(), minlength=m * d).reshape(m, d)
            del flat
            coeffs = counts / (n * np.sqrt(widths))
            var = np.sum(counts / (n * widths) - coeffs ** 2, axis=1)
        else:
            coeffs = fourier_means(model.j, x)
            var = d - np.sum(coeffs ** 2, axis=1)
        p_out[lo:hi] = np.sum((coeffs - pop) ** 2, axis=1)
        # guard the float tail: dmw is nonnegative by construction
        dmw_out[lo:hi] = np.maximum(n / (n - 1.0) * var, 0.0)
        if not compute_u:
            continue
        for a in range(0, m, gram_step):
            b = min(a + gram_step, m)
            if model.basis == "histogram":
                cells = cell[a:b].ravel()
                c = np.empty((b - a, n, d))
                c[...] = 0.0 - pop
                c.reshape(-1, d)[np.arange(cells.size), cells] = own[cells]
            else:
                c = fourier_basis_matrix(model.j, x[a:b])
                c -= pop
            gram = c @ c.transpose(0, 2, 1)
            total = gram.sum(axis=(1, 2))
            diag = np.einsum("bii->b", gram)
            del gram                    # one sub-chunk at a time
            u_out[lo + a:lo + b] = (total - diag) / (n * (n - 1.0))
    out = {"p": p_out, "dmw": dmw_out}
    if compute_u:
        out["u"] = u_out
    return out


# ---------------------------------------------------------------------------
# Deviation thresholds (exact constants of the proved bounds)
# ---------------------------------------------------------------------------

def _p_upper(d: float, e: float, v2: float, x: float, n: int) -> float:
    return (d ** 0.75 * (e * x * x) ** 0.25 + 0.7 * np.sqrt(d * v2 * x)
            + 0.15 * v2 * x + e * x * x) / n


def _p_lower(d: float, e: float, v2: float, x: float, n: int) -> float:
    return (1.8 * d ** 0.75 * (e * x * x) ** 0.25 + 1.71 * np.sqrt(d * v2 * x)
            + 4.06 * e * x * x) / n


def _u_upper(d: float, e: float, v2: float, x: float, n: int) -> float:
    return (5.31 * d ** 0.75 * (e * x * x) ** 0.25 + 3.0 * np.sqrt(v2 * d * x)
            + 3.0 * v2 * x + e * (19.1 * x) ** 2) / (n - 1.0)


def _u_lower(d: float, e: float, v2: float, x: float, n: int) -> float:
    return (9.0 * d ** 0.75 * (e * x * x) ** 0.25 + 7.61 * np.sqrt(v2 * d * x)
            + e * (40.3 * x) ** 2) / (n - 1.0)


def _dmw_upper(d: float, e: float, v2: float, x: float, n: int) -> float:
    return (np.sqrt(8.0 * e * d * x)
            + e * (4.0 * x / 3.0 + (40.3 * x) ** 2 / (n - 1.0))
            + (9.0 * d ** 0.75 * (e * x * x) ** 0.25
               + 7.61 * np.sqrt(v2 * d * x)) / (n - 1.0))


def _dmw_lower(d: float, e: float, v2: float, x: float, n: int) -> float:
    return (np.sqrt(8.0 * e * d * x)
            + e * (4.0 * x / 3.0 + (19.1 * x) ** 2 / (n - 1.0))
            + (5.31 * d ** 0.75 * (e * x * x) ** 0.25
               + 3.0 * np.sqrt(v2 * d * x) + 3.0 * v2 * x) / (n - 1.0))


def _tail_row(label: str, x: float, exceed: np.ndarray, threshold: float,
              cap: float, reps: int) -> TailRow:
    freq = float(np.mean(exceed))
    se = float(np.sqrt(freq * (1.0 - freq) / reps))
    note = ""
    if cap < 5.0 / reps:
        note = "insufficient-resolution"
        warnings.warn(
            f"{label} at x={x:g}: cap {cap:.3g} below 5/reps, insufficient "
            f"Monte-Carlo resolution", stacklevel=3)
    return TailRow(label=label, x=x, threshold=threshold, frequency=freq,
                   cap=cap, mc_se=se, passed=freq <= cap + 3.0 * se, note=note)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_p_concentration(model: ModelSpec, density: Density, n: int,
                          xs=DEFAULT_X_GRID, reps: int = 10_000,
                          rng: RngStream | None = None) -> TailReport:
    """Two-sided deviation of p around D/n at cap exp(-x/20)."""
    rng = rng if rng is not None else RngStream(0, 0, "conc-p")
    q = exact_quantities(model, density, n)
    e, v2 = scale_constants(model, density, n)
    sims = simulate_model_statistics(model, density, n, reps, rng)
    dev = sims["p"] - q.d_exact / n
    rows = []
    for x in xs:
        thr_up = _p_upper(q.d_exact, e, v2, x, n)
        rows.append(_tail_row("p-upper", x, dev > thr_up, thr_up,
                              float(np.exp(-x / 20.0)), reps))
        thr_lo = _p_lower(q.d_exact, e, v2, x, n)
        rows.append(_tail_row("p-lower", x, -dev > thr_lo, thr_lo,
                              float(2.8 * np.exp(-x / 20.0)), reps))
    return TailReport(bound="p", model_id=model.id, n=n, reps=reps,
                      rows=tuple(rows))


def check_resampling_concentration(model: ModelSpec, density: Density, n: int,
                                   xs=DEFAULT_X_GRID, reps: int = 10_000,
                                   rng: RngStream | None = None) -> TailReport:
    """Tails of dmw - D (one- and two-sided) and of p - dmw/n, plus the
    unbiasedness row mean(dmw) = D within three standard errors."""
    rng = rng if rng is not None else RngStream(0, 0, "conc-dmw")
    q = exact_quantities(model, density, n)
    e, v2 = scale_constants(model, density, n)
    sims = simulate_model_statistics(model, density, n, reps, rng)
    dmw_dev = sims["dmw"] - q.d_exact
    gap = sims["p"] - sims["dmw"] / n
    rows = []
    for x in xs:
        thr_up = _dmw_upper(q.d_exact, e, v2, x, n)
        thr_lo = _dmw_lower(q.d_exact, e, v2, x, n)
        rows.append(_tail_row("dmw-minus-d-upper", x, dmw_dev > thr_up,
                              thr_up, float(4.8 * np.exp(-x)), reps))
        two_sided = (dmw_dev > thr_up) | (dmw_dev < -thr_lo)
        rows.append(_tail_row("dmw-minus-d-two-sided", x, two_sided,
                              thr_up, float(7.8 * np.exp(-x)), reps))
        thr_gap_up = _u_upper(q.d_exact, e, v2, x, n)
        rows.append(_tail_row("p-minus-dmw-upper", x, gap > thr_gap_up,
                              thr_gap_up, float(2.0 * np.exp(-x)), reps))
        thr_gap_lo = _u_lower(q.d_exact, e, v2, x, n)
        rows.append(_tail_row("dmw-minus-p-upper", x, -gap > thr_gap_lo,
                              thr_gap_lo, float(3.8 * np.exp(-x)), reps))
    mean_dev = float(np.abs(np.mean(sims["dmw"]) - q.d_exact))
    se = float(np.std(sims["dmw"], ddof=1) / np.sqrt(reps))
    rows.append(TailRow(label="dmw-unbiased", x=float("nan"),
                        threshold=3.0 * se, frequency=mean_dev, cap=3.0 * se,
                        mc_se=se, passed=mean_dev <= 3.0 * se))
    return TailReport(bound="resampling", model_id=model.id, n=n, reps=reps,
                      rows=tuple(rows))


def check_ustat_concentration(model: ModelSpec, density: Density, n: int,
                              xs=DEFAULT_X_GRID, reps: int = 10_000,
                              rng: RngStream | None = None) -> TailReport:
    """Tails of the degenerate U-statistic, plus the algebraic identity
    row max |u - (p - dmw/n)| over replications (relative, 1e-10)."""
    rng = rng if rng is not None else RngStream(0, 0, "conc-u")
    q = exact_quantities(model, density, n)
    e, v2 = scale_constants(model, density, n)
    sims = simulate_model_statistics(model, density, n, reps, rng,
                                     compute_u=True)
    u = sims["u"]
    gap = sims["p"] - sims["dmw"] / n
    scale = np.maximum(np.abs(u), 1.0)
    ident = float(np.max(np.abs(u - gap) / scale))
    rows = [TailRow(label="identity-u-eq-p-minus-dmw", x=float("nan"),
                    threshold=1e-10, frequency=ident, cap=1e-10,
                    mc_se=0.0, passed=ident <= 1e-10)]
    for x in xs:
        thr_up = _u_upper(q.d_exact, e, v2, x, n)
        rows.append(_tail_row("u-upper", x, u > thr_up, thr_up,
                              float(2.0 * np.exp(-x)), reps))
        thr_lo = _u_lower(q.d_exact, e, v2, x, n)
        rows.append(_tail_row("u-lower", x, -u > thr_lo, thr_lo,
                              float(3.8 * np.exp(-x)), reps))
    return TailReport(bound="ustat", model_id=model.id, n=n, reps=reps,
                      rows=tuple(rows))


def regularization_comparison(model: ModelSpec, density: Density, n: int,
                              reps: int = 10_000,
                              rng: RngStream | None = None) -> RegularizationReport:
    """Spread of dmw against n*p over replications; the resampling
    estimate concentrates strictly better on non-constant models."""
    rng = rng if rng is not None else RngStream(0, 0, "conc-reg")
    sims = simulate_model_statistics(model, density, n, reps, rng)
    sd_dmw = float(np.std(sims["dmw"], ddof=1))
    sd_np = float(np.std(n * sims["p"], ddof=1))
    degenerate = sd_np == 0.0
    ratio = float("nan") if degenerate else sd_dmw / sd_np
    return RegularizationReport(model_id=model.id, n=n, reps=reps,
                                sd_dmw=sd_dmw, sd_np=sd_np, ratio=ratio,
                                degenerate=degenerate)
