"""End-to-end experiments: oracle-ratio simulations and penalty sweeps.

A replication draws one sample and evaluates every model of a collection
once; each selection method then picks from that evaluation, and its score
is the oracle ratio, the exact loss of the selected estimator divided by
the smallest exact loss in the collection.  Reports aggregate mean, median
and 0.95-quantile (nearest-rank) over replications.

``make_lab`` picks the lab of a collection kind: ``labs.CollectionLab``
for the regular histograms and the Fourier models, ``twoblock.TwoBlockLab``
for the two-block family.  The labs and their evaluations live in those
two modules and the selection methods' records in ``methods``, each of
which compiles in at most about a megabyte of heap: without cached
bytecode a command compiles every module it loads, and one module
holding all of them set the peak memory of every command that loads it.
This module imports them eagerly and
re-exports only the names that callers, tests and the benchmark tracer
reach through it: the labs, the method records, ``CHUNK_BYTES``, and the
evaluation classes and helpers that the tests check (the tracer wraps
``_Evaluation.apply`` and ``_TwoBlockEvaluation.apply``).
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from .densities import Density, PowerLaw
from .labs import (CHUNK_BYTES, ORACLE_EPS, CollectionLab, ModelRow,
                   _block_tables, _Evaluation)
from .methods import (DEFAULT_METHODS, Method, MethodOutcome, parse_method,
                      penalty_constant)
from .rng import RngStream, uniforms
from .twoblock import (TwoBlockLab, _breakpoint_order, _two_block_id,
                       _TwoBlockEvaluation, _undominated)

__all__ = [
    "Method",
    "penalty_constant",
    "parse_method",
    "MethodOutcome",
    "ModelRow",
    "SimulationReport",
    "SweepReport",
    "CollectionLab",
    "TwoBlockLab",
    "make_lab",
    "summarize",
    "run_example",
    "penalty_sweep",
]


def make_lab(kind: str, n: int, density: Density):
    """Evaluation engine for a collection kind (fast path for two-block)."""
    if kind == "two-block":
        return TwoBlockLab(n, density)
    return CollectionLab(kind, n, density)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def summarize(ratios) -> tuple[float, float, float]:
    """Mean, median and 0.95-quantile (nearest-rank order statistics)."""
    vals = np.sort(np.asarray(ratios, dtype=float))
    if vals.size == 0:
        raise ValueError("nothing to summarize")
    med = vals[int(np.ceil(0.5 * vals.size)) - 1]
    q95 = vals[int(np.ceil(0.95 * vals.size)) - 1]
    return float(vals.mean()), float(med), float(q95)


class SimulationReport(NamedTuple):
    """Oracle-ratio statistics per method over N replications."""

    collection: str
    n: int
    reps: int
    seed: int
    methods: tuple[str, ...]
    ratios: dict[str, np.ndarray]
    selected: dict[str, list[str]]
    flags: dict[str, list[str | None]]

    def stats(self, method: str) -> tuple[float, float, float]:
        return summarize(self.ratios[method])

    def flagged(self, method: str) -> int:
        return sum(1 for f in self.flags[method] if f)


class SweepReport(NamedTuple):
    """Selected-variance ratios along a penalty-constant grid."""

    collection: str
    n: int
    reps: int
    seed: int
    k_grid: np.ndarray
    mean_d_ratio: np.ndarray
    mean_oracle_ratio: np.ndarray


# ---------------------------------------------------------------------------
# Replication drivers
# ---------------------------------------------------------------------------

def _run_reps(lab, task, seed: int, reps: int, threads: int):
    """``task(evaluation)`` for every replication, in replication order.

    The replications are split into min(threads, reps, usable CPUs)
    contiguous ranges, and ``fork.fork_map`` runs each range after the
    first in a forked child.  A range runs in batches whose uniforms fill
    at most CHUNK_BYTES, drawn as one array; each replication still gets
    its own quantile, sort and Sample."""
    # imported here: select and slope-path run no replications and so
    # never load it
    from .fork import fork_map, usable_cpus
    size = max(1, CHUNK_BYTES // (8 * lab.n))

    def run(part: range) -> list:
        out = []
        for a in range(part.start, part.stop, size):
            streams = [RngStream(seed, r, "data")
                       for r in range(a, min(a + size, part.stop))]
            draws = uniforms(streams, lab.n)
            out.extend(task(lab.evaluate(lab.density.sample(lab.n, s, u=u)))
                       for s, u in zip(streams, draws))
        return out

    workers = max(1, min(threads, reps, usable_cpus()))
    parts = [range(i * reps // workers, (i + 1) * reps // workers)
             for i in range(workers)]
    return [row for part in fork_map(run, parts) for row in part]


def _apply_all(methods, ev) -> list[MethodOutcome]:
    return [ev.apply(m) for m in methods]


def _sweep_rep(k_grid, ev) -> list[tuple[float, float]]:
    """(oracle ratio, D of the pick) per K of the penalty K * D / n."""
    oracle = ev.oracle_loss()
    rows = [ev.argmin(float(k), "d_exact") for k in k_grid]
    return [(r.loss / oracle if oracle > ORACLE_EPS else float("nan"),
             r.d_exact) for r in rows]


def run_example(example: int, n: int, reps: int,
                methods=DEFAULT_METHODS, seed: int = 0,
                density: Density | None = None,
                threads: int = 1) -> SimulationReport:
    """The two benchmark experiments: regular histograms (example 1) and
    the two-block family (example 2), all methods sharing each sample."""
    if example not in (1, 2):
        raise ValueError("example must be 1 or 2")
    if n < 2:
        raise ValueError("examples need n >= 2")
    density = density if density is not None else PowerLaw()
    methods = tuple(methods)
    lab = make_lab("regular-hist" if example == 1 else "two-block", n, density)
    rows = _run_reps(lab, partial(_apply_all, methods), seed, reps, threads)
    ratios = {m.name: np.array([row[i].ratio for row in rows])
              for i, m in enumerate(methods)}
    selected = {m.name: [row[i].selected for row in rows]
                for i, m in enumerate(methods)}
    flags = {m.name: [row[i].flag for row in rows]
             for i, m in enumerate(methods)}
    return SimulationReport(collection=lab.kind, n=n, reps=reps, seed=seed,
                            methods=tuple(m.name for m in methods),
                            ratios=ratios, selected=selected, flags=flags)


def penalty_sweep(kind: str, n: int, k_grid, reps: int, seed: int = 0,
                  density: Density | None = None,
                  threads: int = 1) -> SweepReport:
    """Selection with the exact penalty K * D / n along a K grid.

    Reports, per K, the mean ratio of the selected model's variance number
    to the collection maximum, and the mean oracle ratio.
    """
    if n < 2:
        raise ValueError("a sweep needs n >= 2")
    density = density if density is not None else PowerLaw()
    k_grid = np.asarray(sorted(k_grid), dtype=float)
    if k_grid.size == 0 or np.any(np.diff(k_grid) <= 0):
        raise ValueError("K grid must be non-empty and strictly increasing")
    lab = make_lab(kind, n, density)
    out = np.array(_run_reps(lab, partial(_sweep_rep, k_grid), seed, reps,
                             threads)).reshape(reps, k_grid.size, 2)
    return SweepReport(collection=kind, n=n, reps=reps, seed=seed,
                       k_grid=k_grid,
                       mean_d_ratio=(out[:, :, 1] / lab.d_max).mean(axis=0),
                       mean_oracle_ratio=out[:, :, 0].mean(axis=0))
