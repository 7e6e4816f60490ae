"""Deterministic CSV output.

All reals are written with 17 significant digits and '.' as the decimal
mark, independent of locale, so identical runs produce byte-identical
files and golden-file tests are meaningful.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

from .harness import ModelRow, SimulationReport, SweepReport
from .slope import SlopePath

if TYPE_CHECKING:
    from .conclab import RegularizationReport, TailReport


def fmt(value) -> str:
    """Render one CSV field."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def summary_rows(report: SimulationReport) -> list[list]:
    rows = []
    for method in report.methods:
        mean, median, q95 = report.stats(method)
        rows.append([method, mean, median, q95, report.reps, report.n,
                     report.seed])
    return rows


SUMMARY_HEADER = ["method", "mean", "median", "q95", "N", "n", "seed"]


def raw_rows(report: SimulationReport) -> list[list]:
    rows = []
    for rep in range(report.reps):
        for method in report.methods:
            flag = report.flags[method][rep]
            rows.append([rep, method, float(report.ratios[method][rep]),
                         report.selected[method][rep], flag or ""])
    return rows


RAW_HEADER = ["rep", "method", "ratio", "selected_model", "flag"]


def path_rows(path: SlopePath) -> list[list]:
    """One row per segment; an exact path's Fractions are written as
    floats."""
    return [[float(seg.k_lo), float(seg.k_hi), seg.model_id, float(seg.delta)]
            for seg in path.segments]


PATH_HEADER = ["K_lo", "K_hi", "model_id", "delta"]


def tail_rows(report: TailReport) -> list[list]:
    return [[report.bound, row.label, row.x, row.threshold, row.frequency,
             row.cap, row.mc_se, row.passed] for row in report.rows]


TAIL_HEADER = ["bound", "label", "x", "threshold", "frequency", "cap",
               "mc_se", "pass"]


def regularization_rows(report: RegularizationReport) -> list[list]:
    return [["regularization", report.sd_dmw, report.sd_np, report.ratio,
             report.reps, (not report.degenerate) and report.ratio < 1.0]]


REGULARIZATION_HEADER = ["bound", "sd_dmw", "sd_np", "ratio", "reps", "pass"]


def sweep_rows(report: SweepReport) -> list[list]:
    return [[float(k), float(d), float(o), report.reps, report.n, report.seed]
            for k, d, o in zip(report.k_grid, report.mean_d_ratio,
                               report.mean_oracle_ratio)]


SWEEP_HEADER = ["K", "mean_d_ratio", "mean_oracle_ratio", "N", "n", "seed"]


def selection_rows(row: ModelRow, complexity: str) -> list[list]:
    """The pick of a K * complexity / n penalty; ``d_exact`` and ``dmw``
    are filled only when they are the penalty's complexity."""
    return [[row.model_id, row.criterion, row.penalty, row.dim,
             row.d_exact if complexity == "d_exact" else "",
             row.dmw if complexity == "dmw" else "", ""]]


SELECTION_HEADER = ["model_id", "criterion", "penalty", "dim", "d_exact",
                    "dmw", "flag"]
