"""Traced run of one ``densel`` CLI invocation.

Usage: python3 tracer.py SPANS_JSON RUN_ID -- CLI_ARGS...

Imports densel (timed as the ``cli.import`` span), wraps the functions
through which the package modules call each other, runs
``densel.cli.main(CLI_ARGS)`` inside a ``cli.main`` span and exits with its
return code.  Spans are kept in memory and written to SPANS_JSON at the
end, together with the counts collected at the same boundaries.  The
program itself is not modified: wrappers are installed on the names the
callers look up at call time (``densel.harness.fit_model``,
``densel.cli.build_collection``, class methods, ...).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder: [name, start, end, parent index]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _clock(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self.stack.pop()

    def wrap(self, fn, name, after=None):
        """``fn`` inside a span; ``name`` is a string or a function of the
        call's arguments; ``after(counts, args, kwargs, result)`` records
        counts once the call returned."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            idx = self.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.counts[label + ".calls"] += 1
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def _count(key, value_of):
    def after(counts, args, kwargs, result):
        counts[key] += value_of(args, kwargs, result)
    return after


def _evaluated_models(args, kwargs, result) -> int:
    lab = args[0]
    if lab.kind == "two-block":     # sum over cuts k of k * (n - k) models
        return (lab.n ** 3 - lab.n) // 6
    return len(lab.ids)


def _envelope_counts(counts, args, kwargs, result):
    counts["slope.lower_envelope.lines_in"] += len(args[0])
    counts["slope.lower_envelope.hull"] += len(result[0])


def _outcome_counts(counts, args, kwargs, result):
    counts["harness.outcomes"] += 1
    counts["harness.flagged"] += bool(result.flag)


def _gram_bytes(fn):
    sig = inspect.signature(fn)

    def after(counts, args, kwargs, result):
        call = sig.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        if a["compute_u"]:          # one (chunk, n, n) float64 Gram per chunk
            counts["conclab.gram_bytes_computed"] += a["reps"] * a["n"] ** 2 * 8
    return after


def install(tr: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    from densel import (cli, conclab, densities, fitting, harness, models,
                        penalties, report, slope)

    wrapped: dict[int, object] = {}

    def hook(name, targets, after=None):
        for owner, attr in targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = tr.wrap(fn, name, after)
            setattr(owner, attr, wrapped[id(fn)])

    hook("densities.sample", [(densities.Density, "sample")])
    hook("harness.make_lab", [(harness, "make_lab")])
    hook("harness.run_example", [(cli, "run_example"), (harness, "run_example")])
    hook("harness.evaluate", [(harness.CollectionLab, "evaluate"),
                              (harness.TwoBlockLab, "evaluate")],
         _count("harness.evaluate.models", _evaluated_models))
    hook(lambda ev, method: f"harness.apply.{method.kind}",
         [(harness._Evaluation, "apply"), (harness._TwoBlockEvaluation, "apply")],
         _outcome_counts)
    hook("fitting.fit_model", [(harness, "fit_model"), (cli, "fit_model"),
                               (fitting, "fit_model")])
    hook("penalties.resampling_dmw", [(harness, "resampling_dmw"),
                                      (penalties, "resampling_dmw")])
    hook("penalties.resampling_penalty", [(cli, "resampling_penalty"),
                                          (penalties, "resampling_penalty")])
    hook("models.build_collection",
         [(cli, "build_collection"), (harness, "build_collection"),
          (models, "build_collection")],
         _count("models.build_collection.models", lambda a, k, r: len(r)))
    hook("models.exact_quantities", [(harness, "exact_quantities"),
                                     (models, "exact_quantities"),
                                     (conclab, "exact_quantities")])
    hook("slope.lower_envelope", [(harness, "lower_envelope"),
                                  (slope, "lower_envelope")], _envelope_counts)
    hook("slope.slope_path", [(cli, "slope_path"), (slope, "slope_path")])
    hook("slope.select", [(cli, "select"), (slope, "select")])
    hook("slope.detect_kmin", [(harness, "detect_kmin"), (slope, "detect_kmin")])
    hook("conclab.simulate_model_statistics",
         [(conclab, "simulate_model_statistics")],
         _gram_bytes(conclab.simulate_model_statistics))
    for bound, attr in (("p", "check_p_concentration"),
                        ("resampling", "check_resampling_concentration"),
                        ("ustat", "check_ustat_concentration"),
                        ("regularization", "regularization_comparison")):
        hook(f"conclab.check.{bound}", [(cli, attr), (conclab, attr)])
    hook("report.write_csv", [(report, "write_csv")],
         _count("report.write_csv.bytes",
                lambda a, k, r: os.path.getsize(a[0])))


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON RUN_ID -- CLI_ARGS...")
    tr = Tracer(run_id)
    idx = tr.begin("cli.import")
    import densel.cli
    tr.end(idx)
    install(tr)
    idx = tr.begin("cli.main")
    try:
        code = densel.cli.main(cli_args)
    finally:
        tr.end(idx)
        tr.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
