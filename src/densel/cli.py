"""Command-line front end.

Subcommands: ``select`` (one penalized selection on a fresh sample),
``slope-path`` (the exact K -> model path as CSV), ``simulate`` (the
oracle-ratio study on example 1 or 2), ``conc-check`` (Monte-Carlo tail
checks), and ``sweep`` (selection along a penalty-constant grid).  All
randomness derives from ``--seed``; re-running any invocation produces
byte-identical output files, whatever ``--threads`` says.

``simulate``, ``sweep`` and ``conc-check`` split their replications over
``--threads`` worker processes (``fork.fork_map``), by default as many as
the CPUs this process may run on; the library functions default to one.
Each replication draws from its own place in the streams, so the split
changes no bit.

Flags can be preloaded from a flat ``key = value`` config file via
``--config``; explicit flags win.  Unknown config keys are rejected, and
so are ``command`` and ``config``, which a config file cannot set.

This module imports no densel module itself: ``main`` loads the modules
of the command it runs, so ``conc-check`` never loads ``harness`` or the
slope paths, and no other command the concentration lab.  ``argparse``
too loads only once those modules have, in ``build_parser``.
"""

from __future__ import annotations

import importlib
import math
import sys
import warnings
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import argparse


class UsageError(Exception):
    """Invalid flag combination or config content (exit code 2)."""


def _parse_floats(text: str, flag: str) -> list[float]:
    """The numbers of a comma list; an error names the flag."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag} {text!r}: need a comma list of "
                         "numbers") from None


MAX_GRID_POINTS = 10_000


def _parse_grid(text: str) -> list[float]:
    """'lo:hi:step' (finite, step > 0, bounded count) or a comma list of
    penalty constants, each 0 <= K < inf."""
    from .harness import penalty_constant
    if ":" in text:
        try:
            lo, hi, step = (float(t) for t in text.split(":"))
            valid = all(map(math.isfinite, (lo, hi, step))) and step > 0.0
        except ValueError:              # not three numbers
            valid = False
        if not valid:
            raise UsageError(f"--k-grid {text!r}: need finite lo:hi:step "
                             "with step > 0")
        span = (hi - lo) / step             # inf when hi - lo overflows
        if not span + 0.5 < MAX_GRID_POINTS:
            raise UsageError(f"--k-grid {text!r}: {span + 1:.3g} points, "
                             f"more than {MAX_GRID_POINTS}")
        grid = [lo + i * step for i in range(int(round(span)) + 1)]
    else:
        grid = _parse_floats(text, "--k-grid")
    try:
        return [penalty_constant(k) for k in grid]
    except ValueError as exc:
        raise UsageError(f"--k-grid {text!r}: {exc}") from None


def _density_from_args(args) -> object:
    """The ``--density``; only a piecewise one can fail, and its errors
    name the flags that define it."""
    from .densities import density_from_config
    breaks = _parse_floats(args.breaks, "--breaks") if args.breaks else None
    heights = _parse_floats(args.heights, "--heights") if args.heights else None
    try:
        return density_from_config(args.density, breaks=breaks,
                                   heights=heights)
    except ValueError as exc:
        given = " ".join(f"{flag} {value!r}" for flag, value in (
            ("--breaks", args.breaks), ("--heights", args.heights))
            if value is not None)
        raise UsageError(f"{given or '--density piecewise'}: {exc}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=100,
                        help="sample size / collection index (default 100)")
    parser.add_argument("--seed", type=int, default=0,
                        help="experiment seed (default 0)")
    parser.add_argument("--density", default="powerlaw",
                        choices=["powerlaw", "uniform", "piecewise"],
                        help="true density (default powerlaw)")
    parser.add_argument("--breaks", default=None,
                        help="piecewise density breakpoints, comma list")
    parser.add_argument("--heights", default=None,
                        help="piecewise density heights, comma list")
    parser.add_argument("--config", default=None,
                        help="flat key=value config file; flags override it")
    parser.add_argument("--out", default=None, help="output CSV path")


def _add_threads(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes (default: the CPUs this "
                             "process may run on); outputs do not depend "
                             "on it")


def build_parser() -> argparse.ArgumentParser:
    import argparse
    # abbreviated flags are off everywhere: an abbreviation would not be
    # recognized as explicit and would lose to a --config value
    parser = argparse.ArgumentParser(
        prog="densel", allow_abbrev=False,
        description="Penalized least-squares density estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="one penalized selection on a sample",
                       allow_abbrev=False)
    _add_common(p)
    p.add_argument("--collection", default="regular-hist",
                   choices=["regular-hist", "two-block", "fourier"])
    p.add_argument("--penalty", default="resampling",
                   help="resampling | dimension:K | ideal:K (default resampling)")

    p = sub.add_parser("slope-path", help="exact K -> model path as CSV",
                       allow_abbrev=False)
    _add_common(p)
    p.add_argument("--collection", default="regular-hist",
                   choices=["regular-hist", "two-block", "fourier"])
    p.add_argument("--complexity", default="dim", choices=["dim", "dmw"],
                   help="per-model complexity for the path (default dim)")
    p.add_argument("--jump-rule", default="max", choices=["max", "log"],
                   help="calibration rule reported on stdout (default max)")

    p = sub.add_parser("simulate", help="oracle-ratio study (examples 1/2)",
                       allow_abbrev=False)
    _add_common(p)
    p.add_argument("--example", type=int, default=1, choices=[1, 2])
    p.add_argument("--reps", type=int, default=None,
                   help="replications (default 1000 for ex. 1, 200 for ex. 2)")
    p.add_argument("--methods", default=None,
                   help="comma list: slope-dim,resampling,resampling-slope,ideal:K")
    _add_threads(p)
    p.add_argument("--raw-out", default=None,
                   help="also write per-replication ratios to this CSV")

    p = sub.add_parser("conc-check", help="Monte-Carlo concentration checks",
                       allow_abbrev=False)
    _add_common(p)
    p.add_argument("--bound", default="p",
                   choices=["p", "resampling", "ustat", "regularization"])
    p.add_argument("--dim", type=int, default=10,
                   help="dimension of the checked model: its cells for "
                        "hist, 2j+1 for fourier (default 10)")
    p.add_argument("--basis", default="hist", choices=["hist", "fourier"],
                   help="basis of the checked model (default hist)")
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--x", default="1,5,20,40,80",
                   help="comma list of deviation levels")
    _add_threads(p)

    p = sub.add_parser("sweep", help="selection along a penalty-constant grid",
                       allow_abbrev=False)
    _add_common(p)
    p.add_argument("--collection", default="regular-hist",
                   choices=["regular-hist", "two-block", "fourier"])
    p.add_argument("--k-grid", default="0.2:1.8:0.2",
                   help="'lo:hi:step' or comma list (default 0.2:1.8:0.2)")
    p.add_argument("--reps", type=int, default=200)
    _add_threads(p)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; then reparse with config-file values as defaults."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    entries: dict[str, str] = {}
    with open(args.config, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{args.config}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            entries[key.replace("-", "_")] = value
    valid = set(vars(args)) - {"command", "config"}
    unknown = sorted(set(entries) - valid)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    # flags override config: reparse with config values as defaults
    config_argv = []
    explicit = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--")}
    for key, value in entries.items():
        flag = "--" + key.replace("_", "-")
        if flag in explicit:
            continue
        config_argv.extend([flag, value])
    return parser.parse_args(argv + config_argv)


def _check_counts(args: argparse.Namespace) -> None:
    """Reject replication and thread counts below 1 before any work; an
    unset ``--threads`` becomes the CPUs this process may run on."""
    for name in ("reps", "threads"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise UsageError(f"--{name} must be >= 1, got {value}")
    if hasattr(args, "threads") and args.threads is None:
        from .fork import usable_cpus
        args.threads = usable_cpus()


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _penalty_spec(text: str) -> tuple[float, str]:
    """(K, complexity) of a ``--penalty`` spec: K * complexity / n."""
    from .harness import penalty_constant
    spec = text.strip().lower()
    if spec == "resampling":
        return 2.0, "dmw"
    for prefix, complexity in (("dimension:", "dim"), ("ideal:", "d_exact")):
        if spec.startswith(prefix):
            return penalty_constant(spec[len(prefix):]), complexity
    raise UsageError(f"unknown penalty spec {text!r}")


def _evaluate(args):
    """The lab evaluation of the command's sample."""
    from . import harness
    from .rng import RngStream
    density = _density_from_args(args)
    lab = harness.make_lab(args.collection, args.n, density)
    return lab.evaluate(density.sample(args.n, RngStream(args.seed, 0, "data")))


def _cmd_select(args) -> int:
    from . import report
    k_const, complexity = _penalty_spec(args.penalty)
    row = _evaluate(args).argmin(k_const, complexity)
    if args.out:
        report.write_csv(args.out, report.SELECTION_HEADER,
                         report.selection_rows(row, complexity))
    print(f"selected {row.model_id} criterion={row.criterion:.6g} "
          f"penalty={row.penalty:.6g}")
    return 0


def _cmd_slope_path(args) -> int:
    from . import report
    from .slope import slope_pick
    path = _evaluate(args).path(args.complexity)
    if args.out:
        report.write_csv(args.out, report.PATH_HEADER, report.path_rows(path))
    pos, k_min, flag = slope_pick(path, args.jump_rule, args.n)
    if flag:
        print(f"segments={len(path.segments)} K_min=undefined (no jump)")
        return 0
    print(f"segments={len(path.segments)} K_min={k_min:.6g} "
          f"selected={path.segments[pos].model_id}")
    return 0


def _cmd_simulate(args) -> int:
    from . import harness, report
    density = _density_from_args(args)
    reps = args.reps if args.reps is not None else (1000 if args.example == 1 else 200)
    if args.methods:
        methods = tuple(harness.parse_method(tok)
                        for tok in args.methods.split(","))
    else:
        methods = harness.DEFAULT_METHODS
    rep_out = harness.run_example(args.example, args.n, reps, methods=methods,
                                  seed=args.seed, density=density,
                                  threads=args.threads)
    if args.out:
        report.write_csv(args.out, report.SUMMARY_HEADER,
                         report.summary_rows(rep_out))
    if args.raw_out:
        report.write_csv(args.raw_out, report.RAW_HEADER,
                         report.raw_rows(rep_out))
    for method in rep_out.methods:
        mean, median, q95 = rep_out.stats(method)
        print(f"{method}: mean={mean:.4g} median={median:.4g} q95={q95:.4g} "
              f"flagged={rep_out.flagged(method)}")
    return 0


def _cmd_conc_check(args) -> int:
    from . import conclab, report
    from .models import fourier_model, regular_histogram
    from .rng import RngStream
    if args.reps < 2:
        raise UsageError(f"--reps {args.reps}: the spread over replications "
                         "needs at least 2")
    xs = _parse_floats(args.x, "--x")
    if not (xs and all(0.0 < x < math.inf for x in xs)):
        raise UsageError(f"--x {args.x!r}: need deviation levels that are "
                         "finite and > 0")
    if args.basis == "hist" and args.dim < 1:
        raise UsageError(f"--dim {args.dim}: need at least 1 histogram cell")
    if args.basis == "fourier" and not (args.dim >= 3 and args.dim % 2 == 1):
        raise UsageError(f"--dim {args.dim}: a Fourier model has dimension "
                         "2j+1 with j >= 1")
    density = _density_from_args(args)
    if args.basis == "hist":
        model = regular_histogram(args.dim)
    else:
        model = fourier_model((args.dim - 1) // 2)
    rng = RngStream(args.seed, 0, f"conc-{args.bound}")
    if args.bound == "regularization":
        rep_out = conclab.regularization_comparison(model, density, args.n,
                                                    reps=args.reps, rng=rng,
                                                    threads=args.threads)
        rows = report.regularization_rows(rep_out)
        if args.out:
            report.write_csv(args.out, report.REGULARIZATION_HEADER, rows)
        print(f"sd(dmw)={rep_out.sd_dmw:.6g} sd(n*p)={rep_out.sd_np:.6g} "
              f"ratio={rep_out.ratio:.6g}")
        return 0
    check = {"p": conclab.check_p_concentration,
             "resampling": conclab.check_resampling_concentration,
             "ustat": conclab.check_ustat_concentration}[args.bound]
    rep_out = check(model, density, args.n, xs=xs, reps=args.reps, rng=rng,
                    threads=args.threads)
    if args.out:
        report.write_csv(args.out, report.TAIL_HEADER, report.tail_rows(rep_out))
    for row in rep_out.rows:
        status = "pass" if row.passed else "FAIL"
        print(f"{row.label} x={row.x:g}: freq={row.frequency:.5f} "
              f"cap={row.cap:.5f} {status}")
    return 0 if rep_out.all_passed else 1


def _cmd_sweep(args) -> int:
    from . import harness, report
    density = _density_from_args(args)
    k_grid = _parse_grid(args.k_grid)
    rep_out = harness.penalty_sweep(args.collection, args.n, k_grid,
                                    args.reps, seed=args.seed,
                                    density=density, threads=args.threads)
    if args.out:
        report.write_csv(args.out, report.SWEEP_HEADER,
                         report.sweep_rows(rep_out))
    for k, d, o in zip(rep_out.k_grid, rep_out.mean_d_ratio,
                       rep_out.mean_oracle_ratio):
        print(f"K={k:.3g}: mean D ratio={d:.4f} mean oracle ratio={o:.4g}")
    return 0


def _warning_line(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # The command's own module loads first, before report, argparse and
    # the parser, so that compiling it and the modules it imports (labs.py
    # is the largest compile transient left) happens on the smallest heap.
    # The parser has no option before the command's name.
    command = next((tok for tok in argv if not tok.startswith("-")), None)
    first = "conclab" if command == "conc-check" else "harness"
    for name in (first, "report"):
        importlib.import_module(f".{name}", __package__)
    parser = build_parser()
    try:
        args = _apply_config(parser, argv)
        _check_counts(args)
        handler = {"select": _cmd_select,
                   "slope-path": _cmd_slope_path,
                   "simulate": _cmd_simulate,
                   "conc-check": _cmd_conc_check,
                   "sweep": _cmd_sweep}[args.command]
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line    # one stderr line each
            return handler(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
