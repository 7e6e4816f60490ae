"""densel benchmark: end-to-end CLI workloads and a traced per-layer run.

Run from the root of a source checkout (the package is imported from
``src/``, never from an installed copy):

    python3 benchmarks/run.py --workload ex1-hist --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --all --seed 1 --seconds 35 --out benchmarks/BENCH_x.json
    python3 benchmarks/run.py --smoke
    python3 benchmarks/run.py --record-reference

``--workload`` runs one workload's command sequence (see workloads.py) as
fresh ``python3 -m densel.cli`` processes, over and over for ``--seconds``
seconds, and prints one JSON line: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run
(tracer.py) alternated with untraced runs.  Every invocation is checked
against ``reference.json``.  An operation is one command of the sequence:
``attempted`` is their number and ``failed`` the number of them that failed
in any pass, so both depend on the seed only and not on how many passes
fit into the run; ``failed / attempted`` is the error rate.

``--all`` runs every workload both ways and prints one table, error rate
included; ``--out`` writes it as a result file with the environment.
``--smoke`` runs every workload once at tiny sizes and checks that each
metric named in BENCHMARK.json is printed with its unit.
``--record-reference`` re-records reference.json from the current program.

End-to-end metrics (medians over the passes of one run, tracing off):
``wall_s`` is one pass's wall time, process start to exit, summed over its
invocations; ``cpu_s`` their user + system time from ``os.wait4``;
``setup_s`` the median over fresh interpreters of the ``import densel``
time, plus ``harness.make_lab`` on the simulate workloads; ``rep_ms`` is
``(wall_s - setup_s) / reps`` on the simulate workloads and
``wall_s / invocations`` on the others; ``peak_rss_mb`` the largest
``ru_maxrss`` of any invocation of the pass.  Medians, not minima: over
ten 35 s runs each of ex2-twoblock and cli-oneshot on a 2-vCPU virtual
machine, the run-to-run spread (IQR/median) of ``wall_s`` was 0.07-0.08
as the median pass and 0.12-0.15 as the sum of each invocation's fastest
run.  The error rate,
``failed / attempted``, is 0 on three workloads, so it is reported beside
the metrics rather than as one.

The CLI seed of every invocation is ``--seed`` modulo 8, the number of
seeds reference.json holds; the known-failing dmw slope path keeps its
``--seed 1`` (workloads.py).

BENCHMARK.json lists ex2-twoblock, cli-oneshot and conc-lab.  ex1-hist
runs under ``--all`` and ``--workload`` but is left out of it: on a 2-vCPU
virtual machine its Python-loop-bound passes followed the machine's speed
drift most closely, and its run-to-run spread over 10 seeds (IQR/median
0.20-0.27) came too close to the 0.25 regression bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "rep_ms": "ms",
              "peak_rss_mb": "MB"}

# Per-layer metric -> unit.  "<span>.self_s" is the span's self time,
# "<span>.calls" its call count, summed over the sequence's invocations.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "densities.sample.self_s": "s",
    "densities.sample.calls": "count",
    "harness.make_lab.self_s": "s",
    "harness.run_example.self_s": "s",
    "harness.evaluate.self_s": "s",
    "harness.evaluate.calls": "count",
    "harness.evaluate.models": "count",
    "harness.apply.slope-dim.self_s": "s",
    "harness.apply.resampling-slope.self_s": "s",
    "harness.apply.resampling.self_s": "s",
    "harness.flagged_ratio": "ratio",
    "fitting.fit_model.self_s": "s",
    "fitting.fit_model.calls": "count",
    "penalties.resampling_dmw.self_s": "s",
    "penalties.resampling_dmw.calls": "count",
    "penalties.resampling_penalty.self_s": "s",
    "models.build_collection.self_s": "s",
    "models.build_collection.models": "count",
    "models.exact_quantities.self_s": "s",
    "models.exact_quantities.calls": "count",
    "slope.lower_envelope.self_s": "s",
    "slope.lower_envelope.calls": "count",
    "slope.lower_envelope.lines_in": "count",
    "slope.lower_envelope.kept_ratio": "ratio",
    "slope.slope_path.self_s": "s",
    "slope.select.self_s": "s",
    "slope.detect_kmin.self_s": "s",
    "conclab.simulate_model_statistics.self_s": "s",
    "conclab.simulate_model_statistics.calls": "count",
    "conclab.gram_bytes_computed": "bytes",
    "conclab.check.p.self_s": "s",
    "conclab.check.resampling.self_s": "s",
    "conclab.check.ustat.self_s": "s",
    "conclab.check.regularization.self_s": "s",
    "report.write_csv.self_s": "s",
    "report.write_csv.bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh-interpreter set-up: import densel, then (simulate workloads) build
# the exact population tables with harness.make_lab.
SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import densel
t1 = time.perf_counter()
lab_s = 0.0
if len(sys.argv) > 1:
    from densel.densities import PowerLaw
    from densel.harness import make_lab
    t2 = time.perf_counter()
    make_lab(sys.argv[1], int(sys.argv[2]), PowerLaw())
    lab_s = time.perf_counter() - t2
print(json.dumps({"import_s": t1 - t0, "lab_s": lab_s, "file": densel.__file__}))
"""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment of every child: this checkout's src first on the path,
    and serial BLAS/OpenMP.  On a 2-vCPU virtual machine a second BLAS
    thread cost more wall time than it saved (conc-lab pass: 9.5 s against
    8.1 s serial)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                            "--", "src"], capture_output=True, text=True,
                           check=False)
    return head.stdout.strip() + ("+dirty-src" if dirty.stdout.strip() else "")


def environment(seed: int, env: dict[str, str]) -> dict:
    import numpy
    import scipy
    return {"nproc": _nproc(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {var: env[var] for var in THREAD_VARS},
            "git_commit": _git_commit(), "seed": seed,
            "cli_seed": seed % wl.REFERENCE_SEEDS}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_kb: int
    stdout: str
    stderr: str


def run_child(argv: list[str], env: dict[str, str], workdir: Path) -> Proc:
    """Run one child to completion; wall time, rusage and its output."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=workdir)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(returncode=proc.returncode, wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime, rss_kb=usage.ru_maxrss,
                stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                stderr=err_path.read_text(encoding="utf-8", errors="replace"))


def setup_sample(workload: str, size: str, env, workdir: Path) -> float:
    """Seconds a fresh interpreter takes to import densel and, for the
    simulate workloads, to build the lab."""
    lab = wl.lab_spec(workload, size)
    argv = [sys.executable, "-c", SETUP_CODE]
    if lab is not None:
        argv += [lab[0], str(lab[1])]
    proc = run_child(argv, env, workdir)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(rec["file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"densel imported from {rec['file']}, not from {SRC}")
    return rec["import_s"] + rec["lab_s"]


# ---------------------------------------------------------------------------
# One pass over a workload's command sequence
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_kb: int = 0
    fails: list[bool] = field(default_factory=list)   # per command
    problems: list[str] = field(default_factory=list)
    outputs: dict[str, bytes] = field(default_factory=dict)
    span_files: list[Path] = field(default_factory=list)


def run_pass(cmds: list[wl.Command], refs: list[dict] | None, env,
             workdir: Path, traced: bool, run_id: str) -> Pass:
    """Every invocation once, each a fresh process; checked against refs."""
    result = Pass()
    for i, cmd in enumerate(cmds):
        cmd_dir = workdir / f"{run_id}-{i}"
        cmd_dir.mkdir(parents=True)
        cli_args = cmd.resolve(str(cmd_dir))
        if traced:
            spans = cmd_dir / "spans.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans),
                    f"{run_id}-{i}", "--", *cli_args]
            result.span_files.append(spans)
        else:
            argv = [sys.executable, "-m", "densel.cli", *cli_args]
        proc = run_child(argv, env, cmd_dir)
        result.wall_s += proc.wall_s
        result.cpu_s += proc.cpu_s
        result.rss_kb = max(result.rss_kb, proc.rss_kb)
        got = wl.command_record(cmd, proc.returncode, proc.stdout,
                                proc.stderr, str(cmd_dir))
        if refs is None:
            failed, problems = proc.returncode != 0, ["no reference recorded"]
        else:
            failed, problems = wl.judge(refs[i], got)
        result.fails.append(bool(failed))
        result.problems += [f"{' '.join(cmd.argv)}: {p}" for p in problems]
        for name in cmd.outputs:
            path = cmd_dir / name
            if path.exists():
                result.outputs[f"{i}/{name}"] = path.read_bytes()
    return result


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for idx, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def layer_metrics(span_files: list[Path]) -> dict[str, float]:
    selfs: dict[str, float] = {}
    counts: dict[str, float] = {}
    n_spans = 0
    for path in span_files:
        if not path.exists():           # the child died before dumping
            continue
        rec = json.loads(path.read_text(encoding="utf-8"))
        n_spans += len(rec["spans"])
        for name, value in self_times(rec["spans"]).items():
            selfs[name] = selfs.get(name, 0.0) + value
        for name, value in rec["counts"].items():
            counts[name] = counts.get(name, 0) + value
    out = {}
    for metric in PER_LAYER:
        if metric == "cli.import_s":
            out[metric] = selfs.get("cli.import", 0.0)
        elif metric.endswith(".self_s"):
            out[metric] = selfs.get(metric[:-len(".self_s")], 0.0)
        else:
            out[metric] = float(counts.get(metric, 0))
    outcomes = counts.get("harness.outcomes", 0)
    out["harness.flagged_ratio"] = (counts.get("harness.flagged", 0) / outcomes
                                    if outcomes else 0.0)
    lines = counts.get("slope.lower_envelope.lines_in", 0)
    out["slope.lower_envelope.kept_ratio"] = (
        counts.get("slope.lower_envelope.hull", 0) / lines if lines else 0.0)
    out["trace.spans"] = float(n_spans)
    return out


# ---------------------------------------------------------------------------
# A workload run
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """Measure one workload; a result dict with metrics and the checks."""
    env = child_env()
    cli_seed = seed % wl.REFERENCE_SEEDS
    cmds = wl.commands(workload, size, cli_seed)
    refs = load_reference().get(size, {}).get(workload, {}).get(str(cli_seed))
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=_work_root()))
    try:
        return _measure(workload, size, cmds, refs, env, work, seconds,
                        trace, seed)
    finally:
        _remove_work(work)


def _work_root() -> Path:
    root = ROOT / ".bench_work"
    root.mkdir(exist_ok=True)
    return root


def _remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:                     # another run still uses it
        pass


def _measure(workload, size, cmds, refs, env, work, seconds, trace,
             seed) -> dict:
    passes: list[Pass] = []
    traced: list[Pass] = []
    setup: list[float] = []
    if not trace:
        setup_sample(workload, size, env, work)   # warms the caches
    # Start another pass while at least half of it should fall inside the
    # window, so that runs of long passes end close to ``seconds``.  A
    # set-up sample precedes each pass, so both see the same machine speed.
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last / 2 <= seconds:
        t0 = time.perf_counter()
        k = len(passes)
        if not trace:
            setup.append(setup_sample(workload, size, env, work))
        passes.append(run_pass(cmds, refs, env, work, False, f"u{k}"))
        if trace:
            traced.append(run_pass(cmds, refs, env, work, True, f"t{k}"))
        last = time.perf_counter() - t0
    problems = [p for ps in passes + traced for p in ps.problems]
    baseline = passes[0].outputs
    for ps in passes[1:] + traced:
        if ps.outputs != baseline:
            problems.append("output CSVs differ between passes of one seed")
            break
    attempted = len(cmds)
    failed = sum(any(fails) for fails in
                 zip(*(ps.fails for ps in passes + traced)))
    wall = statistics.median(ps.wall_s for ps in passes)
    if trace:
        per_pass = [layer_metrics(ps.span_files) for ps in traced]
        metrics = {m: statistics.median(p[m] for p in per_pass)
                   for m in PER_LAYER}
        metrics["trace.overhead_s"] = (
            statistics.median(ps.wall_s for ps in traced) - wall)
        units = PER_LAYER
    else:
        setup_s = statistics.median(setup)
        reps = wl.reps_of(workload, size)
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(ps.cpu_s for ps in passes),
            "setup_s": setup_s,
            # simulate: ms per replication after set-up; others: ms per
            # command, set-up included
            "rep_ms": (1000.0 * (wall - setup_s) / reps if reps
                       else 1000.0 * wall / len(cmds)),
            "peak_rss_mb": statistics.median(ps.rss_kb for ps in passes) / 1024.0,
        }
        units = END_TO_END
    return {
        "workload": workload, "seed": seed, "size": size,
        "passes": len(passes), "trace": trace,
        "correct": not problems, "problems": sorted(set(problems)),
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
        "environment": environment(seed, env),
    }


def result_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def print_result(result: dict) -> None:
    print("environment:", json.dumps(result["environment"]))
    print(f"workload={result['workload']} seed={result['seed']} "
          f"passes={result['passes']} error_rate={result['failed']}/"
          f"{result['attempted']}={result['error_rate']:.4g}")
    for problem in result["problems"]:
        print("problem:", problem)
    print(result_line(result), flush=True)


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: float, out: str | None) -> int:
    rows = {}
    for workload in wl.WORKLOADS:
        plain = run_workload(workload, seed, seconds, trace=False)
        traced = run_workload(workload, seed, seconds, trace=True)
        problems = plain["problems"] + traced["problems"]
        rows[workload] = {
            "correct": not problems, "problems": problems,
            "passes": plain["passes"], "attempted": plain["attempted"],
            "failed": plain["failed"], "error_rate": plain["error_rate"],
            "end_to_end": plain["metrics"], "per_layer": traced["metrics"]}
        print(f"\n{workload} (seed {seed}, {plain['passes']} passes, "
              f"correct={not problems})")
        for name, m in plain["metrics"].items():
            print(f"  {name:<12} {m['value']:12.5g} {m['unit']}")
        print(f"  {'error_rate':<12} {plain['error_rate']:12.5g} "
              f"({plain['failed']}/{plain['attempted']})")
        print(f"  {'trace overhead':<12} "
              f"{traced['metrics']['trace.overhead_s']['value']:10.5g} s")
        for problem in problems:
            print("  problem:", problem)
    if out:
        doc = {"environment": plain["environment"], "seconds": seconds,
               "workloads": rows}
        Path(out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"\nwrote {out}")
    return 0 if all(r["correct"] for r in rows.values()) else 1


def smoke() -> int:
    """Every workload once at tiny size, untraced and traced; every metric
    of BENCHMARK.json must be printed with its unit, and the error rate
    must be computed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    unknown = {w["name"] for w in spec["workloads"]} - set(wl.WORKLOADS)
    if unknown:
        print(f"smoke: BENCHMARK.json names unknown workloads {unknown}")
        return 1
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for workload in wl.WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, 1, 0, trace, size="smoke")
            printed = json.loads(result_line(result))
            got = {k: v["unit"] for k, v in printed["metrics"].items()}
            rate = printed["failed"] / printed["attempted"]
            good = (got == wanted[trace] and printed["correct"]
                    and 0.0 <= rate <= 1.0)
            ok &= good
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{'ok' if good else 'FAIL'} metrics={len(got)} "
                  f"error_rate={printed['failed']}/{printed['attempted']}")
            for problem in result["problems"]:
                print("  problem:", problem)
            if got != wanted[trace]:
                print("  expected", wanted[trace], "got", got)
    return 0 if ok else 1


def record_reference() -> int:
    env = child_env()
    recorded_with = environment(0, env)
    del recorded_with["seed"], recorded_with["cli_seed"]
    doc: dict = {"recorded_with": recorded_with}
    # the smoke test runs at seed 1 only
    seeds = {"full": range(wl.REFERENCE_SEEDS), "smoke": [1]}
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=_work_root()))
    try:
        for size in ("full", "smoke"):
            for workload in wl.WORKLOADS:
                for seed in seeds[size]:
                    recs = []
                    for i, cmd in enumerate(wl.commands(workload, size, seed)):
                        cmd_dir = work / f"{size}-{workload}-{seed}-{i}"
                        cmd_dir.mkdir()
                        proc = run_child([sys.executable, "-m", "densel.cli",
                                          *cmd.resolve(str(cmd_dir))],
                                         env, cmd_dir)
                        recs.append(wl.command_record(
                            cmd, proc.returncode, proc.stdout, proc.stderr,
                            str(cmd_dir)))
                    doc.setdefault(size, {}).setdefault(workload, {})[str(seed)] = recs
                    print(size, workload, seed,
                          [r["exit"] for r in recs], flush=True)
    finally:
        _remove_work(work)
    REFERENCE.write_text(json.dumps(doc, separators=(",", ":")) + "\n",
                         encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=list(wl.WORKLOADS))
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--record-reference", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None,
                        help="result file (--all)")
    args = parser.parse_args(argv)
    # A terminated benchmark still stops and reaps its running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    if args.out and not args.all:
        parser.error("--out goes with --all")
    if not (SRC / "densel" / "cli.py").is_file():
        print(f"error: no densel sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.record_reference:
        return record_reference()
    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    print_result(run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
