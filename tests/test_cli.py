"""Command-line interface: schemas, determinism, config handling."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from densel import conclab, harness
from densel.cli import build_parser, main
from densel.densities import PowerLaw
from densel.fitting import fit_model
from densel.models import exact_quantities
from densel.penalties import resampling_dmw
from densel.rng import RngStream
from oracles import (build_collection, dimension_penalty,
                     ideal_deterministic_penalty, resampling_penalty, select,
                     slope_path)


def _read(path):
    return path.read_bytes()


def _lines(path):
    return path.read_text().strip().split("\n")


def test_help_lists_flags_for_every_subcommand(capsys):
    for sub in ("select", "slope-path", "simulate", "conc-check", "sweep"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--n", "--seed", "--density", "--out"):
            assert flag in text
        assert "default" in text


def test_unknown_flag_exits_2(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 3\n")
    for argv in (["simulate", "--bogus", "1"],
                 # abbreviations are unknown flags: --se would not count as
                 # explicit and would lose to the config's seed
                 ["select", "--config", str(cfg), "--se", "9", "--n", "20"],
                 ["sweep", "--rep", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_simulate_summary_schema_and_determinism(tmp_path):
    out = tmp_path / "ex1.csv"
    args = ["simulate", "--example", "1", "--n", "30", "--reps", "8",
            "--seed", "42", "--out", str(out)]
    assert main(args) == 0
    first = _read(out)
    header = _lines(out)[0]
    assert header == "method,mean,median,q95,N,n,seed"
    assert len(_lines(out)) == 4
    assert main(args) == 0
    assert _read(out) == first


def test_simulate_threads_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    raw1, raw2 = tmp_path / "ra.csv", tmp_path / "rb.csv"
    base = ["simulate", "--example", "1", "--n", "30", "--reps", "10",
            "--seed", "3"]
    assert main(base + ["--out", str(out1), "--raw-out", str(raw1),
                        "--threads", "1"]) == 0
    assert main(base + ["--out", str(out2), "--raw-out", str(raw2),
                        "--threads", "3"]) == 0
    assert _read(out1) == _read(out2)
    assert _read(raw1) == _read(raw2)
    assert _lines(raw1)[0] == "rep,method,ratio,selected_model,flag"
    assert len(_lines(raw1)) == 1 + 10 * 3


def test_slope_path_csv_invariants(tmp_path):
    out = tmp_path / "path.csv"
    assert main(["slope-path", "--collection", "regular-hist", "--n", "100",
                 "--seed", "7", "--complexity", "dim", "--out", str(out)]) == 0
    rows = [line.split(",") for line in _lines(out)[1:]]
    assert _lines(out)[0] == "K_lo,K_hi,model_id,delta"
    deltas = [float(r[3]) for r in rows]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    k_lo = [float(r[0]) for r in rows]
    assert k_lo[0] == 0.0 and all(a < b for a, b in zip(k_lo, k_lo[1:]))
    assert float(rows[-1][1]) == np.inf
    for left, right in zip(rows[:-1], rows[1:]):
        assert left[1] == right[0]


def test_slope_path_dmw_complexity(tmp_path):
    out = tmp_path / "path.csv"
    assert main(["slope-path", "--collection", "fourier", "--n", "12",
                 "--seed", "2", "--complexity", "dmw", "--jump-rule", "log",
                 "--out", str(out)]) == 0
    assert len(_lines(out)) >= 2


@pytest.mark.parametrize("extra, line", [
    ([], "segments=6 K_min=0.045 selected=reg-hist:d=1"),
    (["--density", "uniform", "--n", "100", "--seed", "57"],
     "segments=5 K_min=0.011 selected=reg-hist:d=1"),
], ids=["powerlaw-n20", "uniform-n100"])
def test_log_rule_picks_right_of_exact_breakpoint(capsys, extra, line):
    """2 K_min falls exactly on a breakpoint of these exact paths (9/100 at
    n = 20), which belongs to its right segment."""
    assert main(["slope-path", "--collection", "regular-hist", "--n", "20",
                 "--seed", "35", "--jump-rule", "log", *extra]) == 0
    assert capsys.readouterr().out.strip() == line


@pytest.mark.parametrize("extra, line", [
    (["--n", "7", "--seed", "0"],
     "segments=3 K_min=0.047619 selected=two-block:k=3,j1=1,j2=3"),
    (["--n", "13", "--seed", "12"],
     "segments=5 K_min=0.042735 selected=two-block:k=9,j1=1,j2=1"),
    (["--n", "13", "--seed", "12", "--complexity", "dmw"],
     "segments=6 K_min=0.0536673 selected=two-block:k=9,j1=1,j2=1"),
], ids=["n7-dim", "n13-dim", "n13-dmw"])
def test_two_block_path_without_slivers(capsys, extra, line):
    """Exact two-block paths where float noise on exact ties opened sliver
    segments that moved the pick: K_min is 1/21, 5/117 and 30/559."""
    assert main(["slope-path", "--collection", "two-block", *extra]) == 0
    assert capsys.readouterr().out.strip() == line


def test_conc_check_csv(tmp_path):
    out = tmp_path / "tail.csv"
    code = main(["conc-check", "--bound", "ustat", "--n", "40", "--dim", "5",
                 "--reps", "400", "--seed", "1", "--x", "3,5",
                 "--out", str(out)])
    assert code == 0
    assert _lines(out)[0] == ("bound,label,x,threshold,frequency,cap,mc_se,"
                              "pass")
    labels = [line.split(",")[1] for line in _lines(out)[1:]]
    assert labels == ["identity-u-eq-p-minus-dmw", "u-upper", "u-lower",
                      "u-upper", "u-lower"]
    assert all(line.endswith("true") for line in _lines(out)[1:])


def test_conc_check_regularization_csv(tmp_path):
    out = tmp_path / "reg.csv"
    assert main(["conc-check", "--bound", "regularization", "--n", "60",
                 "--dim", "8", "--reps", "500", "--seed", "2",
                 "--out", str(out)]) == 0
    header, row = _lines(out)
    assert header == "bound,sd_dmw,sd_np,ratio,reps,pass"
    assert row.split(",")[0] == "regularization"
    assert row.endswith("true")


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--collection", "regular-hist", "--n", "40",
            "--k-grid", "0.5,1.0,2.0", "--reps", "20", "--seed", "5",
            "--out", str(out)]
    assert main(args) == 0
    first = _read(out)
    assert _lines(out)[0] == "K,mean_d_ratio,mean_oracle_ratio,N,n,seed"
    assert len(_lines(out)) == 4
    assert main(args) == 0
    assert _read(out) == first


def test_select_penalties(tmp_path):
    for pen in ("resampling", "dimension:1.5", "ideal:2"):
        out = tmp_path / f"sel-{pen.split(':')[0]}.csv"
        assert main(["select", "--collection", "regular-hist", "--n", "25",
                     "--seed", "4", "--penalty", pen, "--out", str(out)]) == 0
        header, row = _lines(out)
        assert header == "model_id,criterion,penalty,dim,d_exact,dmw,flag"
        assert row.startswith("reg-hist:d=")
        fields = row.split(",")
        if pen == "resampling":
            assert fields[5] != ""      # dmw reported
        if pen == "ideal:2":
            assert fields[4] != ""      # exact variance number reported


def test_select_bad_penalty_exits_2():
    assert main(["select", "--n", "10", "--penalty", "bic"]) == 2
    assert main(["select", "--n", "10", "--penalty", "dimension:-1"]) == 2
    assert main(["select", "--n", "10", "--penalty", "ideal:nan"]) == 2
    # simulate's ideal:K methods obey the same rule as select's penalties
    for method in ("ideal:-1", "ideal:nan", "ideal:inf"):
        assert main(["simulate", "--n", "10", "--reps", "2",
                     "--methods", f"slope-dim,{method}"]) == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--k-grid", "0:1:0"],
    ["sweep", "--k-grid", "1:0:-0.5"],
    ["sweep", "--k-grid", "0:inf:1"],
    ["simulate", "--reps", "0"],
    ["sweep", "--reps", "-1"],
    ["conc-check", "--reps", "0"],
    ["simulate", "--reps", "2", "--threads", "-3"],
    ["sweep", "--threads", "0"],
    ["conc-check", "--threads", "0"],
    ["conc-check", "--threads", "-2"],
    ["conc-check", "--n", "1", "--bound", "p"],
    ["conc-check", "--n", "1", "--bound", "regularization"],
    ["conc-check", "--x", "-1"],
    ["conc-check", "--x", "5,nan"],
    ["conc-check", "--x", ","],
    ["sweep", "--k-grid", "0:1e9:1e-9"],
    ["sweep", "--k-grid=-1e308:1e308:1"],
    # every grid point is a penalty constant, 0 <= K < inf
    ["sweep", "--k-grid=-1,2"],
    ["sweep", "--k-grid=-1:1:0.5"],
    ["sweep", "--k-grid", "0.5,nan,1"],
    ["sweep", "--k-grid", "1,inf"],
    # --dim names the checked model: 2j+1 for Fourier, >= 1 cells for hist
    ["conc-check", "--basis", "fourier", "--dim", "10"],
    ["conc-check", "--basis", "fourier", "--dim", "2"],
    ["conc-check", "--basis", "fourier", "--dim", "1"],
    ["conc-check", "--dim", "0"],
    # the spread over replications needs two; a sweep needs n >= 2
    ["conc-check", "--reps", "1", "--bound", "resampling"],
    ["conc-check", "--reps", "1", "--bound", "regularization"],
    ["sweep", "--n", "1"],
    # NaN passes every comparison of the density checks
    ["select", "--density", "piecewise", "--breaks", "0,1", "--heights", "nan"],
    ["select", "--density", "piecewise", "--breaks", "0,nan,1",
     "--heights", "1,1"],
    # a list that does not parse names its flag
    ["sweep", "--k-grid", "1:2"],
    ["sweep", "--k-grid", "a:b:c"],
    ["sweep", "--k-grid", "1,x"],
    ["conc-check", "--x", "abc"],
    ["select", "--density", "piecewise", "--breaks", "0,x,1",
     "--heights", "1,1"],
    ["select", "--density", "piecewise", "--breaks", "0,1", "--heights", "y"],
    ["select", "--density", "piecewise"],
    ["select", "--density", "piecewise", "--breaks", "0,0.5,1"],
])
def test_bad_counts_and_grids_exit_2_before_work(argv, capsys):
    assert main(argv if "--n" in argv else argv + ["--n", "10"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "None" not in err[0]
    # the error names each flag given; --breaks and --heights define one
    # density, whose errors name at least one of them
    for group in (("--k-grid",), ("--dim",), ("--x",),
                  ("--breaks", "--heights")):
        if any(tok.startswith(flag) for flag in group for tok in argv):
            assert any(flag in err[0] for flag in group)


def test_import_skips_quadrature_module():
    """Neither the import nor the Fourier commands, whose population
    coefficients come from densel's own Gauss-Legendre rule, load scipy,
    numpy.ma or numpy.polynomial."""
    code = textwrap.dedent("""
        import sys, numpy
        def loaded():
            return [m for m in sys.modules
                    if m.split(".")[0] == "scipy"
                    or m.startswith(("numpy.ma.", "numpy.polynomial."))
                    or m in ("numpy.ma", "numpy.polynomial")]
        if loaded():
            print("eager")                  # numpy < 2 imports them with numpy
            raise SystemExit
        import densel.cli
        runs = ["select --collection fourier --penalty ideal:2 --n 20",
                "slope-path --collection fourier --n 20",
                "conc-check --basis fourier --n 30 --dim 7 --reps 200 "
                "--x 1,5"]
        codes = [densel.cli.main(run.split()) for run in runs]
        print(codes, loaded())""")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout.strip().splitlines()
    if out[-1] == "eager":
        pytest.skip("this numpy imports numpy.ma or numpy.polynomial with "
                    "numpy itself")
    assert out[-1] == "[0, 0, 0] []"


def test_sampling_commands_skip_numpy_random():
    """Every draw is array Philox: no command, conc-check included, loads
    numpy.random (nor the secrets module it pulls in), and no command but
    conc-check loads the concentration lab."""
    code = textwrap.dedent("""
        import sys, numpy
        if "numpy.random" in sys.modules:
            print("eager")                  # numpy < 2 imports it with numpy
            raise SystemExit
        import densel.cli
        runs = ["select --collection regular-hist --n 20",
                "select --collection two-block --n 12",
                "select --collection fourier --penalty ideal:2 --n 20",
                "slope-path --collection two-block --n 12",
                "simulate --example 1 --n 20 --reps 3",
                "simulate --example 2 --n 12 --reps 3",
                "sweep --n 20 --reps 2"]
        codes = [densel.cli.main(run.split()) for run in runs]
        modules = ("numpy.random", "secrets", "densel.conclab")
        loaded = [m for m in modules if m in sys.modules]
        checks = ["conc-check --n 20 --reps 50 --x 1",
                  "conc-check --bound ustat --n 20 --dim 3 --reps 50 --x 1",
                  "conc-check --bound resampling --basis fourier --n 20 "
                  "--dim 5 --reps 50 --x 1"]
        conc = [densel.cli.main(run.split()) for run in checks]
        print(codes, loaded, conc, [m for m in modules if m in sys.modules])""")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout.strip().splitlines()
    if out[-1] == "eager":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert out[-1] == ("[0, 0, 0, 0, 0, 0, 0] [] [0, 0, 0] "
                       "['densel.conclab']")


def _modules_loaded(argv):
    """The modules a fresh ``python -v -m densel.cli ARGV`` imports, from
    the verbose log of every module it loads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-v", "-m", "densel.cli"] + argv.split(),
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.split("'")[1] for line in proc.stderr.splitlines()
            if line.startswith("import '")}


@pytest.mark.parametrize("argv", [
    "conc-check --n 20 --reps 50 --x 1",
    "conc-check --bound ustat --n 20 --dim 3 --reps 50 --x 1",
    "conc-check --bound resampling --basis fourier --n 20 --dim 5 "
    "--reps 50 --x 1",
])
def test_conc_check_loads_no_harness_nor_exact_paths(argv):
    """A fresh conc-check process never loads the labs or the slope paths,
    nor the exact arithmetic only those need, nor ``dataclasses`` and the
    ``copy`` it imports.  In-process ``main`` calls inherit the test's
    imports, so only a new process can show this."""
    loaded = _modules_loaded(argv)
    assert "densel.conclab" in loaded
    assert not loaded & {"densel.harness", "densel.labs", "densel.twoblock",
                         "densel.slope", "fractions", "decimal",
                         "dataclasses", "copy"}


@pytest.mark.parametrize("argv", [
    "select --collection two-block --n 12",
    "slope-path --collection fourier --n 20",
    "simulate --example 2 --n 12 --reps 3",
    "sweep --n 20 --reps 2",
])
def test_other_commands_load_no_concentration_lab(argv):
    """The other commands load the labs but not the concentration lab,
    nor ``dataclasses`` and ``copy``: their records are plain classes and
    named tuples."""
    loaded = _modules_loaded(argv)
    assert {"densel.harness", "densel.labs", "densel.twoblock"} <= loaded
    assert not loaded & {"densel.conclab", "dataclasses", "copy"}


def test_out_of_memory_exits_2(monkeypatch, capsys):
    """An array too large to allocate ends in one error line, exit 2."""
    def huge_lab(*args):
        return np.empty(2 ** 62, dtype=np.uint8)    # beyond any address space

    monkeypatch.setattr(harness, "make_lab", huge_lab)
    for argv in (["select", "--n", "20"],
                 ["simulate", "--example", "2", "--n", "20", "--reps", "1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of memory")


def test_oversized_collection_fails_at_once():
    """``select --n 300000`` fails at once: the lab asks for its
    n(n+1)/2-cell table (335 GiB) before any per-model work, so a run
    capped at 4 GiB of address space ends with one error line and exit 2."""
    resource = pytest.importorskip("resource")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    threads = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "densel.cli", "select", "--n", "300000"],
        capture_output=True, text=True, timeout=10,
        preexec_fn=cap_address_space,
        env=dict(os.environ, PYTHONPATH=src, **threads))
    err = proc.stderr.strip().splitlines()
    assert proc.returncode == 2
    assert len(err) == 1 and err[0].startswith("error: out of memory")


def test_import_skips_process_pool():
    """Neither the import nor a run on two workers loads
    ``multiprocessing`` or ``concurrent.futures``: the workers are forked
    by ``densel.fork``.  Only conc-check loads the concentration lab."""
    code = textwrap.dedent("""
        import sys, densel.cli
        pools = ("multiprocessing", "concurrent.futures")
        print([m for m in pools + ("densel.conclab",) if m in sys.modules])
        runs = ["simulate --n 12 --reps 4 --threads 2",
                "conc-check --n 30 --reps 2000 --x 1 --threads 2"]
        codes = [densel.cli.main(run.split()) for run in runs]
        print(codes, [m for m in pools if m in sys.modules])""")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout.strip().splitlines()
    assert out[0] == "[]"
    assert out[-1] == "[0, 0] []"


def _cpus(monkeypatch, count):
    """A patched CPU count, so that no run starts more than ``count``
    processes whatever ``--threads`` says."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


@pytest.mark.parametrize("basis, dim", [("hist", "10"), ("fourier", "7")])
@pytest.mark.parametrize("bound", ["p", "resampling", "ustat",
                                   "regularization"])
def test_conc_check_threads_byte_identical(bound, basis, dim, tmp_path,
                                           monkeypatch, capsys):
    """CSV, stdout and exit code are the same at --threads 1, 2 and 3,
    with a patched CPU count of 3 and a budget that makes 400
    replications 14 chunks or more."""
    _cpus(monkeypatch, 3)
    monkeypatch.setattr(conclab, "CHUNK_BYTES", 1 << 16)
    runs = []
    for threads in ("1", "2", "3"):
        out = tmp_path / f"threads-{threads}.csv"
        code = main(["conc-check", "--bound", bound, "--basis", basis,
                     "--dim", dim, "--n", "30", "--reps", "400", "--x", "1,5",
                     "--seed", "2", "--threads", threads, "--out", str(out)])
        runs.append((code, capsys.readouterr().out, _read(out)))
    assert runs[0][0] in (0, 1)
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_worker_error_exits_2_and_leaves_no_child(monkeypatch, capsys):
    """A ValueError raised in a forked conc-check worker ends the command
    with exit 2 and one error line, and every child has been reaped."""
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(conclab, "CHUNK_BYTES", 1 << 16)
    fork_map = conclab.fork_map

    def failing(fn, parts):
        def run(part):
            if part.start > 0:                  # the forked worker's part
                raise ValueError("worker failed")
            return fn(part)
        return fork_map(run, parts)

    monkeypatch.setattr(conclab, "fork_map", failing)
    assert main(["conc-check", "--n", "30", "--reps", "400", "--x", "1",
                 "--threads", "2"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: worker failed"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_config_threads_and_explicit_flag(tmp_path, monkeypatch):
    """``threads = N`` in --config sets the conc-check workers, an explicit
    --threads wins over it, and without either a command takes every CPU
    it may run on (patched to 3)."""
    _cpus(monkeypatch, 3)
    monkeypatch.setattr(conclab, "CHUNK_BYTES", 1 << 16)
    made, fork_map = [], conclab.fork_map
    monkeypatch.setattr(conclab, "fork_map", lambda fn, parts: (
        made.append(len(parts)) or fork_map(fn, parts)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 2\n")
    base = ["conc-check", "--n", "30", "--reps", "400", "--x", "1"]
    for extra in (["--config", str(cfg)],
                  ["--config", str(cfg), "--threads", "1"],
                  []):
        assert main(base + extra) == 0
    assert made == [2, 1, 3]


def test_conc_check_warnings_one_line_each(capsys):
    """Each insufficient-resolution warning is one ``warning:`` line on
    stderr, without the source line that raised it."""
    code = main(["conc-check", "--bound", "resampling", "--n", "20",
                 "--reps", "2000", "--seed", "3"])
    assert code in (0, 1)
    err = capsys.readouterr().err.strip().splitlines()
    assert err and all(line.startswith("warning: ") for line in err)
    assert all("insufficient" in line for line in err)


def test_two_block_dmw_path_nonnegative(tmp_path):
    # dmw once cancelled below zero on this sample and the command failed
    out = tmp_path / "path.csv"
    assert main(["slope-path", "--collection", "two-block", "--n", "60",
                 "--seed", "1", "--complexity", "dmw", "--out", str(out)]) == 0
    assert all(float(line.rsplit(",", 1)[1]) >= 0.0
               for line in _lines(out)[1:])


def _oracle_criteria(kind, n, seed, penalty):
    """Per-model fits and penalties: (select() pick, criterion per id)."""
    density = PowerLaw()
    collection = build_collection(kind, n)
    sample = density.sample(n, RngStream(seed, 0, "data"))
    fits = [fit_model(m, sample) for m in collection]
    if penalty == "resampling":
        pens = [resampling_penalty(f, sample) for f in fits]
    elif penalty.startswith("dimension:"):
        pens = [dimension_penalty(m, 1.5, n) for m in collection]
    else:
        pens = [ideal_deterministic_penalty(exact_quantities(m, density, n),
                                            n, 2.0) for m in collection]
    pick = select([(f.model.id, f.emp_contrast) for f in fits], pens,
                  {m.id: m.dim for m in collection}).model_id
    crit = {f.model.id: f.emp_contrast + p.value for f, p in zip(fits, pens)}
    return pick, crit, fits, sample


def test_select_settles_exact_ties(capsys):
    """d = 5 (T = 34) and d = 10 (T = 22) both have the criterion -6/5
    exactly, which floats round to -1.2 and -1.2000000000000002: the tie
    goes to the smaller complexity, here the dimension."""
    assert main("select --collection regular-hist --n 10 --penalty "
                "dimension:1 --seed 43".split()) == 0
    assert capsys.readouterr().out.split()[:2] == ["selected", "reg-hist:d=5"]


def test_select_full_tie_goes_to_the_earlier_model(capsys):
    """k=1,j1=1,j2=2 and k=2,j1=1,j2=1 both have criterion -3 and dmw 0
    (all three points in [2/3, 1)): the tie goes to the earlier model in
    enumeration order, though it has the larger dimension."""
    assert main("select --collection two-block --n 3 --seed 26".split()) == 0
    assert capsys.readouterr().out == (
        "selected two-block:k=1,j1=1,j2=2 criterion=-3 penalty=0\n")


@pytest.mark.parametrize("kind,n", [("regular-hist", 25), ("fourier", 12),
                                    ("two-block", 9)])
def test_cli_matches_per_model_oracle(kind, n, tmp_path, capsys):
    """select and slope-path run on the labs; the per-model fits are the
    oracle.  Picks may differ only on exact criterion ties, which float
    noise can point at different tied models."""
    for seed in range(4):
        for penalty in ("resampling", "dimension:1.5", "ideal:2"):
            assert main(["select", "--collection", kind, "--n", str(n),
                         "--seed", str(seed), "--penalty", penalty]) == 0
            got = capsys.readouterr().out.split()[1]
            want, crit, fits, sample = _oracle_criteria(kind, n, seed, penalty)
            if got != want:
                assert crit[got] == pytest.approx(crit[want], abs=1e-9)
        for complexity in ("dim", "dmw"):
            out = tmp_path / "path.csv"
            assert main(["slope-path", "--collection", kind, "--n", str(n),
                         "--seed", str(seed), "--complexity", complexity,
                         "--out", str(out)]) == 0
            capsys.readouterr()
            # K_lo, K_hi, model_id, delta; two-block ids hold commas
            rows = [(r[0], r[1], ",".join(r[2:-1]), r[-1])
                    for r in (line.split(",") for line in _lines(out)[1:])]
            delta = {f.model.id: (f.model.dim if complexity == "dim"
                                  else resampling_dmw(f, sample))
                     for f in fits}
            contrast = {f.model.id: f.emp_contrast for f in fits}
            want = slope_path([(mid, contrast[mid], delta[mid])
                               for mid in contrast])
            assert len(rows) == len(want.segments)
            for row, seg in zip(rows, want.segments):
                # an exact tie (two-block, n = 9, seed 2, dmw: k=3,j1=2,j2=4
                # and k=6,j1=4,j2=2) may go to either tied model
                if row[2] != seg.model_id:
                    assert delta[row[2]] == pytest.approx(seg.delta)
                    assert contrast[row[2]] == pytest.approx(seg.contrast)
            assert [float(r[0]) for r in rows] == pytest.approx(
                [s.k_lo for s in want.segments], rel=1e-9, abs=1e-15)


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 25\nseed = 9\n# comment line\nreps = 6\n")
    out1 = tmp_path / "o1.csv"
    assert main(["simulate", "--example", "1", "--config", str(cfg),
                 "--out", str(out1)]) == 0
    rows = _lines(out1)[1:]
    assert all(row.split(",")[4] == "6" and row.split(",")[5] == "25"
               for row in rows)
    # explicit flag beats the config value
    out2 = tmp_path / "o2.csv"
    assert main(["simulate", "--example", "1", "--config", str(cfg),
                 "--n", "30", "--out", str(out2)]) == 0
    assert all(row.split(",")[5] == "30" for row in _lines(out2)[1:])


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gamma_max = 3\n")
    assert main(["simulate", "--example", "1", "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("command", "simulate"),
                                        ("config", "other.cfg")])
def test_config_cannot_set_command_or_config(key, value, tmp_path, capsys):
    """``command`` and ``config`` are parser state, not flags: a config
    file naming either is rejected like any unknown key (a nested file
    was ignored, even one with ``n = 0``)."""
    (tmp_path / "other.cfg").write_text("n = 0\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {tmp_path / value}\n")
    argv = ["simulate", "--n", "10", "--reps", "2", "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: unknown config keys: {key}"]


def test_config_piecewise_density(tmp_path):
    cfg = tmp_path / "pw.cfg"
    cfg.write_text("density = piecewise\nbreaks = 0,0.5,1\nheights = 1.6,0.4\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", "--example", "1", "--n", "20", "--reps", "4",
                 "--seed", "1", "--config", str(cfg), "--out", str(out)]) == 0


def test_parser_covers_all_commands():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])
