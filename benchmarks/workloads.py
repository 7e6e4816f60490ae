"""Workload definitions and the output reference check.

A workload is a fixed sequence of ``densel`` CLI invocations.  Every
invocation writes its CSVs into a per-run directory (the ``{dir}``
placeholder) and gets the CLI seed as ``--seed``, except the known-failing
two-block dmw slope path, which always runs at ``--seed 1``.  Two sizes
exist: ``full`` is what the benchmark measures, ``smoke`` is the tiny
self-test variant.

The reference check compares each invocation with what the program
produced when ``reference.json`` was recorded: exit code, the selected
model printed on stdout, and every column of every output CSV.  Text
columns (model ids, flags, methods, integers, booleans) must match
exactly; oracle-ratio columns within 1e-12 relative; other reals (exact
constants from quadrature, criteria, K breakpoints) within 1e-9 relative.
Columns the program adds after the reference was recorded are ignored.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

# ex1-hist: simulate example 1 (regular histograms, n=100); the generic
#   per-model evaluate loop dominates, 100 fit_model + 100 resampling_dmw
#   calls per replication.
# ex2-twoblock: simulate example 2 (two-block family, n=100); the slope
#   picks dominate, fitting and penalties are never called, and set-up
#   carries the two-block lab build.
# cli-oneshot: seven short select / slope-path processes on all three
#   collections; import, build_collection and the per-model FittedModel
#   stack, plus the known dmw < 0 failure.
# conc-lab: conc-check on every bound; the concentration lab only, whose
#   ustat Gram array sets the peak memory.
WORKLOADS = ("ex1-hist", "ex2-twoblock", "cli-oneshot", "conc-lab")

# The CLI seed is the workload seed modulo this, so that every run can be
# checked against a stored reference.
REFERENCE_SEEDS = 8

RATIO_COLUMNS = {"ratio", "mean", "median", "q95"}
REAL_COLUMNS = {"K_lo", "K_hi", "delta", "criterion", "penalty", "d_exact",
                "dmw", "threshold", "frequency", "cap", "mc_se", "sd_dmw",
                "sd_np", "x"}
RATIO_RTOL = 1e-12
REAL_RTOL = 1e-9

_SELECTED = re.compile(r"selected[= ](\S+)")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]        # CLI arguments, with a {dir} placeholder
    outputs: tuple[str, ...]     # CSV file names written into {dir}

    def resolve(self, workdir: str) -> list[str]:
        return [a.replace("{dir}", workdir) for a in self.argv]


def _cmd(text: str, seed: int) -> Command:
    argv = tuple(text.split()) + ("--density", "powerlaw")
    if "--seed" not in argv:
        argv += ("--seed", str(seed))
    outputs = tuple(a.split("/", 1)[1] for a in argv if a.startswith("{dir}/"))
    return Command(argv=argv, outputs=outputs)


def _simulate(example: int, n: int, reps: int) -> str:
    return (f"simulate --example {example} --n {n} --reps {reps} --threads 1 "
            f"--out {{dir}}/summary.csv --raw-out {{dir}}/raw.csv")


# Size parameters: ex1 reps, ex2 (n, reps), cli-oneshot sizes, conc-lab reps.
_SIZES = {
    "full": dict(ex1_reps=200, ex2_n=100, ex2_reps=40, hist_n=100,
                 two_block_n=40, fourier_n=100, ideal_n=50, conc_reps=10_000,
                 ustat_n=200),
    "smoke": dict(ex1_reps=3, ex2_n=20, ex2_reps=2, hist_n=20,
                  two_block_n=10, fourier_n=20, ideal_n=8, conc_reps=200,
                  ustat_n=30),
}


def commands(workload: str, size: str, seed: int) -> list[Command]:
    """The invocations of one workload run, for a CLI seed."""
    z = _SIZES[size]
    if workload == "ex1-hist":
        texts = [_simulate(1, 100, z["ex1_reps"])]
    elif workload == "ex2-twoblock":
        texts = [_simulate(2, z["ex2_n"], z["ex2_reps"])]
    elif workload == "cli-oneshot":
        texts = [
            f"select --collection regular-hist --n {z['hist_n']} --out {{dir}}/sel-hist.csv",
            f"select --collection two-block --n {z['two_block_n']} --out {{dir}}/sel-2b.csv",
            f"select --collection fourier --n {z['fourier_n']} --out {{dir}}/sel-fourier.csv",
            f"select --collection fourier --penalty ideal:2 --n {z['ideal_n']} --out {{dir}}/sel-ideal.csv",
            f"slope-path --collection regular-hist --n {z['hist_n']} --out {{dir}}/path-hist.csv",
            f"slope-path --collection fourier --n {z['fourier_n']} --out {{dir}}/path-fourier.csv",
            # Exits 2 at seed 1 ("complexities must be >= 0"): dmw < 0
            # through cancellation.  Kept on purpose at seed 1 whatever the
            # CLI seed, so it fails on every run and counts as failed.
            f"slope-path --collection two-block --n {z['two_block_n']} --seed 1 --complexity dmw --out {{dir}}/path-2b-dmw.csv",
        ]
    elif workload == "conc-lab":
        reps = z["conc_reps"]
        texts = [
            f"conc-check --bound {b} --n 100 --dim 10 --reps {reps} --out {{dir}}/conc-{b}.csv"
            for b in ("p", "resampling", "regularization")
        ] + [
            f"conc-check --bound resampling --basis fourier --n 100 --dim 21 --reps {reps} --out {{dir}}/conc-fourier.csv",
            f"conc-check --bound ustat --n {z['ustat_n']} --dim 20 --reps {reps} --out {{dir}}/conc-ustat.csv",
        ]
    else:
        raise KeyError(f"unknown workload {workload!r}")
    return [_cmd(t, seed) for t in texts]


def lab_spec(workload: str, size: str) -> tuple[str, int] | None:
    """The (collection kind, n) whose lab the workload builds, if any."""
    if workload == "ex1-hist":
        return "regular-hist", 100
    if workload == "ex2-twoblock":
        return "two-block", _SIZES[size]["ex2_n"]
    return None


def reps_of(workload: str, size: str) -> int | None:
    """Replications per simulate invocation (None for other workloads)."""
    key = {"ex1-hist": "ex1_reps", "ex2-twoblock": "ex2_reps"}.get(workload)
    return _SIZES[size][key] if key else None


# ---------------------------------------------------------------------------
# Output records and their comparison
# ---------------------------------------------------------------------------

def _digest(values: list[str]) -> str:
    return hashlib.sha256("\n".join(values).encode()).hexdigest()[:24]


def _real(text: str) -> float | None:
    return None if text == "" else float(text)


# Two-block model ids contain commas and the program writes them unquoted,
# so a row with surplus fields has its id spread over several of them.
_ID_COLUMNS = ("model_id", "selected_model")


def _split(line: str, header: list[str]) -> list[str]:
    row = line.split(",")
    extra = len(row) - len(header)
    if extra > 0:
        j = next(i for i, h in enumerate(header) if h in _ID_COLUMNS)
        row[j:j + extra + 1] = [",".join(row[j:j + extra + 1])]
    return row


def csv_record(path: str) -> dict | None:
    """Per-column record of one output CSV (None when it was not written)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return None
    header = lines[0].split(",")
    body = [_split(line, header) for line in lines[1:]]
    columns = {}
    for j, name in enumerate(header):
        values = [row[j] for row in body]
        if name in RATIO_COLUMNS or name in REAL_COLUMNS:
            columns[name] = {"reals": [_real(v) for v in values]}
        else:
            columns[name] = {"text": _digest(values)}
    return {"rows": len(body), "columns": columns}


def command_record(cmd: Command, returncode: int, stdout: str, stderr: str,
                   workdir: str) -> dict:
    """What the reference stores about one invocation."""
    rec = {"argv": list(cmd.argv), "exit": returncode,
           "selected": _SELECTED.findall(stdout)}
    if returncode != 0:
        lines = stderr.strip().splitlines()
        rec["stderr"] = lines[-1] if lines else ""
        return rec
    rec["files"] = {name: csv_record(f"{workdir}/{name}")
                    for name in cmd.outputs}
    return rec


def _close(a: float | None, b: float | None, rtol: float) -> bool:
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def judge(ref: dict, got: dict) -> tuple[bool, list[str]]:
    """(operation failed, wrong outputs) for a fresh record against its
    reference.

    An invocation fails when it exits non-zero or its outputs differ from
    the reference.  Its outputs are wrong when they differ, or when it
    exits otherwise than the reference did; a non-zero exit the reference
    also recorded is a known defect, failed but not wrong.  A zero exit
    where the reference recorded a failure (a fixed defect) has nothing to
    compare against and passes.
    """
    if ref["argv"] != got["argv"]:
        return True, ["reference recorded for other arguments; re-record it"]
    if got["exit"] != 0:
        if got["exit"] == ref["exit"] and got.get("stderr") == ref.get("stderr"):
            return True, []
        return True, [f"exit {got['exit']} ({got.get('stderr', '')}), "
                      f"reference exit {ref['exit']}"]
    if ref["exit"] != 0:
        return False, []
    problems = []
    if got["selected"] != ref["selected"]:
        problems.append(f"selected {got['selected']}, reference {ref['selected']}")
    for fname, rfile in ref["files"].items():
        gfile = got["files"][fname]
        if gfile is None:
            problems.append(f"{fname}: not written")
            continue
        if gfile["rows"] != rfile["rows"]:
            problems.append(f"{fname}: {gfile['rows']} rows, reference {rfile['rows']}")
            continue
        for col, rcol in rfile["columns"].items():
            gcol = gfile["columns"].get(col)
            if gcol is None:
                problems.append(f"{fname}: column {col} missing")
            elif "text" in rcol:
                if gcol.get("text") != rcol["text"]:
                    problems.append(f"{fname}: column {col} differs")
            else:
                rtol = RATIO_RTOL if col in RATIO_COLUMNS else REAL_RTOL
                bad = sum(not _close(a, b, rtol)
                          for a, b in zip(rcol["reals"], gcol["reals"]))
                if bad:
                    problems.append(f"{fname}: {bad} values of {col} differ "
                                    f"beyond {rtol:g} relative")
    return bool(problems), problems
