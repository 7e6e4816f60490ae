"""The benchmark's tracer still finds the layers it wraps.

``benchmarks/tracer.py`` wraps package functions by module and name and
binds the arguments of ``conclab.simulate_model_statistics``; a rename
there breaks traced runs or silently empties a per-layer span.  Each case
runs the tracer the way ``benchmarks/run.py`` does: a fresh interpreter
with this checkout's ``src`` on ``PYTHONPATH``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("cli_args,spans", [
    ("select --collection regular-hist --n 20",
     {"harness.make_lab", "harness.evaluate"}),
    ("select --collection fourier --n 10",
     {"harness.make_lab", "harness.evaluate"}),
    ("select --collection two-block --n 10", {"harness.evaluate"}),
    ("simulate --example 2 --n 6 --reps 2",
     {"harness.run_example", "harness.apply.slope-dim",
      "harness.apply.resampling", "harness.apply.resampling-slope"}),
    ("conc-check --bound ustat --n 20 --dim 3 --reps 50 --x 1",
     {"conclab.simulate_model_statistics", "conclab.check.ustat"}),
], ids=["regular-hist", "fourier", "two-block", "simulate", "ustat"])
def test_tracer_runs_and_finds_its_spans(cli_args, spans, tmp_path):
    out = tmp_path / "spans.json"
    argv = [sys.executable, str(ROOT / "benchmarks" / "tracer.py"), str(out),
            "t", "--", *cli_args.split(), "--out", str(tmp_path / "o.csv")]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert spans <= {span[0] for span in record["spans"]}
    if "ustat" in cli_args:
        assert record["counts"]["conclab.gram_bytes_computed"] > 0
