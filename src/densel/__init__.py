"""Penalized least-squares density estimation on [0,1].

Projection estimators over histogram and Fourier model collections,
selected by dimension-proportional, resampling, or slope-calibrated
penalties, with exact-risk oracles and a Monte-Carlo lab for the
finite-sample concentration bounds behind the methods.

``import densel`` loads the modules every command runs, the densities,
the random streams and the models, since deferring them saves no command
anything.  The names of the labs and the slope paths load their module
on first access (PEP 562), so that a command that does not run them
never compiles them.

BLAS and OpenMP run on one thread unless the environment says otherwise:
the products are small, and the worker processes of ``--threads`` would
otherwise each spin a pool of BLAS threads.  This has to happen before
numpy loads, hence here.
"""

import importlib
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .densities import (Density, PiecewiseConstant, PowerLaw, Sample,
                        Uniform, UnboundedPointError, density_from_config)
from .models import ModelSpec, exact_quantities, scale_constants
from .rng import RngStream

__version__ = "0.1.0"

_LAZY = {
    "harness": ("CollectionLab", "Method", "SimulationReport", "SweepReport",
                "TwoBlockLab", "make_lab", "parse_method", "penalty_sweep",
                "run_example", "summarize"),
    "slope": ("NoJumpError", "SlopePath", "detect_kmin", "slope_pick"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["Density", "PiecewiseConstant", "PowerLaw", "Sample", "Uniform",
           "UnboundedPointError", "density_from_config", "ModelSpec",
           "exact_quantities", "scale_constants", "RngStream", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value         # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
