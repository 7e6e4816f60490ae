"""Penalized least-squares density estimation on [0,1].

Projection estimators over histogram and Fourier model collections,
selected by dimension-proportional, resampling, or slope-calibrated
penalties, with exact-risk oracles and a Monte-Carlo lab for the
finite-sample concentration bounds behind the methods.
"""

from .densities import (Density, PiecewiseConstant, PowerLaw, Sample,
                        Uniform, UnboundedPointError, density_from_config)
from .harness import (CollectionLab, Method, SimulationReport, SweepReport,
                      TwoBlockLab, make_lab, parse_method, penalty_sweep,
                      run_example, summarize)
from .models import ModelSpec, exact_quantities, scale_constants
from .rng import RngStream
from .slope import NoJumpError, SlopePath, detect_kmin, slope_pick

__version__ = "0.1.0"
