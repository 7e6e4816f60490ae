"""Penalized least-squares density estimation on [0,1].

Projection estimators over histogram and Fourier model collections,
selected by dimension-proportional, resampling, or slope-calibrated
penalties, with exact-risk oracles and a Monte-Carlo lab for the
finite-sample concentration bounds behind the methods.
"""

from .densities import (Density, PiecewiseConstant, PowerLaw, Sample,
                        Uniform, UnboundedPointError, density_from_config)
from .fitting import FittedModel, empirical_contrast, exact_loss, fit_model, p_term
from .harness import (Method, SimulationReport, SweepReport, oracle_ratio,
                      parse_method, penalty_sweep, run_example, summarize)
from .models import (ExactModelQuantities, ModelCollection, ModelSpec,
                     basis_eval, build_fourier_collection,
                     build_regular_histograms, build_two_block_collection,
                     exact_quantities)
from .penalties import (EFRON, LEAVE_ONE_OUT, RADEMACHER_PAIR, PenaltyValue,
                        ResamplingScheme, dimension_penalty,
                        ideal_deterministic_penalty, resampling_penalty,
                        resampling_penalty_mc)
from .rng import RngStream
from .slope import (NoJumpError, SelectionResult, SlopePath, detect_kmin,
                    select, slope_path, slope_pick)

__version__ = "0.1.0"
