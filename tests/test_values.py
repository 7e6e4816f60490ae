"""The package's records and value classes: pickling, equality and
immutability.  Records are named tuples; the classes that validate their
fields or inherit (the densities, samples, model specs and slope paths)
are plain classes with the value semantics of a frozen dataclass."""

import pickle

import numpy as np
import pytest

from densel.conclab import RegularizationReport, TailReport, TailRow
from densel.densities import PiecewiseConstant, PowerLaw, Sample, Uniform
from densel.fitting import FittedModel
from densel.harness import (Method, MethodOutcome, ModelRow,
                            SimulationReport, SweepReport)
from densel.models import (ExactModelQuantities, ModelSpec, fourier_model,
                           regular_histogram)
from densel.rng import RngStream
from densel.slope import PathSegment, SlopePath

STEP = PiecewiseConstant(np.array([0.0, 0.3, 0.7, 1.0]),
                         np.array([0.5, 1.75, 0.5]))
SEGMENT = PathSegment(k_lo=0.0, k_hi=1.5, model_id="reg-hist:d=3",
                      delta=3.0, contrast=-1.25)
ROW = TailRow(label="p-upper", x=1.0, threshold=0.5, frequency=0.01,
              cap=0.95, mc_se=0.001, passed=True)

VALUES = [
    PowerLaw(), Uniform(), STEP,
    Sample(np.array([0.1, 0.4, 0.9])),
    Sample(np.array([0.9, 0.1]), sorted_flag=False),
    regular_histogram(4), fourier_model(3),
    ModelSpec(id="two-block:k=1,j1=1,j2=2", basis="histogram", dim=3,
              breaks=np.array([0.0, 0.5, 0.75, 1.0]), params=(1, 1, 2)),
    SlopePath(segments=(SEGMENT, SEGMENT._replace(k_lo=1.5, k_hi=np.inf,
                                                  delta=1.0)),
              delta_max=4.0),
    SEGMENT, ROW,
    TailReport(bound="p", model_id="reg-hist:d=3", n=30, reps=100,
               rows=(ROW,)),
    RegularizationReport(model_id="reg-hist:d=3", n=30, reps=100,
                         sd_dmw=0.5, sd_np=2.0, ratio=0.25, degenerate=False),
    RngStream(7, 3, "data"),
    Method("ideal", 2.0),
    MethodOutcome(method="slope-dim", ratio=1.5, selected="reg-hist:d=2"),
    ModelRow(model_id="reg-hist:d=2", criterion=-1.0, penalty=0.1, dim=2,
             dmw=1.9, d_exact=2.0, loss=0.05),
    SimulationReport(collection="regular-hist", n=20, reps=2, seed=0,
                     methods=("slope-dim",),
                     ratios={"slope-dim": np.array([1.0, 2.0])},
                     selected={"slope-dim": ["reg-hist:d=1", "reg-hist:d=2"]},
                     flags={"slope-dim": [None, None]}),
    SweepReport(collection="regular-hist", n=20, reps=2, seed=0,
                k_grid=np.array([1.0, 2.0]),
                mean_d_ratio=np.array([0.5, 0.25]),
                mean_oracle_ratio=np.array([1.5, 1.25])),
    ExactModelQuantities(model_id="reg-hist:d=2", n=20,
                         pop_coeffs=np.array([0.6, 0.8]), sm_norm_sq=1.0,
                         bias_sq=0.125, d_exact=0.9, risk=3.4),
    FittedModel(model=regular_histogram(2), coeffs=np.array([0.6, 0.8]),
                n=20, emp_contrast=-1.0, counts=np.array([8, 12])),
]
IDS = [type(v).__name__ for v in VALUES]


def _fields(value) -> dict:
    return {name: getattr(value, name) for name in value._fields}


def _same(a, b) -> bool:
    """Equal field by field, arrays and containers of arrays compared by
    their values."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if hasattr(a, "_fields"):
        return type(a) is type(b) and _same(_fields(a), _fields(b))
    return a == b


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_pickle_round_trip(value):
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    assert _same(back, value)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_fields_are_read_only(value):
    name = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert _same(getattr(value, name), _fields(value)[name])


def test_densities_equal_by_value():
    assert PowerLaw() == PowerLaw() and Uniform() == Uniform()
    assert hash(PowerLaw()) == hash(PowerLaw())
    assert PowerLaw() != Uniform()
    assert PowerLaw().kind == "powerlaw" and STEP.kind == "piecewise"
    assert repr(PowerLaw()) == "PowerLaw(kind='powerlaw')"
    same = PiecewiseConstant(STEP.breaks, STEP.heights)
    assert same == STEP    # the very same arrays, so no array comparison


def test_model_specs_equal_by_id():
    a = regular_histogram(4)
    b = ModelSpec(id="reg-hist:d=4", basis="histogram", dim=2,
                  breaks=np.array([0.0, 0.5, 1.0]))
    assert a == b and hash(a) == hash(b)
    assert a != regular_histogram(5) and a != "reg-hist:d=4"
    assert fourier_model(3) == fourier_model(3)


def test_slope_paths_equal_by_value():
    def path(delta_max):
        return SlopePath(segments=(SEGMENT,), delta_max=delta_max)
    assert path(4.0) == path(4.0) and hash(path(4.0)) == hash(path(4.0))
    assert path(4.0) != path(5.0)
    assert path(4.0) != SlopePath(segments=(SEGMENT._replace(delta=2.0),),
                                  delta_max=4.0)


def test_constructors_still_validate():
    with pytest.raises(ValueError):
        Sample(np.array([0.5, 0.2]))
    with pytest.raises(ValueError):
        PiecewiseConstant(np.array([0.0, 1.0]), np.array([2.0]))
    with pytest.raises(ValueError):
        ModelSpec(id="f", basis="fourier", dim=4, j=2)
    with pytest.raises(ValueError):
        SlopePath(segments=(), delta_max=1.0)
    assert Sample([0.25, 0.5]).points.dtype == float
