"""The package namespace: the names of the labs and the slope paths load
their home module lazily; no module is costly to compile."""

import importlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import densel

# every public name of the package, by the module that defines it
HOMES = {
    "densities": ("Density", "PiecewiseConstant", "PowerLaw", "Sample",
                  "Uniform", "UnboundedPointError", "density_from_config"),
    "harness": ("CollectionLab", "Method", "SimulationReport", "SweepReport",
                "TwoBlockLab", "make_lab", "parse_method", "penalty_sweep",
                "run_example", "summarize"),
    "models": ("ModelSpec", "exact_quantities", "scale_constants"),
    "rng": ("RngStream",),
    "slope": ("NoJumpError", "SlopePath", "detect_kmin", "slope_pick"),
}
PUBLIC = [(module, name) for module, names in HOMES.items() for name in names]


@pytest.mark.parametrize("module, name", PUBLIC)
def test_public_name_is_its_home_modules_object(module, name):
    home = importlib.import_module(f"densel.{module}")
    assert getattr(densel, name) is getattr(home, name)
    assert name in densel.__all__
    assert name in dir(densel)


def test_all_lists_exactly_the_public_names():
    assert sorted(densel.__all__) == sorted(name for _, name in PUBLIC)
    assert densel.__version__ == "0.1.0"


def test_from_import_names_and_submodules():
    from densel import RngStream, make_lab, slope_pick
    from densel import cli, conclab, fitting, harness, penalties
    assert make_lab is harness.make_lab
    assert RngStream.__module__ == "densel.rng"
    assert slope_pick.__module__ == "densel.slope"
    for module in (cli, conclab, fitting, harness, penalties):
        assert module is sys.modules[module.__name__]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        densel.bogus
    assert not hasattr(densel, "run_examples")
    with pytest.raises(ImportError):
        from densel import bogus


def test_import_loads_only_the_shared_modules():
    """``import densel`` loads the modules every command runs and neither
    the labs nor the slope paths; the first access of one of their names
    loads its module (the slope paths' with the hull they run on)."""
    code = textwrap.dedent("""
        import sys
        import densel
        def loaded():
            return sorted(m for m in sys.modules if m.startswith("densel."))
        print(loaded())
        densel.SlopePath
        print(loaded())""")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout.strip().splitlines()
    assert out == ["['densel.densities', 'densel.models', 'densel.rng']",
                   "['densel.densities', 'densel.hull', 'densel.models', "
                   "'densel.rng', 'densel.slope']"]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_import_sets_one_blas_thread_unless_set():
    """``import densel`` sets every BLAS and OpenMP thread count to 1 before
    numpy loads; a count the environment already sets stays."""
    code = ("import os, densel; "
            f"print(*(os.environ[v] for v in {BLAS_VARS!r}))")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}

    def counts(**extra):
        return subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True,
                              env={**env, **extra}).stdout.split()

    assert counts() == ["1", "1", "1"]
    assert counts(OPENBLAS_NUM_THREADS="3") == ["3", "1", "1"]


COMPILE_BUDGET = 1.5 * 2 ** 20


@pytest.mark.parametrize("path", sorted(Path(densel.__file__).parent
                                        .glob("*.py")),
                         ids=lambda path: path.name)
def test_module_compiles_within_budget(path):
    """Compiling any one module peaks at most at 1.5 MB of Python heap.
    Without cached bytecode a command compiles every densel module it
    imports, so one large module's compile would set the peak memory of
    every command that loads it."""
    source = path.read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= COMPILE_BUDGET, f"{path.name}: {peak / 2 ** 20:.2f} MB"
