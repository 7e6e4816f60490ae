"""Experiment harness: ratios, reports, the fast two-block engine."""

import os
import tracemalloc
import warnings
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest

from densel import fork, harness, labs, twoblock
from densel.densities import PowerLaw, Sample, Uniform, density_from_config
from densel.harness import (CollectionLab, Method, TwoBlockLab, _Evaluation,
                            _TwoBlockEvaluation, make_lab, parse_method,
                            penalty_sweep, run_example, summarize)
from densel.models import fourier_basis_matrix
from densel.rng import RngStream
from oracles import (PerCutTwoBlock, PerModelLab, block_stats,
                     build_collection, build_regular_histograms,
                     build_two_block_collection, exact_argmin,
                     exact_histogram_slope_pick, oracle_ratio, per_cut_arrays)

ALL_METHODS = (Method("slope-dim"), Method("resampling"),
               Method("resampling-slope"), Method("ideal", 2.0))


def test_summarize_nearest_rank():
    assert summarize(range(1, 21)) == (10.5, 10.0, 19.0)
    assert summarize([4.2]) == (4.2, 4.2, 4.2)
    assert summarize([3.0, 3.0, 3.0]) == (3.0, 3.0, 3.0)
    with pytest.raises(ValueError):
        summarize([])


def test_parse_method():
    assert parse_method("slope-dim").kind == "slope-dim"
    assert parse_method("ideal:1.5") == Method("ideal", 1.5)
    assert parse_method("ideal").k_const == 2.0
    assert parse_method("ideal:2").name == "ideal:2"
    with pytest.raises(ValueError):
        parse_method("aic")


def test_oracle_ratio_at_least_one():
    density = PowerLaw()
    col = build_regular_histograms(40)
    for rep in range(5):
        s = density.sample(40, RngStream(21, rep, "data"))
        for m in ALL_METHODS:
            assert oracle_ratio(s, col, m, density) >= 1.0 - 1e-9


def test_oracle_ratio_degenerate_under_uniform():
    # the constant model has exactly zero loss under the uniform density
    density = Uniform()
    col = build_regular_histograms(10)
    s = density.sample(10, RngStream(22, 0, "data"))
    with pytest.raises(ArithmeticError):
        oracle_ratio(s, col, Method("resampling"), density)


def test_oracle_ratio_golden():
    """Frozen end-to-end value for one seeded replication."""
    density = PowerLaw()
    col = build_regular_histograms(100)
    s = density.sample(100, RngStream(42, 0, "data"))
    got = oracle_ratio(s, col, Method("resampling"), density)
    assert got >= 1.0
    assert got == pytest.approx(1.160410720452468, rel=1e-10)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_two_block_fast_engine_matches_generic(n):
    """The fast engine must agree with the generic loop up to exact
    criterion ties (integer bin counts make such ties common at small n;
    each engine resolves them deterministically but float noise can point
    them at different tied models)."""
    density = PowerLaw()
    collection = build_two_block_collection(n)
    gen_lab = PerModelLab(collection, density)
    fast_lab = TwoBlockLab(n, density)
    by_id = {mid: i for i, mid in enumerate(gen_lab.ids)}
    for rep in range(5):
        s = density.sample(n, RngStream(23, rep, "data"))
        ev_g, ev_f = gen_lab.evaluate(s), fast_lab.evaluate(s)
        assert ev_f.oracle_loss() == pytest.approx(float(ev_g.losses.min()),
                                                   abs=1e-12)
        for m in ALL_METHODS:
            a, b = ev_g.apply(m), ev_f.apply(m)
            if a.selected == b.selected:
                assert b.ratio == pytest.approx(a.ratio, abs=1e-9)
                continue
            ia, ib = by_id[a.selected], by_id[b.selected]
            if m.kind == "resampling":
                crit = ev_g.contrasts + 2.0 * ev_g.dmws / n
                assert crit[ib] == pytest.approx(crit[ia], abs=1e-9)
            elif m.kind == "ideal":
                crit = ev_g.contrasts + m.k_const * ev_g.d_exact / n
                assert crit[ib] == pytest.approx(crit[ia], abs=1e-9)
            else:
                # slope methods: a tie anywhere along the path may shift
                # the calibration; both picks must at least lie on the
                # lower envelope of the criterion lines
                deltas = (ev_g.dims if m.kind == "slope-dim" else ev_g.dmws)
                ks = np.linspace(0.0, 5.0, 4001)
                crit = ev_g.contrasts[:, None] + ks[None, :] * deltas[:, None]
                env = crit.min(axis=0)
                for idx in (ia, ib):
                    line = ev_g.contrasts[idx] + ks * deltas[idx]
                    assert np.min(line - env) <= 1e-9


STEP = density_from_config("piecewise", breaks=[0.0, 0.3, 1.0],
                           heights=[2.0, 4.0 / 7.0])


@pytest.mark.parametrize("density", [PowerLaw(), STEP], ids=["power", "step"])
def test_block_labs_match_per_model_oracle(density):
    """Both histogram labs give every model's contrast, dmw, D and loss of
    the per-model fits to 1e-12."""
    def stats(ev, key):
        row = ev._row(key, 0.0)
        return row.criterion, row.dmw, row.d_exact, row.loss

    for kind, n in (("regular-hist", 30), ("regular-hist", 7),
                    ("two-block", 4), ("two-block", 9)):
        lab = make_lab(kind, n, density)
        oracle = PerModelLab(build_two_block_collection(n)
                             if kind == "two-block"
                             else build_regular_histograms(n), density)
        keys = (list(range(n)) if kind == "regular-hist" else
                [(k - 1, j1 - 1, j2 - 1) for k in range(1, n)
                 for j1 in range(1, k + 1) for j2 in range(1, n - k + 1)])
        for rep in range(3):
            s = density.sample(n, RngStream(25, rep, "data"))
            ev, ev_o = lab.evaluate(s), oracle.evaluate(s)
            for i, key in enumerate(keys):
                assert ev._row(key, 0.0).model_id == oracle.ids[i]
                assert stats(ev, key) == pytest.approx(stats(ev_o, i),
                                                       rel=0, abs=1e-12)


@pytest.mark.parametrize("density", [PowerLaw(), Uniform(), STEP],
                         ids=["power", "uniform", "step"])
def test_fourier_lab_moments_match_basis_matrix(density):
    """The Fourier lab's contrasts and dmws, from the basis means, equal
    their basis-matrix forms to 1e-12 relative."""
    n = 30
    lab = make_lab("fourier", n, density)
    last = lab.dims.astype(int) - 1
    for rep in range(3):
        s = density.sample(n, RngStream(26, rep, "data"))
        ev = lab.evaluate(s)
        mat = fourier_basis_matrix(n, s.points)
        coeffs = mat.mean(axis=0)
        var = (mat ** 2).mean(axis=0) - coeffs ** 2
        np.testing.assert_allclose(ev.contrasts,
                                   -np.cumsum(coeffs ** 2)[last],
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(ev.dmws,
                                   n / (n - 1.0) * np.cumsum(var)[last],
                                   rtol=1e-12, atol=0.0)


def test_fourier_lab_dmw_nonnegative_on_identical_points():
    """dmw is exactly 0 when all points coincide: the lab's float form
    stays >= 0, so the dmw slope path runs."""
    for n in (2, 7, 30):
        lab = make_lab("fourier", min(n, 15), PowerLaw())
        for x0 in np.linspace(0.0, 1.0, 21):
            ev = lab.evaluate(Sample(np.full(n, x0)))
            assert np.all(ev.dmws >= 0.0) and np.all(ev.dmws <= 1e-12)
            ev.path("dmw")


def test_both_histogram_labs_run_the_block_engine(monkeypatch):
    """Every module that calls the engine's functions runs them from its
    own namespace; each binding is wrapped."""
    calls = []
    for name in ("_block_tables", "_bin_counts", "_row_stats"):
        fn = getattr(labs, name)
        for module in (labs, twoblock):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    lambda *a, _fn=fn, _name=name:
                                    calls.append(_name) or _fn(*a))
    for kind in ("regular-hist", "two-block"):
        calls.clear()
        make_lab(kind, 6, PowerLaw()).evaluate(
            PowerLaw().sample(6, RngStream(26, 0, "data")))
        assert {"_block_tables", "_bin_counts", "_row_stats"} <= set(calls), \
            kind


def _edge_samples(n: int):
    """Hand-made samples of size n: points exactly at the cuts k/n, just
    below and above them, at 0 and at 1; and samples that leave the left
    or the right block of most cuts empty."""
    cuts = np.arange(1, n) / n
    edges = np.concatenate(([0.0, 1.0], cuts, np.nextafter(cuts, 0.0),
                            np.nextafter(cuts, 1.0)))
    gen = np.random.default_rng(n)
    yield np.resize(edges, n)
    yield gen.choice(edges, n)
    yield np.full(n, 1.0)
    yield np.full(n, 0.0)
    yield np.full(n, np.nextafter(1.0, 0.0))
    for lo in (0.9, 0.0):
        yield lo + 0.1 * gen.random(n)


def test_block_engine_matches_block_by_block_oracle():
    """Both labs give the same floats as the block-by-block loop with the
    clamp on the cell index: contrast, var and loss of every two-block
    block, and every regular histogram's contrast, dmw, loss and T, over
    random and hand-made samples."""
    count = 0
    for n in (2, 3, 7, 13, 40, 100):
        for density in (PowerLaw(), Uniform(), STEP):
            lab, hist = TwoBlockLab(n, density), make_lab("regular-hist", n,
                                                          density)
            tables = harness._block_tables(density, 0.0, 1.0, n, 1.0)
            draws = [density.sample(n, RngStream(31, 10 * n + rep, "data"))
                     for rep in range(3 if n == 100 else 8)]
            for sample in draws + [Sample(np.sort(p), sorted_flag=True)
                                   for p in _edge_samples(n)]:
                ev = lab.evaluate(sample)
                for got, want in zip((ev.contrast, ev.var, ev.loss),
                                     per_cut_arrays(lab, sample)):
                    assert np.array_equal(got, want), (n, density.kind)
                a, v, loss_part, _, t_sq = block_stats(tables, sample.points,
                                                       0.0, 1.0, n)
                ev = hist.evaluate(sample)
                assert np.array_equal(ev.contrasts, -a)
                assert np.array_equal(ev.t_sq, t_sq.astype(np.int64))
                assert np.array_equal(ev.losses, hist.s_norm + loss_part)
                assert np.array_equal(ev.dmws, v * n / (n - 1.0))
                count += 1
    assert count == 255


def test_cell_clamp_on_points():
    """Clamping the points y to the largest double below one puts every
    point into the cell that clamping its cell index to j - 1 does:
    floor(fl(y j)) for y < 1, and j - 1 for y = 1."""
    js = np.arange(1, 100_001, dtype=float)
    below = np.nextafter(1.0, 0.0)
    for y in (1.0, below, np.nextafter(below, 0.0), 1.0 - 1e-15, 0.999999,
              1.0 - 1.0 / 3.0, 0.5, 0.0):
        got = (min(y, below) * js).astype(np.int64)
        want = np.minimum((y * js).astype(np.int64), js.astype(np.int64) - 1)
        assert np.array_equal(got, want), y
    assert np.all((below * js).astype(np.int64) == js - 1)


def test_doubling_halves_the_cell_index():
    """floor(fl(2 j y)) >> 1 = floor(fl(j y)) for every y in [0, 1), the
    identity by which the block engine gets the counts of every j <= J/2
    as pair sums of those of 2j: tried for j up to 2,000 at the cell edges
    y = i/j, one ulp either side of them, fl(15/22), 0, the smallest
    subnormal and the largest double below one."""
    below = labs._BELOW_ONE
    for j in range(1, 2001):
        edges = np.arange(j) / j
        y = np.concatenate((edges, np.nextafter(edges, 1.0),
                            np.nextafter(edges[1:], 0.0),
                            [15 / 22, 0.0, 5e-324, below]))
        assert y.max() < 1.0 and y.min() >= 0.0
        cell = (y * j).astype(np.int64)
        assert np.array_equal((y * (2 * j)).astype(np.int64) >> 1, cell), j


@pytest.mark.parametrize("n", [100, 200])
def test_two_block_evaluate_memory_bounded(n):
    """Above what it keeps (T, the loss and the block counts), an
    evaluation holds at its peak no more than one chunk of the binning
    pass and a few arrays of n^2 floats; the cell tables themselves grow
    like n^3."""
    lab = TwoBlockLab(n, PowerLaw())
    sample = PowerLaw().sample(n, RngStream(32, 0, "data"))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ev = lab.evaluate(sample)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    outputs = ev.t_sq.nbytes + ev.loss.nbytes + ev.count.nbytes
    assert peak - outputs <= harness.CHUNK_BYTES + 8 * 8 * n * n
    assert lab.blocks.pop.nbytes > 8 * 8 * n * n


@pytest.mark.parametrize("seed,rep,picked", [(1, 35, "reg-hist:d=2"),
                                             (5, 22, "reg-hist:d=1"),
                                             (6, 11, "reg-hist:d=4")])
def test_slope_pick_on_exact_breakpoint(seed, rep, picked):
    """``simulate --example 1 --n 100`` replications where 2 K_min falls
    exactly on a breakpoint; the breakpoint belongs to its smaller-dim
    side.  Float lines picked d=6, d=3 and d=6 here."""
    sample = PowerLaw().sample(100, RngStream(seed, rep, "data"))
    ev = make_lab("regular-hist", 100, PowerLaw()).evaluate(sample)
    assert ev.apply(Method("slope-dim")).selected == picked
    assert exact_histogram_slope_pick(sample, "dim") == picked


def test_histogram_slope_picks_match_fraction_oracle():
    """Random samples with n from 2 to 40: both slope methods pick what
    Fraction arithmetic picks, exact ties included."""
    gen = np.random.default_rng(27)
    for rep in range(120):
        n = int(gen.integers(2, 41))
        density = (PowerLaw(), Uniform(), STEP)[rep % 3]
        sample = density.sample(n, RngStream(27, rep, "data"))
        ev = make_lab("regular-hist", n, density).evaluate(sample)
        for kind, complexity in (("slope-dim", "dim"),
                                 ("resampling-slope", "dmw")):
            assert (ev.apply(Method(kind)).selected
                    == exact_histogram_slope_pick(sample, complexity)), (n, rep)


def _record_pools(monkeypatch) -> list:
    """The worker counts ``run_example`` splits its replications over, by
    a recording ``fork_map`` that runs every part in process."""
    made = []

    def recorder(fn, parts):
        made.append(len(parts))
        return [fn(part) for part in parts]

    monkeypatch.setattr(fork, "fork_map", recorder)
    return made


def test_thread_pool_capped_at_reps_and_cpus(monkeypatch):
    """A run gets min(threads, reps, CPUs) workers, counting the CPUs this
    process may run on (its affinity mask, not ``os.cpu_count()``); one
    worker is the serial run, in process."""
    made = _record_pools(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    serial = run_example(1, 12, 2, seed=28)
    for threads, reps, workers in ((64, 2, 2), (64, 10, 3), (2, 10, 2),
                                   (64, 1, 1)):
        made.clear()
        rep = run_example(1, 12, reps, seed=28, threads=threads)
        assert made == [workers]
        if reps == 2:
            for m in rep.methods:
                assert np.array_equal(rep.ratios[m], serial.ratios[m])


def test_thread_pool_counts_all_cpus_without_affinity(monkeypatch):
    """Where the platform has no affinity mask, the workers count
    ``os.cpu_count()``."""
    made = _record_pools(monkeypatch)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    run_example(1, 12, 10, seed=28, threads=64)
    assert made == [3]


def test_forked_workers_byte_identical(monkeypatch):
    """Three forked workers (a patched CPU count of 3) give every ratio,
    pick and flag of the serial run, in replication order, for both
    experiments and the sweep."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    for example, n in ((1, 15), (2, 8)):
        serial = run_example(example, n, 7, seed=31)
        forked = run_example(example, n, 7, seed=31, threads=3)
        for m in serial.methods:
            assert np.array_equal(forked.ratios[m], serial.ratios[m])
            assert forked.selected[m] == serial.selected[m]
            assert forked.flags[m] == serial.flags[m]
    serial = penalty_sweep("regular-hist", 15, [0.5, 2.0], 5, seed=31)
    forked = penalty_sweep("regular-hist", 15, [0.5, 2.0], 5, seed=31,
                           threads=3)
    assert np.array_equal(forked.mean_d_ratio, serial.mean_d_ratio)
    assert np.array_equal(forked.mean_oracle_ratio, serial.mean_oracle_ratio)


def _two_block_samples():
    """(n, density, sample): 17 draws for each n and density, plus samples
    whose points all lie above 0.9 or below 0.1 (empty left or right
    blocks at most cuts)."""
    for n in (2, 3, 5, 7, 13, 40):
        for d, density in enumerate((PowerLaw(), Uniform(), STEP)):
            for rep in range(17):
                yield n, density, density.sample(
                    n, RngStream(29, 100 * n + 20 * d + rep, "data"))
        for lo in (0.9, 0.0):
            gen = np.random.default_rng(n)
            pts = np.sort(lo + 0.1 * gen.random(n))
            yield n, PowerLaw(), Sample(pts)


def _sliver_samples():
    """(n, density, sample) of CLI runs whose float two-block paths carried
    a sliver segment that moved the pick: ``slope-path --collection
    two-block`` at --n 7 --seed 0 and --n 13 --seed 12."""
    for n, seed in ((7, 0), (13, 12)):
        yield n, PowerLaw(), PowerLaw().sample(n, RngStream(seed, 0, "data"))


def test_two_block_selections_match_per_cut_forms():
    """The array selections of the two-block lab give exactly what the
    per-cut forms give: the slope path equals the ``Fraction`` oracle
    (segments, exact K, delta, contrast and keys compared with ==), and
    the argmin and the oracle loss are equal bit for bit."""
    labs, count = {}, 0
    for n, density, sample in chain(_two_block_samples(), _sliver_samples()):
        if (n, density.kind) not in labs:
            labs[n, density.kind] = TwoBlockLab(n, density)
        lab = labs[n, density.kind]
        ev, per_cut = lab.evaluate(sample), PerCutTwoBlock(lab, sample)
        for complexity in ("dim", "dmw"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")     # no breakpoint at 1 / 0
                path, keys = ev._path(complexity)
            assert (path, keys) == per_cut.exact_path(complexity), (
                n, complexity)
            assert ev.path(complexity) == path
        for complexity in ("dim", "dmw", "d_exact"):
            for k_const in (0.0, 0.5, 2.0, 3.7):
                assert (ev._argmin(k_const, complexity)
                        == per_cut.argmin(k_const, complexity))
        assert ev.oracle_loss() == per_cut.oracle_loss()
        count += 1
    assert count >= 300


def test_breakpoint_order_settles_float_ties():
    """Breakpoints sort by cut, then exact K, equal K counting once, also
    where unequal K round to the same double: a / b < c / d = a / b +
    1 / (b d) with b, d near 2^31 (int64), and the settle lines' K near
    2^40 / 2^30 (Python ints, as ``lower_envelope`` returns them)."""
    for b, a, dtype in ((2 ** 31 - 1, 2 ** 30 + 7, np.int64),
                        (2 ** 30 + 3, 2 ** 40 + 12345, object)):
        d = -pow(a, -1, b) % b
        c = (a * d + 1) // b
        assert a / b == c / d
        cut = np.array([1, 0, 0, 1, 0, 1, 0])
        num = np.array([c, c, a, a, 1, 2, a], dtype=dtype)
        den = np.array([d, d, b, b, 3, 1, b], dtype=dtype)
        order, last = harness._breakpoint_order(cut, num, den)
        keys = [(int(k), Fraction(int(p), int(q)))
                for k, p, q in zip(cut, num, den)]
        assert [keys[i] for i in order] == sorted(keys)
        assert last.tolist() == [keys[i] != keys[j] for i, j
                                 in zip(order, order[1:])] + [True]


def test_undominated_lines_match_pairwise_definition():
    """A line is kept unless another line is at least as flat and strictly
    cheaper at K = 0 (ratios over per-line denominators, exact ties
    among them), also where slope x denominator passes 2^63, and for two
    unequal slopes a / b < c / d = a / b + 1 / (b d) that round to the
    same double, the flatter line dearer."""
    a, b = 2 ** 40 + 12345, 2 ** 30 + 3
    d = -pow(a, -1, b) % b
    c = (a * d + 1) // b
    inputs = [(np.array([a, c]), np.array([0, -d]), np.array([b, d]))]
    gen = np.random.default_rng(31)
    for big in (False, True):
        for _ in range(60):
            m = int(gen.integers(1, 40))
            dens = gen.choice([6, 10, 12, 15], size=m)
            slopes = gen.integers(0, 5, size=m) * dens // gen.choice(
                [1, 2, 3], size=m)
            intercepts = -gen.integers(0, 4, size=m) * dens
            if big:
                dens, slopes = dens << 30, slopes << 40
            inputs.append((slopes, intercepts, dens))
    assert a / b == c / d
    for slopes, intercepts, dens in inputs:
        keep = harness._undominated(slopes, intercepts, dens)
        frac = [(Fraction(int(s), int(d)), Fraction(int(c), int(d)))
                for s, c, d in zip(slopes, intercepts, dens)]
        assert keep.tolist() == [
            i for i, (s, c) in enumerate(frac)
            if not any(s2 <= s and c2 < c for s2, c2 in frac)]


@pytest.mark.parametrize("n", [100, 200])
def test_two_block_path_memory_within_evaluate(n):
    """Neither slope path holds more memory at its peak than the
    evaluation of the sample does."""
    lab = TwoBlockLab(n, PowerLaw())
    sample = PowerLaw().sample(n, RngStream(30, 0, "data"))

    def peak(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn()
            return tracemalloc.get_traced_memory()[1] - base, out
        finally:
            tracemalloc.stop()

    limit, ev = peak(lambda: lab.evaluate(sample))
    for complexity in ("dim", "dmw"):
        assert peak(lambda: ev.path(complexity))[0] <= limit, complexity


def _two_block_eval(left_a, right_a, d_exact=None):
    """A two-block evaluation of n = 4 from per-cut A arrays alone, with
    T = A s n / j, which gives the exact shares -j T / (s n) the same
    values (the A here make every such T an integer), and D from
    ``d_exact`` (0 by default)."""
    n = 4
    cells = np.array([[1, 2, 3], [3, 2, 1]])
    t_sq = np.zeros((2, 3, 3), dtype=np.int64)
    for side, blocks in enumerate((left_a, right_a)):
        for kk, a in enumerate(blocks):
            for j, share in enumerate(a, start=1):
                t = Fraction(share) * int(cells[side, kk]) * n / j
                assert t.denominator == 1
                t_sq[side, kk, j - 1] = int(t)
    cuts = np.arange(1, n) / n
    valid = np.arange(n - 1) < cells[:, :, None]
    width_inv = np.arange(1, n) / np.concatenate((cuts, 1.0 - cuts))[:, None]
    lab = SimpleNamespace(n=n, s_norm=0.0, cells=cells, valid=valid,
                          line_slopes=(np.arange(1, n) * (n * cells)[:, :, None])
                          .reshape(6, 3),
                          blocks=SimpleNamespace(
                              width_inv=width_inv * valid.reshape(6, 3)),
                          d_exact=(np.zeros((2, 3, 3)) if d_exact is None
                                   else d_exact))
    ev = _TwoBlockEvaluation(lab=lab, t_sq=t_sq,
                             count=np.zeros((2, 3), dtype=np.int64),
                             loss=np.zeros((2, 3, 3)))
    for side, blocks in enumerate((left_a, right_a)):
        for kk, a in enumerate(blocks):
            assert ev.contrast[side, kk, :len(a)].tolist() == [-x for x in a]
    return ev


def test_ties_go_to_criterion_then_complexity_then_order():
    """Both labs break exact criterion ties on the smaller complexity, then
    on the earlier model in enumeration order (k, then j1, then j2)."""
    ev = _Evaluation(ids=["a", "b", "c"], dims=np.array([3.0, 1.0, 1.0]),
                     contrasts=np.full(3, -1.0), dmws=np.zeros(3),
                     losses=np.ones(3), d_exact=np.zeros(3), n=4)
    assert ev.argmin(0.0, "dim").model_id == "b"
    # every cut reaches contrast -1; the best dimensions are 3, 3 and 2
    left = ([0.5], [0.25, 0.5], [0.5, 0.5, 0.5])
    right = ([0.25, 0.5, 0.5], [0.5, 0.25], [0.5])
    row = _two_block_eval(left, right).argmin(0.0, "dim")
    assert (row.model_id, row.dim) == ("two-block:k=3,j1=1,j2=1", 2)
    # with dimension 3 at the last cut too, the first cut wins
    ev = _two_block_eval(([0.5], [0.25, 0.5], [0.25, 0.5, 0.5]), right)
    assert ev.argmin(0.0, "dim").model_id == "two-block:k=1,j1=1,j2=2"
    # a float tie under d_exact goes to the smaller D, whatever the dims:
    # only k=1, j2=3 (dim 4) has D 1.5, every other model D 2
    d_exact = np.ones((2, 3, 3))
    d_exact[1, 0, 2] = 0.5
    row = _two_block_eval(left, right, d_exact).argmin(0.0, "d_exact")
    assert (row.model_id, row.d_exact) == ("two-block:k=1,j1=1,j2=3", 1.5)
    ev = _Evaluation(ids=["a", "b", "c"], dims=np.array([1.0, 2.0, 3.0]),
                     contrasts=np.full(3, -1.0), dmws=np.zeros(3),
                     losses=np.ones(3), d_exact=np.array([0.5, 0.25, 0.75]),
                     n=4)
    assert ev.argmin(0.0, "d_exact").model_id == "b"
    # a full dmw tie (equal criterion and dmw) goes to the earlier model,
    # not the smaller dim: at n = 3 seed 26 the three points lie in
    # [2/3, 1), one cell of either model, both of criterion -3 and dmw 0
    sample = PowerLaw().sample(3, RngStream(26, 0, "data"))
    ev = TwoBlockLab(3, PowerLaw()).evaluate(sample)
    row, later = ev.argmin(2.0, "dmw"), ev._row((1, 0, 0), 0.0)
    assert row.model_id == exact_argmin("two-block", sample, 2.0, "dmw")
    assert (row.model_id, later.model_id) == ("two-block:k=1,j1=1,j2=2",
                                              "two-block:k=2,j1=1,j2=1")
    assert (row.criterion, row.dmw) == (later.criterion, later.dmw)
    assert row.dmw == 0.0 and row.dim > later.dim


@pytest.mark.parametrize("kind,sizes", [
    ("regular-hist", range(2, 41)),
    ("two-block", (*range(2, 13), 16, 20, 25, 31, 40))])
def test_argmin_equals_fraction_oracle(kind, sizes):
    """Both histogram labs pick, under dim and dmw penalties, the exact
    argmin of the Fraction oracle: the exact slope path's segment at
    K / n.  Exact ties are common here, and floats round tied rationals
    apart."""
    for n in sizes:
        lab = make_lab(kind, n, PowerLaw())
        for seed in range(3 if kind == "regular-hist" else 1):
            sample = PowerLaw().sample(n, RngStream(seed, n, "tie"))
            ev = lab.evaluate(sample)
            for k_const in (0.5, 1.0, 2.0, 2.5):
                for complexity in ("dim", "dmw"):
                    want = exact_argmin(kind, sample, k_const, complexity)
                    got = ev.argmin(k_const, complexity).model_id
                    assert got == want, (n, seed, k_const, complexity)


def test_argmin_is_the_path_at_every_breakpoint():
    """On both histogram labs and under dim and dmw, the path's segment at
    every exact breakpoint, and ``argmin`` at K = 0, 0.5, 1, 2, 3 and at
    the float of every breakpoint's K, is the model of the Fraction
    oracle: the least criterion, then complexity, then the earliest."""
    for kind in ("regular-hist", "two-block"):
        for n in (3, 5, 7, 10, 13):
            for density in (PowerLaw(), Uniform(), STEP):
                lab = make_lab(kind, n, density)
                for seed in range(3):
                    sample = density.sample(n, RngStream(seed, n, "scan"))
                    ev = lab.evaluate(sample)
                    for complexity in ("dim", "dmw"):
                        path = ev.path(complexity)
                        for k in path.breakpoints:
                            assert path.segment_at(k).model_id == exact_argmin(
                                kind, sample, k * n, complexity), (n, k)
                        for k_const in (0.0, 0.5, 1.0, 2.0, 3.0,
                                        *(float(k * n)
                                          for k in path.breakpoints)):
                            got = ev.argmin(k_const, complexity).model_id
                            assert got == exact_argmin(
                                kind, sample, k_const, complexity), (
                                    kind, n, seed, complexity, k_const)


def test_a_replication_builds_each_path_once(monkeypatch):
    """resampling reads the dmw path that resampling-slope picks from, so
    a replication of every method builds one dim and one dmw path."""
    built = []
    for cls in (labs._Evaluation, twoblock._TwoBlockEvaluation):
        monkeypatch.setattr(cls, "_build_path",
                            lambda ev, c, _build=cls._build_path:
                            built.append((ev, c)) or _build(ev, c))
    for example, n in ((1, 12), (2, 8)):
        built.clear()
        run_example(example, n, 3, methods=ALL_METHODS, seed=4)
        evs = {id(ev) for ev, _ in built}
        assert len(evs) == 3
        assert sorted((id(ev), c) for ev, c in built) == sorted(
            (ev, c) for ev in evs for c in ("dim", "dmw"))


def test_two_block_dim_penalties_match_spec_dims():
    lab = TwoBlockLab(6, PowerLaw())
    s = PowerLaw().sample(6, RngStream(24, 0, "data"))
    out = lab.evaluate(s).apply(Method("slope-dim"))
    assert out.selected.startswith("two-block:k=")


def test_run_example_reproducible():
    a = run_example(1, 30, 12, seed=5)
    b = run_example(1, 30, 12, seed=5)
    for m in a.methods:
        assert np.array_equal(a.ratios[m], b.ratios[m])
        assert a.selected[m] == b.selected[m]
    c = run_example(1, 30, 12, seed=6)
    assert any(not np.array_equal(a.ratios[m], c.ratios[m]) for m in a.methods)


def test_run_example_single_replication():
    rep = run_example(1, 25, 1, seed=9)
    for m in rep.methods:
        mean, med, q95 = rep.stats(m)
        assert mean == med == q95 == rep.ratios[m][0]


def test_run_example_threads_identical():
    a = run_example(1, 30, 10, seed=11, threads=1)
    b = run_example(1, 30, 10, seed=11, threads=2)
    for m in a.methods:
        assert np.array_equal(a.ratios[m], b.ratios[m])
        assert a.selected[m] == b.selected[m]


def test_run_example_two_block_small():
    rep = run_example(2, 12, 8, seed=13)
    assert rep.collection == "two-block"
    for m in rep.methods:
        assert np.all(rep.ratios[m] >= 1.0 - 1e-9)


def test_run_example_validation():
    with pytest.raises(ValueError):
        run_example(3, 10, 5)
    with pytest.raises(ValueError):
        run_example(1, 1, 5)


def test_ideal_two_is_competitive():
    """The deterministic 2D/n penalty is the target the data-driven
    methods estimate; its median cannot lag behind theirs by more than
    Monte-Carlo noise."""
    rep = run_example(1, 100, 200, methods=ALL_METHODS, seed=17)
    med_ideal = rep.stats("ideal:2")[1]
    for m in rep.methods:
        assert med_ideal <= rep.stats(m)[1] + 0.15


def test_make_lab_kinds():
    assert isinstance(make_lab("two-block", 5, PowerLaw()), TwoBlockLab)
    assert isinstance(make_lab("regular-hist", 5, PowerLaw()), CollectionLab)
    assert make_lab("fourier", 4, PowerLaw()).kind == "fourier"
    # the lab generates the ids and dims of the oracle's model list
    for kind in ("regular-hist", "fourier"):
        for n in (1, 2, 7, 100):
            lab, col = make_lab(kind, n, PowerLaw()), build_collection(kind, n)
            assert lab.ids == [m.id for m in col]
            assert lab.dims.tolist() == [m.dim for m in col]


def test_penalty_sweep_phenomenology():
    rep = penalty_sweep("regular-hist", 100, [0.0, 0.5, 1.0, 2.0], 60, seed=19)
    assert rep.mean_d_ratio[0] >= 0.9            # no penalty: maximal variance
    assert rep.mean_d_ratio[-1] < 0.2            # twice-minimal: collapses
    diffs = np.diff(rep.mean_d_ratio)
    assert np.all(diffs <= 0.02)                 # non-increasing up to noise


def test_penalty_sweep_validation():
    with pytest.raises(ValueError):
        penalty_sweep("regular-hist", 20, [], 5)
    with pytest.raises(ValueError):
        penalty_sweep("regular-hist", 1, [1.0], 5)
    with pytest.raises(ValueError):
        penalty_sweep("regular-hist", 20, [0.5, 0.5], 5)


def test_penalty_sweep_two_block_runs():
    rep = penalty_sweep("two-block", 8, [0.0, 2.0], 6, seed=20)
    assert rep.mean_d_ratio.shape == (2,)
    assert rep.mean_d_ratio[1] <= rep.mean_d_ratio[0] + 1e-12
