"""Selection, the exact penalty-constant path, jump detection."""

import numpy as np
import pytest

from densel.slope import (LOG_THRESHOLD, MAX_JUMP, NoJumpError, detect_kmin,
                          lower_envelope, slope_pick)
from oracles import PenaltyValue, lower_envelope_chain, select, slope_path

ABC = [("A", -1.0, 10.0), ("B", -0.5, 4.0), ("C", 0.0, 1.0)]


def _pens(values):
    return [PenaltyValue(mid, v) for mid, v in values]


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def test_select_arithmetic():
    res = select([("a", -1.0), ("b", -0.5)],
                 _pens([("a", 0.6), ("b", 0.05)]))
    assert res.model_id == "b"
    assert res.criterion == pytest.approx(-0.45)
    assert res.penalty == pytest.approx(0.05)


def test_select_tie_smaller_dimension():
    res = select([("big", -1.0), ("small", -1.0)],
                 _pens([("big", 0.5), ("small", 0.5)]),
                 dims={"big": 7, "small": 2})
    assert res.model_id == "small"


def test_select_tie_lexicographic():
    res = select([("zeta", -1.0), ("alpha", -1.0)],
                 _pens([("zeta", 0.5), ("alpha", 0.5)]))
    assert res.model_id == "alpha"


def test_select_single_model():
    assert select([("only", -0.3)], _pens([("only", 0.1)])).model_id == "only"


def test_select_id_mismatch():
    with pytest.raises(ValueError):
        select([("a", -1.0)], _pens([("b", 0.1)]))
    with pytest.raises(ValueError):
        select([], [])


# ---------------------------------------------------------------------------
# slope_path
# ---------------------------------------------------------------------------

def test_path_abc_example():
    path = slope_path(ABC)
    ids = [seg.model_id for seg in path.segments]
    assert ids == ["A", "B", "C"]
    assert path.breakpoints == pytest.approx([1.0 / 12.0, 1.0 / 6.0])
    assert path.segments[0].k_lo == 0.0
    assert path.segments[-1].k_hi == np.inf


def test_path_single_model():
    path = slope_path([("only", -0.5, 3.0)])
    assert len(path.segments) == 1
    assert path.segments[0].k_lo == 0.0
    assert path.model_at(0.0) == "only" and path.model_at(99.0) == "only"


def test_path_duplicate_lines_pruned():
    base = slope_path(ABC)
    dup = slope_path(ABC + [("A2", -1.0, 10.0)])
    assert [s.model_id for s in dup.segments] == [s.model_id
                                                  for s in base.segments]
    dup2 = slope_path(ABC + [("0A", -1.0, 10.0)])
    assert dup2.segments[0].model_id == "0A"   # lexicographically smaller id


def test_path_dominated_line_absent():
    pts = ABC + [("D", 0.5, 5.0)]  # worse contrast, mid slope: never optimal
    path = slope_path(pts)
    assert "D" not in [s.model_id for s in path.segments]


def test_path_complexities_strictly_decrease():
    gen = np.random.default_rng(0)
    for _ in range(40):
        m = int(gen.integers(1, 120))
        pts = [(f"m{i}", float(gen.normal()), float(gen.random() * 50))
               for i in range(m)]
        path = slope_path(pts)
        deltas = [s.delta for s in path.segments]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        ks = [s.k_lo for s in path.segments]
        assert all(a < b for a, b in zip(ks, ks[1:]))


def test_path_breakpoint_criteria_match():
    gen = np.random.default_rng(1)
    for _ in range(30):
        m = int(gen.integers(2, 80))
        pts = [(f"m{i}", float(gen.normal()), float(gen.random() * 9))
               for i in range(m)]
        path = slope_path(pts)
        by_id = {mid: (c, d) for mid, c, d in pts}
        for left, right in zip(path.segments, path.segments[1:]):
            k = right.k_lo
            cl, dl = by_id[left.model_id]
            cr, dr = by_id[right.model_id]
            assert cl + k * dl == pytest.approx(cr + k * dr, abs=1e-12)


def test_path_matches_grid_brute_force():
    gen = np.random.default_rng(2)
    for _ in range(100):
        m = int(gen.integers(1, 200))
        contrasts = gen.normal(size=m)
        deltas = gen.random(m) * 20.0
        pts = [(f"m{i}", float(contrasts[i]), float(deltas[i]))
               for i in range(m)]
        path = slope_path(pts)
        ks = np.linspace(0.0, 3.0, 2000)
        crit = contrasts[:, None] + ks[None, :] * deltas[:, None]
        winners = np.argmin(crit, axis=0)
        bps = np.array([s.k_lo for s in path.segments])
        for j, k in enumerate(ks):
            if np.min(np.abs(k - bps)) < 1e-9:
                continue
            assert path.model_at(float(k)) == f"m{winners[j]}"


def test_select_consistent_with_path():
    gen = np.random.default_rng(3)
    pts = [(f"m{i}", float(gen.normal()), float(i)) for i in range(30)]
    path = slope_path(pts)
    fits = [(mid, c) for mid, c, _ in pts]
    bps = np.array([s.k_lo for s in path.segments])
    for k in np.linspace(0.001, 2.0, 57):
        if np.min(np.abs(k - bps)) < 1e-9:
            continue
        pens = _pens([(mid, k * d) for mid, _, d in pts])
        assert select(fits, pens).model_id == path.model_at(float(k))


def test_path_scaling_invariance():
    gen = np.random.default_rng(4)
    pts = [(f"m{i}", float(gen.normal()), float(gen.random() * 5))
           for i in range(50)]
    path1 = slope_path(pts)
    c = 3.7
    path2 = slope_path([(mid, contrast, c * d) for mid, contrast, d in pts])
    assert [s.model_id for s in path1.segments] == [s.model_id
                                                    for s in path2.segments]
    assert np.allclose([s.k_lo * (1.0 / c) for s in path1.segments[1:]],
                       [s.k_lo for s in path2.segments[1:]], rtol=1e-12)


def test_negative_complexity_rejected():
    with pytest.raises(ValueError):
        slope_path([("a", 0.0, -1.0)])
    with pytest.raises(ValueError):
        slope_path([])


# ---------------------------------------------------------------------------
# lower_envelope against one chain per set of lines
# ---------------------------------------------------------------------------

def _lines(gen, m):
    """m lines with repeated slopes, exact and within-tolerance intercept
    ties, and collinear runs."""
    kind = gen.integers(4)
    if kind == 0:                                  # integer slopes, ties
        slopes = gen.integers(0, 6, size=m).astype(float)
        intercepts = gen.integers(-4, 4, size=m) / 4.0
    elif kind == 1:                                # collinear through 0
        slopes = gen.permutation(m).astype(float) + 1.0
        intercepts = -slopes * 0.1 / 97.0
    elif kind == 2:                                # near-ties at K = 0
        slopes = gen.random(m) * 5.0
        intercepts = -1.0 + gen.integers(0, 3, size=m) * 4e-13
    else:
        slopes = gen.random(m) * 20.0
        intercepts = gen.normal(size=m)
    return slopes, intercepts


def test_float_hull_matches_chain_row_by_row():
    """One row or a batch with NaN padding, ascending or unsorted rows:
    every row's pieces and starts are those of the chain, exactly."""
    gen = np.random.default_rng(5)
    for _ in range(300):
        rows, width = int(gen.integers(1, 7)), int(gen.integers(1, 30))
        slopes = np.full((rows, width), np.nan)
        intercepts = np.zeros((rows, width))
        for r in range(rows):
            s, c = _lines(gen, int(gen.integers(1, width + 1)))
            if gen.random() < 0.3:                 # increasing slopes
                s = np.unique(s)
                c = c[:s.size]
            at = (np.arange(s.size) if gen.random() < 0.5 else
                  np.sort(gen.choice(width, s.size, replace=False)))
            slopes[r, at], intercepts[r, at] = s, c
        idx, starts = lower_envelope(slopes, intercepts)
        row, col = np.divmod(idx, width)
        for r in range(rows):
            at = np.flatnonzero(~np.isnan(slopes[r]))
            hull, ks = lower_envelope_chain(slopes[r, at], intercepts[r, at])
            assert col[row == r].tolist() == at[hull].tolist()
            assert starts[row == r].tolist() == ks
        if rows == 1:
            one = lower_envelope(slopes[0], intercepts[0])
            assert np.array_equal(one[0], idx) and np.array_equal(one[1], starts)


def test_integer_hull_matches_fraction_chain():
    gen = np.random.default_rng(6)
    for _ in range(200):
        m = int(gen.integers(1, 60))
        slopes = gen.integers(0, 12, size=m)
        intercepts = gen.integers(-40, 40, size=m) * gen.integers(1, 4, size=m)
        hull, starts = lower_envelope(slopes, intercepts)
        assert (hull.tolist(), starts.tolist()) == lower_envelope_chain(
            slopes, intercepts)


# ---------------------------------------------------------------------------
# detect_kmin / slope_pick
# ---------------------------------------------------------------------------

def test_kmin_abc():
    path = slope_path(ABC)
    assert detect_kmin(path, MAX_JUMP, 100) == pytest.approx(1.0 / 12.0)


def test_kmin_two_segments():
    path = slope_path([("A", -1.0, 5.0), ("B", 0.0, 1.0)])
    assert detect_kmin(path, MAX_JUMP, 100) == pytest.approx(0.25)


def test_kmin_single_segment_raises():
    path = slope_path([("only", -1.0, 2.0)])
    with pytest.raises(NoJumpError):
        detect_kmin(path, MAX_JUMP, 100)


def test_kmin_log_threshold():
    # deltas 100 -> 30 -> 20 -> 5; with ln(100) the threshold is 21.7
    pts = [("a", -10.0, 100.0), ("b", -4.0, 30.0), ("c", -2.5, 20.0),
           ("d", 0.0, 5.0)]
    path = slope_path(pts)
    k_min = detect_kmin(path, LOG_THRESHOLD, 100)
    seg = path.segment_at(k_min)
    assert seg.model_id == "c"
    assert k_min == pytest.approx(path.segments[2].k_lo)
    # explicit delta_max overrides the path maximum
    k2 = detect_kmin(path, LOG_THRESHOLD, 100, delta_max=500.0)
    assert path.segment_at(k2).model_id == "a"
    with pytest.raises(ValueError):
        detect_kmin(path, LOG_THRESHOLD, 2)


def test_kmin_earliest_on_ties():
    # equal drops of 4 at both breakpoints; earliest wins
    pts = [("a", -1.0, 9.0), ("b", -0.5, 5.0), ("c", 0.0, 1.0)]
    path = slope_path(pts)
    assert detect_kmin(path, MAX_JUMP, 50) == pytest.approx(
        path.segments[1].k_lo)


def _pick(points):
    """(model id, flag, penalty 2 K_min delta) of the slope pick."""
    path = slope_path(points)
    pos, k_min, flag = slope_pick(path)
    seg = path.segments[pos]
    return seg.model_id, flag, 2.0 * k_min * seg.delta


def test_slope_select_abc():
    model_id, flag, _ = _pick(ABC)
    assert model_id == "C"
    assert flag is None


def test_slope_select_collinear_contrasts():
    """contrast = -K0 * delta: one jump from max to min delta at K0.

    K0 and the deltas are dyadic so every intercept is exact in binary."""
    k0 = 0.5
    deltas = [9.0, 6.0, 3.0, 1.0]
    pts = [(f"m{i}", -k0 * d, d) for i, d in enumerate(deltas)]
    path = slope_path(pts)
    assert [s.delta for s in path.segments] == [9.0, 1.0]
    assert path.breakpoints == pytest.approx([k0])
    assert _pick(pts)[0] == "m3"


def test_slope_select_single_model_fallback():
    model_id, flag, penalty = _pick([("only", -1.0, 4.0)])
    assert model_id == "only"
    assert flag == "no-jump-fallback"
    assert penalty == 0.0
