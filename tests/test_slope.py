"""Selection, the exact penalty-constant path, jump detection."""

from fractions import Fraction

import numpy as np
import pytest

from densel.hull import _rational_envelope
from densel.slope import (LOG_THRESHOLD, MAX_JUMP, NoJumpError, detect_kmin,
                          envelope_path, lower_envelope, slope_pick)
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
    """Rows of float lines, ascending or unsorted, each passed on its own:
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
        for r in range(rows):
            at = np.flatnonzero(~np.isnan(slopes[r]))
            idx, starts = lower_envelope(slopes[r, at], intercepts[r, at])
            hull, ks = lower_envelope_chain(slopes[r, at], intercepts[r, at])
            assert idx.tolist() == hull
            assert starts.tolist() == ks


def test_float_hull_on_long_collinear_rows():
    """Exactly collinear float rows of 40-80 lines, where which rounding
    sliver survives may differ from the chain's: the pieces still form
    the lower envelope under the 1e-12 tie rule.  Each kept line is lowest
    at its piece's midpoint, and no line lies below the envelope at any
    piece's start."""
    gen = np.random.default_rng(8)
    for _ in range(60):
        m = int(gen.integers(40, 81))
        slopes = gen.permutation(m).astype(float) + 1.0
        intercepts = -slopes * 0.1 / 97.0
        idx, starts = lower_envelope(slopes, intercepts)
        ends = np.append(starts[1:], 2.0 * starts[-1] + 1.0)

        def below(k, value):
            """Lines lower than ``value`` at K = k beyond the tie rule."""
            lines = intercepts + k * slopes
            return lines < value - 1e-12 * np.maximum(np.abs(value), 1.0)

        for i, k0, k1 in zip(idx, starts, ends):
            mid = 0.5 * (k0 + k1)
            assert not below(mid, intercepts[i] + mid * slopes[i]).any()
            assert not below(k0, intercepts[i] + k0 * slopes[i]).any()


def _settle_lines():
    """Three lines whose crossings a/b < c/d = a/b + 1/(b d) round to the
    same double: the middle line is on the hull by a margin that only an
    exact comparison sees."""
    a, b = 2 ** 40 + 12345, 2 ** 30 + 3
    d = -pow(a, -1, b) % b                       # 67,854,277
    c = (a * d + 1) // b
    return np.array([b + d + 5, d + 5, 5]), np.array([0, a, a + c])


def test_integer_hull_matches_fraction_chain():
    """One row of integer lines, over unit denominators as
    ``envelope_path`` hands them to the exact hull by default: small
    lines with ties and unsorted slopes, the settle lines, and rows whose
    cross-products pass 2^63, int64 rows and the same rows times 2^40 as
    Python ints.  Pieces and exact starts are those of the chain."""
    gen = np.random.default_rng(6)
    inputs = [_settle_lines()]
    for _ in range(200):
        m = int(gen.integers(1, 60))
        inputs.append((gen.integers(0, 12, size=m),
                       gen.integers(-40, 40, size=m)
                       * gen.integers(1, 4, size=m)))
    for _ in range(100):
        m = int(gen.integers(2, 60))
        slopes = np.cumsum(gen.integers(1, 2 ** 31, size=m))
        intercepts = -np.sort(gen.integers(0, 2 ** 34, size=m))
        inputs.append((slopes, intercepts))
        inputs.append((slopes.astype(object) * 2 ** 40,
                       intercepts.astype(object) * 2 ** 40))
    for slopes, intercepts in inputs:
        hull, num, den = _rational_envelope(
            slopes, intercepts, np.ones(len(slopes), dtype=np.int64))
        want, starts = lower_envelope_chain(slopes, intercepts)
        assert hull.tolist() == want
        assert [Fraction(int(p), int(q)) for p, q in zip(num, den)] == starts
    assert _rational_envelope(*inputs[0], np.ones(3, dtype=np.int64))[
        0].tolist() == [0, 1, 2]


def test_lower_envelope_refuses_one_integer_row():
    """One row of integer lines, int64 or Python ints, goes through the
    exact hull of ``envelope_path``: ``lower_envelope`` refuses it, and
    takes integer slopes with float intercepts as float lines."""
    slopes, intercepts = _settle_lines()
    for s, c in ((slopes, intercepts),
                 (slopes.astype(object), intercepts.astype(object)),
                 (slopes, intercepts.astype(object))):
        with pytest.raises(ValueError):
            lower_envelope(s, c)
    hull, starts = lower_envelope(np.array([2, 1]), np.array([-1.0, 0.0]))
    assert hull.tolist() == [0, 1] and starts.tolist() == [0.0, 1.0]


def test_rational_hull_matches_fraction_chain():
    """Lines over integer denominators, as the two-block lab's pair lines
    come: small lines with equal slopes over unequal denominators and full
    ties, the same lines times 10^9 (whose crossings are compared as
    floats, equal floats exactly), the settle lines over denominators,
    lines whose slopes and intercepts differ by less than their floats
    show, two slopes a / b < c / d = a / b + 1 / (b d) that round to the
    same double with the flatter line dearer (in both orders), int64
    slopes past 2^53 whose floats put the cheaper, exactly steeper line
    flatter, and random rows with many dominated lines, also with slope x
    denominator past 2^63.  Rows aimed at the filter at K = 0: equal float
    slopes over unequal exact ones, the steeper line cheaper; equal float
    intercepts over unequal exact ones, the steeper line cheaper; lines
    beaten only by a line of equal slope; every line but one beaten.
    Rows of the pair lines' sizes (slopes to 2.5e7, denominators to
    2.5e5), whose crossings pass int64 and are pruned in Python ints.
    Rows of three and four lines whose floats sort them the wrong way, so
    that they are sorted by cross-products: the float-tied slopes above,
    the steeper line dearer, in both orders among other lines; equal
    slopes whose intercepts' floats tie, the dearer line first.  Pieces
    and exact starts are those of the chain on the ``Fraction`` lines."""
    gen = np.random.default_rng(9)
    big = 10 ** 17
    settle_d = np.array([3, 5, 7])
    a, b = 2 ** 40 + 12345, 2 ** 30 + 3
    d = -pow(a, -1, b) % b
    c = (a * d + 1) // b
    assert a / b == c / d
    cases = [(np.array([big + 1, big + 2, big + 3]), np.array([-2, 1, 5]),
              np.array([big, big, big])),
             (np.array([big + 2, big + 1, 1]), np.array([-big, -big - 1, 0]),
              np.array([big, big, 1])),
             tuple(x * settle_d for x in _settle_lines()) + (settle_d,),
             (np.array([a, c]), np.array([0, -d]), np.array([b, d])),
             (np.array([c, a]), np.array([-d, 0]), np.array([d, b])),
             (np.array([18014679725416958, 198161476979586540]),
              np.array([0, -11]), np.array([1, 11])),
             (np.array([a, c, 1]), np.array([0, -d, 5]), np.array([b, d, 1])),
             (np.array([2, 1]), np.array([-2 ** 60 - 1, -2 ** 60]),
              np.array([1, 1])),
             (np.array([6, 3, 0]),
              np.array([-3 * 2 ** 60 - 3, -3 * 2 ** 60, -3 * 2 ** 60 + 3]),
              np.array([3, 3, 3])),
             (np.array([4, 2, 6, 0]), np.array([1, 0, 3, 5]),
              np.array([2, 1, 3, 1])),
             (np.array([9, 3, 0, 12, 6]), np.array([4, 2, -1, 7, 3]),
              np.array([3, 1, 1, 2, 3])),
             # the float-tied slopes a / b < c / d between a steeper and a
             # flatter line, the steeper of the two dearer: their floats
             # order them the wrong way, so the lines are sorted by
             # cross-products (both orders)
             (np.array([2 * a, a, c, 0]), np.array([-b, 0, d, 5]),
              np.array([b, b, d, 1])),
             (np.array([2 * a, c, a, 0]), np.array([-b, d, 0, 5]),
              np.array([b, d, b, 1])),
             (np.array([c, 0, a, 2 * a]), np.array([d, 7, 0, -b]),
              np.array([d, 1, b, b])),
             # equal slopes, intercepts whose floats tie: the dearer line
             # first in index order (sorted by cross-products), then second
             (np.array([1, 1, 0]), np.array([-2 ** 60, -2 ** 60 - 1, 5]),
              np.array([1, 1, 1])),
             (np.array([1, 1, 0]), np.array([-2 ** 60 - 1, -2 ** 60, 5]),
              np.array([1, 1, 1]))]
    gen = np.random.default_rng(12)
    for _ in range(40):
        m = int(gen.integers(2, 200))
        d = gen.integers(1, 250_000, size=m)
        x = 100.0 * gen.random(m)
        cases.append((np.rint(x * d).astype(np.int64),
                      np.rint((2.0 * gen.random(m) - 10.0 * np.sqrt(x)) * d)
                      .astype(np.int64), d))
    for _ in range(300):
        m = int(gen.integers(1, 40))
        d = gen.integers(1, 7, size=m)
        s = gen.integers(0, 6, size=m) * d
        c = gen.integers(-5, 5, size=m) * gen.integers(1, 4, size=m)
        cases += [(s, c, d), (s * 10 ** 9, c * 10 ** 9, d)]
    gen = np.random.default_rng(31)
    for shift in (False, True):
        for _ in range(60):
            m = int(gen.integers(1, 40))
            d = gen.choice([6, 10, 12, 15], size=m)
            s = gen.integers(0, 5, size=m) * d // gen.choice([1, 2, 3], size=m)
            c = -gen.integers(0, 4, size=m) * d
            if shift:
                d, s = d << 30, s << 40
            cases.append((s, c, d))
    for s, c, d in cases:
        hull, num, den = _rational_envelope(s, c, d)
        lines = [np.array([Fraction(int(a), int(b)) for a, b in zip(x, d)],
                         dtype=object) for x in (s, c)]
        want, starts = lower_envelope_chain(*lines)
        assert hull.tolist() == want
        assert [Fraction(p, q) for p, q in zip(num, den)] == starts


def test_pruned_integer_batch_matches_fraction_chain():
    """A batch of integer rows, each holding its lines in a prefix in
    increasing slope order: small rows with intercept ties mixed with rows
    whose cross-products pass 2^63 (random lines near 2^33, or the settle
    lines).  Every row's pieces and exact starts are those of the chain."""
    gen = np.random.default_rng(7)
    settle_s, settle_c = (x[::-1] for x in _settle_lines())
    for big in (False, True):
        for _ in range(40):
            rows, width = int(gen.integers(1, 9)), int(gen.integers(3, 40))
            sizes = gen.integers(1, width + 1, size=rows)
            slopes = np.cumsum(gen.integers(1, 4, size=(rows, width)), axis=1)
            intercepts = -gen.integers(0, 6, size=(rows, width)) ** 2
            for r in range(rows):
                if big and gen.random() < 0.4:     # the settle lines
                    sizes[r] = 3
                    slopes[r, :3] = settle_s * int(gen.integers(1, 4))
                    intercepts[r, :3] = settle_c - int(gen.integers(0, 9))
                elif big and gen.random() < 0.5:
                    slopes[r] = np.cumsum(gen.integers(1, 2 ** 28,
                                                       size=width))
                    intercepts[r] = -np.sort(gen.integers(0, 2 ** 34,
                                                          size=width))
            idx, (num, den) = lower_envelope(slopes, intercepts, sizes)
            row, col = np.divmod(idx, width)
            assert np.all(np.diff(row) >= 0)
            for r in range(rows):
                hull, ks = lower_envelope_chain(slopes[r, :sizes[r]],
                                                intercepts[r, :sizes[r]])
                assert col[row == r].tolist() == hull
                assert [Fraction(int(p), int(q)) for p, q
                        in zip(num[row == r], den[row == r])] == ks
    for slopes in (np.ones((2, 3)), np.array([[1, 2, 3], [1, 3, 2]])):
        with pytest.raises(ValueError):
            lower_envelope(slopes, np.ones((2, 3), dtype=int), [3, 3])


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


def _exact_path(deltas, contrasts, delta_max, k_unit):
    """A path of integer lines with K in units of ``k_unit``."""
    path, _ = envelope_path(np.array(contrasts), np.array(deltas),
                            lambda i: f"m{i}", delta_max,
                            (Fraction(k_unit), 1))
    return path


def test_log_pick_takes_right_segment_at_exact_breakpoint():
    # deltas 100 -> 20 -> 5 with breakpoints 1/3 and 2/3; ln(100) puts the
    # threshold at 21.7, so K_min = 1/3 and 2 K_min is the breakpoint 2/3,
    # which a float 2 * 0.333... falls just short of
    path = _exact_path([100, 20, 5], [-100, -20, 10], 100, Fraction(1, 3))
    assert path.breakpoints == [Fraction(1, 3), Fraction(2, 3)]
    assert 2.0 * float(Fraction(1, 3)) < Fraction(2, 3)
    assert slope_pick(path, LOG_THRESHOLD, 100) == (2, 1.0 / 3.0, None)
    assert detect_kmin(path, LOG_THRESHOLD, 100) == 1.0 / 3.0


def test_log_pick_single_segment():
    path = _exact_path([4], [-7], 4, 1)
    assert slope_pick(path, LOG_THRESHOLD, 100) == (0, 0.0, None)
    assert slope_pick(path) == (0, 0.0, "no-jump-fallback")


def test_log_pick_without_qualifying_segment():
    # every delta above delta_max / ln(100) = 21.7: K_min is the last
    # breakpoint, 2, and the pick at 4 is the last segment
    path = _exact_path([100, 50, 30], [-100, -50, -10], 100, 1)
    assert path.breakpoints == [1, 2]
    assert slope_pick(path, LOG_THRESHOLD, 100) == (2, 2.0, None)
    with pytest.raises(ValueError):
        slope_pick(path, LOG_THRESHOLD, 2)
    with pytest.raises(ValueError):
        slope_pick(path, "median", 100)
