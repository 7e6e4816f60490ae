"""The two-block family's lab: the block engine on every cut's blocks.

A model (k, j1, j2) has j1 equal cells on [0, k/n) and j2 on [k/n, 1].
Each of its statistics is a left term depending on (k, j1) plus a right
term depending on (k, j2), held as (side, cut, cells) arrays, so the
float argmin under ``d_exact`` over roughly n^3/6 models costs O(n^2)
array work per replication.  An evaluation keeps the integer T = sum c^2,
the block counts and the loss, and makes the contrast and dmw shares
from them where a caller reads them.  Its slope paths run on integer
lines, as the regular histograms' do: the path prunes the lower
envelopes of all blocks in one integer batch, merges each cut's two
envelopes by their exact breakpoints, and runs the exact hull once more
on the merged lines that no other line beats at K = 0, each over its own
denominator; the breakpoints stay integer pairs, and ``Fraction``s are
made only when the path's segments are read.  The ``dim`` and ``dmw``
argmin is a segment of that path.  The block-by-block evaluation and
selections (the path in ``Fraction``s) are in ``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

from . import slope
from .densities import Density, Sample
from .labs import (ModelRow, _LabEvaluation, _bin_counts, _block_row,
                   _contrast_part, _row_stats, _variance_part)

__all__ = ["TwoBlockLab"]


class TwoBlockLab:
    """Separable evaluation of the two-block family.

    For a model (k, j1, j2) every statistic is a sum of a left term indexed
    by (k, j1) and a right term indexed by (k, j2).  The block engine gives
    all of them at once from one row of blocks, the left blocks of every
    cut and then the right ones: its binning pass runs over chunks of
    consecutive blocks, and its tables are one padded array for the whole
    row rather than one table per block.  They come as (2, n-1, n-1)
    arrays indexed by (side, cut k - 1, cells j - 1), side 0 the left
    block [0, k/n) with j <= k cells and side 1 the right block with
    j <= n - k; ``valid`` marks the existing entries, ``d_exact`` holds D
    (0 elsewhere).  An evaluation keeps only the integer T = sum c^2 per
    (side, cut, cells), the block counts and the loss: the slope paths
    build integer lines from T and the counts, and the contrast and V are
    made from them when read.  Selections are array operations
    over all cuts: the ``d_exact`` argmin reduces per (side, cut), and the
    slope path, whose segments are also the ``dim`` and ``dmw`` argmin,
    prunes the lower envelopes of all 2(n-1) blocks in one integer batch,
    merges each cut's two envelopes by their exact breakpoints and runs
    the exact hull once more on the merged lines that may be on it, over
    their own denominators.
    """

    def __init__(self, n: int, density: Density):
        if n < 2:
            raise ValueError("the two-block family needs n >= 2")
        self.n = n
        self.kind = "two-block"
        self.density = density
        self.s_norm = density.l2_norm_sq()
        self.cuts = np.arange(1, n) / n
        fcut = np.asarray(density.cdf(self.cuts))
        m = n - 1
        # s per (side, cut): the block is s / n wide, with up to s cells
        self.cells = cells = np.stack((np.arange(1, n), np.arange(m, 0, -1)))
        self.valid = np.arange(m) < cells[:, :, None]
        # the left blocks [0, k/n) for k = 1..n-1, then the right blocks
        self.blocks = _block_row(
            density, np.concatenate((np.zeros(m), self.cuts)),
            np.concatenate((self.cuts, np.ones(m))),
            np.concatenate((fcut, 1.0 - fcut)), cells.ravel(), n)
        self.d_exact = self.blocks.d.reshape(2, m, m)
        self.d_max = float(np.where(self.valid, self.d_exact, -np.inf)
                           .max(axis=2).sum(axis=0).max())
        # the slopes j s n of the blocks' dim lines, one row per block
        self.line_slopes = (np.arange(1, n) * (n * cells)[:, :, None]).reshape(
            2 * m, m)

    def evaluate(self, sample: Sample):
        n, m = self.n, self.n - 1
        pts = sample.points if sample.sorted_flag else np.sort(sample.points)
        n_left = np.searchsorted(pts, self.cuts, side="left")
        count = np.concatenate((n_left, n - n_left))
        first = np.concatenate((np.zeros(m, dtype=np.int64), n_left))
        t, w = _bin_counts(self.blocks, pts, first, count)
        loss = _row_stats(self.blocks, t, w, n)[1].reshape(2, m, m)
        loss[~self.valid] = np.inf
        return _TwoBlockEvaluation(lab=self, t_sq=t.reshape(2, m, m),
                                   count=count.reshape(2, m), loss=loss)


def _two_block_id(kk: int, i1: int, i2: int) -> str:
    return f"two-block:k={kk + 1},j1={i1 + 1},j2={i2 + 1}"


def _breakpoint_order(cut: np.ndarray, num: np.ndarray, den: np.ndarray):
    """Order of the breakpoints num / den (den > 0) by cut, then exact K,
    and along it whether each is the last one of its cut and K.

    num and den are at most n^3, so their floats are exact and num / den
    is correctly rounded; rounding is monotone, so unequal floats order
    unequal K.  Equal floats are compared by cross-multiplying, within
    2^63 for the integers of ``lower_envelope``.  Unequal K differ by a
    relative 1 / n^6 or more, which keeps their floats apart up to
    n = 406; past that a float tie may hide unequal K, and then the
    breakpoints are sorted as ``Fraction``s."""
    order = np.lexsort((np.asarray(num / den, dtype=float), cut))
    c, p, q = cut[order], num[order], den[order]
    if np.any((c[1:] == c[:-1]) & (p[:-1] * q[1:] > p[1:] * q[:-1])):
        order = np.array(sorted(range(cut.size), key=lambda i: (
            cut[i], Fraction(int(num[i]), int(den[i])))), dtype=np.int64)
        c, p, q = cut[order], num[order], den[order]
    last = np.ones(cut.size, dtype=bool)
    last[:-1] = (c[1:] != c[:-1]) | (p[:-1] * q[1:] != p[1:] * q[:-1])
    return order, last


def _undominated(slopes: np.ndarray, intercepts: np.ndarray,
                 dens: np.ndarray) -> np.ndarray:
    """Indices, increasing, of the lines (intercepts + K slopes) / dens
    that no other line beats by being at least as flat and strictly
    cheaper at K = 0: a superset of the lines on the lower envelope, which
    the exact hull narrows down.

    Every term is below 2^53 (n^4 for any n whose lab fits in memory), so
    the ratios' floats are correctly rounded; rounding is monotone, so
    unequal floats order the ratios, and equal ones beat nothing.  Equal
    float slopes are compared exactly by cross-multiplying, at most
    n^7 / 4: in int64 up to n = 624 and in Python ints past that."""
    fs, fc = slopes / dens, intercepts / dens
    order = np.lexsort((fc, -fs))
    fs, fc = fs[order], fc[order]
    # the cheapest strictly flatter line, past the run of equal floats
    cheapest = np.append(np.minimum.accumulate(fc[::-1])[::-1], np.inf)
    keep = fc <= cheapest[np.searchsorted(-fs, -fs, side="right")]
    # the cheapest line of a run of exactly equal slopes is its first
    if int(np.abs(slopes).max()) * int(dens.max()) >= 2 ** 63:
        slopes, dens = slopes.astype(object), dens.astype(object)
    s, d = slopes[order], dens[order]
    tied = np.zeros(fs.size, dtype=bool)
    tied[1:] = (fs[1:] == fs[:-1]) & (s[1:] * d[:-1] == s[:-1] * d[1:])
    run = np.maximum.accumulate(np.where(tied, 0, np.arange(fs.size)))
    keep &= fc <= fc[run]
    return np.sort(order[keep])


class _TwoBlockEvaluation(_LabEvaluation):
    """Block statistics of one replication as (side, cut, cells) arrays: the
    integer T = sum c^2 over the cells (no sum where no model is) and L of
    the loss (+inf there), with each block's count c as a (side, cut)
    array.  A model's key is (cut index, left cell index, right cell index).

    The block's share -A of the contrast and V of the variance part of dmw
    are made from T and c with the float operations of the block engine
    (``labs._contrast_part`` and ``labs._variance_part``): as whole arrays
    (``contrast``, +inf where no model is, and ``var``, 0 there) once a
    caller reads them, and at the two blocks of a selected model alone for
    its row.

    The slope paths run on integer lines.  A block of s / n (s = k left
    of cut k / n, n - k right of it) with j cells has contrast share
    -j T / (s n) and dmw share j (n c - T) / (s (n - 1)), so its line
    times s n is -j T + K j s n for ``dim`` and -j T + K' j (n c - T)
    for ``dmw``, in the unit K' = K n / (n - 1); a cut's merged line is
    the sum of its blocks' lines over the denominator D = k (n - k) n.
    Both paths of an evaluation share the blocks' envelopes: a block's
    ``dmw`` envelope is the start of its ``dim`` one."""

    def __init__(self, lab, t_sq, count, loss):
        self.lab, self.t_sq, self.count, self.loss = lab, t_sq, count, loss
        self.n, self._paths = lab.n, {}

    @cached_property
    def contrast(self) -> np.ndarray:
        contrast = np.negative(_contrast_part(
            self.lab.blocks.width_inv.reshape(self.t_sq.shape), self.t_sq,
            self.n))
        contrast[~self.lab.valid] = np.inf
        return contrast

    @cached_property
    def var(self) -> np.ndarray:
        """V, 0 where no model is: the inverse cell width is 0 there."""
        return _variance_part(self.lab.blocks.width_inv.reshape(
            self.t_sq.shape), self.t_sq, self.count[:, :, None], self.n)

    def _shares(self, kk: int, i1: int, i2: int):
        """(-A, V) of the left block (kk, i1) and the right block (kk, i2),
        the floats of ``contrast`` and ``var`` there."""
        i = np.array([i1, i2])
        width_inv = self.lab.blocks.width_inv[[kk, self.n - 1 + kk], i]
        t = self.t_sq[(0, 1), kk, i]
        return (-_contrast_part(width_inv, t, self.n),
                _variance_part(width_inv, t, self.count[:, kk], self.n))

    def _argmin(self, k_const: float, complexity: str):
        n = self.n
        # k dmw / n with dmw = n/(n-1) (V_left + V_right)
        scale = k_const / (n - 1.0) if complexity == "dmw" else k_const / n
        if complexity == "dim":
            kk, i1, i2 = self._path_key(k_const, complexity)
            parts = (i1 + 1.0, i2 + 1.0)
        elif complexity == "dmw":
            kk, i1, i2 = self._path_key(k_const, complexity)
            parts = self._shares(kk, i1, i2)[1]
        else:
            part = self.lab.d_exact
            g = scale * part + self.contrast
            mins = g.min(axis=2)
            crits = mins[0] + mins[1]
            crit = crits.min()
            # float ties: rounding is monotone, so a pair sums to crit only
            # if each of its parts does so with the other block's minimum
            _, kk, i1, i2 = min(
                (part[0, kk, i1] + part[1, kk, i2], kk, i1, i2)
                for kk in np.flatnonzero(crits == crit).tolist()
                for i1 in np.flatnonzero(g[0, kk] + mins[1, kk] == crit).tolist()
                for i2 in np.flatnonzero(mins[0, kk] + g[1, kk] == crit).tolist()
                if g[0, kk, i1] + g[1, kk, i2] == crit)
            parts = (part[0, kk, i1], part[1, kk, i2])
        return (kk, i1, i2), scale * parts[0] + scale * parts[1]

    @cached_property
    def _block_envelopes(self):
        """The lower envelopes of every block's ``dim`` lines, pieces row by
        row (left blocks, then right blocks): (index, num, den), each piece
        starting at K = num / den, 0 / 1 at a row's first piece.  The lines
        -j T + K j s n, at most n^3 in size, are the block's shares times
        s n."""
        m = self.n - 1
        # looked up on ``slope`` at call time, so that a wrapper installed
        # there (benchmarks/tracer.py) sees the call
        idx, (num, den) = slope.lower_envelope(
            self.lab.line_slopes,
            (-np.arange(1, self.n) * self.t_sq).reshape(2 * m, m),
            self.lab.cells.ravel())
        return idx, num, den

    def _build_path(self, complexity: str):
        lab = self.lab
        n, m = lab.n, lab.n - 1
        idx, num, den = self._block_envelopes
        if complexity == "dim":
            delta_max = float(n)
        else:
            # V >= 0 and 0 where no model is; x -> x n / (n - 1) rounds
            # monotonely, so scaling the largest V scales the largest share
            tops = self.var.max(axis=2) * n / (n - 1.0)
            delta_max = float((tops[0] + tops[1]).max())
            # the dmw lines -j T + K' j (n c - T) are (1 + K') (-j T + w j)
            # at w = n c K' / (1 + K'), which runs over [0, n c) as K' runs
            # over [0, inf), and the dim lines are -j T + w j at w = K s n:
            # a block's dmw envelope is its dim one up to w = n c.  A dim
            # piece starts at w = num / d, d the drop in j, so at
            # K' = num / (d n c - num).  As T <= c^2, w <= c^2 <= n c:
            # only a piece starting at w = n c (all n points in one cell)
            # never starts
            at = np.divmod(idx // m, m)
            reach = den // (n * lab.cells[at]) * (n * self.count[at])
            keep = (num < reach) | (num == 0)
            idx, num = idx[keep], num[keep]
            den = np.where(num == 0, 1, reach[keep] - num)
        row, col = np.divmod(idx, m)
        head = np.ones(idx.size, dtype=bool)   # each row's first piece
        head[1:] = row[1:] != row[:-1]
        first = np.flatnonzero(head).reshape(2, m)
        # per cut, the sorted union of both blocks' breakpoints, equal K on
        # both sides counting once; past each, the cut's envelope (the
        # Minkowski sum of its two block envelopes) takes from each block
        # the piece after the last of its breakpoints passed so far
        brk = np.flatnonzero(~head)
        side, cut = np.divmod(row[brk], m)
        order, last = _breakpoint_order(cut, num[brk], den[brk])
        side, cut = side[order], cut[order]
        passed = np.cumsum(np.stack((1 - side, side)), axis=1)
        cut = cut[last]
        nbrk = np.diff(first.ravel(), append=idx.size).reshape(2, m) - 1
        passed = passed[:, last] - (np.cumsum(nbrk, axis=1) - nbrk)[:, cut]
        # every cut's lines in K order: the two first pieces, then one line
        # past each breakpoint
        lcut = np.concatenate((np.arange(m), cut))
        order = np.argsort(lcut, kind="stable")
        lcut = lcut[order]
        steps = np.concatenate((np.zeros((2, m), dtype=passed.dtype), passed),
                               axis=1)[:, order]
        i1, i2 = col[first[:, lcut] + steps]
        # a cut's line is the sum of its blocks' lines times s n over
        # D = k (n - k) n; at most n^4 in size, int64 holds it for any n
        # whose lab fits in memory
        k = lcut + 1
        t1, t2 = self.t_sq[0, lcut, i1], self.t_sq[1, lcut, i2]
        d_cut = k * (n - k) * n
        c_cut = -(i1 + 1) * t1 * (n - k) - (i2 + 1) * t2 * k
        if complexity == "dim":
            s_cut = d_cut * (i1 + i2 + 2)
        else:
            s_cut = ((i1 + 1) * (n * self.count[0, lcut] - t1) * (n - k)
                     + (i2 + 1) * (n * self.count[1, lcut] - t2) * k)
        # the hull takes the lines that may be on it, over their own
        # denominators; a full tie keeps the earliest cut
        kept = _undominated(s_cut, c_cut, d_cut)
        tags = list(zip(lcut[kept].tolist(), i1[kept].tolist(),
                        i2[kept].tolist()))
        path, hull = slope.envelope_path(
            c_cut[kept], s_cut[kept], lambda i: _two_block_id(*tags[i]),
            delta_max, (Fraction(1), Fraction(1) if complexity == "dim"
                        else Fraction(n, n - 1)), dens=d_cut[kept])
        return path, [tags[i] for i in hull]

    def _row(self, key: tuple[int, int, int], penalty: float) -> ModelRow:
        kk, i1, i2 = key
        n = self.n
        contrast, var = self._shares(kk, i1, i2)
        return ModelRow(
            model_id=_two_block_id(kk, i1, i2),
            criterion=float(penalty + contrast[0] + contrast[1]),
            penalty=float(penalty), dim=i1 + i2 + 2,
            dmw=float((var[0] + var[1]) * n / (n - 1.0)),
            d_exact=float(self.lab.d_exact[0, kk, i1]
                          + self.lab.d_exact[1, kk, i2]),
            loss=float(self.lab.s_norm + self.loss[0, kk, i1]
                       + self.loss[1, kk, i2]))

    def oracle_loss(self) -> float:
        best = self.loss.min(axis=2)
        return self.lab.s_norm + (best[0] + best[1]).min()

