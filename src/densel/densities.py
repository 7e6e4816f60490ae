"""True densities on [0,1]: exact pdf/cdf/quantile, sampling, and L2 norms.

Three density families are provided.  All are supported on [0,1] and all
expose exact closed forms, so every population quantity in the package
(projection coefficients, model variances, risks) is computed without
estimation error; Fourier coefficients by a Gauss-Legendre rule over the
quantile function.  Adaptive quadrature is only a cross-check in the tests.

* ``PowerLaw``: s(x) = 0.75 * x**(-0.25), unbounded at 0 but square
  integrable; the standard hard case for histogram selection.
* ``Uniform``: s(x) = 1.
* ``PiecewiseConstant``: arbitrary nonnegative step function integrating
  to one, given by breakpoints and cell heights.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream, uniforms

__all__ = [
    "Density",
    "PowerLaw",
    "Uniform",
    "PiecewiseConstant",
    "Sample",
    "UnboundedPointError",
    "density_from_config",
]


class UnboundedPointError(ValueError):
    """Raised when a pdf is evaluated at a point where it is infinite."""


def _check_domain(x: np.ndarray | float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("point outside the support [0, 1]")
    return x


class _Frozen:
    """A value whose fields, named by ``_fields``, are set once by its
    constructor: assigning or deleting one raises ``AttributeError``, and
    equality, hash and repr go by the fields' values, as in a frozen
    dataclass."""

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return (self._values() == other._values()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__name__, ", ".join(
            f"{k}={v!r}" for k, v in zip(self._fields, self._values())))


class Sample(_Frozen):
    """An ordered i.i.d. sample of points in [0,1]."""

    _fields = ("points", "sorted_flag")

    def __init__(self, points: np.ndarray, sorted_flag: bool = True) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("sample must be a non-empty 1-d array")
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise ValueError("sample points must lie in [0, 1]")
        if sorted_flag and np.any(np.diff(pts) < 0.0):
            raise ValueError("sorted_flag set but points are not nondecreasing")
        self._set(pts, sorted_flag)

    @property
    def n(self) -> int:
        return self.points.size


class Density:
    """Common interface of the shipped densities."""

    kind: str = "abstract"
    _fields = ("kind",)             # the fields a frozen density compares by

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError

    def l2_norm_sq(self) -> float:
        """Integral of s**2 over [0,1] (exact)."""
        raise NotImplementedError

    def sample(self, n: int, rng: RngStream,
               u: np.ndarray | None = None) -> Sample:
        """Draw n points by inverse-cdf transform of the first n uniforms
        of ``rng`` (:func:`densel.rng.uniforms`); returned sorted.  ``u``
        passes those uniforms when they were drawn beforehand, in a batch
        of streams."""
        if n < 1:
            raise ValueError("sample size must be >= 1")
        if u is None:
            u = uniforms([rng], n)[0]
        pts = np.sort(self.quantile(u))
        return Sample(points=pts, sorted_flag=True)

    def cell_probabilities(self, breaks: np.ndarray) -> np.ndarray:
        """P(X in cell) for consecutive cells given by breakpoints."""
        f = self.cdf(np.asarray(breaks, dtype=float))
        return np.diff(f)


class PowerLaw(_Frozen, Density):
    """s(x) = 0.75 * x**(-0.25) on [0,1]; F(x) = x**0.75."""

    kind = "powerlaw"

    def pdf(self, x):
        x = _check_domain(x)
        if np.any(x == 0.0):
            raise UnboundedPointError("pdf is unbounded at x = 0")
        return 0.75 * x ** -0.25

    def cdf(self, x):
        x = _check_domain(x)
        return x ** 0.75

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return u ** (4.0 / 3.0)

    def l2_norm_sq(self) -> float:
        # integral of (9/16) x**(-1/2) over [0,1]
        return 9.0 / 8.0


class Uniform(_Frozen, Density):
    """s(x) = 1 on [0,1]."""

    kind = "uniform"

    def pdf(self, x):
        x = _check_domain(x)
        return np.ones_like(x)

    def cdf(self, x):
        x = _check_domain(x)
        return x.copy()

    def quantile(self, u):
        return np.asarray(u, dtype=float).copy()

    def l2_norm_sq(self) -> float:
        return 1.0


class PiecewiseConstant(_Frozen, Density):
    """Step density: heights[i] on [breaks[i], breaks[i+1])."""

    _fields = ("breaks", "heights", "kind")
    kind = "piecewise"

    def __init__(self, breaks: np.ndarray, heights: np.ndarray) -> None:
        brk = np.asarray(breaks, dtype=float)
        hts = np.asarray(heights, dtype=float)
        if brk.ndim != 1 or brk.size < 2 or hts.size != brk.size - 1:
            raise ValueError("need k+1 breakpoints for k heights")
        # NaN passes every comparison below
        if not (np.all(np.isfinite(brk)) and np.all(np.isfinite(hts))):
            raise ValueError("breakpoints and heights must be finite")
        if brk[0] != 0.0 or brk[-1] != 1.0 or np.any(np.diff(brk) <= 0.0):
            raise ValueError("breakpoints must increase strictly from 0 to 1")
        if np.any(hts < 0.0):
            raise ValueError("heights must be nonnegative")
        mass = float(np.sum(hts * np.diff(brk)))
        if abs(mass - 1.0) > 1e-12:
            raise ValueError(f"total mass {mass!r} differs from 1 by more than 1e-12")
        self._set(brk, hts)

    def pdf(self, x):
        x = _check_domain(x)
        idx = np.minimum(np.searchsorted(self.breaks, x, side="right") - 1,
                         self.heights.size - 1)
        return self.heights[idx]

    def cdf(self, x):
        x = _check_domain(x)
        cum = np.concatenate(([0.0], np.cumsum(self.heights * np.diff(self.breaks))))
        idx = np.minimum(np.searchsorted(self.breaks, x, side="right") - 1,
                         self.heights.size - 1)
        # cum + heights * (x - breaks) in one array, the same floats
        out = x - self.breaks[idx]
        out *= self.heights[idx]
        out += cum[idx]
        # clamp the float tail so cdf(1.0) == 1.0 exactly
        return np.clip(out, 0.0, 1.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        cum = np.concatenate(([0.0], np.cumsum(self.heights * np.diff(self.breaks))))
        cum[-1] = 1.0
        # leftmost x with cdf(x) >= u; zero-height cells are skipped
        idx = np.minimum(np.searchsorted(cum, u, side="left"),
                         self.heights.size)
        idx = np.maximum(idx, 1) - 1
        h = self.heights[idx]
        x = self.breaks[idx] + np.where(h > 0.0, (u - cum[idx]) / np.where(h > 0.0, h, 1.0), 0.0)
        return np.clip(x, 0.0, 1.0)

    def l2_norm_sq(self) -> float:
        return float(np.sum(self.heights ** 2 * np.diff(self.breaks)))


def density_from_config(kind: str,
                        breaks=None,
                        heights=None) -> Density:
    """Build a density from a config spec (kind plus optional arrays)."""
    kind = kind.strip().lower()
    if kind == "powerlaw":
        return PowerLaw()
    if kind == "uniform":
        return Uniform()
    if kind == "piecewise":
        if breaks is None or heights is None:
            raise ValueError("piecewise density needs 'breaks' and 'heights'")
        return PiecewiseConstant(breaks=np.asarray(breaks, dtype=float),
                                 heights=np.asarray(heights, dtype=float))
    raise ValueError(f"unknown density kind {kind!r}")
