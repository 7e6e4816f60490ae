"""Selection methods: the records a command names its methods with and
the outcome each method gives on one replication."""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "Method",
    "penalty_constant",
    "parse_method",
    "MethodOutcome",
    "DEFAULT_METHODS",
]


class Method(NamedTuple):
    """A selection method: slope on dims, resampling, slope on dmw, or the
    deterministic K * D / n penalty (needs the true density)."""

    kind: str                  # slope-dim | resampling | resampling-slope | ideal
    k_const: float | None = None

    @property
    def name(self) -> str:
        if self.kind == "ideal":
            return f"ideal:{self.k_const:g}"
        return self.kind


def penalty_constant(text: str | float) -> float:
    """The constant K of a K * complexity / n penalty: finite and >= 0."""
    k_const = float(text)
    if not 0.0 <= k_const < float("inf"):
        raise ValueError(f"penalty constant must be >= 0 and finite, "
                         f"got {str(text).strip()!r}")
    return k_const


def parse_method(spec: str) -> Method:
    spec = spec.strip().lower()
    if spec in ("slope-dim", "resampling", "resampling-slope"):
        return Method(kind=spec)
    if spec.startswith("ideal:"):
        return Method(kind="ideal",
                      k_const=penalty_constant(spec.split(":", 1)[1]))
    if spec == "ideal":
        return Method(kind="ideal", k_const=2.0)
    raise ValueError(f"unknown method {spec!r}")


DEFAULT_METHODS = (Method("slope-dim"), Method("resampling"),
                   Method("resampling-slope"))


class MethodOutcome(NamedTuple):
    """One method's result on one replication."""

    method: str
    ratio: float
    selected: str
    flag: str | None = None
