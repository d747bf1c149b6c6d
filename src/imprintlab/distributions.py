"""Scalar distributions used to place imprint bin boundaries.

Each distribution exposes quantile: bin boundaries are quantiles of
equal-mass grids. It takes a scalar or an array and answers in kind; the
normal one is scipy's ndtri. The tests hold it to their own cdf oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

_SQRT2 = math.sqrt(2.0)


def _check_prob(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    bad = ~((p > 0.0) & (p < 1.0))  # also catches nan
    if bad.any():
        raise ValueError(f"quantile probability must lie in (0, 1), got {p[bad].flat[0]}")
    return p


def _like(x, out):
    """A float for scalar input, else the array."""
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


@dataclass(frozen=True)
class Normal:
    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self) -> None:
        if not (self.sd > 0 and math.isfinite(self.sd)):
            raise ValueError(f"sd must be positive and finite, got {self.sd}")

    def quantile(self, p):
        return _like(p, self.mean + self.sd * ndtri(_check_prob(p)))


@dataclass(frozen=True)
class Laplace:
    mean: float = 0.0
    scale: float = 1.0 / _SQRT2  # unit-variance default

    def __post_init__(self) -> None:
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    def quantile(self, p):
        q = _check_prob(p)
        out = np.where(q < 0.5, self.mean + self.scale * np.log(2.0 * q),
                       self.mean - self.scale * np.log(2.0 * (1.0 - q)))
        return _like(p, out)


@dataclass(frozen=True, eq=False)
class Empirical:
    """Distribution backed by observed samples; quantiles interpolate linearly
    between order statistics (plotting positions (i - 1)/(n - 1))."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.sort(np.asarray(self.values, dtype=np.float64).ravel())
        if vals.size < 2:
            raise ValueError(f"empirical distribution needs >= 2 samples, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("empirical samples must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_probs", np.linspace(0.0, 1.0, vals.size))

    def quantile(self, p):
        return _like(p, np.interp(_check_prob(p), self._probs, self.values))
