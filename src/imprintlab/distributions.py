"""Scalar distributions used to place imprint bin boundaries.

Each distribution exposes cdf/quantile; quantile is the workhorse (boundaries
are quantiles of equal-mass grids), and the tests check it against cdf. Both
take a scalar or an array and answer in kind; the normal ones are scipy's ndtr
and ndtri.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

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

    def cdf(self, x):
        return _like(x, ndtr((np.asarray(x, dtype=np.float64) - self.mean) / self.sd))

    def quantile(self, p):
        return _like(p, self.mean + self.sd * ndtri(_check_prob(p)))


@dataclass(frozen=True)
class Laplace:
    mean: float = 0.0
    scale: float = 1.0 / _SQRT2  # unit-variance default

    def __post_init__(self) -> None:
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    def cdf(self, x):
        z = (np.asarray(x, dtype=np.float64) - self.mean) / self.scale
        return _like(x, np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z)))

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

    def cdf(self, x):
        return _like(x, np.interp(np.asarray(x, dtype=np.float64), self.values, self._probs,
                                  left=0.0, right=1.0))

    def quantile(self, p):
        return _like(p, np.interp(_check_prob(p), self._probs, self.values))
