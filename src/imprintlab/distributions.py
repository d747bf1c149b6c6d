"""Scalar distributions used to place imprint bin boundaries.

Each distribution exposes quantile: bin boundaries are quantiles of
equal-mass grids. It takes a scalar or an array and answers in kind. The
normal one is ndtri below, Cephes' algorithm (the one scipy.special.ndtri
runs) ported to numpy bit for bit, so placing bins imports no scipy. The
tests hold it to scipy's ndtri and to their own cdf oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_SQRT2 = math.sqrt(2.0)

# Cephes ndtri: rational fits in (p - 1/2)^2 for |p - 1/2| <= 1/2 - e^-2, else in
# z = 1/x, x = sqrt(-2 log y), y the smaller tail, one fit per side of x = 8
_EXP_M2, _S2PI = 0.13533528323661269189, 2.50662827463100050242
_P0 = [-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0]
_Q0 = [1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0]
_P1 = [4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4]
_Q1 = [1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4]
_P2 = [3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9]
_Q2 = [1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9]


def _libm_log(v: np.ndarray) -> np.ndarray:
    # math.log, not np.log: numpy's SIMD log is not libm's and moves last bits
    return np.fromiter(map(math.log, v.tolist()), np.float64, v.size)


def ndtri(p) -> np.ndarray:
    """The standard normal quantile of p in (0, 1), operation for operation as Cephes
    computes it (np.polyval is Cephes' Horner polevl; a leading 1.0 makes its p1evl)."""
    p = np.asarray(p, dtype=np.float64)
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    mid = y > _EXP_M2
    tail = ~mid
    out = np.empty_like(y)
    c = y[mid] - 0.5
    c2 = c * c
    out[mid] = (c + c * (c2 * np.polyval(_P0, c2) / np.polyval(_Q0, c2))) * _S2PI
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    z = 1.0 / x
    fit = np.where(x < 8.0, z * np.polyval(_P1, z) / np.polyval(_Q1, z),
                   z * np.polyval(_P2, z) / np.polyval(_Q2, z))
    out[tail] = np.where(upper[tail], 1.0, -1.0) * (x - _libm_log(x) / x - fit)
    return out


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
