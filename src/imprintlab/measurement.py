"""Scalar measurement maps: the linear functional an imprint layer bins on.

A measurement is h(x) = c0 * <weights, x>. The scale c0 exists to make the
measured value land on the distribution the bin boundaries assume: e.g. for
x ~ N(0, I_m) and a mean map (weights = 1/m), c0 = sqrt(m) turns h(x) into an
exact standard normal, so equal-mass bins really get equal mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .numerics import RngStream

KINDS = ("mean", "dct", "random_gaussian")


@dataclass(frozen=True, eq=False)
class Measurement:
    weights: np.ndarray  # float64 master copy, shape (m,)
    c0: float

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    def measure(self, x: np.ndarray) -> np.ndarray:
        """h(x) = c0 * <weights, x> along the last axis, in float64."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.m:
            raise ValueError(f"feature dimension {x.shape[-1]} != measurement dimension {self.m}")
        return self.c0 * (x @ self.weights)

    def row(self) -> np.ndarray:
        """The measurement materialized as a float64 weight row: c0 * weights."""
        return self.c0 * self.weights


def build_measurement(kind: str, m: int, *, c0: float | str = "auto",
                      freq: int | None = None, stream: RngStream | None = None) -> Measurement:
    """Construct a measurement map of the given kind on m features.

    c0="auto" picks 1/||weights||_2, which standardizes h for x ~ N(0, I_m).
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if kind == "mean":
        weights = np.full(m, 1.0 / m)
    elif kind == "dct":
        if freq is None:
            raise ValueError("dct measurement requires freq")
        weights = numerics.dct_row(m, freq)
    elif kind == "random_gaussian":
        if stream is None:
            raise ValueError("random_gaussian measurement requires a stream")
        # entry variance 1/sqrt(m)
        weights = stream.normal(m, sd=m ** -0.25)
    else:
        raise ValueError(f"unknown measurement kind {kind!r}; expected one of {KINDS}")

    if c0 == "auto":
        norm = float(np.linalg.norm(weights))
        if norm == 0.0:
            raise ValueError("cannot auto-scale a zero measurement")
        c0 = 1.0 / norm
    c0 = float(c0)
    if not (math.isfinite(c0) and c0 != 0.0):
        raise ValueError(f"c0 must be finite and nonzero, got {c0}")
    return Measurement(weights=weights, c0=c0)


def assumed_distribution(h: Measurement, data_model: dict | None = None, *,
                         surrogate=None):
    """The scalar distribution the attacker bins the measurement against.

    data_model: {"kind": "normal"|"laplace"|"empirical", ...params}. Defaults:
    Normal(0,1); Laplace defaults to scale 1/sqrt(2) (unit variance). The
    empirical kind takes the measurements of `surrogate`, an (s, m) block of
    surrogate vectors.
    """
    from . import distributions  # late import: avoids cycle at module load

    cfg = dict(data_model or {})
    kind = cfg.pop("kind", "normal")
    if kind == "normal":
        return distributions.Normal(mean=cfg.pop("mean", 0.0), sd=cfg.pop("sd", 1.0))
    if kind == "laplace":
        return distributions.Laplace(mean=cfg.pop("mean", 0.0),
                                     scale=cfg.pop("scale", 1.0 / math.sqrt(2.0)))
    if kind == "empirical":
        if surrogate is None:
            raise ValueError("empirical assumed distribution needs surrogate data")
        return distributions.Empirical(h.measure(np.asarray(surrogate, dtype=np.float64)))
    raise ValueError(f"unknown assumed-distribution kind {kind!r}")
