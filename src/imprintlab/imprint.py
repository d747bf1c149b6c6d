"""Malicious imprint layers: weight/bias construction and bin bookkeeping.

An imprint layer sorts a batch into k equal-mass bins of a measurement value.
Every genuine row carries the same measurement direction; the biases place the
activation thresholds at distribution quantiles. The layer keeps the metadata
a malicious server would keep (which physical row serves which bin, which rows
are decoys) so recovery can undo the row permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .measurement import Measurement
from .numerics import DEFAULT_DTYPE, RngStream

DEFAULT_P_MIN = 1e-6


def make_layout(distribution, k: int, *, p_min: float = DEFAULT_P_MIN) -> np.ndarray:
    """k equal-mass bin boundaries: boundaries[i] = quantile(max(i/k, p_min)),
    float64 and strictly increasing.

    Bin i is the interval (boundaries[i], boundaries[i+1]). The top bin is
    open-ended for ReLU rows but ends one interior width up for hard-threshold
    rows; mass outside the bins is never recoverable.
    """
    if k < 2:
        raise ValueError(f"need at least 2 bins, got {k}")
    if not (0.0 < p_min < 1.0 / k):
        raise ValueError(f"p_min must lie in (0, 1/k), got {p_min}")
    probs = np.maximum(np.arange(k, dtype=np.float64) / k, p_min)
    return _increasing(distribution.quantile(probs))


def _increasing(boundaries: np.ndarray) -> np.ndarray:
    if not np.all(np.diff(boundaries) > 0):
        raise ValueError("bin boundaries are not strictly increasing; distribution too degenerate")
    return boundaries


def trap_ends(distribution, target_mass: float, *, placement: float | None = None) -> np.ndarray:
    """The one-shot trap's two ends, float64 and strictly increasing: the
    quantiles at q and q + target_mass, q the lower tail mass (placement),
    by default (1 - target_mass)/2, which centers the interval in probability.
    A distribution of None gives the two probabilities themselves."""
    p = float(target_mass)
    if not (0.0 < p < 1.0):
        raise ValueError(f"target_mass must lie in (0, 1), got {p}")
    q = (1.0 - p) / 2.0 if placement is None else float(placement)
    if not (0.0 < q and q + p < 1.0):
        raise ValueError(f"placement {q} with mass {p} leaves the interval outside (0, 1)")
    ends = np.array([q, q + p])
    return _increasing(ends if distribution is None else distribution.quantile(ends))


@dataclass(frozen=True, eq=False)
class ImprintModule:
    """Constructed imprint parameters plus the server-side metadata.

    weight/bias are the initial layer parameters in physical row order (after
    permutation); row_of_bin[i] is the physical row serving logical bin i, the
    bin above boundaries[i] (make_layout's, or the one-shot trap's two ends).
    """

    variant: str
    weight: np.ndarray       # (K, m)
    bias: np.ndarray         # (K,)
    boundaries: np.ndarray   # float64, (k,)
    row_of_bin: np.ndarray   # int64, (k,)
    decoy_rows: np.ndarray   # int64, (K - k,)
    fused_mass: float | None = None  # set by fuse_one_shot

    @property
    def k(self) -> int:
        return len(self.boundaries)

    @property
    def n_rows(self) -> int:
        return self.weight.shape[0]


def _layer(variant, boundaries, rows, biases, perm_stream, dtype, decoys,
           decoy_stream) -> ImprintModule:
    """The k genuine rows and biases at perm[:k] of a permutation of k + decoys
    physical rows (the identity without perm_stream), decoys drawn into the rest."""
    k, m = len(boundaries), rows.shape[-1]
    perm = np.arange(k + decoys) if perm_stream is None else perm_stream.permutation(k + decoys)
    weight = np.empty((k + decoys, m), dtype=dtype)
    bias = np.empty(k + decoys, dtype=dtype)
    weight[perm[:k]] = rows
    bias[perm[:k]] = biases
    if decoys:
        lo, hi = boundaries[0], boundaries[-1]
        weight[perm[k:]] = decoy_stream.derive(0).normal((decoys, m), sd=m ** -0.25)
        bias[perm[k:]] = -decoy_stream.derive(1).uniform(decoys, low=lo, high=hi)
    return ImprintModule(
        variant=variant, weight=weight, bias=bias, boundaries=boundaries,
        row_of_bin=np.asarray(perm[:k], dtype=np.int64),
        decoy_rows=np.asarray(np.sort(perm[k:]), dtype=np.int64),
    )


def build_relu(boundaries: np.ndarray, measurement: Measurement, *, decoys: int = 0,
               perm_stream: RngStream | None = None, decoy_stream: RngStream | None = None,
               dtype=DEFAULT_DTYPE) -> ImprintModule:
    """ReLU imprint: k identical measurement rows, biases at -boundary.

    Row i activates iff h(x) > boundaries[i], so adjacent-row differences
    isolate the examples falling in bin i. Decoy rows (random direction,
    bias drawn inside the boundary range) hide the block from inspection.
    """
    if decoys < 0:
        raise ValueError(f"decoys must be >= 0, got {decoys}")
    if (decoys > 0) and (decoy_stream is None):
        raise ValueError("decoys requested but no decoy_stream given")
    return _layer("relu", boundaries, measurement.row(), -boundaries, perm_stream, dtype,
                  decoys, decoy_stream)


def build_hard_threshold(boundaries: np.ndarray, measurement: Measurement, *,
                         perm_stream: RngStream | None = None,
                         dtype=DEFAULT_DTYPE) -> ImprintModule:
    """Hard-threshold imprint: g(t) = clamp(t, 0, 1) with per-row scaling.

    Row i is the measurement divided by the bin width delta_i and biased so
    its pre-activation crosses [0, 1] exactly across bin i. One example in
    bin i drives only row i into the linear region, so each row is read out
    on its own (no differencing) -- and the 1/delta_i scaling stiffens the
    row against parameter drift during multi-step local training.
    """
    deltas = np.empty(len(boundaries), dtype=np.float64)
    deltas[:-1] = np.diff(boundaries)
    deltas[-1] = deltas[-2]  # top bin is open; reuse the last interior width
    return _layer("hard_threshold", boundaries, measurement.row() / deltas[:, None],
                  -boundaries / deltas, perm_stream, dtype, 0, None)


def fuse_one_shot(distribution, measurement: Measurement, target_mass: float, *,
                  placement: float | None = None, dtype=DEFAULT_DTYPE) -> ImprintModule:
    """Two-row trap for single-shot capture: one interval of mass target_mass,
    between `trap_ends`. Recovery succeeds exactly when one example of the
    batch lands in the interval alone.
    """
    ends = trap_ends(distribution, target_mass, placement=placement)
    # a two-bin ReLU imprint whose bin 0 is the interval
    return replace(build_relu(ends, measurement, dtype=dtype), fused_mass=float(target_mass))
