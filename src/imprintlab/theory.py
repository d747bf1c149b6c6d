"""Expected-recovery accounting for equal-mass bins.

Two models for how n batch elements occupy k bins:

* composition model -- every weak composition of n into k parts equally
  likely; an exact closed form (a ratio of binomials that reduces to a
  rational in n and k) and a brute-force enumeration for cross-checking.
* iid model -- each element lands in a uniform bin independently.

The closed form carries a -n/k correction: in the layout it describes, mass
in the bottom bin is unrecoverable, priced as the expected occupancy of one
bin. The enumeration counts raw singleton bins, so the two agree after adding
n/k back. The iid model is a genuinely different distribution and is only
ever compared, never asserted equal.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .numerics import RngStream

ENUMERATION_LIMIT = 10_000_000


def prop1_exact(n: int, k: int) -> Fraction:
    """Exact expected number of recoverable singletons (composition model,
    minus the n/k bottom-bin correction). Requires k > n > 2.

    Over the C(n+k-1, k-1) equally likely weak compositions, a given bin holds
    exactly one element in C(n+k-3, k-2) of them, so the expected singleton
    count is k * C(n+k-3, k-2) / C(n+k-1, k-1) = k(k-1)n / ((n+k-1)(n+k-2)).
    """
    if not (k > n > 2):
        raise ValueError(f"need k > n > 2, got n={n} k={k}")
    return Fraction(k * (k - 1) * n, (n + k - 1) * (n + k - 2)) - Fraction(n, k)


def prop1_closed_form(n: int, k: int) -> float:
    return float(prop1_exact(n, k))


def composition_oracle(n: int, k: int, *, limit: int = ENUMERATION_LIMIT) -> Fraction:
    """Mean singleton count over ALL weak compositions of n into k bins,
    by direct enumeration (no tail correction)."""
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n} k={k}")
    total = math.comb(k + n - 1, k - 1)
    if total > limit:
        raise ValueError(f"{total} compositions exceeds enumeration limit {limit}")
    slots = n + k - 1
    singletons = 0
    for bars in itertools.combinations(range(slots), k - 1):
        prev = -1
        count = 0
        for b in bars:
            if b - prev - 1 == 1:
                count += 1
            prev = b
        if slots - prev - 1 == 1:
            count += 1
        singletons += count
    return Fraction(singletons, total)


def iid_expected(n: int, k: int) -> float:
    """Expected singletons when each element picks a uniform bin independently."""
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n} k={k}")
    return n * (1.0 - 1.0 / k) ** (n - 1)


def iid_monte_carlo(n: int, k: int, *, reps: int, stream: RngStream,
                    probs=None) -> tuple[float, float]:
    """Monte Carlo singleton count for iid bin occupancy.

    probs optionally gives non-uniform bin masses (length k, summing to ~1).
    Returns (mean, standard error).
    """
    if reps < 2:
        raise ValueError(f"need reps >= 2, got {reps}")
    counts = np.empty(reps, dtype=np.float64)
    for r in range(reps):
        # per-replicate stream: result independent of evaluation order
        gen = stream.derive(r).generator()
        if probs is None:
            bins = gen.integers(0, k, size=n)
        else:
            bins = gen.choice(k, size=n, p=probs)
        occupancy = np.bincount(bins, minlength=k)
        counts[r] = float((occupancy == 1).sum())
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(reps))
    return mean, stderr


def one_shot_success(n: int, p: float) -> float:
    """P(exactly one of n iid elements lands in an interval of mass p)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (0.0 < p < 1.0):
        raise ValueError(f"mass must lie in (0, 1), got {p}")
    return n * p * (1.0 - p) ** (n - 1)


def one_shot_optimum(n: int) -> tuple[float, float]:
    """The mass p maximizing one-shot success, and the success value there.

    The optimum is p = 1/n with value (1 - 1/n)^(n-1) -> 1/e ~ 0.368.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    p = 1.0 / n
    return p, one_shot_success(n, p)


def overhead(m: int, k: int, *, decoys: int = 0, bridge_params: int = 0,
             base_params: int | None = None) -> dict:
    """Parameter cost of an imprint block, computed without allocating it.

    absolute = (k + decoys) * (m + 1) + bridge_params; relative is against
    base_params when given.
    """
    if m < 1 or k < 1 or decoys < 0 or bridge_params < 0:
        raise ValueError("dimensions must be positive (decoys/bridge_params >= 0)")
    absolute = (k + decoys) * (m + 1) + bridge_params
    out = {"absolute": absolute}
    if base_params is not None:
        if base_params <= 0:
            raise ValueError(f"base_params must be positive, got {base_params}")
        out["relative"] = absolute / base_params
    return out
