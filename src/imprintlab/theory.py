"""Expected-recovery accounting for equal-mass bins.

Two models for how n batch elements occupy k bins:

* composition model -- every weak composition of n into k parts equally
  likely; an exact closed form (a ratio of binomials that reduces to a
  rational in n and k).
* iid model -- each element lands in a uniform bin independently.

The closed form carries a -n/k correction: in the layout it describes, mass
in the bottom bin is unrecoverable, priced as the expected occupancy of one
bin. Raw singleton counts (the tests' enumeration) agree after adding n/k
back. The iid model is a genuinely different distribution and is only
ever compared, never asserted equal.
"""

from __future__ import annotations

from fractions import Fraction


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


def iid_expected(n: int, k: int) -> float:
    """Expected singletons when each element picks a uniform bin independently."""
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n} k={k}")
    return n * (1.0 - 1.0 / k) ** (n - 1)


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


def overhead(m: int, k: int, *, decoys: int = 0, bridge_params: int = 0) -> int:
    """Parameter count of an imprint block: (k + decoys) * (m + 1) + bridge_params."""
    if m < 1 or k < 1 or decoys < 0 or bridge_params < 0:
        raise ValueError("dimensions must be positive (decoys/bridge_params >= 0)")
    return (k + decoys) * (m + 1) + bridge_params
