"""Independent reference implementations the tests check against.

Everything here is deliberately naive: triple loops, exhaustive search,
bisection, quadrature. Slow but obviously correct.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad


def naive_matmul(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def brute_assignment(cost):
    """Minimal-cost column choice by exhaustive search; handles n <= p."""
    cost = np.asarray(cost, dtype=np.float64)
    n, p = cost.shape
    best, best_cols = math.inf, None
    for cols in itertools.permutations(range(p), n):
        total = sum(cost[i, c] for i, c in enumerate(cols))
        if total < best:
            best, best_cols = total, cols
    return best_cols, best


def bisect_quantile(cdf, p, lo=-60.0, hi=60.0, tol=1e-13):
    """Invert a scalar CDF by bisection. The bracket must straddle p."""
    assert cdf(lo) < p < cdf(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def fd_gradcheck(model, x, labels, eps=1e-3):
    """Max per-tensor relative error of analytic gradients against central
    finite differences. Mutates model.params in place but restores them."""
    _, grads = model.loss_and_grads(x, labels)
    worst = 0.0
    for name, g in grads.items():
        p = model.params[name]
        fd = np.zeros_like(g, dtype=np.float64)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            up, _ = model.loss_and_grads(x, labels)
            p[idx] = orig - eps
            dn, _ = model.loss_and_grads(x, labels)
            p[idx] = orig
            fd[idx] = (up - dn) / (2.0 * eps)
        scale = max(float(np.max(np.abs(g))), 1e-12)
        worst = max(worst, float(np.max(np.abs(fd - g))) / scale)
    return worst


def normal_cdf_quadrature(x, mean=0.0, sd=1.0):
    """CDF by adaptive quadrature of the density, anchored at the median
    (integrating across the whole flat tail would inflate quad's error bound)."""
    def pdf(t):
        z = (t - mean) / sd
        return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
    val, err = quad(pdf, mean, x, limit=200)
    assert err < 1e-10
    return 0.5 + val


def prop1_double_sum(n, k):
    """Prop. 1 as the original double sum over how many bins hold one element:
    i singletons in C(k, i) ways, the other n - i elements in j bins of size
    >= 2. Exact Fraction, minus the n/k bottom-bin correction; k > n > 2."""
    total = math.comb(k + n - 1, k - 1)
    acc = n * math.comb(k, n)  # all n in distinct bins
    for i in range(1, n - 1):
        inner = 0
        for j in range(1, (n - i) // 2 + 1):
            inner += math.comb(k - i, j) * math.comb(n - i - j - 1, j - 1)
        acc += i * math.comb(k, i) * inner
    return Fraction(acc, total) - Fraction(n, k)
