import math
from fractions import Fraction

import numpy as np
import pytest

from imprintlab.numerics import RngStream
from imprintlab.theory import (composition_oracle, iid_expected,
                               iid_monte_carlo, one_shot_optimum,
                               one_shot_success, overhead, prop1_closed_form,
                               prop1_exact)
from oracles import prop1_double_sum


def test_composition_oracle_tiny_cases_by_hand():
    # n=2, k=2: compositions (2,0) (1,1) (0,2); singleton counts 0, 2, 0
    assert composition_oracle(2, 2) == Fraction(2, 3)
    # n=3, k=3: 3 perms of (3,0,0) give 0, 6 perms of (2,1,0) give 1,
    # (1,1,1) gives 3 -> 9 singletons over 10 compositions
    assert composition_oracle(3, 3) == Fraction(9, 10)
    assert composition_oracle(1, 1) == Fraction(1, 1)


def test_closed_form_matches_enumeration_exactly():
    # the closed form prices the bottom bin away; add it back to compare
    for n, k in [(4, 6), (5, 9), (6, 8), (4, 20), (7, 11)]:
        assert prop1_exact(n, k) + Fraction(n, k) == composition_oracle(n, k)


def test_closed_form_matches_double_sum_at_mid_sizes():
    # enumeration stops near n=9; the double sum reaches the sizes between
    for n in range(3, 60):
        for k in range(n + 1, n + 70):
            assert prop1_exact(n, k) == prop1_double_sum(n, k), (n, k)


def test_closed_form_reference_point():
    val = prop1_closed_form(64, 156)
    assert val >= 32.0
    assert val < 33.0
    # more bins, fewer collisions
    assert prop1_closed_form(64, 128) < val < prop1_closed_form(64, 256)


def test_closed_form_monotone_in_k():
    vals = [prop1_closed_form(8, k) for k in range(9, 61)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_domain_errors():
    with pytest.raises(ValueError, match="k > n > 2"):
        prop1_exact(8, 8)
    with pytest.raises(ValueError, match="k > n > 2"):
        prop1_exact(2, 5)
    with pytest.raises(ValueError):
        composition_oracle(0, 3)
    with pytest.raises(ValueError, match="enumeration limit"):
        composition_oracle(30, 30, limit=1000)
    with pytest.raises(ValueError):
        iid_expected(0, 5)


def test_iid_expected_values():
    assert iid_expected(1, 7) == 1.0
    assert iid_expected(2, 2) == 1.0
    assert abs(iid_expected(8, 10_000) - 8 * (1 - 1e-4) ** 7) < 1e-12
    # the two occupancy models genuinely disagree at batch scale
    raw_composition = prop1_closed_form(64, 156) + 64 / 156
    assert abs(iid_expected(64, 156) - raw_composition) > 5.0


def test_monte_carlo_agrees_with_iid_expectation():
    mean, stderr = iid_monte_carlo(8, 10_000, reps=400, stream=RngStream(1, 0))
    assert abs(mean - iid_expected(8, 10_000)) <= 3 * stderr
    assert abs(mean - 8.0) < 0.05
    mean, stderr = iid_monte_carlo(64, 156, reps=2000, stream=RngStream(1, 1))
    assert abs(mean - iid_expected(64, 156)) <= 3 * stderr


def test_monte_carlo_nonuniform_bins():
    # E[singletons] = sum_b n p_b (1-p_b)^(n-1) = 0.36 for p=(0.9, 0.1), n=2
    mean, stderr = iid_monte_carlo(2, 2, reps=400, stream=RngStream(1, 2),
                                   probs=[0.9, 0.1])
    assert abs(mean - 0.36) <= 3 * stderr


def test_monte_carlo_deterministic_and_replicable():
    a = iid_monte_carlo(8, 40, reps=50, stream=RngStream(2, 0))
    b = iid_monte_carlo(8, 40, reps=50, stream=RngStream(2, 0))
    assert a == b
    # replicate r is fully determined by the derived child stream
    gen = RngStream(2, 0).derive(5).generator()
    bins = gen.integers(0, 40, size=8)
    count = int((np.bincount(bins, minlength=40) == 1).sum())
    solo_mean, _ = iid_monte_carlo(8, 40, reps=50, stream=RngStream(2, 0))
    # recomputing all replicates the same way reproduces the mean
    counts = []
    for r in range(50):
        g = RngStream(2, 0).derive(r).generator()
        occ = np.bincount(g.integers(0, 40, size=8), minlength=40)
        counts.append(int((occ == 1).sum()))
    assert counts[5] == count
    assert abs(solo_mean - np.mean(counts)) < 1e-12
    with pytest.raises(ValueError, match="reps"):
        iid_monte_carlo(4, 4, reps=1, stream=RngStream(2, 1))


def test_one_shot_success_values():
    assert one_shot_success(1, 0.5) == 0.5
    n = 4096
    val = one_shot_success(n, 1.0 / n)
    ref = math.exp((n - 1) * math.log1p(-1.0 / n))
    assert abs(val - ref) < 1e-12
    assert abs(val - 0.36792435472626167) < 1e-12  # just above 1/e
    assert val > 1.0 / math.e


def test_one_shot_optimum_is_one_over_n():
    for n in (2, 5, 50, 4096):
        p_star, v_star = one_shot_optimum(n)
        assert p_star == 1.0 / n
        assert v_star == one_shot_success(n, p_star)
        assert v_star >= one_shot_success(n, 0.8 / n)
        assert v_star >= one_shot_success(n, 1.2 / n)
    # grid search lands on the same mass
    n = 50
    grid = np.linspace(0.001, 0.2, 20000)
    vals = [one_shot_success(n, float(p)) for p in grid]
    best = float(grid[int(np.argmax(vals))])
    assert abs(best - 1.0 / n) <= float(grid[1] - grid[0])


def test_one_shot_domain():
    with pytest.raises(ValueError):
        one_shot_success(0, 0.5)
    with pytest.raises(ValueError, match="mass"):
        one_shot_success(4, 0.0)
    with pytest.raises(ValueError, match="mass"):
        one_shot_success(4, 1.0)
    with pytest.raises(ValueError):
        one_shot_optimum(1)


def test_overhead_accounting():
    assert overhead(5, 2) == {"absolute": 12}
    assert overhead(10, 4, decoys=3)["absolute"] == 7 * 11
    assert overhead(10, 4, bridge_params=9)["absolute"] == 4 * 11 + 9
    assert overhead(150528, 2)["absolute"] == 301_058
    assert overhead(150528, 128)["absolute"] == 19_267_712
    rel = overhead(150528, 2, base_params=11_700_000)["relative"]
    assert abs(rel - 301_058 / 11_700_000) < 1e-15
    assert 0.02 < rel < 0.03
    assert 0.010 < overhead(150528, 2, base_params=25_600_000)["relative"] < 0.013
    with pytest.raises(ValueError, match="base_params"):
        overhead(4, 4, base_params=0)
    with pytest.raises(ValueError):
        overhead(0, 4)
