import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imprintlab.numerics import (BLOCK_CELLS, RngStream, assignment, dct_row, l2_norm, matmul,
                                 row_blocks)
from oracles import brute_assignment, naive_matmul

# First ten float64 draws per (master_seed, stream_id), frozen once from the
# committed generator contract. A platform change that breaks these breaks
# every seeded experiment in the repo.
GOLDEN = {
    (0, 0): [0.15929546600623282, -1.7741885208017214, 1.3265118818830892,
             1.2048090979493156, -0.03910371209917862, -0.5194192970029236,
             -1.1132959094272785, -1.7673803015404892, 0.039767608363902945,
             0.37032801372491],
    (0, 1): [-0.7440191742693708, -0.01442460974068005, 0.5053939916649247,
             -1.7522260347081287, 0.9117518902728049, 0.16291884786230085,
             -0.8411168398126337, -1.033397627193392, 0.9604737586569082,
             -0.8843361357103899],
    (123, 7): [-1.5898041661793239, 1.2951738886501272, 1.3667870512950624,
               -0.5556499753762414, 0.20994872319019287, -0.23641314938340308,
               0.40004427352059885, 1.0473714415099171, -0.7309169325815702,
               -0.17711065452671312],
}


def test_rng_goldens():
    for (seed, sid), expect in GOLDEN.items():
        got = RngStream(seed, sid).normal(10)
        assert got.tolist() == expect


def test_rng_seeds_past_2_63_draw_their_own_streams():
    """Every 64-bit master seed keys its own stream: the top of the range
    neither collapses onto one float64 value nor warns on the cast."""
    seeds = [1 << 63, (1 << 63) + 1, (1 << 63) + 1000, (1 << 64) - 2, (1 << 64) - 1]
    draws = [RngStream(s, 3).normal(4).tolist() for s in seeds]
    assert len({tuple(d) for d in draws}) == len(seeds)
    # below 2**63 the key is the plain integer pair, as the goldens were drawn
    assert RngStream((1 << 63) - 1, 0).normal(2).tolist() == np.random.Generator(
        np.random.Philox(key=((1 << 63) - 1, 0))).standard_normal(2).tolist()


def test_rng_determinism():
    s = RngStream(7, 3)
    assert np.array_equal(s.normal((4, 5)), RngStream(7, 3).normal((4, 5)))
    assert np.array_equal(s.uniform(8), RngStream(7, 3).uniform(8))
    assert np.array_equal(s.permutation(20), RngStream(7, 3).permutation(20))


def test_rng_moments():
    z = RngStream(42, 3).normal(1_000_000)
    assert abs(float(z.mean())) < 0.01
    assert abs(float(z.std()) - 1.0) < 0.01


def test_rng_stream_independence():
    a = RngStream(0, 0).normal(100_000)
    b = RngStream(0, 1).normal(100_000)
    assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.01


def test_rng_derive():
    parent = RngStream(5, 2)
    kid = parent.derive(3)
    assert kid.master_seed == 5
    assert np.array_equal(kid.normal(4), parent.derive(3).normal(4))
    # siblings differ
    assert not np.array_equal(kid.normal(4), parent.derive(4).normal(4))
    with pytest.raises(ValueError):
        parent.derive(-1)
    with pytest.raises(ValueError):
        parent.derive(1 << 20)


def test_rng_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, -2)


def test_rand_gaussian_dtype():
    x = RngStream(1, 1).normal((3, 2), dtype=np.float32)
    assert x.dtype == np.float32 and x.shape == (3, 2)


def test_matmul_identity():
    x = RngStream(2, 0).normal((2, 5))
    assert np.array_equal(matmul(np.eye(2), x), x)


def test_matmul_hand():
    out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
    assert out.tolist() == [[3.0], [7.0]]


def test_matmul_vs_naive():
    a = RngStream(3, 0).normal((5, 7))
    b = RngStream(3, 1).normal((7, 3))
    got = matmul(a, b)
    ref = naive_matmul(a, b)
    assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))


def test_matmul_associativity_f32():
    a = RngStream(4, 0).normal((4, 6), dtype=np.float32)
    b = RngStream(4, 1).normal((6, 5), dtype=np.float32)
    c = RngStream(4, 2).normal((5, 3), dtype=np.float32)
    left = matmul(matmul(a, b), c)
    right = matmul(a, matmul(b, c))
    assert np.max(np.abs(left - right)) <= 1e-5 * max(1.0, float(np.max(np.abs(left))))


def test_matmul_errors():
    with pytest.raises(ValueError):
        matmul(np.zeros((2, 3)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        matmul(np.zeros(3), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="matmul operands must be floating point"):
        matmul(np.ones((2, 3), dtype=np.int64), np.ones((3, 2)))


def test_dct_zero_frequency_row():
    assert dct_row(4, 0).tolist() == [1.0, 1.0, 1.0, 1.0]


def test_dct_m8_freq1_closed_form():
    j = np.arange(8)
    expect = 0.5 * np.cos(np.pi * (2 * j + 1) / 16.0)
    assert np.allclose(dct_row(8, 1), expect, rtol=0, atol=1e-15)


def test_dct_orthogonality():
    m = 16
    for a in range(1, m):
        for b in range(a + 1, m):
            assert abs(float(np.dot(dct_row(m, a), dct_row(m, b)))) < 1e-12


def test_dct_range_error():
    with pytest.raises(ValueError):
        dct_row(8, 8)
    with pytest.raises(ValueError):
        dct_row(8, -1)
    with pytest.raises(ValueError, match="m must be positive, got 0"):
        dct_row(0, 0)


def test_assignment_diagonal_dominant():
    cost = np.full((5, 5), 10.0) + np.diag(np.full(5, -9.0))
    assert assignment(cost).tolist() == [0, 1, 2, 3, 4]


def test_assignment_vs_brute_force():
    """Square instances n=2..6: same optimal total as exhaustive search."""
    for trial in range(25):
        n = 2 + trial % 5
        cost = RngStream(50, trial).uniform((n, n), low=0.0, high=1.0)
        cols = assignment(cost)
        assert sorted(cols.tolist()) == list(range(n))  # bijection
        total = float(cost[np.arange(n), cols].sum())
        _, best = brute_assignment(cost)
        assert abs(total - best) < 1e-12
        assert total <= float(np.trace(cost)) + 1e-12


def test_assignment_rectangular():
    # more columns than rows: chooses the best n of p columns
    cost = RngStream(51, 0).uniform((3, 6), low=0.0, high=1.0)
    cols = assignment(cost)
    assert len(set(cols.tolist())) == 3
    total = float(cost[np.arange(3), cols].sum())
    _, best = brute_assignment(cost)
    assert abs(total - best) < 1e-12


def test_assignment_tied_optima():
    cost = np.array([[1.0, 2.0], [2.0, 1.0]])
    cols = assignment(cost)
    assert float(cost[[0, 1], cols].sum()) == 2.0
    # a genuinely tied instance: either assignment costs the same
    tied = np.ones((3, 3))
    cols = assignment(tied)
    assert float(tied[np.arange(3), cols].sum()) == 3.0


def test_assignment_nonfinite_rejected():
    cost = np.ones((2, 2))
    cost[0, 1] = np.nan
    with pytest.raises(ValueError):
        assignment(cost)
    with pytest.raises(ValueError, match=r"cost must be 2-d, got shape \(3,\)"):
        assignment(np.ones(3))
    with pytest.raises(ValueError, match="assignment needs rows <= cols, got 3 x 2"):
        assignment(np.ones((3, 2)))


def test_l2_norm():
    arrays = [np.array([3.0]), np.array([[4.0]])]
    assert l2_norm(arrays) == 5.0



@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 3 * BLOCK_CELLS), width=st.integers(0, 2 * BLOCK_CELLS))
def test_row_blocks_tile_the_rows_in_bounded_blocks(n, width):
    blocks = row_blocks(n, width)
    starts = [b.start for b in blocks]
    stops = [b.stop for b in blocks]
    assert [0] + stops == starts + [n] and all(b.step is None for b in blocks)
    sizes = np.subtract(stops, starts)
    assert (sizes >= 1).all() and ((sizes * width <= BLOCK_CELLS) | (sizes == 1)).all()
