import numpy as np
import pytest

from imprintlab.metrics import PSNR_EXACT_SENTINEL, exact_flags, match, psnr, score
from imprintlab.numerics import RngStream
from oracles import brute_assignment


def _sqdist(a, b):
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)


def test_match_inverts_a_shuffle():
    truth = RngStream(60, 0).normal((8, 5))
    perm = RngStream(60, 1).permutation(8)
    cands = truth[perm]
    pairs = match(cands, truth)
    assert pairs == [(i, int(perm[i])) for i in range(8)]


def test_match_survives_sub_separation_noise():
    truth = RngStream(61, 0).normal((6, 7))
    d = np.sqrt(_sqdist(truth, truth))
    sep = d[d > 0].min()
    noise = RngStream(61, 1).normal((6, 7))
    noise *= 0.45 * sep / np.linalg.norm(noise, axis=1, keepdims=True)
    pairs = match(truth + noise, truth)
    assert pairs == [(i, i) for i in range(6)]


def test_match_total_cost_is_optimal():
    for trial in range(25):
        stream = RngStream(62, trial)
        n = 2 + trial % 5
        cands = stream.derive(0).normal((n, 4))
        truth = stream.derive(1).normal((n, 4))
        pairs = match(cands, truth)
        cols = [t for _, t in pairs]
        assert sorted(cols) == list(range(n))
        cost = _sqdist(cands, truth)
        total = sum(cost[c, t] for c, t in pairs)
        _, best = brute_assignment(cost)
        assert total <= best + 1e-9
    # rectangular: fewer candidates than truth rows
    cands = RngStream(63, 0).normal((3, 4))
    truth = RngStream(63, 1).normal((6, 4))
    pairs = match(cands, truth)
    assert len(pairs) == 3 and len({t for _, t in pairs}) == 3
    cost = _sqdist(cands, truth)
    _, best = brute_assignment(cost)
    assert sum(cost[c, t] for c, t in pairs) <= best + 1e-9


def test_match_validation_and_empty():
    with pytest.raises(ValueError, match="dimension"):
        match(np.zeros((2, 3)), np.zeros((2, 4)))
    assert match(np.zeros((0, 3)), np.zeros((4, 3))) == []


def test_psnr_reference_points():
    a = RngStream(64, 0).uniform((16,))
    assert psnr(a, a) == PSNR_EXACT_SENTINEL
    assert abs(psnr(a, a + 0.1) - 20.0) < 1e-12       # mse 0.01, peak 1
    assert abs(psnr(a, a + 0.02) - (-20 * np.log10(0.02))) < 1e-9
    with pytest.raises(ValueError, match="shape"):
        psnr(a, a[:-1])


def test_psnr_works_along_the_last_axis():
    a = RngStream(64, 1).uniform((5, 16))
    b = a + 0.1
    b[2] = a[2]  # an exact row takes the sentinel, with no divide warning
    rows = psnr(a, b)
    assert rows.shape == (5,)
    assert rows.tolist() == [psnr(a[i], b[i]) for i in range(5)]
    assert rows[2] == PSNR_EXACT_SENTINEL


def test_exact_flags_and_count():
    truth = RngStream(65, 0).normal((5, 6))
    assert exact_flags(truth.copy(), truth).tolist() == [True] * 5
    cands2 = truth.copy()
    cands2[2] = 0.5 * (truth[2] + truth[3])  # collision blend
    assert score(cands2, truth).exact_count == 4
    assert exact_flags(cands2, truth).tolist() == [True, True, False, True, True]
    # tolerance boundary: relative l2 exactly at rel_tol passes
    c = truth[0] * (1 + 1e-5)
    assert exact_flags(c, truth[0], rel_tol=1e-4)
    assert not exact_flags(c, truth[0], rel_tol=1e-6)
    # zero-norm truth row: only an exact zero counts
    z = np.zeros((1, 4))
    assert exact_flags(z, z).tolist() == [True]
    assert exact_flags(z + 1e-9, z).tolist() == [False]


def test_iip_basics():
    truth = RngStream(66, 0).normal((6, 8))
    assert score(truth, truth).iip == 1.0
    pool = RngStream(66, 1).normal((20, 8))
    assert score(truth, truth, pool=pool).iip == 1.0  # exact copies keep winning
    # distractors that ARE the candidates steal every hit
    assert score(truth + 0.01, truth, pool=truth + 0.01).iip == 0.0
    assert score(truth, truth, pool=truth).iip == 1.0  # truth wins a tie


def test_iip_nonincreasing_in_nested_pools():
    for seed in range(20):
        truth = RngStream(67, seed).normal((6, 8))
        cands = truth + 0.3 * RngStream(68, seed).normal((6, 8))
        pool = truth + 0.25 * RngStream(69, seed).normal((6, 8))
        big_pool = np.vstack([pool, truth + 0.2 * RngStream(70, seed).normal((6, 8))])
        vals = [score(cands, truth).iip, score(cands, truth, pool=pool).iip,
                score(cands, truth, pool=big_pool).iip]
        assert vals[0] >= vals[1] >= vals[2]


def test_score_iip_equals_nearest_in_stacked_gallery():
    # the reference stacks truth and pool and takes the first nearest row
    for seed in range(10):
        truth = RngStream(75, seed).normal((12, 6))
        cands = truth[:9] + 0.4 * RngStream(76, seed).normal((9, 6))
        pool = truth + 0.3 * RngStream(77, seed).normal((12, 6))
        rep = score(cands, truth, pool=pool)
        nearest = _sqdist(cands, np.vstack([truth, pool])).argmin(axis=1)
        assert rep.iip == float(np.mean(nearest == rep.truth_row))


def test_iip_exceeds_singleton_fraction_on_collisions():
    # collision blends usually still sit nearest their dominant contributor,
    # so identification outruns the singleton rate; only the one-sided bound
    # iip >= singleton_fraction is structural
    stream = RngStream(71, 0)
    truth = stream.derive(0).normal((64, 16))
    bins = stream.derive(1).integers(64, low=0, high=128)
    wts = 1.0 + 0.2 * stream.derive(2).uniform((64,))
    cands, singles = [], 0
    for b in sorted(set(bins.tolist())):
        idx = np.flatnonzero(bins == b)
        w = wts[idx][:, None]
        cands.append((w * truth[idx]).sum(axis=0) / w.sum())
        singles += len(idx) == 1
    cands = np.stack(cands)
    frac = singles / cands.shape[0]
    val = score(cands, truth).iip
    assert val >= frac - 0.02
    assert val > frac + 0.05  # the gap is real, not a tolerance artifact
    assert frac < 1.0


def test_score_is_order_invariant():
    truth = RngStream(72, 0).normal((7, 9))
    cands = truth + 0.05 * RngStream(72, 1).normal((7, 9))
    perm = RngStream(72, 2).permutation(7)
    a = score(cands, truth)
    b = score(cands[perm], truth)
    assert a.exact_count == b.exact_count
    assert abs(a.mean_psnr - b.mean_psnr) < 1e-12
    assert a.iip == b.iip
    assert np.array_equal(a.truth_row[perm], b.truth_row)
    assert np.array_equal(a.exact[perm], b.exact)
    assert np.array_equal(a.psnr[perm], b.psnr)
    assert a.n_candidates == 7
    assert a.truth_row.shape == a.exact.shape == a.psnr.shape == (7,)


def test_score_psnr_transform_changes_only_psnr():
    truth = RngStream(73, 0).normal((4, 6))
    cands = truth + 0.05
    tf = lambda v: (v + 4.0) / 8.0  # map roughly into [0, 1]
    plain = score(cands, truth)
    scaled = score(cands, truth, psnr_transform=tf)
    assert scaled.exact_count == plain.exact_count
    assert scaled.iip == plain.iip
    assert np.array_equal(scaled.truth_row, plain.truth_row)
    ref = np.mean([psnr(tf(cands[c]), tf(truth[t])) for c, t in enumerate(plain.truth_row)])
    assert abs(scaled.mean_psnr - ref) < 1e-12
    assert abs(scaled.mean_psnr - plain.mean_psnr - 20 * np.log10(8)) < 1e-9


def test_score_empty_candidates():
    truth = RngStream(74, 0).normal((3, 5))
    rep = score(np.zeros((0, 5)), truth)
    assert rep.n_candidates == 0
    assert rep.exact_count == 0
    assert rep.iip == 0.0
    assert np.isnan(rep.mean_psnr)
    assert rep.truth_row.tolist() == []
