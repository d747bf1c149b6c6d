from functools import partial

import numpy as np
import pytest

from imprintlab.distributions import Empirical, Laplace, Normal
from imprintlab.imprint import (DEFAULT_P_MIN, build_hard_threshold, build_relu,
                                fuse_one_shot, make_layout)
from imprintlab.measurement import build_measurement
from imprintlab.numerics import RngStream
from oracles import bisect_quantile, cdf


def test_layout_k2():
    lay = make_layout(Normal(), 2)
    assert len(lay) == 2 and lay.dtype == np.float64
    assert abs(lay[0] - bisect_quantile(partial(cdf, Normal()), 1e-6)) < 1e-7
    assert abs(lay[1]) < 1e-12


def test_layout_k2048_matches_bisection():
    d = Normal()
    lay = make_layout(d, 2048)
    probs = np.maximum(np.arange(2048) / 2048, DEFAULT_P_MIN)
    expect = [bisect_quantile(partial(cdf, d), p) for p in probs]
    assert np.max(np.abs(lay - expect)) <= 1e-12


def test_layout_k4_boundaries():
    lay = make_layout(Normal(), 4)
    d = Normal()
    expect = [bisect_quantile(partial(cdf, d), p) for p in (1e-6, 0.25, 0.5, 0.75)]
    assert np.allclose(lay, expect, rtol=0, atol=1e-7)
    assert abs(lay[1] + 0.6745) < 1e-4


def test_layout_interior_masses():
    d = Normal()
    lay = make_layout(d, 8, p_min=1e-12)
    masses = np.diff([cdf(d, float(b)) for b in lay])
    # with a vanishing bottom clamp every gap carries 1/k
    assert np.max(np.abs(masses - 1.0 / 8)) < 1e-9


def test_layout_bottom_clamp():
    d = Normal()
    lay = make_layout(d, 4)  # default p_min 1e-6
    first = cdf(d, float(lay[1])) - cdf(d, float(lay[0]))
    assert abs(first - (0.25 - DEFAULT_P_MIN)) < 1e-9


def test_layout_validation():
    with pytest.raises(ValueError):
        make_layout(Normal(), 1)
    with pytest.raises(ValueError):
        make_layout(Normal(), 4, p_min=0.25)  # not < 1/k
    with pytest.raises(ValueError):
        make_layout(Normal(), 4, p_min=0.0)
    # heavily tied empirical sample -> equal quantiles -> degenerate boundaries
    flat = Empirical(np.array([0.0] * 99 + [1.0]))
    with pytest.raises(ValueError):
        make_layout(flat, 4)


def test_layout_other_distributions():
    for d in (Laplace(), Empirical(RngStream(1, 0).normal(5000))):
        lay = make_layout(d, 16)
        assert np.all(np.diff(lay) > 0)


def test_relu_direct_construction():
    lay = make_layout(Normal(), 2)
    h = build_measurement("mean", 3, c0=1.0)
    imp = build_relu(lay, h, dtype=np.float64)
    assert imp.n_rows == 2 and imp.weight.shape == (2, 3)
    assert np.allclose(imp.weight, 1.0 / 3.0, rtol=0, atol=1e-15)
    assert np.allclose(imp.bias, -lay, rtol=0, atol=0)
    assert imp.row_of_bin.tolist() == [0, 1]
    assert imp.decoy_rows.size == 0


def test_relu_active_rows_follow_measurement():
    """A genuine row fires exactly when h(x) clears its boundary."""
    lay = make_layout(Normal(), 8)
    h = build_measurement("mean", 16, c0="auto")
    imp = build_relu(lay, h, perm_stream=RngStream(3, 1), dtype=np.float64)
    x = RngStream(3, 0).normal((32, 16))
    pre = x @ imp.weight.T + imp.bias
    hv = h.measure(x)
    for t in range(32):
        active = {int(i) for i in range(8) if pre[t, imp.row_of_bin[i]] > 0}
        assert active == {i for i in range(8) if hv[t] > lay[i]}


def test_relu_decoys():
    lay = make_layout(Normal(), 6)
    h = build_measurement("mean", 8, c0=1.0)
    imp = build_relu(lay, h, decoys=4, perm_stream=RngStream(4, 0),
                     decoy_stream=RngStream(4, 1), dtype=np.float64)
    assert imp.n_rows == 10
    assert imp.decoy_rows.size == 4
    genuine = set(imp.row_of_bin.tolist())
    assert genuine.isdisjoint(imp.decoy_rows.tolist())
    assert genuine | set(imp.decoy_rows.tolist()) == set(range(10))
    # genuine rows still carry the measurement; decoy biases stay in range
    for i, r in enumerate(imp.row_of_bin):
        assert np.allclose(imp.weight[r], h.row(), rtol=0, atol=0)
        assert imp.bias[r] == -lay[i]
    lo, hi = lay[0], lay[-1]
    for r in imp.decoy_rows:
        assert -hi <= imp.bias[r] <= -lo
    with pytest.raises(ValueError):
        build_relu(lay, h, decoys=2)  # no decoy stream


def test_relu_rank_camouflage():
    lay = make_layout(Normal(), 12)
    h = build_measurement("mean", 10, c0=1.0)
    plain = build_relu(lay, h, dtype=np.float64)
    assert np.linalg.matrix_rank(plain.weight) == 1
    hidden = build_relu(lay, h, decoys=4, perm_stream=RngStream(5, 0),
                        decoy_stream=RngStream(5, 1), dtype=np.float64)
    assert np.linalg.matrix_rank(hidden.weight) >= 2


def test_hard_threshold_deltas():
    lay = make_layout(Normal(), 4)
    h = build_measurement("mean", 8, c0=1.0)
    imp = build_hard_threshold(lay, h, dtype=np.float64)
    # row i spans bin i's width; the open top bin reuses the last interior gap
    gaps = np.diff(lay)
    deltas = np.append(gaps, gaps[-1])
    for i in range(4):
        assert np.allclose(imp.weight[i], h.row() / deltas[i], rtol=1e-15, atol=0)
        assert abs(imp.bias[i] + lay[i] / deltas[i]) < 1e-12


def test_hard_threshold_tiling():
    """Interior-bin point: rows below saturate at 1, its own row sits in (0,1),
    rows above stay at 0."""
    lay = make_layout(Normal(), 6)
    h = build_measurement("mean", 8, c0="auto")
    imp = build_hard_threshold(lay, h, dtype=np.float64)
    w = h.row()  # h(x) == <w, x>
    for i in range(1, 5):  # interior bins
        target = 0.5 * (lay[i] + lay[i + 1])
        x = RngStream(6, i).normal(8)
        x = x + (target - float(x @ w)) * w / float(w @ w)
        g = np.clip(x @ imp.weight.T + imp.bias, 0.0, 1.0)
        order = imp.row_of_bin
        assert np.all(g[order[:i]] == 1.0)
        assert 0.0 < g[order[i]] < 1.0
        assert np.all(g[order[i + 1:]] == 0.0)


def test_hard_threshold_flattening_keeps_points_linear():
    """With the boundary distribution matched to the scaled measurement, nearly
    every point sits strictly inside exactly one row's linear region."""
    m, c0, k = 16, 100.0, 20
    h = build_measurement("mean", m, c0=c0)
    sd = c0 * float(np.linalg.norm(h.weights))  # h(x) ~ N(0, sd) on N(0, I) data
    lay = make_layout(Normal(sd=0.0 + sd), k)
    imp = build_hard_threshold(lay, h, dtype=np.float64)
    x = RngStream(7, 0).normal((10_000, m))
    pre = x @ imp.weight.T + imp.bias
    linear = (pre > 0.0) & (pre < 1.0)
    frac = float(np.mean(linear.sum(axis=1) == 1))
    assert frac >= 0.95


def test_one_shot_interval_mass():
    d = Normal()
    h = build_measurement("mean", 32, c0="auto")
    p = 1.0 / 4096.0
    imp = fuse_one_shot(d, h, p, dtype=np.float64)
    mass = cdf(d, float(imp.boundaries[1])) - cdf(d, float(imp.boundaries[0]))
    assert abs(mass - p) < 1e-9
    assert imp.fused_mass == p
    assert imp.n_rows == 2
    # centered placement: equal tails on both sides
    lo = cdf(d, float(imp.boundaries[0]))
    assert abs(lo - (1.0 - p) / 2.0) < 1e-9


def test_one_shot_parameter_cost():
    h = build_measurement("mean", 32, c0="auto")
    imp = fuse_one_shot(Normal(), h, 0.01)
    assert imp.weight.size + imp.bias.size == 2 * (32 + 1)


def test_one_shot_placement():
    d = Normal()
    h = build_measurement("mean", 8, c0="auto")
    imp = fuse_one_shot(d, h, 0.01, placement=0.001)
    assert abs(cdf(d, float(imp.boundaries[0])) - 0.001) < 1e-9
    with pytest.raises(ValueError):
        fuse_one_shot(d, h, 0.5, placement=0.7)  # interval spills past 1
    with pytest.raises(ValueError):
        fuse_one_shot(d, h, 1.5)
