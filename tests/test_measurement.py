import numpy as np
import pytest

from imprintlab.distributions import Empirical, Laplace, Normal
from imprintlab.measurement import assumed_distribution, build_measurement
from imprintlab.numerics import RngStream, dct_row


def test_mean_weights():
    h = build_measurement("mean", 4, c0=1.0)
    assert h.weights.tolist() == [0.25, 0.25, 0.25, 0.25]


def test_mean_on_constant_vector():
    h = build_measurement("mean", 6, c0=1.0)
    assert float(h.measure(np.full(6, 3.5))) == 3.5


def test_zero_vector_measures_zero():
    for kind in ("mean", "dct", "random_gaussian"):
        h = build_measurement(kind, 8, c0=2.0, freq=3, stream=RngStream(1, 0))
        assert float(h.measure(np.zeros(8))) == 0.0


def test_dct_weights_are_basis_rows():
    h = build_measurement("dct", 12, c0=1.0, freq=5)
    assert np.array_equal(h.weights, dct_row(12, 5))


def test_dct_requires_valid_freq():
    with pytest.raises(ValueError):
        build_measurement("dct", 8, freq=8)
    with pytest.raises(ValueError):
        build_measurement("dct", 8)  # freq missing


def test_random_gaussian_entry_variance():
    # entries ~ N(0, 1/sqrt(m)): sample variance within 20%
    h = build_measurement("random_gaussian", 100, c0=1.0, stream=RngStream(7, 0))
    target = 1.0 / np.sqrt(100)
    assert abs(float(h.weights.var()) - target) < 0.2 * target


def test_measure_linearity():
    h = build_measurement("random_gaussian", 16, c0=3.0, stream=RngStream(2, 0))
    x = RngStream(2, 1).normal(16)
    y = RngStream(2, 2).normal(16)
    lhs = float(h.measure(2.0 * x - 0.5 * y))
    rhs = 2.0 * float(h.measure(x)) - 0.5 * float(h.measure(y))
    assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_measure_scale_factor():
    base = build_measurement("mean", 10, c0=1.0)
    gamma = build_measurement("mean", 10, c0=7.5)
    x = RngStream(3, 0).normal((5, 10))
    assert np.array_equal(gamma.measure(x), 7.5 * base.measure(x))


def test_measure_batch_and_shape_check():
    h = build_measurement("mean", 4, c0=1.0)
    x = RngStream(4, 0).normal((3, 4))
    out = h.measure(x)
    assert out.shape == (3,)
    with pytest.raises(ValueError):
        h.measure(np.zeros(5))


def test_mean_measurement_clt():
    """Mean of m iid standard normals has sd 1/sqrt(m); the empirical sd over
    a thousand vectors lands within 10%."""
    m = 64
    h = build_measurement("mean", m, c0=1.0)
    x = RngStream(11, 0).normal((1000, m))
    sd = float(h.measure(x).std())
    assert abs(sd - 1.0 / np.sqrt(m)) < 0.1 / np.sqrt(m)


def test_c0_auto_normalizes_weight_row():
    h = build_measurement("mean", 16, c0="auto")
    assert abs(h.c0 * float(np.linalg.norm(h.weights)) - 1.0) < 1e-12


def test_assumed_distribution_defaults():
    h = build_measurement("mean", 8, c0=1.0)
    d = assumed_distribution(h)
    assert isinstance(d, Normal) and d.mean == 0.0 and d.sd == 1.0


def test_assumed_distribution_laplace():
    h = build_measurement("mean", 8, c0=1.0)
    d = assumed_distribution(h, {"kind": "laplace"})
    assert isinstance(d, Laplace)
    assert abs(d.scale - 1.0 / np.sqrt(2.0)) < 1e-15


def test_assumed_distribution_empirical():
    h = build_measurement("mean", 32, c0=1.0)
    surrogate = RngStream(8, 0).normal((10_000, 32))
    d = assumed_distribution(h, {"kind": "empirical"}, surrogate=surrogate)
    assert isinstance(d, Empirical)
    # measured means of standard normal rows concentrate near 0, with
    # spread 1/sqrt(32)
    assert abs(d.quantile(0.5)) < 0.05
    assert abs(d.quantile(0.9) - 1.2816 / np.sqrt(32)) < 0.02
    q = sorted(d.quantile(p) for p in (0.1, 0.5, 0.9))
    assert q == [d.quantile(0.1), d.quantile(0.5), d.quantile(0.9)]


def test_assumed_distribution_empirical_requires_surrogate():
    h = build_measurement("mean", 8, c0=1.0)
    with pytest.raises(ValueError):
        assumed_distribution(h, {"kind": "empirical"})
    with pytest.raises(ValueError, match="unknown assumed-distribution kind 'uniform'"):
        assumed_distribution(h, {"kind": "uniform"})


def test_build_validation():
    with pytest.raises(ValueError):
        build_measurement("median", 8)
    with pytest.raises(ValueError):
        build_measurement("mean", 0)
    with pytest.raises(ValueError):
        build_measurement("mean", 8, c0=0.0)
    with pytest.raises(ValueError):
        build_measurement("random_gaussian", 8)  # stream missing
