import math

import numpy as np
import pytest

from imprintlab.distributions import Empirical, Laplace, Normal
from imprintlab.numerics import RngStream
from oracles import bisect_quantile, normal_cdf_quadrature


def test_normal_cdf_symmetry():
    assert Normal().cdf(0.0) == 0.5
    assert Normal(mean=3.0, sd=2.0).cdf(3.0) == 0.5


def test_laplace_cdf_symmetry():
    assert Laplace().cdf(0.0) == 0.5


def test_normal_cdf_vs_quadrature():
    d = Normal()
    for x in (-2.5, -1.0, 0.3, 1.0, 2.0):
        assert abs(d.cdf(x) - normal_cdf_quadrature(x)) < 1e-7
    # the spot value from the quadrature oracle
    assert abs(d.cdf(1.0) - 0.8413447460685429) < 1e-9


def test_normal_quantile_median():
    assert abs(Normal().quantile(0.5)) < 1e-12


def test_normal_quantile_vs_bisection():
    d = Normal()
    for p in (1e-6, 0.01, 0.25, 0.5, 0.77, 0.999, 1 - 1e-6):
        ref = bisect_quantile(d.cdf, p)
        assert abs(d.quantile(p) - ref) < 1e-8 * max(1.0, abs(ref))
    assert abs(d.quantile(0.25) - (-0.6744897501960817)) < 1e-8


def test_normal_quantile_shifted():
    d = Normal(mean=2.0, sd=3.0)
    ref = bisect_quantile(d.cdf, 0.1)
    assert abs(d.quantile(0.1) - ref) < 1e-7


def test_laplace_quantile_closed_form():
    d = Laplace(mean=0.0, scale=1.0 / math.sqrt(2.0))
    # q(p) = scale*ln(2p) below the median, -scale*ln(2(1-p)) above
    assert abs(d.quantile(0.9) - (-(1.0 / math.sqrt(2.0)) * math.log(0.2))) < 1e-12
    assert abs(d.quantile(0.1) - (1.0 / math.sqrt(2.0)) * math.log(0.2)) < 1e-12
    assert abs(d.quantile(0.5)) < 1e-12


def test_quantile_cdf_round_trip():
    """|cdf(quantile(p)) - p| <= 1e-9 and quantile(cdf(x)) == x to 1e-7."""
    for d in (Normal(), Normal(mean=-1.0, sd=0.5), Laplace(), Laplace(mean=2.0, scale=3.0)):
        for p in np.linspace(1e-6, 1 - 1e-6, 41):
            assert abs(d.cdf(d.quantile(float(p))) - p) <= 1e-9
        lo, hi = d.quantile(1e-6), d.quantile(1 - 1e-6)
        for x in np.linspace(lo, hi, 41):
            assert abs(d.quantile(d.cdf(float(x))) - x) <= 1e-7 * max(1.0, abs(x))


def test_quantile_domain():
    for d in (Normal(), Laplace(), Empirical(np.array([0.0, 1.0]))):
        for bad in (0.0, 1.0, -0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                d.quantile(bad)


def test_monotonicity():
    d = Normal()
    ps = np.linspace(0.001, 0.999, 200)
    qs = [d.quantile(float(p)) for p in ps]
    assert all(a < b for a, b in zip(qs, qs[1:]))
    xs = np.linspace(-5, 5, 200)
    cs = [d.cdf(float(x)) for x in xs]
    assert all(a < b for a, b in zip(cs, cs[1:]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        Normal(sd=0.0)
    with pytest.raises(ValueError):
        Laplace(scale=-1.0)


def test_empirical_two_point():
    d = Empirical(np.array([0.0, 1.0]))
    assert d.quantile(0.5) == 0.5
    assert d.cdf(0.25) == 0.25


def test_empirical_from_normal_draws():
    d = Empirical(RngStream(5, 0).normal(10_000))
    assert abs(d.quantile(0.25) - (-0.6745)) < 0.05
    assert abs(d.quantile(0.5)) < 0.05


def test_empirical_small_subsample_ks():
    """A 0.1% subsample's CDF stays within Kolmogorov distance 0.05 of the
    full-pool empirical CDF."""
    pool = RngStream(9, 0).normal(1_000_000)
    full = Empirical(pool)
    part = Empirical(pool[:1000])
    grid = np.linspace(-4.0, 4.0, 2001)
    assert float(np.max(np.abs(full.cdf(grid) - part.cdf(grid)))) < 0.05


def test_empirical_validation():
    with pytest.raises(ValueError, match="needs >= 2 samples"):
        Empirical(np.array([5.0]))
    with pytest.raises(ValueError, match="finite"):
        Empirical(np.array([0.0, float("inf")]))


def test_array_quantile_matches_scalar():
    ps = np.linspace(1e-6, 1 - 1e-6, 97)
    for d in (Normal(mean=0.5, sd=2.0), Laplace(mean=-1.0, scale=0.3),
              Empirical(RngStream(7, 0).normal(500))):
        qs = d.quantile(ps)
        assert isinstance(qs, np.ndarray) and qs.shape == ps.shape
        assert qs.tolist() == [d.quantile(float(p)) for p in ps]
        with pytest.raises(ValueError):
            d.quantile(np.array([0.5, 1.0]))
