import math
from functools import partial

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imprintlab.distributions import Empirical, Laplace, Normal, ndtri
from imprintlab.imprint import DEFAULT_P_MIN, make_layout
from imprintlab.numerics import RngStream
from oracles import bisect_quantile, cdf, normal_cdf_quadrature


def test_normal_cdf_symmetry():
    assert cdf(Normal(), 0.0) == 0.5
    assert cdf(Normal(mean=3.0, sd=2.0), 3.0) == 0.5


def test_laplace_cdf_symmetry():
    assert cdf(Laplace(), 0.0) == 0.5


def test_normal_cdf_vs_quadrature():
    d = Normal()
    for x in (-2.5, -1.0, 0.3, 1.0, 2.0):
        assert abs(cdf(d, x) - normal_cdf_quadrature(x)) < 1e-7
    # the spot value from the quadrature oracle
    assert abs(cdf(d, 1.0) - 0.8413447460685429) < 1e-9


def test_normal_quantile_median():
    assert abs(Normal().quantile(0.5)) < 1e-12


def test_normal_quantile_vs_bisection():
    d = Normal()
    for p in (1e-6, 0.01, 0.25, 0.5, 0.77, 0.999, 1 - 1e-6):
        ref = bisect_quantile(partial(cdf, d), p)
        assert abs(d.quantile(p) - ref) < 1e-8 * max(1.0, abs(ref))
    assert abs(d.quantile(0.25) - (-0.6744897501960817)) < 1e-8


def test_normal_quantile_shifted():
    d = Normal(mean=2.0, sd=3.0)
    ref = bisect_quantile(partial(cdf, d), 0.1)
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
            assert abs(cdf(d, d.quantile(float(p))) - p) <= 1e-9
        lo, hi = d.quantile(1e-6), d.quantile(1 - 1e-6)
        for x in np.linspace(lo, hi, 41):
            assert abs(d.quantile(cdf(d, float(x))) - x) <= 1e-7 * max(1.0, abs(x))


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
    cs = [cdf(d, float(x)) for x in xs]
    assert all(a < b for a, b in zip(cs, cs[1:]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        Normal(sd=0.0)
    with pytest.raises(ValueError):
        Laplace(scale=-1.0)


def test_empirical_two_point():
    d = Empirical(np.array([0.0, 1.0]))
    assert d.quantile(0.5) == 0.5
    assert cdf(d, 0.25) == 0.25


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
    assert float(np.max(np.abs(cdf(full, grid) - cdf(part, grid)))) < 0.05


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


def _same_bits(p):
    ours, ref = ndtri(p), scipy.special.ndtri(p)
    assert np.shape(ours) == np.shape(ref)
    bad = np.asarray(ours).view(np.int64) != np.asarray(ref).view(np.int64)
    assert not bad.any(), np.asarray(p)[bad][:5]


E2 = math.exp(-2.0)
X8 = math.exp(-32.0)  # where x = sqrt(-2 log y) crosses 8


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=True),
                min_size=1, max_size=40))
@example([5e-324, 2.2250738585072014e-308, 1e-300, 1 - 2.0 ** -53, 0.5])
@example([float(np.nextafter(E2, 0.0)), E2, float(np.nextafter(E2, 1.0)),
          float(np.nextafter(1 - E2, 0.0)), 1 - E2, float(np.nextafter(1 - E2, 1.0))])
@example([float(np.nextafter(X8, 0.0)), X8, float(np.nextafter(X8, 1.0)), 1.2664165549e-14,
          1 - X8, 1 - 1.2664165549e-14])
def test_ndtri_matches_scipy_bit_for_bit(ps):
    _same_bits(np.array(ps))


def test_ndtri_matches_scipy_on_every_layout_grid():
    """make_layout's probabilities, floored at p_min or not, for k <= 2,100
    and the paper's larger k, in 0-d, 1-d and 2-d."""
    for k in [*range(2, 2101), 4096, 8192, 10_000]:
        grid = np.arange(k, dtype=np.float64) / k
        floored = np.maximum(grid, DEFAULT_P_MIN)
        ref = scipy.special.ndtri(floored)
        assert (make_layout(Normal(), k).view(np.int64) == ref.view(np.int64)).all(), k
        _same_bits(grid[1:])
    _same_bits(np.float64(0.3))
    _same_bits(np.array(1e-20))
    _same_bits(RngStream(3, 0).uniform(120).reshape(8, 15))
