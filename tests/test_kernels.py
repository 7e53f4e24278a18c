import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import trapezoid

from cfcopula.kernels import (
    BandwidthRule,
    DegenerateCovariateError,
    KernelSpec,
    bandwidth,
    higher_order_coefficients,
    kernel_1d,
    scale_from_sample,
    validate_order,
)


def _quad_moment(spec, p, npts=4001):
    # trapezoid on the compact support [-1, 1]
    u = np.linspace(-1.0, 1.0, npts)
    k = kernel_1d(spec, u)
    return trapezoid(u ** p * k, u)


@pytest.mark.parametrize("family", ["epanechnikov", "gaussian_truncated"])
def test_order2_families_integrate_to_one(family):
    spec = KernelSpec(family=family)
    assert _quad_moment(spec, 0) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("order", [2, 4, 6])
def test_higher_order_vanishing_moments(order):
    """Moments of degree 1..order-1 vanish; degree `order` does not."""
    spec = KernelSpec(family="higher_order", order=order)
    assert _quad_moment(spec, 0) == pytest.approx(1.0, abs=1e-6)
    for p in range(1, order):
        assert _quad_moment(spec, p) == pytest.approx(0.0, abs=1e-6)
    assert abs(_quad_moment(spec, order)) > 1e-4


def test_higher_order_kernels_take_negative_values():
    spec = KernelSpec(family="higher_order", order=4)
    u = np.linspace(-1.0, 1.0, 201)
    assert kernel_1d(spec, u).min() < 0
    assert kernel_1d(KernelSpec(), u).min() >= 0


def test_kernel_vanishes_outside_support():
    for family in ("epanechnikov", "gaussian_truncated"):
        spec = KernelSpec(family=family)
        assert kernel_1d(spec, np.array([-1.5, 1.01, 7.0])).tolist() == [0, 0, 0]


def _edge_values(rng):
    """The edges of the support and ulps either side, signed zeros,
    overflow, NaN and the infinities, and draws."""
    one = np.nextafter(1.0, [np.inf, -np.inf])
    edges = np.array([1.0, -1.0, 0.0, -0.0, 1e300, -1e300, np.nan, np.inf, -np.inf,
                      1e-300, 5e-324, 0.5, 2.0])
    return np.concatenate([edges, one, -one, rng.normal(size=200_000),
                           rng.uniform(-1.5, 1.5, size=200_000),
                           np.nextafter(rng.uniform(-1, 1, size=1000), 2.0)])


def test_epanechnikov_is_the_masked_polynomial_bitwise():
    """The kernel clamps 0.75 (1 - u^2) at zero; that is the polynomial on
    |u| <= 1 and zero elsewhere, bit for bit, at the edge values."""
    rng = np.random.default_rng(31)
    u = _edge_values(rng)
    # u*u overflows at 1e300 in both forms
    with np.errstate(over="ignore"):
        masked = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
        got = kernel_1d(KernelSpec(), u)
    assert got.tobytes() == masked.tobytes()
    # a block of differences, as the weights evaluate it
    block = rng.normal(size=(126, 1)) - rng.normal(size=(1, 126))
    assert (kernel_1d(KernelSpec(), block).tobytes()
            == np.where(np.abs(block) <= 1.0, 0.75 * (1.0 - block * block), 0.0).tobytes())


def _masked_kernel(spec, u):
    # every family as the polynomial or density on |u| <= 1, masked
    inside = np.abs(u) <= 1.0
    if spec.family == "epanechnikov":
        vals = 0.75 * (1.0 - u * u)
    elif spec.family == "gaussian_truncated":
        vals = np.exp(-0.5 * u * u) / (np.sqrt(2.0 * np.pi) * math.erf(1.0 / math.sqrt(2.0)))
    else:
        u2 = u * u
        poly = np.zeros_like(u)
        for a in reversed(spec._poly):
            poly = poly * u2 + a
        vals = poly * (0.75 * (1.0 - u2))
    return np.where(inside, vals, 0.0)


@pytest.mark.parametrize("spec", [KernelSpec(), KernelSpec(family="gaussian_truncated"),
                                  KernelSpec(family="higher_order", order=4)],
                         ids=["epanechnikov", "gaussian_truncated", "higher_order"])
def test_kernel_into_out_and_in_place_is_the_kernel_bitwise(spec):
    rng = np.random.default_rng(32)
    for u in (_edge_values(rng), rng.normal(size=(126, 1)) - rng.normal(size=(1, 126))):
        with np.errstate(over="ignore", invalid="ignore"):
            want = _masked_kernel(spec, u)
            got = kernel_1d(spec, u)
            out = np.full_like(u, np.nan)
            assert kernel_1d(spec, u, out=out) is out
            same = u.copy()
            assert kernel_1d(spec, same, out=same) is same
        assert got.shape == out.shape == same.shape == u.shape
        for values in (got, out, same):
            assert values.tobytes() == want.tobytes()


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(family="box")
    with pytest.raises(ValueError):
        KernelSpec(family="epanechnikov", order=4)
    with pytest.raises(ValueError):
        KernelSpec(order=1)


def test_odd_higher_order_rounds_up():
    # symmetry kills odd moments, so order 3 builds the order-4 polynomial
    odd = KernelSpec(family="higher_order", order=3)
    even = KernelSpec(family="higher_order", order=4)
    u = np.linspace(-1, 1, 101)
    np.testing.assert_allclose(kernel_1d(odd, u), kernel_1d(even, u))


def test_higher_order_coefficients_reduce_at_order_two():
    # order 2 is the plain kernel: polynomial multiplier is the constant 1
    coeffs = higher_order_coefficients(2)
    assert coeffs[0] == pytest.approx(1.0)
    assert all(c == 0 for c in coeffs[1:])


def test_bandwidth_rule_formula():
    rule = BandwidthRule(constant=5.5, exponent=-1.0 / 3.0, scale=2.0)
    n = 125
    assert bandwidth(rule, n) == pytest.approx(5.5 * 2.0 * 125 ** (-1.0 / 3.0))


def test_bandwidth_vector_scale():
    rule = BandwidthRule(constant=2.0, exponent=-0.5, scale=np.array([1.0, 3.0]))
    h = bandwidth(rule, 100)
    np.testing.assert_allclose(h, [2.0 * 0.1, 6.0 * 0.1])


@pytest.mark.parametrize("constant", [0.0, -1.0, np.nan, np.inf])
def test_bandwidth_constant_must_be_positive_and_finite(constant):
    with pytest.raises(ValueError, match="positive and finite"):
        bandwidth(BandwidthRule(constant=constant), 50)


@given(n=st.integers(min_value=2, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_bandwidth_positive_and_decreasing(n):
    rule = BandwidthRule()
    h_n = bandwidth(rule, n)
    assert h_n > 0
    assert bandwidth(rule, 4 * n) < h_n


def test_scale_from_sample_uses_sample_sd():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(300, 2)) * np.array([1.0, 4.0])
    s = scale_from_sample(x)
    np.testing.assert_allclose(s, x.std(axis=0, ddof=1))


def test_scale_from_sample_discrete_coordinates_are_unit():
    rng = np.random.default_rng(1)
    x = np.column_stack([rng.normal(size=200), rng.integers(0, 2, size=200)])
    s = scale_from_sample(x, discrete_mask=np.array([False, True]))
    assert s[1] == 1.0
    assert s[0] == pytest.approx(x[:, 0].std(ddof=1))


def test_constant_column_fails_at_bandwidth_time():
    x = np.column_stack([np.ones(50), np.arange(50.0)])
    scale = scale_from_sample(x)
    assert scale[0] == 0.0
    with pytest.raises(DegenerateCovariateError):
        bandwidth(BandwidthRule(scale=scale), 50)


def test_validate_order_messages():
    ok = validate_order(KernelSpec(family="higher_order", order=4), 3)
    assert ok and "order 4" in ok.message
    bad = validate_order(KernelSpec(), 2)
    assert not bad
    assert "must exceed" in bad.message
