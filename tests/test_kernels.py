import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import trapezoid

from cfcopula.bootstrap import estimate
from cfcopula.copula import ObservationSample
from cfcopula.kernels import (
    EXPONENT,
    DegenerateCovariateError,
    KernelSpec,
    _PIECE,
    bandwidth,
    higher_order_coefficients,
    kernel_1d,
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


@pytest.mark.parametrize("spec", [KernelSpec(family="gaussian_truncated"),
                                  KernelSpec(family="higher_order", order=6)],
                         ids=["gaussian_truncated", "higher_order"])
def test_kernel_in_pieces_is_the_kernel_bitwise_on_any_layout(spec):
    """These families are evaluated a fixed number of entries at a time;
    every piece, layout and aliasing gives the whole-array expressions."""
    rng = np.random.default_rng(33)
    block = rng.uniform(-1.5, 1.5, size=(97, 3 * _PIECE // 97 + 5))
    want = _masked_kernel(spec, block)
    transposed = block.T.copy().T  # Fortran order
    strided = np.full((block.shape[0], 2 * block.shape[1]), np.nan)[:, ::2]
    for u, out in ((block, None), (transposed, None), (block, strided),
                   (transposed, transposed), (block[:, ::3], None)):
        got = kernel_1d(spec, u, out=out)
        expected = want if u.shape == want.shape else _masked_kernel(spec, u)
        assert np.ascontiguousarray(got).tobytes() == expected.tobytes()
    assert kernel_1d(spec, np.float64(0.25)) == _masked_kernel(spec, np.float64(0.25))
    assert kernel_1d(spec, np.empty((0, 4))).shape == (0, 4)


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
    x = np.array([[0.0], [1.0], [5.0]])
    h = bandwidth(5.5, x, np.array([False]))
    assert EXPONENT == -1.0 / 3.0
    assert h == pytest.approx([5.5 * math.sqrt(7.0) * 3 ** (-1.0 / 3.0)])


def test_bandwidth_vector_scale():
    # one bandwidth per coordinate, each that of its column alone
    x = np.random.default_rng(0).normal(size=(300, 3)) * np.array([1.0, 4.0, 0.5])
    mask = np.array([False, True, False])
    h = bandwidth(2.0, x, mask)
    assert h.shape == (3,)
    for c in range(3):
        assert h[c] == pytest.approx(bandwidth(2.0, x[:, [c]], mask[[c]])[0], rel=1e-15)


def test_bandwidth_of_a_batch_is_that_of_each_resample_bitwise():
    x = np.random.default_rng(2).normal(size=(3, 40, 2))
    mask = np.array([False, True])
    h = bandwidth(2.0, x, mask)
    assert h.shape == (3, 2)
    for r in range(3):
        assert h[r].tobytes() == bandwidth(2.0, x[r], mask).tobytes()


@pytest.mark.parametrize("constant", [0.0, -1.0, np.nan, np.inf])
def test_bandwidth_constant_must_be_positive_and_finite(constant):
    with pytest.raises(ValueError, match="positive and finite"):
        bandwidth(constant, np.eye(3), np.zeros(3, dtype=bool))


def test_a_bandwidth_that_under_or_overflows_is_a_degenerate_covariate():
    """A varying smoothed covariate whose bandwidth rounds to 0 or inf is
    refused with its cause, in a batch too; a discrete coordinate's
    bandwidth is never used, so it may round to 0."""
    x = np.column_stack([np.arange(8.0), np.arange(8.0) % 2])
    smoothed = np.array([False, False])
    for constant, scale, what in ((5e-324, 0.1, "underflowed"),
                                  (1e308, 4.0, "overflowed")):
        for rows in (x, np.stack([x, x[::-1]])):
            with pytest.raises(DegenerateCovariateError,
                               match=f"the bandwidth rule {what}"):
                bandwidth(constant, rows * scale, smoothed)
    h = bandwidth(5e-324, x, np.array([True, True]))
    assert h.tolist() == [0.0, 0.0]
    assert bandwidth(5.5, np.ones((4, 1)), smoothed[:1]).tolist() == [0.0]


@given(n=st.integers(min_value=2, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_bandwidth_positive_and_decreasing(n):
    def h(rows):
        # the same two values over any number of rows
        return bandwidth(5.5, (np.arange(rows) % 2.0)[:, None], np.array([False]))[0]

    assert 0 < h(4 * n) < h(n)


def test_bandwidth_uses_sample_sd():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(300, 2)) * np.array([1.0, 4.0])
    h = bandwidth(1.0, x, np.array([False, False]))
    np.testing.assert_allclose(h / 300 ** EXPONENT, x.std(axis=0, ddof=1))


def test_bandwidth_discrete_coordinates_have_unit_scale():
    rng = np.random.default_rng(1)
    x = np.column_stack([rng.normal(size=200), rng.integers(0, 2, size=200)])
    h = bandwidth(3.0, x, np.array([False, True]))
    assert h[1] == 3.0 * 200 ** EXPONENT
    assert h[0] == pytest.approx(3.0 * x[:, 0].std(ddof=1) * 200 ** EXPONENT)


def test_a_constant_smoothed_column_fails_at_the_weights():
    x = np.column_stack([np.ones(50), np.arange(50.0)])
    h = bandwidth(5.5, x, np.array([False, False]))
    assert h[0] == 0.0 and h[1] > 0.0
    y1, y2 = np.sin(np.arange(50.0)), np.cos(np.arange(50.0))
    with pytest.raises(DegenerateCovariateError, match="degenerate covariate"):
        estimate(ObservationSample(y1=y1, y2=y2, x=x, xstar=x), KernelSpec(), 5.5, 10)
    # matched exactly, a constant discrete column needs no bandwidth
    estimate(ObservationSample(y1=y1, y2=y2, x=x, xstar=x,
                               discrete_mask=np.array([True, False])),
             KernelSpec(), 5.5, 10)


def test_validate_order_messages():
    assert validate_order(KernelSpec(family="higher_order", order=4), 3) is None
    bad = validate_order(KernelSpec(), 2)
    assert "order 2 must exceed covariate dimension 2" in bad
