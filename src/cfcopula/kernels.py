"""Kernel functions, product kernels and the bandwidth rule for weight construction.

All kernels are symmetric, integrate to one and vanish outside [-1, 1] in
each coordinate.  Multivariate evaluation is the product of one-dimensional
kernels over the coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EPANECHNIKOV = "epanechnikov"
GAUSSIAN_TRUNCATED = "gaussian_truncated"
HIGHER_ORDER = "higher_order"

_FAMILIES = (EPANECHNIKOV, GAUSSIAN_TRUNCATED, HIGHER_ORDER)

# mass of the standard normal on [-1, 1], used to renormalize the truncated
# Gaussian kernel so it still integrates to one
_PHI_NORM = math.erf(1.0 / math.sqrt(2.0))


class DegenerateCovariateError(ValueError):
    """A smoothed covariate's bandwidth is zero or infinite: the covariate
    has no sample variation, or the bandwidth rule under- or overflowed."""


def _epanechnikov_even_moment(p):
    # \int u^{2p} * 0.75*(1-u^2) du over [-1,1]
    return 3.0 / ((2 * p + 1) * (2 * p + 3))


def higher_order_coefficients(order):
    """Coefficients of the even polynomial multiplying the Epanechnikov kernel.

    The polynomial ``a_0 + a_1 u^2 + ... + a_{q-1} u^{2(q-1)}`` with
    ``q = ceil(order / 2)`` is solved from the moment conditions: unit mass
    and vanishing even moments ``2, 4, ..., 2(q-1)``.  Odd moments vanish by
    symmetry, so the construction attains at least the requested order while
    keeping compact support.
    """
    q = (int(order) + 1) // 2
    moments = np.array(
        [[_epanechnikov_even_moment(k + j) for j in range(q)] for k in range(q)]
    )
    rhs = np.zeros(q)
    rhs[0] = 1.0
    return np.linalg.solve(moments, rhs)


@dataclass(frozen=True)
class KernelSpec:
    """A product kernel: family and moment order.

    Parameters
    ----------
    family : str
        One of ``epanechnikov``, ``gaussian_truncated``, ``higher_order``.
    order : int
        Moment order r >= 2: all moments of total degree 1..r-1 vanish.
        The first two families have order 2; ``higher_order`` builds a
        polynomial-multiplied Epanechnikov kernel attaining the given order
        (such kernels take negative values for order > 2).
    """

    family: str = EPANECHNIKOV
    order: int = 2
    _poly: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.order < 2:
            raise ValueError(f"kernel order must be >= 2, got {self.order}")
        if self.family != HIGHER_ORDER and self.order != 2:
            raise ValueError(f"{self.family} kernel has order 2, got {self.order}")
        if self.family == HIGHER_ORDER:
            coeffs = tuple(higher_order_coefficients(self.order))
            object.__setattr__(self, "_poly", coeffs)


# entries per piece of the kernels evaluated piecewise, so that their
# temporaries take a few times 32 KB however large ``u`` is
_PIECE = 4096


def kernel_1d(spec, u, out=None):
    """Evaluate the one-dimensional kernel of ``spec`` at ``u`` (vectorized).

    ``out``, an array of u's shape and possibly ``u`` itself, receives the
    same doubles and is returned.  Epanechnikov is computed in ``out``; the
    other families ``_PIECE`` entries at a time.
    """
    u = np.asarray(u, dtype=float)
    if out is None:
        out = np.empty_like(u)
    if spec.family == EPANECHNIKOV:
        # 1 - u*u < 0 exactly when |u| > 1, and fmax drops NaN, so this is
        # 0.75 (1 - u*u) on |u| <= 1 and +0.0 elsewhere, bit for bit, in
        # one pass fewer than masking and without a temporary
        np.multiply(u, u, out=out)
        np.subtract(1.0, out, out=out)
        out *= 0.75
        return np.fmax(out, 0.0, out=out)
    # a piece is read whole before it is written, so ``out`` may be ``u``
    with np.nditer([u, out], flags=["external_loop", "buffered", "zerosize_ok"],
                   op_flags=[["readonly"], ["writeonly"]],
                   buffersize=_PIECE) as pieces:
        for x, y in pieces:
            if spec.family == GAUSSIAN_TRUNCATED:
                vals = np.exp(-0.5 * x * x) / (np.sqrt(2.0 * np.pi) * _PHI_NORM)
            else:
                x2 = x * x
                poly = np.zeros_like(x)
                for a in reversed(spec._poly):
                    poly = poly * x2 + a
                vals = poly * (0.75 * (1.0 - x2))
            y[...] = np.where(np.abs(x) <= 1.0, vals, 0.0)
    return out


# the bandwidth's rate in n, h = c * sd * n**EXPONENT
EXPONENT = -1.0 / 3.0


def bandwidth(constant, x, discrete_mask):
    """Bandwidths ``constant * sd * n**EXPONENT`` of the covariates ``x``.

    ``x`` has shape (n, d), or (R, n, d) for R resamples of n rows each;
    sd is the sample standard deviation (ddof=1) of each coordinate over
    the rows, and 1 at a discrete coordinate, which is matched exactly
    rather than smoothed.  Returns one bandwidth per coordinate, shape (d,)
    or (R, d).  A constant smoothed covariate gets bandwidth zero, which
    ``copula.kernel_weights`` rejects as a ``DegenerateCovariateError``; a
    varying one whose bandwidth under- or overflows raises it here.
    """
    if not (constant > 0 and math.isfinite(constant)):
        raise ValueError("bandwidth constant must be positive and finite")
    sd = np.where(discrete_mask, 1.0, x.std(axis=-2, ddof=1))
    with np.errstate(over="ignore"):  # an overflow is raised below
        h = constant * sd * float(x.shape[-2]) ** EXPONENT
    varies = (sd > 0) & ~np.asarray(discrete_mask, dtype=bool)
    for bad, what, fix in ((0.0, "underflowed", "larger"),
                           (math.inf, "overflowed", "smaller")):
        if np.any(varies & (h == bad)):
            raise DegenerateCovariateError(
                f"the bandwidth rule {what}: constant {constant!r} gives h={bad} at "
                f"a smoothed covariate that varies; use a {fix} bandwidth constant")
    return h


def validate_order(spec, d):
    """The warning that the kernel order does not exceed the continuous
    covariate dimension, or None when it does.

    Exceeding it is the condition under which undersmoothing and uniform
    convergence rates can hold simultaneously; it is a diagnostic, not a
    computational precondition.
    """
    if spec.order > d:
        return None
    return (
        f"kernel order {spec.order} must exceed covariate dimension {d}; "
        "increase the kernel order (higher_order family) or reduce the "
        "number of smoothed covariates"
    )
