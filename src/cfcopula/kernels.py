"""Kernel functions, product kernels and bandwidth rules for weight construction.

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
    """A covariate has zero sample variation, so no bandwidth can be formed."""


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


@dataclass(frozen=True)
class BandwidthRule:
    """Bandwidth of the form ``constant * scale * n**exponent``.

    ``scale`` is the per-coordinate sample standard deviation; a vector scale
    yields one bandwidth per coordinate (equivalent to standardizing every
    coordinate and sharing a single bandwidth).
    """

    constant: float = 5.5
    exponent: float = -1.0 / 3.0
    scale: float | np.ndarray = 1.0


def bandwidth(rule, n):
    """Bandwidth(s) for a sample of size ``n`` under ``rule``.

    Returns a scalar for scalar scale, else one bandwidth per coordinate.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 to form a bandwidth, got n={n}")
    if not (rule.constant > 0 and math.isfinite(rule.constant)):
        raise ValueError("bandwidth constant must be positive and finite")
    scale = np.asarray(rule.scale, dtype=float)
    if np.any(scale <= 0):
        raise DegenerateCovariateError(
            "covariate standard deviation must be positive; got "
            f"scale={rule.scale!r} (degenerate covariate)"
        )
    h = rule.constant * scale * float(n) ** rule.exponent
    return float(h) if h.ndim == 0 else h


def scale_from_sample(x, discrete_mask=None):
    """Per-coordinate sample standard deviations, with 1.0 at discrete coordinates.

    Discrete coordinates are matched exactly rather than smoothed, so their
    scale never enters a kernel argument.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    s = x.std(axis=0, ddof=1)
    if discrete_mask is not None:
        s = np.where(np.asarray(discrete_mask, dtype=bool), 1.0, s)
    return s


@dataclass(frozen=True)
class OrderCheck:
    passed: bool
    message: str

    def __bool__(self):
        return self.passed


def validate_order(spec, d):
    """Check that the kernel order exceeds the continuous covariate dimension.

    This is the condition under which undersmoothing and uniform convergence
    rates can hold simultaneously; it is a diagnostic, not a computational
    precondition.
    """
    if spec.order > d:
        return OrderCheck(True, f"kernel order {spec.order} > covariate dimension {d}")
    return OrderCheck(
        False,
        f"kernel order {spec.order} must exceed covariate dimension {d}; "
        "increase the kernel order (higher_order family) or reduce the "
        "number of smoothed covariates",
    )
