"""Association measures on copula grids and weighted pseudo-observations.

Four measures are supported: Spearman's rho, Kendall's tau, Gini's gamma and
Blomqvist's beta.  Each has two computation paths that must agree to O(1/m +
1/n): functionals of a copula grid, and direct weighted sums over
pseudo-observations.  Gaussian-copula closed forms serve as analytic oracles
and as the truth values of the simulation study.

On grids, rho and gamma are integrals of the copula itself (a bilinear cell
rule and diagonal trapezoids), tau is a Stieltjes sum against the grid's
cell masses, and beta is a node read.  The value-based forms matter for
weighted estimates: a weighted sample's pseudo-observation margins are only
approximately uniform, and position-weighted mass sums for rho and gamma
pick up a bias of order sum(w^2)/n^2 that the value integrals do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRID_STIELTJES = "grid_stieltjes"
PSEUDO_OBS = "pseudo_obs"


class GridResolutionError(ValueError):
    """The grid resolution does not support the requested functional."""


class MethodMismatchError(ValueError):
    """Policy effects require both reports to come from the same path."""


@dataclass(frozen=True)
class AssociationReport:
    """The four association measures of one copula estimate."""

    rho: float
    tau: float
    gamma: float
    beta: float
    method: str

    def as_dict(self):
        return {"rho": self.rho, "tau": self.tau, "gamma": self.gamma, "beta": self.beta}


@dataclass(frozen=True)
class PolicyEffect:
    """Counterfactual minus actual, one delta per measure."""

    rho: float
    tau: float
    gamma: float
    beta: float

    def as_dict(self):
        return {"rho": self.rho, "tau": self.tau, "gamma": self.gamma, "beta": self.beta}


def cell_masses(grid):
    """Two-dimensional increments of the grid; they telescope to C(1,1).

    Entry [i, j] is the C-mass of the cell [i/m, (i+1)/m] x [j/m, (j+1)/m].
    """
    v = grid.values
    return v[1:, 1:] - v[1:, :-1] - v[:-1, 1:] + v[:-1, :-1]


def _corner_average(values):
    # bilinear cell integral: the average of the four corner node values
    return 0.25 * (values[1:, 1:] + values[1:, :-1] + values[:-1, 1:] + values[:-1, :-1])


def _trapezoid_nodes(a, m):
    return (float(np.sum(a)) - 0.5 * (float(a[0]) + float(a[-1]))) / m


def _rho(cbar, m):
    return float(12.0 * cbar.sum() / (m * m) - 3.0)


def _tau(cbar, grid):
    return float(4.0 * np.sum(cbar * cell_masses(grid)) - 1.0)


def spearman_rho(grid):
    """12 * int C(u1, u2) du1 du2 - 3 with the bilinear cell rule.

    Each cell contributes its corner average; the rule integrates the
    bilinear interpolant exactly, so the independence grid returns exactly
    zero and the comonotone grid returns 1 - 1/m^2.
    """
    return _rho(_corner_average(grid.values), grid.m)


def kendall_tau(grid):
    """4 * int C dC - 1 with C averaged over the four corners of each cell.

    The corner average is the trapezoid value of C on the cell and keeps the
    independence grid at exactly zero.
    """
    return _tau(_corner_average(grid.values), grid)


def gini_gamma(grid):
    """4 * (int C(u, u) du + int C(u, 1-u) du) - 2, diagonal trapezoids.

    Both diagonals pass through grid nodes, so no interpolation is needed;
    the trapezoid corrections cancel exactly on the independence grid.
    """
    m = grid.m
    idx = np.arange(m + 1)
    diag = grid.values[idx, idx]
    anti = grid.values[idx, m - idx]
    return float(4.0 * (_trapezoid_nodes(diag, m) + _trapezoid_nodes(anti, m)) - 2.0)


def blomqvist_beta(grid):
    """4 * C(1/2, 1/2) - 1, read off the grid node (no quadrature)."""
    if grid.m % 2 != 0:
        raise GridResolutionError(
            f"Blomqvist's beta needs (0.5, 0.5) on the grid; m={grid.m} is odd"
        )
    half = grid.m // 2
    return float(4.0 * grid.values[half, half] - 1.0)


def measures_from_grid(grid):
    """All four measures of one grid as an AssociationReport.

    rho and tau share one corner average of the grid.
    """
    cbar = _corner_average(grid.values)
    return AssociationReport(
        rho=_rho(cbar, grid.m),
        tau=_tau(cbar, grid),
        gamma=gini_gamma(grid),
        beta=blomqvist_beta(grid),
        method=GRID_STIELTJES,
    )


def _copula_at_points(u1, u2, w, p1, p2, chunk=256):
    # (1/n) sum_j w_j 1{u1_j <= p1, u2_j <= p2} for each point (p1, p2)
    n = u1.shape[0]
    out = np.empty(p1.shape[0])
    for s in range(0, p1.shape[0], chunk):
        e = min(s + chunk, p1.shape[0])
        inside = (u1[None, :] <= p1[s:e, None]) & (u2[None, :] <= p2[s:e, None])
        out[s:e] = inside @ w / n
    return out


def measures_from_pseudo_obs(pobs):
    """The four measures as weighted sums over pseudo-observations.

    rho and gamma are plain weighted averages of their integrands.  tau
    integrates the estimated copula against its own atoms, keeping each
    atom's mass in the "<=" indicator.  beta evaluates the estimator at
    (1/2, 1/2).
    """
    u1 = np.asarray(pobs.u1, dtype=float)
    u2 = np.asarray(pobs.u2, dtype=float)
    w = np.asarray(pobs.w, dtype=float)
    n = u1.shape[0]
    rho = 12.0 / n * float(np.sum(w * u1 * u2)) - 3.0
    gamma = 2.0 / n * float(np.sum(w * (np.abs(u1 + u2 - 1.0) - np.abs(u1 - u2))))
    chat = _copula_at_points(u1, u2, w, u1, u2)
    tau = 4.0 / n * float(np.sum(w * chat)) - 1.0
    c_half = _copula_at_points(u1, u2, w, np.array([0.5]), np.array([0.5]))[0]
    beta = 4.0 * float(c_half) - 1.0
    return AssociationReport(rho=rho, tau=tau, gamma=gamma, beta=beta, method=PSEUDO_OBS)


MEASURES = ("rho", "tau", "gamma", "beta")


def gaussian_measure(r, which):
    """Closed-form population measure of the Gaussian copula with correlation r.

    tau and beta share (2/pi) arcsin(r); rho is (6/pi) arcsin(r/2); gamma is
    (2/pi) (arcsin((1+r)/2) - arcsin((1-r)/2)).
    """
    if abs(r) > 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {r}")
    if which in ("tau", "beta"):
        return float(2.0 / np.pi * np.arcsin(r))
    if which == "rho":
        return float(6.0 / np.pi * np.arcsin(r / 2.0))
    if which == "gamma":
        return float(
            2.0 / np.pi * (np.arcsin((1.0 + r) / 2.0) - np.arcsin((1.0 - r) / 2.0))
        )
    raise ValueError(f"unknown measure {which!r}; expected one of {MEASURES}")


def gaussian_report(r):
    return AssociationReport(
        rho=gaussian_measure(r, "rho"),
        tau=gaussian_measure(r, "tau"),
        gamma=gaussian_measure(r, "gamma"),
        beta=gaussian_measure(r, "beta"),
        method=GRID_STIELTJES,
    )


def policy_effect(counterfactual, actual):
    """Per-measure deltas, counterfactual minus actual."""
    if counterfactual.method != actual.method:
        raise MethodMismatchError(
            f"cannot difference a {counterfactual.method} report against a "
            f"{actual.method} report"
        )
    return PolicyEffect(
        rho=counterfactual.rho - actual.rho,
        tau=counterfactual.tau - actual.tau,
        gamma=counterfactual.gamma - actual.gamma,
        beta=counterfactual.beta - actual.beta,
    )
