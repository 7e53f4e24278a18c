"""Association measures of copula grids and atom histograms.

Four measures are supported: Spearman's rho, Kendall's tau, Gini's gamma and
Blomqvist's beta.  Gaussian-copula closed forms serve as the truth values of
the simulation study.

On grids, rho and gamma are integrals of the copula itself (a bilinear cell
rule and diagonal trapezoids), tau is a Stieltjes sum against the grid's
cell masses, and beta is a node read.  ``measures_from_cells`` evaluates
them from an atom histogram (the point estimate and every bootstrap
replicate) without forming the grid.  The value-based forms matter for
weighted estimates: a weighted sample's pseudo-observation margins are only
approximately uniform, and position-weighted mass sums for rho and gamma
pick up a bias of order sum(w^2)/n^2 that the value integrals do not.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

class GridResolutionError(ValueError):
    """The grid resolution does not support the requested functional."""


@lru_cache(maxsize=8)
def _table(m):
    """The per-m constants of ``_measures``: the trapezoid node weights t
    (1/2 at both ends, 1 elsewhere) and the flat indices of the diagonal
    [i, i] and the antidiagonal [i, m - i] of an (m+1) x (m+1) array."""
    if m % 2 != 0:
        raise GridResolutionError(
            f"Blomqvist's beta needs (0.5, 0.5) on the grid; m={m} is odd"
        )
    t = np.ones(m + 1)
    t[0] = t[m] = 0.5
    idx = np.arange(m + 1)
    table = t, idx * (m + 2), (idx + 1) * m
    for a in table:  # shared by every caller
        a.flags.writeable = False
    return table


def _measures(V, masses, m, n):
    """(rho, tau, gamma, beta) from the node values n * C(a/m, b/m) and cell
    masses, as floats.

    ``V`` is (m+1) x (m+1); ``masses`` is m x m, entry [a-1, b-1] the
    n-scaled C-mass of the cell [(a-1)/m, a/m] x [(b-1)/m, b/m].
    """
    t, diagonal, antidiagonal = _table(m)
    # each cell's mass against the sum of C at its four corners (four times
    # its trapezoid value); einsum reads the column-shifted views of the
    # row-pair sums without copying them
    rows = V[1:] + V[:-1]
    tau = (np.einsum("ij,ij->", masses, rows[:, :-1])
           + np.einsum("ij,ij->", masses, rows[:, 1:]))
    return (
        float(12.0 * (t @ (V @ t)) / (n * m * m) - 3.0),
        float(tau / (n * n) - 1.0),
        float(4.0 * (t @ V.take(diagonal) + t @ V.take(antidiagonal)) / (n * m) - 2.0),
        float(4.0 * V[m // 2, m // 2] / n - 1.0),
    )


def measures_from_cells(cells, m, n):
    """(rho, tau, gamma, beta) of the copula of an atom histogram, as floats.

    ``cells`` is the (m+2) x (m+2) histogram of a weighted rank sample with
    total mass n: entry [a, b] holds the weight of the atoms in the cell
    ((a-1)/m, a/m] x ((b-1)/m, b/m], index 0 holding atoms at or below 0
    and index m+1 atoms above 1.  Its prefix sum V over [:m+1, :m+1] is
    n times the copula grid, so with t the trapezoid node weights (1/2 at
    both ends, 1 elsewhere):

    * rho = 12 t'Vt / (n m^2) - 3, the bilinear cell rule;
    * tau = sum_{a,b=1..m} cells[a, b] (V[a-1, b-1] + V[a, b-1] + V[a-1, b]
      + V[a, b]) / n^2 - 1, C averaged over the corners of each cell against
      the cell's own mass; atoms at index 0 or m+1 carry no cell mass;
    * gamma integrates both diagonals of V by the trapezoid rule;
    * beta reads V[m/2, m/2].

    These are the functionals of the grid V/n without forming, normalising
    or differencing it.
    """
    V = cells[: m + 1, : m + 1].cumsum(axis=0)
    V.cumsum(axis=1, out=V)
    return _measures(V, cells[1 : m + 1, 1 : m + 1], m, n)


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
