"""Reference code the tests check the package against.

These are the textbook forms the estimator replaces: kernel-ratio weights
of a sample against its own manipulation, a kernel plan's weights with
every kernel entry evaluated directly, the counterfactual grid under
given weights, rank pseudo-observations and the four measures as weighted
sums over them, the Frechet-Hoeffding bounds, and the Gaussian-copula
closed forms as one report.
"""

from dataclasses import dataclass

import numpy as np

from cfcopula.association import AssociationReport, gaussian_measure
from cfcopula.bootstrap import _finish
from cfcopula.copula import (
    BandwidthTooSmallError,
    WeightVector,
    kernel_plan,
    kernel_weights,
    margin_ranks,
)
from cfcopula.kernels import KernelSpec, kernel_1d


def counterfactual_weights(x, xstar, kernel=None, h=1.0, discrete_mask=None,
                           chunk=512):
    """W_i = sum_j K((X_i - X*_j)/h) / sum_l K((X_l - X*_j)/h), on the rows of x."""
    plan = kernel_plan(x, xstar, discrete_mask)
    w = kernel_weights(plan, kernel or KernelSpec(), h, plan.src_counts,
                       np.bincount(plan.tgt_inv, minlength=plan.tgt.shape[0])
                       .astype(float)[:, None], chunk)
    return WeightVector.from_array(w[plan.src_inv, 0])


def direct_kernel_weights(plan, kernel, h, src_counts, tgt_counts, chunk=512):
    """``kernel_weights`` with every kernel entry evaluated, no table.

    Each cell's blocks of at most ``chunk`` targets form their product
    kernel coordinate by coordinate from the differences of the rows; the
    package gathers the factor of a coordinate with a kernel table from
    the table instead, and must give these weights bitwise.
    """
    mask = plan.discrete_mask
    hvec = np.broadcast_to(np.asarray(h, dtype=float), mask.shape)
    hcont = hvec[~mask]
    if not np.all((hcont > 0) & np.isfinite(hcont)):
        raise ValueError(
            "bandwidth must be positive and finite for continuous coordinates"
        )
    w = np.zeros((tgt_counts.shape[1], plan.src.shape[0]))
    bad = np.zeros(plan.tgt.shape[0], dtype=bool)
    for cell_src, cell_tgt in plan.cells:
        si = cell_src[src_counts[cell_src] > 0]
        present = cell_tgt[(tgt_counts[cell_tgt] > 0).any(axis=1)]
        xs = plan.src[si]
        for start in range(0, present.size, chunk):
            ti = present[start:start + chunk]
            kmat = None
            for c in range(hcont.size):
                kc = kernel_1d(
                    kernel, (xs[:, c][:, None] - plan.tgt[ti, c][None, :]) / hcont[c]
                )
                if kmat is None:
                    kmat = kc
                else:
                    kmat *= kc
            if kmat is None:
                kmat = np.ones((si.size, ti.size))
            denom = src_counts[si] @ kmat
            zero = denom == 0.0
            if np.any(zero):
                bad[ti[zero]] = True
                continue
            counts = tgt_counts[ti]
            for j in np.flatnonzero(counts.any(axis=0)):
                w[j, si] += kmat @ (counts[:, j] / denom)
    if np.any(bad):
        raise BandwidthTooSmallError(np.flatnonzero(bad[plan.tgt_inv]).tolist(), h)
    return w.T


def estimate_under(sample, w, m, kernel=None, rule=None):
    """The ``Estimate`` of ``sample`` under the given weights, no bandwidth.

    It carries the kernel plan of the sample, so a recompute-weights
    bootstrap can run on it.
    """
    plan = kernel_plan(sample.x, sample.xstar, sample.discrete_mask)
    return _finish(sample, kernel or KernelSpec(), rule, None, w, m, plan=plan)


def counterfactual_copula(sample, w, m=100):
    """The counterfactual copula grid of ``sample`` under the weights ``w``."""
    return estimate_under(sample, w, m).grids["counterfactual"]


def frechet_hoeffding_violation(grid):
    """Largest violation of the copula bounds max(u+v-1,0) <= C <= min(u,v)."""
    nodes = np.arange(grid.m + 1) / grid.m
    u = nodes[:, None]
    v = nodes[None, :]
    lower = np.maximum(u + v - 1.0, 0.0)
    upper = np.minimum(u, v)
    return float(
        max(np.max(lower - grid.values), np.max(grid.values - upper), 0.0)
    )


@dataclass(frozen=True)
class PseudoObservations:
    """Marginal-CDF values of the data points plus the weights attached to them."""

    u1: np.ndarray
    u2: np.ndarray
    w: np.ndarray


def pseudo_observations(sample, w=None):
    """Rank pseudo-observations of (y1, y2); weighted marginals when w is given."""
    n = sample.n
    v = np.ones(n) if w is None else (w.w if isinstance(w, WeightVector) else np.asarray(w, float))
    u1 = margin_ranks(sample.y1).pseudo_obs(v)
    u2 = margin_ranks(sample.y2).pseudo_obs(v)
    return PseudoObservations(u1=u1, u2=u2, w=v)


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
    (1/2, 1/2).  They agree with the grid functionals to O(1/m + 1/n).
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
    return AssociationReport(rho=rho, tau=tau, gamma=gamma, beta=beta)


def gaussian_report(r):
    """The closed-form measures of the Gaussian copula with correlation r."""
    return AssociationReport(
        rho=gaussian_measure(r, "rho"),
        tau=gaussian_measure(r, "tau"),
        gamma=gaussian_measure(r, "gamma"),
        beta=gaussian_measure(r, "beta"),
    )
