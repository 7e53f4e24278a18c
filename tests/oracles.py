"""Reference code the tests check the package against.

These are the textbook forms the estimator replaces: the bandwidth rule,
kernel-ratio weights of a sample against its own manipulation, a kernel plan's weights with
every kernel entry evaluated directly, the counterfactual grid under
given weights, rank pseudo-observations and the four measures as weighted
sums over them, the measures of an atom histogram set up per call and of
a grid, each as one ``Report``, the Frechet-Hoeffding bounds,
two-increasingness, the Gaussian-copula closed forms as one report, the
bivariate normal CDF, and the bootstrap replicates one at a time.
"""

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass

import numpy as np

from cfcopula import association, bootstrap
from cfcopula.association import MEASURES, gaussian_measure
from cfcopula.bootstrap import DegenerateReplicateError, _finish, multinomial_counts
from cfcopula.copula import (
    BLOCK,
    BandwidthTooSmallError,
    CopulaGrid,
    _atom_indices,
    kernel_plan,
    kernel_weights,
    margin_ranks,
    rank_atoms,
)
from cfcopula.kernels import KernelSpec, kernel_1d


def counterfactual_weights(x, xstar, kernel=None, h=1.0, discrete_mask=None,
                           block=BLOCK):
    """W_i = sum_j K((X_i - X*_j)/h) / sum_l K((X_l - X*_j)/h), on the rows of x."""
    plan = kernel_plan(x, xstar, discrete_mask)
    w = kernel_weights(plan, kernel or KernelSpec(), h, plan.src_counts,
                       np.bincount(plan.tgt_inv, minlength=plan.tgt.shape[0])
                       .astype(float)[:, None], block)
    return w[plan.src_inv, 0]


def direct_kernel_weights(plan, kernel, h, src_counts, tgt_counts, block=BLOCK,
                          targets=None):
    """``kernel_weights`` with every kernel entry evaluated, no table.

    Each cell's blocks of max(1, ``block`` // sources) targets, or of
    ``targets`` targets when given, form their product kernel coordinate
    by coordinate from the differences of the rows; the package gathers
    the factor of a coordinate with a kernel table from the table instead,
    and must give these weights bitwise under the same ``block``.
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
        step = targets or max(1, block // max(si.size, 1))
        for start in range(0, present.size, step):
            ti = present[start:start + step]
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


@dataclass(frozen=True)
class Report:
    """The four association measures of one oracle."""

    rho: float
    tau: float
    gamma: float
    beta: float

    def as_dict(self):
        return asdict(self)


def bandwidth_rule(constant, x, discrete_mask):
    """h = constant * sd * n**(-1/3) for the rows of ``x``, shape (n, d):
    sd is each coordinate's sample standard deviation (ddof=1), and 1 at a
    discrete coordinate."""
    sd = np.where(discrete_mask, 1.0, np.std(x, axis=0, ddof=1))
    return constant * sd * float(x.shape[0]) ** (-1.0 / 3.0)


def estimate_under(sample, w, m, kernel=None, bandwidth_c=None):
    """The ``Estimate`` of ``sample`` under the given weights, no bandwidth.

    It carries the kernel plan of the sample, so a recompute-weights
    bootstrap can run on it.
    """
    plan = kernel_plan(sample.x, sample.xstar, sample.discrete_mask)
    ranks = margin_ranks(sample.y1), margin_ranks(sample.y2)
    return _finish(sample, kernel or KernelSpec(), bandwidth_c, None, w, m, plan, ranks,
                   bootstrap._sign_matrix_once(ranks))


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


def two_increasing(grid, tol=1e-12):
    """Whether every rectangle increment of the grid is at least -tol."""
    v = grid.values
    return float(np.min(v[1:, 1:] - v[1:, :-1] - v[:-1, 1:] + v[:-1, :-1])) >= -tol


@dataclass(frozen=True)
class PseudoObservations:
    """Marginal-CDF values of the data points plus the weights attached to them."""

    u1: np.ndarray
    u2: np.ndarray
    w: np.ndarray


def pseudo_observations(sample, w=None):
    """Rank pseudo-observations of (y1, y2); weighted marginals when w is given."""
    n = sample.n
    v = np.ones(n) if w is None else np.asarray(w, float)
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
    return Report(rho=rho, tau=tau, gamma=gamma, beta=beta)


def measures_report_from_cells(cells, m, n):
    """The measures of one atom histogram as a ``Report``: a real prefix
    sum per axis, with the trapezoid weights, diagonal indices and odd-m
    check set up on every call.  ``association.measures_from_cell_pair``
    shares one complex prefix sum between two histograms and takes the
    rest from a table built once per m; each of its sides must give these
    measures bitwise."""
    if m % 2 != 0:
        raise association.GridResolutionError(
            f"Blomqvist's beta needs (0.5, 0.5) on the grid; m={m} is odd"
        )
    V = cells[: m + 1, : m + 1].cumsum(axis=0)
    np.cumsum(V, axis=1, out=V)
    masses = cells[1 : m + 1, 1 : m + 1]
    t = np.ones(m + 1)
    t[0] = t[m] = 0.5
    idx = np.arange(m + 1)
    rows = V[1:] + V[:-1]
    tau = (np.einsum("ij,ij->", masses, rows[:, :-1])
           + np.einsum("ij,ij->", masses, rows[:, 1:]))
    return Report(
        rho=float(12.0 * (t @ (V @ t)) / (n * m * m) - 3.0),
        tau=float(tau / (n * n) - 1.0),
        gamma=float(4.0 * (t @ V[idx, idx] + t @ V[idx, m - idx]) / (n * m) - 2.0),
        beta=float(4.0 * V[m // 2, m // 2] / n - 1.0),
    )


def measures_from_grid(grid):
    """All four measures of one grid as a ``Report``.

    rho and gamma integrate C over the unit square and its diagonals, tau
    is a Stieltjes sum of C against the grid's cell masses, and beta is a
    node read; see ``association.measures_from_cell_pair``.
    """
    v = grid.values
    masses = v[1:, 1:] - v[1:, :-1] - v[:-1, 1:] + v[:-1, :-1]
    return Report(*association._measures(v, masses, grid.m, 1.0))


def gaussian_report(r):
    """The closed-form measures of the Gaussian copula with correlation r."""
    return Report(
        rho=gaussian_measure(r, "rho"),
        tau=gaussian_measure(r, "tau"),
        gamma=gaussian_measure(r, "gamma"),
        beta=gaussian_measure(r, "beta"),
    )


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_Z_FLOOR = -8.6  # standard normal mass below is ~1e-18, under the 1e-8 target


def _gl_panel(f, lo, hi):
    half = 0.5 * (hi - lo)
    z = 0.5 * (lo + hi) + half * _GL_NODES
    return half * (f(z) @ _GL_WEIGHTS)


def _adaptive_panel(f, lo, hi, tol, depth=0):
    mid = 0.5 * (lo + hi)
    whole = _gl_panel(f, lo, hi)
    left = _gl_panel(f, lo, mid)
    right = _gl_panel(f, mid, hi)
    err = np.max(np.abs(left + right - whole))
    if err <= tol or depth >= 24:
        return left + right
    return _adaptive_panel(f, lo, mid, 0.5 * tol, depth + 1) + _adaptive_panel(
        f, mid, hi, 0.5 * tol, depth + 1
    )


def bvn_cdf(a, b, r, tol=1e-10):
    """P(Z1 <= a, Z2 <= b) for standard bivariate normal with correlation r.

    One-dimensional reduction integrated by adaptive Gauss-Legendre panels:
    the integrand phi(z) Phi((b - r z) / sqrt(1 - r^2)) is smooth, so a
    24-point rule with bisection refinement reaches the tolerance quickly.
    ``b`` may be a vector; the integral is shared across its entries.
    """
    from scipy.special import ndtr

    if not -1.0 < r < 1.0:
        raise ValueError(f"correlation must lie strictly inside (-1, 1), got {r}")
    b = np.atleast_1d(np.asarray(b, dtype=float))
    s = math.sqrt(1.0 - r * r)

    def integrand(z):
        # rows: b entries; columns: quadrature nodes
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return ndtr((b[:, None] - r * z[None, :]) / s) * phi[None, :]

    if a <= _Z_FLOOR:
        return np.zeros_like(b)
    return _adaptive_panel(integrand, _Z_FLOOR, float(a), tol)


def adaptive_gaussian_copula_grid(r, m=100):
    """Gaussian-copula values on the m-grid by adaptive quadrature over z.

    Boundary rows use the exact limits C(0, v) = 0 and C(1, v) = v; interior
    rows accumulate the panel integrals of phi(z) Phi((b - r z) / sqrt(1 - r^2))
    between consecutive normal quantiles, so each quantile row is produced by
    one pass.  The package evaluates the one-dimensional integral over the
    angle instead and must agree with these values within 1e-14.
    """
    from scipy.special import ndtr, ndtri

    if not -1.0 < r < 1.0:
        raise ValueError(f"correlation must lie strictly inside (-1, 1), got {r}")
    u = np.arange(1, m) / m
    a = ndtri(u)
    b = ndtri(u)
    s = math.sqrt(1.0 - r * r)

    def integrand(z):
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return ndtr((b[:, None] - r * z[None, :]) / s) * phi[None, :]

    values = np.zeros((m + 1, m + 1))
    if m >= 2:
        # interior block: cumulative integrals over quantile segments
        acc = _adaptive_panel(integrand, _Z_FLOOR, float(a[0]), 1e-10)
        values[1, 1:m] = acc
        for i in range(1, m - 1):
            acc = acc + _adaptive_panel(integrand, float(a[i - 1]), float(a[i]), 1e-10)
            values[i + 1, 1:m] = acc
    # exact margins
    values[m, 1:m] = u
    values[1:m, m] = u
    values[m, m] = 1.0
    return CopulaGrid(m=m, values=values)


# --- the bootstrap one replicate at a time -----------------------------------

def atom_histogram(u1, u2, v, m):
    """The atom histogram of one row of pseudo-observations and weights."""
    atoms = _atom_indices(np.concatenate((u1, u2), dtype=float), m)
    i1, i2 = atoms[: len(u1)], atoms[len(u1):]
    return np.bincount(
        i1 * (m + 2) + i2, weights=v, minlength=(m + 2) ** 2
    ).reshape(m + 2, m + 2)


def _pinned(v, n):
    """Multipliers v with their total mass pinned to exactly n."""
    total = v.sum()
    if not total > 0.0:
        raise ValueError(f"total weight mass must be positive, got {total}")
    return v * (n / total)


def _rank_atoms(ranks1, ranks2, v, m):
    """Atom histogram of the rank pseudo-observations under multipliers v,
    the total mass pinned to exactly n."""
    v = _pinned(v, ranks1.n)
    # looked up at call time, so a test can swap in another histogram
    return atom_histogram(ranks1.pseudo_obs(v), ranks2.pseudo_obs(v), v, m)


def _draw_replicate(n, rng, cf_multipliers, max_retries=10):
    """Resample counts and the counterfactual multipliers they give.

    Draws that collapse onto a single row, or whose ``cf_multipliers``
    leave some counterfactual row without a kernel donor, are redrawn up
    to the retry cap.  Returns (counts, multipliers, redraws).
    """
    for attempt in range(max_retries + 1):
        counts = multinomial_counts(n, rng)
        if bootstrap._is_degenerate(counts):
            continue
        try:
            return counts, cf_multipliers(counts), attempt
        except BandwidthTooSmallError:
            continue
    raise DegenerateReplicateError(
        f"replicate was degenerate {max_retries + 1} times in a row: it "
        "collapsed onto a single row or left a row without a kernel donor"
    )


def _reports(ranks1, ranks2, counts, v_cf, m, signs=None):
    """Measures of both copulas under resample counts and counterfactual
    multipliers ``v_cf``, and their effect, as ``Estimate.reports``:
    {measure: float} dicts by target.

    Each copula's measures come from its own histogram, or, given the sign
    matrix ``signs`` of an estimate that takes its measures from the atoms
    (``Estimate.signs``), both from the atoms of the two pinned rows, in
    one ``association.measures_from_atoms`` call, as the point's do.
    """
    if v_cf.sum() <= 0.0:
        raise DegenerateReplicateError(
            "resampled counterfactual mass is zero: every positive-count row "
            "has zero weight"
        )
    n = ranks1.n
    if signs is None:
        actual = measures_report_from_cells(
            _rank_atoms(ranks1, ranks2, counts.astype(float), m), m, n
        ).as_dict()
        counterfactual = measures_report_from_cells(
            _rank_atoms(ranks1, ranks2, v_cf, m), m, n
        ).as_dict()
    else:
        v = np.stack((_pinned(counts.astype(float), n), _pinned(v_cf, n)))
        actual, counterfactual = (
            dict(zip(MEASURES, row)) for row in association.measures_from_atoms(
                v, *rank_atoms(ranks1, ranks2, v, m), signs,
                (ranks1.order, ranks2.order), m).tolist()
        )
    return {
        "actual": actual,
        "counterfactual": counterfactual,
        "effect": {key: counterfactual[key] - actual[key] for key in MEASURES},
    }


def bootstrap_replicate(sample, plan, counts, kernel, bandwidth_c):
    """Counterfactual multipliers of one recompute-weights replicate.

    The kernel weights of the resample are evaluated on ``plan`` with the
    counts as the multiplicities of its distinct rows, at the bandwidth of
    constant ``bandwidth_c`` at the covariate scale of the resampled rows,
    and folded back onto the original rows: row i gets the summed weight of
    its copies.

    Raises
    ------
    BandwidthTooSmallError
        If some resampled counterfactual row has no donor; its ``columns``
        are original rows of the sample.
    """
    rows = np.repeat(np.arange(sample.n), counts)
    h = bandwidth_rule(bandwidth_c, sample.x[rows], sample.discrete_mask)
    try:
        w = kernel_weights(
            plan, kernel, h,
            np.bincount(plan.src_inv, weights=counts, minlength=plan.src.shape[0]),
            np.bincount(plan.tgt_inv, weights=counts,
                        minlength=plan.tgt.shape[0])[:, None],
        )[:, 0]
    except BandwidthTooSmallError as err:
        # name the resampled rows only: a row left out of the resample can
        # share its target with one that has no donor
        raise BandwidthTooSmallError(
            [j for j in err.columns if counts[j] > 0], h
        ) from None
    return np.bincount(rows, weights=w[plan.src_inv[rows]], minlength=sample.n)


def _replicate_block(lo, hi, *, runs, starts):
    """``bootstrap._replicate_block`` one replicate at a time.

    Task starts[k] + b is replicate b of the run ``runs[k]`` = (seed,
    estimate, recompute_weights), seeded by (seed, b).
    """
    stats = np.empty((hi - lo, len(bootstrap.TARGETS) * len(bootstrap.MEASURES)))
    redraws = np.zeros(hi - lo, dtype=np.intp)
    for t in range(lo, hi):
        k = bisect_right(starts, t) - 1
        seed, est, recompute = runs[k]
        if recompute:
            def cf_multipliers(counts, est=est):
                return bootstrap_replicate(est.sample, est.plan, counts,
                                           est.kernel, est.bandwidth_c)
        else:
            def cf_multipliers(counts, est=est):
                return counts * est.w
        rng = np.random.default_rng(bootstrap._replicate_seed(seed, t - starts[k]))
        counts, v_cf, redraws[t - lo] = _draw_replicate(est.sample.n, rng, cf_multipliers)
        reports = _reports(*est.ranks, counts, v_cf, est.grids["actual"].m, est.signs)
        stats[t - lo] = [
            reports[target][measure] for target, measure in bootstrap._target_keys()
        ]
    return stats, redraws
