"""Monte Carlo study: linear-normal DGP, analytic truth, error metrics.

The data-generating process draws (X, e1, e2) trivariate normal with unit
variances, corr(e1, e2) = 0.5 and X independent of the errors, sets

    Y1 = 3 + 2 X - e1          Y2 = 1 + 3 X + 2 e2

and manipulates X* = 0.5 X, so the latent counterfactual outcomes keep the
errors fixed: Y1* = 3 + X - e1, Y2* = 1 + 1.5 X + 2 e2.  Both outcome pairs
are jointly normal, so their copulas are Gaussian with correlations

    r_actual = 5 / sqrt(5 * 13) = sqrt(65) / 13
    r_counterfactual = 0.5 / sqrt(2 * 6.25) = sqrt(2) / 10

which gives closed-form truth for every association measure and an analytic
truth grid for integrated estimation errors.

``run_study`` runs its replications in contiguous blocks on every usable
core through the bootstrap's block runner, one process per block; each
replication is seeded by (seed, n, rep) alone, so the report is bitwise
the same for any core count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import association
from .bootstrap import (
    BootstrapConfig,
    _run_blocks,
    _target_keys,
    check_grid_and_bandwidth,
    derived_seed,
    estimate,
    run_bootstrap,
)
from .copula import CopulaGrid, ObservationSample, empirical_copula
from .kernels import EXPONENT, KernelSpec

R_ACTUAL = math.sqrt(65.0) / 13.0
R_COUNTERFACTUAL = math.sqrt(2.0) / 10.0

ESTIMATORS = ("empirical", "proposed", "oracle")

# the (target, measure) pairs of the measure errors and intervals
_KEYS = tuple(_target_keys())

_KERNEL = KernelSpec()

_DGP_MEAN = np.zeros(3)
_DGP_COV = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.5],
    [0.0, 0.5, 1.0],
])


def dgp_draw(n, rng):
    """(sample, y1_star, y2_star): n draws of the design and their latent outcomes."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    z = rng.multivariate_normal(_DGP_MEAN, _DGP_COV, size=n, method="cholesky")
    x, e1, e2 = z[:, 0], z[:, 1], z[:, 2]
    y1 = 3.0 + 2.0 * x - e1
    y2 = 1.0 + 3.0 * x + 2.0 * e2
    xstar = 0.5 * x
    y1_star = 3.0 + x - e1
    y2_star = 1.0 + 1.5 * x + 2.0 * e2
    return ObservationSample(y1=y1, y2=y2, x=x, xstar=xstar), y1_star, y2_star


# --- analytic Gaussian copula grid -------------------------------------------

def gaussian_copula_grid(r, m=100):
    """Analytic Gaussian-copula values on the m-grid, within 1e-14 per node.

    At the nodes u_i = i/m with normal quantiles a_i, Phi(a_i) Phi(a_j) is
    u_i u_j, so (Drezner and Wesolowsky 1990; Genz 2004)

        C(u_i, u_j) = u_i u_j + 1/(2 pi) int_0^{arcsin r}
                      exp(-(a_i^2 + a_j^2 - 2 a_i a_j sin t) / (2 cos^2 t)) dt.

    The integral is a composite 24-point Gauss-Legendre rule whose panels
    halve toward arcsin r until the last is no wider than its distance to
    the integrand's pole at +-pi/2 (one panel at the study's correlations,
    ten at |r| = 0.99999), accumulated node by node over all interior nodes
    at once.  The tests hold it within 1e-14 of adaptive quadratures of the
    bivariate normal CDF over z for |r| <= 0.99999; r = 0 gives the product
    u_i u_j exactly, and the boundary rows are the exact C(0, v) = 0 and
    C(1, v) = v.
    """
    from statistics import NormalDist

    if not -1.0 < r < 1.0:
        raise ValueError(f"correlation must lie strictly inside (-1, 1), got {r}")
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"grid m must be an integer >= 1, got {m!r}")
    u = np.arange(m + 1) / m
    values = np.outer(u, u)
    a = np.array([NormalDist().inv_cdf(p) for p in u[1:m]])
    top = math.asin(r)
    gap = math.acos(abs(r))
    edges = [0.0]
    while abs(top - edges[-1]) > gap:
        edges.append(0.5 * (edges[-1] + top))
    edges.append(top)
    # Gauss-Legendre nodes and weights from the Jacobi matrix (Golub-Welsch)
    k = np.arange(1.0, 24.0)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x, vec = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    half = 0.5 * np.diff(edges)[:, None]
    theta = (np.asarray(edges[:-1])[:, None] + half * (1.0 + x)).ravel()
    weight = (half * (2.0 * vec[0] ** 2)).ravel()
    sq = np.add.outer(a * a, a * a)
    ab2 = 2.0 * np.multiply.outer(a, a)
    acc = np.zeros_like(sq)
    term = np.empty_like(sq)
    for t, w in zip(theta, weight):
        np.multiply(ab2, math.sin(t), out=term)
        term -= sq
        term *= 0.5 / math.cos(t) ** 2
        np.exp(term, out=term)
        term *= w
        acc += term
    acc /= 2.0 * math.pi
    values[1:m, 1:m] += acc
    return CopulaGrid(m=m, values=values)


# --- study configuration and report -------------------------------------------

@dataclass(frozen=True)
class SimStudyConfig:
    """Full factorial Monte Carlo study over sample sizes.

    ``bootstrap_b=0`` skips interval construction (grid-error metrics only);
    that is the cheap mode for estimator-error tables.  Every replication
    estimates with the Epanechnikov kernel and the bandwidth rule
    ``bandwidth_constant * sd(x) * n**(-1/3)``.

    ``recompute_weights`` controls the bootstrap flavor used for coverage.
    True (default) resamples rows and recomputes both the kernel weights and
    the bandwidth per replicate, treating the whole weighted estimator as
    the resampled statistic; its replicate dispersion tracks the sampling
    dispersion of the counterfactual measures most closely.  False reuses
    the original weights as multinomial multipliers, which is cheaper and
    asymptotically equivalent but slightly narrow at small n.
    """

    sizes: tuple = (100, 200, 400)
    replications: int = 1000
    bootstrap_b: int = 1000
    level: float = 0.95
    m: int = 100
    bandwidth_constant: float = 5.5
    seed: int = 20240801
    recompute_weights: bool = True

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if not self.sizes:
            raise ValueError("need at least one sample size")
        if any(n < 2 for n in self.sizes):
            raise ValueError("sample sizes must be at least 2")
        if len(set(self.sizes)) < len(self.sizes):
            raise ValueError(f"sample sizes must be distinct, got {self.sizes}")
        if self.bootstrap_b < 0 or self.bootstrap_b == 1:
            raise ValueError("bootstrap_b must be 0 (skip) or at least 2")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"coverage level must lie in (0, 1), got {self.level}")
        check_grid_and_bandwidth(self.m, self.bandwidth_constant)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class SimReport:
    """Long-format study results: one (n, target, metric, value) row each."""

    rows: list
    config: SimStudyConfig

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("n,target,metric,value\n")
            for rn, rt, rm, rv in self.rows:
                fh.write(f"{rn},{rt},{rm},{rv!r}\n")

    def write_manifest(self, path):
        from . import __version__

        cfg = self.config
        lines = [
            f"version={__version__}",
            f"seed={cfg.seed}",
            f"sizes={','.join(str(s) for s in cfg.sizes)}",
            f"replications={cfg.replications}",
            f"bootstrap_b={cfg.bootstrap_b}",
            f"level={cfg.level}",
            f"m={cfg.m}",
            f"kernel={_KERNEL.family}:{_KERNEL.order}",
            f"bandwidth_constant={cfg.bandwidth_constant}",
            f"bandwidth_exponent={EXPONENT!r}",
            f"recompute_weights={cfg.recompute_weights}",
        ]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _replication_seed(master, n, rep):
    return np.random.SeedSequence(entropy=master, spawn_key=(n, rep))


def _replication(config, truths, truth_grids, size_index, rep):
    """One replication of the study at ``config.sizes[size_index]``.

    Returns the node-average absolute and squared errors of the three
    estimators' full grids (``ESTIMATORS`` order; the oracle is the
    empirical copula of the latent outcomes), the errors of the twelve point
    measures (``_KEYS`` order) and, when bootstrap_b >= 2, whether each
    interval covers its truth (else None).
    """
    n = config.sizes[size_index]
    rng = np.random.default_rng(_replication_seed(config.seed, n, rep))
    sample, y1_star, y2_star = dgp_draw(n, rng)
    point = estimate(sample, _KERNEL, config.bandwidth_constant, config.m)
    grids = (point.grids["actual"], point.grids["counterfactual"],
             empirical_copula(replace(sample, y1=y1_star, y2=y2_star), config.m))
    diffs = [grid.values - truth.values for grid, truth in zip(grids, truth_grids)]
    abs_err = [float(np.mean(np.abs(d))) for d in diffs]
    sq_err = [float(np.mean(d ** 2)) for d in diffs]
    meas_err = [point.reports[target][mm] - truths[target][mm] for target, mm in _KEYS]
    covered = None
    if config.bootstrap_b >= 2:
        boot = run_bootstrap(point, BootstrapConfig(
            B=config.bootstrap_b,
            level=config.level,
            seed=derived_seed(config.seed, (n, rep, 1)),
            recompute_weights=config.recompute_weights,
        ))
        covered = [boot.runs[key].covers(truths[key[0]][key[1]]) for key in _KEYS]
    return abs_err, sq_err, meas_err, covered


def _replication_block(lo, hi, *, tasks, replication):
    """(task, row) for the tasks lo..hi-1; a failing task's row is its error.

    Tasks are (size index, rep) pairs.  Once a task fails, the block skips
    the tasks after it in (size index, rep) order: an earlier failure
    decides the study's error.
    """
    rows = []
    failed = None
    for task in tasks[lo:hi]:
        if failed is not None and task > failed:
            continue
        try:
            rows.append((task, replication(*task)))
        except Exception as exc:
            failed = task
            rows.append((task, exc))
    return rows


def run_study(config):
    """Run the Monte Carlo study and return the aggregated SimReport.

    Per replication: draw the DGP, estimate the actual copula (empirical),
    the counterfactual copula (proposed, kernel-weighted) and the oracle
    (empirical on latent outcomes); record grid errors against the two
    analytic truth grids, measure errors against the closed forms, and,
    when bootstrap_b >= 2, interval coverage of the closed-form truths.

    Replication (n, rep) is seeded by (seed, n, rep) alone.  The
    replications run in contiguous blocks on every usable core, in
    rep-major order so that each block mixes the sizes; each block's
    bootstraps run in its own process.  The rows are aggregated in
    (n, rep) order, and the first failing replication in that order
    decides the error, so the report is bitwise that of one loop.
    """
    truth_cf = gaussian_copula_grid(R_COUNTERFACTUAL, config.m)
    # the truths of the ESTIMATORS' grids
    truth_grids = (gaussian_copula_grid(R_ACTUAL, config.m), truth_cf, truth_cf)
    truths = {
        "actual": {mm: association.gaussian_measure(R_ACTUAL, mm) for mm in association.MEASURES},
        "counterfactual": {mm: association.gaussian_measure(R_COUNTERFACTUAL, mm) for mm in association.MEASURES},
    }
    truths["effect"] = {
        mm: truths["counterfactual"][mm] - truths["actual"][mm]
        for mm in association.MEASURES
    }

    tasks = [(i, rep) for rep in range(config.replications)
             for i in range(len(config.sizes))]
    blocks = _run_blocks(
        partial(
            _replication_block, tasks=tasks,
            replication=partial(_replication, config, truths, truth_grids),
        ),
        len(tasks),
    )
    results = dict(row for block in blocks for row in block)
    for task in sorted(results):
        if isinstance(results[task], Exception):
            raise results[task]

    rows = []
    for i, n in enumerate(config.sizes):
        reps = [results[(i, rep)] for rep in range(config.replications)]
        abs_err, sq_err, meas_err, covered = zip(*reps)
        for e, est in enumerate(ESTIMATORS):
            rows.append((n, est, "miae_x100",
                         100.0 * float(np.mean([row[e] for row in abs_err]))))
            rows.append((n, est, "rmise_x100",
                         100.0 * float(np.sqrt(np.mean([row[e] for row in sq_err])))))
        for k, (target, mm) in enumerate(_KEYS):
            errs = np.asarray([row[k] for row in meas_err])
            rows.append((n, f"{target}_{mm}", "mae", float(np.mean(np.abs(errs)))))
            rows.append((n, f"{target}_{mm}", "rmse", float(np.sqrt(np.mean(errs ** 2)))))
            if config.bootstrap_b >= 2:
                hits = sum(row[k] for row in covered)
                rows.append(
                    (n, f"{target}_{mm}", "coverage", hits / config.replications)
                )
    return SimReport(rows=rows, config=config)
