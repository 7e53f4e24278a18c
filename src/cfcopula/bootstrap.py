"""The estimator and its multinomial bootstrap.

``estimates`` runs the estimator for every value of a scenario family:
the bandwidth rule at the covariate scale of the sample gives h, one
kernel pass gives the kernel-ratio weights of all values, and each value
gets the atom histograms of the actual and counterfactual copulas, their
grids and association measures, and the policy effect.  ``estimate`` is
``estimates`` with the sample's own xstar as the one value.
``run_bootstrap(est, config)`` takes the point reports, weights, kernel,
rule, grid size and margin ranks from the ``Estimate``, so the point
estimate and every replicate share one bandwidth rule and one ranking.

Each replicate draws multinomial counts M with equal cell probabilities and
multiplies them into the estimators: the actual-copula replicate weights
observation i by M_i, the counterfactual replicate by M_i W_i, and the same
multipliers enter the weighted marginal CDFs used for the ranks.  Replicate
weight vectors are rescaled to total mass n (a no-op on the actual side,
where the counts sum to n by construction), so every replicate is a
copula at (1, 1) just like the point estimate.  A replicate takes its
measures from its two atom histograms and builds no grid.  Kernel weights
W are NOT recomputed per replicate by default.  An opt-in mode rebuilds
them for every resample, with the bandwidth rule at the covariate scale of
the resampled rows: the resample is its counts on the original rows, so its
weights are evaluated on the estimate's kernel plan of the sample's distinct
rows and exact-match cells, with the counts as multiplicities, and folded
back onto the original rows.  Both modes place every replicate's
atoms by the ranks of the original sample.

Replicates run in contiguous blocks of replicate indices, one block per
usable core (the process's CPU affinity; at most B blocks).  The parent runs
the first block and forked worker processes run the others, reading the
sample, weights, ranks and kernel plan from the forked memory.  Replicate b
is seeded by (seed, b) alone, so the results are bitwise identical for any
core count.  On one core (``taskset -c 0``), or on a platform without fork,
the single block runs in-process and no process starts.  The workers'
memory does not show in the parent's resident set size.  ``_run_blocks``
is the package's one block runner: a sweep runs the replicates of all its
values through one call (``run_bootstraps``), the simulation study its
replications, and a bootstrap run inside a block runs in-process.

Confidence intervals are symmetric around the point estimate with half-width
Q/sqrt(n), where Q is the level-quantile of the centered absolute deviations
|sqrt(n)(theta_b - theta_hat) - mean_b sqrt(n)(theta_b - theta_hat)| taken at
the ceiling-index order statistic.
"""

from __future__ import annotations

import math
import os
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import association
from .copula import (
    BandwidthTooSmallError,
    KernelPlan,
    ObservationSample,
    WeightVector,
    _point,
    _rank_atoms,
    kernel_plan,
    kernel_weights,
    margin_ranks,
)
from .kernels import BandwidthRule, KernelSpec, scale_from_sample
from .kernels import bandwidth as _bandwidth

TARGETS = ("actual", "counterfactual", "effect")
MEASURES = association.MEASURES


class DegenerateReplicateError(RuntimeError):
    """A replicate kept being degenerate after the retry cap."""


@dataclass(frozen=True)
class BootstrapConfig:
    B: int = 1000
    level: float = 0.95
    seed: int = 0
    recompute_weights: bool = False

    def __post_init__(self):
        if self.B < 2:
            raise ValueError(f"need at least 2 bootstrap replicates, got B={self.B}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"coverage level must lie in (0, 1), got {self.level}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class BootstrapRun:
    """Replicate statistics and the derived interval for one scalar target."""

    target: str
    measure: str
    point: float
    replicates: np.ndarray
    q: float
    lo: float
    hi: float

    def covers(self, truth):
        return self.lo <= truth <= self.hi


@dataclass(frozen=True)
class BootstrapResult:
    """All scalar bootstrap targets of one run plus shared diagnostics.

    ``discarded`` counts redrawn resamples: ones that collapsed onto a
    single row and, with recomputed weights, ones that left some
    counterfactual row without a kernel donor.
    """

    runs: dict
    discarded: int
    config: BootstrapConfig

    def __getitem__(self, key):
        return self.runs[key]

    def interval(self, target, measure):
        r = self.runs[(target, measure)]
        return r.lo, r.hi


def multinomial_counts(n, rng):
    """One multinomial draw of n trials over n equiprobable cells."""
    return rng.multinomial(n, np.full(n, 1.0 / n))


def centered_quantile(replicates, point, n, level):
    """Ceiling-index level-quantile of centered absolute sqrt(n) deviations."""
    replicates = np.asarray(replicates, dtype=float)
    B = replicates.shape[0]
    if B < 2:
        raise ValueError("need at least 2 replicates")
    dev = math.sqrt(n) * (replicates - point)
    centered = np.abs(dev - dev.mean())
    k = math.ceil(level * B)
    return float(np.sort(centered)[k - 1])


def derived_seed(entropy, spawn_key):
    """A 64-bit integer seed drawn from the SeedSequence (entropy, spawn_key)."""
    words = np.random.SeedSequence(
        entropy=entropy, spawn_key=spawn_key
    ).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


def _replicate_seed(seed, b):
    return np.random.SeedSequence(entropy=seed, spawn_key=(b,))


def _is_degenerate(counts):
    return int(counts.max()) == counts.shape[0]


def _draw_replicate(n, rng, cf_multipliers, max_retries=10):
    """Resample counts and the counterfactual multipliers they give.

    Draws that collapse onto a single row, or whose ``cf_multipliers``
    leave some counterfactual row without a kernel donor, are redrawn up
    to the retry cap.  Returns (counts, multipliers, redraws).
    """
    for attempt in range(max_retries + 1):
        counts = multinomial_counts(n, rng)
        if _is_degenerate(counts):
            continue
        try:
            return counts, cf_multipliers(counts), attempt
        except BandwidthTooSmallError:
            continue
    raise DegenerateReplicateError(
        f"replicate was degenerate {max_retries + 1} times in a row: it "
        "collapsed onto a single row or left a row without a kernel donor"
    )


def _reports(ranks1, ranks2, counts, v_cf, m):
    """Measures of both copulas under resample counts and counterfactual
    multipliers ``v_cf``, and their effect.

    Each side's measures come from its atom histogram; no grid is built.
    Unit counts with the kernel weights as ``v_cf`` give the point reports
    of the ``Estimate`` bitwise, since they come from the same histograms.
    """
    # The actual-side mass sum(counts) is exactly n, but the resampled
    # counterfactual mass is not: left unnormalized it fluctuates with sd of
    # order sqrt(mean(w^2) - 1) / sqrt(n), a noise component the point
    # estimator (whose weights sum to n by construction) does not have.
    # The histogram pins it to n so every replicate is a copula.
    if v_cf.sum() <= 0.0:
        raise DegenerateReplicateError(
            "resampled counterfactual mass is zero: every positive-count row "
            "has zero weight"
        )
    n = ranks1.n
    actual = association.measures_from_cells(
        _rank_atoms(ranks1, ranks2, counts.astype(float), m), m, n
    )
    counterfactual = association.measures_from_cells(
        _rank_atoms(ranks1, ranks2, v_cf, m), m, n
    )
    return {
        "actual": actual,
        "counterfactual": counterfactual,
        "effect": association.policy_effect(counterfactual, actual),
    }


def bootstrap_replicate(sample, plan, counts, kernel, rule):
    """Counterfactual multipliers of one recompute-weights replicate.

    A row resample is its counts on the original rows, so the kernel
    weights of the resample are evaluated on ``plan``, the ``kernel_plan``
    of the sample, with the counts as the multiplicities of its distinct
    rows.  The bandwidth is ``rule`` at the covariate scale of the
    resampled rows, as the point bandwidth is ``rule`` at the scale of the
    sample.  The weights are folded back onto the original rows: row i gets
    the summed weight of its copies.  The multipliers are bitwise those of
    the kernel weights of the resampled rows, folded the same way.

    Raises
    ------
    BandwidthTooSmallError
        If some resampled counterfactual row has no donor; its ``columns``
        are original rows of the sample.
    """
    rows = np.repeat(np.arange(sample.n), counts)
    h = _bandwidth(
        replace(rule, scale=scale_from_sample(sample.x[rows], sample.discrete_mask)),
        sample.n,
    )
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
    """Measures of tasks lo..hi-1, one row each, and the redraws of each.

    Task starts[k] + b is replicate b of the run ``runs[k]`` = (seed, margin
    ranks, grid size, counterfactual multipliers); its row holds its twelve
    values in ``_target_keys()`` order.  It is seeded by (seed, b) alone,
    so its row does not depend on the block or on where the block runs.
    """
    stats = np.empty((hi - lo, len(TARGETS) * len(MEASURES)))
    redraws = np.zeros(hi - lo, dtype=np.intp)
    for t in range(lo, hi):
        k = bisect_right(starts, t) - 1
        seed, r1, r2, m, cf_multipliers = runs[k]
        rng = np.random.default_rng(_replicate_seed(seed, t - starts[k]))
        counts, v_cf, redraws[t - lo] = _draw_replicate(r1.n, rng, cf_multipliers)
        reports = _reports(r1, r2, counts, v_cf, m)
        stats[t - lo] = [
            getattr(reports[target], measure) for target, measure in _target_keys()
        ]
    return stats, redraws


def _worker_count():
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# True while this process runs a block of ``_run_blocks``: in the parent's
# own block, and for good in a forked worker
_in_block = False

# the block a forked worker runs; set in the worker only, by _install_block
_block = None


def _install_block(block):
    global _block, _in_block
    _block = block
    _in_block = True


def _run_installed_block(lo, hi):
    """The installed block's result or error, and the warnings it raised."""
    result = error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            result = _block(lo, hi)
        except Exception as exc:
            error = exc
    return result, error, [warning.message for warning in caught]


def _run_blocks(block, count):
    """``block(lo, hi)`` over contiguous blocks of the tasks 0..count-1.

    There are min(usable cores, count) blocks.  One block, a platform
    without fork, or a call made while a block runs (in the parent's block
    or in a worker) runs in-process, so a bootstrap inside a study block
    forks nothing.  Otherwise the parent runs the first block and forked
    workers run the rest: they see ``block`` and its data through the
    fork, so only (lo, hi) and a block's result are pickled.  Returns the
    blocks' results in order.  A worker's warnings are re-issued here and
    a failing block re-raises, both in block order, so the first failing
    task decides the error, as in one loop.
    """
    global _in_block
    k = min(_worker_count(), count)
    if k == 1 or _in_block or not hasattr(os, "fork"):
        return [block(0, count)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    edges = [count * i // k for i in range(k + 1)]
    with ProcessPoolExecutor(
        k - 1, mp_context=multiprocessing.get_context("fork"),
        initializer=_install_block, initargs=(block,),
    ) as pool:
        with warnings.catch_warnings():
            # the pool forks every worker in its first submit, before it
            # starts a thread of its own, so Python 3.12+'s warning about
            # forking a threaded process does not apply (README)
            warnings.filterwarnings(
                "ignore", category=DeprecationWarning,
                message=r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
            )
            futures = [
                pool.submit(_run_installed_block, lo, hi)
                for lo, hi in zip(edges[1:-1], edges[2:])
            ]
        _in_block = True
        try:
            results = [block(edges[0], edges[1])]
        finally:
            _in_block = False
        for future in futures:
            result, error, caught = future.result()
            for message in caught:
                warnings.warn(message, stacklevel=2)
            if error is not None:
                raise error
            results.append(result)
    return results


def run_bootstrap(est, config):
    """Bootstrap intervals for every measure of {actual, counterfactual, effect}.

    The points are the reports of the ``Estimate`` ``est``, and the
    replicates resample its sample with its weights, margin ranks and grid
    size; the returned result holds one BootstrapRun per (target, measure)
    pair.  The whole run is a pure function of (est, config).  Under
    ``config.recompute_weights`` each replicate rebuilds its weights on the
    estimate's kernel plan with the estimate's kernel, and its bandwidth
    from the estimate's rule at the covariate scale of the resample.
    """
    return run_bootstraps([(est, config)])[0]


def _cf_multipliers(est, config):
    if config.recompute_weights:
        def cf_multipliers(counts):
            return bootstrap_replicate(est.sample, est.plan, counts, est.kernel, est.rule)
    else:
        def cf_multipliers(counts):
            return counts * est.w.w
    return cf_multipliers


def run_bootstraps(pairs):
    """The ``run_bootstrap`` of every (est, config) pair, from one fork.

    The replicates of all pairs are the tasks of one ``_run_blocks`` call,
    so each result is bitwise that of its pair alone, and the first failing
    replicate in (pair, b) order decides the error.
    """
    pairs = list(pairs)
    runs, starts = [], [0]
    for est, config in pairs:
        runs.append((config.seed, *est.ranks, est.grids["actual"].m,
                     _cf_multipliers(est, config)))
        starts.append(starts[-1] + config.B)
    blocks = _run_blocks(
        partial(_replicate_block, runs=runs, starts=starts), starts[-1]
    )
    stats = np.concatenate([rows for rows, _ in blocks])
    redraws = np.concatenate([counts for _, counts in blocks])
    return [
        _result(est, config, stats[lo:hi], int(redraws[lo:hi].sum()))
        for (est, config), lo, hi in zip(pairs, starts, starts[1:])
    ]


def _result(est, config, stats, discarded):
    n = est.sample.n
    # one contiguous row of B replicates per (target, measure)
    stats = np.ascontiguousarray(stats.T)
    runs = {}
    for (target, measure), reps in zip(_target_keys(), stats):
        theta = getattr(est.reports[target], measure)
        q = centered_quantile(reps, theta, n, config.level)
        half = q / math.sqrt(n)
        runs[(target, measure)] = BootstrapRun(
            target=target,
            measure=measure,
            point=theta,
            replicates=reps,
            q=q,
            lo=theta - half,
            hi=theta + half,
        )
    return BootstrapResult(runs=runs, discarded=discarded, config=config)


def _target_keys():
    return [(t, m) for t in TARGETS for m in MEASURES]


@dataclass(frozen=True)
class Estimate:
    """One pass of the estimator over a sample.

    ``rule`` holds the covariate scale of the sample and ``h`` is its
    bandwidth.  ``ranks`` holds the ``MarginRanks`` of y1 and y2, and
    ``plan`` the ``KernelPlan`` of the weights, which recompute-weights
    replicates evaluate again.  ``grids`` (actual, counterfactual) and
    ``reports`` (actual, counterfactual, effect) are keyed by target.
    """

    sample: ObservationSample
    kernel: KernelSpec
    rule: BandwidthRule
    h: np.ndarray
    w: WeightVector
    ranks: tuple
    grids: dict
    reports: dict
    plan: KernelPlan


def _finish(sample, kernel, rule, h, w, m, plan, ranks=None):
    """The ``Estimate`` of ``sample`` under its weights: grids, measures, effect.

    Each copula's grid and measures come from one atom histogram, as a
    bootstrap replicate's measures do.  ``ranks`` are the margin ranks of
    the sample's outcomes, computed here when not given.
    """
    if ranks is None:
        ranks = margin_ranks(sample.y1), margin_ranks(sample.y2)
    grids, reports = {}, {}
    for target, v, two_increasing in (
        ("actual", np.ones(sample.n), True),
        ("counterfactual", w.w, w.negative_count == 0),
    ):
        cells, grids[target] = _point(*ranks, v, m, two_increasing)
        reports[target] = association.measures_from_cells(cells, m, sample.n)
    reports["effect"] = association.policy_effect(
        reports["counterfactual"], reports["actual"]
    )
    return Estimate(sample=sample, kernel=kernel, rule=rule, h=h, w=w,
                    ranks=ranks, grids=grids, reports=reports, plan=plan)


def estimate(sample, kernel, rule, m):
    """Weights, copula grids on the m-grid, measures and policy effect.

    The bandwidth is ``rule`` at ``scale_from_sample(sample.x,
    sample.discrete_mask)``: one per coordinate, the sample standard
    deviation of a smoothed coordinate and 1 at a discrete one.  This is
    ``estimates`` with the sample's own xstar as its one value.
    """
    return next(estimates(sample, sample.xstar[None], kernel, rule, m))


def estimates(sample, xstars, kernel, rule, m):
    """The ``estimate`` of ``sample`` with its xstar replaced by each of ``xstars``.

    ``xstars`` has shape (V, n, d), one manipulation of the covariates per
    value of a scenario family.  The values share the sample's x, discrete
    mask, kernel and bandwidth, so the weights of all V come from one
    ``kernel_plan`` on x and the stacked xstars, evaluated once with a
    (distinct targets x V) multiplicity matrix.  The margin ranks are
    computed once as well.  The weights are built by this call; the
    returned iterator builds the V estimates one at a time, in order.
    Each estimate's ``plan`` is the stacked plan with its value's target
    rows.

    Raises
    ------
    BandwidthTooSmallError
        If some value leaves a row without a donor; its ``columns`` are
        rows of the xstar of the first such value, and its ``value`` is
        that value's index.
    """
    rule = replace(rule, scale=scale_from_sample(sample.x, sample.discrete_mask))
    h = _bandwidth(rule, sample.n)
    V, n = xstars.shape[0], sample.n
    plan = kernel_plan(sample.x, xstars.reshape(V * n, -1), sample.discrete_mask)
    t = plan.tgt.shape[0]
    # the multiplicity of distinct target k in value v sits at [k, v]
    counts = np.bincount(
        plan.tgt_inv + t * np.repeat(np.arange(V), n), minlength=V * t
    ).reshape(V, t).T
    try:
        w = kernel_weights(plan, kernel, h, plan.src_counts, counts)
    except BandwidthTooSmallError as err:
        first = err.columns[0] // n
        error = BandwidthTooSmallError(
            [j - first * n for j in err.columns if j // n == first], h
        )
        error.value = first
        raise error from None
    ranks = margin_ranks(sample.y1), margin_ranks(sample.y2)
    return (
        _finish(replace(sample, xstar=xstars[v]), kernel, rule, h,
                WeightVector.from_array(w[plan.src_inv, v]), m,
                replace(plan, tgt_inv=plan.tgt_inv[v * n:(v + 1) * n]), ranks)
        for v in range(V)
    )
