"""The estimator and its multinomial bootstrap.

``estimates`` runs the estimator for every value of a scenario family:
the bandwidth at the covariate scale of the sample gives h, one
kernel pass gives the kernel-ratio weights of all values, and each value
gets the atom histograms of the actual and counterfactual copulas, their
grids and association measures, and the policy effect.  ``estimate`` is
``estimates`` with the sample's own xstar as the one value.
``run_bootstrap(est, config)`` takes the point reports, weights, kernel,
bandwidth constant, grid size and margin ranks from the ``Estimate``, so
the point estimate and every replicate share one bandwidth constant and
one ranking.

Each replicate draws multinomial counts M with equal cell probabilities and
multiplies them into the estimators: the actual-copula replicate weights
observation i by M_i, the counterfactual replicate by M_i W_i, and the same
multipliers enter the weighted marginal CDFs used for the ranks.  Replicate
weight vectors are rescaled to total mass n (a no-op on the actual side,
where the counts sum to n by construction), so every replicate is a
copula at (1, 1) just like the point estimate.  A replicate builds no
grid: it takes its measures from its atoms and the estimate's sign matrix
when the estimate does (n <= 2m, an order-2 kernel and nonnegative
weights), else from its two atom histograms.  Kernel weights
W are NOT recomputed per replicate by default.  An opt-in mode rebuilds
them for every resample, with the bandwidth at the covariate scale of
the resampled rows: the resample is its counts on the original rows, so its
weights are evaluated on the estimate's kernel plan with the counts as
multiplicities, and folded back onto the original rows.  Both modes place
every replicate's atoms by the ranks of the original sample.

Replicates run in contiguous blocks of replicate indices, one block per
usable core (at most B), and a block in batches of max(1, 4096 // 2n)
replicates of one run.  Replicate b draws from its own generator, seeded by
(seed, b) alone, so neither the block nor the batch changes its stream and
the results are bitwise identical for any core count; the batch only
shares the numpy passes (``_batch``).  The parent runs the first block and
forks one worker per other block, with no process pool: a worker reads the
sample, weights, ranks and kernel plan from the forked memory and sends its
block back through its own pipe.  On one core (``taskset -c 0``), or without
fork, the single block runs in-process and no process starts.  The workers'
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
import pickle
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

from . import association
from .copula import (
    BandwidthTooSmallError,
    KernelPlan,
    ObservationSample,
    _point,
    kernel_plan,
    kernel_weights,
    margin_ranks,
    rank_atoms,
    support_violations,
    weighted_rank_atoms,
)
from .kernels import KernelSpec, bandwidth, validate_order

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


# a batch holds max(1, _BATCH // 2n) replicates of one run, and a pass over
# its 2R histogram rows at most _BATCH multipliers (one row at n = 3895)
_BATCH = 4096
_MAX_RETRIES = 10


def _draw(n, rng, attempt):
    """(counts, attempt) of the first draw from ``attempt`` on that does not
    collapse onto one row; a replicate has attempts 0.._MAX_RETRIES."""
    while attempt <= _MAX_RETRIES:
        counts = multinomial_counts(n, rng)
        if not _is_degenerate(counts):
            return counts, attempt
        attempt += 1
    raise DegenerateReplicateError(
        f"replicate was degenerate {_MAX_RETRIES + 1} times in a row: it "
        "collapsed onto a single row or left a row without a kernel donor"
    )


def _resamples(est, counts):
    """Rows (R, n), bandwidths (R, d), and distinct source and target
    multiplicities of the R resamples with these counts.

    The bandwidth is the estimate's constant at the covariate scale of the
    resampled rows, as the point bandwidth is at that of the sample.
    """
    plan, sample = est.plan, est.sample
    R, n = len(counts), sample.n
    flat = np.concatenate(counts)
    rows = np.repeat(np.tile(np.arange(n), R), flat).reshape(R, n)
    h = bandwidth(est.bandwidth_c, sample.x[rows], sample.discrete_mask)
    offsets = np.arange(R)[:, None]
    S, T = plan.src.shape[0], plan.tgt.shape[0]
    src = np.bincount((plan.src_inv + S * offsets).ravel(), weights=flat,
                      minlength=R * S).reshape(R, S)
    tgt = np.bincount((plan.tgt_inv + T * offsets).ravel(), weights=flat,
                      minlength=R * T).reshape(R, T)
    return rows, h, src, tgt


def _recompute(est, counts, rngs, redraws, v):
    """Recomputed counterfactual multipliers of a batch, into ``v[:, 1]``.

    A resample is its counts on the original rows, so its kernel weights are
    evaluated on the estimate's plan with the counts as multiplicities, and
    folded back: row i gets the summed weight of its copies, bitwise the
    weights of the resampled rows folded the same way.  A resample leaving a
    row without a donor is redrawn from its own generator into ``counts[j]``
    and ``v[j, 0]``.  A resample leaving a smoothed covariate constant
    fails in ``kernel_weights``.  Returns the replicates done and the first
    error or None.
    """
    plan, n = est.plan, est.sample.n
    pieces = rows, h, src, tgt = _resamples(est, counts)
    for j in range(len(counts)):
        try:
            while True:
                try:
                    w = kernel_weights(plan, est.kernel, h[j], src[j],
                                       tgt[j][:, None])[:, 0]
                    break
                except BandwidthTooSmallError:
                    counts[j], redraws[j] = _draw(n, rngs[j], redraws[j] + 1)
                    v[j, 0] = counts[j]
                    for whole, row in zip(pieces, _resamples(est, counts[j:j + 1])):
                        whole[j] = row[0]
        except Exception as exc:
            return j, exc
        v[j, 1] = np.bincount(rows[j], weights=w[plan.src_inv[rows[j]]], minlength=n)
    return len(counts), None


def _batch(seed, est, recompute, b0, b1, stats, redraws, work):
    """Stats rows and redraws of replicates b0..b1-1 of one run.

    Each replicate draws from its own generator, seeded by (seed, b), so its
    row does not depend on the batch.  The frozen multipliers are one
    product, the resample bandwidths one ``std``, and the pseudo-observations
    and atom indices of the actual and counterfactual rows one pass.  When
    the estimate keeps a sign matrix (``Estimate.signs``), one
    ``association.measures_from_atoms`` call takes the measures of all 2R
    rows from their atoms, each row's values from that row alone;
    otherwise each row's histogram is built in turn, and a replicate's two
    histograms share their prefix sums, in the buffers of ``work``
    (``association.measures_from_cell_pair``).  An error stops the batch
    at its replicate: the first failure decides.
    """
    n = est.sample.n
    # row 2j of the pass holds the counts of replicate j, row 2j+1 its
    # counterfactual multipliers
    v = np.empty((b1 - b0, 2, n))
    rngs, counts, error = [], [], None
    try:
        for j, b in enumerate(range(b0, b1)):
            rngs.append(np.random.default_rng(_replicate_seed(seed, b)))
            c, redraws[j] = _draw(n, rngs[j], 0)
            counts.append(c)
            v[j, 0] = c
    except Exception as exc:
        error = exc
    R = len(counts)
    if recompute and R:
        R, failed = _recompute(est, counts, rngs, redraws, v)
        if failed is not None:
            error = failed
    else:
        np.multiply(v[:R, 0], est.w, out=v[:R, 1])
    v = v[:R]
    # The actual-side mass is exactly n, but the resampled counterfactual
    # mass is not: left unnormalized it fluctuates with sd of order
    # sqrt(mean(w^2) - 1) / sqrt(n), a noise component the point estimator
    # (whose weights sum to n by construction) does not have.  Pinning it
    # to n makes every replicate a copula.
    mass = v[:, 1].sum(axis=1)
    if not (mass > 0.0).all():
        raise DegenerateReplicateError(
            "resampled counterfactual mass is zero: every positive-count row "
            "has zero weight"
        )
    if error is not None:
        raise error
    v[:, 1] *= (n / mass)[:, None]
    v = v.reshape(2 * R, n)
    (r1, r2), m = est.ranks, est.grids["actual"].m
    k = len(MEASURES)
    if est.signs is not None:
        # the atoms of all 2R rows from one pass, and one measures call
        stats[:, :2 * k] = association.measures_from_atoms(
            v, *rank_atoms(r1, r2, v, m), est.signs, (r1.order, r2.order), m
        ).reshape(R, 2 * k)
    else:
        step, i = max(1, _BATCH // n), 0
        for lo in range(0, 2 * R, step):
            rows = v[lo:lo + step]
            for cells in weighted_rank_atoms(r1.pseudo_obs(rows), r2.pseudo_obs(rows),
                                             rows, m):
                # row 2j is replicate j's actual copula, row 2j+1 its
                # counterfactual; at a step of one row they come from two
                # passes
                if i % 2 == 0:
                    actual = cells
                else:
                    stats[i // 2, :2 * k] = association.measures_from_cell_pair(
                        actual, cells, m, n, work)
                i += 1
    # the effect is counterfactual minus actual, measure by measure
    stats[:, 2 * k:] = stats[:, k:2 * k] - stats[:, :k]


def _replicate_block(lo, hi, *, runs, starts):
    """Measures of tasks lo..hi-1, one row each, and the redraws of each.

    Task starts[k] + b is replicate b of the run ``runs[k]`` = (seed,
    estimate, recompute_weights); its row holds its twelve values in
    ``_target_keys()`` order.  The tasks run in batches of
    max(1, _BATCH // 2n) replicates of one run (``_batch``); a batch never
    spans two runs.  Replicate b is seeded by (seed, b) alone and draws
    from its own generator, so its row depends neither on the block, nor
    on where the block runs, nor on the batch it falls in.  The batches
    share one measures workspace.
    """
    stats = np.empty((hi - lo, len(TARGETS) * len(MEASURES)))
    redraws = np.zeros(hi - lo, dtype=np.intp)
    work = {}
    t = lo
    while t < hi:
        k = bisect_right(starts, t) - 1
        seed, est, recompute = runs[k]
        stop = min(hi, starts[k + 1], t + max(1, _BATCH // (2 * est.sample.n)))
        _batch(seed, est, recompute, t - starts[k], stop - starts[k],
               stats[t - lo:stop - lo], redraws[t - lo:stop - lo], work)
        t = stop
    return stats, redraws


def _worker_count():
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the block this process runs, or None: set by _run_blocks around the
# parent's own block, and inherited for good by a forked worker
_block = None


def _run_block(block, lo, hi):
    """``block(lo, hi)``'s result or error, and the warnings it raised."""
    result = error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            result = block(lo, hi)
        except Exception as exc:
            error = exc
    return result, error, [warning.message for warning in caught]


def _run_blocks(block, count):
    """``block(lo, hi)`` over contiguous blocks of the tasks 0..count-1.

    There are min(usable cores, count) blocks, so no tasks make no blocks.
    One block, a platform without fork, or a call made while a block runs
    (in the parent's block or in a worker) runs in-process, so a bootstrap
    inside a study block forks nothing.  Otherwise the parent forks one
    worker per other block, with one pipe each, and runs the first block
    itself.  A worker sees ``block`` and its data through the fork, writes
    its block's pickled outcome to its pipe and exits; the parent reads
    every pipe to its end and reaps every worker, also when its own block
    raises.  A worker that exits without an outcome fails its block.
    Every block, the parent's too, runs under one capture of its result,
    error and warnings.  Once all blocks are done, every block's warnings
    are re-issued here in block order, also when a block failed; then the
    error of the first failing block is raised.  A block stops at its
    first failing task, so the first failing task in task order decides
    the error on any core count, as in one loop.  Returns the blocks'
    results in order.
    """
    global _block
    k = min(_worker_count(), count)
    if k == 0:
        return []
    if k == 1 or _block is not None or not hasattr(os, "fork"):
        return [block(0, count)]
    edges = [count * i // k for i in range(k + 1)]
    workers = []
    _block = block
    try:
        with warnings.catch_warnings():
            # the runner starts no thread of its own, so Python 3.12+'s
            # warning about forking a threaded process does not apply (README)
            warnings.filterwarnings(
                "ignore", category=DeprecationWarning,
                message=r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
            )
            for lo, hi in zip(edges[1:-1], edges[2:]):
                r, w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    try:
                        os.close(r)
                        with open(w, "wb") as pipe:
                            pickle.dump(_run_block(block, lo, hi), pipe)
                        os._exit(0)
                    finally:
                        os._exit(1)
                os.close(w)
                workers.append((pid, open(r, "rb"), lo, hi))
        outcomes = [_run_block(block, edges[0], edges[1])]
        outputs = [pipe.read() for _, pipe, _, _ in workers]
    finally:
        _block = None
        # every read end goes first: a later worker holds the earlier ones
        for _, pipe, _, _ in workers:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid, _, _, _ in workers]
    for (_, _, lo, hi), output, code in zip(workers, outputs, codes):
        outcomes.append(pickle.loads(output) if code == 0 else (None, RuntimeError(
            f"the worker of tasks {lo}..{hi - 1} exited without an outcome, "
            f"exit status {code}"), []))
    for _, _, caught in outcomes:
        for message in caught:
            warnings.warn(message, stacklevel=2)
    for _, error, _ in outcomes:
        if error is not None:
            raise error
    return [result for result, _, _ in outcomes]


def run_bootstrap(est, config):
    """Bootstrap intervals for every measure of {actual, counterfactual, effect}.

    The points are the reports of the ``Estimate`` ``est``, and the
    replicates resample its sample with its weights, margin ranks and grid
    size; the returned result holds one BootstrapRun per (target, measure)
    pair.  The whole run is a pure function of (est, config).  Under
    ``config.recompute_weights`` each replicate rebuilds its weights on the
    estimate's kernel plan with the estimate's kernel, and its bandwidth
    from the estimate's constant at the covariate scale of the resample.
    """
    return run_bootstraps([(est, config)])[0]


def run_bootstraps(pairs):
    """The ``run_bootstrap`` of every (est, config) pair, from one fork.

    The replicates of all pairs are the tasks of one ``_run_blocks`` call,
    so each result is bitwise that of its pair alone, and the first failing
    replicate in (pair, b) order decides the error.
    """
    pairs = list(pairs)
    runs, starts = [], [0]
    for est, config in pairs:
        runs.append((config.seed, est, config.recompute_weights))
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
        theta = est.reports[target][measure]
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
    return BootstrapResult(runs=runs, discarded=discarded)


def _target_keys():
    return [(t, m) for t in TARGETS for m in MEASURES]


@dataclass(frozen=True)
class Estimate:
    """One pass of the estimator over a sample.

    ``h`` is the bandwidth of constant ``bandwidth_c`` at the covariate
    scale of the sample.  ``w`` holds the kernel-ratio weights of the
    sample's rows, which sum to n.  ``ranks`` holds the ``MarginRanks`` of
    y1 and y2, and ``plan`` the ``KernelPlan`` of the weights, which
    recompute-weights replicates evaluate again.  ``grids`` (actual,
    counterfactual) and ``reports`` (actual, counterfactual, effect) are
    keyed by target; a report is a {measure: float} dict in ``MEASURES`` order.
    ``health`` is what the reports say about the weights, a plain dict:
    ``affected_fraction``, the share of rows whose xstar differs from x;
    ``weight_sum``, ``weight_min``, ``weight_max`` and ``negative_count``
    of ``w``; ``support_rows``, the rows of ``copula.support_violations``;
    and ``order_warning``, the text of ``kernels.validate_order`` or None.
    ``signs`` is the (n, n) ``association.sign_matrix`` of the ranks when
    the reports and every replicate's measures come from the atoms (n <= 2m,
    an order-2 kernel and nonnegative weights), else None and they come
    from the atom histograms; the values of one ``estimates`` call share
    one sign matrix.
    """

    sample: ObservationSample
    kernel: KernelSpec
    bandwidth_c: float
    h: np.ndarray
    w: np.ndarray
    ranks: tuple
    grids: dict
    reports: dict
    plan: KernelPlan
    health: dict
    signs: np.ndarray


def _finish(sample, kernel, bandwidth_c, h, w, m, plan, ranks, make_signs):
    """The ``Estimate`` of ``sample`` under its weights: grids, measures,
    effect and the weights' health record.

    Each copula's grid comes from one atom histogram.  The measures path
    follows from what the estimate sees: for n <= 2m, an order-2 kernel
    and nonnegative weights, every replicate's multipliers are
    nonnegative too, and the two copulas' measures come from their atoms
    (``association.measures_from_atoms``) with the sign matrix of the
    ranks, which ``make_signs()`` returns and the estimate keeps as
    ``signs``; otherwise they come from the two histograms in one pair
    call, and ``signs`` is None.  Either way a bootstrap replicate's
    measures take the same path.  ``ranks`` are the margin ranks of the
    sample's outcomes.  Every command and the study read the weights'
    facts from ``health``.
    """
    n = sample.n
    pinned, cells, grids = {}, {}, {}
    for target, v in (("actual", np.ones(n)), ("counterfactual", w)):
        pinned[target], cells[target], grids[target] = _point(*ranks, v, m)
    signs = None
    if n <= 2 * m and kernel.order == 2 and not (w < 0).any():
        signs = make_signs()
        v = np.stack((pinned["actual"], pinned["counterfactual"]))
        values = association.measures_from_atoms(
            v, *rank_atoms(*ranks, v, m), signs, (ranks[0].order, ranks[1].order), m
        ).ravel().tolist()
    else:
        values = association.measures_from_cell_pair(
            cells["actual"], cells["counterfactual"], m, n, {})
    k = len(MEASURES)
    reports = {"actual": dict(zip(MEASURES, values[:k])),
               "counterfactual": dict(zip(MEASURES, values[k:]))}
    reports["effect"] = {measure: reports["counterfactual"][measure]
                         - reports["actual"][measure] for measure in MEASURES}
    health = {
        "affected_fraction": float(np.any(sample.xstar != sample.x, axis=1).mean()),
        "weight_sum": float(w.sum()), "weight_min": float(w.min()),
        "weight_max": float(w.max()), "negative_count": int((w < 0).sum()),
        "support_rows": support_violations(sample),
        "order_warning": validate_order(kernel, int((~sample.discrete_mask).sum())),
    }
    return Estimate(sample=sample, kernel=kernel, bandwidth_c=bandwidth_c, h=h, w=w,
                    ranks=ranks, grids=grids, reports=reports, plan=plan,
                    health=health, signs=signs)


def check_grid_and_bandwidth(m, bandwidth_c):
    """Raise ValueError unless grid size m is even and >= 2 and the bandwidth
    constant is positive and finite; every configuration checks both."""
    if m < 2 or m % 2:
        raise ValueError(f"grid m must be even and >= 2, got {m}")
    if not (bandwidth_c > 0 and math.isfinite(bandwidth_c)):
        raise ValueError(
            f"bandwidth constant must be positive and finite, got {bandwidth_c}")


def estimate(sample, kernel, bandwidth_c, m):
    """Weights, copula grids on the m-grid, measures and policy effect.

    The bandwidth is ``kernels.bandwidth(bandwidth_c, sample.x,
    sample.discrete_mask)``: one per coordinate, ``bandwidth_c`` times the
    sample standard deviation of a smoothed coordinate (1 at a discrete
    one) times n**(-1/3).  This is ``estimates`` with the sample's own
    xstar as its one value.
    """
    return next(estimates(sample, sample.xstar[None], kernel, bandwidth_c, m))


def estimates(sample, xstars, kernel, bandwidth_c, m):
    """The ``estimate`` of ``sample`` with its xstar replaced by each of ``xstars``.

    ``xstars`` has shape (V, n, d), one manipulation of the covariates per
    value of a scenario family.  The values share the sample's x, discrete
    mask, kernel and bandwidth, so the weights of all V come from one
    ``kernel_plan`` on x and the stacked xstars, evaluated once with a
    (distinct targets x V) multiplicity matrix.  The margin ranks are
    computed once as well, and so is their sign matrix, on the first
    value that takes its measures from the atoms.  The weights are built
    by this call; the returned iterator builds the V estimates one at a
    time, in order.
    Each estimate's ``plan`` is the stacked plan with its value's target
    rows.

    Raises
    ------
    BandwidthTooSmallError
        If some value leaves a row without a donor; its ``columns`` are
        rows of the xstar of the first such value, and its ``value`` is
        that value's index.
    DegenerateCovariateError
        If a smoothed covariate of the sample is constant.
    ValueError
        If m is not even and >= 2, or the bandwidth constant is not positive
        and finite (checked before any weight is computed), or if some
        weight of some value is not finite.
    """
    check_grid_and_bandwidth(m, bandwidth_c)
    h = bandwidth(bandwidth_c, sample.x, sample.discrete_mask)
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
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    ranks = margin_ranks(sample.y1), margin_ranks(sample.y2)
    make_signs = _sign_matrix_once(ranks)
    return (
        _finish(replace(sample, xstar=xstars[v]), kernel, bandwidth_c, h,
                w[plan.src_inv, v], m,
                replace(plan, tgt_inv=plan.tgt_inv[v * n:(v + 1) * n]), ranks,
                make_signs)
        for v in range(V)
    )


def _sign_matrix_once(ranks):
    """A function that builds the ``association.sign_matrix`` of the margin
    ranks ``ranks`` on its first call and returns that one on every call."""
    return cache(partial(association.sign_matrix, ranks[0].pos, ranks[1].pos))
