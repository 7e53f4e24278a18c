import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import oracles
from oracles import (
    _draw_replicate,
    _rank_atoms,
    _reports,
    bandwidth_rule,
    bootstrap_replicate,
    counterfactual_copula,
    counterfactual_weights,
    estimate_under,
    measures_from_grid,
    measures_report_from_cells,
)
from test_copula import _add_at_atoms, _mixed_covariates

from cfcopula import bootstrap, copula
from cfcopula.bootstrap import (
    BootstrapConfig,
    DegenerateReplicateError,
    _is_degenerate,
    centered_quantile,
    estimate,
    estimates,
    multinomial_counts,
    run_bootstrap,
)
from cfcopula.association import MEASURES
from cfcopula.copula import (
    BLOCK,
    BandwidthTooSmallError,
    ObservationSample,
    _atom_grid,
    empirical_copula,
    kernel_plan,
    margin_ranks,
    weighted_rank_atoms,
)
from cfcopula.data import SynthConfig, build_sample, default_synth_roles, synth_table
from cfcopula.kernels import DegenerateCovariateError, KernelSpec
from cfcopula.scenarios import apply_scenario, parse_scenario
from cfcopula.simulation import dgp_draw


def _pin_workers(monkeypatch, k):
    """Make run_bootstrap see k usable cores."""
    monkeypatch.setattr(bootstrap, "_worker_count", lambda: k)


def _assert_bitwise_equal(a, b):
    assert a.discarded == b.discarded
    for key, run in a.runs.items():
        ref = b.runs[key]
        assert run.replicates.tobytes() == ref.replicates.tobytes()
        fields = np.array([run.point, run.q, run.lo, run.hi])
        assert fields.tobytes() == np.array([ref.point, ref.q, ref.lo, ref.hi]).tobytes()


def _sample(n, seed, shift=0.25):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    z = rng.normal(size=n)
    y1 = x[:, 0] + z + rng.normal(size=n)
    y2 = x[:, 0] + 0.5 * z + rng.normal(size=n)
    return ObservationSample(y1=y1, y2=y2, x=x, xstar=x + shift)


def test_centered_quantile_hand_example():
    """B=5, n=4: deviations (0, .2, -.2, .4, -.4) center at zero; the 0.6
    quantile picks the ceil(3)-rd sorted absolute value, 0.2."""
    reps = np.array([0.5, 0.6, 0.4, 0.7, 0.3])
    q = centered_quantile(reps, point=0.5, n=4, level=0.6)
    assert q == pytest.approx(0.2, abs=1e-15)
    # the full level keeps the largest deviation
    assert centered_quantile(reps, 0.5, 4, 1.0) == pytest.approx(0.4, abs=1e-15)


def test_centered_quantile_recentres_biased_replicates():
    # constant offset between replicates and point cancels exactly
    reps = np.array([0.7, 0.8, 0.6, 0.9, 0.5])
    assert centered_quantile(reps, 0.5, 4, 0.6) == pytest.approx(0.2, abs=1e-15)


def test_centered_quantile_needs_two_replicates():
    with pytest.raises(ValueError):
        centered_quantile(np.array([0.5]), 0.5, 4, 0.95)


def test_multinomial_counts_conserve_n():
    rng = np.random.default_rng(0)
    for n in (2, 17, 400):
        counts = multinomial_counts(n, rng)
        assert counts.sum() == n
        assert counts.min() >= 0


def test_degeneracy_detector():
    assert _is_degenerate(np.array([5, 0, 0, 0, 0]))
    assert not _is_degenerate(np.array([4, 1, 0, 0, 0]))


def test_draw_counts_reports_redraws():
    counts, v_cf, redraws = _draw_replicate(
        50, np.random.default_rng(1), lambda c: c * 2.0
    )
    assert counts.sum() == 50 and redraws == 0
    assert np.array_equal(v_cf, counts * 2.0)


def test_replicate_without_donor_hits_the_retry_cap():
    def no_donor(counts):
        raise BandwidthTooSmallError([0], 0.1)

    with pytest.raises(DegenerateReplicateError):
        _draw_replicate(20, np.random.default_rng(0), no_donor, max_retries=3)


def test_unit_multipliers_reproduce_point_grids_bitwise():
    """counts = 1 must reduce the replicate to the point estimators exactly:
    its histograms give the point grids and the point reports."""
    order4 = KernelSpec(family="higher_order", order=4)
    for kernel, h in ((KernelSpec(), 1.5), (order4, 0.8)):
        sample = _sample(60, 2)
        w = counterfactual_weights(sample.x, sample.xstar, kernel=kernel, h=h)
        r1 = margin_ranks(sample.y1)
        r2 = margin_ranks(sample.y2)
        ones = np.ones(60, dtype=np.int64)
        act = _rank_atoms(r1, r2, ones.astype(float), 20)
        cf = _rank_atoms(r1, r2, ones * w, 20)
        assert (_atom_grid(act, 20, 60).tobytes()
                == empirical_copula(sample, m=20).values.tobytes())
        assert (_atom_grid(cf, 20, 60).tobytes()
                == counterfactual_copula(sample, w, m=20).values.tobytes())
        reports = _reports(r1, r2, ones, ones * w, 20)
        est = estimate_under(sample, w, 20, kernel)
        assert reports == est.reports
        assert reports["counterfactual"] == measures_report_from_cells(
            cf, 20, 60).as_dict()


def test_zero_counterfactual_mass_raises():
    sample = _sample(8, 3)
    r1 = margin_ranks(sample.y1)
    r2 = margin_ranks(sample.y2)
    w = np.zeros(8)
    w[0] = 8.0  # all counterfactual mass on row 0
    counts = np.ones(8, dtype=np.int64)
    counts[0] = 0  # ...which the resample misses
    counts[1] = 2
    with pytest.raises(DegenerateReplicateError):
        _reports(r1, r2, counts, counts * w, 4)


def test_bootstrap_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(B=1)
    with pytest.raises(ValueError):
        BootstrapConfig(level=1.0)
    with pytest.raises(ValueError):
        BootstrapConfig(seed=-1)


def test_run_bootstrap_targets_and_interval_shape():
    sample = _sample(50, 4)
    w = counterfactual_weights(sample.x, sample.xstar, h=1.5)
    result = run_bootstrap(estimate_under(sample, w, 20), BootstrapConfig(B=40, seed=5))
    assert set(result.runs) == {
        (t, m) for t in ("actual", "counterfactual", "effect")
        for m in ("rho", "tau", "gamma", "beta")
    }
    for run in result.runs.values():
        assert run.replicates.shape == (40,)
        assert run.lo <= run.point <= run.hi  # symmetric around the point
        assert run.q >= 0


def test_run_bootstrap_is_deterministic_given_seed():
    sample = _sample(45, 6)
    w = counterfactual_weights(sample.x, sample.xstar, h=1.5)
    est = estimate_under(sample, w, 10)
    a = run_bootstrap(est, BootstrapConfig(B=25, seed=11))
    b = run_bootstrap(est, BootstrapConfig(B=25, seed=11))
    for key in a.runs:
        assert np.array_equal(a.runs[key].replicates, b.runs[key].replicates)
        assert (a.runs[key].lo, a.runs[key].hi) == (b.runs[key].lo, b.runs[key].hi)
    c = run_bootstrap(est, BootstrapConfig(B=25, seed=12))
    assert any(
        not np.array_equal(a.runs[k].replicates, c.runs[k].replicates)
        for k in a.runs
    )


def test_effect_replicates_are_coupled_differences():
    sample = _sample(40, 7)
    w = counterfactual_weights(sample.x, sample.xstar, h=1.5)
    runs = run_bootstrap(estimate_under(sample, w, 10), BootstrapConfig(B=15, seed=3)).runs
    np.testing.assert_allclose(
        runs[("effect", "tau")].replicates,
        runs[("counterfactual", "tau")].replicates - runs[("actual", "tau")].replicates,
        atol=1e-12,
    )


def test_recompute_weights_mode_reruns_kernel_per_replicate():
    sample = _sample(40, 8)
    w = counterfactual_weights(sample.x, sample.xstar, h=1.5)
    est = estimate_under(sample, w, 10, bandwidth_c=3.0)
    fixed = run_bootstrap(est, BootstrapConfig(B=12, seed=9))
    redone = run_bootstrap(est, BootstrapConfig(B=12, seed=9, recompute_weights=True))
    assert all(np.all(np.isfinite(r.replicates)) for r in redone.runs.values())
    key = ("counterfactual", "tau")
    assert not np.array_equal(fixed.runs[key].replicates, redone.runs[key].replicates)
    # both modes share the multinomial stream, so the actual side agrees
    # whenever a replicate needs no redraw
    assert fixed.runs[("actual", "tau")].point == redone.runs[("actual", "tau")].point


def test_bootstrap_replicate_single_draw():
    sample = _sample(30, 10)
    counts = multinomial_counts(30, np.random.default_rng(2))
    plan = kernel_plan(sample.x, sample.xstar)
    v_cf = bootstrap_replicate(sample, plan, counts, KernelSpec(), 9.0)
    # recomputed weights live on the resampled rows only and keep mass n
    assert v_cf.shape == (30,)
    assert np.all(v_cf[counts == 0] == 0.0)
    assert np.all(v_cf[counts > 0] > 0.0)
    assert v_cf.sum() == pytest.approx(30.0, abs=1e-9)
    r1 = margin_ranks(sample.y1)
    r2 = margin_ranks(sample.y2)
    for v in (counts.astype(float), v_cf):
        cells = _rank_atoms(r1, r2, v, 10)
        assert cells.shape == (12, 12)
        assert _atom_grid(cells, 10, 30)[10, 10] == pytest.approx(1.0, abs=1e-12)


def _resample_and_rerank(sample, counts, kernel, constant, m):
    # the recompute replicate built literally: expand the counts into a row
    # resample, rebuild bandwidth and weights on it, and rank it afresh
    n = sample.n
    rows = np.repeat(np.arange(n), counts)
    resample = ObservationSample(
        y1=sample.y1[rows], y2=sample.y2[rows], x=sample.x[rows],
        xstar=sample.xstar[rows], discrete_mask=sample.discrete_mask,
    )
    h = bandwidth_rule(constant, resample.x, resample.discrete_mask)
    wb = counterfactual_weights(resample.x, resample.xstar, kernel=kernel, h=h,
                                discrete_mask=resample.discrete_mask)
    r1 = margin_ranks(resample.y1)
    r2 = margin_ranks(resample.y2)
    ones = np.ones(n)
    act = _atom_grid(
        oracles.atom_histogram(r1.pseudo_obs(ones), r2.pseudo_obs(ones), ones, m), m, n
    )
    vb = wb * (n / wb.sum())
    cf = _atom_grid(
        oracles.atom_histogram(r1.pseudo_obs(vb), r2.pseudo_obs(vb), vb, m), m, n
    )
    return act, cf


def test_recompute_replicate_matches_resample_and_rerank():
    """Folding the recomputed weights onto the original rows and reusing the
    original ranks reproduces the explicit resample: the actual grid bitwise,
    the counterfactual grid up to summation order."""
    rng = np.random.default_rng(21)
    x = np.column_stack([rng.normal(size=80), rng.integers(0, 3, size=80)])
    tied = ObservationSample(
        y1=np.round(x[:, 0] + rng.normal(size=80), 1),
        y2=np.round(x[:, 1] + rng.normal(size=80), 1),
        x=x, xstar=x + np.array([0.3, 0.0]),
        discrete_mask=np.array([False, True]),
    )
    cases = [
        (dgp_draw(100, np.random.default_rng(4))[0], KernelSpec(),
         5.5, 100),
        (tied, KernelSpec(family="higher_order", order=4),
         8.0, 20),
    ]
    for sample, kernel, constant, m in cases:
        r1 = margin_ranks(sample.y1)
        r2 = margin_ranks(sample.y2)
        plan = kernel_plan(sample.x, sample.xstar, sample.discrete_mask)
        for b in range(30):
            counts = multinomial_counts(sample.n, np.random.default_rng(b))
            v_cf = bootstrap_replicate(sample, plan, counts, kernel, constant)
            act = _atom_grid(_rank_atoms(r1, r2, counts.astype(float), m), m, sample.n)
            cf = _atom_grid(_rank_atoms(r1, r2, v_cf, m), m, sample.n)
            act_ref, cf_ref = _resample_and_rerank(sample, counts, kernel, constant, m)
            assert np.array_equal(act, act_ref)
            assert np.max(np.abs(cf - cf_ref)) <= 1e-12


def _resampled_multipliers(sample, plan, counts, kernel, constant):
    # the recompute replicate built on the resampled rows: kernel weights
    # of x[rows] against xstar[rows], folded onto the original rows; the
    # reference for the count form on the kernel plan, which it ignores
    rows = np.repeat(np.arange(sample.n), counts)
    h = bandwidth_rule(constant, sample.x[rows], sample.discrete_mask)
    wb = counterfactual_weights(sample.x[rows], sample.xstar[rows], kernel=kernel,
                                h=h, discrete_mask=sample.discrete_mask)
    return np.bincount(rows, weights=wb, minlength=sample.n)


def test_count_form_replicates_are_bitwise_those_of_the_resample():
    rng = np.random.default_rng(41)
    x = _mixed_covariates(300, rng)
    xstar = x.copy()
    xstar[:, 2] = np.maximum(xstar[:, 2], 13.0)
    mixed = ObservationSample(y1=rng.normal(size=300), y2=rng.normal(size=300), x=x,
                              xstar=xstar, discrete_mask=np.array([True, True, False, False]))
    wide = _sample(1500, 42, shift=0.3)
    cases = [
        (dgp_draw(100, np.random.default_rng(4))[0], KernelSpec(),
         5.5, 25),
        (mixed, KernelSpec(), 10.0, 25),
        (mixed, KernelSpec(family="higher_order", order=4),
         10.0, 25),
        (mixed, KernelSpec(family="gaussian_truncated"),
         10.0, 25),
        # one cell whose resampled sources and targets span several blocks
        (wide, KernelSpec(family="gaussian_truncated"), 10.0, 4),
    ]
    negative = False
    for sample, kernel, constant, reps in cases:
        plan = kernel_plan(sample.x, sample.xstar, sample.discrete_mask)
        for b in range(reps):
            counts = multinomial_counts(sample.n, np.random.default_rng(100 + b))
            if sample is wide:
                assert np.count_nonzero(counts) > BLOCK // np.count_nonzero(counts)
            v_cf = bootstrap_replicate(sample, plan, counts, kernel, constant)
            ref = _resampled_multipliers(sample, plan, counts, kernel, constant)
            assert v_cf.tobytes() == ref.tobytes()
            negative |= bool(np.any(v_cf < 0))
    assert negative  # the order-4 kernel case reached negative weights


def test_count_form_replicates_without_donor_fail_on_the_same_rows():
    rng = np.random.default_rng(43)
    x = np.column_stack([np.round(rng.normal(size=80), 1), rng.integers(0, 2, size=80)])
    sample = ObservationSample(
        y1=rng.normal(size=80), y2=rng.normal(size=80), x=x,
        xstar=x + np.array([0.4, 0.0]), discrete_mask=np.array([False, True]),
    )
    plan = kernel_plan(sample.x, sample.xstar, sample.discrete_mask)
    constant = 1.7
    failed = passed = 0
    for b in range(40):
        counts = multinomial_counts(80, np.random.default_rng(200 + b))
        rows = np.repeat(np.arange(80), counts)
        try:
            ref = _resampled_multipliers(sample, plan, counts, KernelSpec(), constant)
        except BandwidthTooSmallError as err:
            with pytest.raises(BandwidthTooSmallError) as mine:
                bootstrap_replicate(sample, plan, counts, KernelSpec(), constant)
            assert mine.value.columns == sorted(set(rows[err.columns].tolist()))
            failed += 1
        else:
            v_cf = bootstrap_replicate(sample, plan, counts, KernelSpec(), constant)
            assert v_cf.tobytes() == ref.tobytes()
            passed += 1
    assert failed > 0 and passed > 0


def test_recompute_bootstrap_is_bitwise_that_of_the_resample(monkeypatch):
    """A whole recompute run, redraws included, with the resample as oracle."""
    sample = dgp_draw(12, np.random.default_rng(0))[0]
    constant = 2.0
    h = bandwidth_rule(constant, sample.x, sample.discrete_mask)
    w = counterfactual_weights(sample.x, sample.xstar, h=h)

    def run():
        return run_bootstrap(
            estimate_under(sample, w, 20, bandwidth_c=constant),
            BootstrapConfig(B=60, seed=3, recompute_weights=True),
        )

    _pin_workers(monkeypatch, 2)
    forked = run()
    # the oracle counts its calls in this process, so every replicate runs here
    _pin_workers(monkeypatch, 1)
    new = run()
    _assert_bitwise_equal(forked, new)
    calls = []

    def oracle(*args):
        calls.append(1)
        return _resampled_multipliers(*args)

    # the one-at-a-time loop with the resample's multipliers
    monkeypatch.setattr(bootstrap, "_replicate_block", oracles._replicate_block)
    monkeypatch.setattr(oracles, "bootstrap_replicate", oracle)
    old = run()
    assert len(calls) == 60 + old.discarded
    assert new.discarded == old.discarded > 0
    _assert_bitwise_equal(new, old)


def test_replicate_without_donor_names_original_rows_and_a_scalar_h():
    x = np.arange(10.0)
    xstar = x.copy()
    xstar[[1, 7]] = 100.0
    sample = ObservationSample(y1=x, y2=-x, x=x, xstar=xstar)
    # rows 2..9 sit at resample positions 0..9; row 7 at positions 6 and 7,
    # row 1, with the same target, is not resampled
    counts = np.array([0, 0, 2, 1, 1, 1, 1, 2, 1, 1])
    plan = kernel_plan(sample.x, sample.xstar)
    constant = 1.5
    with pytest.raises(BandwidthTooSmallError) as err:
        bootstrap_replicate(sample, plan, counts, KernelSpec(), constant)
    assert err.value.columns == [7]
    assert "rows [7]" in str(err.value)
    # the one-coordinate bandwidth of the resample reads as a scalar
    rows = np.repeat(np.arange(10), counts)
    h = bandwidth_rule(constant, sample.x[rows], sample.discrete_mask)
    assert h.shape == (1,)
    assert f"h={float(h[0])};" in str(err.value)


def test_recompute_bootstrap_redraws_a_replicate_without_donor():
    """At n=12 and a narrow bandwidth some resamples leave a counterfactual
    row without a kernel donor; they are redrawn, not fatal."""
    sample = dgp_draw(12, np.random.default_rng(0))[0]
    constant = 2.0
    h = bandwidth_rule(constant, sample.x, sample.discrete_mask)
    w = counterfactual_weights(sample.x, sample.xstar, h=h)
    result = run_bootstrap(
        estimate_under(sample, w, 100, bandwidth_c=constant),
        BootstrapConfig(B=200, seed=0, recompute_weights=True),
    )
    assert result.discarded > 0
    assert all(np.all(np.isfinite(r.replicates)) for r in result.runs.values())


def test_bootstrap_runs_are_bitwise_those_of_the_add_at_grid(monkeypatch):
    """Both modes give the same doubles with the binary-search, add.at
    histogram, and on any number of cores."""
    sample = _sample(48, 14)
    # coarse outcomes tie, and the order-4 kernel leaks negative mass
    sample = replace(sample, y1=np.round(sample.y1), y2=np.round(sample.y2, 1))
    kernel = KernelSpec(family="higher_order", order=4)
    w = counterfactual_weights(sample.x, sample.xstar, kernel=kernel, h=0.8)
    assert (w < 0).any()

    def runs():
        return [
            run_bootstrap(
                estimate_under(sample, w, 10, kernel, 2.0),
                BootstrapConfig(B=30, seed=8, recompute_weights=redo),
            )
            for redo in (False, True)
        ]

    _pin_workers(monkeypatch, 2)
    forked = runs()
    # the oracle counts its calls in this process, so every replicate runs here
    _pin_workers(monkeypatch, 1)
    new = runs()
    for a, b in zip(forked, new):
        _assert_bitwise_equal(a, b)
    calls = []

    def oracle(u1, u2, v, m):
        for row in zip(u1, u2, v):
            calls.append(1)
            yield _add_at_atoms(*row, m)

    monkeypatch.setattr(copula, "weighted_rank_atoms", oracle)
    monkeypatch.setattr(bootstrap, "weighted_rank_atoms", oracle)
    old = runs()
    # two histograms for the point and for each replicate, in both modes
    assert len(calls) == 2 * 2 * (1 + 30)
    for a, b in zip(new, old):
        _assert_bitwise_equal(a, b)


def _frozen_case(B):
    sample = _sample(60, 21)
    w = counterfactual_weights(sample.x, sample.xstar, h=1.5)
    return dict(est=estimate_under(sample, w, 20), config=BootstrapConfig(B=B, seed=2))


def _recompute_case_with_redraws():
    sample = dgp_draw(12, np.random.default_rng(0))[0]
    constant = 1.0
    h = bandwidth_rule(constant, sample.x, sample.discrete_mask)
    return dict(
        est=estimate_under(sample, counterfactual_weights(sample.x, sample.xstar, h=h),
                           20, bandwidth_c=constant),
        config=BootstrapConfig(B=7, seed=4, recompute_weights=True),
    )


def _higher_order_case():
    sample = _sample(48, 14)
    sample = replace(sample, y1=np.round(sample.y1), y2=np.round(sample.y2, 1))
    kernel = KernelSpec(family="higher_order", order=4)
    w = counterfactual_weights(sample.x, sample.xstar, kernel=kernel, h=0.8)
    return dict(est=estimate_under(sample, w, 10, kernel),
                config=BootstrapConfig(B=7, seed=8))


_WORKER_CASES = {
    "frozen": lambda: _frozen_case(7),
    "recompute-with-redraws": _recompute_case_with_redraws,
    "higher-order-kernel": _higher_order_case,
    "two-replicates": lambda: _frozen_case(2),
}


@pytest.mark.parametrize("case", sorted(_WORKER_CASES))
def test_runs_are_bitwise_the_same_on_any_number_of_cores(monkeypatch, case):
    """B=7 splits unevenly over 2 and 3 blocks; B=2 caps 3 cores at 2 blocks."""
    kwargs = _WORKER_CASES[case]()
    results = []
    for k in (1, 2, 3):
        _pin_workers(monkeypatch, k)
        results.append(run_bootstrap(**kwargs))
    if case == "recompute-with-redraws":
        assert results[0].discarded > 0
    if case == "higher-order-kernel":
        assert (kwargs["est"].w < 0).any()
    for other in results[1:]:
        _assert_bitwise_equal(other, results[0])


def _fail_replicates(monkeypatch, failing):
    """Make the replicates in ``failing`` raise, naming themselves and their process."""
    seed_of = bootstrap._replicate_seed

    def seed(entropy, b):
        if b in failing:
            raise DegenerateReplicateError(f"replicate {b} in process {os.getpid()}")
        return seed_of(entropy, b)

    monkeypatch.setattr(bootstrap, "_replicate_seed", seed)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need fork")
def test_the_first_failing_replicate_decides_the_error_on_any_number_of_cores(
    monkeypatch,
):
    sample = _sample(30, 5)
    w = counterfactual_weights(sample.x, sample.xstar, h=1.5)
    # B=7 in 2 blocks is 0..2 | 3..6, in 3 blocks 0..1 | 2..3 | 4..6: block 0
    # never fails, and with 3 blocks the later block fails as well
    _fail_replicates(monkeypatch, {3, 5, 6})
    for k in (1, 2, 3):
        _pin_workers(monkeypatch, k)
        with pytest.raises(DegenerateReplicateError, match="replicate 3 in") as err:
            run_bootstrap(estimate_under(sample, w, 10), BootstrapConfig(B=7, seed=1))
        ran_here = f"process {os.getpid()}" in str(err.value)
        assert ran_here == (k == 1)


def _draws(lo, hi):
    return [np.random.default_rng(b).normal(size=3) for b in range(lo, hi)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need fork")
def test_the_threaded_fork_warning_is_ignored_and_no_other(monkeypatch):
    """From Python 3.12, os.fork() in a threaded process warns that the
    child may deadlock.  The runner starts no thread of its own, so it
    ignores exactly that message."""
    real_fork = os.fork

    def forking_with(message):
        def fork():
            warnings.warn(message.format(pid=os.getpid()), DeprecationWarning,
                          stacklevel=2)
            return real_fork()
        return fork

    _pin_workers(monkeypatch, 1)
    alone = np.array(sum(bootstrap._run_blocks(_draws, 7), []))
    _pin_workers(monkeypatch, 2)
    for message, shown in (
        ("This process (pid={pid}) is multi-threaded, use of fork() may lead to "
         "deadlocks in the child.", []),
        ("fork() in pid={pid} is watched", ["fork() in pid={pid} is watched"]),
    ):
        monkeypatch.setattr(os, "fork", forking_with(message))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            blocks = bootstrap._run_blocks(_draws, 7)
        assert len(blocks) == 2
        assert np.array(sum(blocks, [])).tobytes() == alone.tobytes()
        assert [str(w.message) for w in caught if w.category is DeprecationWarning] == [
            text.format(pid=os.getpid()) for text in shown
        ]


@pytest.mark.parametrize("recompute", [False, True], ids=["frozen", "recompute"])
def test_a_bootstrap_computes_no_second_point_estimate(monkeypatch, recompute):
    """The points are the estimate's reports: a run builds the two
    histogram rows of each replicate and none for the point."""
    est = estimate(_sample(50, 53), KernelSpec(), 8.0, 10)
    calls = []

    def counting(*args):
        for cells in weighted_rank_atoms(*args):
            calls.append(1)
            yield cells

    monkeypatch.setattr(bootstrap, "weighted_rank_atoms", counting)
    _pin_workers(monkeypatch, 1)
    run_bootstrap(est, BootstrapConfig(B=9, seed=4, recompute_weights=recompute))
    assert len(calls) == 2 * 9


def _histogram_rows(monkeypatch, est, recompute):
    """The histogram rows a 9-replicate run of ``est`` builds."""
    calls = []

    def counting(*args):
        for cells in weighted_rank_atoms(*args):
            calls.append(1)
            yield cells

    with monkeypatch.context() as patch:
        patch.setattr(bootstrap, "weighted_rank_atoms", counting)
        _pin_workers(patch, 1)
        run_bootstrap(est, BootstrapConfig(B=9, seed=4, recompute_weights=recompute))
    return len(calls)


@pytest.mark.parametrize("recompute", [False, True], ids=["frozen", "recompute"])
def test_the_measures_path_follows_n_the_kernel_order_and_the_weight_signs(
    monkeypatch, recompute
):
    """n <= 2m under an order-2 kernel and nonnegative point weights takes
    the measures from the atoms, point and replicates, and builds no
    histogram row for them; n = 2m + 1, an order-4 kernel or a negative
    point weight builds the two histogram rows of each replicate."""
    order4 = KernelSpec(family="higher_order", order=4)
    atoms = estimate(_sample(40, 53), KernelSpec(), 8.0, 20)
    above = estimate(_sample(41, 53), KernelSpec(), 8.0, 20)
    higher = estimate(_sample(40, 53), order4, 8.0, 20)
    sample = _sample(40, 54)
    w = counterfactual_weights(sample.x, sample.xstar, h=1.5)
    w[3] = -0.25
    negative = estimate_under(sample, w, 20, bandwidth_c=8.0)
    assert atoms.signs is not None and (atoms.w >= 0).all()
    assert atoms.signs.shape == (40, 40)
    for est in (above, higher, negative):
        assert est.signs is None
    assert _histogram_rows(monkeypatch, atoms, recompute) == 0
    for est in (above, higher, negative):
        assert _histogram_rows(monkeypatch, est, recompute) == 2 * 9
    # the point reports come from the atoms too, within 1e-13 of the
    # histograms the grids come from
    r1, r2 = atoms.ranks
    for target, v in (("actual", np.ones(40)), ("counterfactual", atoms.w)):
        want = measures_report_from_cells(_rank_atoms(r1, r2, v, 20), 20, 40).as_dict()
        for measure, value in want.items():
            assert abs(atoms.reports[target][measure] - value) <= 1e-13


def test_the_values_of_one_estimates_call_share_one_sign_matrix():
    sample = dgp_draw(60, np.random.default_rng(9))[0]
    xstars = np.stack([sample.xstar, sample.xstar + 0.1, sample.x + 0.2])
    values = list(estimates(sample, xstars, KernelSpec(), 5.5, 40))
    assert values[0].signs is not None
    assert values[0].signs is values[1].signs is values[2].signs


def _exits_in_a_worker(lo, hi):
    if lo:
        os._exit(7)
    return lo, hi


def _interrupted_in_the_parent(lo, hi):
    if lo:
        # more than a pipe buffer, so the worker blocks on its write
        return np.zeros(1 << 18)
    raise KeyboardInterrupt


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need fork")
def test_no_worker_outlives_a_failing_run(monkeypatch):
    """A worker that exits without an outcome fails its block, with its
    tasks and exit status; a parent block that raises past the capture
    reaps the worker it left writing."""
    _pin_workers(monkeypatch, 2)
    with pytest.raises(RuntimeError,
                       match=r"tasks 3\.\.6 exited without an outcome, exit status 7"):
        bootstrap._run_blocks(_exits_in_a_worker, 7)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    with pytest.raises(KeyboardInterrupt):
        bootstrap._run_blocks(_interrupted_in_the_parent, 7)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _large(lo, hi):
    return np.random.default_rng(lo).random(1 << 18)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need fork")
def test_a_result_larger_than_a_pipe_buffer_comes_back_whole(monkeypatch):
    _pin_workers(monkeypatch, 2)
    blocks = bootstrap._run_blocks(_large, 7)
    assert blocks[1].nbytes == 2 << 20
    assert blocks[1].tobytes() == _large(3, 7).tobytes()


_RUN = (
    "import numpy as np\n"
    "from cfcopula import KernelSpec, estimate\n"
    "from cfcopula.bootstrap import BootstrapConfig, run_bootstrap\n"
    "from cfcopula.copula import ObservationSample\n"
    "x, e = np.random.default_rng(0).normal(size=(2, 40, 1))\n"
    "s = ObservationSample(y1=x[:, 0] + e[:, 0], y2=e[:, 0] - x[:, 0], x=x,"
    " xstar=x + 0.1)\n"
    "est = estimate(s, KernelSpec(), 5.5, 10)\n"
    "run_bootstrap(est, BootstrapConfig(B=8))\n"
    "assert 'multiprocessing' not in sys.modules\n"
    "assert 'concurrent.futures' not in sys.modules\n"
)


def _run_in_a_subprocess(code):
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(src)})


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_a_one_core_run_starts_no_process():
    _run_in_a_subprocess(
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" + _RUN)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need fork")
def test_a_run_on_two_blocks_imports_no_process_pool():
    _run_in_a_subprocess(
        "import os, sys\n"
        "from cfcopula import bootstrap\n"
        "bootstrap._worker_count = lambda: 2\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(os.getpid()) or fork()\n" + _RUN
        + "assert forks == [os.getpid()]\n")


def test_covers_helper():
    sample = _sample(35, 12)
    w = counterfactual_weights(sample.x, sample.xstar, h=1.5)
    result = run_bootstrap(estimate_under(sample, w, 10), BootstrapConfig(B=10, seed=1))
    run = result.runs[("actual", "tau")]
    assert run.covers(run.point)
    assert not run.covers(run.hi + 1.0)


def test_estimate_is_the_chain_at_its_bandwidth_bitwise():
    rng = np.random.default_rng(51)
    x = _mixed_covariates(200, rng)
    xstar = x.copy()
    xstar[:, 2] = np.maximum(xstar[:, 2], 13.0)
    mask = np.array([True, True, False, False])
    sample = ObservationSample(y1=x[:, 2] + rng.normal(size=200),
                               y2=x[:, 3] + rng.normal(size=200), x=x, xstar=xstar,
                               discrete_mask=mask)
    kernel = KernelSpec(family="higher_order", order=4)
    est = estimate(sample, kernel, 10.0, 20)

    h = bandwidth_rule(10.0, x, mask)
    assert est.bandwidth_c == 10.0
    assert est.h.tobytes() == h.tobytes()
    w = counterfactual_weights(x, xstar, kernel=kernel, h=h, discrete_mask=mask)
    assert (w < 0).any()
    assert est.w.tobytes() == w.tobytes()
    grids = {"actual": empirical_copula(sample, m=20),
             "counterfactual": counterfactual_copula(sample, w, m=20)}
    assert set(est.grids) == set(grids)
    for target, grid in grids.items():
        mine = est.grids[target]
        assert mine.values.tobytes() == grid.values.tobytes()
        assert mine.m == grid.m
    # the reports come from the histograms the grids come from
    r1, r2 = margin_ranks(sample.y1), margin_ranks(sample.y2)
    actual = list(measures_report_from_cells(
        _rank_atoms(r1, r2, np.ones(200), 20), 20, 200).as_dict().values())
    cf = list(measures_report_from_cells(
        _rank_atoms(r1, r2, w, 20), 20, 200).as_dict().values())
    # each report maps the measures, in order, to these doubles
    assert {target: list(report.items()) for target, report in est.reports.items()} == {
        "actual": list(zip(MEASURES, actual)),
        "counterfactual": list(zip(MEASURES, cf)),
        "effect": [(key, c - a) for key, c, a in zip(MEASURES, cf, actual)],
    }
    for target, grid in grids.items():
        got, want = est.reports[target], measures_from_grid(grid)
        for key, value in want.as_dict().items():
            assert abs(got[key] - value) <= 1e-12


@pytest.mark.parametrize("family, order, recompute", [
    ("epanechnikov", 2, False),
    ("epanechnikov", 2, True),
    ("higher_order", 4, True),
])
def test_bootstrap_points_are_the_estimate_reports_bitwise(family, order, recompute):
    """measures.csv takes its values from ``est.reports`` and its intervals
    from the bootstrap runs, so the two points must be the same doubles."""
    sample = _sample(60, 52)
    est = estimate(sample, KernelSpec(family=family, order=order),
                   8.0, 20)
    if order > 2:
        assert (est.w < 0).any()
    result = run_bootstrap(est, BootstrapConfig(B=6, seed=3, recompute_weights=recompute))
    assert len(result.runs) == 12
    for (target, measure), run in result.runs.items():
        point = est.reports[target][measure]
        assert np.float64(run.point).tobytes() == np.float64(point).tobytes()


def test_estimates_name_the_rows_of_the_first_value_without_donor():
    rng = np.random.default_rng(54)
    x = _mixed_covariates(200, rng)
    sample = ObservationSample(y1=rng.normal(size=200), y2=rng.normal(size=200),
                               x=x, xstar=x,
                               discrete_mask=np.array([True, True, False, False]))
    xstars = np.stack([x] * 4)
    xstars[1, [7, 90], 3] = 2100.0
    xstars[3, 5, 3] = 2100.0
    constant = 10.0
    with pytest.raises(BandwidthTooSmallError) as err:
        estimates(sample, xstars, KernelSpec(), constant, 20)
    with pytest.raises(BandwidthTooSmallError) as ref:
        estimate(replace(sample, xstar=xstars[1]), KernelSpec(), constant, 20)
    assert err.value.columns == ref.value.columns == [7, 90]
    assert str(err.value) == str(ref.value)


def test_estimates_refuse_non_finite_weights(monkeypatch):
    """Checked once over the weights of every value, before any estimate."""
    sample = _sample(30, 56)
    weights = bootstrap.kernel_weights

    def one_nan(*args):
        w = weights(*args)
        w[3, 1] = np.nan
        return w

    monkeypatch.setattr(bootstrap, "kernel_weights", one_nan)
    with pytest.raises(ValueError, match="weights must be finite"):
        estimates(sample, np.stack([sample.xstar] * 2), KernelSpec(),
                  5.5, 10)


@pytest.mark.parametrize("m, constant, message", [
    (0, 5.5, "grid m must be even and >= 2"),
    (-2, 5.5, "grid m must be even and >= 2"),
    (7, 5.5, "grid m must be even and >= 2"),
    (10, 0.0, "bandwidth constant must be positive and finite"),
    (10, float("nan"), "bandwidth constant must be positive and finite"),
], ids=["m=0", "m=-2", "m=7", "c=0", "c=nan"])
def test_estimate_checks_grid_and_bandwidth_before_any_weight(monkeypatch, m,
                                                              constant, message):
    """Unchecked, m = 0 gives infinite measures, m = -2 a numpy error, and
    m = 7 computes the weights before its GridResolutionError."""
    calls = []
    weights = bootstrap.kernel_weights
    monkeypatch.setattr(bootstrap, "kernel_weights",
                        lambda *args: calls.append(args) or weights(*args))
    with pytest.raises(ValueError, match=message):
        estimate(_sample(30, 57), KernelSpec(), constant, m)
    assert calls == []


def test_a_sweep_value_plan_gives_the_multipliers_of_its_own_plan():
    """Recompute replicates of a value evaluate the stacked plan of the
    sweep; the multipliers, and the rows without donor, are bitwise those
    of a plan of the value alone."""
    rng = np.random.default_rng(55)
    x = _mixed_covariates(300, rng)
    sample = ObservationSample(y1=rng.normal(size=300), y2=rng.normal(size=300),
                               x=x, xstar=x,
                               discrete_mask=np.array([True, True, False, False]))
    xstars = np.stack([x] * 3)
    for v, s in enumerate((12.0, 14.0, 16.0)):
        xstars[v, :, 2] = np.maximum(x[:, 2], s)
    constant = 8.0
    failed = 0
    for v, est in enumerate(estimates(sample, xstars, KernelSpec(), constant, 20)):
        own = kernel_plan(x, xstars[v], sample.discrete_mask)
        assert est.plan.tgt_inv.shape == (300,)
        assert any(t is not None for tables in est.plan.tables for t in tables)
        for b in range(15):
            counts = multinomial_counts(300, np.random.default_rng(b))
            try:
                ref = bootstrap_replicate(est.sample, own, counts, KernelSpec(), constant)
            except BandwidthTooSmallError as err:
                with pytest.raises(BandwidthTooSmallError) as mine:
                    bootstrap_replicate(est.sample, est.plan, counts, KernelSpec(),
                                        constant)
                assert mine.value.columns == err.value.columns
                failed += 1
            else:
                got = bootstrap_replicate(est.sample, est.plan, counts, KernelSpec(),
                                          constant)
                assert got.tobytes() == ref.tobytes()
    assert failed < 45


def test_a_recompute_bootstrap_builds_no_second_plan(monkeypatch):
    est = estimate(_sample(60, 56), KernelSpec(), 6.0, 10)

    def no_plan(*args, **kwargs):
        raise AssertionError("the bootstrap built a kernel plan")

    monkeypatch.setattr(bootstrap, "kernel_plan", no_plan)
    monkeypatch.setattr(copula, "kernel_plan", no_plan)
    _pin_workers(monkeypatch, 1)
    result = run_bootstrap(est, BootstrapConfig(B=6, seed=2, recompute_weights=True))
    assert all(np.all(np.isfinite(r.replicates)) for r in result.runs.values())


def test_run_bootstraps_is_run_bootstrap_pair_by_pair(monkeypatch):
    """One set of blocks over the replicates of all pairs gives every
    pair's own run bitwise, on any number of cores."""
    frozen, recompute = _frozen_case(7), _recompute_case_with_redraws()
    pairs = [(frozen["est"], frozen["config"]), (recompute["est"], recompute["config"]),
             (frozen["est"], BootstrapConfig(B=5, seed=9))]
    _pin_workers(monkeypatch, 1)
    alone = [run_bootstrap(est, config) for est, config in pairs]
    assert alone[1].discarded > 0
    for k in (1, 2, 3):
        _pin_workers(monkeypatch, k)
        for got, ref in zip(bootstrap.run_bootstraps(pairs), alone):
            _assert_bitwise_equal(got, ref)


# --- replicate batches ---------------------------------------------------------

@pytest.fixture(scope="module")
def synth_estimate():
    """The README's bootstrap: max_with(cedu, 16) on the 3,895-row file, c=30."""
    table = synth_table(SynthConfig(n=3895, seed=5))
    roles = default_synth_roles()
    xstar = apply_scenario(table, roles, parse_scenario("max_with(cedu, 16)"))
    sample = build_sample(table, roles, xstar_columns=xstar)
    return estimate(sample, KernelSpec(), 30.0, 100)


def _dgp_estimate(n, m=20, constant=5.5):
    sample = dgp_draw(n, np.random.default_rng(n))[0]
    return estimate(sample, KernelSpec(), constant, m)


def _outcome(run):
    """The results of ``run()``, or the type and message of its error."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, ref):
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert not isinstance(got, tuple), got
        for a, b in zip(got, ref, strict=True):
            _assert_bitwise_equal(a, b)


def _one_at_a_time(monkeypatch, pairs):
    """``run_bootstraps`` with the replicate loop of the parent, in-process."""
    with monkeypatch.context() as patch:
        patch.setattr(bootstrap, "_replicate_block", oracles._replicate_block)
        _pin_workers(patch, 1)
        return _outcome(lambda: bootstrap.run_bootstraps(pairs))


# (estimate, B, seed); B cuts every run into several batches with a short
# last one: R = 4096 // 2n is 682, 40, 20 and 10 at n = 3, 50, 100, 200
_BATCH_CASES = {
    "n3": (lambda: _dgp_estimate(3), 1500, 1),
    "n50": (lambda: _dgp_estimate(50), 90, 2),
    "n100": (lambda: _dgp_estimate(100, m=100), 50, 3),
    "n200": (lambda: _dgp_estimate(200, m=100), 25, 4),
    "n12-narrow": (lambda: _dgp_estimate(12, constant=1.0), 300, 5),
}


@pytest.mark.parametrize("recompute", [False, True], ids=["frozen", "recompute"])
@pytest.mark.parametrize("case", sorted(_BATCH_CASES))
def test_batches_are_bitwise_the_one_at_a_time_loop(monkeypatch, case, recompute):
    make, B, seed = _BATCH_CASES[case]
    pairs = [(make(), BootstrapConfig(B=B, seed=seed, recompute_weights=recompute))]
    ref = _one_at_a_time(monkeypatch, pairs)
    if case == "n3":
        # collapsed draws are redrawn in both modes
        assert ref[0].discarded > 0
    if case == "n12-narrow" and recompute:
        # resamples without a donor are redrawn inside a batch of 170
        assert ref[0].discarded > 0
    for k in (1, 2, 3):
        _pin_workers(monkeypatch, k)
        _assert_same_outcome(_outcome(lambda: bootstrap.run_bootstraps(pairs)), ref)


@pytest.mark.parametrize("recompute", [False, True], ids=["frozen", "recompute"])
def test_batches_on_the_synthetic_file_are_the_one_at_a_time_loop(
    monkeypatch, synth_estimate, recompute
):
    """At n=3895 a batch is one replicate; the recompute run redraws
    resamples without a donor."""
    pairs = [(synth_estimate, BootstrapConfig(B=12, seed=0, recompute_weights=recompute))]
    ref = _one_at_a_time(monkeypatch, pairs)
    assert (ref[0].discarded > 0) == recompute
    for k in (1, 2):
        _pin_workers(monkeypatch, k)
        _assert_same_outcome(_outcome(lambda: bootstrap.run_bootstraps(pairs)), ref)


def test_sweep_runs_ending_mid_batch_are_the_one_at_a_time_loop(monkeypatch):
    """Batches never span two runs: every run of this sweep ends inside a
    batch of 20, and the blocks cut the runs elsewhere."""
    sample = dgp_draw(100, np.random.default_rng(8))[0]
    xstars = np.stack([sample.xstar, sample.xstar + 0.1, sample.x + 0.2])
    values = list(estimates(sample, xstars, KernelSpec(), 5.5, 20))
    pairs = [
        (values[0], BootstrapConfig(B=27, seed=1)),
        (values[1], BootstrapConfig(B=13, seed=2, recompute_weights=True)),
        (values[2], BootstrapConfig(B=31, seed=3, recompute_weights=True)),
    ]
    ref = _one_at_a_time(monkeypatch, pairs)
    for k in (1, 2, 3):
        _pin_workers(monkeypatch, k)
        _assert_same_outcome(_outcome(lambda: bootstrap.run_bootstraps(pairs)), ref)


def test_batch_boundaries_do_not_matter(monkeypatch):
    """With the pass size 1 every batch and every pass is one replicate."""
    pairs = [
        (_dgp_estimate(50), BootstrapConfig(B=90, seed=2)),
        (_dgp_estimate(12, constant=1.0), BootstrapConfig(B=60, seed=5,
                                                          recompute_weights=True)),
        (_dgp_estimate(3), BootstrapConfig(B=40, seed=1, recompute_weights=True)),
    ]
    _pin_workers(monkeypatch, 1)
    batched = bootstrap.run_bootstraps(pairs)
    assert batched[1].discarded > 0 and batched[2].discarded > 0
    monkeypatch.setattr(bootstrap, "_BATCH", 1)
    for got, ref in zip(bootstrap.run_bootstraps(pairs), batched, strict=True):
        _assert_bitwise_equal(got, ref)


@pytest.mark.parametrize("recompute", [False, True], ids=["frozen", "recompute"])
def test_unit_counts_give_the_point_reports_in_every_replicate(
    monkeypatch, synth_estimate, recompute
):
    """A replicate's rows take the point estimate's path: with every count
    one, each replicate is the point bitwise, in a batch of 20 and at n=3895."""
    monkeypatch.setattr(bootstrap, "multinomial_counts",
                        lambda n, rng: np.ones(n, dtype=np.int64))
    _pin_workers(monkeypatch, 1)
    # the histogram path at m=20 and at n=3895, the atom path at n=m=100
    ests = (_dgp_estimate(100), _dgp_estimate(100, m=100), synth_estimate)
    assert [est.signs is None for est in ests] == [True, False, True]
    for est in ests:
        result = run_bootstrap(est, BootstrapConfig(B=21 if est.sample.n == 100 else 2,
                                                    seed=1, recompute_weights=recompute))
        for (target, measure), run in result.runs.items():
            point = np.float64(est.reports[target][measure])
            assert run.replicates.tobytes() == np.full(run.replicates.size, point).tobytes()


def _zero_mass_case():
    """All counterfactual mass on row 0: a resample without row 0 fails in
    its measures.  Returns the estimate, config and the first replicate
    that does."""
    sample = _sample(8, 3)
    w = np.zeros(8)
    w[0] = 8.0
    est = estimate_under(sample, w, 4)
    config = BootstrapConfig(B=40, seed=6)
    for b in range(config.B):
        rng = np.random.default_rng(bootstrap._replicate_seed(config.seed, b))
        counts, _, _ = _draw_replicate(8, rng, lambda c: c)
        if counts[0] == 0:
            return est, config, b
    raise AssertionError("no resample missed row 0")


@pytest.mark.parametrize("later", [True, False], ids=["draws-later", "draws-earlier"])
def test_the_first_failing_replicate_in_a_batch_decides_the_error(monkeypatch, later):
    """The batch draws every replicate before it takes any measure, yet a
    replicate failing in its measures beats a later one failing in its
    draws, and loses to an earlier one, as in one loop."""
    est, config, b = _zero_mass_case()
    assert b > 0  # room for an earlier draw failure
    _fail_replicates(monkeypatch, {b + 2} if later else {b - 1})
    pairs = [(est, config)]
    ref = _one_at_a_time(monkeypatch, pairs)
    assert ref[0] is DegenerateReplicateError
    assert ("counterfactual mass is zero" in ref[1]) == later
    assert (f"replicate {b - 1} in" in ref[1]) == (not later)
    _pin_workers(monkeypatch, 1)
    assert _outcome(lambda: bootstrap.run_bootstraps(pairs)) == ref


def _constant_resample_case():
    """A smoothed covariate constant but for row 0: a recompute-weights
    resample without row 0 leaves it constant.  Returns the estimate, config
    and the first replicate that does."""
    rng = np.random.default_rng(8)
    n = 12
    z = rng.normal(size=n)
    x = np.column_stack([np.r_[1.0, np.zeros(n - 1)], z])
    sample = ObservationSample(y1=z + rng.normal(size=n), y2=z + rng.normal(size=n),
                               x=x, xstar=x)
    est = estimate(sample, KernelSpec(), 5.5, 10)
    config = BootstrapConfig(B=40, seed=3, recompute_weights=True)
    for b in range(config.B):
        rng = np.random.default_rng(bootstrap._replicate_seed(config.seed, b))
        counts, _, _ = _draw_replicate(n, rng, lambda c: c)
        if counts[0] == 0:
            return est, config, b
    raise AssertionError("no resample missed row 0")


@pytest.mark.parametrize("later", [True, False], ids=["draws-later", "draws-earlier"])
def test_a_resample_with_a_constant_covariate_is_degenerate(monkeypatch, later):
    """A recompute-weights resample that leaves a smoothed covariate
    constant has no bandwidth: the run fails with its
    DegenerateCovariateError, unless an earlier replicate failed first."""
    est, config, b = _constant_resample_case()
    assert b > 0  # room for an earlier failure
    pairs = [(est, config)]
    _pin_workers(monkeypatch, 1)
    with pytest.raises(DegenerateCovariateError, match="degenerate covariate"):
        bootstrap.run_bootstraps(pairs)
    _fail_replicates(monkeypatch, {b + 1} if later else {b - 1})
    ref = _one_at_a_time(monkeypatch, pairs)
    assert ref[0] is (DegenerateCovariateError if later else DegenerateReplicateError)
    assert (f"replicate {b - 1} in" in ref[1]) == (not later)
    assert _outcome(lambda: bootstrap.run_bootstraps(pairs)) == ref


@pytest.mark.parametrize("failing", [0, 5], ids=["first", "inside"])
def test_a_draw_failure_in_a_recompute_batch_is_its_error(monkeypatch, failing):
    """A batch whose replicates all fail before any multiplier, or fail
    after some, raises the failing replicate's own error."""
    _fail_replicates(monkeypatch, {failing})
    pairs = [(_dgp_estimate(50), BootstrapConfig(B=12, seed=2, recompute_weights=True))]
    ref = _one_at_a_time(monkeypatch, pairs)
    assert ref[0] is DegenerateReplicateError and f"replicate {failing} in" in ref[1]
    _pin_workers(monkeypatch, 1)
    assert _outcome(lambda: bootstrap.run_bootstraps(pairs)) == ref
