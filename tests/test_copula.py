import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    bootstrap_replicate,
    counterfactual_copula,
    counterfactual_weights,
    direct_kernel_weights,
    frechet_hoeffding_violation,
    pseudo_observations,
    two_increasing,
)

from cfcopula.bootstrap import multinomial_counts
from cfcopula.copula import (
    BLOCK,
    BandwidthTooSmallError,
    ObservationSample,
    _atom_grid,
    _atom_indices,
    empirical_copula,
    kernel_plan,
    kernel_weights,
    margin_ranks,
    support_violations,
    weighted_rank_atoms,
)
from cfcopula.data import SynthConfig, build_sample, default_synth_roles, synth_table
from cfcopula.kernels import KernelSpec, bandwidth, kernel_1d
from cfcopula.scenarios import apply_scenario, parse_scenario
from cfcopula.simulation import dgp_draw


def _sample(n, seed, d=2, shift=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y1 = x @ np.ones(d) + rng.normal(size=n)
    y2 = 0.5 * x @ np.ones(d) + rng.normal(size=n)
    return ObservationSample(y1=y1, y2=y2, x=x, xstar=x + shift)


# --- weights -------------------------------------------------------------------

def test_weights_three_point_example():
    """Hand-derived kernel ratios: x = (0,1,2), xstar = x, h = 5.

    K(0)=0.75, K(0.2)=0.72, K(0.4)=0.63; column sums (2.10, 2.19, 2.10);
    W1 = 1.38/2.1 + 0.72/2.19, W2 = 1.44/2.1 + 0.75/2.19, W3 = W1.
    """
    x = np.array([0.0, 1.0, 2.0])
    w = counterfactual_weights(x, x, h=5.0)
    assert w[0] == pytest.approx(0.9859099804305283, abs=1e-12)
    assert w[1] == pytest.approx(1.0281800391389432, abs=1e-12)
    assert w[2] == pytest.approx(w[0], abs=1e-15)
    assert w.sum() == pytest.approx(3.0, abs=1e-12)
    assert not (w < 0).any()


def test_weights_sum_to_n_across_random_configurations():
    rng = np.random.default_rng(20240801)
    for trial in range(100):
        n = int(rng.integers(5, 80))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        xstar = x + rng.normal(scale=0.3, size=(n, d))
        family = ("epanechnikov", "gaussian_truncated", "higher_order")[trial % 3]
        order = 4 if family == "higher_order" else 2
        h = float(rng.uniform(1.0, 6.0))
        w = counterfactual_weights(
            x, xstar, kernel=KernelSpec(family=family, order=order), h=h
        )
        assert abs(w.sum() - n) <= 1e-9 * n


def test_identity_manipulation_large_bandwidth_gives_unit_weights():
    x = np.random.default_rng(3).normal(size=(40, 2))
    w = counterfactual_weights(x, x, h=1e8)
    np.testing.assert_allclose(w, np.ones(40), atol=1e-10)


def test_weights_vector_bandwidth_matches_rescaled_scalar():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(30, 2)) * np.array([1.0, 10.0])
    w_vec = counterfactual_weights(x, x * 0.9, h=np.array([2.0, 20.0]))
    w_scl = counterfactual_weights(x / np.array([1.0, 10.0]),
                                   x * 0.9 / np.array([1.0, 10.0]), h=2.0)
    np.testing.assert_allclose(w_vec, w_scl, atol=1e-12)


def test_discrete_coordinates_match_exactly():
    x = np.column_stack([np.array([0.0, 0.0, 1.0, 1.0]), np.zeros(4)])
    xstar = x.copy()
    w = counterfactual_weights(x, xstar, h=100.0,
                               discrete_mask=np.array([True, False]))
    # each binary cell redistributes within itself: weights stay unit
    np.testing.assert_allclose(w, np.ones(4), atol=1e-12)


def test_empty_denominator_reports_offending_rows():
    x = np.array([0.0, 0.1, 0.2])
    xstar = np.array([0.0, 0.1, 9.0])
    with pytest.raises(BandwidthTooSmallError) as err:
        counterfactual_weights(x, xstar, h=0.5)
    assert "2" in str(err.value)


@pytest.mark.parametrize(
    "h", [None, np.nan, np.inf, 0.0, -1.0, np.array([1.0, np.nan])],
    ids=["none", "nan", "inf", "zero", "negative", "nan-coordinate"],
)
def test_weights_reject_a_bandwidth_not_positive_and_finite(h):
    # None reads as NaN, which once slipped past the positivity check and
    # surfaced as a missing donor for every row
    x = np.random.default_rng(4).normal(size=(20, 2))
    with pytest.raises(ValueError, match="positive and finite") as err:
        counterfactual_weights(x, x + 0.1, h=h)
    assert not isinstance(err.value, BandwidthTooSmallError)


def test_negative_weights_possible_under_higher_order_kernel():
    rng = np.random.default_rng(12)
    x = rng.normal(size=120)
    w = counterfactual_weights(
        x, x + 0.5, kernel=KernelSpec(family="higher_order", order=4), h=0.65
    )
    assert (w < 0).any()  # sign-changing kernels leak negative mass
    assert w.sum() == pytest.approx(120.0, abs=1e-9)


def _dense_weights(x, xstar, kernel=None, h=1.0, discrete_mask=None, block=BLOCK):
    # the n x n product kernel built literally, max(1, block // n) target
    # columns at a time: the reference for the distinct-row,
    # exact-match-cell engine
    X = np.asarray(x, dtype=float).reshape(len(x), -1)
    Xs = np.asarray(xstar, dtype=float).reshape(len(xstar), -1)
    n, d = X.shape
    kernel = KernelSpec() if kernel is None else kernel
    hvec = np.broadcast_to(np.asarray(h, dtype=float), (d,))
    mask = np.zeros(d, dtype=bool) if discrete_mask is None else np.asarray(discrete_mask)
    w = np.zeros(n)
    bad = []
    step = max(1, block // n)
    for start in range(0, n, step):
        stop = min(start + step, n)
        kmat = np.ones((n, stop - start))
        for c in range(d):
            block = Xs[start:stop, c][None, :]
            if mask[c]:
                kmat *= X[:, c][:, None] == block
            else:
                kmat *= kernel_1d(kernel, (X[:, c][:, None] - block) / hvec[c])
        denom = kmat.sum(axis=0)
        zero = denom == 0.0
        if np.any(zero):
            bad.extend((start + np.flatnonzero(zero)).tolist())
            kmat = kmat[:, ~zero]
            denom = denom[~zero]
        if denom.size:
            w += (kmat / denom).sum(axis=1)
    if bad:
        raise BandwidthTooSmallError(bad, h)
    return w


def _assert_matches_dense(x, xstar, **kwargs):
    w = counterfactual_weights(x, xstar, **kwargs)
    ref = _dense_weights(x, xstar, **kwargs)
    assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert abs(w.sum() - len(ref)) <= 1e-9
    return w


def _mixed_covariates(n, rng):
    # binary and three-level discrete columns next to integer-valued
    # smoothed columns: most rows repeat, most cells are populated
    return np.column_stack([
        rng.integers(0, 2, size=n),
        rng.integers(0, 3, size=n),
        rng.integers(8, 18, size=n),
        rng.integers(1950, 1960, size=n),
    ]).astype(float)


def test_weights_match_dense_on_duplicated_mixed_covariates():
    rng = np.random.default_rng(31)
    x = _mixed_covariates(600, rng)
    xstar = x.copy()
    xstar[:, 2] = np.maximum(xstar[:, 2], 14.0)
    mask = np.array([True, True, False, False])
    for block in (BLOCK, 500):
        _assert_matches_dense(x, xstar, h=np.array([1.0, 1.0, 3.0, 4.0]),
                              discrete_mask=mask, block=block)
    # every coordinate matched exactly: the kernel is the cell indicator
    _assert_matches_dense(x, x[::-1], discrete_mask=np.ones(4, dtype=bool))


def test_weights_match_dense_on_distinct_continuous_covariates():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(300, 3))
    _assert_matches_dense(x, x + 0.1 * rng.normal(size=(300, 3)), h=1.4,
                          block=2**14)


def test_weights_match_dense_under_higher_order_kernel():
    rng = np.random.default_rng(33)
    x = np.column_stack([np.round(rng.normal(size=250), 1), rng.integers(0, 2, size=250)])
    w = _assert_matches_dense(
        x, x + np.array([0.4, 0.0]), kernel=KernelSpec(family="higher_order", order=4),
        h=0.8, discrete_mask=np.array([False, True]),
    )
    assert (w < 0).any()


def test_weights_match_dense_with_per_coordinate_bandwidth():
    rng = np.random.default_rng(34)
    x = np.column_stack([rng.integers(0, 6, size=200), rng.normal(scale=10.0, size=200)])
    _assert_matches_dense(x, x * np.array([1.0, 0.9]), h=np.array([2.5, 15.0]),
                          kernel=KernelSpec(family="gaussian_truncated"))


def test_weights_treat_negative_zero_as_zero():
    x = np.array([[0.0, 0.0], [-0.0, 0.0], [1.0, 0.5], [0.0, 2.0], [1.0, -0.0]])
    xstar = np.array([[-0.0, 0.5], [0.0, 1.0], [1.0, 0.0], [-0.0, 1.5], [1.0, 0.0]])
    for mask in (np.array([True, False]), None):
        _assert_matches_dense(x, xstar, h=2.0, discrete_mask=mask)


def test_weights_report_the_dense_rows_without_donor():
    rng = np.random.default_rng(35)
    x = _mixed_covariates(400, rng)
    x[:, 1] = np.minimum(x[:, 1], 1.0)
    xstar = x.copy()
    # discrete cells (., 2) have no source row; smoothed values far out of range
    xstar[[380, 5, 212], 1] = 2.0
    xstar[[17, 300], 3] = 2100.0
    # NaN never matches, itself included
    x[9, 0] = xstar[9, 0] = xstar[333, 0] = np.nan
    kwargs = dict(h=np.array([1.0, 1.0, 3.0, 4.0]),
                  discrete_mask=np.array([True, True, False, False]), block=1000)
    with pytest.raises(BandwidthTooSmallError) as err:
        counterfactual_weights(x, xstar, **kwargs)
    with pytest.raises(BandwidthTooSmallError) as ref:
        _dense_weights(x, xstar, **kwargs)
    assert err.value.columns == ref.value.columns == [5, 9, 17, 212, 300, 333, 380]


def test_recompute_replicate_weights_match_dense():
    rng = np.random.default_rng(36)
    x = _mixed_covariates(150, rng)
    xstar = x.copy()
    xstar[:, 2] = np.maximum(xstar[:, 2], 13.0)
    mask = np.array([True, True, False, False])
    sample = ObservationSample(y1=rng.normal(size=150), y2=rng.normal(size=150),
                               x=x, xstar=xstar, discrete_mask=mask)
    counts = multinomial_counts(150, np.random.default_rng(7))
    rows = np.repeat(np.arange(150), counts)
    plan = kernel_plan(x, xstar, mask)
    v_cf = bootstrap_replicate(sample, plan, counts, KernelSpec(), 10.0)
    h = bandwidth(10.0, x[rows], mask)
    ref = np.bincount(rows, weights=_dense_weights(x[rows], xstar[rows], h=h,
                                                   discrete_mask=mask),
                      minlength=150)
    assert np.max(np.abs(v_cf - ref)) <= 1e-12 * np.max(np.abs(ref))


def _stacked_weights(x, xstars, kernel=None, h=1.0, discrete_mask=None, block=BLOCK):
    # one plan on x and the stacked xstars, evaluated once with a (distinct
    # targets x values) multiplicity matrix; (n, V) weights on the rows of x
    n = len(x)
    plan = kernel_plan(x, np.concatenate(xstars), discrete_mask)
    counts = np.column_stack([
        np.bincount(plan.tgt_inv[v * n:(v + 1) * n], minlength=plan.tgt.shape[0])
        for v in range(len(xstars))
    ]).astype(float)
    w = kernel_weights(plan, kernel or KernelSpec(), h, plan.src_counts, counts, block)
    assert w.shape == (plan.src.shape[0], len(xstars))
    return w[plan.src_inv]


def _assert_stack_matches(x, xstars, **kwargs):
    w = _stacked_weights(x, xstars, **kwargs)
    for v, xstar in enumerate(xstars):
        ref = _dense_weights(x, xstar, **kwargs)
        alone = counterfactual_weights(x, xstar, **kwargs)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(w[:, v] - ref)) <= 1e-12 * scale
        assert np.max(np.abs(w[:, v] - alone)) <= 1e-12 * np.max(np.abs(alone))
        assert abs(w[:, v].sum() - len(x)) <= 1e-9
    return w


def test_stacked_weights_match_dense_per_value_on_mixed_covariates():
    rng = np.random.default_rng(41)
    x = _mixed_covariates(500, rng)
    xstars = []
    for s in (12.0, 14.0, 16.0):
        xstar = x.copy()
        xstar[:, 2] = np.maximum(xstar[:, 2], s)
        xstars.append(xstar)
    # the identity manipulation is a value like any other
    xstars.append(x.copy())
    mask = np.array([True, True, False, False])
    for block in (BLOCK, 500):
        _assert_stack_matches(x, xstars, h=np.array([1.0, 1.0, 3.0, 4.0]),
                              discrete_mask=mask, block=block)
    # every coordinate matched exactly: the kernel is the cell indicator
    _assert_stack_matches(x, [x[::-1], x, np.roll(x, 3, axis=0)],
                          discrete_mask=np.ones(4, dtype=bool))


def test_stacked_weights_match_dense_under_higher_order_kernel():
    rng = np.random.default_rng(33)
    x = np.column_stack([np.round(rng.normal(size=250), 1), rng.integers(0, 2, size=250)])
    w = _assert_stack_matches(
        x, [x + np.array([shift, 0.0]) for shift in (0.0, 0.2, 0.4, 0.6)],
        kernel=KernelSpec(family="higher_order", order=4), h=0.8,
        discrete_mask=np.array([False, True]), block=1024,
    )
    assert np.array_equal((w < 0).any(axis=0), [False, False, True, True])


def test_stacked_weights_name_the_stacked_rows_without_donor():
    rng = np.random.default_rng(44)
    x = _mixed_covariates(200, rng)
    mask = np.array([True, True, False, False])
    kwargs = dict(h=np.array([1.0, 1.0, 3.0, 4.0]), discrete_mask=mask, block=500)
    xstars = [x.copy() for _ in range(3)]
    # a NaN discrete target forms a cell of its own, without sources
    xstars[1][[3, 150], 0] = np.nan
    xstars[2][40, 3] = 2100.0
    with pytest.raises(BandwidthTooSmallError) as err:
        _stacked_weights(x, xstars, **kwargs)
    for v in (1, 2):
        with pytest.raises(BandwidthTooSmallError) as ref:
            _dense_weights(x, xstars[v], **kwargs)
        assert [j - v * 200 for j in err.value.columns if j // 200 == v] == ref.value.columns
    assert err.value.columns == [203, 350, 440]


# --- kernel tables -----------------------------------------------------------

def _table_cases(x, xstars, discrete_mask):
    """The stacked plan, and (source, target) multiplicities to evaluate it with.

    The cases are the (targets x values) matrix of the values, the first
    value's column alone, and a resample of the first value, which leaves
    some sources and targets out.
    """
    n = len(x)
    plan = kernel_plan(x, np.concatenate(xstars), discrete_mask)
    t = plan.tgt.shape[0]
    counts = np.column_stack([
        np.bincount(plan.tgt_inv[v * n:(v + 1) * n], minlength=t)
        for v in range(len(xstars))
    ]).astype(float)
    draw = multinomial_counts(n, np.random.default_rng(n))
    resample = (
        np.bincount(plan.src_inv, weights=draw, minlength=plan.src.shape[0]),
        np.bincount(plan.tgt_inv[:n], weights=draw, minlength=t)[:, None],
    )
    return plan, [(plan.src_counts, counts), (plan.src_counts, counts[:, :1]),
                  resample]


def _assert_tables_match_direct(x, xstars, kernel=None, h=1.0, discrete_mask=None,
                                block=BLOCK):
    """The weights of every case are bitwise those of the direct evaluation."""
    plan, cases = _table_cases(x, xstars, discrete_mask)
    assert any(t is not None for tables in plan.tables for t in tables)
    kernel = kernel or KernelSpec()
    for src_counts, tgt_counts in cases:
        got = kernel_weights(plan, kernel, h, src_counts, tgt_counts, block)
        ref = direct_kernel_weights(plan, kernel, h, src_counts, tgt_counts, block)
        assert got.tobytes() == ref.tobytes()
    return got


def _raised_floors(x, column, floors):
    xstars = []
    for s in floors:
        xstar = x.copy()
        xstar[:, column] = np.maximum(xstar[:, column], s)
        xstars.append(xstar)
    return xstars


def test_kernel_tables_match_direct_evaluation_on_integer_coded_covariates():
    rng = np.random.default_rng(45)
    x = _mixed_covariates(600, rng)
    xstars = _raised_floors(x, 2, (12.0, 14.0, 16.0)) + [x.copy()]
    for block in (BLOCK, 500):
        _assert_tables_match_direct(
            x, xstars, h=np.array([1.0, 1.0, 3.0, 4.0]),
            discrete_mask=np.array([True, True, False, False]), block=block,
        )


def test_kernel_tables_match_direct_evaluation_under_higher_order_kernel():
    rng = np.random.default_rng(46)
    x = _mixed_covariates(400, rng)
    w = _assert_tables_match_direct(
        x, _raised_floors(x, 2, (13.0, 15.0)),
        kernel=KernelSpec(family="higher_order", order=4),
        h=np.array([1.0, 1.0, 2.5, 3.0]),
        discrete_mask=np.array([True, True, False, False]), block=1024,
    )
    assert np.any(w < 0)


def test_kernel_tables_match_direct_evaluation_with_per_coordinate_bandwidth():
    rng = np.random.default_rng(47)
    x = _mixed_covariates(400, rng)
    _assert_tables_match_direct(
        x, _raised_floors(x, 3, (1953.0, 1957.0)),
        kernel=KernelSpec(family="gaussian_truncated"),
        h=np.array([1.0, 1.0, 2.5, 6.0]),
        discrete_mask=np.array([True, True, False, False]), block=1024,
    )


def test_kernel_tables_treat_negative_zero_as_zero():
    rng = np.random.default_rng(48)
    values = np.array([-0.0, 0.0, 1.0, 2.0])
    x = np.column_stack([rng.integers(0, 2, size=300), rng.choice(values, size=300),
                         rng.choice(values[:3], size=300)])
    xstar = x.copy()
    xstar[:, 1] = rng.choice(values, size=300)
    plan = kernel_plan(x, xstar, np.array([True, False, False]))
    # both zeros sit in one table entry
    assert all(t[0].size <= 3 for tables in plan.tables for t in tables)
    for mask in (np.array([True, False, False]), None):
        _assert_tables_match_direct(x, [xstar, x], h=1.5, discrete_mask=mask, block=24)


def test_kernel_tables_name_the_rows_without_donor_of_direct_evaluation():
    rng = np.random.default_rng(49)
    x = _mixed_covariates(300, rng)
    xstars = _raised_floors(x, 2, (12.0, 15.0))
    # smoothed values far out of range, and a NaN discrete target
    xstars[0][::25, 3] = 2100.0
    xstars[1][[40, 41], 0] = np.nan
    h = np.array([1.0, 1.0, 3.0, 4.0])
    plan, cases = _table_cases(x, xstars, np.array([True, True, False, False]))
    assert any(t is not None for tables in plan.tables for t in tables)
    named = []
    for src_counts, tgt_counts in cases:
        for weights in (kernel_weights, direct_kernel_weights):
            with pytest.raises(BandwidthTooSmallError) as err:
                weights(plan, KernelSpec(), h, src_counts, tgt_counts, 1024)
            named.append(err.value.columns)
    assert named[0] == named[1] == list(range(0, 300, 25)) + [340, 341]
    assert named[2] == named[3] == list(range(0, 300, 25))
    assert named[4] == named[5]


def test_the_simulation_plan_builds_no_kernel_table():
    for n in (100, 200, 400):
        sample = dgp_draw(n, np.random.default_rng(n))[0]
        plan = kernel_plan(sample.x, sample.xstar, sample.discrete_mask)
        assert plan.tables == ((None,),)


def _resample_counts(plan, n, rng):
    draw = multinomial_counts(n, rng)
    return (np.bincount(plan.src_inv, weights=draw, minlength=plan.src.shape[0]),
            np.bincount(plan.tgt_inv, weights=draw, minlength=plan.tgt.shape[0])[:, None])


def _assert_direct(plan, kernel, h, src_counts, tgt_counts, block):
    """The weights are bitwise those of the direct evaluation, or name the
    same rows without donor; returns the weights or those rows."""
    try:
        ref = direct_kernel_weights(plan, kernel, h, src_counts, tgt_counts, block)
    except BandwidthTooSmallError as err:
        with pytest.raises(BandwidthTooSmallError) as got:
            kernel_weights(plan, kernel, h, src_counts, tgt_counts, block)
        assert got.value.columns == err.columns
        return err.columns
    got = kernel_weights(plan, kernel, h, src_counts, tgt_counts, block)
    assert got.tobytes() == ref.tobytes()
    return got


@pytest.mark.parametrize("n", [3, 50, 400])
def test_simulation_weights_are_direct_evaluation_bitwise(n):
    """The study's plans, at the point and under resample counts, through
    blocks that reuse one buffer across blocks."""
    sample = dgp_draw(n, np.random.default_rng(n))[0]
    plan = kernel_plan(sample.x, sample.xstar, sample.discrete_mask)
    h = bandwidth(5.5, sample.x, sample.discrete_mask)
    rng = np.random.default_rng(7 + n)
    cases = [(plan.src_counts,
              np.bincount(plan.tgt_inv, minlength=plan.tgt.shape[0])[:, None] * 1.0)]
    cases += [_resample_counts(plan, n, rng) for _ in range(3)]
    for kernel in (KernelSpec(), KernelSpec(family="higher_order", order=4)):
        for block in (BLOCK, 2000):
            for src_counts, tgt_counts in cases:
                got = _assert_direct(plan, kernel, h, src_counts, tgt_counts, block)
                assert isinstance(got, np.ndarray) or n == 3


def test_synthetic_file_weights_are_direct_evaluation_bitwise():
    """The sweep's stacked plan on the 3,895-row file, with kernel tables,
    where some cells span several blocks: the blocks reuse their buffers
    across blocks and cells."""
    table = synth_table(SynthConfig(n=3895, seed=5))
    roles = default_synth_roles()
    samples = [
        build_sample(table, roles, xstar_columns=apply_scenario(
            table, roles, parse_scenario(f"max_with(cedu, {s})")))
        for s in (13, 16)
    ]
    sample, xstars = samples[0], [s.xstar for s in samples]
    plan = kernel_plan(sample.x, np.concatenate(xstars), sample.discrete_mask)
    assert any(t is not None for tables in plan.tables for t in tables)
    assert any(ti.size > BLOCK // si.size for si, ti in plan.cells)
    n, t = sample.n, plan.tgt.shape[0]
    counts = np.column_stack([np.bincount(plan.tgt_inv[v * n:(v + 1) * n], minlength=t)
                              for v in range(2)]).astype(float)
    h = bandwidth(30.0, sample.x, sample.discrete_mask)
    rng = np.random.default_rng(3)
    draw = multinomial_counts(n, rng)
    resample = (np.bincount(plan.src_inv, weights=draw, minlength=plan.src.shape[0]),
                np.bincount(plan.tgt_inv[:n], weights=draw, minlength=t)[:, None])
    for src_counts, tgt_counts in ((plan.src_counts, counts), resample):
        got = _assert_direct(plan, KernelSpec(), h, src_counts, tgt_counts, BLOCK)
        assert isinstance(got, np.ndarray)


def test_a_later_larger_cell_and_a_target_without_donor_are_direct_evaluation():
    """Cells in key order whose blocks grow, so the buffers grow mid-call;
    and the same plan with a target far from every source."""
    rng = np.random.default_rng(50)
    cell = np.repeat([0.0, 1.0, 2.0], [15, 200, 60])
    x = np.column_stack([cell, rng.normal(size=cell.size), rng.normal(size=cell.size)])
    xstar = x + np.array([0.0, 0.3, -0.2])
    mask = np.array([True, False, False])
    plan = kernel_plan(x, xstar, mask)
    need = [si.size * min(ti.size, 4096 // si.size) for si, ti in plan.cells]
    assert need[1] > need[0]
    tgt_counts = np.bincount(plan.tgt_inv, minlength=plan.tgt.shape[0])[:, None] * 1.0
    h = np.array([1.0, 1.2, 0.9])
    for kernel in (KernelSpec(), KernelSpec(family="gaussian_truncated")):
        got = _assert_direct(plan, kernel, h, plan.src_counts, tgt_counts, 4096)
        assert isinstance(got, np.ndarray)
    xstar[[20, 230], 2] = 50.0
    plan = kernel_plan(x, xstar, mask)
    tgt_counts = np.bincount(plan.tgt_inv, minlength=plan.tgt.shape[0])[:, None] * 1.0
    assert _assert_direct(plan, KernelSpec(), h, plan.src_counts, tgt_counts, 4096) == [20, 230]


def _wide_cell_case():
    """A plan of one cell with 1,600 distinct sources, and the (targets x 2)
    multiplicities of two manipulations stacked on it."""
    x = np.random.default_rng(51).normal(size=(1600, 2))
    plan = kernel_plan(x, np.concatenate([x + 0.2, x - 0.2]))
    counts = np.column_stack([
        np.bincount(plan.tgt_inv[v * 1600:(v + 1) * 1600], minlength=plan.tgt.shape[0])
        for v in range(2)
    ]).astype(float)
    assert len(plan.cells) == 1 and plan.cells[0][0].size == 1600
    return plan, counts


def _weights_peak(plan, h, counts, kernel=KernelSpec()):
    """The weights of one ``kernel_weights`` call and its traced peak, and
    the call's block budget: the two block buffers and the output; numpy's
    iterator buffers for the broadcast subtraction, two of np.getbufsize()
    doubles; and the call's arrays of one entry per source row, 80 bytes
    a row (about 42 measured)."""
    kernel_weights(plan, kernel, h, plan.src_counts, counts)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        w = kernel_weights(plan, kernel, h, plan.src_counts, counts)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    budget = (2 * BLOCK * 8 + w.nbytes + 2 * np.getbufsize() * 8
              + 80 * plan.src.shape[0])
    return w, peak, budget


def test_a_wide_cell_keeps_the_weights_call_within_its_block_budget():
    """Blocks of 512 targets held 2 x 1600 x 512 doubles here (13 MB)."""
    plan, counts = _wide_cell_case()
    _, peak, budget = _weights_peak(plan, 1.0, counts)
    assert peak < budget


@pytest.mark.parametrize("kernel", [KernelSpec(family="gaussian_truncated"),
                                    KernelSpec(family="higher_order", order=4)],
                         ids=["gaussian_truncated", "higher_order"])
def test_a_wide_cell_keeps_the_other_kernel_families_within_the_block_budget(kernel):
    """These kernels built block-sized temporaries, and the call peaked at
    2.2 (Gaussian) and 3.3 MB (higher order); measured 1.27 and 1.31 MB
    against a budget of 1.33 MB."""
    plan, counts = _wide_cell_case()
    _, peak, budget = _weights_peak(plan, 1.0, counts, kernel)
    assert peak < budget


def test_a_kernel_table_stays_within_the_block_budget():
    """A 1,000-value integer coordinate had a 999 x 999 table (8 MB) here,
    and the call peaked at 17.4 MB."""
    rng = np.random.default_rng(61)
    x = np.column_stack([rng.integers(0, 1000, 8000), rng.normal(size=8000)])
    plan = kernel_plan(x, x)
    assert plan.tables[0][0] is None
    counts = np.bincount(plan.tgt_inv, minlength=plan.tgt.shape[0])[:, None] * 1.0
    w, peak, budget = _weights_peak(plan, np.array([3.0, 1.0]), counts)
    assert abs(w.sum() - 8000) <= 1e-9 * 8000
    assert peak < budget


def test_a_wide_cell_gives_the_weights_of_blocks_of_512_targets():
    """More blocks add each source's terms in more groups; measured at most
    9.2e-16 of the largest weight."""
    plan, counts = _wide_cell_case()
    w = kernel_weights(plan, KernelSpec(), 1.0, plan.src_counts, counts)
    ref = direct_kernel_weights(plan, KernelSpec(), 1.0, plan.src_counts, counts,
                                targets=512)
    assert np.max(np.abs(w - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_support_violation_indices():
    sample = _sample(50, 4)
    sample = ObservationSample(
        y1=sample.y1, y2=sample.y2, x=sample.x,
        xstar=np.where(np.arange(50)[:, None] == 7, 1e6, sample.x),
    )
    rows = support_violations(sample)
    assert rows.tolist() == [7]


# --- copula grids --------------------------------------------------------------

def test_rank_based_copula_hand_example():
    # four points with rank pairs (1,3), (2,1), (3,4), (4,2)
    sample = ObservationSample(
        y1=np.array([1.0, 2.0, 3.0, 4.0]),
        y2=np.array([3.0, 1.0, 4.0, 2.0]),
        x=np.zeros(4),
        xstar=np.zeros(4),
    )
    grid = empirical_copula(sample, m=2)
    assert grid.values[1, 1] == 0.25
    assert grid.values[2, 2] == 1.0
    assert grid.values[0, 1] == 0.0


def test_copula_grid_boundary_semantics():
    sample = _sample(37, 8)
    grid = empirical_copula(sample, m=10)
    np.testing.assert_array_equal(grid.values[0, :], np.zeros(11))
    np.testing.assert_array_equal(grid.values[:, 0], np.zeros(11))
    assert grid.values[10, 10] == pytest.approx(1.0, abs=1e-12)


def test_empirical_copula_within_frechet_hoeffding():
    for seed, n, m in ((0, 35, 10), (1, 200, 40), (2, 401, 100)):
        sample = _sample(n, seed)
        grid = empirical_copula(sample, m=m)
        assert frechet_hoeffding_violation(grid) <= 2.0 / m
        assert two_increasing(grid)
        # both margins track the uniform within the largest marginal atom
        ties = max(np.unique(y, return_counts=True)[1].max()
                   for y in (sample.y1, sample.y2))
        nodes = np.arange(m + 1) / m
        assert np.max(np.abs(grid.values[:, m] - nodes)) <= ties / n + 1e-9
        assert np.max(np.abs(grid.values[m, :] - nodes)) <= ties / n + 1e-9


def test_counterfactual_copula_within_frechet_hoeffding():
    sample = _sample(150, 5, shift=0.3)
    w = counterfactual_weights(sample.x, sample.xstar, h=1.5)
    grid = counterfactual_copula(sample, w, m=50)
    assert frechet_hoeffding_violation(grid) <= 2.0 / 50
    assert two_increasing(grid)  # nonnegative weights keep increments valid


def test_unit_weight_counterfactual_equals_empirical_bitwise():
    sample = _sample(64, 6)
    cf = counterfactual_copula(sample, np.ones(64), m=16)
    emp = empirical_copula(sample, m=16)
    assert np.array_equal(cf.values, emp.values)


def _quantile_inversion_copula(sample, m):
    # Deheuvels' construction: C(a/m, b/m) = (1/n) #{i : y1_i <= F1^{-1}(a/m),
    # y2_i <= F2^{-1}(b/m)} with F^{-1}(u) = inf{y : F(y) >= u} of the
    # empirical CDF, and F^{-1}(0) = -infinity so node 0 stays empty
    n = sample.n
    values = np.zeros((m + 1, m + 1))
    thresholds = []
    for y in (sample.y1, sample.y2):
        sy = np.sort(y)
        k = np.ceil(np.arange(1, m + 1) / m * n - 1e-9).astype(int)
        thresholds.append(sy[np.maximum(k, 1) - 1])
    for a in range(1, m + 1):
        below1 = sample.y1 <= thresholds[0][a - 1]
        for b in range(1, m + 1):
            values[a, b] = np.mean(below1 & (sample.y2 <= thresholds[1][b - 1]))
    return values


def test_variants_agree_within_one_over_n():
    sample = _sample(120, 7)
    rank = empirical_copula(sample, m=30).values
    inversion = _quantile_inversion_copula(sample, 30)
    assert np.max(np.abs(rank - inversion)) <= 1.0 / 120 + 1e-12


def test_rank_invariance_of_grids_is_exact():
    sample = _sample(90, 11)
    base = empirical_copula(sample, m=18)
    warped = ObservationSample(
        y1=np.exp(sample.y1),
        y2=3.0 * sample.y2 - 7.0,
        x=sample.x,
        xstar=sample.xstar,
    )
    assert np.array_equal(empirical_copula(warped, m=18).values, base.values)


# --- grid layer against the binary-search oracle ------------------------------

def _searchsorted_atoms(u, m):
    # first node k/m >= u by binary search over the nodes; m+1 above the grid
    # except for float dust within 1e-9 of 1
    nodes = np.arange(m + 1) / m
    idx = np.searchsorted(nodes, u, side="left")
    return np.where((idx > m) & (u <= 1.0 + 1e-9), m, idx)


def _add_at_atoms(u1, u2, v, m):
    """The atom histogram by binary-search atoms and an ``np.add.at`` scatter."""
    i1 = _searchsorted_atoms(np.asarray(u1, dtype=float), m)
    i2 = _searchsorted_atoms(np.asarray(u2, dtype=float), m)
    cells = np.zeros((m + 2, m + 2))
    np.add.at(cells, (i1, i2), v)
    return cells


def _add_at_grid_values(u1, u2, v, m, n):
    """The grid layer on the ``np.add.at`` histogram."""
    values = _add_at_atoms(u1, u2, v, m).cumsum(axis=0).cumsum(axis=1)
    return np.ascontiguousarray(values[: m + 1, : m + 1] / n)


_ORACLE_M = (2, 7, 100, 1000)


def _adversarial_u(m, rng):
    """Every node, two ulps either side of it, values off [0, 1], noise."""
    nodes = np.arange(m + 2) / m
    near = [nodes]
    up = down = nodes
    for _ in range(2):
        up = np.nextafter(up, np.inf)
        down = np.nextafter(down, -np.inf)
        near += [up, down]
    off_grid = np.array([
        -0.0, -5e-324, -1e-12, -0.3, -1.0, -1e300, -np.inf,
        1.0 + 5e-10, 1.0 + 1e-9, np.nextafter(1.0 + 1e-9, 2.0), 1.0 + 2e-9,
        1.5, 1e300, np.inf,
    ])
    dust = 1.0 + rng.uniform(0.0, 1e-9, size=16)
    noise = rng.uniform(-0.1, 1.1, size=200)
    return rng.permutation(np.concatenate(near + [off_grid, dust, noise]))


@pytest.mark.parametrize("m", _ORACLE_M)
def test_atom_indices_match_binary_search_on_adversarial_values(m):
    u = _adversarial_u(m, np.random.default_rng(m))
    assert np.any(u < 0.0) and np.any((u > 1.0) & (u <= 1.0 + 1e-9))
    assert np.any(u > 1.0 + 1e-9)
    assert np.array_equal(_atom_indices(u, m), _searchsorted_atoms(u, m))


@given(
    st.integers(min_value=2, max_value=4096),
    st.lists(st.tuples(st.integers(-3, 4100), st.integers(-3, 3)), max_size=40),
    # |u| <= 1e300 keeps u*m finite; the infinities are in the values above
    st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_atom_indices_match_binary_search_near_any_node(m, offsets, floats):
    # k/m moved by a few ulps, for nodes on, below and above the grid
    near = []
    for k, ulps in offsets:
        x = k / m
        for _ in range(abs(ulps)):
            x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
        near.append(x)
    u = np.array(near + floats, dtype=float)
    assert np.array_equal(_atom_indices(u, m), _searchsorted_atoms(u, m))


def _higher_order_pseudo_obs(seed, n=120):
    # order-4 kernel weights leak negative mass, which pushes weighted
    # pseudo-observations below 0 and above 1; y2 carries ties
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y1 = x + rng.normal(size=n)
    y2 = np.round(x - rng.normal(size=n))
    w = counterfactual_weights(
        x, x + 0.5, kernel=KernelSpec(family="higher_order", order=4), h=0.65
    )
    return margin_ranks(y1).pseudo_obs(w), margin_ranks(y2).pseudo_obs(w), w


def adversarial_atoms(m, seed):
    """(u1, u2, weights) cases: nodes and ulps either side of them, atoms
    off the grid at both ends, ties, and negative weights."""
    rng = np.random.default_rng(seed)
    u1 = _adversarial_u(m, rng)
    u2 = _adversarial_u(m, rng)
    cases = [(u1, u2, rng.normal(size=u1.size))]
    cases += [_higher_order_pseudo_obs(seed) for seed in (13, 14)]
    weighted = np.concatenate([np.r_[p1, p2] for p1, p2, _ in cases[1:]])
    assert np.any(weighted < 0.0) and np.any(weighted > 1.0 + 1e-9)
    assert all(np.any(w < 0.0) for _, _, w in cases)
    return cases


def _one_row(u1, u2, w, m):
    return next(weighted_rank_atoms(u1[None], u2[None], w[None], m))


@pytest.mark.parametrize("m", _ORACLE_M)
def test_atoms_match_add_at_oracle_bitwise(m):
    cases = adversarial_atoms(m, 200 + m)
    for a1, a2, w in cases:
        got = _one_row(a1, a2, w, m)
        want = _add_at_atoms(a1, a2, w, m)
        assert got.shape == want.shape == (m + 2, m + 2)
        assert got.tobytes() == want.tobytes()
    # the off-grid atoms land at index 0 and m+1 in both margins
    cells = _one_row(*cases[0], m)
    assert cells[0].any() and cells[:, 0].any()
    assert cells[m + 1].any() and cells[:, m + 1].any()


@pytest.mark.parametrize("m", _ORACLE_M)
def test_rows_of_one_pass_are_their_own_histograms_bitwise(m):
    """A pass over several rows gives each row the histogram of that row
    alone, in row order."""
    rng = np.random.default_rng(300 + m)
    a1, a2, w = adversarial_atoms(m, 300 + m)[0]
    rows = [(a1, a2, w), (a2, a1, -w), (rng.permutation(a1), a2, w * w)]
    u1, u2, v = (np.stack(parts) for parts in zip(*rows))
    got = list(weighted_rank_atoms(u1, u2, v, m))
    assert len(got) == 3
    for cells, row in zip(got, rows):
        assert cells.tobytes() == _add_at_atoms(*row, m).tobytes()


@pytest.mark.parametrize("m", _ORACLE_M)
def test_grid_matches_add_at_oracle_bitwise(m):
    for a1, a2, w in adversarial_atoms(m, 100 + m):
        got = _atom_grid(_one_row(a1, a2, w, m), m, w.size)
        want = _add_at_grid_values(a1, a2, w, m, w.size)
        assert got.shape == want.shape == (m + 1, m + 1)
        assert got.tobytes() == want.tobytes()


# --- pseudo-observations -------------------------------------------------------

def test_pseudo_observations_are_scaled_ranks_for_unit_weights():
    sample = _sample(25, 15)
    pobs = pseudo_observations(sample)
    ranks = margin_ranks(sample.y1).pseudo_obs(np.ones(25)) * 25
    np.testing.assert_allclose(pobs.u1 * 25, ranks)
    np.testing.assert_allclose(np.sort(pobs.u1), np.arange(1, 26) / 25)
    assert pobs.u1.min() > 0 and pobs.u1.max() <= 1.0


def test_pseudo_observations_respect_weights():
    sample = _sample(30, 16)
    w = counterfactual_weights(sample.x, sample.x + 0.2, h=1.0)
    pobs = pseudo_observations(sample, w)
    order = np.argsort(sample.y1)
    # weighted CDF evaluated at own observation: cumulative shares
    np.testing.assert_allclose(
        pobs.u1[order], np.cumsum(w[order]) / 30, atol=1e-12
    )


@given(st.integers(min_value=5, max_value=60), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_copula_grid_monotone_in_each_argument(n, seed):
    grid = empirical_copula(_sample(n, seed), m=10)
    assert np.all(np.diff(grid.values, axis=0) >= -1e-12)
    assert np.all(np.diff(grid.values, axis=1) >= -1e-12)
