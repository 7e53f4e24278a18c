import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from oracles import (
    adaptive_gaussian_copula_grid,
    bvn_cdf,
    counterfactual_weights,
    frechet_hoeffding_violation,
    gaussian_report,
    measures_from_grid,
)

from cfcopula import bootstrap, simulation
from cfcopula.bootstrap import estimate
from cfcopula.copula import ObservationSample, empirical_copula
from cfcopula.kernels import KernelSpec
from cfcopula.simulation import (
    SimStudyConfig,
    dgp_draw,
    gaussian_copula_grid,
    run_study,
)

R_ACTUAL = math.sqrt(65.0) / 13.0
R_CF = math.sqrt(2.0) / 10.0


# --- bivariate normal quadrature ------------------------------------------------

def test_bvn_cdf_independence_factorizes():
    from scipy.special import ndtr
    for a, b in ((0.0, 0.0), (-1.2, 0.7), (2.0, -0.3)):
        assert bvn_cdf(a, b, 0.0) == pytest.approx(ndtr(a) * ndtr(b), abs=1e-10)


def test_bvn_cdf_comonotone_limit_is_min():
    from scipy.special import ndtr
    assert bvn_cdf(0.5, 1.5, 0.999999) == pytest.approx(ndtr(0.5), abs=1e-4)


def test_bvn_cdf_quadrant_identity():
    # P(Z1<=0, Z2<=0) = 1/4 + arcsin(r)/(2 pi)
    for r in (-0.5, 0.0, 0.3, 0.8):
        assert bvn_cdf(0.0, 0.0, r) == pytest.approx(
            0.25 + math.asin(r) / (2.0 * math.pi), abs=1e-9
        )


# --- analytic copula grid -------------------------------------------------------

def test_gaussian_grid_boundaries_and_symmetry():
    grid = gaussian_copula_grid(0.55, m=40)
    nodes = np.arange(41) / 40
    np.testing.assert_array_equal(grid.values[0, :], np.zeros(41))
    np.testing.assert_allclose(grid.values[40, :], nodes, atol=1e-12)
    np.testing.assert_allclose(grid.values, grid.values.T, atol=1e-8)
    assert frechet_hoeffding_violation(grid) <= 1e-8


def test_gaussian_grid_zero_correlation_is_product():
    grid = gaussian_copula_grid(0.0, m=20)
    nodes = np.arange(21) / 20
    np.testing.assert_allclose(grid.values, np.outer(nodes, nodes), atol=1e-8)


def test_gaussian_grid_monotone_in_correlation():
    lo = gaussian_copula_grid(0.2, m=10).values[5, 5]
    hi = gaussian_copula_grid(0.6, m=10).values[5, 5]
    assert hi > lo


def test_gaussian_grid_measures_match_closed_forms():
    grid = gaussian_copula_grid(R_ACTUAL, m=100)
    est = measures_from_grid(grid).as_dict()
    truth = gaussian_report(R_ACTUAL).as_dict()
    assert est["beta"] == pytest.approx(truth["beta"], abs=1e-6)
    for key in ("rho", "tau", "gamma"):
        assert est[key] == pytest.approx(truth[key], abs=0.01), key


def test_gaussian_grid_is_the_adaptive_grid():
    for r, m in ((R_ACTUAL, 100), (R_CF, 100), (0.55, 40)):
        grid = gaussian_copula_grid(r, m=m)
        oracle = adaptive_gaussian_copula_grid(r, m)
        np.testing.assert_allclose(grid.values, oracle.values, rtol=0, atol=1e-14,
                                   err_msg=f"r={r} m={m}")


def test_gaussian_grid_matches_the_bivariate_normal_cdf():
    m = 20
    a = np.array([NormalDist().inv_cdf(i / m) for i in range(1, m)])
    # the docstring's bound, out to |r| = 0.99999
    for r in (0.0, 0.5, -0.5, 0.9, -0.9, 0.99, -0.99, 0.999, -0.999, 0.99999, -0.99999):
        exact = np.array([bvn_cdf(ai, a, r) for ai in a])
        interior = gaussian_copula_grid(r, m=m).values[1:m, 1:m]
        np.testing.assert_allclose(interior, exact, rtol=0, atol=1e-14, err_msg=f"r={r}")


def test_gaussian_grid_at_zero_correlation_is_the_product_bitwise():
    for m in (1, 2, 20, 100):
        nodes = np.arange(m + 1) / m
        values = gaussian_copula_grid(0.0, m=m).values
        assert values.tobytes() == np.outer(nodes, nodes).tobytes(), m


@pytest.mark.parametrize("m", [0, -3, 2.5])
def test_gaussian_grid_needs_an_integer_m_of_at_least_one(m):
    with pytest.raises(ValueError, match=r"grid m must be an integer >= 1, got "):
        gaussian_copula_grid(0.3, m=m)


# --- data generating process ----------------------------------------------------

def test_dgp_draw_shapes_and_determinism():
    a, _, a_y2_star = dgp_draw(100, np.random.default_rng(7))
    b, _, b_y2_star = dgp_draw(100, np.random.default_rng(7))
    assert a.y1.shape == (100,)
    assert a.x.shape == (100, 1)
    np.testing.assert_array_equal(a.y1, b.y1)
    np.testing.assert_array_equal(a_y2_star, b_y2_star)
    assert not a.discrete_mask.any()


def test_dgp_counterfactual_halves_the_covariate():
    sample = dgp_draw(50, np.random.default_rng(8))[0]
    np.testing.assert_allclose(sample.xstar, 0.5 * sample.x, atol=1e-15)


def test_dgp_population_correlations():
    """The induced outcome pairs target r = sqrt(65)/13 actual, sqrt(2)/10
    counterfactual; a large draw should land within sampling error."""
    sample, y1_star, y2_star = dgp_draw(200_000, np.random.default_rng(9))
    r_act = np.corrcoef(sample.y1, sample.y2)[0, 1]
    r_cf = np.corrcoef(y1_star, y2_star)[0, 1]
    assert r_act == pytest.approx(R_ACTUAL, abs=0.01)
    assert r_cf == pytest.approx(R_CF, abs=0.01)


# --- study harness ----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        SimStudyConfig(replications=0)
    with pytest.raises(ValueError):
        SimStudyConfig(bootstrap_b=1)
    with pytest.raises(ValueError):
        SimStudyConfig(sizes=(1,))
    with pytest.raises(ValueError):
        SimStudyConfig(seed=-1)


def test_study_sizes_are_some_and_distinct():
    """No size used to die in the block runner with ZeroDivisionError, and
    a repeated size ran the same seeded replications twice."""
    with pytest.raises(ValueError, match="at least one sample size"):
        SimStudyConfig(sizes=())
    with pytest.raises(ValueError, match=r"distinct, got \(100, 200, 100\)"):
        SimStudyConfig(sizes=(100, 200, 100))
    assert bootstrap._run_blocks(lambda lo, hi: 1 / 0, 0) == []


def _value(report, n, target, metric):
    """The value of the report's (n, target, metric) row."""
    for rn, rt, rm, rv in report.rows:
        if rn == n and rt == target and rm == metric:
            return rv
    raise KeyError(f"no row ({n}, {target}, {metric})")


def test_run_study_error_metrics_only(tmp_path):
    cfg = SimStudyConfig(sizes=(60,), replications=3, bootstrap_b=0, m=20, seed=5)
    report = run_study(cfg)
    targets = {row[1] for row in report.rows}
    assert {"empirical", "proposed", "oracle"} <= targets
    assert not any(row[2] == "coverage_tau" for row in report.rows)
    assert _value(report, 60, "proposed", "miae_x100") > 0
    csv_path = tmp_path / "sim.csv"
    report.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,target,metric,value"
    assert len(lines) == len(report.rows) + 1
    manifest = tmp_path / "manifest.txt"
    report.write_manifest(manifest)
    assert "seed=5" in manifest.read_text()


def test_grid_errors_are_those_of_the_three_grids():
    """The study scores the empirical, proposed and oracle grids by their
    node-average absolute and squared errors over the full grid; the oracle
    is the empirical copula of the latent counterfactual outcomes.  Its rows
    are 100 times the mean absolute error and 100 times the root of the mean
    squared error over the replications."""
    cfg = SimStudyConfig(sizes=(40,), replications=3, bootstrap_b=0, m=10, seed=8)
    report = run_study(cfg)
    truth_cf = gaussian_copula_grid(R_CF, 10)
    truths = (gaussian_copula_grid(R_ACTUAL, 10), truth_cf, truth_cf)
    abs_err, sq_err = [], []
    for rep in range(3):
        rng = np.random.default_rng(simulation._replication_seed(8, 40, rep))
        sample, y1_star, y2_star = dgp_draw(40, rng)
        est = estimate(sample, KernelSpec(), cfg.bandwidth_constant, 10)
        latent = ObservationSample(y1=y1_star, y2=y2_star, x=np.zeros(40),
                                   xstar=np.zeros(40))
        grids = (est.grids["actual"], est.grids["counterfactual"],
                 empirical_copula(latent, m=10))
        diffs = [grid.values - truth.values for grid, truth in zip(grids, truths)]
        abs_err.append([np.abs(d).sum() / 121 for d in diffs])
        sq_err.append([(d * d).sum() / 121 for d in diffs])
    for e, name in enumerate(simulation.ESTIMATORS):
        miae = 100.0 * sum(row[e] for row in abs_err) / 3
        rmise = 100.0 * math.sqrt(sum(row[e] for row in sq_err) / 3)
        assert _value(report, 40, name, "miae_x100") == pytest.approx(miae, abs=1e-12)
        assert _value(report, 40, name, "rmise_x100") == pytest.approx(rmise, abs=1e-12)


def test_run_study_with_coverage_rows():
    cfg = SimStudyConfig(
        sizes=(40,), replications=4, bootstrap_b=8, m=20, seed=6,
        recompute_weights=False,
    )
    report = run_study(cfg)
    metrics = {row[2] for row in report.rows if row[1] == "actual_tau"}
    assert "coverage" in metrics
    cov = _value(report, 40, "actual_tau", "coverage")
    assert 0.0 <= cov <= 1.0


def test_run_study_deterministic_given_seed():
    cfg = SimStudyConfig(sizes=(50,), replications=2, bootstrap_b=6, m=10, seed=21)
    a = run_study(cfg)
    b = run_study(cfg)
    assert a.rows == b.rows


@pytest.mark.parametrize("recompute", [False, True])
def test_run_study_is_bitwise_the_same_on_any_number_of_cores(monkeypatch, tmp_path,
                                                               recompute):
    """Six replications split into 1, 2 and 3 blocks that mix the sizes;
    k blocks fork k - 1 workers, and the bootstraps inside a block fork
    nothing."""
    forks = tmp_path / "forks"
    real_fork = getattr(os, "fork", None)

    def fork():
        with open(forks, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_fork()

    if real_fork is not None:
        monkeypatch.setattr(os, "fork", fork)
    cfg = SimStudyConfig(sizes=(30, 50), replications=3, bootstrap_b=6, m=10,
                         seed=23, recompute_weights=recompute)
    reports = []
    for k in (1, 2, 3):
        monkeypatch.setattr(bootstrap, "_worker_count", lambda k=k: k)
        reports.append(run_study(cfg))
        if k == 1 or real_fork is None:
            assert not forks.exists()
        else:
            # k - 1 forks, all by this process: none from inside a block
            assert forks.read_text() == f"{os.getpid()}\n" * (k - 1)
            forks.unlink()
    for report in reports[1:]:
        assert len(report.rows) == len(reports[0].rows) == 2 * (6 + 3 * 12)
        for got, want in zip(report.rows, reports[0].rows):
            assert got[:3] == want[:3]
            assert np.float64(got[3]).tobytes() == np.float64(want[3]).tobytes()


def test_the_first_failing_replication_decides_the_error(monkeypatch):
    """The tasks are rep-major: (n=50, rep 1) is task 3 and (n=30, rep 2)
    task 4, though (n, rep) order puts (30, 2) first.  The study fails on
    task 3, the first failure one loop over the tasks meets, on any core
    count; on two and three cores a worker runs it."""
    seed_of = simulation._replication_seed

    def seed(master, n, rep):
        if (n, rep) in {(50, 1), (30, 2)}:
            raise bootstrap.DegenerateReplicateError(
                f"replication n={n} rep={rep} in process {os.getpid()}")
        return seed_of(master, n, rep)

    monkeypatch.setattr(simulation, "_replication_seed", seed)
    cfg = SimStudyConfig(sizes=(30, 50), replications=3, bootstrap_b=0, m=10, seed=3)
    for k in (1, 2, 3):
        monkeypatch.setattr(bootstrap, "_worker_count", lambda k=k: k)
        with pytest.raises(bootstrap.DegenerateReplicateError,
                           match="n=50 rep=1 in") as err:
            run_study(cfg)
        # task 3 of six runs in the parent's block only on one core
        ran_here = f"process {os.getpid()}" in str(err.value)
        assert ran_here == (k == 1 or not hasattr(os, "fork"))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_a_one_core_study_starts_no_process():
    code = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        # a worker would come from os.fork
        "os.fork = None\n"
        "from cfcopula.simulation import SimStudyConfig, run_study\n"
        "run_study(SimStudyConfig(sizes=(30, 40), replications=2, bootstrap_b=4,"
        " m=10, seed=1))\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_one_covariate_bandwidth_is_the_scalar_sd_rule_bitwise():
    """The study once formed its point bandwidth from np.std(x[:, 0], ddof=1)
    as a scalar; the per-coordinate rule of ``estimate`` gives the same h
    and the same weights."""
    for n in (12, 50, 200, 1000):
        for seed in range(5):
            sample = dgp_draw(n, np.random.default_rng(seed))[0]
            est = estimate(sample, KernelSpec(), 5.5, 10)
            old = 5.5 * float(np.std(sample.x[:, 0], ddof=1)) * float(n) ** (-1.0 / 3.0)
            assert est.h.shape == (1,)
            assert est.h.tobytes() == np.float64(old).tobytes()
            w = counterfactual_weights(sample.x, sample.xstar, h=old)
            assert est.w.tobytes() == w.tobytes()
