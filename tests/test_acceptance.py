"""Release gate: six end-to-end checks, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  The coverage check dominates the runtime (a couple of minutes);
everything else finishes in seconds.
"""

import csv
import sys
import time

import numpy as np
import pytest
from oracles import (
    counterfactual_copula,
    counterfactual_weights,
    estimate_under,
    frechet_hoeffding_violation,
    gaussian_report,
    measures_from_pseudo_obs,
    pseudo_observations,
    two_increasing,
)

from cfcopula.association import measures_from_grid
from cfcopula.bootstrap import BootstrapConfig, run_bootstrap
from cfcopula.cli import main
from cfcopula.copula import ObservationSample, empirical_copula
from cfcopula.data import ingest
from cfcopula.kernels import KernelSpec
from cfcopula.simulation import SimStudyConfig, gaussian_copula_grid, run_study

R_ACTUAL = np.sqrt(65.0) / 13.0
R_COUNTERFACTUAL = np.sqrt(2.0) / 10.0


def _conclude(tag, ok, detail):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    sys.stdout.flush()
    assert ok, line


def _rows_by(report, n, target, metric):
    vals = [v for (rn, rt, rm, v) in report.rows
            if rn == n and rt == target and rm == metric]
    assert len(vals) == 1, (n, target, metric)
    return vals[0]


@pytest.fixture(scope="module")
def error_study():
    t0 = time.perf_counter()
    report = run_study(SimStudyConfig(sizes=(100, 400), replications=200,
                                      bootstrap_b=0))
    return report, time.perf_counter() - t0


def test_closed_form_agreement():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for r in (R_ACTUAL, R_COUNTERFACTUAL):
        got = measures_from_grid(gaussian_copula_grid(r, m=100)).as_dict()
        want = gaussian_report(r).as_dict()
        for key in ("rho", "tau", "gamma"):
            err = abs(got[key] - want[key])
            worst = max(worst, err)
            ok &= err <= 0.01
        ok &= abs(got["beta"] - want["beta"]) <= 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _conclude("1 closed-form agreement", ok,
              f"(max rho/tau/gamma error {worst:.5f}, {elapsed:.1f}s)")


def test_error_study_levels(error_study):
    report, elapsed = error_study
    published = {
        "empirical": (0.937, 1.364),
        "proposed": (1.526, 2.090),
        "oracle": (1.241, 1.674),
    }
    ok = elapsed < 600.0
    parts = []
    for est, (miae_ref, rmise_ref) in published.items():
        miae = _rows_by(report, 100, est, "miae_x100")
        rmise = _rows_by(report, 100, est, "rmise_x100")
        ok &= abs(miae - miae_ref) <= 0.15 * miae_ref
        ok &= abs(rmise - rmise_ref) <= 0.15 * rmise_ref
        parts.append(f"{est} {miae:.3f}/{rmise:.3f}")
    _conclude("2 integrated error levels", ok,
              f"(n=100 MIAE/RMISE x100: {'; '.join(parts)}, {elapsed:.1f}s)")


def test_error_decay_rate(error_study):
    report, _ = error_study
    ok = True
    parts = []
    for est in ("empirical", "proposed"):
        ratio = (_rows_by(report, 400, est, "miae_x100")
                 / _rows_by(report, 100, est, "miae_x100"))
        ok &= 0.35 <= ratio <= 0.65
        parts.append(f"{est} {ratio:.3f}")
    _conclude("3 error decay n=100 -> 400", ok, f"({'; '.join(parts)})")


@pytest.mark.slow
def test_interval_coverage():
    t0 = time.perf_counter()
    report = run_study(SimStudyConfig(sizes=(100, 200), replications=200,
                                      bootstrap_b=200))
    elapsed = time.perf_counter() - t0
    actual200 = _rows_by(report, 200, "actual_tau", "coverage")
    cf100 = _rows_by(report, 100, "counterfactual_tau", "coverage")
    ok = (0.91 <= actual200 <= 0.99) and (0.68 <= cf100 <= 0.83)
    ok &= elapsed < 1800.0
    _conclude("4 bootstrap coverage", ok,
              f"(actual tau@200 {actual200:.3f}, cf tau@100 {cf100:.3f}, "
              f"{elapsed:.1f}s)")


def test_estimator_properties():
    t0 = time.perf_counter()
    ok = True

    # kernel mass conservation across random configurations
    rng = np.random.default_rng(911)
    for trial in range(100):
        n = int(rng.integers(5, 80))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        xstar = x + rng.normal(scale=0.3, size=(n, d))
        family = ("epanechnikov", "gaussian_truncated", "higher_order")[trial % 3]
        w = counterfactual_weights(
            x, xstar, h=float(rng.uniform(1.0, 6.0)),
            kernel=KernelSpec(family=family,
                              order=4 if family == "higher_order" else 2),
        )
        ok &= abs(w.sum() - n) <= 1e-9 * n

    # grid validity on a fresh sample
    rng = np.random.default_rng(912)
    n = 400
    x = rng.normal(size=(n, 2))
    sample = ObservationSample(
        y1=x @ np.ones(2) + rng.normal(size=n),
        y2=0.5 * x @ np.ones(2) + rng.normal(size=n),
        x=x, xstar=x + 0.3,
    )
    w = counterfactual_weights(sample.x, sample.xstar, h=1.5)
    for m in (20, 100):
        grid = counterfactual_copula(sample, w, m=m)
        ok &= frechet_hoeffding_violation(grid) <= 2.0 / m
        ok &= (w < 0).any() or two_increasing(grid)

    # unit-mass resample multipliers reduce to the point estimators bitwise:
    # the replicate histograms give the point grids and the point reports
    from oracles import _rank_atoms, _reports

    from cfcopula.copula import _atom_grid, margin_ranks
    r1, r2 = margin_ranks(sample.y1), margin_ranks(sample.y2)
    ones = np.ones(n, dtype=np.int64)
    act = _atom_grid(_rank_atoms(r1, r2, ones.astype(float), 40), 40, n)
    cf = _atom_grid(_rank_atoms(r1, r2, ones * w, 40), 40, n)
    ok &= np.array_equal(act, empirical_copula(sample, m=40).values)
    ok &= np.array_equal(cf, counterfactual_copula(sample, w, m=40).values)
    point = estimate_under(sample, w, 40)
    ok &= _reports(r1, r2, ones, ones * w, 40) == point.reports

    # grid measures track the pseudo-observation path at n=400
    grid_rep = measures_from_grid(empirical_copula(sample, m=100)).as_dict()
    pobs_rep = measures_from_pseudo_obs(pseudo_observations(sample)).as_dict()
    for key in ("rho", "tau", "gamma", "beta"):
        ok &= abs(grid_rep[key] - pobs_rep[key]) <= 0.02

    # seed determinism, byte for byte
    cfg = BootstrapConfig(B=40, seed=20240801)
    res_a = run_bootstrap(point, cfg)
    res_b = run_bootstrap(point, cfg)
    for key, run in res_a.runs.items():
        ok &= np.array_equal(run.replicates, res_b.runs[key].replicates)
        ok &= (run.lo, run.hi) == (res_b.runs[key].lo, res_b.runs[key].hi)

    # rank invariance under strictly increasing margins, exactly
    warped = ObservationSample(
        y1=np.exp(sample.y1), y2=5.0 * sample.y2 - 2.0,
        x=sample.x, xstar=sample.xstar,
    )
    ok &= np.array_equal(empirical_copula(warped, m=50).values,
                         empirical_copula(sample, m=50).values)
    ok &= np.array_equal(counterfactual_copula(warped, w, m=50).values,
                         counterfactual_copula(sample, w, m=50).values)

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _conclude("5 estimator properties", ok, f"({elapsed:.1f}s)")


def test_schooling_sweeps(tmp_path):
    t0 = time.perf_counter()
    data_dir = tmp_path / "data"
    assert main(["synth-data", "--out-dir", str(data_dir)]) == 0
    table = ingest(data_dir / "synth.csv")
    ok = table.n == 3895
    csv_path = str(data_dir / "synth.csv")

    out_s = tmp_path / "sweep_s"
    rc = main(["sweep", "--input", csv_path, "--param", "s", "--from", "13",
               "--to", "16", "--boot-b", "200", "--bandwidth-c", "30",
               "--out-dir", str(out_s)])
    ok &= rc == 0

    out_sp = tmp_path / "sweep_sprime"
    rc = main(["sweep", "--input", csv_path, "--param", "sprime", "--from", "6",
               "--to", "17", "--boot-b", "200", "--bandwidth-c", "30",
               "--out-dir", str(out_sp)])
    ok &= rc == 0

    cedu = table.column("cedu")
    pedu = table.column("pedu")

    with open(out_s / "sweep.csv", newline="") as fh:
        rows_s = list(csv.reader(fh))[1:]
    ok &= len(rows_s) == 4 * 12
    for r in rows_s:
        s = float(r[0])
        ok &= float(r[6]) == np.mean(cedu < s)
        ok &= float(r[4]) <= float(r[3]) <= float(r[5])

    with open(out_sp / "sweep.csv", newline="") as fh:
        rows_sp = list(csv.reader(fh))[1:]
    ok &= len(rows_sp) == 12 * 12
    for r in rows_sp:
        sp = float(r[0])
        ok &= float(r[6]) == np.mean((pedu <= sp) & (cedu < 16.0))
        ok &= float(r[4]) <= float(r[3]) <= float(r[5])

    elapsed = time.perf_counter() - t0
    _conclude("6 schooling sweeps", ok,
              f"({len(rows_s)} + {len(rows_sp)} interval rows, {elapsed:.1f}s)")
