import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    Report,
    atom_histogram,
    counterfactual_copula,
    counterfactual_weights,
    gaussian_report,
    measures_from_grid,
    measures_from_pseudo_obs,
    measures_report_from_cells,
    pseudo_observations,
)
from test_copula import _add_at_atoms, _add_at_grid_values, adversarial_atoms

from cfcopula.association import (
    GridResolutionError,
    gaussian_measure,
    measures_from_atoms,
    measures_from_cell_pair,
    sign_matrix,
)
from cfcopula.copula import (
    CopulaGrid,
    ObservationSample,
    empirical_copula,
    margin_ranks,
    rank_atoms,
)


# --- the grid functionals one at a time: the oracle of the measures ------------

def cell_masses(grid):
    """Two-dimensional increments of the grid; they telescope to C(1,1).

    Entry [i, j] is the C-mass of the cell [i/m, (i+1)/m] x [j/m, (j+1)/m].
    """
    v = grid.values
    return v[1:, 1:] - v[1:, :-1] - v[:-1, 1:] + v[:-1, :-1]


def _corner_average(values):
    # bilinear cell integral: the average of the four corner node values
    return 0.25 * (values[1:, 1:] + values[1:, :-1] + values[:-1, 1:] + values[:-1, :-1])


def _trapezoid_nodes(a, m):
    return (float(np.sum(a)) - 0.5 * (float(a[0]) + float(a[-1]))) / m


def spearman_rho(grid):
    """12 * int C(u1, u2) du1 du2 - 3 with the bilinear cell rule.

    Each cell contributes its corner average; the rule integrates the
    bilinear interpolant exactly, so the independence grid returns exactly
    zero and the comonotone grid returns 1 - 1/m^2.
    """
    return float(12.0 * _corner_average(grid.values).sum() / (grid.m * grid.m) - 3.0)


def kendall_tau(grid):
    """4 * int C dC - 1 with C averaged over the four corners of each cell."""
    return float(4.0 * np.sum(_corner_average(grid.values) * cell_masses(grid)) - 1.0)


def gini_gamma(grid):
    """4 * (int C(u, u) du + int C(u, 1-u) du) - 2, diagonal trapezoids."""
    m = grid.m
    idx = np.arange(m + 1)
    diag = grid.values[idx, idx]
    anti = grid.values[idx, m - idx]
    return float(4.0 * (_trapezoid_nodes(diag, m) + _trapezoid_nodes(anti, m)) - 2.0)


def blomqvist_beta(grid):
    """4 * C(1/2, 1/2) - 1, read off the grid node (no quadrature)."""
    if grid.m % 2 != 0:
        raise GridResolutionError(
            f"Blomqvist's beta needs (0.5, 0.5) on the grid; m={grid.m} is odd"
        )
    half = grid.m // 2
    return float(4.0 * grid.values[half, half] - 1.0)


def oracle_measures(grid):
    """The four measures of a grid, one functional at a time."""
    return Report(
        rho=spearman_rho(grid), tau=kendall_tau(grid), gamma=gini_gamma(grid),
        beta=blomqvist_beta(grid),
    )


def assert_reports_close(got, want, tol):
    for key, value in want.as_dict().items():
        assert abs(got.as_dict()[key] - value) <= tol, key


def _grid_from(values):
    m = values.shape[0] - 1
    return CopulaGrid(m=m, values=values)


def _independence(m):
    nodes = np.arange(m + 1) / m
    return _grid_from(np.outer(nodes, nodes))


def _comonotone(m):
    nodes = np.arange(m + 1) / m
    return _grid_from(np.minimum.outer(nodes, nodes))


def _countermonotone(m):
    nodes = np.arange(m + 1) / m
    return _grid_from(np.maximum(nodes[:, None] + nodes[None, :] - 1.0, 0.0))


# --- exact identities on reference grids ---------------------------------------

@pytest.mark.parametrize("m", [4, 10, 100])
def test_independence_grid_measures_are_exact_zeros(m):
    grid = _independence(m)
    assert spearman_rho(grid) == pytest.approx(0.0, abs=1e-13)
    assert kendall_tau(grid) == pytest.approx(0.0, abs=1e-13)
    assert gini_gamma(grid) == pytest.approx(0.0, abs=1e-13)
    if m % 2 == 0:
        assert blomqvist_beta(grid) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("m", [4, 10, 100])
def test_comonotone_grid_identities(m):
    """Node-sampled min(u, v): the grid forms carry explicit m-corrections."""
    grid = _comonotone(m)
    assert spearman_rho(grid) == pytest.approx(1.0 - 1.0 / m**2, abs=1e-12)
    assert kendall_tau(grid) == pytest.approx(1.0 - 1.0 / m, abs=1e-12)
    assert gini_gamma(grid) == pytest.approx(1.0, abs=1e-12)
    if m % 2 == 0:
        assert blomqvist_beta(grid) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("m", [4, 10, 100])
def test_countermonotone_grid_identities(m):
    # mirror images of the comonotone identities by C -> v - C(1-u, v)
    grid = _countermonotone(m)
    assert spearman_rho(grid) == pytest.approx(-1.0 + 1.0 / m**2, abs=1e-12)
    assert kendall_tau(grid) == pytest.approx(-1.0 + 1.0 / m, abs=1e-12)
    assert gini_gamma(grid) == pytest.approx(-1.0, abs=1e-12)
    if m % 2 == 0:
        assert blomqvist_beta(grid) == pytest.approx(-1.0, abs=1e-13)


def test_cell_masses_sum_to_grid_corner():
    grid = empirical_copula(_rand_sample(57, 3), m=10)
    masses = cell_masses(grid)
    assert masses.sum() == pytest.approx(grid.values[10, 10], abs=1e-12)


def test_blomqvist_requires_even_grid():
    with pytest.raises(GridResolutionError):
        blomqvist_beta(_independence(5))
    with pytest.raises(GridResolutionError, match="m=5 is odd"):
        measures_from_grid(_independence(5))
    work = {}
    for _ in range(2):
        with pytest.raises(GridResolutionError, match="m=5 is odd"):
            measures_from_cell_pair(np.ones((7, 7)), np.ones((7, 7)), 5, 49.0, work)
    # the check comes before any buffer is made
    assert work == {}


# --- Gaussian closed forms ------------------------------------------------------

def test_gaussian_closed_forms_at_zero_and_one():
    for which in ("rho", "tau", "gamma", "beta"):
        assert gaussian_measure(0.0, which) == pytest.approx(0.0, abs=1e-15)
        assert gaussian_measure(1.0, which) == pytest.approx(1.0, abs=1e-12)
        assert gaussian_measure(-1.0, which) == pytest.approx(-1.0, abs=1e-12)


def test_gaussian_closed_form_frozen_values():
    """arcsin forms at the two study correlations, frozen to 12 digits."""
    r_act = np.sqrt(65.0) / 13.0
    r_cf = np.sqrt(2.0) / 10.0
    assert gaussian_measure(r_act, "tau") == pytest.approx(0.4258757566828431, abs=1e-12)
    assert gaussian_measure(r_act, "rho") == pytest.approx(0.6021487911989701, abs=1e-12)
    assert gaussian_measure(r_act, "gamma") == pytest.approx(0.4795188875051269, abs=1e-12)
    assert gaussian_measure(r_act, "beta") == gaussian_measure(r_act, "tau")
    assert gaussian_measure(r_cf, "tau") == pytest.approx(0.0903344706017331, abs=1e-10)
    rep = gaussian_report(r_act)
    assert rep.tau == gaussian_measure(r_act, "tau")


@given(st.floats(min_value=-0.999, max_value=0.999))
@settings(max_examples=60, deadline=None)
def test_gaussian_measures_are_odd_and_monotone(r):
    for which in ("rho", "tau", "gamma", "beta"):
        assert gaussian_measure(-r, which) == pytest.approx(-gaussian_measure(r, which), abs=1e-12)
        if r >= 0:
            assert gaussian_measure(min(r + 1e-3, 0.9995), which) >= gaussian_measure(r, which)


# --- estimator-level behavior ---------------------------------------------------

def _rand_sample(n, seed, dependence=1.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    z = rng.normal(size=n)
    y1 = z + rng.normal(size=n)
    y2 = dependence * z + rng.normal(size=n)
    return ObservationSample(y1=y1, y2=y2, x=x, xstar=x)


def test_measures_from_grid_match_the_single_measure_oracle():
    sample = _rand_sample(120, 6)
    w = counterfactual_weights(sample.x, sample.x + 0.3, h=1.2)
    grids = [empirical_copula(sample, m=20), counterfactual_copula(sample, w, m=50)]
    grids += [make(m) for make in (_independence, _comonotone, _countermonotone)
              for m in (2, 4, 100)]
    for grid in grids:
        assert_reports_close(measures_from_grid(grid), oracle_measures(grid), 1e-14)


def _oracle_pair(first, second, m, n):
    """The eight measures of two histograms, each from its own real
    prefix sums, as bytes."""
    return np.array([value for cells in (first, second) for value in
                     measures_report_from_cells(cells, m, n).as_dict().values()]
                    ).tobytes()


@pytest.mark.parametrize("m", [2, 10, 100, 1000])
def test_measures_from_cells_match_the_oracle_on_adversarial_atoms(m):
    """Atoms on the nodes and ulps either side, at index 0 and m+1, ties
    and negative weights: the histogram forms are the grid functionals.
    Each side of a pair is its histogram's measures bitwise, whatever the
    other side holds and in either order on one workspace."""
    rng = np.random.default_rng(400 + m)
    cases = adversarial_atoms(m, 300 + m)
    # the first case with nonnegative weights, with heavy ties, and with
    # the integer counts of a multinomial resample
    u1, u2, w = cases[0]
    cases.append((u1, u2, np.abs(w)))
    pick = rng.integers(0, 12, size=400)
    cases.append((u1[pick], u2[pick], rng.uniform(-0.5, 2.0, size=400)))
    counts = rng.multinomial(w.size, np.full(w.size, 1.0 / w.size)).astype(float)
    cases.append((u1, u2, counts))
    negative = _add_at_atoms(*cases[0], m)
    integer = _add_at_atoms(*cases[-1], m)
    work = {}
    for a1, a2, w in cases:
        n = float(w.size)
        grid = _grid_from(_add_at_grid_values(a1, a2, w, m, n))
        cells = _add_at_atoms(a1, a2, w, m)
        for other in (cells, negative, integer):
            got = measures_from_cell_pair(cells, other, m, n, work)
            assert np.array(got).tobytes() == _oracle_pair(cells, other, m, n)
            got = measures_from_cell_pair(other, cells, m, n, work)
            assert np.array(got).tobytes() == _oracle_pair(other, cells, m, n)
        ref = measures_report_from_cells(cells, m, n)
        assert_reports_close(ref, oracle_measures(grid), 1e-12)
        assert_reports_close(ref, measures_from_grid(grid), 1e-12)
    # one set of buffers served every call
    assert list(work) == [m]


# --- the measures from the atoms -----------------------------------------------

def _atom_rows(n, rng):
    """Nonnegative multiplier rows of total mass about n: unit counts,
    resample counts with zeros, weights with zeros pinned to n, and
    weights whose mass is off n by rounding."""
    counts = rng.multinomial(n, np.full(n, 1.0 / n)).astype(float)
    w = rng.exponential(size=n)
    w[rng.random(n) < 0.3] = 0.0
    w[0] = 1.0
    cf = counts * w
    cf = cf * (n / cf.sum()) if cf.sum() > 0 else counts
    rows = [np.ones(n), counts, cf, w * (n / w.sum()), w * (n / w.sum()) * (1.0 + 2.0**-50)]
    return np.array(rows)


def _outcomes(n, rng):
    """(y1, y2) pairs: continuous, tied in both margins (shared ``pos``),
    all on one grid row (y1 constant), and all on one column (y2 constant)."""
    y1, y2 = rng.normal(size=n), rng.normal(size=n)
    return [(y1, y2), (np.round(y1), np.round(2.0 * y2)),
            (np.zeros(n), y2), (y1, np.full(n, 3.0))]


def _measures_both_ways(y1, y2, v, m):
    r1, r2 = margin_ranks(y1), margin_ranks(y2)
    got = measures_from_atoms(v, *rank_atoms(r1, r2, v, m), sign_matrix(r1.pos, r2.pos),
                              (r1.order, r2.order), m)
    n = len(y1)
    want = np.array([
        measures_from_cell_pair(cells, cells, m, n, {})[:4]
        for cells in (atom_histogram(r1.pseudo_obs(row), r2.pseudo_obs(row), row, m)
                      for row in v)
    ])
    return got, want


@pytest.mark.parametrize("m", [2, 20, 100, 400])
def test_the_atom_measures_are_those_of_the_histogram(m):
    """Ties, zero multipliers, every atom on one grid row or one column,
    atoms exactly on the nodes (unit counts at n = m), n = 2 and a mass
    off n by rounding: within 1e-13 of the histogram measures."""
    rng = np.random.default_rng(m)
    for n in sorted({2, 7, 2 * m, m}):
        for y1, y2 in _outcomes(n, rng):
            v = _atom_rows(n, rng)
            got, want = _measures_both_ways(y1, y2, v, m)
            assert got.shape == (len(v), 4)
            assert np.abs(got - want).max() <= 1e-13
    # unit counts at n = m put every atom exactly on a node
    r = margin_ranks(np.arange(float(m)))
    assert (r.pseudo_obs(np.ones((1, m))) == np.arange(1, m + 1) / m).all()


def test_an_atom_row_depends_on_that_row_alone():
    """The rows of one call are each the row measured alone, bitwise."""
    rng = np.random.default_rng(5)
    y1, y2 = _outcomes(60, rng)[1]
    v = np.concatenate([_atom_rows(60, rng) for _ in range(3)])
    r1, r2 = margin_ranks(y1), margin_ranks(y2)
    signs, orders = sign_matrix(r1.pos, r2.pos), (r1.order, r2.order)
    batch = measures_from_atoms(v, *rank_atoms(r1, r2, v, 20), signs, orders, 20)
    for row, want in zip(v, batch):
        one = measures_from_atoms(row[None], *rank_atoms(r1, r2, row[None], 20),
                                  signs, orders, 20)
        assert one.tobytes() == want[None].tobytes()


def test_the_sign_matrix_is_that_of_the_rank_differences_in_int8_and_one_cast():
    rng = np.random.default_rng(3)
    y1, y2 = np.round(rng.normal(size=200), 1), rng.normal(size=200)
    p, q = margin_ranks(y1).pos, margin_ranks(y2).pos
    want = np.sign(p[:, None] - p[None, :]) * np.sign(q[:, None] - q[None, :])
    tracemalloc.start()
    got = sign_matrix(p, q)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert got.dtype == np.float64 and (got == want).all()
    # C itself and two int8 sign matrices: 10 bytes an entry, where the
    # signs of int64 differences take 24
    assert peak <= 10 * 200 * 200


def test_grid_and_pseudo_obs_paths_agree_on_unweighted_data():
    sample = _rand_sample(400, 4)
    grid_rep = measures_from_grid(empirical_copula(sample, m=100))
    pobs_rep = measures_from_pseudo_obs(pseudo_observations(sample))
    for key, val in grid_rep.as_dict().items():
        assert val == pytest.approx(pobs_rep.as_dict()[key], abs=0.02), key


def test_rank_invariance_of_measures_is_exact():
    sample = _rand_sample(150, 5)
    base = measures_from_grid(empirical_copula(sample, m=30))
    warped = ObservationSample(
        y1=np.expm1(sample.y1), y2=sample.y2**3, x=sample.x, xstar=sample.xstar
    )
    other = measures_from_grid(empirical_copula(warped, m=30))
    assert base.as_dict() == other.as_dict()


def test_comonotone_sample_hits_grid_identities():
    y = np.random.default_rng(6).normal(size=80)
    sample = ObservationSample(y1=y, y2=2.0 * y + 1.0, x=np.zeros(80), xstar=np.zeros(80))
    report = measures_from_grid(empirical_copula(sample, m=20))
    assert report.tau == pytest.approx(1.0 - 1.0 / 20, abs=1e-12)
    assert report.rho == pytest.approx(1.0 - 1.0 / 20**2, abs=1e-12)
    assert report.gamma == pytest.approx(1.0, abs=1e-12)
    assert report.beta == pytest.approx(1.0, abs=1e-12)


def test_weighted_measures_shrink_under_downweighting_dependence():
    """Weights that favor a low-dependence region lower every measure."""
    rng = np.random.default_rng(7)
    n = 500
    x = rng.normal(size=n)
    z = rng.normal(size=n)
    strength = 1.0 / (1.0 + np.exp(-2.0 * x))  # dependence rises with x
    y1 = z * strength + rng.normal(size=n) * (1 - strength * 0.5)
    y2 = z * strength + rng.normal(size=n) * (1 - strength * 0.5)
    sample = ObservationSample(y1=y1, y2=y2, x=x, xstar=x - 0.8)
    w = counterfactual_weights(sample.x, sample.xstar, h=1.2)
    actual = measures_from_grid(empirical_copula(sample, m=50))
    cf = measures_from_grid(counterfactual_copula(sample, w, m=50))
    assert cf.tau < actual.tau and cf.rho < actual.rho and cf.gamma < actual.gamma


@given(st.integers(min_value=10, max_value=80), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_measures_bounded_on_random_samples(n, seed):
    report = measures_from_grid(empirical_copula(_rand_sample(n, seed), m=10))
    for key, val in report.as_dict().items():
        assert -1.0 - 1e-9 <= val <= 1.0 + 1e-9, key
