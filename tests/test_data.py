import csv
import re

import numpy as np
import pytest
from oracles import counterfactual_copula, counterfactual_weights
from test_cli import read_grid_csv

from cfcopula.copula import empirical_copula
from cfcopula.data import (
    ColumnRoles,
    DataError,
    SYNTH_COLUMNS,
    SynthConfig,
    Table,
    build_sample,
    default_synth_roles,
    ingest,
    synth_table,
    write_grid_csv,
    write_table,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_ingest_well_formed_three_rows(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
    table = ingest(path)
    assert table.n == 3
    assert table.names == ("a", "b")
    np.testing.assert_array_equal(table.column("a"), [1.0, 3.0, 5.0])


def test_ingest_reports_row_and_column_of_bad_cell(tmp_path):
    path = _write(tmp_path, "y1,y2\n1.0,2.0\noops,4.0\n")
    with pytest.raises(DataError, match=r"\(row 2, y1\)"):
        ingest(path)


@pytest.mark.parametrize("cells, where", [
    # an outcome cell, a covariate cell, and a column no role uses; the
    # first such cell in file order is named
    (("nan", "1", "2", "3"), "(row 2, y1)"),
    (("1", "2", "inf", "-inf"), "(row 2, x)"),
    (("1", "2", "3", "NaN"), "(row 2, note)"),
])
def test_ingest_reports_the_first_non_finite_cell(tmp_path, cells, where):
    path = _write(tmp_path, "y1,y2,x,note\n1,2,3,4\n" + ",".join(cells)
                  + "\n5,6,7,8\n-inf,6,7,8\n")
    roles = ColumnRoles(y1="y1", y2="y2", x=("x",))
    with pytest.raises(DataError, match="non-finite value .* at " + re.escape(where)):
        ingest(path, roles=roles)


def test_ingest_counts_blank_lines_in_the_row_of_a_non_finite_cell(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n\n3,4\n\n5,nan\n6,7\n")
    with pytest.raises(DataError, match=r"non-finite value nan at \(row 5, b\)"):
        ingest(path)


def test_ingest_missing_required_column(tmp_path):
    path = _write(tmp_path, "y1,x\n1,2\n3,4\n")
    roles = ColumnRoles(y1="y1", y2="y2", x=("x",))
    with pytest.raises(DataError, match="y2"):
        ingest(path, roles=roles)


def test_ingest_rejects_a_repeated_column_name(tmp_path):
    path = _write(tmp_path, "a,b, a\n1,2,3\n4,5,6\n")
    with pytest.raises(DataError, match="column 'a' appears twice in the header"):
        ingest(path)


def test_ingest_needs_two_rows(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(DataError, match="at least 2"):
        ingest(path)


def test_ingest_rejects_ragged_rows(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="row 2"):
        ingest(path)


def test_ingest_rejects_empty_and_missing_files(tmp_path):
    with pytest.raises(DataError, match="empty"):
        ingest(_write(tmp_path, ""))
    with pytest.raises(DataError, match="cannot open"):
        ingest(tmp_path / "nope.csv")


def test_ingest_ignores_trailing_blank_line(tmp_path):
    table = ingest(_write(tmp_path, "a,b\n1,2\n3,4\n\n"))
    assert table.n == 2


def test_table_round_trip_preserves_values(tmp_path):
    rng = np.random.default_rng(0)
    table = Table(
        names=("u", "v"),
        columns={"u": rng.normal(size=20), "v": rng.integers(0, 5, 20).astype(float)},
    )
    path = tmp_path / "t.csv"
    write_table(table, path)
    back = ingest(path)
    np.testing.assert_array_equal(back.column("u"), table.columns["u"])
    np.testing.assert_array_equal(back.column("v"), table.columns["v"])



def _list_form_columns(path):
    """The (columns x rows) array of per-column lists of float(cell)."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        header, *rows = [cells for cells in csv.reader(fh) if cells]
    return np.array([[float(row[j]) for row in rows] for j in range(len(header))],
                    dtype=float)


@pytest.mark.parametrize("case", ["synthetic", "odd-cells"])
def test_ingest_columns_are_those_of_per_column_float_lists_bitwise(tmp_path, case):
    """The float buffers hold what float(cell) returned: underscores, blanks
    around a number, a plus sign, -0 and the smallest subnormal included."""
    path = tmp_path / "data.csv"
    if case == "synthetic":
        write_table(synth_table(SynthConfig()), path)
    else:
        _write(tmp_path, "a,b,c\n1_0, 2 ,+3\n-0,4.9e-324,-4.9e-324\n"
                         ".5,5.,1e-400\n-1e-400,2.5E+3,1.7976931348623157e308\n\n")
    table = ingest(path)
    ref = _list_form_columns(path)
    assert len(table.names) == ref.shape[0]
    for name, want in zip(table.names, ref):
        got = table.column(name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

def test_column_roles_validation():
    with pytest.raises(DataError, match="not covariate"):
        ColumnRoles(y1="a", y2="b", x=("c",), discrete=("d",))
    with pytest.raises(DataError, match="one xstar column per"):
        ColumnRoles(y1="a", y2="b", x=("c", "d"), xstar=("e",))


def test_build_sample_with_explicit_xstar_columns(tmp_path):
    path = _write(tmp_path, "y1,y2,x1,x1s\n1,2,3,4\n5,6,7,8\n9,1,2,3\n")
    roles = ColumnRoles(y1="y1", y2="y2", x=("x1",), xstar=("x1s",))
    sample = build_sample(ingest(path, roles=roles), roles)
    np.testing.assert_array_equal(sample.x[:, 0], [3, 7, 2])
    np.testing.assert_array_equal(sample.xstar[:, 0], [4, 8, 3])


def test_build_sample_discrete_mask_follows_x_order(tmp_path):
    path = _write(tmp_path, "y1,y2,a,b\n1,2,0,3\n5,6,1,7\n")
    roles = ColumnRoles(y1="y1", y2="y2", x=("b", "a"), discrete=("a",), xstar=("b", "a"))
    sample = build_sample(ingest(path), roles)
    np.testing.assert_array_equal(sample.discrete_mask, [False, True])


def test_build_sample_requires_some_counterfactual(tmp_path):
    path = _write(tmp_path, "y1,y2,x1\n1,2,3\n4,5,6\n")
    roles = ColumnRoles(y1="y1", y2="y2", x=("x1",))
    with pytest.raises(DataError, match="no counterfactual"):
        build_sample(ingest(path), roles)


def test_grid_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(80, 2))
    from cfcopula.copula import ObservationSample
    sample = ObservationSample(
        y1=x[:, 0] + rng.normal(size=80), y2=x[:, 1], x=x, xstar=x * 0.9
    )
    w = counterfactual_weights(sample.x, sample.xstar, h=1.5)
    grid = counterfactual_copula(sample, w, m=16)
    path = tmp_path / "grid.csv"
    write_grid_csv(grid, path)
    m, values = read_grid_csv(path)
    assert m == 16
    assert np.array_equal(values, grid.values)  # repr round trip, no drift


def _write_grid_csv_per_cell(grid, path):
    # one write per cell, each value through float(); the reference format
    m = grid.m
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("u1,u2,value\n")
        for i in range(m + 1):
            for j in range(m + 1):
                fh.write(f"{i / m!r},{j / m!r},{float(grid.values[i, j])!r}\n")


@pytest.mark.parametrize("m", [2, 100])
def test_grid_csv_bytes_are_those_of_the_per_cell_writer(tmp_path, m):
    from cfcopula.copula import CopulaGrid, ObservationSample

    rng = np.random.default_rng(m)
    x = rng.normal(size=(150, 1))
    sample = ObservationSample(y1=x[:, 0] + rng.normal(size=150),
                               y2=rng.normal(size=150), x=x, xstar=x + 0.4)
    w = counterfactual_weights(x, x + 0.4, h=1.0)
    grids = [counterfactual_copula(sample, w, m=m)]
    # values of every magnitude, with signed zeros, ones and a subnormal
    shape = (m + 1, m + 1)
    values = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    values[0] = -0.0
    values[:, m] = 1.0
    values[m, 0] = 5e-324
    grids.append(CopulaGrid(m=m, values=values))
    for grid in grids:
        write_grid_csv(grid, tmp_path / "fast.csv")
        _write_grid_csv_per_cell(grid, tmp_path / "cell.csv")
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "cell.csv").read_bytes()
    assert b",-0.0\n" in fast and b",1.0\n" in fast


# --- synthetic dataset -----------------------------------------------------------

def test_synth_table_is_deterministic():
    a = synth_table(SynthConfig(n=500, seed=3))
    b = synth_table(SynthConfig(n=500, seed=3))
    for name in SYNTH_COLUMNS:
        np.testing.assert_array_equal(a.columns[name], b.columns[name])
    c = synth_table(SynthConfig(n=500, seed=4))
    assert not np.array_equal(a.columns["pincome"], c.columns["pincome"])


def test_synth_table_column_ranges():
    t = synth_table(SynthConfig(n=2000, seed=1))
    assert t.names == SYNTH_COLUMNS
    assert t.n == 2000
    for col in ("pmale", "pwhite", "cmale"):
        assert set(np.unique(t.columns[col])) <= {0.0, 1.0}
    assert t.columns["pedu"].min() >= 0 and t.columns["pedu"].max() <= 17
    assert t.columns["cedu"].min() >= 7 and t.columns["cedu"].max() <= 17
    assert t.columns["cbirth"].min() >= 1938 and t.columns["cbirth"].max() <= 1986
    assert t.columns["pincome"].min() > 0 and t.columns["cincome"].min() > 0


def test_synth_table_moments_in_documented_neighborhood():
    t = synth_table()  # default n and seed
    assert t.columns["pincome"].mean() == pytest.approx(84, abs=8)
    assert t.columns["cincome"].mean() == pytest.approx(86, abs=8)
    assert t.columns["pmale"].mean() == pytest.approx(0.89, abs=0.02)
    assert t.columns["pwhite"].mean() == pytest.approx(0.89, abs=0.02)
    assert t.columns["cmale"].mean() == pytest.approx(0.49, abs=0.03)
    assert t.columns["pedu"].mean() == pytest.approx(13.1, abs=0.4)
    assert t.columns["cedu"].mean() == pytest.approx(14.4, abs=0.4)
    assert t.columns["cbirth"].mean() == pytest.approx(1968, abs=1.0)


def test_synth_dependence_declines_with_child_schooling():
    """The design premise: schooling loosens the parent-child income tie."""
    t = synth_table(SynthConfig(n=6000, seed=2))
    li, ci, ce = t.columns["pincome"], t.columns["cincome"], t.columns["cedu"]
    lo, hi = ce <= 13, ce >= 16

    def tau(a, b):
        from scipy.stats import kendalltau
        return kendalltau(a, b).statistic

    assert tau(li[lo], ci[lo]) > tau(li[hi], ci[hi]) + 0.05


def test_default_synth_roles_match_generator_columns():
    roles = default_synth_roles()
    t = synth_table(SynthConfig(n=50, seed=0))
    for name in roles.required_columns():
        assert name in t.names
    sample = build_sample(
        t, roles, xstar_columns={c: t.column(c) for c in roles.x}
    )
    assert sample.n == 50
    assert sample.discrete_mask.sum() == 3


def test_synth_config_rejects_tiny_n():
    with pytest.raises(DataError):
        synth_table(SynthConfig(n=1))
