"""Tabular data ingestion and a synthetic intergenerational-income dataset.

Input files are headered CSV, UTF-8, '.' decimal separator.  Every cell is
parsed as a float; the first failing cell is reported by data row (1-based,
header excluded) and column name.

The synthetic generator produces a stylized parent-child income panel with
the columns

    pincome  parent family income in thousands (lognormal)
    pmale    family head is male (0/1)
    pwhite   family head is white (0/1)
    pedu     parent years of schooling (integer, 0..17)
    cincome  child family income in thousands (lognormal)
    cmale    child is male (0/1)
    cbirth   child birth year (integer, 1938..1986)
    cedu     child years of schooling (integer, 7..17)

Incomes follow a log-linear design in years of schooling, and the loading of
child log income on the parent income shock declines with child schooling,
so education-raising scenarios weaken the parent-child association.  The
coding is documented here and makes no claim of matching any survey's
microdata; it exists so the scenario machinery is runnable end to end.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .copula import ObservationSample


class DataError(ValueError):
    """Malformed or unusable tabular input; message names row/column."""


SYNTH_COLUMNS = (
    "pincome", "pmale", "pwhite", "pedu", "cincome", "cmale", "cbirth", "cedu",
)


@dataclass
class Table:
    """Column-major numeric table: ordered names plus one float array each."""

    names: tuple
    columns: dict

    @property
    def n(self):
        return self.columns[self.names[0]].shape[0] if self.names else 0

    def column(self, name):
        if name not in self.columns:
            raise DataError(f"column {name!r} not found; have {list(self.names)}")
        return self.columns[name]


@dataclass(frozen=True)
class ColumnRoles:
    """Which columns play which role when assembling an ObservationSample.

    ``x`` names each covariate column once: a repeated column would square
    its kernel.  ``discrete`` must be a subset of ``x``; those coordinates
    are matched exactly by the kernel weights instead of smoothed.
    ``xstar`` names explicit counterfactual columns, one per entry of ``x``
    and in the same order; leave it empty when a scenario produces the
    manipulation instead.
    """

    y1: str
    y2: str
    x: tuple
    discrete: tuple = ()
    xstar: tuple = ()

    def __post_init__(self):
        for j, name in enumerate(self.x):
            if name in self.x[:j]:
                raise DataError(f"covariate column {name!r} appears twice in x")
        extra = [c for c in self.discrete if c not in self.x]
        if extra:
            raise DataError(f"discrete columns {extra} are not covariate columns")
        if self.xstar and len(self.xstar) != len(self.x):
            raise DataError(
                f"need one xstar column per covariate column: "
                f"{len(self.xstar)} vs {len(self.x)}"
            )

    def required_columns(self):
        return (self.y1, self.y2) + tuple(self.x) + tuple(self.xstar)


def ingest(path, roles=None):
    """Read a headered UTF-8 CSV into a Table, parsing every cell as a float;
    a leading byte-order mark is skipped.

    With ``roles`` the header is checked for all required columns up front.
    Raises DataError for bytes that are not UTF-8, a row the csv module
    cannot parse (reported as data row), a missing column, a non-numeric or
    non-finite cell (reported as data row and column name) or fewer than
    two data rows.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = _rows(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        header = [name.strip() for name in header]
        for j, name in enumerate(header):
            if name in header[:j]:
                raise DataError(f"column {name!r} appears twice in the header of {path}")
        if roles is not None:
            missing = [c for c in roles.required_columns() if c not in header]
            if missing:
                raise DataError(f"missing required columns {missing} in {path}")
        raw = [[] for _ in header]
        blank = []  # data row numbers of skipped blank lines
        for i, cells in enumerate(reader, start=1):
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                blank.append(i)
                continue  # ignore trailing blank lines
            if len(cells) != len(header):
                raise DataError(
                    f"row {i} has {len(cells)} cells, expected {len(header)}"
                )
            for j, cell in enumerate(cells):
                try:
                    raw[j].append(float(cell))
                except ValueError:
                    raise DataError(
                        f"non-numeric value {cell.strip()!r} at "
                        f"(row {i}, {header[j]})"
                    ) from None
    n = len(raw[0]) if header else 0
    if n < 2:
        raise DataError(f"need at least 2 data rows, got {n}")
    values = np.array(raw, dtype=float)
    # float() reads "nan" and "inf"; name the first such cell in file order
    bad = np.argwhere(~np.isfinite(values.T))
    if bad.size:
        k, j = bad[0]
        row = np.setdiff1d(np.arange(1, n + len(blank) + 1), blank)[k]
        raise DataError(
            f"non-finite value {float(values[j, k])!r} at (row {row}, {header[j]})"
        )
    return Table(names=tuple(header), columns=dict(zip(header, values)))


def _rows(fh, path):
    """The rows of the CSV file ``fh``, header first.  Bytes that are not
    UTF-8, or a row the csv module cannot parse (such as one with a field
    over its field size limit, named by data row), fail as a DataError."""
    row = -1
    try:
        for row, cells in enumerate(csv.reader(fh)):
            yield cells
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        where = "the header" if row < 0 else f"row {row + 1}"
        raise DataError(f"cannot parse {where} of {path}: {exc}") from None


def build_sample(table, roles, xstar_columns=None):
    """Assemble an ObservationSample from role columns.

    ``xstar_columns`` is a dict of already-manipulated covariate columns (a
    scenario's output); when absent, ``roles.xstar`` must name explicit
    columns in the table.
    """
    y1 = table.column(roles.y1)
    y2 = table.column(roles.y2)
    x = np.column_stack([table.column(c) for c in roles.x])
    if xstar_columns is not None:
        xstar = np.column_stack([xstar_columns[c] for c in roles.x])
    elif roles.xstar:
        xstar = np.column_stack([table.column(c) for c in roles.xstar])
    else:
        raise DataError(
            "no counterfactual covariates: pass a scenario or xstar columns"
        )
    mask = np.array([c in roles.discrete for c in roles.x], dtype=bool)
    return ObservationSample(y1=y1, y2=y2, x=x, xstar=xstar, discrete_mask=mask)


def _format_cell(value):
    # integers print bare so binary/cedu-style columns round-trip tidily;
    # everything else uses repr for an exact float round-trip
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def write_table(table, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        cols = [table.columns[name] for name in table.names]
        for i in range(table.n):
            writer.writerow([_format_cell(float(col[i])) for col in cols])


def write_grid_csv(grid, path):
    """Emit a copula grid in long format (u1, u2, value), exact round-trip."""
    m = grid.m
    nodes = [repr(i / m) for i in range(m + 1)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("u1,u2,value\n")
        # one string per grid row; tolist() gives the Python floats repr reads
        for u1, row in zip(nodes, np.asarray(grid.values, dtype=float).tolist()):
            fh.write("".join(f"{u1},{u2},{value!r}\n" for u2, value in zip(nodes, row)))


# --- synthetic generator ------------------------------------------------------

# the synthetic design; its values echo a PSID-like sample
_PARENT_EDU_MEAN = 13.1
_PARENT_EDU_SD = 2.85
_CHILD_EDU_BASE = 14.45
_CHILD_EDU_SD = 1.9
_EDU_PERSISTENCE = 0.35
_LOG_INCOME_BASE = 4.304  # log median income, thousands
_PARENT_EDU_RETURN = 0.06
_CHILD_EDU_RETURN = 0.05
_PARENT_LOG_SD = 0.46
_CHILD_LOG_SD = 0.58
# loading of child log income on the parent income shock, by child edu
_MOBILITY_INTERCEPT = 0.30
_MOBILITY_SLOPE = 0.025


@dataclass(frozen=True)
class SynthConfig:
    """Size and seed of one synthetic dataset."""

    n: int = 3895
    seed: int = 20240801

    def __post_init__(self):
        # DataError is a ValueError, so the CLI reports both as usage errors
        if self.n < 2:
            raise DataError(f"need n >= 2 synthetic rows, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def synth_table(config=None):
    """Draw the synthetic dataset as a Table; deterministic given the seed."""
    cfg = config if config is not None else SynthConfig()
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n

    pedu = np.clip(np.rint(rng.normal(_PARENT_EDU_MEAN, _PARENT_EDU_SD, n)), 0, 17)
    cedu = np.clip(
        np.rint(
            _CHILD_EDU_BASE
            + _EDU_PERSISTENCE * (pedu - _PARENT_EDU_MEAN)
            + rng.normal(0.0, _CHILD_EDU_SD, n)
        ),
        7,
        17,
    )
    pmale = (rng.random(n) < 0.891).astype(float)
    pwhite = (rng.random(n) < 0.889).astype(float)
    cmale = (rng.random(n) < 0.486).astype(float)
    cbirth = np.clip(np.rint(rng.normal(1968.0, 10.5, n)), 1938, 1986)

    z_parent = rng.standard_normal(n)
    log_p = (
        _LOG_INCOME_BASE
        + _PARENT_EDU_RETURN * (pedu - _PARENT_EDU_MEAN)
        + 0.05 * pmale
        + _PARENT_LOG_SD * z_parent
    )
    # association between the incomes declines with child schooling
    loading = np.clip(
        _MOBILITY_INTERCEPT - _MOBILITY_SLOPE * (cedu - 12.0), 0.02, 0.45
    )
    resid_sd = np.sqrt(_CHILD_LOG_SD ** 2 - loading ** 2)
    log_c = (
        _LOG_INCOME_BASE
        + _CHILD_EDU_RETURN * (cedu - _CHILD_EDU_BASE)
        + 0.03 * cmale
        + loading * z_parent
        + resid_sd * rng.standard_normal(n)
    )
    columns = {
        "pincome": np.exp(log_p),
        "pmale": pmale,
        "pwhite": pwhite,
        "pedu": pedu,
        "cincome": np.exp(log_c),
        "cmale": cmale,
        "cbirth": cbirth,
        "cedu": cedu,
    }
    return Table(names=SYNTH_COLUMNS, columns=columns)


def default_synth_roles():
    """Role assignment for the synthetic columns: incomes as outcomes, the
    six family characteristics as covariates with the binary ones discrete."""
    return ColumnRoles(
        y1="pincome",
        y2="cincome",
        x=("pmale", "pwhite", "pedu", "cmale", "cbirth", "cedu"),
        discrete=("pmale", "pwhite", "cmale"),
    )
