"""Empirical and counterfactual copula estimation.

The actual copula of two outcomes is estimated from ranks.  The
counterfactual copula reweights observations by kernel-ratio weights that
transport the sample covariates to their manipulated values, then applies
the same rank construction with weighted marginal CDFs.

The weights come from ``kernel_weights`` on a ``kernel_plan``: the
distinct rows of the covariates and their exact-match cells over the
discrete coordinates, evaluated with row multiplicities.  Both estimators
share one weighted path from ranks and rows of multipliers to atoms on the
m-grid: ``rank_atoms`` places the atoms of the pseudo-observations of
``MarginRanks`` under every row of a pass, so the unweighted case is
literally the weighted case with unit weights.  A grid is the prefix sum
of a row's atom histogram (``_histogram``, ``rank_grids``).  The point
estimate and every bootstrap replicate take their atoms from
``rank_atoms`` and their measures from one step
(``bootstrap._pair_measures``), which makes the "multipliers all one"
reduction exact at the bit level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import DegenerateCovariateError, kernel_1d

# slack for float dust on cumulative sums of weights
_EPS = 1e-9

# kernel entries per block of ``kernel_weights``: its two block buffers of
# 512 KB each fit together in one core's 2 MB L2 cache
BLOCK = 2**16


class BandwidthTooSmallError(ValueError):
    """Some counterfactual target has no sample donor within bandwidth.

    ``where``, when given, names the failing case ahead of the message.
    """

    def __init__(self, columns, h, where=None):
        self.columns = list(columns)
        self.h = h
        self.where = where
        # a one-coordinate bandwidth vector reads as the scalar it is
        h_shown = float(np.ravel(h)[0]) if np.ndim(h) and np.size(h) == 1 else h
        shown = ", ".join(str(j) for j in self.columns[:10])
        more = "" if len(self.columns) <= 10 else f" (+{len(self.columns) - 10} more)"
        prefix = "" if where is None else f"{where}: "
        super().__init__(
            f"{prefix}kernel denominator is zero for counterfactual rows "
            f"[{shown}]{more}: no donor within bandwidth h={h_shown}; "
            "increase the bandwidth constant"
        )

    def __reduce__(self):
        # rebuilt from its arguments, so it crosses a process boundary
        return type(self), (self.columns, self.h, self.where)


def _as_matrix(a):
    a = np.asarray(a, dtype=float)
    return a.reshape(-1, 1) if a.ndim == 1 else a


@dataclass(frozen=True)
class ObservationSample:
    """One estimation sample: outcomes, covariates and manipulated covariates.

    Attributes
    ----------
    y1, y2 : array, shape (n,)
        The two outcomes.
    x : array, shape (n, d)
        Observed covariates (a 1-D array is treated as a single column).
    xstar : array, shape (n, d)
        Covariates after the manipulation, row-aligned with ``x``.
    discrete_mask : array of bool, shape (d,)
        Coordinates flagged True are matched exactly instead of smoothed.
    """

    y1: np.ndarray
    y2: np.ndarray
    x: np.ndarray
    xstar: np.ndarray
    discrete_mask: np.ndarray = None

    def __post_init__(self):
        y1 = np.asarray(self.y1, dtype=float)
        y2 = np.asarray(self.y2, dtype=float)
        x = _as_matrix(self.x)
        xstar = _as_matrix(self.xstar)
        n = y1.shape[0]
        if y1.ndim != 1 or y2.shape != (n,):
            raise ValueError("y1 and y2 must be one-dimensional with equal length")
        if x.shape[0] != n or xstar.shape != x.shape:
            raise ValueError(
                f"row mismatch: y has {n} rows, x has {x.shape[0]}, "
                f"xstar has shape {xstar.shape}"
            )
        if n < 2:
            raise ValueError(f"need at least 2 observations, got n={n}")
        for name, block in (("y1", y1), ("y2", y2), ("x", x), ("xstar", xstar)):
            if not np.all(np.isfinite(block)):
                raise ValueError(f"non-finite values in {name}")
        mask = self.discrete_mask
        mask = np.zeros(x.shape[1], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        if mask.shape != (x.shape[1],):
            raise ValueError("discrete_mask must have one entry per covariate column")
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "y2", y2)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xstar", xstar)
        object.__setattr__(self, "discrete_mask", mask)

    @property
    def n(self):
        return self.y1.shape[0]


def support_violations(sample):
    """Indices of xstar rows outside the coordinate-wise box of the x rows.

    Rows listed here force the kernel weights to extrapolate.  This is a
    diagnostic, not an error: callers decide whether to warn or stop.
    """
    lo = sample.x.min(axis=0)
    hi = sample.x.max(axis=0)
    outside = (sample.xstar < lo) | (sample.xstar > hi)
    return np.flatnonzero(outside.any(axis=1))


# --- counterfactual weights -------------------------------------------------

def _row_keys(a):
    # one opaque byte string per row, so rows group without the cost of
    # np.unique's axis=0 path; +0.0 maps -0.0 onto 0.0 first
    a = np.ascontiguousarray(a + 0.0)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()


def _distinct_rows(a):
    """Distinct rows of a in byte-key order, the index of each row's distinct
    row, and counts: np.unique's sort pass on the row keys, without its
    flattened copy of the keys or its copy of the distinct ones."""
    keys = _row_keys(a)
    perm = keys.argsort(kind="stable")  # np.unique's order with return_index
    first = np.ones(keys.size, dtype=bool)
    s = keys[perm]
    first[1:] = s[1:] != s[:-1]  # void arrays have no not_equal with out=
    del s
    inverse = np.empty(keys.size, dtype=np.intp)
    inverse[perm] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    return a[perm[starts]], inverse, np.diff(starts, append=keys.size).astype(float)


def _cell_ids(src, tgt):
    """Exact-match cell of every source and target row over the given columns."""
    if src.shape[1] == 0:
        return np.zeros(src.shape[0], dtype=np.intp), np.zeros(tgt.shape[0], dtype=np.intp)
    _, ids, _ = _distinct_rows(np.concatenate([src, tgt]))
    src_ids, tgt_ids = ids[: src.shape[0]], ids[src.shape[0]:]
    # NaN never equals itself, so a target with a NaN in a discrete
    # coordinate has no donor
    tgt_ids[np.isnan(tgt).any(axis=1)] = -1
    return src_ids, tgt_ids


def _kernel_tables(src, tgt):
    """The kernel tables of one cell's distinct source and target rows.

    A coordinate whose (distinct source values x distinct target values)
    is at most a quarter of the (sources x targets) block gets a table,
    which leaves room for resamples keeping about 63% of each side, if
    the table also holds at most ``BLOCK`` entries, as a block does.
    """
    tables = []
    for c in range(src.shape[1]):
        # -0.0 and 0.0 share a code: the kernel reads u only through |u|
        # and u*u, so the sign of a zero difference never shows.  np.unique
        # on the float column would page in numpy's float sort, which a
        # simulation run uses nowhere else (about 0.15 MB of peak RSS)
        src_vals, src_codes, _ = _distinct_rows(src[:, c:c + 1])
        tgt_vals, tgt_codes, _ = _distinct_rows(tgt[:, c:c + 1])
        size = src_vals.size * tgt_vals.size
        small = size <= BLOCK and 4 * size <= src.shape[0] * tgt.shape[0]
        tables.append((src_vals[:, 0], tgt_vals[:, 0], src_codes, tgt_codes)
                      if small else None)
    return tuple(tables)


@dataclass(frozen=True)
class KernelPlan:
    """Distinct rows, exact-match cells and kernel tables of one (x, xstar, discrete_mask).

    Built once and evaluated under any kernel, bandwidth and row
    multiplicities by ``kernel_weights``.  Distinct rows are in byte-key
    order, cells in key order of their discrete coordinates, and the rows
    of a cell in distinct-row order.

    Attributes
    ----------
    src, tgt : array, shape (distinct rows, continuous coordinates)
        Distinct rows of ``x`` and of ``xstar``, continuous coordinates only.
    src_inv, tgt_inv : array of int, shape (rows of x,), (rows of xstar,)
        Distinct row of every row of ``x`` and of ``xstar``.
    src_counts : array, shape (distinct rows,)
        Multiplicities of the distinct rows in ``x``.
    cells : tuple of (array of int, array of int)
        Distinct source rows and distinct target rows of every exact-match
        cell that holds a target; targets with a NaN in a discrete
        coordinate form a cell of their own, without sources.
    tables : tuple of tuple
        For every cell and continuous coordinate, None where the values
        are mostly distinct (integer-coded ones are not) or the table
        would exceed ``BLOCK`` entries, else the table
        (distinct source values, the same for targets, the code of each of
        the cell's source rows, the same for its targets).
    discrete_mask : array of bool, shape (d,)
    """

    src: np.ndarray
    tgt: np.ndarray
    src_inv: np.ndarray
    tgt_inv: np.ndarray
    src_counts: np.ndarray
    cells: tuple
    tables: tuple
    discrete_mask: np.ndarray


def kernel_plan(x, xstar, discrete_mask=None):
    """The ``KernelPlan`` of covariates ``x`` and manipulated covariates ``xstar``.

    ``xstar`` needs the columns of ``x`` but not its rows: a stack of the
    manipulated covariates of several scenarios (V blocks of n rows) gives
    one plan whose distinct targets cover every scenario, and the
    multiplicities of each scenario's rows are one column of the target
    multiplicities ``kernel_weights`` takes.
    """
    X = _as_matrix(x)
    Xs = _as_matrix(xstar)
    if Xs.shape[1] != X.shape[1]:
        raise ValueError(f"x has shape {X.shape} but xstar has shape {Xs.shape}")
    d = X.shape[1]
    mask = np.zeros(d, dtype=bool) if discrete_mask is None else np.asarray(discrete_mask, dtype=bool)

    src, src_inv, src_counts = _distinct_rows(X)
    tgt, tgt_inv, _ = _distinct_rows(Xs)
    src_cell, tgt_cell = _cell_ids(src[:, mask], tgt[:, mask])

    src_order = np.argsort(src_cell, kind="stable")
    src_sorted = src_cell[src_order]
    tgt_order = np.argsort(tgt_cell, kind="stable")
    cells, tgt_starts = np.unique(tgt_cell[tgt_order], return_index=True)
    tgt_stops = np.r_[tgt_starts[1:], tgt_order.size]
    src_starts = np.searchsorted(src_sorted, cells, side="left")
    src_stops = np.searchsorted(src_sorted, cells, side="right")
    cells = tuple(
        (src_order[s0:s1], tgt_order[t0:t1])
        for t0, t1, s0, s1 in zip(tgt_starts, tgt_stops, src_starts, src_stops)
    )
    src, tgt = src[:, ~mask], tgt[:, ~mask]
    return KernelPlan(
        src=src, tgt=tgt, src_inv=src_inv, tgt_inv=tgt_inv,
        src_counts=src_counts, cells=cells,
        tables=tuple(_kernel_tables(src[si], tgt[ti]) for si, ti in cells),
        discrete_mask=mask,
    )


def kernel_weights(plan, kernel, h, src_counts, tgt_counts, block=BLOCK):
    """Kernel-ratio weights of the distinct source rows of ``plan``.

    W_i = sum_j K((X_i - X*_j)/h) / sum_l K((X_l - X*_j)/h): each target is
    normalized by its donor total, so the weights sum to the target mass.
    Source and target rows enter with the given multiplicities, one per
    distinct row; rows of multiplicity zero are left out, and their weight
    is zero.  A product-kernel entry is zero unless source and target share
    an exact-match cell, so each cell forms the product kernel over the
    continuous coordinates for blocks of its targets of positive
    multiplicity against its sources of positive multiplicity.  A block
    takes max(1, ``block`` // sources) targets, so it holds at most
    ``block`` entries unless one target column alone is larger, and every
    block is formed in two buffers that grow to the call's largest.  A
    coordinate with a table in the cell has ``kernel_1d`` evaluated once
    on the table, and each block gathers its factor C-ordered, as a direct
    evaluation is, so the weights are bitwise those of evaluating every
    entry.

    ``tgt_counts`` of shape (targets, V) holds V sets of target
    multiplicities, one per column, sharing the source multiplicities, and
    gives weights of shape (sources, V), column j those of column j of
    ``tgt_counts``.  A target's denominator depends only on its row and the
    source multiplicities, so every kernel block is formed once for all V
    columns and enters each column that holds one of its targets by one
    matrix-vector product.

    Raises
    ------
    DegenerateCovariateError
        If the bandwidth of some continuous coordinate is zero, as the
        bandwidth rule makes it at a covariate without variation.
    ValueError
        If the bandwidth of some continuous coordinate is not positive and
        finite.
    BandwidthTooSmallError
        If some target of positive multiplicity (in any column) has a zero
        donor total; its ``columns`` are the rows of ``xstar`` whose
        distinct row it is.
    """
    hvec = np.asarray(h, dtype=float)
    hcont = (hvec[~plan.discrete_mask] if hvec.ndim
             else hvec.repeat(plan.src.shape[1])).tolist()
    # written so that a NaN bandwidth (h=None reads as NaN) fails as well
    if not all(0.0 < hc < math.inf for hc in hcont):
        message = "bandwidth must be positive and finite for continuous coordinates"
        if 0.0 in hcont:
            # the bandwidth rule gives zero exactly at a constant covariate
            raise DegenerateCovariateError(
                f"{message}, got h={h}: a smoothed covariate is constant "
                "(degenerate covariate)")
        raise ValueError(message)

    # one row of weights per column of tgt_counts, transposed on return
    w = np.zeros((tgt_counts.shape[1], plan.src.shape[0]))
    src_in_any = src_counts > 0
    tgt_in_any = (tgt_counts > 0).any(axis=1)
    bad = None
    # blocks are C-ordered prefixes of ``first``, later factors of ``second``:
    # a fresh block per evaluation pays a page fault per 4 KB of it
    first = second = np.empty(0)
    for (cell_src, cell_tgt), tables in zip(plan.cells, plan.tables):
        src_in, tgt_in = src_in_any[cell_src], tgt_in_any[cell_tgt]
        si, present = cell_src[src_in], cell_tgt[tgt_in]
        if present.size == 0:
            continue
        step = max(1, block // max(si.size, 1))
        need = si.size * min(step, present.size)
        if need > first.size:
            # the old pair, and the block views into it, go before the new
            # pair comes
            first = second = kmat = kc = None
            first = np.empty(need)
            second = np.empty(need if len(tables) > 1 else 0)
        xs, src_w = plan.src[si], src_counts[si]
        gathers = [
            None if t is None else (
                kernel_1d(kernel, (t[0][:, None] - t[1][None, :]) / hcont[c]),
                t[2][src_in], t[3][tgt_in],
            )
            for c, t in enumerate(tables)
        ]
        for start in range(0, present.size, step):
            ti = present[start:start + step]
            # the product starts at its first factor, in kmat itself
            kmat = first[:si.size * ti.size].reshape(si.size, ti.size)
            for c, gather in enumerate(gathers):
                kc = second[:kmat.size].reshape(kmat.shape) if c else kmat
                if gather is None:
                    np.subtract.outer(xs[:, c], plan.tgt[ti, c], out=kc)
                    kc /= hcont[c]
                    kernel_1d(kernel, kc, out=kc)
                else:
                    # the block's columns of the table, then its rows; the
                    # default mode="raise" would buffer ``out``
                    tab, src_codes, tgt_codes = gather
                    np.take(tab[:, tgt_codes[start:start + step]], src_codes,
                            axis=0, out=kc, mode="clip")
                if c:
                    kmat *= kc
            if not gathers:
                kmat.fill(1.0)
            denom = src_w @ kmat
            if not denom.all():
                # the call fails, so the weights of this block are not needed
                if bad is None:
                    bad = np.zeros(plan.tgt.shape[0], dtype=bool)
                bad[ti[denom == 0.0]] = True
                continue
            counts = tgt_counts[ti]
            # a matrix-vector product per column the block enters: one
            # matrix product over all columns raises peak memory by the
            # buffers of the BLAS threads it wakes
            for j in counts.any(axis=0).nonzero()[0]:
                w[j, si] += kmat @ (counts[:, j] / denom)
    if bad is not None:
        raise BandwidthTooSmallError(np.flatnonzero(bad[plan.tgt_inv]).tolist(), h)
    return w.T


# --- rank machinery shared by all grid estimators ----------------------------

@dataclass(frozen=True)
class MarginRanks:
    """Precomputed sort data for one outcome column.

    Lets weighted pseudo-observations be recomputed for many weight vectors
    (bootstrap multipliers) without re-sorting.
    """

    order: np.ndarray
    pos: np.ndarray
    n: int

    def pseudo_obs(self, v):
        """u_i = (1/n) sum_j v_j 1{y_j <= y_i} for each weight vector (row) of v."""
        # take on the last axis: v[:, order] is several times slower on rows
        cw = v.take(self.order, axis=-1)
        cw.cumsum(axis=-1, out=cw)
        return cw.take(self.pos, axis=-1) / self.n


def margin_ranks(y):
    y = np.asarray(y, dtype=float)
    order = np.argsort(y, kind="stable")
    sy = y[order]
    pos = np.searchsorted(sy, y, side="right") - 1
    return MarginRanks(order=order, pos=pos, n=y.shape[0])


def _atom_indices(u, m):
    """Index of the first grid node k/m >= u_i, comparing floats exactly.

    The nodes are the doubles k/m, bitwise the values of
    ``np.arange(m + 1) / m``, so the answer is what a binary search over
    them returns, without the search.  ceil(u*m) is within one of it:
    u*m and every k/m are correctly rounded, each off by at most half an
    ulp, which is far below 1 for |u*m| < 2**52 (beyond that u is outside
    [0, 1] and the clip decides).  So one correction step each way
    suffices: step up if the node k/m is below u, then step down if the
    node (k-1)/m already reaches u.  At most one of the two fires.

    Index m+1 marks atoms genuinely above 1; float dust within 1e-9 of 1
    is clamped back to node m.
    """
    k = np.ceil(u * m)
    k += k / m < u
    k -= (k - 1.0) / m >= u
    # here u in (1, 1 + 1e-9] has k = m+1, the first node above 1
    k -= (k > m) & (u <= 1.0 + _EPS)
    return np.minimum(np.maximum(k, 0), m + 1).astype(np.intp)


def rank_atoms(ranks1, ranks2, v, m):
    """Atom indices (a, b) of the rank pseudo-observations under each row of
    multipliers ``v``, two arrays shaped like ``v``, from one pass over both
    margins and every row, for the point estimate and every replicate.

    Index m+1 marks an atom above 1 + 1e-9 (possible only under negative
    weights).  ``association.measures_from_atoms`` takes the indices, and
    ``_histogram`` a row's histogram.
    """
    atoms = _atom_indices(np.concatenate(
        (ranks1.pseudo_obs(v), ranks2.pseudo_obs(v)), axis=None), m)
    return atoms.reshape((2,) + np.shape(v))


def _histogram(a, b, v, m):
    """The (m+2) x (m+2) histogram of one row's atoms: entry [a, b] the
    weight v_i of the atoms with indices (a_i, b_i).

    Its prefix sum over indices 0..m is n times the copula grid
    (``_atom_grid``), and it gives the four measures directly
    (``association.measures_from_cell_pair``).  ``bincount`` adds each
    cell's weights in input order, as an unbuffered scatter-add would, so
    the cells are the same doubles.
    """
    return np.bincount(a * (m + 2) + b, weights=v,
                       minlength=(m + 2) ** 2).reshape(m + 2, m + 2)


def _atom_grid(cells, m, n):
    """Copula grid values of an atom histogram of total mass n.

    Atoms above the grid fall off: only indices 0..m enter the prefix sum.
    """
    return cells[: m + 1, : m + 1].cumsum(axis=0).cumsum(axis=1) / n


@dataclass(frozen=True)
class CopulaGrid:
    """Copula values on the uniform grid {(i/m, j/m)}."""

    m: int
    values: np.ndarray


# --- grid estimators ---------------------------------------------------------

def rank_grids(ranks1, ranks2, v, m):
    """The ``CopulaGrid`` of each row of multipliers ``v``, from one
    ``rank_atoms`` pass over all rows.  A row of total mass exactly n
    gives a copula at (1, 1)."""
    a, b = rank_atoms(ranks1, ranks2, v, m)
    return [CopulaGrid(m=m, values=_atom_grid(_histogram(*row, m), m, ranks1.n))
            for row in zip(a, b, v)]


def empirical_copula(sample, m=100):
    """Empirical copula of (y1, y2) on the m-grid.

    C(u1, u2) = (1/n) sum_i 1{F1(y1_i) <= u1, F2(y2_i) <= u2} with empirical
    marginal CDFs evaluated at the data points (rank pseudo-observations).
    """
    ranks = margin_ranks(sample.y1), margin_ranks(sample.y2)
    return rank_grids(*ranks, np.ones((1, sample.n)), m)[0]
