"""Association measures of copula grids, atom histograms and atoms.

Four measures are supported: Spearman's rho, Kendall's tau, Gini's gamma and
Blomqvist's beta.  Gaussian-copula closed forms serve as the truth values of
the simulation study.

On grids, rho and gamma are integrals of the copula itself (a bilinear cell
rule and diagonal trapezoids), tau is a Stieltjes sum against the grid's
cell masses, and beta is a node read.  There are two ways to the same
functionals from the atoms that ``copula.rank_atoms`` places.  The
estimate picks one (``bootstrap._finish``), and the point and every
replicate take it in one step (``bootstrap._pair_measures``):

* ``measures_from_cell_pair`` evaluates them from the actual and
  counterfactual atom histograms of the point estimate or of a bootstrap
  replicate, without forming either grid; the two share one complex
  prefix sum per axis.  Its cost is O(m^2) a copula.
* ``measures_from_atoms`` evaluates them from the atoms themselves when
  every weight is nonnegative: rho, gamma and beta are sums over the atoms
  of per-node constants, and tau is the Kendall S form of the sample's
  ranks, v'Cv with the ``sign_matrix`` C, corrected for the atoms that
  share a grid line.  Its cost is O(n^2) a copula, and it agrees with the
  histogram within 1e-13.

The value-based forms
matter for weighted estimates: a weighted sample's pseudo-observation
margins are only approximately uniform, and position-weighted mass sums for
rho and gamma pick up a bias of order sum(w^2)/n^2 that the value
integrals do not.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

class GridResolutionError(ValueError):
    """The grid resolution does not support the requested functional."""


@lru_cache(maxsize=8)
def _table(m):
    """The per-m constants of ``_measures``: the trapezoid node weights t
    (1/2 at both ends, 1 elsewhere) and the flat indices of the diagonal
    [i, i] and the antidiagonal [i, m - i] of an (m+1) x (m+1) array."""
    if m % 2 != 0:
        raise GridResolutionError(
            f"Blomqvist's beta needs (0.5, 0.5) on the grid; m={m} is odd"
        )
    t = np.ones(m + 1)
    t[0] = t[m] = 0.5
    idx = np.arange(m + 1)
    table = t, idx * (m + 2), (idx + 1) * m
    for a in table:  # shared by every caller
        a.flags.writeable = False
    return table


def _measures(V, masses, m, n):
    """(rho, tau, gamma, beta) from the node values n * C(a/m, b/m) and cell
    masses, as floats.

    ``V`` is (m+1) x (m+1); ``masses`` is m x m, entry [a-1, b-1] the
    n-scaled C-mass of the cell [(a-1)/m, a/m] x [(b-1)/m, b/m].
    """
    t, diagonal, antidiagonal = _table(m)
    # each cell's mass against the sum of C at its four corners (four times
    # its trapezoid value); einsum reads the column-shifted views of the
    # row-pair sums without copying them
    rows = V[1:] + V[:-1]
    tau = (np.einsum("ij,ij->", masses, rows[:, :-1])
           + np.einsum("ij,ij->", masses, rows[:, 1:]))
    return (
        float(12.0 * (t @ (V @ t)) / (n * m * m) - 3.0),
        float(tau / (n * n) - 1.0),
        float(4.0 * (t @ V.take(diagonal) + t @ V.take(antidiagonal)) / (n * m) - 2.0),
        float(4.0 * V[m // 2, m // 2] / n - 1.0),
    )


@lru_cache(maxsize=8)
def _atom_table(m):
    """S[k] = sum_{j >= k} t_j and P[k] = sum_{j < k} t_j for k = 0..m+1,
    with t the trapezoid node weights; half-integers, so exact."""
    t = _table(m)[0]
    S, P = np.zeros(m + 2), np.zeros(m + 2)
    S[: m + 1] = np.cumsum(t[::-1])[::-1]
    P[1:] = np.cumsum(t)
    S.flags.writeable = P.flags.writeable = False
    return S, P


def sign_matrix(pos1, pos2):
    """C[i, j] = sgn(p_i - p_j) sgn(q_i - q_j) of the margin ranks' positions.

    Each margin's signs are int8, from two comparisons; their product is
    formed in int8 and cast once to float64, so at n = 200 the call peaks
    at about 400 KB, where signs of int64 differences would take 960 KB.
    """
    def sign(p):
        col = p[:, None]
        return (col > p).view(np.int8) - (col < p).view(np.int8)

    signs = sign(pos1)
    signs *= sign(pos2)
    signs = signs.astype(float)
    signs.flags.writeable = False  # shared by the values of a sweep
    return signs


def _run_pairs(keys):
    """The pairs i < j of positions of ``keys`` that lie in one run of
    equal keys, by i then j, enumerated with ``repeat`` and no loop over
    the runs."""
    N = keys.size
    last = np.empty(N, dtype=bool)
    last[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    ends = last.nonzero()[0]
    lengths = ends.copy()
    lengths[1:] -= ends[:-1]
    lengths[0] += 1
    # position t pairs with t+1..end of its run, and its pairs start at
    # before[t] in the list
    t = np.arange(N)
    after = np.repeat(ends, lengths)
    after -= t
    before = np.cumsum(after)
    pairs = before[-1]
    before -= after
    i = np.repeat(t, after)
    t += 1
    t -= before
    j = np.repeat(t, after)
    j += np.arange(pairs)
    return i, j


def _line_sums(v, a, b, signs, orders, m):
    """L_a + L_b - L_ab of each row of ``v``: the sum of v_i v_j C_ij over
    the ordered pairs i != j of atoms that share a grid row or a column.

    In rank order of y1 a row's atom indices a are non-decreasing, so the
    atoms of one grid row are one run; so are those of one column in rank
    order of y2.  Each margin takes every row in its rank order, drops the
    atoms of weight zero and gives every (row, line) its own key; each
    pair i < j of a run is counted twice (C is symmetric).  A pair of the
    first margin that also shares its column is left out there, so L_ab
    is subtracted once.  A ``bincount`` per margin adds each row's pairs
    in their order, so a row's sum depends on that row alone.
    """
    K, n = v.shape
    offsets = (m + 2) * np.arange(K)[:, None]
    lines = np.zeros(K)
    for keys, order, other in ((a, orders[0], b), (b, orders[1], None)):
        vs = v.take(order, axis=1)
        kept = np.flatnonzero(vs)
        vs = vs.take(kept)
        line = keys.take(order, axis=1)
        line += offsets
        i, j = _run_pairs(line.take(kept))
        at = order.take(kept % n)
        w = vs.take(i) * vs.take(j)
        w *= signs.take(at.take(i) * n + at.take(j))
        if other is not None:
            cross = other.take(order, axis=1).take(kept)
            w *= cross.take(i) != cross.take(j)
        lines += np.bincount(kept.take(i) // n, weights=w, minlength=K)
    return 2.0 * lines


def measures_from_atoms(v, a, b, signs, orders, m):
    """(rho, tau, gamma, beta) of the copula of each row of ``v``, shape
    (rows, 4), from its atoms, without a histogram.

    Row r places weight v[r, i] >= 0 on the atom (a[r, i], b[r, i]), the
    grid indices of observation i's rank pseudo-observations, with total
    mass about n.  ``signs`` is the ``sign_matrix`` C of the margin ranks
    and ``orders`` their ``order`` arrays.  Under nonnegative weights an
    atom's index is non-decreasing in its rank, and every atom of
    positive weight lies in 1..m, so the functionals of the histogram
    (``measures_from_cell_pair``) are sums over the atoms.  With t the
    trapezoid node weights, S[k] = sum_{j >= k} t_j and P[k] =
    sum_{j < k} t_j:

    * rho = 12 sum v S[a] S[b] / (n m^2) - 3;
    * gamma = 4 sum v (S[max(a, b)] + [a <= m - b] (P[m - b + 1] - P[a]))
      / (n m) - 2;
    * beta = 4 sum v [a <= m/2] [b <= m/2] / n - 1;
    * tau = ((sum v)^2 + v'Cv - L_a - L_b + L_ab) / n^2 - 1, Kendall's S
      of the ranks (Knight 1966) corrected for the atoms that share a grid
      line: L_a, L_b and L_ab sum v_i v_j C_ij over the pairs i != j
      sharing a row, a column, or both (``_line_sums``).

    Every row's values depend on that row alone: each sum runs along its
    row, v'Cv is one matrix-vector product per row, and the line sums
    add each row's pairs in a fixed order.  The values are within 1e-13
    of the histogram measures.  The cost is O(n^2) a row against the
    histogram's O(m^2), which pays for n <= 2m.
    """
    K, n = v.shape
    S, P = _atom_table(m)
    mass = v.sum(axis=1)
    f = S.take(a)
    f *= S.take(b)
    f *= v
    rho = f.sum(axis=1)
    f = P.take(m + 1 - b)
    f -= P.take(a)
    f *= a <= m - b
    f += S.take(np.maximum(a, b))
    f *= v
    gamma = f.sum(axis=1)
    f = ((a <= m // 2) & (b <= m // 2)) * v
    beta = f.sum(axis=1)
    del f
    # a matrix-vector product per row: a (2, n) @ C matrix product would
    # page in OpenBLAS's packing buffer, about 256 KB of resident memory
    quad = np.array([row @ (signs @ row) for row in v])
    tau = (mass * mass + quad - _line_sums(v, a, b, signs, orders, m)) / (n * n) - 1.0
    return np.stack((12.0 * rho / (n * m * m) - 3.0, tau,
                     4.0 * gamma / (n * m) - 2.0, 4.0 * beta / n - 1.0), axis=1)


def measures_from_cell_pair(actual, counterfactual, m, n, work):
    """(rho, tau, gamma, beta) of the copulas of two atom histograms, as
    eight floats: the actual side's four, then the counterfactual's.

    Each ``cells`` is the (m+2) x (m+2) histogram of a weighted rank sample
    with total mass n: entry [a, b] holds the weight of the atoms in the
    cell ((a-1)/m, a/m] x ((b-1)/m, b/m], index 0 holding atoms at or below
    0 and index m+1 atoms above 1.  Its prefix sum V over [:m+1, :m+1] is
    n times the copula grid, so with t the trapezoid node weights (1/2 at
    both ends, 1 elsewhere):

    * rho = 12 t'Vt / (n m^2) - 3, the bilinear cell rule;
    * tau = sum_{a,b=1..m} cells[a, b] (V[a-1, b-1] + V[a, b-1] + V[a-1, b]
      + V[a, b]) / n^2 - 1, C averaged over the corners of each cell against
      the cell's own mass; atoms at index 0 or m+1 carry no cell mass;
    * gamma integrates both diagonals of V by the trapezoid rule;
    * beta reads V[m/2, m/2].

    These are the functionals of the grid V/n without forming, normalising
    or differencing it.  The two histograms share their prefix sums: they
    fill the two lanes of one complex128 array, whose cumsum along each
    axis adds both lanes in one pass.  A complex addition is two IEEE
    additions, so each lane gets the sums of a real cumsum, bitwise.
    ``work`` is a dict the caller keeps across calls; it holds one set of
    buffers per m, so a run of calls allocates them once.
    """
    _table(m)  # the odd-m check, before any buffer is made
    buffers = work.get(m)
    if buffers is None:
        buffers = work[m] = np.empty((m + 1, m + 1, 2)), np.empty((m + 1, m + 1))
    lanes, V = buffers
    lanes[..., 0] = actual[: m + 1, : m + 1]
    lanes[..., 1] = counterfactual[: m + 1, : m + 1]
    prefix = lanes.view(np.complex128)[..., 0]
    np.cumsum(prefix, axis=0, out=prefix)
    np.cumsum(prefix, axis=1, out=prefix)
    # each side's measures read a C-contiguous copy of its lane, as they
    # read a real cumsum's output
    np.copyto(V, lanes[..., 0])
    values = _measures(V, actual[1 : m + 1, 1 : m + 1], m, n)
    np.copyto(V, lanes[..., 1])
    return values + _measures(V, counterfactual[1 : m + 1, 1 : m + 1], m, n)


MEASURES = ("rho", "tau", "gamma", "beta")


def gaussian_measure(r, which):
    """Closed-form population measure of the Gaussian copula with correlation r.

    tau and beta share (2/pi) arcsin(r); rho is (6/pi) arcsin(r/2); gamma is
    (2/pi) (arcsin((1+r)/2) - arcsin((1-r)/2)).
    """
    if abs(r) > 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {r}")
    if which in ("tau", "beta"):
        return float(2.0 / np.pi * np.arcsin(r))
    if which == "rho":
        return float(6.0 / np.pi * np.arcsin(r / 2.0))
    if which == "gamma":
        return float(
            2.0 / np.pi * (np.arcsin((1.0 + r) / 2.0) - np.arcsin((1.0 - r) / 2.0))
        )
    raise ValueError(f"unknown measure {which!r}; expected one of {MEASURES}")
