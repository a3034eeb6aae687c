"""Closed-form best L2 approximation by sums of r ridge functions.

The directions a^1..a^r are completed to a basis of R^n; in the image
coordinates y_i = a^i . x the admissible domains are boxes ("r-sets")
Y = Y_1 x ... x Y_r x Y_0, and the best approximant has an explicit
formula in terms of slice averages of the pulled-back function.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .core import (RidgeSum, ScalarField, UnivariateTable,
                   _integer_coordinates, bareiss, gauss_grid, gauss_nodes,
                   parse_vector)


TABLE_N = 129               # knots of each component's table
MAX_GRID_POINTS = 2_000_000  # of a Gauss rule's matrix or of a Gauss grid


class NotAnRSet(ValueError):
    pass


class RSetTransform:
    """Change of variables y = J x with J rows the directions + completion.

    ``ybox`` is the image box Y as a list of (lo, hi) per y-coordinate;
    the first r coordinates are the ridge variables.
    """

    def __init__(self, directions, completion, ybox):
        dirs = [parse_vector(d) for d in directions]
        comp = [parse_vector(d) for d in completion]
        self.r = len(dirs)
        self.n = len(dirs[0])
        rows = dirs + comp
        if any(len(v) != self.n for v in rows) or len(rows) != self.n:
            raise NotAnRSet(
                "directions plus completion must form an n x n system")
        self.J = rows
        n = self.n
        # [J | I] over one denominator den reduces to last * [I | J^{-1}]
        ints, den = _integer_coordinates(
            [list(row) + [int(i == j) for j in range(n)]
             for i, row in enumerate(rows)])
        mat, _, last, det = bareiss(ints, n)
        self.detJ = Fraction(det, den**n)
        if det == 0:
            raise NotAnRSet("directions plus completion are dependent")
        self.Jinv = [[Fraction(v, last) for v in row[n:]]  # b^i as rows
                     for row in mat]
        self._Jinv = np.array([[float(v) for v in row] for row in self.Jinv])
        ybox = [(float(lo), float(hi)) for lo, hi in ybox]
        if len(ybox) != self.n or any(lo >= hi for lo, hi in ybox):
            raise NotAnRSet("image must be a nondegenerate box Y_1 x ... x Y_n")
        self.ybox = ybox

    def x_from_y(self, *ys):
        """x = J^{-1} y, vectorized over numpy arrays."""
        ys = [np.asarray(y, dtype=float) for y in ys]
        return [sum(self._Jinv[i][k] * ys[k] for k in range(self.n))
                for i in range(self.n)]

    def pullback(self, f):
        """f*(y) = f(x(y)) on the box Y."""
        return ScalarField(self.n, lambda *ys: f(*self.x_from_y(*ys)))

    def volumes(self):
        """(|Y|, [|Y^(j)|]_j) with Y^(j) the box omitting coordinate j."""
        widths = [hi - lo for lo, hi in self.ybox]
        total = float(np.prod(widths))
        omit = [total / w for w in widths[: self.r]]
        return total, omit


def build_rset(directions, completion, ybox):
    """Validated transform for the given directions, completion, image box."""
    return RSetTransform(directions, completion, ybox)


class L2Solution(RidgeSum):
    """Components g_j(y_j), the L2 error, and the integral diagnostics.

    The approximant is sum_j g_j(a_j . x), or sum_j w_j(x) g_j(a_j . x)
    with the weights w_j of a weighted fit; a_j is row j of ``transform.J``.
    """

    def __init__(self, components, error, diagnostics, transform,
                 weights=None):
        super().__init__(zip(transform.J[:transform.r], components),
                         weights=weights)
        self.components = components  # list of UnivariateTable in y_j
        self.error = float(error)
        self.diagnostics = diagnostics
        self.transform = transform


def _check_nodes(t, nodes):
    """Refuse a node count below 1, and, before anything is allocated, one
    whose Gauss rule (an eigenproblem of a nodes x nodes matrix) or
    largest grid (the slice grids at every knot, TABLE_N nodes^(n-1)
    points, or the tensor grid, nodes^n) would hold more than
    MAX_GRID_POINTS values.  The default of 24 nodes passes up to n = 4."""
    if nodes < 1:
        raise ValueError(f"the Gauss rule needs at least 1 node, got {nodes}")
    points = max(nodes * nodes, TABLE_N * nodes ** (t.n - 1), nodes ** t.n)
    if points > MAX_GRID_POINTS:
        raise ValueError(f"{nodes} Gauss nodes per axis in {t.n}-D would "
                         f"make {points} points, more than the maximum of "
                         f"{MAX_GRID_POINTS}")


def _slice_grid(t, j, yj_values, nodes):
    """The Gauss points of Y^(j) at every y_j at once: the y-coordinates,
    broadcast to shape ``(len(yj_values),) + mesh``, the weight grid and
    |Y^(j)|."""
    box = t.ybox[:j] + t.ybox[j + 1:]
    mesh, wgrid = gauss_grid(box, nodes)
    yj = np.reshape(yj_values, (-1,) + (1,) * wgrid.ndim)
    ys = np.broadcast_arrays(*[m[None] for m in mesh[:j]], yj,
                             *[m[None] for m in mesh[j:]])
    return ys, wgrid, float(np.prod([hi - lo for lo, hi in box]))


def _average(vals, grid):
    """Averages over Y^(j), one per y_j, of values on a slice grid."""
    ys, wgrid, vol = grid
    vals = np.broadcast_to(np.asarray(vals, dtype=float), ys[0].shape)
    return np.sum((vals * wgrid).reshape(len(vals), -1), axis=1) / vol


def _integrals(fn, box, nodes):
    """Integrals of fn and fn^2 over the box (tensor Gauss-Legendre), and
    the values of fn on the tensor grid they come from."""
    mesh, wgrid = gauss_grid(box, nodes)
    vals = np.asarray(fn(*mesh), dtype=float)
    return (float(np.sum(vals * wgrid)), float(np.sum(vals**2 * wgrid)),
            vals)


def best_l2(f, t, weights=None, nodes=24):
    """Best L2 ridge-sum approximant over the transform's directions.

    Components are tables at TABLE_N knots of Y_j, from Gauss slice averages
    over Y^(j) (``nodes`` per axis).  Unweighted: direct slice-average
    formulas (the first component absorbs the mean correction).  Weighted,
    one weight per direction: one least-squares solve of the orthogonality
    identities at every knot y_k of every Y_j,

        avg_k(w_j*^2) g_j(y_k) + sum_{i != j} avg_k(w_j* w_i* g_i(y_i))
            = avg_k(f* w_j*),

    with avg_k the average over Y^(j) at y_j = y_k and g_i interpolated
    linearly between knots.  Where a weight vanishes on a slice the system
    is singular and the minimum-norm solution is taken; its numerical rank
    is ``diagnostics["rank"]``.
    """
    _check_nodes(t, nodes)
    fstar = t.pullback(f)
    r = t.r
    total_vol, omit_vols = t.volumes()
    knot_sets = [np.linspace(*t.ybox[j], TABLE_N) for j in range(r)]
    grids = [_slice_grid(t, j, knot_sets[j], nodes) for j in range(r)]

    A, norm_sq, fvals = _integrals(fstar, t.ybox, nodes)

    if weights is None:
        slice_avgs = [_average(fstar(*g[0]), g) for g in grids]
        comps = []
        for j in range(r):
            vals = slice_avgs[j].copy()
            if j == 0:
                vals -= (r - 1) * A / total_vol
            comps.append(UnivariateTable(knot_sets[j], vals))
        err, fi_norm_sq = _closed_form_error(t, nodes, A, norm_sq, fvals)
        diagnostics = {
            "A": A,
            "detJ": float(t.detJ),
            "slice_averages": slice_avgs,
            "fstar_norm_sq": norm_sq,
            "fi_norm_sq": fi_norm_sq,
        }
        return L2Solution(comps, err, diagnostics, t)

    if len(weights) != r:
        raise ValueError(f"need one weight per direction: {r}, not "
                         f"{len(weights)}")
    wstars = [t.pullback(w) for w in weights]
    mat = np.zeros((r, TABLE_N, r, TABLE_N))
    rhs = np.zeros((r, TABLE_N))
    for j, grid in enumerate(grids):
        ys, wgrid, vol = grid
        wv = [np.broadcast_to(w(*ys), ys[0].shape) for w in wstars]
        rhs[j] = _average(fstar(*ys) * wv[j], grid)
        mat[j, :, j] = np.diag(_average(wv[j] ** 2, grid))
        for i in set(range(r)) - {j}:
            # each grid point's two hat weights in y_i, on knots m and m + 1
            kn = knot_sets[i]
            m = np.searchsorted(kn[1:-1], ys[i], "right")
            theta = (ys[i] - kn[m]) / (kn[m + 1] - kn[m])
            c = wv[j] * wv[i] * wgrid / vol
            k = np.indices(m.shape)[0]
            np.add.at(mat[j, :, i], (k, m), c * (1 - theta))
            np.add.at(mat[j, :, i], (k, m + 1), c * theta)
    sol, _, rank, _ = np.linalg.lstsq(mat.reshape(r * TABLE_N, -1),
                                      rhs.ravel(), rcond=None)
    comps = sol.reshape(r, TABLE_N)
    tabs = [UnivariateTable(knot_sets[j], comps[j]) for j in range(r)]
    diagnostics = {"A": A, "detJ": float(t.detJ), "rank": int(rank)}
    best = L2Solution(tabs, 0.0, diagnostics, t, weights)
    # residual norm back in x-coordinates via the y-box and Jacobian
    err_sq = _integrals(t.pullback(lambda *xs: f(*xs) - best(*xs)), t.ybox,
                        nodes)[1] / abs(float(t.detJ))
    best.error = max(err_sq, 0.0) ** 0.5
    return best


def l2_error(f, t, nodes=24):
    """Closed-form L2 distance from f to the ridge-sum space.

    E^2 * |detJ| = ||f*||^2 - sum_j ||fbar_j||^2 / |Y^(j)|^2 + (r-1) A^2 / |Y|
    where fbar_j(y_j) = integral of f* over Y^(j) and the middle norms are
    over all of Y.
    """
    _check_nodes(t, nodes)
    return _closed_form_error(t, nodes,
                              *_integrals(t.pullback(f), t.ybox, nodes))[0]


def _closed_form_error(t, nodes, A, norm_sq, vals):
    """(l2_error, fi_norm_sq) from the integrals A and ||f*||^2 of the
    pullback f* and its values on their tensor Gauss grid, with fbar_j at
    the Gauss nodes y_k of Y_j, read off that grid, and fi_norm_sq[j] =
    ||fbar_j||^2 over Y = |Y^(j)| sum_k fbar_j(y_k)^2 w_k."""
    total_vol, omit_vols = t.volumes()
    radicand = norm_sq + (t.r - 1) * A**2 / total_vol
    vals = np.broadcast_to(vals, (nodes,) * t.n)
    fi_norm_sq = []
    for j in range(t.r):
        yj, wj = gauss_nodes(*t.ybox[j], nodes)
        grid = _slice_grid(t, j, yj, nodes)
        # axis j of the tensor grid is y_j, and the others are the slice
        # grid's axes in order
        fbar = _average(np.ascontiguousarray(np.moveaxis(vals, j, 0)),
                        grid) * omit_vols[j]
        fbar_sq = float(np.sum(fbar**2 * wj))
        radicand -= fbar_sq / omit_vols[j]
        fi_norm_sq.append(omit_vols[j] * fbar_sq)
    if radicand < -1e-12:
        raise ArithmeticError(
            f"negative radicand {radicand:.3e}: quadrature failure")
    return (max(radicand, 0.0) / abs(float(t.detJ))) ** 0.5, fi_norm_sq
