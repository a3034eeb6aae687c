"""Closed-form best L2 approximation by sums of r ridge functions.

The directions a^1..a^r are completed to a basis of R^n; in the image
coordinates y_i = a^i . x the admissible domains are boxes ("r-sets")
Y = Y_1 x ... x Y_r x Y_0, and the best approximant has an explicit
formula in terms of slice averages of the pulled-back function.
"""

from __future__ import annotations

import numpy as np

from .core import (RidgeSum, ScalarField, UnivariateTable, gauss_grid,
                   gauss_nodes, parse_vector, row_reduce)


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
        # reducing [J | I] leaves [I | J^{-1}] and yields det J on the way
        reduced, _, self.detJ = row_reduce(
            [list(row) + [int(i == j) for j in range(n)]
             for i, row in enumerate(rows)], n)
        if self.detJ == 0:
            raise NotAnRSet("directions plus completion are dependent")
        self.Jinv = [row[n:] for row in reduced]  # columns b^i as rows here
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
    """Integrals of fn and fn^2 over the box (tensor Gauss-Legendre), from
    one evaluation of fn."""
    mesh, wgrid = gauss_grid(box, nodes)
    vals = np.asarray(fn(*mesh), dtype=float)
    return float(np.sum(vals * wgrid)), float(np.sum(vals**2 * wgrid))


def best_l2(f, t, weights=None, nodes=24):
    """Best L2 ridge-sum approximant over the transform's directions.

    Components are tables at 129 knots of Y_j, from Gauss slice averages
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
    fstar = t.pullback(f)
    r = t.r
    total_vol, omit_vols = t.volumes()
    table_n = 129
    knot_sets = [np.linspace(*t.ybox[j], table_n) for j in range(r)]
    grids = [_slice_grid(t, j, knot_sets[j], nodes) for j in range(r)]

    A, norm_sq = _integrals(fstar, t.ybox, nodes)

    if weights is None:
        slice_avgs = [_average(fstar(*g[0]), g) for g in grids]
        comps = []
        for j in range(r):
            vals = slice_avgs[j].copy()
            if j == 0:
                vals -= (r - 1) * A / total_vol
            comps.append(UnivariateTable(knot_sets[j], vals))
        err, fi_norm_sq = _closed_form_error(fstar, t, nodes, A, norm_sq)
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
    mat = np.zeros((r, table_n, r, table_n))
    rhs = np.zeros((r, table_n))
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
    sol, _, rank, _ = np.linalg.lstsq(mat.reshape(r * table_n, -1),
                                      rhs.ravel(), rcond=None)
    comps = sol.reshape(r, table_n)
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
    fstar = t.pullback(f)
    return _closed_form_error(fstar, t, nodes,
                              *_integrals(fstar, t.ybox, nodes))[0]


def _closed_form_error(fstar, t, nodes, A, norm_sq):
    """(l2_error, fi_norm_sq) from the pullback f* and its integrals A and
    ||f*||^2, with fbar_j at the Gauss nodes y_k of Y_j and fi_norm_sq[j]
    = ||fbar_j||^2 over Y = |Y^(j)| sum_k fbar_j(y_k)^2 w_k."""
    total_vol, omit_vols = t.volumes()
    radicand = norm_sq + (t.r - 1) * A**2 / total_vol
    fi_norm_sq = []
    for j in range(t.r):
        yj, wj = gauss_nodes(*t.ybox[j], nodes)
        grid = _slice_grid(t, j, yj, nodes)
        fbar = _average(fstar(*grid[0]), grid) * omit_vols[j]
        fbar_sq = float(np.sum(fbar**2 * wj))
        radicand -= fbar_sq / omit_vols[j]
        fi_norm_sq.append(omit_vols[j] * fbar_sq)
    if radicand < -1e-12:
        raise ArithmeticError(
            f"negative radicand {radicand:.3e}: quadrature failure")
    return (max(radicand, 0.0) / abs(float(t.detJ))) ** 0.5, fi_norm_sq
