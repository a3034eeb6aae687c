"""Constructive decomposition of a smooth bivariate function into ridge terms.

If f(x,y) = sum_{i=1}^n g_i(a_i x + b_i y) with pairwise independent
directions and f is C^s with s >= n-2, smooth generators g_i can be built
explicitly: change coordinates so the last two directions become e1, e2,
then peel the terms off with a chain of directional derivatives (order
n-2) and anchored antiderivatives.  This module realizes that chain
numerically (4th-order central differences + cubic-spline quadrature).
"""

from __future__ import annotations

import numpy as np

from .core import UnivariateTable

GRID_M = 401    # spline knots on the master interval [-T, T]
VERIFY_N = 41   # nodes per axis of the grid the residual is measured on


class DecompProblem:
    def __init__(self, f, directions, box, order=None):
        self.f = f
        dirs = [(float(a), float(b)) for a, b in directions]
        if len(dirs) < 2:
            raise ValueError("need at least two directions")
        if len(dirs) > 6:
            raise ValueError("n is capped at 6")
        for i in range(len(dirs)):
            if dirs[i] == (0.0, 0.0):
                raise ValueError("zero direction")
            for j in range(i + 1, len(dirs)):
                if dirs[i][0] * dirs[j][1] - dirs[i][1] * dirs[j][0] == 0:
                    raise ValueError(f"directions {i} and {j} are parallel")
        self.directions = dirs
        self.n = len(dirs)
        (x0, x1), (y0, y1) = box
        if not (x0 < x1 and y0 < y1):
            raise ValueError("degenerate box")
        self.box = ((float(x0), float(x1)), (float(y0), float(y1)))
        self.order = self.n - 2 if order is None else int(order)
        if self.order < self.n - 2:
            raise ValueError("smoothness order must be at least n-2")


class DecompResult:
    def __init__(self, components, directions, residual, meta=None):
        self.components = components      # callables g_i of t = a_i x + b_i y
        self.directions = directions
        self.residual = float(residual)
        self.meta = meta or {}

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        total = 0.0
        for (a, b), g in zip(self.directions, self.components):
            total = total + g(a * x + b * y)
        return total


def normalize(problem):
    """Transformed data: pullback f*, unit in-plane directions, and their
    unit perpendiculars, with the last two directions mapped to e1, e2.

    Returns a dict with fstar(u, v), per-p unit vectors (ahat_p, bhat_p),
    scales s_p (so that ahat_p u + bhat_p v = (a_p x + b_p y)/s_p), and the
    perpendiculars l_p.
    """
    dirs = problem.directions
    n = problem.n
    (an1, bn1), (an, bn) = dirs[-2], dirs[-1]
    D = an1 * bn - an * bn1  # nonzero: directions independent

    f = problem.f

    def fstar(u, v):
        x = (bn * u - bn1 * v) / D
        y = (an1 * v - an * u) / D
        return f(x, y)

    units, scales, perps = [], [], []
    for p in range(n - 2):
        ap, bp = dirs[p]
        at = (ap * bn - an * bp) / D
        bt = (an1 * bp - ap * bn1) / D
        s = float(np.hypot(at, bt))
        units.append((at / s, bt / s))
        scales.append(s)
        perps.append((bt / s, -at / s))
    return {"fstar": fstar, "units": units, "scales": scales,
            "perps": perps, "det": D}


def _directional_derivative(fn, directions, h):
    """Nested 4th-order central differences along the given unit vectors."""
    if not directions:
        return fn
    (dx, dy) = directions[0]
    inner = _directional_derivative(fn, directions[1:], h)

    def d(fx, fy):
        return (-inner(fx + 2 * h * dx, fy + 2 * h * dy)
                + 8.0 * inner(fx + h * dx, fy + h * dy)
                - 8.0 * inner(fx - h * dx, fy - h * dy)
                + inner(fx - 2 * h * dx, fy - 2 * h * dy)) / (12.0 * h)

    return d


class _Spline1D:
    """Cubic spline with an anchored antiderivative."""

    def __init__(self, grid, values):
        from scipy.interpolate import CubicSpline
        self.grid = grid
        self.spline = CubicSpline(grid, values)

    def __call__(self, t):
        return self.spline(t)

    def antiderivative(self, factor, anchor):
        anti = self.spline.antiderivative()
        return _AnchoredAnti(anti, float(anti(anchor)), factor, self.grid)


class _AnchoredAnti:
    def __init__(self, anti, shift, factor, grid):
        self.anti = anti
        self.shift = shift
        self.factor = factor
        self.grid = grid

    def __call__(self, t):
        return self.factor * (self.anti(t) - self.shift)

    def antiderivative(self, factor, anchor):
        # resample, then spline again (keeps the implementation uniform)
        vals = self(self.grid)
        return _Spline1D(self.grid, vals).antiderivative(factor, anchor)


def decompose(problem, fd_step=None, anchor=0.0):
    """Ridge generators for f on the working box, plus the sup residual on
    a 41 x 41 grid of the box.

    fd_step defaults to 1e-3 times the longer side of the box; the
    generators are splines on 401 knots.  The antiderivative chains are
    anchored at ``anchor``; different anchors change each generator by a
    polynomial of degree <= n-2 only.
    """
    n = problem.n
    data = normalize(problem)
    fstar = data["fstar"]
    units, scales, perps = data["units"], data["scales"], data["perps"]
    (x0, x1), (y0, y1) = problem.box
    if fd_step is None:
        fd_step = 1e-3 * max(x1 - x0, y1 - y0)
    h = float(fd_step)

    # master interval: covers u = a_{n-1}.x, v = a_n.x and all contracted
    # arguments passed between the chains
    corners = [(x, y) for x in (x0, x1) for y in (y0, y1)]
    dirs = problem.directions
    T = 0.0
    for (a, b) in dirs[-2:]:
        T = max(T, max(abs(a * x + b * y) for x, y in corners))
    for p in range(n - 2):
        a, b = dirs[p]
        T = max(T, max(abs(a * x + b * y) / scales[p] for x, y in corners))
    T = 1.1 * T + 1.0
    tgrid = np.linspace(-T, T, GRID_M)

    if n == 2:
        g1 = lambda t: np.asarray(fstar(np.asarray(t, dtype=float),
                                        np.zeros_like(np.asarray(t, dtype=float))))
        f00 = float(fstar(0.0, 0.0))
        g2 = lambda t: np.asarray(fstar(np.zeros_like(np.asarray(t, dtype=float)),
                                        np.asarray(t, dtype=float))) - f00
        comps = [g1, g2]
    else:
        Dfull = _directional_derivative(fstar, perps, h)

        # h-chains: the two axis-aligned generators
        zeros = np.zeros_like(tgrid)
        h1 = _Spline1D(tgrid, np.asarray(Dfull(tgrid, zeros), dtype=float))
        base = float(Dfull(0.0, 0.0))
        h2 = _Spline1D(tgrid,
                       np.asarray(Dfull(zeros, tgrid), dtype=float) - base)
        h_chain = {1: {1: h1}, 2: {1: h2}}
        e = {1: (1.0, 0.0), 2: (0.0, 1.0)}
        for i in (1, 2):
            for k in range(1, n - 1):
                lk = perps[k - 1]
                dotp = e[i][0] * lk[0] + e[i][1] * lk[1]
                h_chain[i][k + 1] = h_chain[i][k].antiderivative(1.0 / dotp,
                                                                anchor)

        # phi-chains: one per remaining direction, built in index order
        phi = {}
        for p in range(1, n - 1):  # p = 1..n-2
            up = units[p - 1]
            Dp = _directional_derivative(fstar, perps[p:], h)
            args1 = up[0] * tgrid
            args2 = up[1] * tgrid
            vals = np.asarray(Dp(args1, args2), dtype=float)
            vals -= np.asarray(h_chain[1][p + 1](args1), dtype=float)
            vals -= np.asarray(h_chain[2][p + 1](args2), dtype=float)
            for j in range(1, p):
                uj = units[j - 1]
                cosang = uj[0] * up[0] + uj[1] * up[1]
                vals -= np.asarray(phi[j][p - j + 1](cosang * tgrid),
                                   dtype=float)
            phi[p] = {1: _Spline1D(tgrid, vals)}
            for k in range(1, n - p - 1):
                lk = perps[k + p - 1]
                dotp = up[0] * lk[0] + up[1] * lk[1]
                phi[p][k + 1] = phi[p][k].antiderivative(1.0 / dotp, anchor)

        comps = []
        for p in range(1, n - 1):
            G = phi[p][n - p - 1]
            s = scales[p - 1]
            comps.append(lambda t, _G=G, _s=s: _G(np.asarray(t) / _s))
        comps.append(h_chain[1][n - 1])
        comps.append(h_chain[2][n - 1])

    X, Y = np.meshgrid(np.linspace(x0, x1, VERIFY_N),
                       np.linspace(y0, y1, VERIFY_N), indexing="ij")
    result = DecompResult(comps, dirs, 0.0,
                          meta={"fd_step": h, "anchor": anchor, "T": T})
    resid = np.asarray(problem.f(X, Y), dtype=float) - np.asarray(result(X, Y))
    result.residual = float(np.max(np.abs(resid)))
    return result


def _perp(v):
    return (-v[1], v[0])


def crosscheck_highorder(problem):
    """Independent decomposition for s >= n-1: isolate each generator's
    (n-1)-th derivative by differentiating perpendicular to all other
    directions, then integrate n-1 times.  Generators agree with
    ``decompose`` only up to a polynomial of degree <= n-2 per term; the
    reported residual, on a 41 x 41 grid of the box, is computed after
    removing the best-fit bivariate polynomial of total degree <= n-2.
    The difference step is 1e-3 times the longer side of the box and each
    spline has 401 knots.
    """
    n = problem.n
    dirs = problem.directions
    (x0, x1), (y0, y1) = problem.box
    h = 1e-3 * max(x1 - x0, y1 - y0)
    corners = [(x, y) for x in (x0, x1) for y in (y0, y1)]

    comps = []
    for r, (ar, br) in enumerate(dirs):
        others = [dirs[j] for j in range(n) if j != r]
        perp_dirs = []
        factor = 1.0
        for (aj, bj) in others:
            c = _perp((aj, bj))
            norm = float(np.hypot(*c))
            c = (c[0] / norm, c[1] / norm)
            perp_dirs.append(c)
            factor *= c[0] * ar + c[1] * br
        sr = float(np.hypot(ar, br))
        T = 1.1 * max(abs(ar * x + br * y) for x, y in corners) / sr + 1.0
        tgrid = np.linspace(-T, T, GRID_M)
        D = _directional_derivative(problem.f, perp_dirs, h)
        # sample along the line t * (ar, br)/sr: argument a_r x + b_r y = sr*t
        vals = np.asarray(D(tgrid * ar / sr, tgrid * br / sr), dtype=float)
        if abs(factor) < 1e-14:
            raise ValueError("degenerate perpendicular system")
        chain = _Spline1D(tgrid, vals / factor)
        for _ in range(n - 1):
            chain = chain.antiderivative(1.0, 0.0)
        # chain(t) integrates g_r^{(n-1)}(sr*t) n-1 times in t, which is
        # g_r(sr*t)/sr^{n-1} up to a low-degree polynomial
        comps.append(lambda z, _c=chain, _sr=sr, _m=sr**(n - 1):
                     _m * _c(np.asarray(z) / _sr))

    X, Y = np.meshgrid(np.linspace(x0, x1, VERIFY_N),
                       np.linspace(y0, y1, VERIFY_N), indexing="ij")
    result = DecompResult(comps, dirs, 0.0, meta={"fd_step": h})
    resid = (np.asarray(problem.f(X, Y), dtype=float)
             - np.asarray(result(X, Y), dtype=float))
    # remove the degree-(n-2) polynomial ambiguity before reporting
    deg = max(n - 2, 0)
    cols = []
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            cols.append((X.ravel()**i) * (Y.ravel()**j))
    if cols:
        Amat = np.stack(cols, axis=1)
        coef, *_ = np.linalg.lstsq(Amat, resid.ravel(), rcond=None)
        resid = resid - (Amat @ coef).reshape(resid.shape)
    result.residual = float(np.max(np.abs(resid)))
    return result


def tabulate(result, problem, table_n=257):
    """UnivariateTable per component over the induced argument ranges."""
    (x0, x1), (y0, y1) = problem.box
    corners = [(x, y) for x in (x0, x1) for y in (y0, y1)]
    tables = []
    for (a, b), g in zip(result.directions, result.components):
        vals = [a * x + b * y for x, y in corners]
        lo, hi = min(vals), max(vals)
        ts = np.linspace(lo, hi, table_n)
        tables.append(UnivariateTable(ts, np.asarray(g(ts), dtype=float)))
    return tables
