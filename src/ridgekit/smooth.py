"""Constructive decomposition of a smooth bivariate function into ridge terms.

If f(x,y) = sum_{i=1}^n g_i(a_i x + b_i y) with pairwise independent
directions and f is C^s with s >= n-2, smooth generators g_i can be built
explicitly: change coordinates so the last two directions become e1, e2,
then peel the terms off with a chain of directional derivatives (order
n-2) and anchored antiderivatives.  This module realizes that chain
numerically.  The mixed derivatives are exact Taylor jets of the
expression (``core.jet``) when f is a parsed expression, and nested
4th-order central differences when it is a plain callable.  Each link of
a chain is a Chebyshev series interpolating its samples on a line through
the centre of the box, over the range its argument takes on the box, and
its antiderivatives are exact.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import UnivariateTable, jet

CHEB_DEG = 40   # degree of each chain's Chebyshev series
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
    scales s_p (so that ahat_p u + bhat_p v = (a_p x + b_p y)/s_p), the
    perpendiculars l_p, and the matrix M with (x, y) = M (u, v).
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
    M = np.array([[bn, -bn1], [-an, an1]]) / D
    return {"fstar": fstar, "units": units, "scales": scales,
            "perps": perps, "det": D, "M": M}


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


def _differentiator(problem, fd_step):
    """(derivative, meta): derivative(x, y, dirs) is the mixed derivative of
    f along the vectors dirs at the points (x, y).  It is an exact Taylor
    jet when f carries an expression AST, and nested central differences
    of step fd_step (by default 1e-3 times the longer side of the box) for
    a plain callable; meta says which."""
    ast = getattr(problem.f, "ast", None)
    if ast is not None:
        def derivative(x, y, dirs):
            return jet(ast, (x, y), dirs)[-1]
        return derivative, {"derivatives": "jet"}
    if fd_step is None:
        (x0, x1), (y0, y1) = problem.box
        fd_step = 1e-3 * max(x1 - x0, y1 - y0)
    h = float(fd_step)

    def stencil(x, y, dirs):
        d = _directional_derivative(problem.f, dirs, h)(x, y)
        return np.broadcast_to(np.asarray(d, dtype=float), np.shape(x))

    return stencil, {"derivatives": "stencil", "fd_step": h}


def _box_centre(problem):
    """The centre of the box and its half-sides, as arrays."""
    (x0, x1), (y0, y1) = problem.box
    return (np.array([(x0 + x1) / 2, (y0 + y1) / 2]),
            np.array([(x1 - x0) / 2, (y1 - y0) / 2]))


@functools.cache
def _interpolation():
    """The Chebyshev points of the first kind on [-1, 1], and the matrix
    that takes values there to the coefficients of the interpolating
    series (discrete orthogonality of T_0..T_CHEB_DEG on those points)."""
    from numpy.polynomial.chebyshev import chebpts1, chebvander
    x = chebpts1(CHEB_DEG + 1)
    m = chebvander(x, CHEB_DEG).T * (2.0 / (CHEB_DEG + 1))
    m[0] /= 2
    return x, m


def _diagonal(w, half):
    """(d, r): the half-diagonal of the box towards the corner where w . x
    is largest, scaled so that w . d = 1, and r = that largest w . x less
    its value at the centre.  The line centre + s d, |s| <= r, runs between
    opposite corners and w . x takes all of its range on the box there."""
    d = half * np.where(w < 0, -1.0, 1.0)
    r = float(w @ d)
    return d / r, r


def _nodes(mid, r):
    """The interpolation points on [mid - r, mid + r]."""
    return mid + r * _interpolation()[0]


def _series(values, mid, r):
    """The Chebyshev series on [mid - r, mid + r] through values at
    _nodes(mid, r)."""
    from numpy.polynomial import Chebyshev
    return Chebyshev(_interpolation()[1] @ values, domain=[mid - r, mid + r])


def _chopped(G):
    """G without the trailing coefficients below rounding of its largest,
    which change none of its values but cost time in each evaluation."""
    return G.trim(np.finfo(float).eps * np.max(np.abs(G.coef)))


def decompose(problem, fd_step=None, anchor=None):
    """Ridge generators for f on the working box, plus the sup residual on
    a 41 x 41 grid of the box.

    Each generator is a Chebyshev series over the range its argument takes
    on the box.  The two chains of the last two directions are sampled on
    the lines through the centre of the box along which only their own
    argument changes, which can leave the box; every other chain on a
    diagonal of the box.  Derivatives come from ``_differentiator``: exact
    jets for a parsed expression, and differences of step ``fd_step`` for
    a plain callable.  Each antiderivative vanishes at ``anchor``, or,
    when it is None, at the midpoint of its chain's interval; different
    anchors change each generator by a polynomial of degree <= n-2 only.
    """
    n = problem.n
    data = normalize(problem)
    units, scales, perps = data["units"], data["scales"], data["perps"]
    M = data["M"]
    dirs = problem.directions
    (x0, x1), (y0, y1) = problem.box
    centre, half = _box_centre(problem)
    A = np.array(dirs[-2:])    # (u, v) = A @ (x, y)
    c = A @ centre
    derivative, meta = _differentiator(problem, fd_step)

    if n == 2:
        fstar = data["fstar"]
        base = float(fstar(*c))

        def g1(t):
            t = np.asarray(t, dtype=float)
            return np.asarray(fstar(t, np.full_like(t, c[1])))

        def g2(t):
            t = np.asarray(t, dtype=float)
            return np.asarray(fstar(np.full_like(t, c[0]), t)) - base

        comps = [g1, g2]
    else:
        lines = [tuple(M @ l) for l in perps]   # the l_p in (x, y)

        def antiderivative(G, dotp, mid):
            return G.integ(lbnd=mid if anchor is None else anchor) / dotp

        # h-chains: the two axis-aligned generators, from one sampling of
        # the lines v = v_c and u = u_c over the box's ranges of u and v
        r1, r2 = (float(np.abs(a) @ half) for a in A)
        t1, t2 = _nodes(c[0], r1), _nodes(c[1], r2)
        uv = np.concatenate([np.stack([t1, np.full_like(t1, c[1])]),
                             np.stack([np.full_like(t2, c[0]), t2]),
                             c[:, None]], axis=1)
        vals = derivative(*(M @ uv), lines)
        m = len(t1)
        h_chain = [{1: _series(vals[:m], c[0], r1)},
                   {1: _series(vals[m:2 * m] - vals[-1], c[1], r2)}]
        for i in (0, 1):
            for k in range(1, n - 1):
                h_chain[i][k + 1] = antiderivative(h_chain[i][k],
                                                   perps[k - 1][i], c[i])

        # phi-chains: one per remaining direction, built in index order,
        # each sampled on the diagonal of the box along which its argument
        # takes its whole range, so that every chain it subtracts is
        # evaluated within the box's range of its own argument
        phi = {}
        for p in range(1, n - 1):  # p = 1..n-2
            up = np.array(units[p - 1])
            mid = float(up @ c)
            d, r = _diagonal(A.T @ up, half)
            t = _nodes(mid, r)
            xy = centre[:, None] + np.outer(d, t - mid)
            uv = A @ xy
            vals = derivative(*xy, lines[p:])
            vals = vals - h_chain[0][p + 1](uv[0]) - h_chain[1][p + 1](uv[1])
            for j in range(1, p):
                vals = vals - phi[j][p - j + 1](np.array(units[j - 1]) @ uv)
            phi[p] = {1: _series(vals, mid, r)}
            for k in range(1, n - p - 1):
                phi[p][k + 1] = antiderivative(phi[p][k],
                                               up @ perps[k + p - 1], mid)

        comps = []
        for p in range(1, n - 1):
            G = _chopped(phi[p][n - p - 1])
            s = scales[p - 1]
            comps.append(lambda t, _G=G, _s=s: _G(np.asarray(t) / _s))
        comps.append(_chopped(h_chain[0][n - 1]))
        comps.append(_chopped(h_chain[1][n - 1]))

    X, Y = np.meshgrid(np.linspace(x0, x1, VERIFY_N),
                       np.linspace(y0, y1, VERIFY_N), indexing="ij")
    result = DecompResult(comps, dirs, 0.0, meta={**meta, "anchor": anchor})
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
    Derivatives are taken as in ``decompose`` (differences of step 1e-3
    times the longer side of the box for a plain callable), and each
    generator is a Chebyshev series over its argument's range on the box,
    sampled on a diagonal of the box.
    """
    n = problem.n
    dirs = problem.directions
    (x0, x1), (y0, y1) = problem.box
    derivative, meta = _differentiator(problem, None)
    centre, half = _box_centre(problem)

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
        if abs(factor) < 1e-14:
            raise ValueError("degenerate perpendicular system")
        sr = float(np.hypot(ar, br))
        unit = np.array([ar, br]) / sr
        mid = float(unit @ centre)
        d, rad = _diagonal(unit, half)
        t = _nodes(mid, rad)
        # the diagonal on which unit . (x, y) = t, so the argument
        # a_r x + b_r y is sr*t
        X, Y = centre[:, None] + np.outer(d, t - mid)
        chain = _series(derivative(X, Y, perp_dirs) / factor, mid, rad)
        chain = _chopped(chain.integ(n - 1, lbnd=mid))
        # chain(t) integrates g_r^{(n-1)}(sr*t) n-1 times in t, which is
        # g_r(sr*t)/sr^{n-1} up to a low-degree polynomial
        comps.append(lambda z, _c=chain, _sr=sr, _m=sr**(n - 1):
                     _m * _c(np.asarray(z) / _sr))

    X, Y = np.meshgrid(np.linspace(x0, x1, VERIFY_N),
                       np.linspace(y0, y1, VERIFY_N), indexing="ij")
    result = DecompResult(comps, dirs, 0.0, meta=meta)
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
