"""Constructive decomposition of a smooth bivariate function into ridge terms.

If f(x,y) = sum_{i=1}^n g_i(a_i x + b_i y) with pairwise independent
directions and f is C^s with s >= n-2, smooth generators g_i can be built
explicitly, and this module builds them numerically in the coordinates of
the box.  With l_k the unit perpendicular of a_k, a derivative along the
l_k for k in a set K kills the terms of K and takes each other term
g_i(a_i . x) to (prod_{k in K} a_i . l_k) g_i^(|K|)(a_i . x).  A chain of
n-2 such derivatives leaves the last two terms, and one derivative more,
along the other one's perpendicular, isolates each of them, as the
cross-check isolates every term; so the last two generators ask for
s >= n-1, one more than the paper's s >= n-2, and n = 2 is no special
case.  Anchored antiderivatives then peel the terms off one at a time.
The mixed derivatives are exact Taylor jets of the expression
(``core.jet``) when f is a parsed expression, and nested 4th-order central
differences when it is a plain callable.  Each link of a chain is a
Chebyshev series in its generator's own argument a_i . x, interpolating
its samples on a diagonal of the box, along which that argument takes its
whole range on the box, and its antiderivatives are exact; so every jet is
taken inside the box (a stencil reaches two steps beyond its samples).
Each antiderivative vanishes at the centre value a_i . c of its argument,
or at a given anchor; the generators are unique only up to polynomials of
degree <= n-2 in any case.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import RidgeSum, UnivariateTable, jet

CHEB_DEG = 40   # degree of each chain's Chebyshev series
VERIFY_N = 41   # nodes per axis of the grid the residual is measured on


class DecompProblem:
    """f, its directions and its box.  A problem keeps the samples it has
    taken: f on the residual grid, and each isolated series (``_isolated``)
    by derivative kind and step, generator and directions, so that
    ``decompose`` and ``crosscheck_highorder`` on one problem take each
    once.  Its attributes are not to be changed after construction."""

    def __init__(self, f, directions, box):
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
        self._grid = None       # (X, Y, f(X, Y)) on the residual grid
        self._isolations = {}   # the series of ``_isolated``, by key


class DecompResult(RidgeSum):
    def __init__(self, components, directions, residual, meta=None):
        super().__init__(zip(directions, components))
        self.components = components      # callables g_i of t = a_i x + b_i y
        self.directions = directions
        self.residual = float(residual)
        self.meta = meta or {}


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
    a plain callable; meta says which.  A jet takes no step, so fd_step
    with an expression is an error."""
    ast = getattr(problem.f, "ast", None)
    if ast is not None:
        if fd_step is not None:
            raise ValueError("fd_step applies to a plain callable only; "
                             "f is an expression, whose derivatives are jets")
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


def _frame(problem):
    """(A, L, centre, half, mid, rad): the directions a_i as the rows of A,
    their unit perpendiculars l_i = (-a_i2, a_i1)/|a_i| as the rows of L,
    the centre and half-sides of the box, and the centre value
    mid_i = a_i . centre and half-range rad_i = |a_i| . half of each
    argument on the box.  A derivative along l_k takes g_i(a_i . x) to
    (a_i . l_k) g_i'(a_i . x)."""
    A = np.array(problem.directions)
    L = np.stack([-A[:, 1], A[:, 0]], axis=1) / np.hypot(*A.T)[:, None]
    (x0, x1), (y0, y1) = problem.box
    centre = np.array([(x0 + x1) / 2, (y0 + y1) / 2])
    half = np.array([(x1 - x0) / 2, (y1 - y0) / 2])
    return A, L, centre, half, A @ centre, np.abs(A) @ half


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


def _diagonal(a, half):
    """The half-diagonal of the box towards the corner where a . x is
    largest, scaled so that a . d = 1.  The line centre + s d runs between
    opposite corners for |s| <= |a| . half, and a . x takes all of its
    range on the box there."""
    d = half * np.where(a < 0, -1.0, 1.0)
    return d / (a @ d)


def _line(centre, d, s):
    """The points centre + s d, as coordinate arrays of the shape of s."""
    return centre[0] + d[0] * s, centre[1] + d[1] * s


def _offsets(rad):
    """The interpolation points of an interval of half-width rad, less its
    midpoint."""
    return rad * _interpolation()[0]


def _series(values, mid, rad):
    """The Chebyshev series on [mid - rad, mid + rad] through values at
    mid + _offsets(rad)."""
    from numpy.polynomial import Chebyshev
    return Chebyshev(_interpolation()[1] @ values,
                     domain=[mid - rad, mid + rad])


def _isolated(problem, derivative, meta, frame, i, dirs):
    """The Chebyshev series, in generator i's argument a_i . x over its
    range on the box, of f's derivative along dirs, sampled on the
    diagonal of the box for a_i; derivative and meta are
    ``_differentiator``'s pair and frame is ``_frame``'s tuple.  With dirs
    the perpendiculars of every direction but a_i, the series is the part
    of that derivative that belongs to g_i.  The problem keeps each series
    and returns it again when asked under the same meta, i and dirs."""
    key = (tuple(meta.items()), i, tuple(map(tuple, dirs)))
    if key not in problem._isolations:
        A, L, centre, half, mid, rad = frame
        x, y = _line(centre, _diagonal(A[i], half), _offsets(rad[i]))
        problem._isolations[key] = _series(derivative(x, y, dirs),
                                           mid[i], rad[i])
    return problem._isolations[key]


def _chebint(c, lbnd, scl):
    """numpy's ``chebint(c, lbnd=lbnd, scl=scl)`` of a 1-D float series,
    its loop over the coefficients run as two array operations: each
    division and subtraction is numpy's, in the same order, so the floats
    are the same."""
    from numpy.polynomial.chebyshev import chebval
    c = np.array(c, dtype=float) * scl
    n = len(c)
    if n == 1 and c[0] == 0:
        return c + 0    # the constant 0 that numpy adds makes -0.0 0.0
    tmp = np.empty(n + 1)
    tmp[0] = c[0] * 0
    tmp[1] = c[0]
    tmp[2:] = c[1:] / (2 * np.arange(2, n + 1))
    tmp[1:n - 1] -= c[2:] / (2 * np.arange(1, n - 1))
    tmp[0] += 0 - chebval(lbnd, tmp)
    return tmp


def _chain(first, a, perps, mid, anchor=None):
    """The links of one generator's chain, from the generator back to first.

    first is a series in the argument a . x of the part of f's derivative
    along perps that belongs to this generator; link k is the same for the
    derivative along the last k of perps.  Each link is the antiderivative
    of the next, divided by a . l for the perpendicular l it undoes, and
    vanishes at anchor (at mid when anchor is None).  The integration runs
    on the coefficients, in first's window variable off + scl (a . x), so
    that each link is built as a series only once."""
    from numpy.polynomial import Chebyshev
    off, scl = first.mapparms()
    lbnd = off + scl * (mid if anchor is None else anchor)
    coefs = [first.coef]
    for l in perps:
        coefs.append(_chebint(coefs[-1], lbnd, 1 / (scl * (a @ l))))
    return [Chebyshev(c, domain=first.domain) for c in coefs[::-1]]


def _chopped(G):
    """G without the trailing coefficients below rounding of its largest,
    which change none of its values but cost time in each evaluation."""
    return G.trim(np.finfo(float).eps * np.max(np.abs(G.coef)))


def _residual(problem, comps, meta, deg=None):
    """The DecompResult of comps, with the sup of f less their sum on a
    41 x 41 grid of the box; with deg, after removing the best-fit
    bivariate polynomial of total degree <= deg from that difference.  The
    problem keeps f on the grid."""
    if problem._grid is None:
        (x0, x1), (y0, y1) = problem.box
        X, Y = np.meshgrid(np.linspace(x0, x1, VERIFY_N),
                           np.linspace(y0, y1, VERIFY_N), indexing="ij")
        problem._grid = X, Y, np.asarray(problem.f(X, Y), dtype=float)
    X, Y, fvals = problem._grid
    result = DecompResult(comps, problem.directions, 0.0, meta=meta)
    resid = fvals - np.asarray(result(X, Y), dtype=float)
    if deg is not None:
        cols = [X.ravel()**i * Y.ravel()**j
                for i in range(deg + 1) for j in range(deg + 1 - i)]
        Amat = np.stack(cols, axis=1)
        coef, *_ = np.linalg.lstsq(Amat, resid.ravel(), rcond=None)
        resid = resid - (Amat @ coef).reshape(resid.shape)
    result.residual = float(np.max(np.abs(resid)))
    return result


def decompose(problem, fd_step=None, anchor=None):
    """Ridge generators for f on the working box, plus the sup residual on
    a 41 x 41 grid of the box.

    Each generator g_i is a Chebyshev series in its own argument a_i . x,
    over the range that argument takes on the box, and every chain is
    sampled on a diagonal of the box, for every n, n = 2 included.  The
    last two generators are isolated as ``crosscheck_highorder`` isolates
    each generator, with one derivative more than the paper's chain:
    s >= n-1 for them.  Derivatives come from
    ``_differentiator``: exact jets for a parsed expression, and
    differences of step ``fd_step`` for a plain callable.  Each
    antiderivative vanishes where its generator's argument a_i . x equals
    ``anchor``, or, when it is None, the argument's value at the centre of
    the box; different anchors change each generator by a polynomial of
    degree <= n-2 only.
    """
    n = problem.n
    frame = A, L, centre, half, mid, rad = _frame(problem)
    derivative, meta = _differentiator(problem, fd_step)
    P = n - 2   # the last two directions are P and P + 1
    perps = list(L[:P])
    # the last two chains, each isolated as in the cross-check and
    # integrated back once; the value of D_perps f at the centre fixes the
    # sum of their two constants, and stays in chain P
    at_centre = float(derivative(*centre, perps))
    chains = {}
    for i, j, c in ((P, P + 1, at_centre), (P + 1, P, 0.0)):
        once = _chain(_isolated(problem, derivative, meta, frame, i,
                                perps + [L[j]]),
                      A[i], [L[j]], mid[i])[0]
        chains[i] = _chain(once + c, A[i], perps, mid[i], anchor)

    # every other chain, in index order, sampled on its diagonal of the
    # box, so that every chain it subtracts is evaluated within the box's
    # range of its own argument
    for p in range(P):
        x, y = _line(centre, _diagonal(A[p], half), _offsets(rad[p]))
        vals = derivative(x, y, perps[p + 1:])
        k = P - 1 - p   # the order of that derivative
        for i, links in chains.items():
            vals = vals - links[k](A[i, 0] * x + A[i, 1] * y)
        chains[p] = _chain(_series(vals, mid[p], rad[p]), A[p],
                           perps[p + 1:], mid[p], anchor)
    comps = [_chopped(chains[i][0]) for i in range(n)]

    return _residual(problem, comps, {**meta, "anchor": anchor})


def crosscheck_highorder(problem):
    """A second decomposition for s >= n-1: isolate each generator's
    (n-1)-th derivative by differentiating perpendicular to all other
    directions, then integrate n-1 times.  After ``decompose`` on the same
    problem it shares that call's isolations of generators n-2 and n-1,
    which are the same series, and f on the residual grid; it recomputes
    the isolations of the other n-2 generators and every integration.
    Generators agree with ``decompose`` only up to a polynomial of degree
    <= n-2 per term; the reported residual, on a 41 x 41 grid of the box,
    is computed after removing the best-fit bivariate polynomial of total
    degree <= n-2.  Derivatives are taken as in ``decompose`` (differences
    of step 1e-3 times the longer side of the box for a plain callable),
    and each generator is a Chebyshev series in its own argument over that
    argument's range on the box, sampled on a diagonal of the box.
    """
    n = problem.n
    frame = A, L, centre, half, mid, rad = _frame(problem)
    derivative, meta = _differentiator(problem, None)
    comps = []
    for i in range(n):
        others = [L[j] for j in range(n) if j != i]
        # the sines a_i . l_j / |a_i| of the angles to the other directions:
        # a short direction is not a parallel one
        sines = [A[i] @ l / np.hypot(*A[i]) for l in others]
        if abs(np.prod(sines)) < 1e-14:
            raise ValueError("degenerate perpendicular system")
        first = _isolated(problem, derivative, meta, frame, i, others)
        comps.append(_chopped(_chain(first, A[i], others, mid[i])[0]))
    return _residual(problem, comps, meta, deg=n - 2)


def tabulate(result, problem, table_n=257):
    """UnivariateTable per component over the induced argument ranges."""
    *_, mid, rad = _frame(problem)
    tables = []
    for g, m, r in zip(result.components, mid, rad):
        ts = np.linspace(m - r, m + r, table_n)
        tables.append(UnivariateTable(ts, np.asarray(g(ts), dtype=float)))
    return tables
