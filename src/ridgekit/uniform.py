"""Best uniform approximation by sums of two ridge functions.

On a "parallelogram" domain Omega = {x : c1 <= a.x <= d1, c2 <= b.x <= d2}
with a convexity-type hypothesis on f, the Chebyshev error and an extremal
pair (g1(a.x), g2(b.x)) have closed forms in the pulled-back coordinates
y1 = a.x, y2 = b.x.  The module also implements the classical alternating
(fiber-midrange) iteration for two directions.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .core import (RidgeSum, ScalarField, UnivariateTable,
                   centred_differences, max_cycle_mean, values_at)

PulledBackGrid = namedtuple("PulledBackGrid", "y1 y2 Y1 Y2 X Y")

CHECK_N = 21        # nodes per axis of the hypothesis check
VERIFY_N = 33       # nodes per axis of verify_extremal's grid
VERIFY_TOL = 1e-6   # slack of verify_extremal's norm against e*
DS_N = 41           # nodes per axis of diliberto_straus's grid (the CLI's too)


class HypothesisViolated(ValueError):
    """The convexity-type hypothesis failed; closed forms don't apply."""

    def __init__(self, message, worst_point=None, worst_value=None):
        super().__init__(message)
        self.worst_point = worst_point
        self.worst_value = worst_value


class ParallelogramDomain:
    """Domain {x in R^2 : c1 <= a.x <= d1, c2 <= b.x <= d2}."""

    def __init__(self, a, b, c1, d1, c2, d2):
        self.a = (float(a[0]), float(a[1]))
        self.b = (float(b[0]), float(b[1]))
        self.c1, self.d1 = float(c1), float(d1)
        self.c2, self.d2 = float(c2), float(d2)
        for name in ("a", "b", "c1", "d1", "c2", "d2"):
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} = {value!r} is not finite")
        self.det = self.a[0] * self.b[1] - self.a[1] * self.b[0]
        if self.det == 0:
            raise ValueError("directions must be linearly independent")
        if not (c1 < d1 and c2 < d2):
            raise ValueError("need c1 < d1 and c2 < d2")

    def to_xy(self, y1, y2):
        """Inverse of (y1, y2) = (a.x, b.x)."""
        a, b, det = self.a, self.b, self.det
        x = (y1 * b[1] - y2 * a[1]) / det
        y = (y2 * a[0] - y1 * b[0]) / det
        return x, y

    def grid(self, n):
        """The n x n grid of [c1,d1] x [c2,d2]: axes y1, y2, the mesh Y1, Y2
        (``indexing="ij"``, so row i is the fiber y1 = y1[i]) and its image
        X, Y in x-space."""
        y1 = np.linspace(self.c1, self.d1, n)
        y2 = np.linspace(self.c2, self.d2, n)
        Y1, Y2 = np.meshgrid(y1, y2, indexing="ij")
        return PulledBackGrid(y1, y2, Y1, Y2, *self.to_xy(Y1, Y2))


class ExtremalPair(RidgeSum):
    """Best ridge-sum approximant g1(a.x) + g2(b.x) with its error."""

    def __init__(self, g1, g2, error, domain):
        super().__init__([(domain.a, g1), (domain.b, g2)])
        self.g1 = g1          # callable of y1 = a.x
        self.g2 = g2          # callable of y2 = b.x
        self.error = float(error)
        self.domain = domain


def pullback(f, dom):
    """f1(y1, y2) = f evaluated at the x solving a.x=y1, b.x=y2, for
    scalars or numpy arrays y1, y2."""
    return ScalarField(2, lambda y1, y2: f(*dom.to_xy(y1, y2)))


def mixed_condition_check(f, dom):
    """Check the second-order hypothesis behind the closed forms.

    Requires D12*(a1*b2 + a2*b1) - D11*a2*b2 - D22*a1*b1 >= -tol at the
    nodes of the pulled-back 21 x 21 grid, where Dij are second partials of
    f and tol = 1e-8 * (1 + max |f| on the grid).  That quantity is det^2
    times the mixed partial of the pullback f1(y1, y2), which is measured
    here by the double difference of f1 over a cell of sides 2*k1, 2*k2 (an
    eighth of the grid spacing each way) centred at each node.  Returns a
    dict verdict.
    """
    g = dom.grid(CHECK_N)
    k1 = (dom.d1 - dom.c1) / (CHECK_N - 1) / 8.0
    k2 = (dom.d2 - dom.c2) / (CHECK_N - 1) / 8.0
    expr = (centred_differences(pullback(f, dom), g.y1, g.y2, k1, k2)
            * (dom.det**2 / (4.0 * k1 * k2)))
    fmax = float(np.max(np.abs(f(g.X, g.Y))))
    tol = 1e-8 * (1.0 + fmax)
    worst = int(np.argmin(expr))
    wv = float(expr.flat[worst])
    wp = (float(g.X.flat[worst]), float(g.Y.flat[worst]))
    return {
        "passed": bool(wv >= -tol),
        "worst_value": wv,
        "worst_point": wp,
        "tol": tol,
    }


def best_uniform(f, dom):
    """Closed-form Chebyshev error and extremal pair on the domain.

    error = (f1(c1,c2) + f1(d1,d2) - f1(c1,d2) - f1(d1,c2)) / 4 for the
    pullback f1; the extremal pair mixes f1 along the edges of the
    pulled-back rectangle.  The hypothesis is checked first, on the 21 x 21
    grid of ``mixed_condition_check``; raises HypothesisViolated when it
    fails (use core.max_cycle_mean on a pulled-back grid then).
    """
    verdict = mixed_condition_check(f, dom)
    if not verdict["passed"]:
        raise HypothesisViolated(
            "second-order hypothesis fails; no closed form "
            "(fall back to the grid minimax error, core.max_cycle_mean)",
            worst_point=verdict["worst_point"],
            worst_value=verdict["worst_value"],
        )
    f1 = pullback(f, dom)
    c1, d1, c2, d2 = dom.c1, dom.d1, dom.c2, dom.d2
    fcc, fdd, fcd, fdc = values_at(f1, [(c1, c2), (d1, d2), (c1, d2),
                                        (d1, c2)])
    error = 0.25 * (fcc + fdd - fcd - fdc)

    def g1(y1):
        y1 = np.asarray(y1, dtype=float)
        return (0.5 * f1(y1, np.full_like(y1, c2))
                + 0.5 * f1(y1, np.full_like(y1, d2))
                - 0.25 * fcc - 0.25 * fdd)

    def g2(y2):
        y2 = np.asarray(y2, dtype=float)
        return (0.5 * f1(np.full_like(y2, c1), y2)
                + 0.5 * f1(np.full_like(y2, d1), y2)
                - 0.25 * fcd - 0.25 * fdc)

    return ExtremalPair(g1, g2, error, dom)


def verify_extremal(f, candidate, dom):
    """Check a candidate pair against the exact minimax error e* of f on
    the pulled-back 33 x 33 grid (``core.max_cycle_mean``, with the
    constant-y1 fibers as rows and the constant-y2 fibers as columns).

    The pair is extremal when the sup-norm of f - candidate on the grid is
    at most e* + 1e-6; the witness is then the critical cycle, a closed
    alternating path in x-coordinates on which f - candidate takes +/- its
    norm in turn (None when e* = 0).  Otherwise the verdict says the pair is
    not best on the grid and gives e*.

    Returns a dict: ``verdict``, ``norm``, ``grid_error`` (e*), ``witness``.
    """
    g = dom.grid(VERIFY_N)
    F = np.broadcast_to(np.asarray(f(g.X, g.Y), dtype=float), g.X.shape)
    resid = F - np.asarray(candidate(g.X, g.Y), dtype=float)
    norm = float(np.max(np.abs(resid)))
    err, cycle = max_cycle_mean(*np.indices(F.shape).reshape(2, -1), F)
    verdict = "extremal"
    if norm > err + VERIFY_TOL:
        verdict, cycle = (f"not best on the grid: norm {norm:.6g} exceeds "
                          f"the grid minimax error {err:.6g}"), []
    witness = [(float(g.X.flat[k]), float(g.Y.flat[k])) for k in cycle]
    return {"verdict": verdict, "norm": norm, "grid_error": err,
            "witness": witness or None}


def diliberto_straus(f, dom, iters=100):
    """Alternating fiber-midrange iteration on the pulled-back grid.

    Each sweep subtracts, per y1-fiber then per y2-fiber, the midrange
    (max+min)/2 of the current residual.  Returns (norms, tables) where
    norms[k] = sup-norm after k sweeps (norms[0] is ||f||) and tables are
    the accumulated g1, g2 as univariate tables in y1, y2.  A negative
    ``iters`` raises ValueError.
    """
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    g = dom.grid(DS_N)
    y1, y2, X, Y = g.y1, g.y2, g.X, g.Y
    resid = np.broadcast_to(np.asarray(f(X, Y), dtype=float), X.shape).copy()
    g1 = np.zeros(DS_N)
    g2 = np.zeros(DS_N)
    norms = [float(np.max(np.abs(resid)))]
    for _ in range(iters):
        m1 = 0.5 * (resid.max(axis=1) + resid.min(axis=1))  # per y1-fiber
        resid -= m1[:, None]
        g1 += m1
        m2 = 0.5 * (resid.max(axis=0) + resid.min(axis=0))  # per y2-fiber
        resid -= m2[None, :]
        g2 += m2
        norms.append(float(np.max(np.abs(resid))))
    tables = (UnivariateTable(y1, g1), UnivariateTable(y2, g2))
    return norms, tables
