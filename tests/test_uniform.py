import math

import numpy as np
import pytest

from ridgekit.core import grid_minimax_oracle
from ridgekit.uniform import (
    HypothesisViolated,
    ParallelogramDomain,
    best_uniform,
    diliberto_straus,
    mixed_condition_check,
    pullback,
    verify_extremal,
)

UNIT = ParallelogramDomain((1, 0), (0, 1), 0.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("args, name", [
    (((1, 0), (0, 1), 0, 1, 0, math.inf), "d2 = inf"),
    (((1, 0), (0, 1), -math.inf, 1, 0, 1), "c1 = -inf"),
    (((1, 0), (0, math.inf), 0, 1, 0, 1), r"b = \(0.0, inf\)"),
    (((math.nan, 1), (0, 1), 0, 1, 0, 1), r"a = \(nan, 1.0\)"),
])
def test_domain_refuses_a_non_finite_value(args, name):
    with pytest.raises(ValueError, match=f"^{name} is not finite"):
        ParallelogramDomain(*args)


def xy(x, y):
    return np.asarray(x) * np.asarray(y)


class TestBestUniform:
    def test_product_error_is_quarter(self):
        pair = best_uniform(xy, UNIT)
        assert pair.error == pytest.approx(0.25, abs=1e-12)

    def test_residual_supnorm_equals_error(self):
        pair = best_uniform(xy, UNIT)
        xs = np.linspace(0, 1, 101)
        X, Y = np.meshgrid(xs, xs)
        resid = np.abs(xy(X, Y) - pair(X, Y))
        assert float(resid.max()) == pytest.approx(pair.error, abs=1e-9)

    def test_matches_grid_lp(self):
        pair = best_uniform(xy, UNIT)
        xs = np.linspace(0, 1, 21)
        pts = np.array([(x, y) for x in xs for y in xs])
        lp = grid_minimax_oracle(xy, [(1, 0), (0, 1)], pts)
        assert abs(pair.error - lp) <= 5e-3

    def test_skew_directions(self):
        # (x+y)^2 + (x-y)^3 is an exact ridge sum for diagonal directions
        dom = ParallelogramDomain((1, 1), (1, -1), -1.0, 1.0, -1.0, 1.0)
        f = lambda x, y: ((np.asarray(x) + np.asarray(y)) ** 2
                          + (np.asarray(x) - np.asarray(y)) ** 3)
        pair = best_uniform(f, dom)
        assert pair.error == pytest.approx(0.0, abs=1e-12)

    def test_hypothesis_violation_raises(self):
        with pytest.raises(HypothesisViolated):
            best_uniform(lambda x, y: -xy(x, y), UNIT)

    def test_mixed_condition_check_flags_sign(self):
        assert mixed_condition_check(xy, UNIT)["passed"]
        assert not mixed_condition_check(lambda x, y: -xy(x, y),
                                         UNIT)["passed"]


class TestVerifyExtremal:
    def test_witness_found_for_product(self):
        pair = best_uniform(xy, UNIT)
        rep = verify_extremal(xy, pair, UNIT)
        assert rep["verdict"].startswith("extremal")
        if rep["witness"] is not None:
            assert len(rep["witness"]) >= 4 and len(rep["witness"]) % 2 == 0

    def test_witness_alternates_at_the_norm(self):
        f = lambda x, y: xy(x, y) + 0.3 * np.exp(np.asarray(x) * 0.5)
        pair = best_uniform(f, UNIT)
        rep = verify_extremal(f, pair, UNIT)
        assert rep["verdict"] == "extremal"
        assert rep["grid_error"] == pytest.approx(pair.error, rel=1e-12)
        resid = [float(f(x, y) - pair(x, y)) for x, y in rep["witness"]]
        want = [(-1) ** k * rep["norm"] for k in range(len(resid))]
        assert resid == pytest.approx(want, rel=1e-9)


class TestDilibertoStraus:
    def test_norms_nonincreasing_and_converge(self):
        norms, _ = diliberto_straus(xy, UNIT, iters=100)
        arr = np.asarray(norms)
        assert np.all(np.diff(arr) <= 1e-12)
        assert abs(arr[-1] - 0.25) <= 1e-3

    def test_ridge_sum_annihilated_in_one_sweep(self):
        f = lambda x, y: np.sin(np.asarray(x)) + np.asarray(y) ** 2
        norms, _ = diliberto_straus(f, UNIT, iters=2)
        assert norms[2] <= 1e-12

    def test_accumulated_tables_reproduce_approximant(self):
        norms, (g1, g2) = diliberto_straus(xy, UNIT, iters=100)
        xs = np.linspace(0, 1, 41)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        resid = np.abs(xy(X, Y) - g1(X) - g2(Y))
        assert float(resid.max()) == pytest.approx(norms[-1], abs=1e-9)

    def test_a_negative_iteration_count_is_refused(self):
        with pytest.raises(ValueError, match="iters must be >= 0, got -4"):
            diliberto_straus(xy, UNIT, iters=-4)

    def test_a_callable_returning_a_scalar_is_a_constant(self):
        one = lambda x, y: 1.0
        norms, (g1, g2) = diliberto_straus(one, UNIT, iters=2)
        assert norms == [1.0, 0.0, 0.0]
        assert float(g1(0.5) + g2(0.5)) == 1.0
        assert best_uniform(one, UNIT).error == 0.0


def mixed_condition_check_oracle(f, dom, grid_n=21, tol=None):
    """The three-stencil check that ``mixed_condition_check`` replaced:
    D11, D22 and D12 of f by central differences of step h in x-space,
    combined as D12*(a1*b2 + a2*b1) - D11*a2*b2 - D22*a1*b1."""
    a, b = dom.a, dom.b
    y1 = np.linspace(dom.c1, dom.d1, grid_n)
    y2 = np.linspace(dom.c2, dom.d2, grid_n)
    Y1, Y2 = np.meshgrid(y1, y2, indexing="ij")
    X, Y = dom.to_xy(Y1, Y2)
    span = max(X.max() - X.min(), Y.max() - Y.min(), 1e-9)
    h = span / grid_n / 8.0

    def d11(x, y):
        return (f(x + h, y) - 2.0 * f(x, y) + f(x - h, y)) / h**2

    def d22(x, y):
        return (f(x, y + h) - 2.0 * f(x, y) + f(x, y - h)) / h**2

    def d12(x, y):
        return (f(x + h, y + h) - f(x + h, y - h)
                - f(x - h, y + h) + f(x - h, y - h)) / (4.0 * h**2)

    expr = (d12(X, Y) * (a[0] * b[1] + a[1] * b[0])
            - d11(X, Y) * a[1] * b[1] - d22(X, Y) * a[0] * b[0])
    if tol is None:
        fmax = float(np.max(np.abs(f(X, Y))))
        tol = 1e-8 * (1.0 + fmax)
    worst = int(np.argmin(expr))
    wv = float(expr.flat[worst])
    wp = (float(X.flat[worst]), float(Y.flat[worst]))
    return {"passed": bool(wv >= -tol), "worst_value": wv,
            "worst_point": wp, "tol": tol}


# the axes and four skew pairs, with the bounds of y1 = a.x and y2 = b.x
CHECK_DOMAINS = [
    ((1, 0), (0, 1), (0.0, 1.0, -0.5, 1.0)),
    ((1, 1), (1, -1), (-1.0, 1.0, -1.0, 1.0)),
    ((2, 1), (1, -1), (-0.5, 1.0, 0.0, 1.2)),
    ((1, 2), (-1, 1), (0.0, 1.5, -1.0, 0.5)),
    ((1, 0), (1, 1), (-1.0, 0.5, 0.0, 2.0)),
]


def _ridge_sum(g1, g2):
    """The exact ridge sum g1(a.x) + g2(b.x) on a domain."""
    def on(dom):
        def f(x, y):
            u = dom.a[0] * np.asarray(x) + dom.a[1] * np.asarray(y)
            v = dom.b[0] * np.asarray(x) + dom.b[1] * np.asarray(y)
            return g1(u) + g2(v)
        return f
    return on


CHECK_FUNCTIONS = {
    # the oracle's central differences are exact on cubics, so the two
    # checks see the same (zero) quantity up to rounding
    "cubic ridge sum": _ridge_sum(lambda u: u**2, lambda v: v**3 - v),
    "sin(3*x1)*cos(2*x2)": lambda dom: (
        lambda x, y: np.sin(3 * x) * np.cos(2 * y)),
    "x1*x2": lambda dom: xy,
    "-x1*x2": lambda dom: (lambda x, y: -xy(x, y)),
    "exp(0.7*x1 + 0.4*x2)": lambda dom: (
        lambda x, y: np.exp(0.7 * x + 0.4 * y)),
    "x1^3*x2 - x1*x2^2": lambda dom: (lambda x, y: x**3 * y - x * y**2),
    "cos(x1 - 2*x2) + x1^2*x2": lambda dom: (
        lambda x, y: np.cos(x - 2 * y) + x**2 * y),
}


@pytest.mark.parametrize("name", sorted(CHECK_FUNCTIONS))
@pytest.mark.parametrize("a,b,bounds", CHECK_DOMAINS)
def test_mixed_condition_check_matches_the_three_stencil_oracle(a, b, bounds,
                                                                name):
    dom = ParallelogramDomain(a, b, *bounds)
    f = CHECK_FUNCTIONS[name](dom)
    got = mixed_condition_check(f, dom)
    want = mixed_condition_check_oracle(f, dom)
    assert got["tol"] == want["tol"]
    assert got["passed"] == want["passed"]
    assert got["worst_value"] == pytest.approx(want["worst_value"], rel=1e-3,
                                               abs=want["tol"])
    # the value at the reported node, recomputed from the pullback's four
    # points: tied nodes (a ridge sum ties all of them) may differ from the
    # oracle's, the value there may not
    g = dom.grid(21)
    i, j = np.argwhere((g.X == got["worst_point"][0])
                       & (g.Y == got["worst_point"][1]))[0]
    k1 = (dom.d1 - dom.c1) / 20 / 8
    k2 = (dom.d2 - dom.c2) / 20 / 8
    f1 = pullback(f, dom)
    y1, y2 = g.y1[i], g.y2[j]
    corner = ((f1(y1 + k1, y2 + k2) - f1(y1 + k1, y2 - k2))
              - f1(y1 - k1, y2 + k2)) + f1(y1 - k1, y2 - k2)
    assert got["worst_value"] == pytest.approx(
        corner * dom.det**2 / (4 * k1 * k2), rel=1e-12, abs=1e-3 * got["tol"])


@pytest.mark.parametrize("a,b,bounds", CHECK_DOMAINS)
def test_transcendental_ridge_sums_pass(a, b, bounds):
    # the pullback of a ridge sum has zero double differences, so the check
    # passes on every domain; the oracle's three stencils carry truncation
    # errors of order h^2 that cancel only along the axes and the
    # diagonals, and along (2,1), (1,-1) and (1,2), (-1,1) they exceed tol
    dom = ParallelogramDomain(a, b, *bounds)
    f = _ridge_sum(lambda u: u**2 + np.exp(0.3 * u), np.sin)(dom)
    got = mixed_condition_check(f, dom)
    assert got["passed"] and abs(got["worst_value"]) <= 1e-2 * got["tol"]
    oracle_fails = (a, b) in [((2, 1), (1, -1)), ((1, 2), (-1, 1))]
    assert mixed_condition_check_oracle(f, dom)["passed"] != oracle_fails
