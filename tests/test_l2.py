import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ridgekit import l2
from ridgekit.core import gauss_nodes, parse_expression
from ridgekit.l2 import NotAnRSet, best_l2, build_rset, l2_error

# 4-D example: directions e1, e2, e3, e3+e4 with empty completion
DIRS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1)]
YBOX = [(0, 1), (0, 1), (0, 1), (0, 1)]


# weights 1 + x1 and 1 + x2 along the axes of the unit square
W_AXES = [lambda x, y: 1 + np.asarray(x) + 0 * np.asarray(y),
          lambda x, y: 1 + np.asarray(y) + 0 * np.asarray(x)]


def product4(x1, x2, x3, x4):
    return (np.asarray(x1) * np.asarray(x2)
            * np.asarray(x3) * np.asarray(x4))


class TestBuildRSet:
    def test_unimodular_transform(self):
        t = build_rset(DIRS, [], YBOX)
        assert float(t.detJ) == pytest.approx(1.0)

    def test_transform_needing_a_row_swap_is_exact(self):
        # the first column of J = [[0, 2], [1, 1]] has its pivot in row 2
        t = build_rset([(0, 2), (1, 1)], [], [(0, 1), (0, 1)])
        assert t.detJ == Fraction(-2)
        assert isinstance(t.detJ, Fraction)
        product = [[sum(t.Jinv[i][k] * t.J[k][j] for k in range(2))
                    for j in range(2)] for i in range(2)]
        assert product == [[1, 0], [0, 1]]
        assert all(isinstance(v, Fraction) for row in t.Jinv for v in row)

    def test_rational_directions_and_completion_are_exact(self):
        # J over its common denominator 42 is eliminated in integers:
        # det J = det(42 J) / 42^3 and J^{-1} = the right block / last pivot
        dirs = [(Fraction(1, 2), Fraction(1, 3), 0), "-2/7 1 1/6"]
        comp = [(0, Fraction(3, 7), Fraction(-1, 2))]
        t = build_rset(dirs, comp, [(0, 1)] * 3)
        (a, b, c), (d, e, f), (g, h, i) = t.J
        assert t.detJ == a * (e * i - f * h) - b * (d * i - f * g) \
            + c * (d * h - e * g) == Fraction(-1, 3)
        assert isinstance(t.detJ, Fraction)
        product = [[sum(t.Jinv[i][k] * t.J[k][j] for k in range(3))
                    for j in range(3)] for i in range(3)]
        assert product == [[int(i == j) for j in range(3)] for i in range(3)]
        assert all(isinstance(v, Fraction) for row in t.Jinv for v in row)

    def test_singular_directions_rejected(self):
        with pytest.raises(NotAnRSet):
            build_rset([(1, 0), (1, 0)], [], [(0, 1), (0, 1)])

    def test_dependent_square_system_rejected(self):
        with pytest.raises(NotAnRSet):
            build_rset([(1, 0), (0, 1), (1, 1)], [], [(0, 1)] * 3)


class TestBestL2:
    def test_ridge_sum_input_has_zero_error(self):
        t = build_rset([(1, 0), (0, 1)], [], [(0, 1), (0, 1)])
        sol = best_l2(lambda x, y: np.sin(np.asarray(x)) + np.asarray(y)**2,
                      t, nodes=16)
        assert sol.error <= 1e-6

    def test_projection_orthogonality(self):
        # residual of the best approximation is orthogonal to each
        # single-direction ridge component on a quadrature grid
        t = build_rset([(1, 0), (0, 1)], [], [(0, 1), (0, 1)])
        f = lambda x, y: np.asarray(x) * np.asarray(y)
        sol = best_l2(f, t, nodes=16)
        xs = np.linspace(0.01, 0.99, 40)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        resid = f(X, Y) - sol(X, Y)
        # mean of residual over each fiber must vanish
        assert float(np.max(np.abs(resid.mean(axis=1)))) <= 1e-8
        assert float(np.max(np.abs(resid.mean(axis=0)))) <= 1e-8

    def test_closed_error_matches_direct_quadrature(self):
        t = build_rset([(1, 0), (0, 1)], [], [(0, 1), (0, 1)])
        f = lambda x, y: np.asarray(x) * np.asarray(y)
        sol = best_l2(f, t, nodes=24)
        err = l2_error(f, t, nodes=24)
        assert sol.error == pytest.approx(err, abs=1e-12)
        xs = np.linspace(0.001, 0.999, 200)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        resid2 = (f(X, Y) - sol(X, Y)) ** 2
        direct = math.sqrt(float(resid2.mean()))
        assert abs(direct - sol.error) <= 1e-3

    def test_weighted_path_agrees_with_unweighted_for_unit_weight(self):
        t = build_rset([(1, 0), (0, 1)], [], [(0, 1), (0, 1)])
        f = lambda x, y: np.asarray(x) * np.asarray(y)
        base = best_l2(f, t, nodes=16)
        ones = [lambda x, y: np.ones_like(np.asarray(x, dtype=float))] * 2
        weighted = best_l2(f, t, weights=ones, nodes=16)
        assert weighted.error == pytest.approx(base.error, abs=1e-8)

    def test_weighted_components_satisfy_their_fixed_point(self):
        # the solved tables meet g_j = avg_j((f* - w_i g_i) w_j) /
        # avg_j(w_j^2) at the knots, the averages over the other axis; two
        # different weights, so each component has its own denominator
        t = build_rset([(1, 0), (0, 1)], [], [(0, 1), (0, 1)])
        f = lambda x, y: np.asarray(x) * np.asarray(y) + np.sin(x)
        w = [lambda x, y: 1 + np.asarray(x) + 0 * np.asarray(y),
             lambda x, y: 2 + np.asarray(y) + 0 * np.asarray(x)]
        sol = best_l2(f, t, weights=w, nodes=8)
        s, ws = np.polynomial.legendre.leggauss(8)
        s, ws = (s + 1) / 2, ws / 2
        for j in range(2):
            i = 1 - j
            yj = sol.components[j].knots
            Yj, S = np.meshgrid(yj, s, indexing="ij")
            X, Y = (Yj, S) if j == 0 else (S, Yj)
            ys = (X, Y)
            resid = f(X, Y) - w[i](X, Y) * sol.components[i](ys[i])
            num = (resid * w[j](X, Y)) @ ws
            den = (w[j](X, Y) ** 2) @ ws
            assert np.max(np.abs(num / den - sol.components[j].values)) \
                <= 1e-10

    def test_weighted_solution_is_the_weighted_sum(self):
        # a weighted fit approximates f by sum_j w_j(x) g_j(a_j . x): that
        # is the function the solution evaluates, and its L2 distance from
        # f on the error's own quadrature grid is the reported error
        t = build_rset([(1, 0), (0, 1)], [], [(0, 1), (0, 1)])
        f = lambda x, y: (np.asarray(x) + 2 * np.asarray(y) ** 2
                          + np.asarray(x) * np.asarray(y))
        w = [lambda x, y: 1 + np.asarray(x) + 0 * np.asarray(y),
             lambda x, y: 1 + np.asarray(y) + 0 * np.asarray(x)]
        sol = best_l2(f, t, weights=w, nodes=8)
        g1, g2 = sol.components
        want = w[0](0.3, 0.7) * g1(0.3) + w[1](0.3, 0.7) * g2(0.7)
        assert sol(0.3, 0.7) == pytest.approx(want, rel=1e-12)
        assert sol(0.3, 0.7) == pytest.approx(1.52999, abs=1e-5)
        s, ws = np.polynomial.legendre.leggauss(8)
        s, ws = (s + 1) / 2, ws / 2
        X, Y = np.meshgrid(s, s, indexing="ij")
        err_sq = ws @ (f(X, Y) - sol(X, Y)) ** 2 @ ws
        assert math.sqrt(err_sq) == pytest.approx(sol.error, rel=1e-9)

    def test_weighted_fit_with_nearly_meeting_subspaces(self):
        # (1 + x1) g1(x1) + (1 + x2) g2(x2) vanishes for g1 = 1/(1 + x1),
        # g2 = -1/(1 + x2), which the knot tables nearly reach: damped
        # sweeps crawl along that direction, one solve does not
        t = build_rset([(1, 0), (0, 1)], [], [(0, 1), (0, 1)])
        f = lambda x, y: np.exp(np.asarray(x) * np.asarray(y))
        sol = best_l2(f, t, weights=W_AXES)
        assert sol.error == pytest.approx(0.141100261376, abs=1e-9)
        assert sol.diagnostics["rank"] == 258

    def test_weighted_fit_of_a_weighted_ridge_sum_is_exact(self):
        # x1 + x2^2 = (1 + x1) * 1 + (1 + x2) * (x2 - 1)
        t = build_rset([(1, 0), (0, 1)], [], [(0, 1), (0, 1)])
        f = lambda x, y: np.asarray(x) + np.asarray(y) ** 2
        sol = best_l2(f, t, weights=W_AXES)
        assert sol.error < 1e-12
        g1, g2 = sol.components
        assert np.max(np.abs(g1.values - 1)) <= 1e-8
        assert np.max(np.abs(g2.values - (g2.knots - 1))) <= 1e-8

    def test_weight_vanishing_at_a_knot_gives_the_minimum_norm_table(self):
        # the weight x1 vanishes at the knot 0, whose equation is then 0 = 0:
        # the solve sets g(0) = 0 and every other value is exp(y) / y
        t = build_rset([(1,)], [], [(0, 1)])
        sol = best_l2(lambda x: np.exp(x), t,
                      weights=[lambda x: np.asarray(x)], nodes=8)
        g = sol.components[0]
        assert np.all(np.isfinite(g.values))
        assert g.values[0] == pytest.approx(0, abs=1e-12)
        assert np.allclose(g.values[1:], np.exp(g.knots[1:]) / g.knots[1:],
                           rtol=1e-12)
        assert sol.error == pytest.approx(0.00931, abs=1e-5)
        assert sol.diagnostics["rank"] == 128

    def test_weights_must_match_the_directions(self):
        t = build_rset([(1, 0), (0, 1)], [], [(0, 1), (0, 1)])
        f = lambda x, y: np.asarray(x) * np.asarray(y)
        for w in (W_AXES[:1], W_AXES + W_AXES[:1]):
            with pytest.raises(ValueError, match="one weight per direction"):
                best_l2(f, t, weights=w)

    def test_fi_norm_sq_on_a_box_of_non_unit_volume(self):
        # f* = y1 on [0, 2] x [0, 3]: fbar_1 = 3 y1 and fbar_2 = 2, so
        # ||fbar_1||^2 = 9 * 8/3 * 3 and ||fbar_2||^2 = 4 * 6 over Y
        t = build_rset([(1, 0), (0, 1)], [], [(0, 2), (0, 3)])
        sol = best_l2(lambda x, y: np.asarray(x) + 0 * np.asarray(y), t,
                      nodes=8)
        assert sol.diagnostics["fi_norm_sq"] == pytest.approx([72, 24],
                                                              rel=1e-12)

    def test_four_dim_diagnostics(self):
        t = build_rset(DIRS, [], YBOX)
        sol = best_l2(product4, t, nodes=16)
        assert "A" in sol.diagnostics and "detJ" in sol.diagnostics
        assert sol.error >= 0.0


def _closed_form_error_reevaluated(fstar, t, nodes, A, norm_sq):
    """The closed-form error as it was computed before fbar_j was read off
    the tensor grid: f* evaluated again on each slice grid."""
    total_vol, omit_vols = t.volumes()
    radicand = norm_sq + (t.r - 1) * A**2 / total_vol
    fi_norm_sq = []
    for j in range(t.r):
        yj, wj = gauss_nodes(*t.ybox[j], nodes)
        grid = l2._slice_grid(t, j, yj, nodes)
        fbar = l2._average(fstar(*grid[0]), grid) * omit_vols[j]
        fbar_sq = float(np.sum(fbar**2 * wj))
        radicand -= fbar_sq / omit_vols[j]
        fi_norm_sq.append(omit_vols[j] * fbar_sq)
    if radicand < -1e-12:
        raise ArithmeticError(
            f"negative radicand {radicand:.3e}: quadrature failure")
    return (max(radicand, 0.0) / abs(float(t.detJ))) ** 0.5, fi_norm_sq


def _outcome(fn):
    """(error, fi_norm_sq) as float hex, or the exception raised."""
    try:
        err, fi = fn()
    except ArithmeticError as exc:
        return repr(exc)
    return err.hex(), [v.hex() for v in fi]


TARGETS = ["sin(x1 + 2*x{n}) * exp(0.3*x2)",
           "exp(x1*x2) + log(1 + x1^2 + x{n}^2)",
           "log(2 + sin(x{n})) * cos(x1 - x2)",
           "x1*x2*x{n} + exp(-x{n}^2)"]


@st.composite
def rset_problems(draw):
    """A random r-set in 2-4 D (integer rows, r of them directions), its
    image box, a target with sin, exp or log, and a node count."""
    n = draw(st.integers(2, 4))
    r = draw(st.integers(1, n))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n,
                                  max_size=n), min_size=n, max_size=n))
    assume(round(np.linalg.det(np.array(rows, dtype=float))) != 0)
    ybox = [(lo, lo + w) for lo, w in draw(st.lists(
        st.tuples(st.floats(-1, 1), st.floats(0.25, 1.5)),
        min_size=n, max_size=n))]
    expr = draw(st.sampled_from(TARGETS)).format(n=n)
    nodes = draw(st.integers(2, 6 if n == 4 else 9))
    return build_rset(rows[:r], rows[r:], ybox), expr, nodes


class TestClosedFormOffTheTensorGrid:
    @settings(max_examples=60, deadline=None)
    @given(rset_problems())
    def test_matches_the_reevaluating_code_bit_for_bit(self, case):
        t, expr, nodes = case
        fstar = t.pullback(parse_expression(expr, t.n))
        A, norm_sq, vals = l2._integrals(fstar, t.ybox, nodes)
        want = _outcome(lambda: _closed_form_error_reevaluated(
            fstar, t, nodes, A, norm_sq))
        got = _outcome(lambda: l2._closed_form_error(t, nodes, A, norm_sq,
                                                     vals))
        assert got == want
        if isinstance(want, tuple):
            f = parse_expression(expr, t.n)
            assert l2_error(f, t, nodes=nodes).hex() == want[0]
            sol = best_l2(f, t, nodes=nodes)
            assert sol.error.hex() == want[0]
            assert [v.hex() for v in sol.diagnostics["fi_norm_sq"]] \
                == want[1]

    def test_a_callable_that_returns_a_scalar(self):
        # its values on the tensor grid are one number, broadcast
        t = build_rset([(1, 1), (1, -1)], [], [(0, 1), (0, 2)])
        fstar = t.pullback(lambda x, y: 3.0)
        A, norm_sq, vals = l2._integrals(fstar, t.ybox, 4)
        assert np.shape(vals) == ()
        want = _outcome(lambda: _closed_form_error_reevaluated(
            fstar, t, 4, A, norm_sq))
        assert _outcome(lambda: l2._closed_form_error(
            t, 4, A, norm_sq, vals)) == want
        # fi_norm_sq[j] = |Y^(j)| * |Y_j| * (3 |Y^(j)|)^2
        assert [float.fromhex(v) for v in want[1]] == \
            pytest.approx([72.0, 18.0])


class TestNodeBudget:
    @pytest.mark.parametrize("n,admitted", [(1, 1414), (2, 1414), (3, 124),
                                            (4, 24)])
    def test_the_largest_admitted_count(self, n, admitted):
        t = build_rset([[int(i == j) for j in range(n)] for i in range(n)],
                       [], [(0, 1)] * n)
        l2._check_nodes(t, admitted)
        with pytest.raises(ValueError, match=f"^{admitted + 1} Gauss nodes"):
            l2._check_nodes(t, admitted + 1)

    @pytest.mark.parametrize("fn", [best_l2, l2_error])
    def test_library_calls_refuse_before_the_rule_is_made(self, fn,
                                                          monkeypatch):
        def leggauss(*args):
            raise AssertionError("leggauss called")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", leggauss)
        t = build_rset(DIRS, [], YBOX)
        with pytest.raises(ValueError, match="more than the maximum"):
            fn(product4, t, nodes=25)
