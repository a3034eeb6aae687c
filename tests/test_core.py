import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgekit.core import (
    DirectionSet,
    PointConfig,
    RidgeSum,
    UnivariateTable,
    centred_differences,
    double_differences,
    gauss_grid,
    grid_minimax_oracle,
    max_cycle_mean,
    parse_expression,
    parse_vector,
    rational,
    tensor_quadrature,
)


class TestRational:
    def test_decimal_string_is_exact(self):
        assert rational("0.1") == Fraction(1, 10)
        assert rational("-2.5") == Fraction(-5, 2)
        assert rational("3/7") == Fraction(3, 7)

    def test_float_is_converted_exactly(self):
        assert rational(0.5) == Fraction(1, 2)
        assert rational(0.25) == Fraction(1, 4)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_fraction_round_trip(self, p, q):
        f = Fraction(p, q)
        assert rational(str(f)) == f

    def test_parse_vector_forms(self):
        assert parse_vector("1, 2, 3") == (1, 2, 3)
        assert parse_vector("0.5 -1/3") == (Fraction(1, 2), Fraction(-1, 3))
        assert parse_vector((1, "1/2")) == (1, Fraction(1, 2))


class TestConfigs:
    def test_points_must_be_distinct(self):
        with pytest.raises(ValueError):
            PointConfig(2, [(0, 0), (0, 0)])

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            PointConfig(2, [(0, 0, 0)])

    def test_parallel_directions_rejected(self):
        with pytest.raises(ValueError):
            DirectionSet(2, [(1, 2), (2, 4)])

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            DirectionSet(2, [(0, 0)])


class TestExpressions:
    def test_polynomial(self):
        f = parse_expression("x1^3 + 2*x1 - 1", 1)
        assert f(2.0) == pytest.approx(11.0)

    def test_multivariate_and_functions(self):
        f = parse_expression("sin(x1)*x2 + exp(-x2)", 2)
        assert f(1.0, 0.0) == pytest.approx(1.0)
        assert f(1.0, 2.0) == pytest.approx(2 * math.sin(1.0) + math.exp(-2.0))

    def test_vectorized(self):
        f = parse_expression("x1*x2", 2)
        out = f(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.allclose(out, [3.0, 8.0])

    def test_syntax_error_reported(self):
        with pytest.raises(ValueError):
            parse_expression("x1 +", 1)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            parse_expression("x3", 2)

    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=50)
    def test_matches_reference(self, x, y):
        f = parse_expression("x1^2*x2 - cos(x1 + x2)", 2)
        assert f(x, y) == pytest.approx(x * x * y - math.cos(x + y), abs=1e-12)


class TestUnivariateTable:
    def test_interpolates_linearly(self):
        t = UnivariateTable([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert t(0.5) == pytest.approx(1.0)
        assert np.allclose(t(np.array([0.0, 2.0])), [0.0, 0.0])

    def test_out_of_range_raises(self):
        t = UnivariateTable([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            t(3.0)

    def test_nonincreasing_knots_rejected(self):
        with pytest.raises(ValueError):
            UnivariateTable([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


class TestRidgeSum:
    def test_evaluates_sum_of_ridge_terms(self):
        rs = RidgeSum([((1, 0), lambda t: t**2), ((0, 1), np.sin)], dim=2)
        assert rs(2.0, 0.5) == pytest.approx(4.0 + math.sin(0.5))


class TestDoubleDifferences:
    def test_cells_of_a_product_carry_their_area(self):
        xs = np.array([0.0, 0.5, 2.0])
        ys = np.array([1.0, 1.25, 2.0, 4.0])
        D = double_differences(lambda x, y: x * y, xs, ys)
        assert D.shape == (2, 3)
        assert np.allclose(D, np.outer(np.diff(xs), np.diff(ys)))

    def test_stencil_order(self):
        # ((F11 - F10) - F01) + F00, left to right, with no reassociation
        F = {(0, 0): 0.1, (0, 1): 1e16, (1, 0): 1.0, (1, 1): 1e16}
        D = double_differences(lambda x, y: np.vectorize(
            lambda i, j: F[int(i), int(j)])(x, y), [0, 1], [0, 1])
        assert D[0, 0] == ((1e16 - 1.0) - 1e16) + 0.1

    def test_additive_sums_vanish(self):
        xs = np.linspace(-1, 1, 7)
        D = double_differences(lambda x, y: np.sin(x) + y**2, xs, xs)
        assert np.max(np.abs(D)) <= 1e-15

    def test_centred_cells_around_nodes(self):
        xs, ys = np.array([0.0, 1.0]), np.array([2.0, 3.0, 5.0])
        D = centred_differences(lambda x, y: x * y * y, xs, ys, 0.1, 0.2)
        # over [x-hx, x+hx] x [y-hy, y+hy]: 2*hx * ((y+hy)^2 - (y-hy)^2)
        want = np.outer(np.full(2, 0.2), 4 * 0.2 * ys)
        assert D.shape == (2, 3) and np.allclose(D, want)


class TestQuadratureAndOracle:
    def test_gauss_grid_weights_and_mesh(self):
        mesh, w = gauss_grid([(0.0, 1.0), (-1.0, 3.0), (2.0, 2.5)], 3)
        assert len(mesh) == 3 and w.shape == mesh[0].shape == (3, 3, 3)
        assert float(np.sum(w)) == pytest.approx(2.0, abs=1e-14)
        assert float(np.sum(w * mesh[1])) == pytest.approx(2.0, abs=1e-14)
        mesh, w = gauss_grid([], 4)
        assert mesh == [] and w.shape == () and float(w) == 1.0

    def test_tensor_quadrature_exact_for_polynomials(self):
        val = tensor_quadrature(lambda x, y: x * x * y,
                                [(0.0, 1.0), (0.0, 2.0)], 8)
        assert val == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_minimax_oracle_on_separable_function(self):
        # xy on the unit-square grid: best error by sums g(x)+h(y) is 1/4
        xs = np.linspace(0, 1, 21)
        pts = np.array([(x, y) for x in xs for y in xs])
        err = grid_minimax_oracle(lambda x, y: x * y, [(1, 0), (0, 1)], pts)
        assert err == pytest.approx(0.25, abs=5e-3)

    def test_minimax_oracle_tables_attain_the_error(self):
        # one table per direction, knotted at that direction's fiber values;
        # the ridge sum they define attains the LP error on the grid
        pts = [(Fraction(i, 3), Fraction(j, 3))
               for i in range(4) for j in range(4)]
        dirs = [(1, 0), (1, 1), (1, -1)]
        f = lambda x, y: np.sin(3 * x) * np.cos(2 * y)
        err, tables = grid_minimax_oracle(f, dirs, pts, return_tables=True)
        assert len(tables) == len(dirs)
        for a, (knots, _) in zip(dirs, tables):
            assert knots == sorted({float(a[0] * x + a[1] * y)
                                    for x, y in pts})
        worst = max(
            abs(f(float(x), float(y)) - sum(
                vals[knots.index(float(a[0] * x + a[1] * y))]
                for a, (knots, vals) in zip(dirs, tables)))
            for x, y in pts)
        assert err > 0.01
        assert worst == pytest.approx(err, abs=1e-7)

    def test_minimax_oracle_zero_for_ridge_input(self):
        xs = np.linspace(0, 1, 11)
        pts = np.array([(x, y) for x in xs for y in xs])
        err = grid_minimax_oracle(lambda x, y: x + np.sin(y),
                                  [(1, 0), (0, 1)], pts)
        assert abs(err) <= 1e-9


def _tabulated_lp(pts, vals):
    """grid_minimax_oracle along the axes on integer points with the given
    values."""
    table = dict(zip(pts, vals))
    return grid_minimax_oracle(lambda x, y: table[(int(x), int(y))],
                               [(1, 0), (0, 1)], pts)


def _forest(data):
    """A set whose fiber graph is acyclic: each new point shares its row or
    its column with an earlier point and opens a fresh fiber for the
    other."""
    pts = [(0, 0)]
    rows, cols = 1, 1
    for _ in range(data.draw(st.integers(0, 12))):
        x, y = data.draw(st.sampled_from(pts))
        if data.draw(st.booleans()):
            pts.append((x, cols))
            cols += 1
        else:
            pts.append((rows, y))
            rows += 1
    return pts


class TestMaxCycleMean:
    def check(self, pts, vals):
        err, cycle = max_cycle_mean([p[0] for p in pts], [p[1] for p in pts],
                                    vals)
        lp = _tabulated_lp(pts, vals)
        assert err == pytest.approx(lp, rel=1e-12, abs=1e-12)
        if err == 0.0:
            assert cycle == []
            return err
        # a closed bolt: distinct points, a shared column then a shared row
        # in turn, whose alternating mean is the error
        assert len(cycle) >= 4 and len(set(cycle)) == len(cycle)
        for k, i in enumerate(cycle):
            j = cycle[(k + 1) % len(cycle)]
            assert pts[i][1 - k % 2] == pts[j][1 - k % 2]
        alt = sum((-1) ** k * vals[i] for k, i in enumerate(cycle))
        assert alt / len(cycle) == pytest.approx(err, rel=1e-12)
        return err

    @settings(deadline=None)
    @given(st.data())
    def test_matches_the_lp_on_scattered_sets(self, data):
        pts = data.draw(st.lists(st.tuples(st.integers(0, 6),
                                           st.integers(0, 6)),
                                 min_size=1, max_size=30, unique=True))
        vals = data.draw(st.lists(st.floats(-10, 10), min_size=len(pts),
                                  max_size=len(pts)))
        self.check(pts, vals)

    @settings(deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_matches_the_lp_on_grids_with_ties(self, n1, n2, data):
        pts = [(i, j) for i in range(n1) for j in range(n2)]
        vals = data.draw(st.lists(st.integers(-2, 2).map(float),
                                  min_size=len(pts), max_size=len(pts)))
        self.check(pts, vals)

    @settings(deadline=None)
    @given(st.data())
    def test_forests_give_zero(self, data):
        pts = _forest(data)
        vals = data.draw(st.lists(st.floats(-10, 10), min_size=len(pts),
                                  max_size=len(pts)))
        assert self.check(pts, vals) == 0.0

    def test_raveled_grid_of_a_ridge_sum_gives_zero(self):
        F = np.sin(np.arange(5.0))[:, None] + np.arange(7.0)[None, :] ** 2
        err, cycle = max_cycle_mean(*np.indices(F.shape).reshape(2, -1), F)
        assert err == pytest.approx(0.0, abs=1e-12)
