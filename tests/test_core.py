import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgekit.core import (
    DirectionSet,
    ExprError,
    PointConfig,
    RidgeSum,
    UnivariateTable,
    _integer_coordinates,
    _legendre_rule,
    _read_number,
    bareiss,
    centred_differences,
    double_differences,
    format_ast,
    gauss_grid,
    gauss_nodes,
    grid_minimax_oracle,
    max_cycle_mean,
    parse_expression,
    parse_vector,
    rational,
)


def dot(a, x):
    """The dot product in the entries' own arithmetic."""
    return sum(ai * xi for ai, xi in zip(a, x))


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

    @given(st.data())
    def test_reader_gives_the_value_fraction_gives(self, data):
        sign = st.sampled_from(["", "+", "-"])
        digits = st.lists(st.text("0123456789", min_size=1, max_size=4),
                          min_size=1, max_size=3).map("_".join)
        exponent = st.integers(0, 40).map(str)
        form = data.draw(st.sampled_from(
            ["integer", "decimal", "exponent", "ratio"]))
        text = data.draw(sign) + data.draw(digits)
        if form == "decimal":
            tail = data.draw(st.one_of(st.just(""), digits))
            if tail and data.draw(st.booleans()):
                text = text.rstrip("0123456789_")   # ".5", "-.25"
            text += "." + tail
        elif form == "exponent":
            text += (data.draw(st.sampled_from(["", "."]))
                     + data.draw(st.sampled_from("eE"))
                     + data.draw(sign) + data.draw(exponent))
        elif form == "ratio":
            text += "/" + data.draw(digits.filter(lambda d: int(d) != 0))
        space = st.sampled_from(["", " ", "\t", " \n"])
        text = data.draw(space) + text + data.draw(space)
        value = _read_number(text)
        assert value == Fraction(text)
        assert type(value) is (int if form == "integer" else Fraction)

    def test_reader_rejects_what_names_no_number(self):
        with pytest.raises(ZeroDivisionError):
            _read_number("1/0")
        for text in ["abc", "inf", "nan", "1.2.3"]:
            with pytest.raises(ValueError):
                _read_number(text)

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

    def test_errors_print_coordinates_as_fractions(self):
        with pytest.raises(ValueError, match=r"^point \(1, 1/3, 0\) does "):
            PointConfig(2, [(0, 0), (1, Fraction(1, 3), 0.0)])
        with pytest.raises(ValueError, match=r"^direction \(1/2\) does "):
            DirectionSet(2, [("0.5",)])
        with pytest.raises(ValueError, match=r"^zero direction \(0, 0\) "):
            DirectionSet(2, [(1, 1), (Fraction(0), 0)])

    def test_integer_coordinates_over_one_denominator(self):
        pts = PointConfig(2, [(1, "1/2"), (0.25, Fraction(-2, 3))])
        assert pts.den == 12
        assert pts.ints == [(12, 6), (3, -8)]
        assert pts.points == [(1, Fraction(1, 2)),
                              (Fraction(1, 4), Fraction(-2, 3))]
        assert all(type(c) is Fraction for p in pts for c in p)

    def test_numpy_integers_are_read_as_python_ints(self):
        pts = [(0, 0), (3, -1), (2**40, 7)]
        dirs = [(1, 0), (2, -1)]
        for cls, rows in ((PointConfig, pts), (DirectionSet, dirs)):
            want = cls(2, rows)
            got = cls(2, np.array(rows, dtype=np.int64))
            assert (got.ints, got.den) == (want.ints, want.den)
            assert all(type(c) is int for row in got.ints for c in row)
        assert type(rational(np.int64(-3)).numerator) is int
        assert rational(np.uint8(200)) == 200


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

    def test_constant_broadcasts_like_an_expression(self):
        f, g = parse_expression("2*pi", 2), parse_expression("2*pi + 0*x1 + 0*x2", 2)
        assert f(0.5, 1.0) == g(0.5, 1.0) == 2 * math.pi
        assert np.ndim(f(0.5, 1.0)) == 0
        xs, ys = np.zeros((3, 1)), np.ones(4)
        assert np.array_equal(f(xs, ys), g(xs, ys))
        assert f(xs, ys).shape == (3, 4)

    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=50)
    def test_matches_reference(self, x, y):
        f = parse_expression("x1^2*x2 - cos(x1 + x2)", 2)
        assert f(x, y) == pytest.approx(x * x * y - math.cos(x + y), abs=1e-12)

    @pytest.mark.parametrize("text, value", [
        ("1e8", 1e8), ("2.5e-3", 2.5e-3), ("1E+2", 100.0), (".5e1", 5.0)])
    def test_an_exponent_literal_is_one_number(self, text, value):
        assert parse_expression(text, 1).ast == ("const", value)
        assert parse_expression(f"{text}*x1", 1).ast == \
            ("*", ("const", value), ("var", 0))

    @pytest.mark.parametrize("text", ["0.00001*x1", "x1 + 1e16",
                                      "-2.5e-3*x1^2"])
    def test_format_ast_round_trips_an_exponent(self, text):
        ast = parse_expression(text, 1).ast
        assert parse_expression(format_ast(ast), 1).ast == ast

    @pytest.mark.parametrize("text", ["2e", "2E", "1e+", "2exp(x1)",
                                      "2e-x1", "2e3x1"])
    def test_an_e_without_exponent_digits_is_an_error(self, text):
        with pytest.raises(ExprError):
            parse_expression(text, 1)

    @pytest.mark.parametrize("text, ast", [
        ("e", ("const", math.e)),
        ("2*e", ("*", ("const", 2.0), ("const", math.e))),
        ("2^e-3", ("-", ("^", ("const", 2.0), ("const", math.e)),
                   ("const", 3.0))),
        ("exp(1)", ("call", "exp", ("const", 1.0))),
    ])
    def test_the_constant_e_reads_as_before(self, text, ast):
        assert parse_expression(text, 1).ast == ast

    @pytest.mark.parametrize("text, name, pos", [
        ("x1²", "x1²", 0), ("x²", "x²", 0), ("2 + x1²*x2", "x1²", 4),
        ("x2Ⅻ", "x2Ⅻ", 0)])
    def test_x_with_non_decimal_digits_is_an_unknown_identifier(
            self, text, name, pos):
        # superscripts are digits to str.isdigit but not to int()
        with pytest.raises(ExprError, match=re.escape(
                f"unknown identifier {name!r} (at position {pos})")):
            parse_expression(text, 2)

    def test_every_decimal_variable_still_reads(self):
        assert parse_expression("x٣", 3).ast == ("var", 2)
        assert parse_expression("x02", 2).ast == ("var", 1)


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

    def test_sample_calls_fn_on_all_knots_at_once(self):
        # one array call; a constant fn gives a scalar, spread to every knot
        t = UnivariateTable.sample(np.sin, 0.0, 2.0)
        assert len(t.knots) == 201
        assert np.array_equal(t.values, np.sin(t.knots))
        assert np.array_equal(UnivariateTable.sample(lambda s: 2.5, 0, 1).values,
                              np.full(201, 2.5))


class TestRidgeSum:
    def test_evaluates_sum_of_ridge_terms(self):
        rs = RidgeSum([((1, 0), lambda t: t**2), ((0, 1), np.sin)], dim=2)
        assert rs(2.0, 0.5) == pytest.approx(4.0 + math.sin(0.5))

    def test_weighted_sum_multiplies_each_term_by_its_weight(self):
        rs = RidgeSum([(("1/2", 0), lambda t: t**2), ((1, 1), np.sin)],
                      weights=[lambda x, y: 1 + x, lambda x, y: x * y])
        X, Y = np.meshgrid([0.25, 2.0], [-1.0, 0.5], indexing="ij")
        expect = (1 + X) * (0.5 * X)**2 + (X * Y) * np.sin(X + Y)
        assert np.allclose(rs(X, Y), expect, rtol=1e-15, atol=0)
        assert rs((Fraction(2), 0.5)) == pytest.approx(
            3 * 1.0 + 1.0 * math.sin(2.5))

    def test_every_approximation_returned_is_a_ridge_sum(self):
        from ridgekit.l2 import best_l2, build_rset
        from ridgekit.smooth import DecompProblem, decompose
        from ridgekit.uniform import ParallelogramDomain, best_uniform
        xy = parse_expression("x1*x2", 2)
        dom = ParallelogramDomain((1, 1), (1, -1), 0, 1, 0, 1)
        t = build_rset([(1, 0), (1, 1)], [], [(0, 1), (0, 2)])
        weights = [parse_expression("1+x1", 2), parse_expression("1+x2", 2)]
        three = parse_expression("sin(x1) + x2^3 + exp(0.5*(x1+x2))", 2)
        cases = [
            (best_uniform(xy, dom), [dom.a, dom.b]),
            (decompose(DecompProblem(three, [(1, 0), (0, 1), (1, 1)],
                                     ((-1, 1), (-1, 1)))),
             [(1, 0), (0, 1), (1, 1)]),
            (best_l2(xy, t, nodes=8), [(1, 0), (1, 1)]),
            (best_l2(xy, t, weights=weights, nodes=8), [(1, 0), (1, 1)]),
        ]
        assert cases[3][0].weights is weights
        x, y = np.array([0.3, 0.6]), np.array([0.2, 0.1])
        for approx, dirs in cases:
            assert isinstance(approx, RidgeSum)
            assert "__call__" not in type(approx).__dict__
            assert [a for a, _ in approx.terms] == [tuple(map(Fraction, d))
                                                    for d in dirs]
            comps = getattr(approx, "components", None)
            comps = comps or [approx.g1, approx.g2]
            assert all(g is c for (_, g), c in zip(approx.terms, comps))
            expect = 0.0
            for j, ((a0, a1), g) in enumerate(approx.terms):
                w = 1.0 if approx.weights is None else approx.weights[j](x, y)
                expect = expect + w * g(float(a0) * x + float(a1) * y)
            assert np.array_equal(approx(x, y), expect)


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

    @pytest.mark.parametrize("n", [1, 2, 5, 8, np.int64(24), 129])
    @pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (0.0, 1.0), (-2.5, 0.3),
                                       (1e-3, 1e3), (2, 7)])
    def test_gauss_nodes_match_the_uncached_formula(self, n, lo, hi):
        x, w = np.polynomial.legendre.leggauss(int(n))
        lo, hi = float(lo), float(hi)
        want = 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w
        for _ in range(2):                 # the first call fills the cache
            got = gauss_nodes(lo, hi, n)
            assert [g.tobytes() for g in got] == [v.tobytes() for v in want]

    def test_gauss_nodes_hand_out_fresh_arrays(self):
        want = [v.copy() for v in gauss_nodes(-1.0, 1.0, 6)]
        for v in gauss_nodes(-1.0, 1.0, 6):
            v[:] = 7.0
        assert [v.tobytes() for v in gauss_nodes(-1.0, 1.0, 6)] == \
            [v.tobytes() for v in want]

    def test_cached_rule_is_read_only(self):
        x, w = _legendre_rule(6)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.0

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


def dot_grouping_lp(f, directions, grid, return_tables=False):
    """The minimax LP with fibers grouped by equality of ``dot(a, p)`` in
    the points' own arithmetic: the reference that ``grid_minimax_oracle``
    matches bit for bit wherever the two groupings agree, on exact points
    and on float points along the axes."""
    from scipy.optimize import linprog
    pts = list(grid)
    n = len(pts)
    var_index = {}  # (i_dir, fiber_value) -> column
    point_cols = [[var_index.setdefault((i, dot(a, p)), len(var_index))
                   for p in pts]
                  for i, a in enumerate(directions)]
    m = len(var_index)
    A = np.zeros((2 * n, m + 1))
    b = np.zeros(2 * n)
    for j, p in enumerate(pts):
        fx = float(f(*[float(c) for c in p]))
        for cols in point_cols:
            A[2 * j, cols[j]] += 1.0
            A[2 * j + 1, cols[j]] -= 1.0
        A[2 * j, m] = -1.0
        A[2 * j + 1, m] = -1.0
        b[2 * j] = fx
        b[2 * j + 1] = -fx
    c = np.zeros(m + 1)
    c[m] = 1.0
    res = linprog(c, A_ub=A, b_ub=b,
                  bounds=[(None, None)] * m + [(0, None)], method="highs")
    assert res.success, res.message
    if return_tables:
        tables = []
        for i in range(len(directions)):
            fib = sorted(v for (k, v) in var_index if k == i)
            knots = [float(v) for v in fib]
            vals = [res.x[var_index[(i, v)]] for v in fib]
            tables.append((knots, vals))
        return float(res.fun), tables
    return float(res.fun)


def _bits(err, tables):
    """The error and tables as exact float texts, signed zeros included."""
    return (float(err).hex(),
            [([float(k).hex() for k in knots], [float(v).hex() for v in vals])
             for knots, vals in tables])


RATIONAL_COORDS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
DIRECTION_POOL = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, Fraction(-1, 3))]


def _wave(x, y):
    return math.sin(3 * x + 0.2) * math.cos(2 * y) + 0.3 * x * y


class TestMinimaxOracleReadsFibers:
    @settings(deadline=None)
    @given(st.data())
    def test_matches_the_dot_grouping_lp_on_rational_sets(self, data):
        # duplicate points are allowed: they share every fiber
        pts = data.draw(st.lists(st.tuples(RATIONAL_COORDS, RATIONAL_COORDS),
                                 min_size=1, max_size=16))
        dirs = data.draw(st.lists(st.sampled_from(DIRECTION_POOL),
                                  min_size=1, max_size=3, unique=True))
        got = grid_minimax_oracle(_wave, dirs, pts, return_tables=True)
        want = dot_grouping_lp(_wave, dirs, pts, return_tables=True)
        assert _bits(*got) == _bits(*want)
        assert got[0] == grid_minimax_oracle(_wave, dirs, pts)

    def test_matches_the_dot_grouping_lp_on_a_float_axis_grid(self):
        xs = np.linspace(0.0, 1.0, 15)
        pts = np.array([(x, y) for x in xs for y in xs])
        got = grid_minimax_oracle(_wave, [(1, 0), (0, 1)], pts,
                                  return_tables=True)
        want = dot_grouping_lp(_wave, [(1, 0), (0, 1)], pts,
                               return_tables=True)
        assert _bits(*got) == _bits(*want)
        assert [len(knots) for knots, _ in got[1]] == [15, 15]

    def test_a_skew_level_line_is_one_knot(self):
        # along (1, 1), the points of the 4 x 4 grid of thirds lie on 7
        # level lines x + y = k/3, each one knot and one unknown
        pts = [(Fraction(i, 3), Fraction(j, 3))
               for i in range(4) for j in range(4)]
        dirs = [(1, 1), (1, -1), (1, 0)]
        err, tables = grid_minimax_oracle(_wave, dirs, pts,
                                          return_tables=True)
        assert tables[0][0] == [float(Fraction(k, 3)) for k in range(7)]
        assert tables[1][0] == [float(Fraction(k, 3)) for k in range(-3, 4)]
        assert tables[2][0] == [float(Fraction(k, 3)) for k in range(4)]
        worst = max(abs(_wave(float(x), float(y)) - sum(
            vals[knots.index(float(a[0] * x + a[1] * y))]
            for a, (knots, vals) in zip(dirs, tables))) for x, y in pts)
        assert worst == pytest.approx(err, abs=1e-7)

    def test_numpy_integer_points_and_directions(self):
        pts = [(i, j) for i in range(4) for j in range(3)]
        dirs = [(1, 0), (0, 1), (1, 1)]
        want = grid_minimax_oracle(_wave, dirs, pts, return_tables=True)
        got = grid_minimax_oracle(_wave, np.array(dirs), np.array(pts),
                                  return_tables=True)
        assert _bits(*got) == _bits(*want)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_value_that_is_not_finite_is_refused(self, bad):
        # a NaN cycle mean fails every comparison: it would read as error 0
        with pytest.raises(ValueError,
                           match=rf"^values\[3\] = {bad} is not finite$"):
            max_cycle_mean([0, 0, 1, 1], [0, 1, 0, 1], [0.0, 1.0, 1.0, bad])

    def test_raveled_grid_of_a_ridge_sum_gives_zero(self):
        F = np.sin(np.arange(5.0))[:, None] + np.arange(7.0)[None, :] ** 2
        err, cycle = max_cycle_mean(*np.indices(F.shape).reshape(2, -1), F)
        assert err == pytest.approx(0.0, abs=1e-12)


def row_reduce(rows, ncols):
    """``bareiss`` of rational rows read over one denominator by
    ``_integer_coordinates``, as ``l2.RSetTransform`` reads it: (rows,
    pivots, det) in Fractions, the pivot rows over the last pivot and the
    others as they are, and det over the denominator to the ncols."""
    ints, den = _integer_coordinates(rows)
    mat, pivots, last, det = bareiss(ints, ncols)
    rank = len(pivots)
    reduced = ([[Fraction(v, last) for v in row] for row in mat[:rank]]
               + [[Fraction(v) for v in row] for row in mat[rank:]])
    return reduced, pivots, Fraction(det, den**ncols)


def fraction_row_reduce(rows, ncols):
    """Gauss-Jordan elimination in Fractions, the reference that
    ``bareiss``, read by ``row_reduce``, must match."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = {}
    det = Fraction(1)
    for col in range(ncols):
        rank = len(pivots)
        piv = next((j for j in range(rank, len(mat)) if mat[j][col]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            mat[rank], mat[piv] = mat[piv], mat[rank]
            det = -det
        lead = mat[rank][col]
        det *= lead
        if lead != 1:
            mat[rank] = [v / lead for v in mat[rank]]
        prow = mat[rank]
        for j, row in enumerate(mat):
            factor = row[col]
            if factor and j != rank:
                mat[j] = [a - factor * b if b else a for a, b in zip(row, prow)]
        pivots[col] = rank
    return mat, pivots, det


@st.composite
def rational_matrices(draw):
    """(rows, ncols): square or rectangular, with up to three carried
    columns, rows and columns that are combinations of earlier ones, and
    entries that are small, rational or beyond 2^63."""
    entry = st.one_of(st.integers(-2, 2),
                      st.fractions(-5, 5, max_denominator=7),
                      st.integers(-2**70, 2**70))
    ncols = draw(st.integers(1, 5))
    nrows = ncols if draw(st.booleans()) else draw(st.integers(1, 6))
    width = ncols + draw(st.integers(0, 3))
    rows = [[draw(entry) for _ in range(width)] for _ in range(nrows)]
    coeff = st.integers(-2, 2)
    for i in range(1, nrows):
        if draw(st.booleans()):
            cs = [draw(coeff) for _ in range(i)]
            rows[i] = [sum(c * rows[k][j] for k, c in enumerate(cs))
                       for j in range(width)]
    for j in range(1, width):
        if draw(st.booleans()):
            cs = [draw(coeff) for _ in range(j)]
            for row in rows:
                row[j] = sum(c * row[k] for k, c in enumerate(cs))
    return rows, ncols


class TestRowReduce:
    @given(rational_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_elimination(self, case):
        rows, ncols = case
        got, pivots, det = row_reduce(rows, ncols)
        want, want_pivots, want_det = fraction_row_reduce(rows, ncols)
        rank = len(pivots)
        assert pivots == want_pivots
        assert got[:rank] == want[:rank]
        assert [[v == 0 for v in row] for row in got[rank:]] == \
            [[v == 0 for v in row] for row in want[rank:]]
        assert all(isinstance(v, Fraction) for row in got for v in row)
        if len(rows) == ncols:
            assert det == want_det

    def test_inverse_and_determinant_of_a_rational_system(self):
        rows = [[Fraction(1, 2), 3, 1, 0], [Fraction(2, 3), Fraction(-1, 7), 0, 1]]
        reduced, pivots, det = row_reduce(rows, 2)
        assert pivots == {0: 0, 1: 1}
        assert det == Fraction(1, 2) * Fraction(-1, 7) - 3 * Fraction(2, 3)
        inv = [row[2:] for row in reduced]
        for i in range(2):
            for j in range(2):
                assert sum(rows[i][k] * inv[k][j] for k in range(2)) == (i == j)
