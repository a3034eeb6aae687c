import numpy as np
import pytest

from ridgekit.core import parse_expression
from ridgekit.smooth import (
    DecompProblem,
    crosscheck_highorder,
    decompose,
    tabulate,
)

BOX = ((-1.0, 1.0), (-1.0, 1.0))
DIRS3 = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]


def three_term(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.sin(x) + y ** 3 + np.exp(0.5 * (x + y))


class TestDecompose:
    def test_reconstructs_three_term_sum(self):
        problem = DecompProblem(three_term, DIRS3, BOX)
        result = decompose(problem)
        assert result.residual <= 1e-8
        xs = np.linspace(-0.9, 0.9, 21)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        assert float(np.max(np.abs(three_term(X, Y) - result(X, Y)))) <= 1e-6

    def test_two_term_special_case(self):
        f = lambda x, y: np.cos(np.asarray(x)) + np.asarray(y) ** 2
        problem = DecompProblem(f, [(1.0, 0.0), (0.0, 1.0)], BOX)
        result = decompose(problem)
        assert result.residual <= 1e-8

    def test_skew_directions(self):
        dirs = [(1.0, 1.0), (1.0, -1.0), (2.0, 1.0)]
        f = lambda x, y: (np.sin(np.asarray(x) + np.asarray(y))
                          + (np.asarray(x) - np.asarray(y)) ** 2
                          + np.exp(0.3 * (2 * np.asarray(x) + np.asarray(y))))
        problem = DecompProblem(f, dirs, BOX)
        result = decompose(problem)
        assert result.residual <= 1e-6

    def test_non_decomposable_input_reports_large_residual(self):
        f = lambda x, y: np.asarray(x) ** 2 * np.asarray(y)
        problem = DecompProblem(f, DIRS3, BOX)
        result = decompose(problem)
        assert result.residual > 1e-3  # honestly not a 3-term ridge sum

    def test_pairwise_dependent_directions_rejected(self):
        with pytest.raises(ValueError):
            DecompProblem(three_term, [(1.0, 0.0), (2.0, 0.0)], BOX)

    def test_anchor_shift_changes_components_by_degree_one_poly(self):
        problem = DecompProblem(three_term, DIRS3, BOX)
        r0 = decompose(problem, anchor=0.0)
        r1 = decompose(problem, anchor=0.2)
        ts = np.linspace(-0.8, 0.8, 41)
        for g0, g1 in zip(r0.components, r1.components):
            diff = np.asarray(g0(ts)) - np.asarray(g1(ts))
            coef = np.polyfit(ts, diff, 1)
            assert float(np.max(np.abs(diff - np.polyval(coef, ts)))) <= 1e-6


class TestDiagnostics:
    def test_tabulate_matches_components(self):
        problem = DecompProblem(three_term, DIRS3, BOX)
        result = decompose(problem)
        tables = tabulate(result, problem)
        assert len(tables) == 3
        for tab, g in zip(tables, result.components):
            mid = 0.5 * (tab.knots[0] + tab.knots[-1])
            assert tab(mid) == pytest.approx(float(g(mid)), abs=1e-6)

    def test_crosscheck_agrees(self):
        problem = DecompProblem(three_term, DIRS3, BOX)
        report = crosscheck_highorder(problem)
        assert report.residual <= 1e-5


# a ridge sum along five directions, with a pole at x1 + 2*x2 = -5 off the
# box [-1, 1]^2
T5 = ("sin(x1) + x2^3 + exp(0.5*(x1+x2)) + cos(x1-x2)"
      " + (x1+2*x2)^2/(5+x1+2*x2)")
T5_DIRS = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (1.0, 2.0)]


class TestJetDerivatives:
    @pytest.mark.parametrize("extra", [[], [(2.0, -1.0)]])
    def test_t5_is_recovered_to_rounding(self, extra):
        # a sixth direction, (2, -1), carries a zero term
        problem = DecompProblem(parse_expression(T5, 2), T5_DIRS + extra, BOX)
        assert decompose(problem).residual <= 1e-8
        assert crosscheck_highorder(problem).residual <= 1e-8

    def test_meta_says_how_the_derivatives_were_taken(self):
        expr = parse_expression("sin(x1) + x2^3 + exp(0.5*(x1+x2))", 2)
        problem = DecompProblem(expr, DIRS3, BOX)
        result = decompose(problem)
        assert result.meta == {"derivatives": "jet", "anchor": None}
        assert crosscheck_highorder(problem).meta == {"derivatives": "jet"}
        plain = decompose(DecompProblem(three_term, DIRS3, BOX), fd_step=1e-3)
        assert plain.meta == {"derivatives": "stencil", "fd_step": 1e-3,
                              "anchor": None}

    def test_jet_and_stencil_give_the_same_generators(self):
        expr = parse_expression("sin(x1) + x2^3 + exp(0.5*(x1+x2))", 2)
        jets = decompose(DecompProblem(expr, DIRS3, BOX))
        stencil = decompose(DecompProblem(three_term, DIRS3, BOX))
        ts = np.linspace(-1.0, 1.0, 41)
        for g_jet, g_stencil in zip(jets.components, stencil.components):
            assert float(np.max(np.abs(g_jet(ts) - g_stencil(ts)))) <= 1e-6

    def test_samples_stay_in_the_box(self):
        # log(x1) is undefined for x1 <= 0, left of the box [0.25, 1.25]^2.
        # The cross-check samples each line on a diagonal of the box, and
        # so does decompose, but for the lines of its last two directions,
        # which run along the axes here
        expr = parse_expression("log(x1) + x2^3 + exp(0.5*(x1+x2))", 2)
        box = ((0.25, 1.25), (0.25, 1.25))
        check = crosscheck_highorder(DecompProblem(expr, DIRS3, box))
        assert check.residual <= 1e-8
        dirs = [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]
        assert decompose(DecompProblem(expr, dirs, box)).residual <= 1e-8

    def test_generators_on_a_box_away_from_the_origin(self):
        # each chain is anchored inside its own interval, not at 0
        expr = parse_expression("sin(x1) + x2^3 + exp(0.5*(x1+x2))", 2)
        problem = DecompProblem(expr, DIRS3, ((2.0, 3.0), (4.0, 5.5)))
        assert decompose(problem).residual <= 1e-8
        assert crosscheck_highorder(problem).residual <= 1e-8
