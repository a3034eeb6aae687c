import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebint

from ridgekit import core, smooth
from ridgekit.cli import main
from ridgekit.core import ScalarField, parse_expression
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

    def test_anchor_is_read_in_each_generators_own_argument(self):
        # every generator built by at least one antiderivative vanishes
        # where its own argument a_i . x equals the anchor; with four
        # directions that is all but g_2 (index 1), which is sampled
        # directly
        expr = parse_expression("exp(x1+2*x2) + sin(x1+x2) + cos(2*x1-x2)"
                                " + (x1-x2)^3", 2)
        dirs = [(1.0, 2.0), (2.0, -1.0), (1.0, 1.0), (1.0, -1.0)]
        problem = DecompProblem(expr, dirs, ((-0.5, 0.5), (-0.25, 0.75)))
        result = decompose(problem, anchor=0.3)
        assert result.residual <= 1e-8
        for i in (0, 2, 3):
            assert abs(float(result.components[i](0.3))) <= 1e-12


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
        # decompose and the cross-check sample every chain on a diagonal of
        # the box, so no sample leaves it, the chains of the last two
        # directions, which run along the axes here, included
        expr = parse_expression("log(x1) + x2^3 + exp(0.5*(x1+x2))", 2)
        box = ((0.25, 1.25), (0.25, 1.25))
        check = crosscheck_highorder(DecompProblem(expr, DIRS3, box))
        assert check.residual <= 1e-8
        dirs = [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]
        assert decompose(DecompProblem(expr, dirs, box)).residual <= 1e-8

    def test_short_directions_are_not_degenerate(self):
        # the products a_i . l_j are 1e-8 times the sines of the angles
        expr = parse_expression("sin(x1) + x2^3 + exp(0.5*(x1+x2))", 2)
        dirs = [(1e-8, 0.0), (0.0, 1e-8), (1e-8, 1e-8)]
        problem = DecompProblem(expr, dirs, BOX)
        assert decompose(problem).residual <= 1e-8
        assert crosscheck_highorder(problem).residual <= 1e-8

    def test_generators_on_a_box_away_from_the_origin(self):
        # each chain is anchored inside its own interval, not at 0
        expr = parse_expression("sin(x1) + x2^3 + exp(0.5*(x1+x2))", 2)
        problem = DecompProblem(expr, DIRS3, ((2.0, 3.0), (4.0, 5.5)))
        assert decompose(problem).residual <= 1e-8
        assert crosscheck_highorder(problem).residual <= 1e-8

    def test_fd_step_is_refused_for_an_expression(self):
        # a jet takes no step, so a step given with an expression would
        # otherwise be read by nothing
        expr = parse_expression("sin(x1) + x2^3 + exp(0.5*(x1+x2))", 2)
        with pytest.raises(ValueError, match="fd_step"):
            decompose(DecompProblem(expr, DIRS3, BOX), fd_step=1e-3)


# log(x1) is undefined for x1 <= 0, left of the box [0.25, 1.25]^2
LOG3 = "log(x1) + x2^3 + exp(0.5*(x1+x2))"
SIX = T5_DIRS + [(2.0, -1.0)]


class TestSamplesInTheBox:
    def test_last_two_directions_off_the_axes(self, tmp_path, capsys):
        # the last two directions, (0, 1) and (1, 1), are not the axes, so
        # lines along which only one of their arguments changes leave the
        # box; their diagonals do not
        box = ((0.25, 1.25), (0.25, 1.25))
        problem = DecompProblem(parse_expression(LOG3, 2), DIRS3, box)
        assert decompose(problem).residual <= 1e-8
        dirs = tmp_path / "dirs3.csv"
        dirs.write_text("1,0\n0,1\n1,1\n")
        code = main(["smooth", "decompose", "--expr", LOG3,
                     "--dirs", str(dirs), "--box", "0.25", "1.25", "0.25",
                     "1.25", "--crosscheck"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0, report
        assert report["results"]["residual"] <= 1e-8
        assert report["results"]["convergence_study"]["residual"] <= 1e-8

    @pytest.mark.parametrize(
        "dirs", [SIX[:k] for k in range(2, 7)] + [SIX[-k:] for k in range(2, 6)],
        ids=[f"first{k}" for k in range(2, 7)]
        + [f"last{k}" for k in range(2, 6)])
    def test_f_and_its_jets_are_taken_in_the_box(self, dirs, monkeypatch):
        expr = parse_expression(T5, 2)
        points = []

        def record(xs):
            points.append(np.stack(np.broadcast_arrays(*xs)).reshape(2, -1))

        def recording_fn(x, y):
            record((x, y))
            return expr(x, y)

        def recording_jet(ast, xs, jet_dirs):
            record(xs)
            return core.jet(ast, xs, jet_dirs)

        monkeypatch.setattr(smooth, "jet", recording_jet)
        problem = DecompProblem(ScalarField(2, recording_fn, ast=expr.ast),
                                dirs, BOX)
        decompose(problem)
        crosscheck_highorder(problem)
        assert points
        assert float(np.max(np.abs(np.concatenate(points, axis=1)))) <= 1.0


# a ridge sum of transcendental generators along five skew directions
SKEW5 = [(1.0, 2.0), (1.0, -1.0), (2.0, 1.0), (1.0, -2.0), (1.0, 1.0)]
T_SKEW5 = ("sin(0.8*(x1 + 2*x2)) + exp(0.5*(x1 - x2)) + cos(2*x1 + x2)"
           " + 0.6*(x1 - 2*x2)^3 + exp(0.3*(x1 + x2))")


def _same_result(got, want):
    """Components (Chebyshev coefficients and domains) and residual equal
    bit for bit."""
    assert len(got.components) == len(want.components)
    for g, w in zip(got.components, want.components):
        assert g.coef.tobytes() == w.coef.tobytes()
        assert g.domain.tobytes() == w.domain.tobytes()
    assert got.residual.hex() == want.residual.hex()


class TestSharedSamples:
    """``decompose`` and ``crosscheck_highorder`` on one problem share the
    isolations of the last two generators and f on the residual grid, and
    give what each gives on a problem of its own."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.just(([0.0], 0.0, 1.0)),
        st.tuples(
            st.integers(1, 45).flatmap(lambda n: st.lists(
                st.floats(-1.0, 1.0), min_size=n, max_size=n)),
            st.floats(-1.0, 1.0),
            st.floats(-8.0, 8.0).filter(lambda v: v != 0.0)),
    ), st.integers(-30, 30))
    # the constant term's sign of zero: numpy adds -chebval(lbnd) to
    # c[0] * 0 as 0 - chebval(lbnd), and 0 to a zero series
    @example(([-1.0], -0.0, 1.0), 0)
    @example(([1.0, 0.0], 0.0, 1.0), 0)
    def test_chebint_is_numpys_bit_for_bit(self, case, exponent):
        coef, lbnd, scl = case
        c = np.array(coef) * 2.0 ** exponent
        for s in (scl, -scl):
            want = chebint(c, lbnd=lbnd, scl=s)
            got = smooth._chebint(c, lbnd, s)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("f,dirs", [
        (parse_expression(T_SKEW5, 2), SKEW5[:2]),
        (parse_expression(T_SKEW5, 2), SKEW5[:3]),
        (parse_expression(T_SKEW5, 2), SKEW5),
        (three_term, DIRS3)], ids=["jet2", "jet3", "jet5", "stencil3"])
    def test_shared_samples_give_what_fresh_problems_give(self, f, dirs):
        problem = DecompProblem(f, dirs, BOX)
        both = decompose(problem), crosscheck_highorder(problem)
        _same_result(both[0], decompose(DecompProblem(f, dirs, BOX)))
        _same_result(both[1],
                     crosscheck_highorder(DecompProblem(f, dirs, BOX)))

    @pytest.mark.parametrize("count", [2, 3, 4, 5])
    def test_crosscheck_isolates_n_minus_2_generators_after_decompose(
            self, count, monkeypatch):
        calls = []

        def counting_jet(ast, xs, dirs):
            calls.append(len(dirs))
            return core.jet(ast, xs, dirs)

        monkeypatch.setattr(smooth, "jet", counting_jet)
        f = parse_expression(T_SKEW5, 2)
        crosscheck_highorder(DecompProblem(f, SKEW5[:count], BOX))
        assert calls == [count - 1] * count
        problem = DecompProblem(f, SKEW5[:count], BOX)
        decompose(problem)
        del calls[:]
        crosscheck_highorder(problem)
        assert calls == [count - 1] * (count - 2)

    def test_residual_grid_is_sampled_once(self):
        seen = []

        def counting(x, y):
            seen.append(np.shape(x))
            return three_term(x, y)

        problem = DecompProblem(counting, DIRS3, BOX)
        decompose(problem)
        grids = seen.count((smooth.VERIFY_N, smooth.VERIFY_N))
        crosscheck_highorder(problem)
        assert grids == 1
        assert seen.count((smooth.VERIFY_N, smooth.VERIFY_N)) == 1

    def test_another_fd_step_lends_no_samples(self):
        def fresh():
            return DecompProblem(three_term, DIRS3, BOX)

        problem = fresh()
        decompose(problem, fd_step=1e-2)
        _same_result(crosscheck_highorder(problem),
                     crosscheck_highorder(fresh()))
        # and the step shows in the samples: had crosscheck reused those of
        # step 1e-2, it could not have matched the fresh problem
        coarse = decompose(fresh(), fd_step=1e-2)
        fine = decompose(fresh())
        assert any(c.coef.tobytes() != d.coef.tobytes()
                   for c, d in zip(coarse.components, fine.components))
