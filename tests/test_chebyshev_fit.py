"""``sigmoid._chebyshev_rational`` fits each degree on a design built once
and converts the fit to powers of t in Python floats.  Its earlier form,
which called numpy.polynomial at every degree, is kept verbatim below as
the reference, and the two agree bit for bit.  That ties these tests to the
installed numpy.polynomial's order of operations: a failure after a numpy
upgrade means that order moved, and the CI log names the numpy that ran.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as C
from numpy.polynomial import polynomial as P

from ridgekit import sigmoid as S
from ridgekit.core import parse_expression


def reference_chebyshev_rational(f, a, b, eps, tgrid, g_vals):
    """The former ``_chebyshev_rational``: numpy.polynomial's chebfit,
    cheb2poly, polyadd and polymul at every degree."""
    from numpy.polynomial import chebyshev as C
    from numpy.polynomial import polynomial as P
    for deg in range(1, S.MAX_DEGREE + 1):
        k = np.arange(deg + 1)
        s_nodes = np.cos((2 * k + 1) * np.pi / (2 * (deg + 1)))  # in [-1,1]
        t_nodes = 0.5 + 0.5 * s_nodes
        vals = np.asarray(f(a + (b - a) * t_nodes), dtype=float)
        cheb = C.chebfit(s_nodes, vals, deg)
        poly_s = C.cheb2poly(cheb)          # powers of s = 2t - 1
        raw = [0.0]
        power = [1.0]
        for c in poly_s:                    # compose with s(t) = 2t - 1
            raw = P.polyadd(raw, c * np.asarray(power))
            power = P.polymul(power, [-1.0, 2.0])
        raw = list(np.atleast_1d(raw))
        coeffs = S._finalize_coeffs(raw, eps, tgrid, g_vals)
        if coeffs is not None:
            return coeffs
    return None


def reference_power_coeffs(cheb):
    """The reference's conversion of one degree's Chebyshev series."""
    poly_s = C.cheb2poly(np.asarray(cheb, dtype=float))
    raw = [0.0]
    power = [1.0]
    for c in poly_s:
        raw = P.polyadd(raw, c * np.asarray(power))
        power = P.polymul(power, [-1.0, 2.0])
    return list(np.atleast_1d(raw))


def same_floats(got, want):
    """Equal length and, entry by entry, the same value with the same sign
    bit (so 0.0 and -0.0 differ), or NaN on both sides."""
    assert len(got) == len(want), (got, want)
    for x, y in zip(got, want):
        if math.isnan(y):
            assert math.isnan(x), (got, want)
        else:
            assert x == y and math.copysign(1.0, x) == math.copysign(1.0, y), \
                (got, want)


def same_bits(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64),
                                                 y.view(np.uint64))


# entries: either zero, or a magnitude from 1e-300 to 1e300 of either sign;
# the large ones overflow on the way to inf and NaN, as numpy's do
coefficient = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(math.copysign, st.floats(1e-300, 1e300), st.sampled_from([1, -1])))
series = st.lists(coefficient, min_size=1, max_size=S.MAX_DEGREE + 1)


@given(series)
@example([-0.0, 1.0, 0.0])      # cheb2poly trims before it reads the length
@example([-0.0, -0.0, 2.0, -0.0])
@example([0.0] * 31)
@settings(max_examples=1000, deadline=None)
def test_cheb2poly_matches_numpy_bit_for_bit(cheb):
    # the power coefficients below cannot tell where cheb2poly trims, since
    # the last row added overwrites every zero; its own output can
    with np.errstate(all="ignore"):
        want = list(C.cheb2poly(np.asarray(cheb, dtype=float)))
    same_floats(S._cheb2poly(cheb), want)


@given(series)
@example([-0.0, 1.0, 0.0])
@example([1.0, -0.0, 0.0, 0.0])
@settings(max_examples=1000, deadline=None)
def test_power_coeffs_match_polyadd_and_polymul_bit_for_bit(cheb):
    with np.errstate(all="ignore"):
        want = reference_power_coeffs(cheb)
    same_floats(S._power_coeffs(cheb), want)


def test_shift_rows_are_the_powers_polymul_makes():
    power = [1.0]
    for row in S._shift_rows():
        same_floats(row, list(power))
        power = P.polymul(power, [-1.0, 2.0])


@pytest.mark.parametrize("deg", range(1, S.MAX_DEGREE + 1))
def test_designs_are_read_only_and_of_full_rank(deg):
    t, design, scl, rcond = S._cheb_design(deg)
    assert not (t.flags.writeable or design.flags.writeable
                or scl.flags.writeable)
    assert design.shape == (deg + 1, deg + 1) and t.shape == scl.shape
    # the rank lstsq reports depends on the matrix and rcond alone; at full
    # rank chebfit's RankWarning cannot fire
    assert np.linalg.lstsq(design, np.zeros(deg + 1), rcond)[2] == deg + 1


def _fit_inputs(f, a, b):
    tgrid = np.linspace(0.0, 1.0, S.FIT_GRID_N)
    return tgrid, np.asarray(f(a + (b - a) * tgrid), dtype=float)


def _expr(text):
    return parse_expression(text, 1)


# (target, a, b, eps): parsed expressions that are not polynomials and plain
# callables, odd, even, smooth, kinked and steep; fitted at degree 1 to 11,
# and never (None on both sides)
CASES = [
    (_expr("sqrt(1 + x1)"), 0.0, 1.0, 0.1),
    (_expr("sqrt(1 + x1)"), 0.0, 1.0, 0.01),
    (_expr("sin(x1)"), -1.0, 1.0, 0.1),
    (_expr("sin(x1)"), -1.0, 1.0, 0.03),
    (_expr("sin(x1)"), -1.0, 1.0, 0.0),
    (_expr("4*x1/(4+x1^2)"), -1.0, 1.0, 0.04),
    (_expr("4*x1/(4+x1^2)"), -1.0, 1.0, 0.35),
    (_expr("exp(x1)"), 0.0, 1.0, 0.01),
    (_expr("exp(x1)"), 0.0, 1.0, 1e-6),
    (_expr("exp(1)*(x1^2-1/3)"), -1.0, 1.0, 0.01),
    (_expr("cos(3*x1)"), 0.0, 2.0, 0.5),
    (_expr("sin(3*x1)"), 0.0, 1.0, 0.3),
    (_expr("log(2 + x1)"), -1.0, 1.0, 0.1),
    (_expr("abs(x1)"), -1.0, 1.0, 0.1),
    (_expr("1/(1 + 25*x1^2)"), -1.0, 1.0, 0.05),
    (_expr("x1^0.5"), 0.0, 1.0, 0.3),
    (_expr("exp(-x1^2)"), -2.0, 2.0, 1e-3),
    (_expr("exp(x1)*sin(x1)"), 0.0, 3.0, 0.5),
    (_expr("exp(x1)*sin(x1)"), 0.0, 3.0, 0.3),
    (_expr("sin(1)"), 0.0, 1.0, 0.1),
    (lambda x: np.sin(x), 0.0, 1.0, 0.01),
    (lambda x: 1.0 / (2.0 + x), -1.0, 1.0, 3e-3),
    (lambda x: np.exp(-x), -3.0, 2.0, 0.1),
    (lambda x: np.cbrt(x), -1.0, 1.0, 0.2),
    (lambda x: np.where(x < 0, -0.0, x * x * np.abs(x)), -1.0, 1.0, 0.3),
    (lambda x: np.full_like(x, -0.0), 0.0, 1.0, 0.0),
    (lambda x: 1e200 * np.sin(x), 0.0, 1.0, 3e199),
]


def _raws(monkeypatch, fit, *args):
    """fit's result and every degree's float coefficients in powers of t,
    as it hands them to _finalize_coeffs."""
    raws = []
    finalize = S._finalize_coeffs

    def recording(raw, *rest):
        raws.append(list(raw))
        return finalize(raw, *rest)

    with monkeypatch.context() as m:
        m.setattr(S, "_finalize_coeffs", recording)
        return fit(*args), raws


@pytest.mark.parametrize("f,a,b,eps", CASES)
def test_chebyshev_rational_matches_the_reference(monkeypatch, f, a, b, eps):
    args = (f, a, b, eps, *_fit_inputs(f, a, b))
    got, got_raws = _raws(monkeypatch, S._chebyshev_rational, *args)
    want, want_raws = _raws(monkeypatch, reference_chebyshev_rational, *args)
    # the same Fractions in the same number, or None on both sides, from
    # the same coefficients at every degree tried
    assert got == want
    assert len(got_raws) == len(want_raws)
    for got_raw, want_raw in zip(got_raws, want_raws):
        same_floats(got_raw, want_raw)


def _lstsq_calls(monkeypatch, fit, *args):
    """Every (matrix, right-hand side, rcond) fit hands to np.linalg.lstsq."""
    calls = []
    solve = np.linalg.lstsq

    def recording(a, b, rcond=None):
        calls.append((np.array(a), np.array(b), rcond))
        return solve(a, b, rcond)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "lstsq", recording)
        fit(*args)
    return calls


@pytest.mark.parametrize("f,a,b,eps", [CASES[3], CASES[24], CASES[25]])
def test_each_degree_solves_the_problem_chebfit_solves(monkeypatch, f, a, b,
                                                       eps):
    # the same matrix, right-hand side and rcond, bit for bit: a target's
    # -0.0 reaches the solve as chebfit's 0.0
    args = (f, a, b, eps, *_fit_inputs(f, a, b))
    got = _lstsq_calls(monkeypatch, S._chebyshev_rational, *args)
    want = _lstsq_calls(monkeypatch, reference_chebyshev_rational, *args)
    assert len(got) == len(want) >= 1
    for (ga, gb, gr), (wa, wb, wr) in zip(got, want):
        assert same_bits(ga, wa) and same_bits(gb, wb) and gr == wr


def test_no_numpy_polynomial_call_once_the_designs_are_built(monkeypatch):
    for deg in range(1, S.MAX_DEGREE + 1):
        S._cheb_design(deg)

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.polynomial called per degree")

    for module, name in [(C, "chebfit"), (C, "chebvander"), (C, "cheb2poly"),
                         (P, "polyadd"), (P, "polymul"), (P, "polysub"),
                         (P, "polymulx")]:
        monkeypatch.setattr(module, name, refuse)
    f, a, b, eps = CASES[17]      # fitted at degree 6
    assert S._chebyshev_rational(f, a, b, eps, *_fit_inputs(f, a, b))


def test_a_target_not_finite_at_a_chebyshev_node_is_refused():
    # x = 0.7071067811865475 is degree 1's node s = cos(pi/4) on [-1, 1],
    # and not a point of the fit grid, where the target is finite; the
    # target is a plain callable, so no numpy warning is involved
    t = S._cheb_design(1)[0]
    node = float((-1.0 + 2.0 * t)[0])
    assert node == 0.7071067811865475

    def f(x):
        return np.where(x == node, np.inf, 0.5 * x)

    assert np.isfinite(f(np.linspace(-1.0, 1.0, S.FIT_GRID_N))).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^" + re.escape(
                f"target is not finite at x = {node!r}") + "$"):
            S.fit_two_neuron(f, -1.0, 1.0, 1e300)
