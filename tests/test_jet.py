import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgekit.core import jet, parse_expression


def _num(v):
    return f"({v:.6f})"


# ridge shapes g: the expression of g(t) for the text of t, and g^(k)(t)
def _shapes(c, m, d, p):
    return {
        "sin": (lambda t: f"sin({t})",
                lambda t, k: np.sin(t + k * np.pi / 2)),
        "cos": (lambda t: f"cos({t})",
                lambda t, k: np.cos(t + k * np.pi / 2)),
        "exp": (lambda t: f"exp({_num(c)}*({t}))",
                lambda t, k: c ** k * np.exp(c * t)),
        "power": (lambda t: f"({t})^{m}",
                  lambda t, k: math.perm(m, k) * t ** (m - k) if k <= m
                  else 0.0 * t),
        "root": (lambda t: f"({_num(d)}+{t})^{_num(p)}",
                 lambda t, k: math.prod(p - j for j in range(k))
                 * (d + t) ** (p - k)),
        "quotient": (lambda t: f"{_num(c)}/({_num(d)}+{t})",
                     lambda t, k: c * (-1) ** k * math.factorial(k)
                     / (d + t) ** (k + 1)),
    }


floats = st.floats(-1.5, 1.5).map(lambda v: round(v, 6))
terms = st.tuples(
    st.sampled_from(["sin", "cos", "exp", "power", "root", "quotient"]),
    floats, floats,                                   # direction (a, b)
    floats,                                           # coefficient
    st.floats(-1.2, 1.2).map(lambda v: round(v, 6)),  # exp rate, numerator
    st.integers(1, 6),                                # integer power
    st.floats(4.0, 8.0).map(lambda v: round(v, 6)),   # shift off the pole
    st.sampled_from([0.5, 1.5, -0.5, 2.5]),           # non-integer power
)


@settings(max_examples=60, deadline=None)
@given(st.lists(terms, min_size=1, max_size=4), st.integers(1, 5),
       st.lists(st.tuples(floats, floats), min_size=5, max_size=5),
       st.integers(0, 2**32 - 1))
def test_jet_equals_the_closed_form_mixed_derivative(terms, k, dirs, seed):
    # D_{l1}...D_{lk} g(a.x) = g^(k)(a.x) * prod_j (a.l_j), summed over terms
    dirs = dirs[:k]
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-0.5, 0.5, size=(2, 7))
    parts, exact, scale = [], 0.0, 0.0
    for shape, a, b, coef, c, m, d, p in terms:
        text, deriv = _shapes(c, m, d, p)[shape]
        parts.append(f"{_num(coef)}*{text(f'{_num(a)}*x1+{_num(b)}*x2')}")
        t = a * x + b * y
        chain = math.prod(a * l1 + b * l2 for l1, l2 in dirs)
        exact = exact + coef * chain * deriv(t, k)
        # the size of the term's rounding: no cancellation anywhere
        size = math.prod((abs(a) + abs(b)) * max(abs(l1), abs(l2))
                         for l1, l2 in dirs)
        scale = scale + abs(coef) * size * np.max(
            [np.abs(deriv(t, j)) for j in range(k + 1)], axis=0)
    f = parse_expression(" + ".join(parts), 2)
    out = jet(f.ast, (x, y), dirs)
    assert out.shape == (2 ** k,) + x.shape
    np.testing.assert_allclose(out[0], f(x, y), rtol=1e-13, atol=1e-13)
    assert np.all(np.abs(out[-1] - exact) <= 1e-12 * scale + 1e-300)


def test_every_subset_coefficient_is_its_mixed_derivative():
    # x1^2 * x2 along e1, e1, e2: entry S is the derivative along S
    f = parse_expression("x1^2*x2", 2)
    x, y = np.array([0.5, -2.0]), np.array([3.0, 0.25])
    out = jet(f.ast, (x, y), [(1, 0), (1, 0), (0, 1)])
    want = {0b000: x ** 2 * y, 0b001: 2 * x * y, 0b010: 2 * x * y,
            0b011: 2 * y, 0b100: x ** 2, 0b101: 2 * x, 0b110: 2 * x,
            0b111: 2 + 0 * x}
    for s, value in want.items():
        np.testing.assert_allclose(out[s], value, rtol=1e-15)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_constant_jet_broadcasts_to_the_points(k):
    # a constant has the jet a variable-free term inside an expression
    # would have: its value, then zeros, in the points' shape
    x = np.linspace(-1, 1, 5)[:, None]
    y = np.linspace(0, 1, 3)[None, :]
    dirs = [(1.0, 0.0), (0.6, 0.8), (0.0, 1.0)][:k]
    const = jet(parse_expression("2", 2).ast, (x, y), dirs)
    zero_term = jet(parse_expression("2+0*x1", 2).ast, (x, y), dirs)
    assert const.shape == zero_term.shape == (2 ** k, 5, 3)
    np.testing.assert_array_equal(const, zero_term)
    np.testing.assert_array_equal(const[0], np.full((5, 3), 2.0))


def test_integer_power_at_zero_is_exact_past_its_degree():
    # x1^2 at 0 along 3 directions: no 0 * inf from its derivative of
    # order 3, which vanishes and is never formed
    f = parse_expression("x1^2 + x1^3", 2)
    out = jet(f.ast, (np.zeros(3), np.zeros(3)), [(1, 0)] * 3)
    np.testing.assert_array_equal(out[-1], np.full(3, 6.0))
    np.testing.assert_array_equal(out[0b011], np.full(3, 2.0))
    np.testing.assert_array_equal(out[0b001], np.zeros(3))


@pytest.mark.parametrize("expr, label, at", [
    ("abs(x1)", "abs at 0", "(0, 0.75)"),
    ("sqrt(x1)", "sqrt at 0", "(0, 0.75)"),
    ("x1^0.5", "sqrt at 0", "(0, 0.75)"),
    ("sqrt(x1 - 1)", "sqrt of a negative value", "(0.5, 0.25)"),
    ("log(x1)", "log of a value <= 0", "(0, 0.75)"),
    ("log(x1 - 1)", "log of a value <= 0", "(0.5, 0.25)"),
    ("x2 / x1", "division by 0", "(0, 0.75)"),
    ("x2 / (x1 - x1)", "division by 0", "(0.5, 0.25)"),
    ("x1 / 0", "division by 0", "(0.5, 0.25)"),
    ("x1^(-2)", "division by 0", "(0, 0.75)"),
    ("x1^x2", "'^' with a variable exponent and a base <= 0", "(0, 0.75)"),
])
def test_a_point_without_a_jet_is_a_labelled_error(expr, label, at):
    # the message names the operation and the first point without a jet
    f = parse_expression(expr, 2)
    x, y = np.array([0.5, 0.0]), np.array([0.25, 0.75])
    with pytest.raises(ValueError) as info:
        jet(f.ast, (x, y), [(1.0, 0.0), (0.0, 1.0)])
    assert str(info.value) == f"no Taylor jet at x = {at}: {label}"


def test_abs_and_sqrt_at_zero_along_a_direction_that_does_not_move_them():
    # abs(x1) and sqrt(x1) at x1 = 0 have derivatives along x2 (all 0)
    f = parse_expression("abs(x1) + sqrt(x1) + x2^2", 2)
    out = jet(f.ast, (np.zeros(2), np.array([1.0, 2.0])), [(0.0, 1.0)] * 2)
    np.testing.assert_array_equal(out[-1], [2.0, 2.0])
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("expr, closed_form", [
    # a jet over a nonzero number: each coefficient divided by it
    ("x1/2", lambda x, y: [x / 2, 0.5, 0.0, 0.0]),
    # a variable exponent on a number base: exp(x1 log 2)
    ("2^x1", lambda x, y: [2**x, math.log(2) * 2**x, 0.0, 0.0]),
    # a variable exponent on a variable base: exp(x2 log x1)
    ("x1^x2", lambda x, y: [x**y, y * x**(y - 1), x**y * math.log(x),
                            x**(y - 1) * (1 + y * math.log(x))]),
])
def test_quotients_and_variable_exponents_match_their_closed_forms(
        expr, closed_form):
    # entries f, D_x f, D_y f and D_x D_y f at points with x, y > 0
    f = parse_expression(expr, 2)
    x, y = np.array([0.5, 1.5, 3.0]), np.array([0.25, 2.0, 1.0])
    out = jet(f.ast, (x, y), [(1.0, 0.0), (0.0, 1.0)])
    want = np.array([[closed_form(a, b)[k] for a, b in zip(x, y)]
                     for k in range(4)])
    np.testing.assert_allclose(out, want, rtol=1e-14, atol=0)
