import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgekit.sigmoid import (
    MonicPoly,
    SigmoidParams,
    calkin_wilf,
    cw_index,
    eval_network,
    fit_two_neuron,
    monic_enum,
    monic_index,
    rational_enum,
    rational_index,
    sigma,
    sigma_segment,
)
from ridgekit.sigmoid import (
    _continued_fraction,
    _exact_poly_coeffs,
    _index_terms,
    _ln_big,
    _segment_coeffs,
)
from ridgekit.core import format_ast, parse_expression, rational

P = SigmoidParams(2.0, 0.25)


class TestEnumeration:
    def test_first_positive_rationals(self):
        want = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 3),
                Fraction(3, 2), Fraction(2, 3), Fraction(3), Fraction(1, 4)]
        assert [calkin_wilf(n) for n in range(1, 9)] == want

    def test_iterated_recurrence_oracle(self):
        q = Fraction(1)
        for n in range(1, 2000):
            assert calkin_wilf(n) == q
            q = 1 / (2 * (q.numerator // q.denominator) - q + 1)

    @given(st.integers(1, 10**9))
    @settings(max_examples=200)
    def test_index_inverts_enumeration(self, n):
        assert cw_index(calkin_wilf(n)) == n

    def test_signed_enumeration_covers_both_signs(self):
        vals = [rational_enum(k) for k in range(1, 9)]
        assert any(v > 0 for v in vals) and any(v < 0 for v in vals)

    @given(st.integers(1, 10**6))
    @settings(max_examples=100)
    def test_signed_round_trip(self, k):
        assert rational_index(rational_enum(k)) == k

    def test_first_monic_polynomials(self):
        # 1, x^2, x, x^2 - x, x^2 - 1, x^3, x - 1, x^2 + x
        expected = [
            (), (0, 0), (0,), (0, -1), (-1, 0), (0, 0, 0), (-1,), (0, 1),
        ]
        for n, coeffs in enumerate(expected, start=1):
            assert tuple(monic_enum(n).coeffs) == coeffs

    @given(st.integers(1, 10**5))
    @settings(max_examples=300)
    def test_monic_round_trip(self, n):
        assert monic_index(monic_enum(n)) == n

    def test_huge_index_guarded(self):
        with pytest.raises(OverflowError):
            cw_index(Fraction(10**40 + 1, 10**40), max_bits=1000)


def tree_walk(n):
    """q_n by walking the Calkin-Wilf tree bit by bit from the root 1/1:
    a 0 bit goes to the left child a/(a+b), a 1 bit to the right child
    (a+b)/b.  Independent of the run-length codec."""
    a, b = 1, 1
    for bit in bin(n)[3:]:
        if bit == "0":
            b += a
        else:
            a += b
    return Fraction(a, b)


def from_runs(runs):
    """The integer whose binary runs, most significant first, have the
    given lengths (starting with a run of ones)."""
    return int("".join(("1", "0")[i % 2] * r for i, r in enumerate(runs)), 2)


class TestRunLengthCodec:
    def test_terms_of_every_small_index(self):
        for n in range(1, 20_000):
            q = tree_walk(n)
            assert calkin_wilf(n) == q
            assert _index_terms(n) == _continued_fraction(q)

    @given(st.integers(64, 4096), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_terms_of_random_large_indices(self, bits, seed):
        n = random.Random(seed).getrandbits(bits) | (1 << (bits - 1))
        q = tree_walk(n)
        assert calkin_wilf(n) == q
        assert _index_terms(n) == _continued_fraction(q)

    @given(st.integers(1, 10**5), st.integers(0, 2**32))
    @settings(max_examples=8, deadline=None)
    def test_monic_round_trip_up_to_1e5_bits(self, bits, seed):
        n = random.Random(seed).getrandbits(bits) | (1 << (bits - 1))
        assert monic_index(monic_enum(n)) == n

    @given(st.lists(st.integers(1, 20_000), min_size=1, max_size=12))
    @settings(max_examples=20, deadline=None)
    def test_monic_round_trip_with_long_runs(self, runs):
        n = from_runs(runs)
        assert monic_index(monic_enum(n)) == n

    def test_signed_round_trip_of_every_small_index(self):
        for k in range(5000):
            assert rational_index(rational_enum(k)) == k


class TestActivation:
    def test_limits(self):
        assert sigma(-2e6, P) < 1e-3
        assert 0.94 < sigma(1e6, P) < 1.0

    def test_monotone_on_left_tail(self):
        xs = np.linspace(-60, 2.0, 500)
        assert np.all(np.diff(sigma(xs, P)) >= -1e-15)

    def test_sandwich_above_envelope(self):
        xs = np.linspace(2.0, 400.0, 4000)
        vals = sigma(xs, P)
        assert np.all(vals > P.h(xs)) and np.all(vals < 1.0)

    def test_closed_forms_at_segment_ends(self):
        h6 = P.h(6.0)
        assert sigma(2.0, P) == pytest.approx((1 + h6) / 2, abs=1e-12)
        assert sigma(0.0, P) == pytest.approx(
            (1 - math.exp(-0.5)) * (1 + h6) / 2, abs=1e-12)

    def test_smooth_across_segment_joints(self):
        for knot in (4.0, 6.0, 8.0, 10.0, 12.0):
            h = 1e-5
            dl = (sigma(knot, P) - sigma(knot - h, P)) / h
            dr = (sigma(knot + h, P) - sigma(knot, P)) / h
            assert abs(dl - dr) <= 1e-3

    def test_other_parameters(self):
        q = SigmoidParams(1.0, 0.1)
        xs = np.linspace(1.0, 50.0, 500)
        vals = sigma(xs, q)
        assert np.all(vals > q.h(xs)) and np.all(vals < 1.0)


def reference_M(params, n):
    """h((2n+1) d) as computed before, forming 2 * n."""
    if n.bit_length() > 40:
        lnval = _ln_big(2 * n) + math.log(params.d)
        return 1.0 - params.lam_eff / (1.0 + lnval)
    return 1.0 - params.lam_eff / (1.0 + math.log(2 * n * params.d + 1.0))


class TestBitIdentity:
    @pytest.mark.parametrize("d,lam", [(2.0, 0.25), (0.5, 0.1), (3.0, 0.75)])
    def test_M_from_the_bit_length(self, d, lam):
        params = SigmoidParams(d, lam)
        rng = random.Random(7)
        for bits in list(range(38, 61)) + [10**3, 10**6]:
            for n in (1 << (bits - 1), (1 << bits) - 1,
                      rng.getrandbits(bits) | (1 << (bits - 1))):
                assert params.M(n) == reference_M(params, n)

    @pytest.mark.parametrize("expr,eps", [("x1^3 + x1^2 - 5*x1 + 3", 1e-9),
                                          ("4*x1/(4+x1^2)", 0.6),
                                          ("exp(x1)", 0.35), ("0", 0.01)])
    def test_network_carries_its_segment_placement(self, expr, eps):
        net, _ = fit_two_neuron(parse_expression(expr, 1), -1.0, 1.0, eps)
        a_n, b_n, u = _segment_coeffs(net.n, net.params, net.poly)
        assert (net.a_n, net.b_n) == (a_n, b_n)
        assert net.poly == u == monic_enum(net.n)
        xs = np.linspace(-1.0, 1.0, 41)
        t = (xs + 1.0) / 2.0
        want = net.c1 * sigma_segment(t, net.n, net.params, net.poly) \
            + net.c2 * (1.0 + net.params.M(1)) / 2.0
        assert np.array_equal(eval_network(net, xs), want)
        assert [eval_network(net, x) for x in xs] == list(want)


class TestFitting:
    def test_cubic_is_reproduced_on_a_segment(self):
        f = parse_expression("x1^3 + x1^2 - 5*x1 + 3", 1)
        net, achieved = fit_two_neuron(f, -1.0, 1.0, 1e-9)
        assert net.theta2 == -3
        assert net.theta1_exact == -459 and net.n == 115
        xs = np.linspace(-1, 1, 1001)
        resid = np.abs(np.array([f(x) for x in xs])
                       - np.array([eval_network(net, x) for x in xs]))
        assert float(resid.max()) <= 1e-8

    def test_constant_function(self):
        f = parse_expression("5", 1)
        net, achieved = fit_two_neuron(f, -1.0, 1.0, 0.01)
        assert achieved <= 1e-12

    def test_zero_function(self):
        f = parse_expression("0", 1)
        net, achieved = fit_two_neuron(f, -1.0, 1.0, 0.01)
        assert net.c1 == 0.0 and net.c2 == 0.0 and achieved == 0.0

    @pytest.mark.parametrize("eps", [0.6, 0.1])
    def test_rational_target_meets_tolerance(self, eps):
        f = parse_expression("4*x1/(4+x1^2)", 1)
        net, achieved = fit_two_neuron(f, -1.0, 1.0, eps)
        assert achieved <= eps and net.theta2 == -3

    def test_general_interval(self):
        f = parse_expression("x1^2", 1)
        net, achieved = fit_two_neuron(f, 2.0, 5.0, 1e-6)
        assert achieved <= 1e-6
        assert net.theta2 == 2 * 2.0 - 5.0
        assert eval_network(net, 3.0) == pytest.approx(9.0, abs=1e-6)

    def test_domain_checked_on_eval(self):
        f = parse_expression("x1", 1)
        net, _ = fit_two_neuron(f, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            eval_network(net, 2.0)


def to_sympy_oracle(field):
    """The former ScalarField.to_sympy: an AST-backed field as a sympy
    expression in x1..xd."""
    import sympy as sp
    if field.ast is None:
        raise ValueError("only expression-backed fields convert to sympy")
    syms = sp.symbols(f"x1:{field.dim + 1}")
    funcs = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp,
             "log": sp.log, "abs": sp.Abs, "sqrt": sp.sqrt}

    def conv(node):
        op = node[0]
        if op == "const":
            return sp.nsimplify(sp.Rational(Fraction(node[1]).limit_denominator(10**12)))
        if op == "var":
            return syms[node[1]]
        if op == "neg":
            return -conv(node[1])
        if op == "call":
            return funcs[node[1]](conv(node[2]))
        a, b = conv(node[1]), conv(node[2])
        return {"+": a + b, "-": a - b, "*": a * b,
                "/": a / b, "^": a ** b}[op]

    return conv(field.ast), syms


def exact_poly_coeffs_oracle(f, a, b):
    """The former sigmoid._exact_poly_coeffs, which read the coefficients
    through sympy."""
    ast = getattr(f, "ast", None)
    if ast is None:
        return None
    try:
        expr, syms = to_sympy_oracle(f)
        if len(syms) != 1:
            return None
        t = sympy.Symbol("t")
        g = sympy.expand(expr.subs(syms[0], rational(a) + (rational(b)
                                                           - rational(a)) * t))
        poly = sympy.Poly(g, t)
        if not all(c.is_Rational for c in poly.all_coeffs()):
            return None
        coeffs = [Fraction(int(c.p), int(c.q))
                  for c in reversed(poly.all_coeffs())]
        return coeffs
    except Exception:
        # non-polynomial expressions, symbolic failures: fall back
        return None


_DECIMALS = st.sampled_from(["0.5", "0.25", "0.1", "1.5", "2.75", "0.3",
                             "0.001", "12.5"]).map(float)
# divisors: products and quotients of nonzero literals, never zero
_NONZERO = st.recursive(
    st.one_of(st.integers(1, 9).map(float), _DECIMALS).map(
        lambda v: ("const", v)),
    lambda sub: st.one_of(
        sub.map(lambda n: ("neg", n)),
        st.tuples(st.sampled_from("*/"), sub, sub)),
    max_leaves=3)
_CONSTANTS = st.recursive(
    st.one_of(st.just(0.0), st.integers(1, 9).map(float), _DECIMALS).map(
        lambda v: ("const", v)),
    lambda sub: st.one_of(
        sub.map(lambda n: ("neg", n)),
        st.tuples(st.sampled_from("+-*"), sub, sub),
        st.tuples(st.just("/"), sub, _NONZERO)),
    max_leaves=4)


def _polynomial_nodes(sub):
    return st.one_of(
        sub.map(lambda n: ("neg", n)),
        st.tuples(st.sampled_from("+-*"), sub, sub),
        st.tuples(st.just("/"), sub, _NONZERO),
        st.tuples(st.just("^"), sub,
                  st.integers(0, 6).map(lambda k: ("const", float(k)))))


def _degree_bound(node):
    op = node[0]
    if op in ("const", "var"):
        return 1 if op == "var" else 0
    if op in ("neg", "/"):
        return _degree_bound(node[1])
    if op == "^":
        return _degree_bound(node[1]) * int(node[2][1])
    left, right = _degree_bound(node[1]), _degree_bound(node[2])
    return left + right if op == "*" else max(left, right)


# nested powers would reach degree 6^k, slow for sympy and the reader alike
POLYNOMIAL_ASTS = st.recursive(
    st.one_of(st.just(("var", 0)), _CONSTANTS), _polynomial_nodes,
    max_leaves=8).filter(lambda ast: _degree_bound(ast) <= 40)
ENDPOINTS = st.one_of(st.integers(-12, 12).map(lambda k: k / 4),
                      st.sampled_from([0.1, 1 / 3, -2.2]))


class TestExactPolynomialReader:
    @settings(max_examples=150, deadline=None)
    @given(POLYNOMIAL_ASTS, ENDPOINTS, ENDPOINTS)
    def test_matches_the_sympy_path(self, ast, a, b):
        if a == b:
            return
        a, b = min(a, b), max(a, b)
        f = parse_expression(format_ast(ast), 1)
        assert _exact_poly_coeffs(f, a, b) == \
            exact_poly_coeffs_oracle(f, a, b)

    @pytest.mark.parametrize("expr", [
        "exp(x1)", "1/(2+x1)", "4*x1/(4+x1^2)", "x1^0.5", "x1^x1", "abs(x1)",
        "x1/0", "x1^-1", "0^-1", "x1^(1/2)"])
    def test_non_polynomials_read_as_none(self, expr):
        f = parse_expression(expr, 1)
        assert _exact_poly_coeffs(f, -1.0, 1.0) is None
        assert exact_poly_coeffs_oracle(f, -1.0, 1.0) is None

    @pytest.mark.parametrize("expr,want", [
        ("x1/(x1 - x1 + 2)", [Fraction(-1, 2), Fraction(1)]),
        ("x1^(x1 - x1 + 3)", [Fraction(-1), Fraction(6), Fraction(-12),
                              Fraction(8)]),
        ("2^-2*x1", [Fraction(-1, 4), Fraction(1, 2)]),
        ("x1^0", [Fraction(1)]), ("x1 - x1", [Fraction(0)]),
        ("0^0", [Fraction(1)])])
    def test_constant_divisors_and_exponents_are_read_exactly(self, expr,
                                                              want):
        f = parse_expression(expr, 1)
        assert _exact_poly_coeffs(f, -1.0, 1.0) == want
        assert exact_poly_coeffs_oracle(f, -1.0, 1.0) == want

    @pytest.mark.parametrize("expr,sympy_reads", [
        ("x1*x1/x1", [Fraction(1, 2), 1]), ("sqrt(4)*x1", [1, 2])])
    def test_no_cancellation_through_division_or_calls(self, expr,
                                                       sympy_reads):
        # sympy cancels x1*x1/x1 to x1 and sqrt(4) to 2; the reader does
        # not, and the fit takes the Chebyshev path for both
        f = parse_expression(expr, 1)
        assert _exact_poly_coeffs(f, 0.5, 1.5) is None
        assert exact_poly_coeffs_oracle(f, 0.5, 1.5) == sympy_reads
        net, achieved = fit_two_neuron(f, 0.5, 1.5, 1e-6)
        assert achieved <= 1e-6

    def test_literals_are_read_as_rationals(self):
        # every literal is Fraction(v).limit_denominator(10**12), e and
        # 1.4142135623730951 too, where sympy's nsimplify saw E and sqrt(2)
        for expr, v in (("e*x1", math.e), ("1.4142135623730951*x1", 2**0.5),
                        ("pi*x1", math.pi)):
            f = parse_expression(expr, 1)
            c = Fraction(v).limit_denominator(10**12)
            assert _exact_poly_coeffs(f, 0.0, 1.0) == [0, c]

    def test_high_power_is_exact_and_fast(self):
        f = parse_expression("x1^200", 1)
        start = time.perf_counter()
        coeffs = _exact_poly_coeffs(f, -1.0, 1.0)
        elapsed = time.perf_counter() - start
        # (2t - 1)^200 by the binomial theorem
        assert coeffs == [math.comb(200, k) * 2**k * (-1) ** (200 - k)
                          for k in range(201)]
        assert elapsed < 0.26

    def test_multivariate_and_plain_callables_read_as_none(self):
        assert _exact_poly_coeffs(parse_expression("x1", 2), 0.0, 1.0) is None
        assert _exact_poly_coeffs(lambda x: x, 0.0, 1.0) is None


class TestMonicPoly:
    def test_horner_and_derivative_bound(self):
        p = MonicPoly((1, -2))  # x^2 - 2x + 1
        assert p(3.0) == pytest.approx(4.0)
        assert p.derivative_bound(1.5) >= 2 * 1.5 - 2

    def test_equality(self):
        assert MonicPoly((0, 1)) == MonicPoly((0, 1))
        assert MonicPoly((0, 1)) != MonicPoly((0,))
