import math
import random
import re
import sys
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgekit import sigmoid as sigmoid_module
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
    _WINDOW,
    _beta,
    _beta_hat,
    _canonical,
    _coeff_indices,
    _continued_fraction,
    _exact_poly_coeffs,
    _index_of_terms,
    _index_terms,
    _limited,
    _ln_big,
    _offsets,
    _placement,
    _poly_sup_dev,
    _segment_coeffs,
    _signed_float,
    _simplest_between,
    _taylor_truncate,
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

    def test_float_decode_of_every_small_index(self):
        for k in range(1 << 16):
            assert _signed_float(k) == float(rational_enum(k))

    @given(st.integers(1, 4096), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_float_decode_of_random_large_indices(self, bits, seed):
        k = random.Random(seed).getrandbits(bits) | (1 << (bits - 1))
        assert _signed_float(k) == float(rational_enum(k))


# The decode kernels as they were before they split bin(n ^ (n >> 1)),
# subtracted the offsets in place and summed B1 and B2 in one loop, kept
# verbatim as their reference: a regex match per binary run, a zip with
# _offsets, and one sum() per bound.

_RUNS = re.compile("1+|0+")


def reference_index_terms(n):
    terms = [m.end() - m.start() for m in _RUNS.finditer(bin(n), 2)]
    if not n & 1:
        terms.append(0)
    terms.reverse()
    return _canonical(terms)


def reference_coeff_indices(n):
    if n == 1:
        return []
    terms = reference_index_terms(n)
    return [c - o for c, o in zip(terms, _offsets(len(terms)))]


def reference_placement(n, alpha, M):
    if n == 1:
        return 0.5, M / 2.0
    B1 = (alpha[0] if alpha else 0.0) \
        + sum((a - abs(a)) / 2.0 for a in alpha[1:])
    B2 = (alpha[0] if alpha else 0.0) \
        + sum((a + abs(a)) / 2.0 for a in alpha[1:]) + 1.0
    a_n = ((1.0 + 2.0 * M) * B2 - (2.0 + M) * B1) / (3.0 * (B2 - B1))
    b_n = (1.0 - M) / (3.0 * (B2 - B1))
    return a_n, b_n


def outcome(f, *args):
    """f(*args) as the hex of each float, so that -0.0 and NaN compare
    too, or the type of what it raised."""
    try:
        return tuple(x.hex() for x in f(*args))
    except ArithmeticError as e:
        return type(e)


def window_edge_indices():
    """Indices whose runs meet, straddle or end at an edge of the split
    windows: one run of ones or a lone one over several windows, and
    alternating bits, a single zero and a pair of zeros at each bit
    that lands within three characters of a window edge in bin(y)."""
    ns = [(1 << 70_000) - 1, 1 << 70_000, (1 << 140_000) - 1, 1 << 140_000]
    for edge in (_WINDOW, 2 * _WINDOW):
        for bits in range(edge - 4, edge + 5):
            ones = (1 << bits) - 1
            ns += [ones, 1 << (bits - 1), ones // 3 * 2 | 1 << (bits - 1),
                   ones // 3 | 1 << (bits - 1)]
        bits = edge + 4_000
        ones = (1 << bits) - 1
        # bit j of y sits at character 2 + (bits - 1 - j) of bin(y)
        for j in range(bits + 1 - edge - 3, bits + 1 - edge + 4):
            ns += [ones ^ (1 << j), ones ^ (3 << j), 1 << (bits - 1) | 1 << j,
                   1 << (bits - 1) | 3 << j]
    return ns


# the sum() of the reference adds floats left to right only up to Python
# 3.11; from 3.12 on it compensates, and _placement's loop does not
LEFT_TO_RIGHT_SUM = pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="sum() of floats is compensated from Python 3.12 on")

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                  1e308, -1e308, 1.7976931348623157e308, 1.0, -1.0, 0.5,
                  1e-300, math.inf, -math.inf, math.nan]


class TestDecodeKernelsMatchTheirReferences:
    def test_every_index_below_2_to_the_16(self):
        for n in range(1, 1 << 16):
            assert _index_terms(n) == reference_index_terms(n)
            assert _coeff_indices(n) == reference_coeff_indices(n)

    @given(st.integers(1, 8192), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_random_indices_up_to_8192_bits(self, bits, seed):
        n = random.Random(seed).getrandbits(bits) | (1 << (bits - 1))
        assert _index_terms(n) == reference_index_terms(n)
        assert _coeff_indices(n) == reference_coeff_indices(n)

    @given(st.integers(1, 2**8192))
    @settings(max_examples=200, deadline=None)
    def test_indices_hypothesis_draws_up_to_8192_bits(self, n):
        assert _index_terms(n) == reference_index_terms(n)
        assert _coeff_indices(n) == reference_coeff_indices(n)

    def test_runs_across_the_window_edges(self):
        for n in window_edge_indices():
            assert _index_terms(n) == reference_index_terms(n), n.bit_length()
            assert _coeff_indices(n) == reference_coeff_indices(n)

    @LEFT_TO_RIGHT_SUM
    @pytest.mark.parametrize("alpha", [
        [], [0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0, -0.0],
        [5e-324, -5e-324, 5e-324], [1e308, 1e308], [-1e308, -1e308, 1e308],
        [0.0, 1e308, -1e308], [1e308], [-1e308, 0.5], [1.0, 1e-17, 1e-17],
        [0.1, 0.2, 0.3, -0.4, 0.7],
    ])
    @pytest.mark.parametrize("n, M", [(1, 0.8), (2, 0.8), (7, 0.95),
                                      (2**80, 1 - 2**-53), (3, 5e-324)])
    def test_placement_cases(self, n, alpha, M):
        assert outcome(_placement, n, alpha, M) \
            == outcome(reference_placement, n, alpha, M)

    @LEFT_TO_RIGHT_SUM
    @given(st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                    max_size=12),
           st.integers(2, 2**64), st.floats(0.0, 1.0))
    @settings(max_examples=400)
    def test_placement_of_any_floats(self, alpha, n, M):
        assert outcome(_placement, n, alpha, M) \
            == outcome(reference_placement, n, alpha, M)

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=400)
           .map(_canonical))
    @settings(max_examples=200, deadline=None)
    def test_encode_of_many_runs_is_the_shift_loop(self, terms):
        assert _index_of_terms(terms) == fraction_index_of_terms(terms)

    def test_encode_across_the_halving_threshold(self):
        rng = random.Random(38)
        for count in [63, 64, 65, 66, 127, 128, 129, 130, 4096, 4097]:
            for terms in ([1] * count, [rng.randrange(1, 9)
                                        for _ in range(count)]):
                n = _index_of_terms(terms)
                assert n == fraction_index_of_terms(terms)
                assert _index_terms(n) == _canonical(list(terms))

    @given(st.integers(1, 4096), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_monic_enum_is_the_public_constructor(self, bits, seed):
        n = random.Random(seed).getrandbits(bits) | (1 << (bits - 1))
        u = monic_enum(n)
        assert type(u.coeffs) is tuple
        assert all(type(c) is Fraction for c in u.coeffs)
        assert u == MonicPoly(list(u.coeffs))
        assert u.row == MonicPoly(list(u.coeffs)).row
        assert monic_index(u) == n


# The Fraction formulation that the integer kernels replaced, kept as
# their reference: Fraction comparisons and arithmetic, coefficients
# deduplicated by Fraction hash, n built up from 0.

def fraction_continued_fraction(q):
    q = Fraction(q)
    terms = []
    while q.denominator != 1:
        c = q.numerator // q.denominator
        terms.append(c)
        q = 1 / (q - c)
    terms.append(q.numerator)
    if len(terms) > 1 and terms[-1] == 1:
        terms.pop()
        terms[-1] += 1
    return terms


def fraction_index_of_terms(terms):
    terms = list(terms)
    if len(terms) % 2 == 0:
        terms[-1] -= 1
        terms.append(1)
    n = 0
    ones = True
    for term in reversed(terms):
        n <<= term
        if ones:
            n |= (1 << term) - 1
        ones = not ones
    return n


def fraction_rational_index(r):
    r = rational(r)
    if r == 0:
        return 0
    n = fraction_index_of_terms(fraction_continued_fraction(abs(r)))
    return 2 * n if r > 0 else 2 * n - 1


def fraction_monic_index(coeffs):
    coeffs = [rational(c) for c in coeffs]
    degree = len(coeffs)
    if degree == 0:
        return 1
    offsets = [2] if degree == 1 else [0] + [1] * (degree - 2) + [2]
    index = {c: fraction_rational_index(c) for c in set(coeffs)}
    return fraction_index_of_terms([index[c] + o
                                    for c, o in zip(coeffs, offsets)])


def fraction_simplest_between(lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -fraction_simplest_between(-hi, -lo)
    floor_lo = lo.numerator // lo.denominator
    if floor_lo == lo:
        return Fraction(floor_lo)
    if floor_lo + 1 <= hi:
        return Fraction(floor_lo + 1)
    return floor_lo + 1 / fraction_simplest_between(1 / (hi - floor_lo),
                                                    1 / (lo - floor_lo))


def pair(q):
    q = Fraction(q)
    return q.numerator, q.denominator


# coefficients of every input type: zero, both signs, ints, dyadic floats,
# decimal and fraction strings, Fractions.  A coefficient's index has as
# many bits as its continued-fraction terms sum to, and that index is a
# term of n, so the terms stay small
COEFF_POOL = [0, 0.0, "0", 1, -1, 3, -7, 0.5, -0.75, 2.25, -12.0, "3/4",
              "-2/7", "0.125", "-5", Fraction(11, 13), Fraction(-9, 4)]
coeff = st.one_of(st.sampled_from(COEFF_POOL),
                  st.fractions(min_value=-6, max_value=6, max_denominator=6))


class TestIntegerKernels:
    @pytest.mark.parametrize("lo, hi", [
        (Fraction(1, 3), Fraction(1, 2)),     # ordered
        (Fraction(1, 2), Fraction(1, 3)),     # reversed ends
        (Fraction(-1, 5), Fraction(2, 7)),    # 0 inside
        (Fraction(0), Fraction(3, 4)),        # 0 as an end
        (Fraction(-5, 7), Fraction(-2, 3)),   # both ends negative
        (Fraction(-2, 3), Fraction(-5, 7)),
        (Fraction(2), Fraction(17, 7)),       # an integer end
        (Fraction(17, 7), Fraction(3)),
        (Fraction(-3), Fraction(-17, 7)),
        (Fraction(22, 7), Fraction(22, 7)),   # lo == hi
        (Fraction(4), Fraction(4)),
        (Fraction(-13, 8), Fraction(-13, 8)),
        (Fraction(314159, 100000), Fraction(314160, 100000)),
    ])
    def test_simplest_between_cases(self, lo, hi):
        got = _simplest_between(pair(lo), pair(hi))
        assert type(got) is Fraction
        assert got == fraction_simplest_between(lo, hi)
        assert min(lo, hi) <= got <= max(lo, hi)

    @given(st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
           st.fractions(min_value=-50, max_value=50, max_denominator=10**6))
    @settings(max_examples=300)
    def test_simplest_between_matches_the_fraction_descent(self, lo, hi):
        got = _simplest_between(pair(lo), pair(hi))
        assert got == fraction_simplest_between(lo, hi)

    @pytest.mark.parametrize("x, max_den", [
        (0.5, 1), (1.5, 1), (2.5, 1), (-0.5, 1), (-2.5, 1),   # exact ties
        (0.25, 2), (0.75, 2), (-1.25, 2), (0.125, 4), (0.375, 4),
        (Fraction(5, 12), 3), (Fraction(-5, 12), 3), (Fraction(7, 24), 4),
        (0.5, 2), (3.0, 1), (0.0, 7), (-0.0, 7), (-0.375, 8),  # den <= N
        (Fraction(-22, 7), 7), (5, 1),
        (-0.1, 10**9), (-math.pi, 1000), (-1e-9, 10**9),      # negative
        (5e-324, 10**9), (-5e-324, 1), (2.2250738585072014e-308 / 3, 10**12),
        (1.7976931348623157e308, 10**9), (-1e300, 10**12),    # huge
        (1e20 + 0.5, 10**9), (123456789.12345678, 10**12),
    ])
    def test_limited_cases(self, x, max_den):
        want = Fraction(x).limit_denominator(max_den)
        assert _limited(x, max_den) == (want.numerator, want.denominator)

    def test_limited_on_every_tie_of_small_denominators(self):
        # midpoints of two neighbours in the Farey sequence of order N are
        # where the nearest rational is not unique
        for max_den in range(1, 13):
            farey = sorted({Fraction(p, q) for q in range(1, max_den + 1)
                            for p in range(-2 * q, 2 * q + 1)})
            for left, right in zip(farey, farey[1:]):
                x = (left + right) / 2
                want = x.limit_denominator(max_den)
                assert _limited(x, max_den) == pair(want)
                assert _limited(float(x), max_den) == pair(
                    Fraction(float(x)).limit_denominator(max_den))

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.integers(1, 10**13))
    @settings(max_examples=400)
    def test_limited_matches_the_standard_library(self, x, max_den):
        want = Fraction(x).limit_denominator(max_den)
        assert _limited(x, max_den) == (want.numerator, want.denominator)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_limited_refuses_what_fraction_refuses(self, x):
        with pytest.raises(Exception) as want:
            Fraction(x)
        with pytest.raises(Exception) as got:
            _limited(x, 10**9)
        assert got.type is want.type

    @given(coeff)
    @settings(max_examples=300)
    def test_rational_index_matches_the_fraction_code(self, r):
        assert rational_index(r) == fraction_rational_index(r)

    @given(st.lists(coeff, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_monic_index_matches_the_fraction_code(self, coeffs):
        assert monic_index(coeffs) == fraction_monic_index(coeffs)

    def test_monic_index_of_repeated_coefficients_of_mixed_types(self):
        rng = random.Random(28)
        for _ in range(300):
            coeffs = [rng.choice(COEFF_POOL)
                      for _ in range(rng.randrange(1, 9))]
            n = monic_index(coeffs)
            assert n == fraction_monic_index(coeffs)
            assert monic_enum(n) == MonicPoly(coeffs)


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


def sigma_oracle(x, params):
    """sigma at one finite point, by the arithmetic of a segment-by-segment
    loop: u_n and u_{n+1} enumerated as MonicPoly objects, evaluated by
    MonicPoly.__call__ and joined by _beta."""
    d = params.d
    xa = np.array([float(x)])
    if x < d:
        return float(((1.0 - _beta_hat(d - xa)) * (1.0 + params.M(1)) / 2.0)[0])
    n = max(1, math.floor((x / d + 1.0) / 2.0))
    a_n, b_n, u = _segment_coeffs(n, params)
    if x <= 2 * n * d:
        return float((a_n + b_n * u(xa / d - 2 * n + 1))[0])
    a1, b1, u1 = _segment_coeffs(n + 1, params)
    K = 0.5 * ((a_n + b_n * u(1.0)) + (a1 + b1 * u1(0.0)))
    eps = (1.0 - params.M(n)) / 6.0
    delta = min(eps * d / (b_n * max(u.derivative_bound(1.5), 1e-300)),
                d / 2.0)
    eps1 = (1.0 - params.M(n + 1)) / 6.0
    delta1 = min(eps1 * d / (b1 * max(u1.derivative_bound(0.5), 1e-300)),
                 d / 2.0)
    if x <= (2 * n + 0.5) * d:
        step = _beta(xa, 2 * n * d, 2 * n * d + delta)
        w = K - step * (K - (a_n + b_n * u(xa / d - 2 * n + 1)))
    else:
        step = 1.0 - _beta(xa, (2 * n + 1) * d - delta1, (2 * n + 1) * d)
        w = K - step * (K - (a1 + b1 * u1(xa / d - 2 * n - 1)))
    return float(w[0])


@st.composite
def sigma_points(draw):
    """(params, xs): points on the left tail, on main segments, in both
    halves of transitions and at segment ends, over a few segments n drawn
    together with n + 1, so that segments repeat."""
    d = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    lam = draw(st.sampled_from([0.1, 0.25, 0.4, 0.75]))
    ns = draw(st.lists(st.integers(1, 200_000), min_size=1, max_size=4))
    ns += [n + 1 for n in ns]
    xs = []
    for _ in range(draw(st.integers(1, 24))):
        n = draw(st.sampled_from(ns))
        u = draw(st.floats(0.0, 1.0))
        place = draw(st.sampled_from(["tail", "main", "first", "second",
                                      "end"]))
        if place == "tail":
            x = d - 10.0 * d * u
        elif place == "main":
            x = (2 * n - 1 + u) * d
        elif place == "first":
            x = (2 * n + 0.5 * u) * d
        elif place == "second":
            x = (2 * n + 0.5 + 0.5 * u) * d
        else:
            x = draw(st.sampled_from([(2 * n - 1) * d, 2 * n * d,
                                      (2 * n + 1) * d]))
        xs.append(float(f"{x:.6f}") if draw(st.booleans()) else x)
    return SigmoidParams(d, lam), xs


class TestVectorisedSigma:
    @given(sigma_points())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_point_by_point_oracle(self, case):
        params, xs = case
        want = [sigma_oracle(x, params) for x in xs]
        assert sigma(np.array(xs), params).tolist() == want
        assert sigma(xs[0], params) == want[0]
        assert isinstance(sigma(xs[0], params), float)

    @pytest.mark.parametrize("d", [0.1, 1e-300])
    def test_overflowing_points_among_others(self, d):
        # x/d overflows for the points from 1e9 up (with d = 1e-300) and
        # near 1.7e308, some repeated; the others lie on the left tail, on
        # main parts and in both halves of the transition from segment 4
        xs = [1.7e308, 0.5 * d, 1.7e308, 7.3 * d, 1e308, 8.2 * d, 8.9 * d,
              1.6e308, 1.7e308, 123456.7 * d, 2.0]
        if d < 1e-290:
            xs += [1e9, 1e9]
        params = SigmoidParams(d, 0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigma(np.array(xs), params).tolist()
            want = [sigma(x, params) for x in xs]
        assert [v.hex() for v in got] == [v.hex() for v in want]


def strip_bounds(x, params):
    """Interval sigma(x) must lie in, from the exact segment n of x >= d:
    segment n's strip on its main part; between it and segment n+1's, with
    the (1 - M_n)/6 slack of the smooth step, in the transition."""
    q = Fraction(x) / Fraction(params.d)
    n = max(1, math.floor((q + 1) / 2))
    M = params.M(n)
    lo, hi = (1.0 + 2.0 * M) / 3.0, (2.0 + M) / 3.0
    if n == 1:
        lo = hi = (1.0 + M) / 2.0
    if q <= 2 * n:
        return lo, hi
    M1 = params.M(n + 1)
    slack = (1.0 - M) / 6.0
    return (min(lo, (1.0 + 2.0 * M1) / 3.0) - slack,
            max(hi, (2.0 + M1) / 3.0) + slack)


class TestSigmaDomain:
    def test_narrow_transition_is_finite(self):
        # the transition after segment 158,868 is 7.6e-4 wide, so both
        # exp(-1/s) terms of its step underflow
        params = SigmoidParams(0.5, 0.4)
        x = 158868.00011918705
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = sigma(x, params)
        lo, hi = strip_bounds(x, params)
        assert 0.0 < v < 1.0 and lo - 1e-12 <= v <= hi + 1e-12

    def test_narrow_step_in_logistic_form(self):
        # 1 / (1 + exp(1/(hi - x) - 1/(x - lo))) where both terms underflow
        lo, hi = 10.0, 10.0 + 1e-3
        xs = np.array([lo - 1e-4, lo, lo + 2e-4, lo + 5e-4, lo + 8e-4, hi,
                       hi + 1e-4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _beta(xs, lo, hi)
        want = [float(1 / (1 + (1 / Decimal(hi - x)
                                - 1 / Decimal(x - lo)).exp()))
                for x in xs[2:5]]
        assert got[0] == 1.0 and got[1] == 1.0
        assert got[-2] == 0.0 and got[-1] == 0.0
        assert got[2:5].tolist() == pytest.approx(want, rel=1e-12, abs=0)
        assert got[2] > got[3] > got[4]

    @pytest.mark.parametrize("d", [1.0, 2.0, 0.5, 3.0])
    @pytest.mark.parametrize("x", [2e19, 1e20, 1e300, 1.7e308])
    def test_segment_index_beyond_int64(self, x, d):
        params = SigmoidParams(d, 0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = sigma(x, params)
        lo, hi = strip_bounds(x, params)
        assert 0.0 < v < 1.0 and lo - 1e-12 <= v <= hi + 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_x_is_refused(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=repr(bad)):
                sigma(np.array([3.0, bad]), P)
            with pytest.raises(ValueError, match=repr(bad)):
                sigma(bad, P)

    @pytest.mark.parametrize("d,lam,name", [
        (float("inf"), 0.25, "d"), (1.0, float("inf"), "lambda"),
        (float("nan"), 0.25, "d"), (1.0, float("nan"), "lambda"),
        (0.0, 0.25, "d"), (1.0, -0.1, "lambda")])
    def test_parameters_must_be_finite_and_positive(self, d, lam, name):
        with pytest.raises(ValueError, match=f"finite {name} > 0"):
            SigmoidParams(d, lam)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_eval_network_refuses_a_non_finite_x(self, bad):
        net, _ = fit_two_neuron(parse_expression("x1^2", 1), 0.0, 1.0, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=repr(bad)):
                eval_network(net, bad)
            with pytest.raises(ValueError, match=repr(bad)):
                eval_network(net, np.array([0.5, bad]))


def reference_M(params, n):
    """h((2n+1) d) = 1 - lam/(1 + log(2 n d + 1)) from exact integers: with
    d = p/q, log(2 n d + 1) = log(2 n p + q) - log(q)."""
    p, q = params.d.as_integer_ratio()
    lnval = _ln_big(2 * n * p + q) - _ln_big(q)
    return 1.0 - params.lam_eff / (1.0 + lnval)


class TestBitIdentity:
    @pytest.mark.parametrize("d,lam", [(2.0, 0.25), (0.5, 0.1), (3.0, 0.75)])
    def test_M_from_the_bit_length(self, d, lam):
        params = SigmoidParams(d, lam)
        rng = random.Random(7)
        for bits in list(range(38, 61)) + [10**3, 10**6]:
            for n in (1 << (bits - 1), (1 << bits) - 1,
                      rng.getrandbits(bits) | (1 << (bits - 1))):
                want = reference_M(params, n)
                assert abs(params.M(n) - want) <= math.ulp(want)

    @pytest.mark.parametrize("d", [2.0, 1.0, 0.1, 1e-3, 1e-6, 1e-12])
    def test_M_increases_across_40_bits(self, d):
        # from 41 bits on M is read from log(2n) + log(d); the + 1 of
        # log(2 n d + 1) must stay, or M falls there when d < 1/2
        params = SigmoidParams(d, 0.25)
        ms = [params.M(n) for n in range(2**40 - 2, 2**40 + 3)]
        assert ms == sorted(ms)
        want = 1.0 - 0.25 / (1.0 + math.log1p(2.0**41 * d))
        assert ms[2] == pytest.approx(want, rel=1e-15)

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

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0])
    def test_eps_must_be_finite_and_non_negative(self, eps):
        f = parse_expression("x1^3+x1", 1)
        with pytest.raises(ValueError, match="^eps must be finite"):
            fit_two_neuron(f, 0.0, 1.0, eps)

    def test_domain_checked_on_eval(self):
        f = parse_expression("x1", 1)
        net, _ = fit_two_neuron(f, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            eval_network(net, 2.0)

    def test_a_network_that_misses_eps_is_refused(self):
        # on [1e20, 3e20] the weights c1 and -c2 are about 1.26e23 and
        # cancel in floats: the network misses eps = 1 by seven digits
        f = parse_expression("x1", 1)
        with pytest.raises(ArithmeticError,
                           match=r"error 15466496\.0 .* exceeds eps = 1\.0$"):
            fit_two_neuron(f, 1e20, 3e20, 1.0)

    @pytest.mark.parametrize("k", [16, 32, 64])
    def test_exact_monomials_fall_back_to_their_own_coefficients(self, k):
        # no rounding of the midpoint truncations stays within eps/2; the
        # exact coefficients do, and t^k is the monic polynomial whose
        # index is k bits of 1010...
        f = parse_expression(f"x1^{k}", 1)
        net, achieved = fit_two_neuron(f, 0.0, 1.0, 0.1)
        assert net.n == int("10" * (k // 2), 2)
        assert net.poly == MonicPoly([0] * k)
        assert achieved <= 0.1


def from_midpoint(shifted):
    """Coefficients in powers of t of sum_j shifted[j] (t - 1/2)^j."""
    out = [Fraction(0)] * len(shifted)
    for j, d in enumerate(shifted):
        for m in range(j + 1):
            out[m] += d * math.comb(j, m) * Fraction(-1, 2) ** (j - m)
    return out


def taylor_truncate_reference(coeffs, eps, tgrid, g_vals):
    """The former ``_taylor_truncate``, a binomial double loop each way:
    the reference for its one exact composition."""
    deg = len(coeffs) - 1
    shifted = [sum(coeffs[i] * math.comb(i, j) * Fraction(1, 2) ** (i - j)
                   for i in range(j, deg + 1)) for j in range(deg + 1)]
    for k in range(deg + 1):
        trunc = from_midpoint(shifted[:k + 1])
        if _poly_sup_dev(trunc, g_vals, tgrid) <= 0.5 * eps:
            return trunc
    return list(coeffs)


@st.composite
def exact_polys(draw):
    """(coefficients in powers of t, no trailing zeros, and the target's
    values on the fit grid), drawn in powers of t - 1/2 with zeros among
    them; the target is the polynomial plus a small wobble."""
    shifted = draw(st.lists(
        st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=12)),
        min_size=1, max_size=8))
    coeffs = from_midpoint(shifted)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    tgrid = np.linspace(0.0, 1.0, 1001)
    wobble = draw(st.sampled_from([0.0, 1e-7, 1e-3]))
    g_vals = (np.polyval([float(c) for c in reversed(coeffs)], tgrid)
              + wobble * np.sin(40 * tgrid))
    return coeffs, tgrid, g_vals


@given(exact_polys(), st.sampled_from([0.0, 1e-6, 1e-3, 0.05, 0.3, 1.0, 4.0]))
@settings(max_examples=300, deadline=None)
def test_taylor_truncate_matches_the_binomial_loops(case, eps):
    coeffs, tgrid, g_vals = case
    got = _taylor_truncate(coeffs, eps, tgrid, g_vals)
    # equal lists: the same coefficients, and as many of them
    assert got == taylor_truncate_reference(coeffs, eps, tgrid, g_vals)


@given(st.integers(0, 20).flatmap(lambda deg: st.lists(
           st.one_of(st.just(0.0), st.floats(-9, 9)), min_size=deg + 1,
           max_size=deg + 1)),
       st.sampled_from([1e-9, 1e-3, 0.05, 1.0]))
@settings(max_examples=60, deadline=None)
def test_taylor_truncate_matches_the_binomial_loops_at_high_degree(shifted,
                                                                    eps):
    # degree up to 20 and denominators up to 10**12, as literals are read;
    # the tail in powers of t - 1/2 shrinks like 2^-j on [0, 1], so the
    # truncation stops at every degree across the eps
    shifted = [Fraction(v).limit_denominator(10**12) for v in shifted]
    coeffs = from_midpoint(shifted)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    tgrid = np.linspace(0.0, 1.0, 1001)
    g_vals = np.polyval([float(c) for c in reversed(coeffs)], tgrid)
    got = _taylor_truncate(coeffs, eps, tgrid, g_vals)
    assert got == taylor_truncate_reference(coeffs, eps, tgrid, g_vals)


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


def eval_ast_exactly(node, x):
    """The polynomial AST ``node`` at the rational x1 = ``x``, in Fractions,
    each literal read as Fraction(v).limit_denominator(10**12)."""
    op = node[0]
    if op == "const":
        return Fraction(node[1]).limit_denominator(10**12)
    if op == "var":
        return x
    if op == "neg":
        return -eval_ast_exactly(node[1], x)
    a, b = eval_ast_exactly(node[1], x), eval_ast_exactly(node[2], x)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    assert op == "^" and b.denominator == 1
    return a ** int(b)


class TestExactPolynomialReader:
    @settings(max_examples=150, deadline=None)
    @given(POLYNOMIAL_ASTS, ENDPOINTS, ENDPOINTS)
    def test_matches_the_sympy_path(self, ast, a, b):
        # g(t) = f(a + (b-a)t) has degree at most deg, so agreement with
        # the AST at deg + 1 distinct t proves the coefficients equal; the
        # sympy oracle stays on the fixed cases below, where it is fast
        if a == b:
            return
        a, b = min(a, b), max(a, b)
        f = parse_expression(format_ast(ast), 1)
        coeffs = _exact_poly_coeffs(f, a, b)
        deg = _degree_bound(ast)
        assert coeffs is not None and len(coeffs) <= deg + 1
        assert coeffs == [0] or coeffs[-1] != 0
        ra, rb = rational(a), rational(b)
        for t in range(deg + 1):
            want = eval_ast_exactly(ast, ra + (rb - ra) * t)
            assert sum(c * t**i for i, c in enumerate(coeffs)) == want

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

    def test_a_sum_with_a_call_on_the_right_reads_as_none(self):
        # the left operand reads, the right one is refused
        f = parse_expression("x1 + sin(x1)", 1)
        assert _exact_poly_coeffs(f, -1.0, 1.0) is None

    @pytest.mark.parametrize("expr", ["sin((123456789*x1+1)^256)",
                                      "x1 + sin(x1^3 - 2*x1 + 1)"])
    def test_a_call_is_refused_before_any_node_is_read(self, monkeypatch,
                                                       expr):
        # the parser records that it read a call, so the argument of sin,
        # a power of about 65,000 bits, is never expanded
        steps = []
        monkeypatch.setattr(sigmoid_module, "_poly_step",
                            lambda *args: steps.append(args[1]))
        assert _exact_poly_coeffs(parse_expression(expr, 1), 0.0, 1.0) is None
        assert steps == []

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

    @pytest.mark.parametrize("expr", [
        "x1^2000", "(1+x1)^300", "x1^(10^9)", "0.5^(10^9)*x1",
        "x1^200*x1^57", "(x1^2)^129", "0.5^32769*x1", "2^-32769"])
    def test_expansions_past_the_bounds_read_as_none(self, expr):
        # degree above 256, or a power of more than 2^16 bits, is refused
        # before it is expanded: x1^(10^9) would square toward degree 2^29
        f = parse_expression(expr, 1)
        start = time.perf_counter()
        assert _exact_poly_coeffs(f, 0.0, 1.0) is None
        assert time.perf_counter() - start < 0.1

    def test_expansions_at_the_bounds_are_read(self):
        coeffs = _exact_poly_coeffs(parse_expression("x1^200*x1^56", 1),
                                    0.0, 1.0)
        assert coeffs == [0] * 256 + [1]
        # 0.5 is 1/2, two bits: 32768 of them make 2^16
        coeffs = _exact_poly_coeffs(parse_expression("0.5^32768*x1", 1),
                                    0.0, 1.0)
        assert coeffs == [0, Fraction(1, 2**32768)]

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
