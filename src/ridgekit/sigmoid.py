"""A smooth universal sigmoidal activation and a two-neuron fitter.

The activation sigma(.; d, lambda) is built segment by segment: on the
n-th segment [(2n-1)d, 2nd] it traces the n-th monic polynomial with
rational coefficients (enumerated through the Calkin-Wilf sequence),
squeezed into a thin horizontal strip below 1; smooth bump transitions
join the segments.  Any continuous function on [a, b] can then be
approximated to accuracy eps by c1*sigma(x - t1) + c2*sigma(x - t2) with
suitable weights and (astronomically large, exactly represented) shifts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, partial

import numpy as np

from .core import _fold, _integer_coordinates, rational

_LN2 = math.log(2.0)
FIT_GRID_N = 1001   # nodes of the grid on which a fit's error is measured
MAX_DEGREE = 30     # highest Chebyshev degree tried for a non-polynomial
MAX_EXACT_DEGREE = 256      # highest degree the exact reader expands
MAX_EXACT_BITS = 1 << 16    # largest power, in bits, it expands


# ---------------------------------------------------------------------------
# Calkin-Wilf sequence and the monic-polynomial enumeration

def _ln_big(n):
    """log of a positive int of arbitrary size, accurate to ~1e-15."""
    if n.bit_length() <= 52:
        return math.log(n)
    shift = n.bit_length() - 53
    return math.log(n >> shift) + shift * _LN2


_WINDOW = 1 << 16   # characters of bin(y) that _index_terms splits at once


def _index_terms(n):
    """Canonical continued fraction of q_n, read from the binary runs of n.

    The run lengths of n's binary digits, least significant first and
    starting with the (possibly empty) run of ones, are the continued
    fraction of the n-th Calkin-Wilf rational; a trailing run of 1 merges
    into the term before it, as in _continued_fraction.

    Bit i of y = n ^ (n >> 1) is set at the top of each run of n, so
    bin(y), split at each 1 after its leading one, leaves a string of
    zeros one shorter than each run, most significant first.  The split
    goes _WINDOW characters at a time, the open run carried across each
    edge, so no second copy of the digits is made.  Linear in the bit
    length; the peak memory beyond n and the terms is two ints the size of
    n (n >> 1 and y) and bin(y), a byte a bit, which is why the encode
    side (_index_of_terms) builds no string.
    """
    digits = bin(n ^ (n >> 1))
    terms = [len(z) + 1 for z in digits[3:_WINDOW].split("1")]
    for start in range(_WINDOW, len(digits), _WINDOW):
        window = digits[start:start + _WINDOW]
        more = [len(z) + 1 for z in window.split("1")]
        more[0] += terms.pop() - 1      # the open run goes on
        terms += more
    if not n & 1:
        terms.append(0)
    terms.reverse()
    return _canonical(terms)


def _canonical(terms):
    """The terms made canonical: a trailing 1 merges into the one before."""
    if len(terms) > 1 and terms[-1] == 1:
        terms.pop()
        terms[-1] += 1
    return terms


def _index_of_terms(terms, max_bits=300_000_000):
    """Inverse of _index_terms: the index n whose binary runs are the
    canonical continued fraction ``terms`` (no Fraction, no digit string)."""
    if sum(terms) > max_bits:
        raise OverflowError(
            "Calkin-Wilf index would exceed the bit budget")
    terms = list(terms)
    if len(terms) % 2 == 0:
        # need an odd number of run lengths (the leading binary run is
        # always ones); split the final term
        terms[-1] -= 1
        terms.append(1)
    return _runs_int(terms)


def _runs_int(terms):
    """The int whose binary runs are ``terms``, terms[0] least significant,
    with ones at even positions.  Past 64 runs the halves are built apart
    and joined by one shift, O(L log r) for L bits in r runs, instead of
    shifting the growing int up run by run, O(L r)."""
    if len(terms) > 64:
        mid = len(terms) // 4 * 2
        return (_runs_int(terms[mid:]) << sum(terms[:mid])
                | _runs_int(terms[:mid]))
    n = 0
    ones = len(terms) % 2       # whether terms[-1] is a run of ones
    for term in reversed(terms):
        n <<= term
        if ones:
            n |= (1 << term) - 1
        ones = not ones
    return n


def _terms_ratio(terms):
    """The rational [c_0; c_1, ..., c_k] as a pair (num, den) of coprime
    ints, by integer recurrence."""
    num, den = terms[-1], 1
    for term in reversed(terms[:-1]):
        num, den = term * num + den, num
    return num, den


def calkin_wilf(n):
    """n-th term (1-based) of the Calkin-Wilf enumeration of the positive
    rationals.  Its continued fraction is read off the binary runs of n in
    one pass, run by run rather than bit by bit."""
    n = int(n)
    if n < 1:
        raise ValueError("index must be >= 1")
    return Fraction(*_terms_ratio(_index_terms(n)))


def _terms(num, den):
    """Canonical continued fraction of num/den > 0, two ints: the quotients
    of Euclid's algorithm, [c0; c1, ..., ck] with middle terms >= 1 and the
    last term >= 2 unless the expansion is just [c0]."""
    terms = []
    while den:
        terms.append(num // den)
        num, den = den, num % den
    return _canonical(terms)


def _continued_fraction(q):
    """Canonical continued fraction of the rational q > 0 (see _terms)."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("need a positive rational")
    return _terms(q.numerator, q.denominator)


def cw_index(q, max_bits=300_000_000):
    """Position of the positive rational q in the Calkin-Wilf sequence."""
    return _index_of_terms(_continued_fraction(q), max_bits)


def rational_enum(k):
    """Enumeration of all rationals: 0, q1, -q1, q2, -q2, ... re-indexed as
    r_0 = 0, r_{2n} = q_n, r_{2n-1} = -q_n."""
    k = int(k)
    if k < 0:
        raise ValueError("index must be >= 0")
    return Fraction(*_signed_ratio(k))


def _signed_ratio(k):
    """rational_enum(k), k >= 0, as a pair (num, den) of coprime ints."""
    if k == 0:
        return 0, 1
    num, den = _terms_ratio(_index_terms((k + 1) // 2))
    return (num if k % 2 == 0 else -num), den


def _signed_float(k):
    """float(rational_enum(k)) with no Fraction: an int quotient num / den
    is correctly rounded, as float(Fraction) is."""
    num, den = _signed_ratio(k)
    return num / den


def rational_index(r):
    """Inverse of rational_enum."""
    r = rational(r)
    return _signed_index(r.numerator, r.denominator)


def _signed_index(num, den):
    """rational_index of num/den, den > 0, on the two ints alone."""
    if num == 0:
        return 0
    n = _index_of_terms(_terms(abs(num), den))
    return 2 * n if num > 0 else 2 * n - 1


class MonicPoly:
    """Monic polynomial with exact rational coefficients.

    ``coeffs`` lists a_0 .. a_{l-1}; the leading coefficient 1 of x^l is
    implicit.  Degree 0 means the constant polynomial 1.  ``row`` holds
    the float coefficients a_0 .. a_{l-1}, 1.0, made on first use and kept.
    """

    def __init__(self, coeffs):
        self.coeffs = tuple(rational(c) for c in coeffs)

    @cached_property
    def row(self):
        return tuple(float(c) for c in self.coeffs) + (1.0,)

    @property
    def degree(self):
        return len(self.coeffs)

    def all_coeffs(self):
        return self.coeffs + (Fraction(1),)

    def __call__(self, t):
        return _horner(self.row, np.asarray(t, dtype=float))

    def __eq__(self, other):
        return isinstance(other, MonicPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"MonicPoly({list(self.coeffs)})"

    def derivative_bound(self, radius=1.5):
        """Upper bound for |p'| on (0, radius)."""
        return _slope_bound(self.row[:-1], radius)


def _horner(coeffs, t):
    """sum_k coeffs[k] t^k by Horner's rule from 0.0, in floats for a float
    t; a coefficient is a float or an array of one per point of t.  Zeros
    above a leading 1 keep a monic value bit for bit for finite t."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _slope_bound(alpha, radius):
    """Upper bound for |u'| on (0, radius), u monic with float
    coefficients alpha (a_0 first)."""
    degree = len(alpha)
    lead = degree * radius ** max(degree - 1, 0) if degree else 0.0
    return sum(i * abs(c) * radius ** (i - 1)
               for i, c in enumerate(alpha) if i) + lead


def monic_enum(n):
    """n-th monic polynomial with rational coefficients (1-based).

    The sequence starts 1, x^2, x, x^2-x, x^2-1, x^3, x-1, x^2+x, ...; the
    continued fraction of the n-th Calkin-Wilf rational encodes degree and
    coefficient indices in the signed-rational enumeration.

    For n >= 2 write q_n = [c_0; c_1, ..., c_k] in canonical form (middle
    terms >= 1, last term >= 2 when k >= 1); the degree is k + 1, and with
    r_j = rational_enum(j) the coefficients a_0 .. a_k of x^0 .. x^k are

    - k = 0:  a_0 = r_{c_0 - 2};
    - k = 1:  a_0 = r_{c_0},  a_1 = r_{c_1 - 2};
    - k >= 2: a_0 = r_{c_0},  a_i = r_{c_i - 1} for 0 < i < k,
      a_k = r_{c_k - 2}.

    Example: x^3 - x^2 - x + 1 has (a_0, a_1, a_2) = (1, -1, -1) with
    indices (2, 1, 1), so q_n = [2; 1+1, 1+2] = [2; 2, 3] = 17/7, and
    n = 115 = 0b1110011, whose binary runs from the least significant end
    are 2, 2, 3.

    The terms c_i are read straight off the binary runs of n, in one pass;
    q_n itself is never formed.  Each distinct coefficient is normalised
    once, as a Fraction, and the polynomial keeps them as they are.
    """
    n = int(n)
    if n < 1:
        raise ValueError("index must be >= 1")
    ks = _coeff_indices(n)
    # coefficient indices repeat: decode each distinct one once
    coeff = {k: rational_enum(k) for k in set(ks)}
    u = MonicPoly.__new__(MonicPoly)    # Fractions already: no rational()
    u.coeffs = tuple(map(coeff.__getitem__, ks))
    return u


def _coeff_indices(n):
    """Indices in the signed-rational enumeration of the coefficients
    a_0 .. a_{l-1} of u_n, by the rule of monic_enum; [] for u_1 = 1."""
    if n == 1:
        return []
    terms = _index_terms(n)
    terms[-1] -= 2      # _offsets, subtracted in place
    for i in range(1, len(terms) - 1):
        terms[i] -= 1
    return terms


def _offsets(degree):
    """c_i - k_i, continued-fraction term minus coefficient index, for each
    coefficient of a monic polynomial of degree >= 1 (monic_enum's rule)."""
    return [2] if degree == 1 else [0] + [1] * (degree - 2) + [2]


def monic_index(p):
    """Inverse of monic_enum (arbitrary precision; no iteration): the
    coefficient indices become the continued-fraction terms of q_n, and
    those the binary runs of n."""
    if not isinstance(p, MonicPoly):
        p = MonicPoly(p)
    if p.degree == 0:
        return 1
    pairs = [(c.numerator, c.denominator) for c in p.coeffs]
    # coefficients repeat: encode each distinct one once, keyed on its ints
    index = {k: _signed_index(*k) for k in set(pairs)}
    return _index_of_terms([index[k] + o for k, o
                            in zip(pairs, _offsets(p.degree))])


# ---------------------------------------------------------------------------
# the activation

class SigmoidParams:
    """d and lambda of the activation; ``tail`` is its value (1 + M(1)) / 2
    on the constant segment, where the left tail ends."""

    def __init__(self, d, lam):
        for name, value in (("d", d), ("lambda", lam)):
            if not 0 < value < math.inf:     # NaN fails too
                raise ValueError(
                    f"need a finite {name} > 0, got {name} = {value!r}")
        self.d = float(d)
        self.lam = float(lam)
        self.lam_eff = min(0.5, float(lam))
        self.tail = (1.0 + self.M(1)) / 2.0

    def h(self, x):
        """Strictly increasing minorant 1 - lam_eff/(1 + log(x - d + 1))."""
        x = np.asarray(x, dtype=float)
        return 1.0 - self.lam_eff / (1.0 + np.log(x - self.d + 1.0))

    def M(self, n):
        """h((2n+1) d), valid for arbitrarily large integer n."""
        n = int(n)
        bits = n.bit_length()
        if bits <= 40:
            return 1.0 - self.lam_eff / (1.0 + math.log(2 * n * self.d + 1.0))
        # log(2 n d + 1) = log(e^L + 1) with L = log(2n) + log(d), taken as
        # max(L, 0) + log1p(e^-|L|), which neither overflows nor drops the
        # + 1 when d is small.  log(2n) is _ln_big(2 * n) without forming
        # 2 * n: from 53 bits on, the same top 53 bits, read as
        # n >> (bits - 53); below that 2 * n is small
        if bits <= 52:
            ln2n = math.log(2 * n)
        else:
            ln2n = math.log(n >> (bits - 53)) + (bits - 52) * _LN2
        L = ln2n + math.log(self.d)
        lnval = max(L, 0.0) + math.log1p(math.exp(-abs(L)))
        return 1.0 - self.lam_eff / (1.0 + lnval)


def _placement(n, alpha, M):
    """(a_n, b_n): the map a_n + b_n u that puts u_n, given by its float
    coefficients alpha (a_0 first), in segment n's strip
    [(1+2M)/3, (2+M)/3], M = M(n); on segment 1, u_1 = 1 sits at (1+M)/2."""
    if n == 1:
        return 0.5, M / 2.0
    low = high = 0      # both sums start at int 0 and add left to right
    for a in alpha[1:]:
        low += (a - abs(a)) / 2.0
        high += (a + abs(a)) / 2.0
    a_0 = alpha[0] if alpha else 0.0
    B1 = a_0 + low
    B2 = a_0 + high + 1.0
    a_n = ((1.0 + 2.0 * M) * B2 - (2.0 + M) * B1) / (3.0 * (B2 - B1))
    b_n = (1.0 - M) / (3.0 * (B2 - B1))
    return a_n, b_n


def _joint(d, lower, upper):
    """(K, delta, delta_next) of the transition from segment n to n+1.

    ``lower`` and ``upper`` are (a, b, alpha, M) of the two segments.  K is
    the level half way between u_n's value at t = 1 and u_{n+1}'s at t = 0;
    the smooth step leaves segment n within delta of its end and reaches
    segment n+1 within delta_next of its start, both small enough that the
    step stays within (1 - M)/6 of the strips.
    """
    a_n, b_n, alpha, M = lower
    a_next, b_next, alpha_next, M_next = upper
    K = 0.5 * ((a_n + b_n * _horner(alpha + [1.0], 1.0))
               + (a_next + b_next * _horner(alpha_next + [1.0], 0.0)))
    eps = (1.0 - M) / 6.0
    C = max(_slope_bound(alpha, 1.5), 1e-300)
    delta = min(eps * d / (b_n * C), d / 2.0)
    eps_next = (1.0 - M_next) / 6.0
    C_next = max(_slope_bound(alpha_next, 0.5), 1e-300)
    delta_next = min(eps_next * d / (b_next * C_next), d / 2.0)
    return K, delta, delta_next


def _segment_coeffs(n, params, poly=None):
    """(a_n, b_n, u_n): the affine placement of the n-th polynomial."""
    u = monic_enum(n) if poly is None else poly
    a_n, b_n = _placement(n, u.row[:-1], params.M(n))
    return a_n, b_n, u


def sigma_segment(t, n, params, poly=None):
    """sigma on the n-th main segment, parametrized by t in [0, 1]:
    a_n + b_n u_n(t).  Works for arbitrarily large exact n."""
    a_n, b_n, u = _segment_coeffs(n, params, poly)
    return a_n + b_n * u(t)


def _beta_hat(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def _beta(x, lo, hi):
    """Smooth transition: 1 for x <= lo, 0 for x >= hi.

    The ratio beta_hat(hi - x) / (beta_hat(hi - x) + beta_hat(x - lo)).
    Where both terms underflow, which takes a transition narrower than
    about 2.7e-3, the ratio is read in logistic form,
    1 / (1 + exp(1/(hi - x) - 1/(x - lo))), through exp(-|z|) so that no
    exp overflows, or as 1 for x <= lo and 0 for x >= hi.
    """
    a = np.asarray(hi - x, dtype=float)
    b = np.asarray(x - lo, dtype=float)
    up, down = _beta_hat(a), _beta_hat(b)
    total = up + down
    under = total == 0
    if not np.any(under):
        return up / total
    inside = under & (a > 0) & (b > 0)
    z = np.divide(1.0, a, out=np.zeros_like(a), where=inside) \
        - np.divide(1.0, b, out=np.zeros_like(b), where=inside)
    e = np.exp(-np.abs(z))
    logistic = np.where(z > 0, e, 1.0) / (1.0 + e)
    ends = np.where(b <= 0, 1.0, 0.0)
    ratio = up / np.where(under, 1.0, total)
    return np.where(inside, logistic, np.where(under, ends, ratio))


def sigma(x, params):
    """The activation at x, a finite scalar or array.

    A NaN or infinite x is a ValueError.  A point x < d lies on the left
    tail.  Every other point lies on segment n = max(1, floor((x/d + 1)/2)),
    an exact Python int however large x is, on its main part when
    x <= 2nd and in the transition to segment n+1 otherwise.  One call
    collects the segments its points need (n, and n+1 behind a transition
    point) and decodes each of them once, straight to float coefficients,
    each distinct coefficient index once.  It then evaluates all main and
    transition points in one vectorised Horner pass over coefficient rows
    padded with zeros above their leading 1, which gives each point the
    value of a point-by-point evaluation bit for bit.
    """
    scalar = np.isscalar(x) or np.asarray(x).shape == ()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    bad = ~np.isfinite(x)
    if np.any(bad):
        raise ValueError(
            f"sigma needs a finite x, got x = {float(x[bad][0])!r}")
    d = params.d
    out = np.empty_like(x)

    left = x < d
    if np.any(left):
        out[left] = (1.0 - _beta_hat(d - x[left])) * params.tail

    rest = ~left
    if np.any(rest):
        # near the float maximum, x/d and the segment ends 2nd, (2n+1)d can
        # overflow: an end beyond the float range reads as +inf, which
        # compares with x as the exact end would, and an infinite x/d sends
        # the point to the exact-ratio path
        with np.errstate(over="ignore"):
            out[rest] = _sigma_segments(x[rest], params)
    return float(out[0]) if scalar else out


def _sigma_segments(x, params):
    """sigma at the points x >= d (an array this call may change)."""
    d = params.d
    q = x / d
    huge = np.flatnonzero(np.isinf(q))
    exact = {}
    for i in huge:
        # x/d overflows, which needs d < 1: n from the exact ratio, and the
        # point moved to its place in segment 1's frame, where x/d is small
        r = Fraction(float(x[i])) / Fraction(d)
        n = math.floor((r + 1) / 2)
        x[i] = (1.0 + float(r - (2 * n - 1))) * d
        exact[i] = n
    if exact:
        q = x / d
    frame = np.maximum(np.floor((q + 1.0) / 2.0), 1.0)   # n, as a float
    frame[huge] = 1.0
    # group the points by segment in one dict pass: row[i] is the place of
    # point i's segment in ns
    segment = list(map(int, frame.tolist()))
    for i, n in exact.items():
        segment[i] = n
    index = {}
    row = np.array([index.setdefault(n, len(index)) for n in segment])

    twon = 2.0 * frame
    s = q - twon
    main = x <= twon * d
    trans = ~main
    lower = list(dict.fromkeys(row[trans].tolist()))
    ns = list(index)
    for r in lower:
        index.setdefault(ns[r] + 1, len(index))
    ns = list(index)

    # decode: each segment once, each distinct coefficient index once,
    # straight to its float
    ks = [_coeff_indices(n) for n in ns]
    value = {k: _signed_float(k) for k in set().union(*ks)}
    alphas = [[value[k] for k in kk] for kk in ks]
    segs = []
    for n, alpha in zip(ns, alphas):
        M = params.M(n)
        segs.append(_placement(n, alpha, M) + (alpha, M))
    joints = np.zeros((len(ns), 3))
    upper = np.zeros(len(ns), dtype=int)
    for r in lower:
        upper[r] = index[ns[r] + 1]
        joints[r] = _joint(d, segs[r], segs[upper[r]])

    # one Horner pass: u_n at t = s + 1 on the main part and the first half
    # of a transition, u_{n+1} at t = s - 1 on its second half
    second = trans & (x > (twon + 0.5) * d)
    prow = np.where(second, upper[row], row)
    t = np.where(second, s - 1.0, s + 1.0)
    width = max(map(len, alphas))
    coef = np.array([alpha + [1.0] + [0.0] * (width - len(alpha))
                     for alpha in alphas])[prow]
    acc = _horner(coef.T, t)
    ab = np.array([seg[:2] for seg in segs])[prow]
    out = ab[:, 0] + ab[:, 1] * acc
    if np.any(trans):
        xt, tw, half = x[trans], twon[trans], second[trans]
        K, delta, delta_next = joints[row[trans]].T
        lo = np.where(half, (tw + 1.0) * d - delta_next, tw * d)
        hi = np.where(half, (tw + 1.0) * d, tw * d + delta)
        step = _beta(xt, lo, hi)
        step = np.where(half, 1.0 - step, step)
        out[trans] = K - step * (K - out[trans])
    return out


# ---------------------------------------------------------------------------
# two-neuron fitting

class NetworkParams:
    """c1 * sigma(x - t1) + c2 * sigma(x - t2) on [a, b].

    t1 = b - 2n(b-a) is kept exact (n may be astronomically large);
    t2 = 2a - b.
    """

    def __init__(self, c1, c2, n, a, b, params, poly):
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.n = int(n)
        self.a = float(a)
        self.b = float(b)
        self.params = params
        # segment n's placement a_n + b_n u_n, kept so that evaluation does
        # no big-integer work; u_n is enumerated only when not given
        self.a_n, self.b_n, self.poly = _segment_coeffs(self.n, params, poly)
        self.theta2 = 2 * self.a - self.b

    @property
    def theta1_exact(self):
        """b - 2n(b-a) as an exact Fraction."""
        return rational(self.b) - 2 * self.n * (rational(self.b)
                                                - rational(self.a))

    def theta1_log10(self):
        """log10 |theta1|, exact to ~1e-13 even for astronomical n."""
        return _log10_abs(self.theta1_exact)

    def theta1_decimal(self):
        """Scientific-notation string of theta1 with 4 decimals in the
        mantissa (huge values supported)."""
        t = self.theta1_exact
        return _scientific(t, _log10_abs(t))


def _log10_abs(t):
    """log10 |t| of an exact rational t, exact to ~1e-13 however large t
    is; -inf for 0."""
    if t == 0:
        return float("-inf")
    t = abs(t)
    return (_ln_big(t.numerator) - _ln_big(t.denominator)) / math.log(10)


def _scientific(t, l10):
    """The rational t, given with l10 = _log10_abs(t), in scientific
    notation with 4 decimals in the mantissa."""
    if t == 0:
        return "0"
    sign = "-" if t < 0 else ""
    e = math.floor(l10)
    mant = 10.0 ** (l10 - e)
    return f"{sign}{mant:.4f}e{e:+d}"


def eval_network(net, x):
    """Network value; exploits x - t1 lying on main segment n and x - t2
    on the constant segment, so t1 is never formed in floating point.  One
    Horner pass over the network's float row; no Fraction is touched."""
    x = np.asarray(x, dtype=float)
    # written so that a NaN x fails it, as an infinite one does
    inside = (x >= net.a - 1e-9) & (x <= net.b + 1e-9)
    if not inside.all():
        raise ValueError(
            f"x outside [a, b] or not finite: x = {float(x[~inside][0])!r}")
    d = net.b - net.a
    t = (x - net.a) / d
    seg = net.a_n + net.b_n * _horner(net.poly.row, t)
    return net.c1 * seg + net.c2 * net.params.tail


def _limited(x, max_den):
    """Fraction(x).limit_denominator(max_den) as a pair (num, den) in lowest
    terms, den > 0, computed on x.as_integer_ratio(): the rational nearest
    to x with a denominator <= max_den, and on a tie the last convergent
    rather than the semiconvergent, as in the standard library.  A NaN or
    infinite float raises what Fraction(x) raises."""
    n, d = x.as_integer_ratio()
    if d <= max_den:
        return n, d
    # convergents p0/q0, p1/q1 of n/d, up to the last with q1 <= max_den
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while True:
        a = num // den
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (max_den - q0) // q1
    p, q = p0 + k * p1, q0 + k * q1      # the semiconvergent, also coprime
    # |p1/q1 - n/d| <= |p/q - n/d|, both sides times q1 q d
    if abs(p1 * d - n * q1) * q <= abs(p * d - n * q) * q1:
        return p1, q1
    return p, q


def _simplest_within(value, tol):
    """The simplest rational (least denominator) between value - tol and
    value + tol, each end first rounded to the nearest rational with a
    denominator <= 1e9 (_limited).  That rounding can move an end outward,
    so the result may lie up to about 1e-9 outside +-tol; _finalize_coeffs'
    check on the grid is what bounds the error.  With tol <= 0, the value
    itself, rounded the same way."""
    if tol <= 0:
        return Fraction(*_limited(value, 10**9))
    return _simplest_between(_limited(value - tol, 10**9),
                             _limited(value + tol, 10**9))


def _simplest_between(lo, hi):
    """Simplest rational in [lo, hi], the ends given as (num, den) pairs
    with den > 0, in either order: the Stern-Brocot descent, on ints."""
    (a, b), (c, d) = lo, hi
    if a * d > c * b:
        a, b, c, d = c, d, a, b
    if a <= 0 <= c:
        return Fraction(0)
    sign = 1
    if c < 0:                            # both ends negative: mirror them
        sign, a, b, c, d = -1, -c, d, -a, b
    # lo = a/b <= hi = c/d, both > 0; p1/q1 is the descent's last convergent
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        t = a // b
        last = t * b == a                # lo is the integer t
        if not last and (t + 1) * d <= c:
            t, last = t + 1, True        # the integer t + 1 lies in (lo, hi]
        p0, q0, p1, q1 = p1, q1, t * p1 + p0, t * q1 + q0
        if last:
            return Fraction(sign * p1, q1)
        # no integer in [lo, hi]: go on in [1/(hi - t), 1/(lo - t)]
        a, b, c, d = d, c - t * d, b, a - t * b


def _rationalize(coeffs, budget):
    """Per-coefficient simplest-rational rounding within the budget.  With
    no budget, an exact coefficient stays as it is and a float goes to the
    nearest rational with a denominator <= 1e9."""
    if budget > 0:
        return [_simplest_within(float(c), budget) for c in coeffs]
    return [c if isinstance(c, Fraction) else _simplest_within(float(c), 0)
            for c in coeffs]


def _index_bits_estimate(monic_coeffs):
    """Rough bit length of the segment index the coefficients would yield.

    Each coefficient c contributes a continued-fraction term of about 2^s,
    s the CF-term sum of |c| (0 for 0); the index's bit length is the sum.
    """
    total = 0
    for c in monic_coeffs:
        s = sum(_terms(abs(c.numerator), c.denominator)) if c else 0
        if s > 60:
            return float("inf")
        total += 1 << (s + 1)
    return total


def _poly_sup_dev(coeffs, g_vals, tgrid):
    vals = _horner([float(c) for c in coeffs], tgrid)
    return float(np.max(np.abs(vals - g_vals)))


def fit_two_neuron(f, a, b, eps):
    """Two-neuron approximation of f on [a, b] to accuracy eps.

    Rescale to g(t) = f(a + (b-a)t) on [0,1]; find a polynomial p with
    rational coefficients within eps/2 of g; the monic normalization p/p0
    picks the segment index n, and the weights place that segment's copy
    of p back through the activation.

    When f is a parsed expression in x1 that is a polynomial, p starts
    from g's exact coefficients.  Polynomial means: constants, x1, unary
    minus, +, - and *, plus division by a subexpression whose exact value
    is a nonzero constant and ^ by one whose exact value is an integer
    (negative only on a nonzero constant base).  Each literal v (pi and e
    too) is read as Fraction(v).limit_denominator(10**12).  Every other
    target, any function call, division by x1, x1^0.5 and plain callables
    among them, is fitted by Chebyshev interpolation of degree up to 30 and
    simplest-rational rounding instead.  So is a polynomial whose exact
    expansion would be too large: a product or power of degree above 256
    (MAX_EXACT_DEGREE), or a power p^k whose k times the bit length of p's
    largest integer over its common denominator passes 2^16
    (MAX_EXACT_BITS), such as x1^2000 or 0.5^(10^9)*x1.  The error is
    measured on 1001 equally spaced points of [a, b].

    n, and with it theta1 = b - 2n(b-a), is set by the chosen polynomial,
    not by eps: eps only bounds the error, and any other rational
    polynomial within eps/2 of g gives an equally valid network with
    another n.

    Returns (NetworkParams, achieved_error).  Raises ArithmeticError when
    no polynomial within eps/2 is found, and when the network, evaluated in
    floats, misses eps: with huge weights c1 and -c2 cancel.
    """
    a, b = float(a), float(b)
    if not (a < b):
        raise ValueError("need a < b")
    if not 0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")
    d = b - a
    params = SigmoidParams(d, 0.25)
    tgrid = np.linspace(0.0, 1.0, FIT_GRID_N)
    g_vals = np.asarray(f(a + d * tgrid), dtype=float)
    bad = np.flatnonzero(~np.isfinite(g_vals))
    if bad.size:
        raise ValueError(
            f"target is not finite at x = {float(a + d * tgrid[bad[0]])!r}")

    exact = _exact_poly_coeffs(f, a, b)
    if exact is not None:
        raw = _taylor_truncate(exact, eps, tgrid, g_vals)
        coeffs = _finalize_coeffs(raw, eps, tgrid, g_vals)
        if coeffs is None and raw != exact:
            # the truncation's rounding can miss where the exact
            # coefficients, with the whole eps/2 left over, do not
            coeffs = _finalize_coeffs(exact, eps, tgrid, g_vals)
    else:
        coeffs = _chebyshev_rational(f, a, b, eps, tgrid, g_vals)
    if coeffs is None:
        raise ArithmeticError(
            "polynomial budget exhausted before reaching eps/2")

    if all(c == 0 for c in coeffs):
        u = monic_enum(1)
        net = NetworkParams(0.0, 0.0, 1, a, b, params, u)
        ach = float(np.max(np.abs(g_vals)))
        return net, ach

    p0 = coeffs[-1]
    monic = MonicPoly([c / p0 for c in coeffs[:-1]])
    n = monic_index(monic)
    a_n, b_n, u = _segment_coeffs(n, params, poly=monic)
    c1 = float(p0) / b_n
    c2 = -float(p0) * a_n / (b_n * params.tail)
    net = NetworkParams(c1, c2, n, a, b, params, monic)
    ach = float(np.max(np.abs(eval_network(net, a + d * tgrid) - g_vals)))
    if ach > eps:
        raise ArithmeticError(
            f"the network's error {ach!r} on the grid exceeds eps = {eps!r}")
    return net, ach


def _exact_poly_coeffs(f, a, b):
    """Exact rational coefficients of g(t) = f(a + (b-a)t), constant term
    first and with no trailing zeros ([0] for the zero polynomial), when f
    carries a univariate polynomial expression; None otherwise.

    The expression counts as polynomial when it is built from constants,
    x1, unary minus, +, - and * alone, with two more forms: p/q where q
    reads as a nonzero constant, and p^k where k reads as an integer
    constant (k < 0 only when p reads as a nonzero constant).  "Reads as a
    constant" is decided on the exact coefficients, so x1/(x1-x1+2) is
    x1/2.  Anything else gives None: any function call (even sqrt(4)),
    division by a non-constant (even x1*x1/x1), a non-integer or symbolic
    exponent, and, before it is expanded, a product or power of degree
    above MAX_EXACT_DEGREE or a power p^k whose k times the bit length of
    p's largest integer over its common denominator passes MAX_EXACT_BITS.
    Each literal v, pi and e included, is read as the rational
    Fraction(v).limit_denominator(10**12).
    """
    ast = getattr(f, "ast", None)
    # a parsed expression records whether it read a call: refuse it before
    # the fold expands the call's argument
    if ast is None or f.dim != 1 or getattr(f, "_call", False):
        return None
    a, b = rational(a), rational(b)
    (x,), den = _integer_coordinates([[a, b - a]])
    try:
        ints, den = _fold(ast, partial(_poly_step, _poly(list(x), den)))
    except _NotPolynomial:
        return None
    return [Fraction(c, den) for c in ints]


def _poly(ints, den):
    """The pair (ints, den) for sum_i ints[i]/den t^i, den > 0, in lowest
    terms: no trailing zero but the zero polynomial's one, and den the
    least common denominator of the coefficients."""
    g = math.gcd(den, *_trim(ints))
    if g > 1:
        ints, den = [c // g for c in ints], den // g
    return ints, den


class _NotPolynomial(Exception):
    """A node that is not a polynomial, or would pass the bounds."""


def _poly_step(x, op, p, q=None):
    """The polynomial step: the node, with x1 the polynomial ``x``, as a
    pair from _poly, from its children's pairs p and q."""
    if op == "const":
        n, d = _limited(p, 10**12)
        return [n], d
    if op == "var":
        return x
    if op == "call":
        raise _NotPolynomial
    ps, dp = p
    if op == "neg":
        return [-c for c in ps], dp
    qs, dq = q
    if op in "+-":
        den = math.lcm(dp, dq)
        out = [c * (den // dp) for c in ps] + [0] * (len(qs) - len(ps))
        sq = den // dq if op == "+" else -(den // dq)
        for i, c in enumerate(qs):
            out[i] += c * sq
        return _poly(out, den)
    if op == "*":
        if len(ps) + len(qs) - 2 > MAX_EXACT_DEGREE:
            raise _NotPolynomial
        return _poly(_convolve(ps, qs), dp * dq)
    if len(qs) > 1 or op == "/" and qs[0] == 0:
        raise _NotPolynomial         # divisor or exponent not a constant, or 0
    c = qs[0]
    if op == "/":
        s = dq if c > 0 else -dq     # p / (c/dq) = p*dq / (dp*c)
        return _poly([v * s for v in ps], dp * abs(c))
    if dq != 1:
        raise _NotPolynomial         # exponent not an integer
    k = abs(c)
    bits = k * max(map(int.bit_length, [dp, *ps]))
    if (len(ps) - 1) * k > MAX_EXACT_DEGREE or bits > MAX_EXACT_BITS:
        raise _NotPolynomial
    if c < 0:
        if len(ps) > 1 or ps[0] == 0:
            raise _NotPolynomial
        v = ps[0]                    # (v/dp)^c = (dp/v)^k
        return [(dp if v > 0 else -dp) ** k], abs(v) ** k
    out, den = [1], dp ** k
    while k:                         # p^k by repeated squaring
        if k & 1:
            out = _convolve(out, ps)
        k >>= 1
        if k:
            ps = _convolve(ps, ps)
    return _poly(out, den)


def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _convolve(p, q):
    """The ints of the product of the polynomials with ints p and q."""
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        if c:
            for j, d in enumerate(q):
                out[i + j] += c * d
    return out


def _taylor_shift(a):
    """The ints of p(v + 1) from those of p(v), in place: the Horner-like
    scheme of von zur Gathen and Gerhard (ISSAC 1997), whose only
    operations are additions."""
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _taylor_truncate(coeffs, eps, tgrid, g_vals):
    """Shortest midpoint-Taylor truncation of an exact polynomial that
    stays within eps/2 on the grid (exact rational arithmetic).  The one
    returned, to (t - 1/2)^k, has the k + 1 coefficients _finalize_coeffs
    splits its budget by: its t^k one is shifted[k], and with shifted[k]
    = 0 the truncation to k - 1 was the same polynomial.

    On integers over one denominator: with p(t) = sum_i ints[i]/den t^i of
    degree m and u = 2t - 1, p = sum_i ints[i] 2^(m-i) (u + 1)^i / (den
    2^m), so the Taylor shift by 1 of those ints gives r, and shifted[j] =
    r[j] / (den 2^(m-j)).  A truncation r[:k+1], shifted back by -1 in v =
    2t, has its t^i coefficient over den 2^(m-i): it is the truncation to
    k - 1 plus r[k] (v - 1)^k, whose binomial row is carried from k - 1."""
    (ints,), den = _integer_coordinates([coeffs])
    m = len(ints) - 1
    r = _taylor_shift([c << (m - i) for i, c in enumerate(ints)])
    dens = [den << (m - i) for i in range(m + 1)]
    w, row = [], [1]                 # row: the ints of (v - 1)^k
    j = 0                            # where the last full check missed most
    for k in range(m + 1):
        w.append(0)
        for i, c in enumerate(row):
            w[i] += r[k] * c
        # c / d is the correctly rounded float of c/d, reduced or not
        fl = [c / d for c, d in zip(w, dens)]
        # Horner on one float is bit for bit its value on the grid, so a
        # truncation that misses at point j (or is NaN there) misses on it
        if abs(_horner(fl, float(tgrid[j])) - g_vals[j]) <= 0.5 * eps:
            dev = np.abs(_horner(fl, tgrid) - g_vals)
            if dev.max() <= 0.5 * eps:
                return [Fraction(c, d) for c, d in zip(w, dens)]
            j = int(np.argmax(dev))
        row = [p - q for p, q in zip([0] + row, row + [0])]
    return list(coeffs)


def _finalize_coeffs(raw, eps, tgrid, g_vals, max_bits=200_000_000):
    """Rationalize a coefficient list, as coarsely as the error budget
    allows, while keeping the induced segment index constructible.

    Tries per-coefficient tolerances from the full remaining budget down;
    accepts the first set that stays within eps/2 on the grid and whose
    estimated index bit length is manageable.  Returns None on failure.
    """
    dev = _poly_sup_dev(raw, g_vals, tgrid)
    remaining = 0.5 * eps - dev
    if remaining < 0:
        return None
    m = len(raw)
    for scale in (1.0, 0.25, 0.0625, 0.0):
        budget = remaining / m * scale
        coeffs = _trim(_rationalize(raw, budget))
        if _poly_sup_dev(coeffs, g_vals, tgrid) > 0.5 * eps:
            continue
        p0 = coeffs[-1]
        if p0 != 0:
            monic = [c / p0 for c in coeffs[:-1]]
            if _index_bits_estimate(monic) > max_bits:
                continue
        return coeffs
    return None


def _chebyshev_rational(f, a, b, eps, tgrid, g_vals):
    """Chebyshev interpolant of adaptive degree, coefficients rationalized
    as simply as the budget allows; returns power-basis Fractions."""
    from numpy.polynomial import chebyshev as C
    from numpy.polynomial import polynomial as P
    for deg in range(1, MAX_DEGREE + 1):
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
        coeffs = _finalize_coeffs(raw, eps, tgrid, g_vals)
        if coeffs is not None:
            return coeffs
    return None
