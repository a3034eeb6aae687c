"""Shared exact arithmetic, expression parsing, grids, quadrature and
evaluable-function abstractions.

Exact rationals back everything combinatorial: deciding whether two points
lie on the same level line of a direction is ill-posed in floating point,
so all fiber logic upstream works over Q.  Each input coordinate is read
once and exactly: an integer literal as an int, any other number as a
``fractions.Fraction``.  The exact layer then holds rationals as integers
over one common denominator, converted by ``_integer_coordinates`` alone:
``PointConfig`` and ``DirectionSet`` hold them so, and ``bareiss``
eliminates integer rows.  Fractions appear again only in results and in
the ``points`` and ``directions`` views.
Approximation numerics (quadrature, Taylor jets, LP oracles) use IEEE
doubles.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import numbers
import operator
import re
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# exact rationals

def _read_number(text):
    """The exact number a text names: an int for an integer literal, else a
    Fraction.  ``int`` reads the integer texts ``Fraction`` reads (signs,
    underscores and surrounding whitespace included); a p/q text is read as
    two ints, and a decimal or exponent text by ``Fraction``.  A text that
    names no number raises ValueError, a zero denominator
    ZeroDivisionError."""
    num, slash, den = text.partition("/")
    if slash:
        return Fraction(int(num), int(den))
    try:
        return int(text)
    except ValueError:
        return Fraction(text)


def rational(value):
    """Convert a string ("3/4", "0.25"), int, float or Fraction to an exact
    Fraction.  Decimal strings and floats are converted exactly (no rounding
    beyond what the literal itself carries); any other integer, such as
    numpy's, is read as a Python int, so that no fixed-width integer
    reaches the exact layer."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)):
        return Fraction(value)
    if isinstance(value, str):
        return rational(_read_number(value))
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    raise TypeError(f"cannot convert {value!r} to a rational")


def parse_vector(value):
    """Rational tuple from a comma/space separated string or a sequence."""
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    return tuple(rational(p) for p in value)


def _frac(v):
    """An exact number as text, "3" or "-1/3", read exactly as a Fraction."""
    return str(v if isinstance(v, Fraction) else Fraction(v))


def _vector_text(v):
    return "(" + ", ".join(_frac(c) for c in v) + ")"


def _integer_coordinates(rows):
    """(ints, den): every coordinate of ``rows`` as ints[j][k] / den, over
    their least common denominator, each read exactly with ``rational``.
    The exact layer's one reader of rationals as integers; rows of ints
    alone come back as tuples over den 1 after one scan."""
    rows = [tuple(row) for row in rows]
    if {type(c) for row in rows for c in row} <= {int}:
        return rows, 1
    rows = [[c if type(c) is int else rational(c) for c in row] for row in rows]
    den = math.lcm(*{c.denominator for row in rows for c in row
                     if type(c) is not int})
    return [tuple([c * den if type(c) is int
                   else c.numerator * (den // c.denominator) for c in row])
            for row in rows], den


def _primitive(v):
    """The ints v over their gcd, first nonzero positive; zeros as they are."""
    g = math.gcd(*v) or 1
    if next((c for c in v if c), 0) < 0:
        g = -g
    return [c // g for c in v]


# ---------------------------------------------------------------------------
# point sets and directions

class _ExactRows:
    """Rational rows as integers over their least common denominator, row
    j = ints[j] / den, iterated as tuples of Fractions built when first
    needed; a row whose length is not ``dim`` raises ValueError."""

    def __init__(self, dim, rows, what):
        self.dim = int(dim)
        self.ints, self.den = _integer_coordinates(rows)
        for row in self.ints:
            if len(row) != self.dim:
                text = _vector_text(Fraction(c, self.den) for c in row)
                raise ValueError(f"{what} {text} does not have dimension "
                                 f"{self.dim}")

    @functools.cached_property
    def _fractions(self):
        return [tuple([Fraction(c, self.den) for c in row])
                for row in self.ints]

    def __len__(self):
        return len(self.ints)

    def __iter__(self):
        return iter(self._fractions)


class PointConfig(_ExactRows):
    """A finite ordered set of distinct points with exact rational
    coordinates, x_j = ints[j] / den; ``points`` is their Fraction view."""

    def __init__(self, dim, points):
        if int(dim) < 1:
            raise ValueError("dim must be positive")
        super().__init__(dim, points, "point")
        if len(set(self.ints)) != len(self.ints):
            raise ValueError("points must be pairwise distinct")

    points = property(lambda self: self._fractions)

    def as_array(self):
        return np.array([[float(c) for c in p] for p in self.points])


class DirectionSet(_ExactRows):
    """Nonzero, pairwise linearly independent directions with exact rational
    entries, a_i = ints[i] / den; ``directions`` is their Fraction view."""

    def __init__(self, dim, directions):
        super().__init__(dim, directions, "direction")
        for v in self.ints:
            if not any(v):
                raise ValueError(f"zero direction {_vector_text(v)} not allowed")
        for (i, u), (j, v) in itertools.combinations(enumerate(self.ints), 2):
            if _parallel(u, v):
                raise ValueError(
                    f"directions {i} and {j} are linearly dependent")

    directions = property(lambda self: self._fractions)


def _parallel(u, v):
    """True iff u and v are linearly dependent (both nonzero assumed), by
    the cross-ratio test u[i]*v[j] == u[j]*v[i] for all pairs over Q."""
    return all(u[i] * v[j] == u[j] * v[i]
               for i, j in itertools.combinations(range(len(u)), 2))


def bareiss(rows, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer rows.

    The rows must hold ints only; callers with rational rows convert them
    first with ``_integer_coordinates``.  Pivots are taken left to right in
    the first ``ncols`` columns; further columns are carried along.  Each
    step multiplies every other row by the new pivot p, subtracts the pivot
    row times the row's entry in the pivot column, and divides by the
    previous pivot; the division is exact, since every entry stays a minor
    of the matrix.

    Returns (integer rows, {pivot column: row index}, last pivot, det).
    The pivot rows come first, each with the last pivot in its own pivot
    column and zeros in the other pivot columns, so that a pivot row
    divided by the last pivot is its reduced row.  The other rows are
    nonzero multiples of their reduced rows.  ``det`` is the determinant of
    the first ``ncols`` columns of the pivot rows, ± the last pivot; 0 when
    those columns are dependent.
    """
    mat = list(rows)
    pivots = {}
    last, sign = 1, 1
    for col in range(ncols):
        rank = len(pivots)
        piv = next((j for j in range(rank, len(mat)) if mat[j][col]), None)
        if piv is None:
            continue
        if piv != rank:
            mat[rank], mat[piv] = mat[piv], mat[rank]
            sign = -sign
        prow = mat[rank]
        p = prow[col]
        for j, row in enumerate(mat):
            if j == rank:
                continue
            f = row[col]
            if f:
                mat[j] = [(p * a - f * b) // last for a, b in zip(row, prow)]
            elif p != last:
                mat[j] = [p * a // last for a in row]
        pivots[col] = rank
        last = p
    return mat, pivots, last, sign * last if len(pivots) == ncols else 0


def _read_csv_rows(data, name):
    """The rows of numbers in the bytes of a CSV file named ``name``: fields
    split at commas and whitespace, ``#`` to the end of a line a comment.
    Each field is read once by ``_read_number``, so an integer stays an
    int.  The bytes are decoded as ``open`` decodes a file in text mode."""
    rows = []
    text = io.TextIOWrapper(io.BytesIO(data)).read().replace(",", " ")
    for line in text.split("\n"):
        fields = line.split("#", 1)[0].split()
        if fields:
            rows.append(tuple(map(_read_number, fields)))
    if not rows:
        raise ValueError(f"no data rows in {name}")
    return rows


# ---------------------------------------------------------------------------
# expression parsing
#
# expr   := term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*
# factor := ('-')? base ('^' factor)?
# base   := number | ident | func '(' expr ')' | '(' expr ')'
# number := (digit | '.')+ (('e'|'E') ('+'|'-')? digit+)?, read by float
# ident  := 'x' decimal+ | 'pi' | 'e'
#                            func in {sin, cos, exp, log, abs, sqrt}
# tokens: one regex tries an operator, a number, then a name (a str.isalpha
# character, then str.isalnum ones) at each non-space character; any other
# character is an error

_FUNCS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp,
    "log": np.log, "abs": np.abs, "sqrt": np.sqrt,
}

_CONSTS = {"pi": math.pi, "e": math.e}

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}

_TOKEN = re.compile(r"(?P<op>[-+*/^()])|(?P<num>[\d.]+(?:[eE][+-]?\d+)?)"
                    r"|(?P<name>[^\W_]+)|(?P<bad>\S)")


class ExprError(ValueError):
    """Syntax or semantic error in an expression, with position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokens(text):
    """The tokens (kind, text, position) of ``text``, then ("end", "", n);
    an operator is its own kind."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, val, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad" or kind == "name" and not val[0].isalpha():
            raise ExprError(f"unexpected character {val[0]!r}", pos)
        tokens.append((val if kind == "op" else kind, val, pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, dim):
        self.tokens, self.i, self.dim = _tokens(text), 0, dim

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, kind, message):
        got, _, pos = self.next()
        if got != kind:
            raise ExprError(message, pos)

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected token {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in "+-":
            node = (self.next()[0], node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in "*/":
            node = (self.next()[0], node, self.factor())
        return node

    def factor(self):
        if self.peek()[0] == "-":
            self.next()
            return ("neg", self.factor())
        node = self.base()
        if self.peek()[0] == "^":
            self.next()
            node = ("^", node, self.factor())
        return node

    def base(self):
        kind, val, pos = self.next()
        if kind == "num":
            try:
                value = float(val)
            except ValueError:
                raise ExprError(f"bad number {val!r}", pos)
            if value == math.inf:
                raise ExprError(f"number {val!r} too large", pos)
            return ("const", value)
        if kind == "name":
            if val.startswith("x") and val[1:].isdecimal():
                k = int(val[1:])
                if not 1 <= k <= self.dim:
                    raise ExprError(f"variable {val} out of range 1..{self.dim}", pos)
                return ("var", k - 1)
            if val in _CONSTS:
                return ("const", _CONSTS[val])
            if val in _FUNCS:
                self.expect("(", f"expected '(' after {val}")
                arg = self.expr()
                self.expect(")", "expected ')'")
                return ("call", val, arg)
            raise ExprError(f"unknown identifier {val!r}", pos)
        if kind == "(":
            node = self.expr()
            self.expect(")", "expected ')'")
            return node
        raise ExprError(f"unexpected token {val!r}", pos)


def _compile(node):
    """The expression ``node`` as a function of the coordinate tuple xs:
    closures built once, applying ``_BINARY`` and ``_FUNCS`` to operands
    computed left before right."""
    op = node[0]
    if op == "const":
        value = node[1]
        return lambda xs: value
    if op == "var":
        return operator.itemgetter(node[1])
    if op == "neg":
        arg = _compile(node[1])
        return lambda xs: -arg(xs)
    if op == "call":
        fn, arg = _FUNCS[node[1]], _compile(node[2])
        return lambda xs: fn(arg(xs))
    fn, a, b = _BINARY[op], _compile(node[1]), _compile(node[2])
    return lambda xs: fn(a(xs), b(xs))


def _has_var(node):
    return node[0] == "var" or max((_has_var(c) for c in node[1:]
                                    if isinstance(c, tuple)), default=False)


def format_ast(node):
    """Pretty-print an AST back to the grammar (parse(format(ast)) == ast)."""
    op = node[0]
    if op == "const":
        v = node[1]
        return repr(v)
    if op == "var":
        return f"x{node[1] + 1}"
    if op == "neg":
        return f"(-{format_ast(node[1])})"
    if op == "call":
        return f"{node[1]}({format_ast(node[2])})"
    return f"({format_ast(node[1])}{op}{format_ast(node[2])})"


class ScalarField:
    """An evaluable d-variate function: a parsed expression or a wrapped
    callable."""

    def __init__(self, dim, fn, ast=None):
        self.dim = int(dim)
        self._fn = fn
        self.ast = ast

    def __call__(self, *xs):
        """Evaluate; accepts d scalars or d numpy arrays, or one point."""
        if len(xs) == 1 and self.dim != 1:
            xs = tuple(xs[0])
        if len(xs) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(xs)}")
        xs = tuple(float(x) if isinstance(x, Fraction) else x for x in xs)
        return self._fn(*xs)

    @classmethod
    def from_expression(cls, text, dim):
        try:
            ast = _Parser(text, dim).parse()
            variable, fn = _has_var(ast), _compile(ast)
        except RecursionError:
            # _has_var's max walks every subtree, at 2 frames a level or more,
            # and _compile, fn, jet and _read_poly at 1: they walk what it can
            raise ExprError("expression nested too deeply", 0) from None
        if variable:
            return cls(dim, lambda *xs: fn(xs), ast=ast)

        def constant(*xs):
            # broadcast to the arguments' shape, as an expression in the
            # variables would be; scalar arguments give a scalar
            shape = np.broadcast_shapes(*(np.shape(x) for x in xs))
            value = fn(xs)
            return np.full(shape, value) if shape else value

        return cls(dim, constant, ast=ast)


def parse_expression(text, dim):
    """Parse ``text`` over variables x1..xd into an evaluable ScalarField."""
    return ScalarField.from_expression(text, dim)


# ---------------------------------------------------------------------------
# Taylor jets: exact mixed directional derivatives of an expression
#
# A jet over k directions l_1..l_k holds one coefficient per subset S of
# them, stacked along axis 0 with S as a bitmask: it is f(x + sum e_i l_i)
# with e_i^2 = 0, so the coefficient of prod_{i in S} e_i is D_S f(x)
# (Griewank & Walther, "Evaluating Derivatives", 2nd ed., SIAM 2008, ch. 13;
# Fike & Alonso, AIAA 2011-886).  A subtree without variables stays a plain
# number, computed by ``_BINARY`` and ``_FUNCS`` as a compiled tree does.

def jet(ast, xs, dirs):
    """Mixed directional derivatives of the expression ``ast`` at points.

    ``xs`` holds the d coordinates of the points (arrays that broadcast
    together, or numbers) and ``dirs`` the k direction vectors, each of
    length d.  Returns an array of shape (2**k,) + the points' shape whose
    entry S (a bitmask over the directions) is the derivative of f along
    the directions in S: entry 0 is f and entry -1 is D_{l_1}...D_{l_k} f.
    Every derivative is exact up to rounding, with no step size.

    Raises ValueError, naming the operation and a point, where a jet does
    not exist: a division by 0, log of a value <= 0, a negative base under
    sqrt or a non-integer power, or abs, sqrt or a non-integer power at 0
    along a direction in which its argument moves.
    """
    xs = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in xs))
    dirs = [[float(c) for c in l] for l in dirs]
    ctx = (xs, dirs, 1 << len(dirs))
    out = _jet_node(ast, ctx)
    if np.ndim(out) == 0:  # a constant: broadcast like a variable's jet
        return _constant_jet(out, (ctx[2],) + xs[0].shape)
    return out


def _constant_jet(value, shape):
    out = np.zeros(shape)
    out[0] = value
    return out


def _jet_node(node, ctx):
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        xs, dirs, size = ctx
        out = np.zeros((size,) + xs[0].shape)
        out[0] = xs[node[1]]
        for i, l in enumerate(dirs):
            out[1 << i] = l[node[1]]
        return out
    if op == "neg":
        return -_jet_node(node[1], ctx)
    if op == "call":
        a = _jet_node(node[2], ctx)
        return _FUNCS[node[1]](a) if np.ndim(a) == 0 \
            else _jet_call(node[1], a, ctx)
    a, b = _jet_node(node[1], ctx), _jet_node(node[2], ctx)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return _BINARY[op](a, b)
    if op in "+-":
        if op == "-":
            b = -b
        if np.ndim(a) == 0:
            a, b = b, a
        if np.ndim(b) != 0:
            return a + b
        out = a.copy()
        out[0] += b
        return out
    if op == "*":
        return _jet_times(a, b)
    if op == "/":
        if np.ndim(b) == 0 and b != 0:
            return a / b
        if np.ndim(b) == 0:
            b = _constant_jet(b, a.shape)
        return _jet_times(a, _jet_series(b, _power_derivatives(b, -1, ctx)))
    if np.ndim(b) == 0:
        return _jet_series(a, _power_derivatives(a, b, ctx))
    # a variable exponent: a^b = exp(b log a)
    if np.ndim(a) == 0:
        a = _constant_jet(a, b.shape)
    _refuse(a[0] <= 0, ctx, "'^' with a variable exponent and a base <= 0")
    return _jet_call("exp", _jet_mul(b, _jet_call("log", a, ctx)), ctx)


@functools.cache
def _subset_products(size):
    """Index arrays (T, S minus T) over every T within S, grouped by S, and
    the start of each group: c[S] = sum over T of a[T] * b[S minus T]."""
    left, right, starts = [], [], []
    for s in range(size):
        starts.append(len(left))
        t = s
        while True:
            left.append(t)
            right.append(s ^ t)
            if t == 0:
                break
            t = (t - 1) & s
    return np.array(left), np.array(right), np.array(starts)


def _jet_mul(a, b):
    left, right, starts = _subset_products(a.shape[0])
    return np.add.reduceat(a[left] * b[right], starts, axis=0)


def _jet_times(a, b):
    """The product of two jets, or of a jet and a number."""
    return a * b if np.ndim(a) == 0 or np.ndim(b) == 0 else _jet_mul(a, b)


def _jet_series(a, derivs):
    """f(a) from f's derivatives f^(m)(a0), m = 0..len-1, at the value a0
    of the jet a: f(a0 + N) = sum_m f^(m)(a0) N^m / m!, where N^m = 0 for
    m > k; derivatives past the list's end are 0."""
    nil = a.copy()
    nil[0] = 0.0
    out = np.zeros_like(a)
    out[0] = derivs[0]
    power = nil
    for m in range(1, len(derivs)):
        if m > 1:
            power = _jet_mul(power, nil)
        out += (derivs[m] / math.factorial(m)) * power
    return out


def _order(a):
    return a.shape[0].bit_length() - 1


def _moving(a):
    """Points at which the jet's argument moves along some direction."""
    return np.any(a[1:] != 0, axis=0)


def _refuse(mask, ctx, what):
    if np.any(mask):
        i = np.unravel_index(np.argmax(mask), mask.shape)
        point = ", ".join(f"{float(x[i]):.6g}" for x in ctx[0])
        raise ValueError(f"no Taylor jet at x = ({point}): {what}")


def _power_derivatives(a, b, ctx):
    """Derivatives of t^b at the jet's value, b a constant.  An integer
    power's derivatives vanish past its degree and are never formed, so
    0^n never meets 0 * inf."""
    a0, k = a[0], _order(a)
    if float(b).is_integer():
        n = int(b)
        if n < 0:
            _refuse(a0 == 0, ctx, "division by 0")
        return [math.prod(range(n - m + 1, n + 1)) * a0 ** (n - m)
                for m in range((k if n < 0 else min(k, n)) + 1)]
    what = "sqrt" if b == 0.5 else "a non-integer power"
    _refuse(a0 < 0, ctx, f"{what} of a negative value")
    _refuse((a0 == 0) & (_moving(a) | (b < 0)), ctx, f"{what} at 0")
    # where a0 = 0 the argument does not move, so the terms past m = 0
    # vanish; any finite base keeps them from forming 0 * inf
    base = np.where(a0 == 0, 1.0, a0)
    falling = 1.0
    derivs = [a0 ** b]
    for m in range(1, k + 1):
        falling *= b - m + 1
        derivs.append(falling * base ** (b - m))
    return derivs


def _jet_call(name, a, ctx):
    a0, k = a[0], _order(a)
    if name in ("sin", "cos"):
        s, c = np.sin(a0), np.cos(a0)
        cycle = [s, c, -s, -c] if name == "sin" else [c, -s, -c, s]
        derivs = [cycle[m % 4] for m in range(k + 1)]
    elif name == "exp":
        derivs = [np.exp(a0)] * (k + 1)
    elif name == "log":
        _refuse(a0 <= 0, ctx, "log of a value <= 0")
        derivs = [np.log(a0)] + [(-1) ** (m - 1) * math.factorial(m - 1)
                                 / a0 ** m for m in range(1, k + 1)]
    elif name == "sqrt":
        return _jet_series(a, _power_derivatives(a, 0.5, ctx))
    else:  # abs
        _refuse((a0 == 0) & _moving(a), ctx, "abs at 0")
        derivs = [np.abs(a0), np.sign(a0)]
    return _jet_series(a, derivs[:k + 1])


# ---------------------------------------------------------------------------
# univariate tables and ridge sums

class UnivariateTable:
    """Piecewise-linear univariate function on strictly increasing knots."""

    def __init__(self, knots, values):
        self.knots = np.asarray(knots, float)
        self.values = np.asarray(values, float)
        if self.knots.ndim != 1 or self.knots.shape != self.values.shape:
            raise ValueError("knots and values must be 1-d and equal length")
        if not np.all(np.diff(self.knots) > 0):
            raise ValueError("knots must be strictly increasing")

    def __call__(self, t):
        t = np.asarray(t, float)
        lo, hi = self.knots[0], self.knots[-1]
        eps = 1e-9 * (1.0 + hi - lo)
        if np.any(t < lo - eps) or np.any(t > hi + eps):
            raise ValueError("evaluation outside table range")
        out = np.interp(np.clip(t, lo, hi), self.knots, self.values)
        return float(out) if out.ndim == 0 else out

    @classmethod
    def sample(cls, fn, lo, hi):
        """The table of fn at 201 equally spaced knots of [lo, hi]."""
        ts = np.linspace(float(lo), float(hi), 201)
        return cls(ts, np.broadcast_to(np.asarray(fn(ts), float), ts.shape))


class RidgeSum:
    """A sum of ridge terms g_i(a_i . x), or, with one weight function w_i
    of x per term, of w_i(x) g_i(a_i . x).

    Every approximation the library returns is a RidgeSum:
    ``uniform.ExtremalPair``, ``smooth.DecompResult`` and ``l2.L2Solution``.
    ``terms`` holds each direction exactly, as Fractions, with its g_i; the
    directions are read as floats once, here."""

    def __init__(self, terms, dim=None, weights=None):
        self.terms = []
        for a, g in terms:
            v = tuple(rational(c) for c in a)
            if all(c == 0 for c in v):
                raise ValueError("zero direction in ridge term")
            self.terms.append((v, g))
        self.dim = dim if dim is not None else len(self.terms[0][0])
        self.weights = weights
        self._float_terms = [([float(c) for c in a], g) for a, g in self.terms]

    def __call__(self, *xs):
        if len(xs) == 1 and self.dim != 1:
            xs = tuple(xs[0])
        xs = [np.asarray(x, dtype=float) for x in xs]
        total = 0.0
        for j, (a, g) in enumerate(self._float_terms):
            term = g(sum(ai * xi for ai, xi in zip(a, xs)))
            if self.weights is not None:
                term = np.asarray(self.weights[j](*xs)) * term
            total = total + term
        return total


# ---------------------------------------------------------------------------
# quadrature

@functools.cache
def _legendre_rule(n):
    """The n-point Gauss-Legendre rule on [-1, 1], read-only: ``leggauss``
    solves an eigenproblem, and an L2 fit asks for one n many times."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_nodes(lo, hi, n):
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = _legendre_rule(int(n))
    lo, hi = float(lo), float(hi)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def gauss_grid(box, nodes):
    """Tensor Gauss-Legendre mesh (``indexing="ij"``) and weight grid on a
    box; a box of no axes gives no mesh and the weight 1."""
    axes, wgrid = [], np.ones(())
    for lo, hi in box:
        x, w = gauss_nodes(lo, hi, nodes)
        axes.append(x)
        wgrid = np.multiply.outer(wgrid, w)
    return list(np.meshgrid(*axes, indexing="ij")), wgrid


# ---------------------------------------------------------------------------
# second differences

def double_differences(f, xs, ys):
    """Double differences of f over the cells of the tensor grid xs x ys:
    D[i, j] = ((F11 - F10) - F01) + F00 with F11 = f(xs[i+1], ys[j+1]),
    F10 = f(xs[i+1], ys[j]), F01 = f(xs[i], ys[j+1]), F00 = f(xs[i], ys[j]).

    A double difference is additive over cells, and over a cell of sides
    hx, hy it is hx * hy times the mixed partial of f at a point inside.
    """
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return cell_differences(
        np.broadcast_to(np.asarray(f(X, Y), dtype=float), X.shape))


def cell_differences(F):
    """The double differences of ``double_differences`` from the values F
    of f on a grid, over F's last two axes (one grid per leading index)."""
    return ((F[..., 1:, 1:] - F[..., 1:, :-1]) - F[..., :-1, 1:]) \
        + F[..., :-1, :-1]


def values_at(f, points):
    """f at the points (x, y) as a list of floats, from one call of f on
    two arrays; a scalar return, as a constant callable gives, is
    broadcast to one value per point."""
    x, y = np.array(points, dtype=float).reshape(-1, 2).T.copy()
    return np.broadcast_to(np.asarray(f(x, y), dtype=float), x.shape).tolist()


def centred_differences(f, xs, ys, hx, hy):
    """Double differences of f over the cells [x-hx, x+hx] x [y-hy, y+hy]
    centred at the nodes of xs x ys (one array entry per node)."""

    def spread(t, h):
        t = np.asarray(t, dtype=float)
        return np.column_stack([t - h, t + h]).ravel()

    return double_differences(f, spread(xs, hx), spread(ys, hy))[::2, ::2]


# ---------------------------------------------------------------------------
# two-direction minimax on a finite set: the maximum cycle mean

def max_cycle_mean(rows, cols, values):
    """Exact discrete minimax error e* = min max_p |f(p) - u(row p) - v(col p)|
    over a finite point set, and one critical cycle.

    Each point p is an edge row -> column of weight f(p) and an edge
    column -> row of weight -f(p) of the bipartite fiber graph, and e* is
    its maximum cycle mean (Karp 1978): with D_k(v) the heaviest walk of k
    edges to node v and n nodes, e* = max_v min_k (D_n(v) - D_k(v)) / (n-k),
    and every cycle on the heaviest n-edge walk to the maximizing v is
    critical.  Such a cycle is a closed bolt p1, q1, p2, ... (p_k, q_k share
    a column, q_k, p_(k+1) a row) with alternating mean
    (f(p1) - f(q1) + f(p2) - ...) / length = e*; an acyclic graph gives 0.

    ``rows`` and ``cols`` label the points' fibers (a grid passes its raveled
    indices) and ``values`` are the f(p).  Returns (e*, the critical cycle
    as point indices from a + point, empty when e* = 0).  A value that is
    not finite raises ValueError naming the first one.
    """
    _, r = np.unique(rows, return_inverse=True)
    _, c = np.unique(cols, return_inverse=True)
    f = np.asarray(values, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(f))
    if bad.size:
        raise ValueError(f"values[{bad[0]}] = {f[bad[0]]} is not finite")
    npts = f.size
    if npts == 0:
        return 0.0, []
    nrows = int(r.max()) + 1
    n = nrows + int(c.max()) + 1
    src = np.concatenate([r, nrows + c])
    dst = np.concatenate([nrows + c, r])
    w = np.concatenate([f, -f])
    # edges grouped by their end node, so one reduceat gives each D_k
    order = np.argsort(dst, kind="stable")
    starts = np.searchsorted(dst[order], np.arange(n + 1))
    src_in, w_in = src[order], w[order]
    D = np.empty((n + 1, n))
    D[0] = 0.0
    for k in range(1, n + 1):
        D[k] = np.maximum.reduceat(D[k - 1, src_in] + w_in, starts[:-1])
    means = ((D[n] - D[:n]) / (n - np.arange(n))[:, None]).min(axis=0)
    # walk back from the maximizing node until a node repeats
    walk, edges = [int(np.argmax(means))], []
    for k in range(n, 0, -1):
        into = order[starts[walk[-1]]:starts[walk[-1] + 1]]
        edges.append(int(into[np.argmax(D[k - 1, src[into]] + w[into])]))
        walk.append(int(src[edges[-1]]))
        if walk[-1] in walk[:-1]:
            break
    cycle = edges[walk.index(walk[-1]):][::-1]
    if cycle[0] >= npts:
        cycle = cycle[1:] + cycle[:1]
    err = float(np.mean(w[cycle]))
    return (err, [e % npts for e in cycle]) if err > 0.0 else (0.0, [])


# ---------------------------------------------------------------------------
# grid minimax LP oracle

def grid_minimax_oracle(f, directions, grid, return_tables=False):
    """Exact discrete minimax error min_g max_{x in grid} |f(x) - sum g_i(a_i.x)|
    over ridge sums with the given directions, as a linear program.

    The fibers are those of ``cycles.Fibers(grid, directions)``, grouped
    exactly by their integer keys, each float read as the binary rational
    it is: float points that are only near one level line lie on different
    fibers.  One variable per fiber, numbered as ``Fibers.columns``, plus
    the error variable; each table's knots are its direction's fiber
    values, keys[i] / scales[i], in increasing order.  f is called once per
    point on Python floats, so a scalar-only callable serves; for an
    expression with '^' a value may then differ in the last bit from the
    same expression evaluated on an array of points.
    """
    from scipy.optimize import linprog
    from .cycles import Fibers
    fib = Fibers(grid, directions)
    n, m = len(fib.points), len(fib.columns)
    fx = np.array([float(f(*[float(c) for c in p])) for p in fib.points])
    # variables: [g_0 ... g_{m-1}, t]; minimize t
    # point j's rows: sum_i g_{fiber_i(x)} - t <= f(x), -sum - t <= -f(x)
    A = np.zeros((n, 2, m + 1))
    for col, members in enumerate(fib.members):
        A[members, 0, col] = 1.0
        A[members, 1, col] = -1.0
    A[:, :, m] = -1.0
    c = np.zeros(m + 1)
    c[m] = 1.0
    res = linprog(c, A_ub=A.reshape(2 * n, m + 1),
                  b_ub=np.column_stack([fx, -fx]).ravel(),
                  bounds=[(None, None)] * m + [(0, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"minimax LP failed: {res.message}")
    if return_tables:
        tables = [([], []) for _ in fib.scales]
        for (i, key), value in sorted(zip(fib.columns, res.x)):
            tables[i][0].append(float(Fraction(key, fib.scales[i])))
            tables[i][1].append(value)
        return float(res.fun), tables
    return float(res.fun)
