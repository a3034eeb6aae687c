"""The five walks over an expression tree that ``core._fold`` replaced,
verbatim, with ``jet`` as it called ``_jet_node``: the references that
tests/test_expr.py checks the fold's readings against."""

import math
import operator

import numpy as np

from ridgekit.core import (
    _BINARY,
    _FUNCS,
    _constant_jet,
    _jet_call,
    _jet_mul,
    _jet_series,
    _jet_times,
    _power_derivatives,
    _refuse,
)
from ridgekit.sigmoid import (
    MAX_EXACT_BITS,
    MAX_EXACT_DEGREE,
    _convolve,
    _limited,
    _poly,
)


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


def _read_poly(node, x):
    """The AST ``node``, with x1 the polynomial ``x``, as a pair from _poly;
    None where the node is not a polynomial or would pass the bounds."""
    op = node[0]
    if op == "const":
        n, d = _limited(node[1], 10**12)
        return [n], d
    if op == "var":
        return x
    if op == "call":
        return None
    p = _read_poly(node[1], x)
    if p is None:
        return None
    ps, dp = p
    if op == "neg":
        return [-c for c in ps], dp
    q = _read_poly(node[2], x)
    if q is None:
        return None
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
            return None
        return _poly(_convolve(ps, qs), dp * dq)
    if len(qs) > 1:
        return None                  # divisor or exponent not a constant
    c = qs[0]
    if op == "/":
        if c == 0:
            return None
        s = dq if c > 0 else -dq     # p / (c/dq) = p*dq / (dp*c)
        return _poly([v * s for v in ps], dp * abs(c))
    if dq != 1:
        return None                  # exponent not an integer
    k = abs(c)
    bits = k * max(map(int.bit_length, [dp, *ps]))
    if (len(ps) - 1) * k > MAX_EXACT_DEGREE or bits > MAX_EXACT_BITS:
        return None
    if c < 0:
        if len(ps) > 1 or ps[0] == 0:
            return None
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
