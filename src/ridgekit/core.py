"""Shared exact arithmetic, expression parsing, grids, quadrature and
evaluable-function abstractions.

Exact rationals (``fractions.Fraction``) back everything combinatorial:
deciding whether two points lie on the same level line of a direction is
ill-posed in floating point, so all fiber logic upstream works over Q.
Approximation numerics (quadrature, LP oracles) use IEEE doubles.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# exact rationals

def rational(value):
    """Convert a string ("3/4", "0.25"), int, float or Fraction to an exact
    Fraction.  Decimal strings and floats are converted exactly (no rounding
    beyond what the literal itself carries)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, str):
        s = value.strip()
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(s)  # handles decimal literals exactly
    raise TypeError(f"cannot convert {value!r} to a rational")


def parse_vector(value):
    """Rational tuple from a comma/space separated string or a sequence."""
    if isinstance(value, str):
        parts = value.replace(",", " ").split()
        return tuple(rational(p) for p in parts)
    return tuple(rational(p) for p in value)


# ---------------------------------------------------------------------------
# point sets and directions

class PointConfig:
    """A finite ordered set of points with exact rational coordinates."""

    def __init__(self, dim, points):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("dim must be positive")
        pts = []
        for p in points:
            q = tuple(rational(c) for c in p)
            if len(q) != self.dim:
                raise ValueError(f"point {p} does not have dimension {self.dim}")
            pts.append(q)
        if len(set(pts)) != len(pts):
            raise ValueError("points must be pairwise distinct")
        self.points = pts

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def as_array(self):
        return np.array([[float(c) for c in p] for p in self.points])

    @classmethod
    def from_csv(cls, path, dim=None):
        rows = _read_csv_rows(path)
        d = dim if dim is not None else len(rows[0])
        return cls(d, rows)


class DirectionSet:
    """Nonzero, pairwise linearly independent directions (rational entries)."""

    def __init__(self, dim, directions):
        self.dim = int(dim)
        dirs = []
        for a in directions:
            v = tuple(rational(c) for c in a)
            if len(v) != self.dim:
                raise ValueError(f"direction {a} does not have dimension {self.dim}")
            if all(c == 0 for c in v):
                raise ValueError("zero direction not allowed")
            dirs.append(v)
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                if _parallel(dirs[i], dirs[j]):
                    raise ValueError(
                        f"directions {i} and {j} are linearly dependent")
        self.directions = dirs

    def __len__(self):
        return len(self.directions)

    def __iter__(self):
        return iter(self.directions)

    @classmethod
    def from_csv(cls, path, dim=None):
        rows = _read_csv_rows(path)
        d = dim if dim is not None else len(rows[0])
        return cls(d, rows)


def _parallel(u, v):
    """True iff u and v are linearly dependent (both nonzero assumed)."""
    # cross-ratio test over Q: u[i]*v[j] == u[j]*v[i] for all pairs
    n = len(u)
    for i in range(n):
        for j in range(i + 1, n):
            if u[i] * v[j] != u[j] * v[i]:
                return False
    return True


def dot(a, x):
    """Exact dot product of rational sequences."""
    return sum(ai * xi for ai, xi in zip(a, x))


def row_reduce(rows, ncols):
    """Exact Gauss-Jordan elimination over Q.

    Pivots are taken left to right in the first ``ncols`` columns; further
    columns (a right-hand side, an identity block) are carried along.
    Returns (reduced rows, {pivot column: row index}, det): the pivot rows
    come first, each with a leading 1 and zeros above and below it, and
    ``det`` is the determinant of the first ``ncols`` columns of a square
    system (0 when those columns are dependent).
    """
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


def _read_csv_rows(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#")[0].strip()
            if not line:
                continue
            rows.append(parse_vector(line))
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return rows


# ---------------------------------------------------------------------------
# expression parsing
#
# expr   := term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*
# factor := ('-')? base ('^' factor)?
# base   := number | ident | func '(' expr ')' | '(' expr ')'
# ident  := 'x' digit+ | 'pi' | 'e'
#                            func in {sin, cos, exp, log, abs, sqrt}

_FUNCS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp,
    "log": np.log, "abs": np.abs, "sqrt": np.sqrt,
}

_CONSTS = {"pi": math.pi, "e": math.e}


class ExprError(ValueError):
    """Syntax or semantic error in an expression, with position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.i = 0

    def _scan(self):
        t, n = self.text, len(self.text)
        i = 0
        while i < n:
            c = t[i]
            if c.isspace():
                i += 1
                continue
            if c in "+-*/^()":
                self.tokens.append((c, c, i))
                i += 1
                continue
            if c.isdigit() or c == ".":
                j = i
                while j < n and (t[j].isdigit() or t[j] == "."):
                    j += 1
                self.tokens.append(("num", t[i:j], i))
                i = j
                continue
            if c.isalpha():
                j = i
                while j < n and t[j].isalnum():
                    j += 1
                self.tokens.append(("name", t[i:j], i))
                i = j
                continue
            raise ExprError(f"unexpected character {c!r}", i)
        self.tokens.append(("end", "", n))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok


class _Parser:
    def __init__(self, text, dim):
        self.tz = _Tokenizer(text)
        self.dim = dim

    def parse(self):
        node = self.expr()
        kind, val, pos = self.tz.peek()
        if kind != "end":
            raise ExprError(f"unexpected token {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.tz.peek()[0] in "+-":
            op = self.tz.next()[0]
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.tz.peek()[0] in "*/":
            op = self.tz.next()[0]
            node = (op, node, self.factor())
        return node

    def factor(self):
        if self.tz.peek()[0] == "-":
            self.tz.next()
            return ("neg", self.factor())
        node = self.base()
        if self.tz.peek()[0] == "^":
            self.tz.next()
            node = ("^", node, self.factor())
        return node

    def base(self):
        kind, val, pos = self.tz.next()
        if kind == "num":
            try:
                return ("const", float(Fraction(val)))
            except ValueError:
                raise ExprError(f"bad number {val!r}", pos)
        if kind == "name":
            if val.startswith("x") and val[1:].isdigit():
                k = int(val[1:])
                if not 1 <= k <= self.dim:
                    raise ExprError(f"variable {val} out of range 1..{self.dim}", pos)
                return ("var", k - 1)
            if val in _CONSTS:
                return ("const", _CONSTS[val])
            if val in _FUNCS:
                kind2, val2, pos2 = self.tz.next()
                if kind2 != "(":
                    raise ExprError(f"expected '(' after {val}", pos2)
                arg = self.expr()
                kind3, val3, pos3 = self.tz.next()
                if kind3 != ")":
                    raise ExprError("expected ')'", pos3)
                return ("call", val, arg)
            raise ExprError(f"unknown identifier {val!r}", pos)
        if kind == "(":
            node = self.expr()
            kind2, _, pos2 = self.tz.next()
            if kind2 != ")":
                raise ExprError("expected ')'", pos2)
            return node
        raise ExprError(f"unexpected token {val!r}", pos)


def _eval_ast(node, xs):
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        return xs[node[1]]
    if op == "neg":
        return -_eval_ast(node[1], xs)
    if op == "call":
        return _FUNCS[node[1]](_eval_ast(node[2], xs))
    a = _eval_ast(node[1], xs)
    b = _eval_ast(node[2], xs)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    if op == "^":
        return a ** b
    raise AssertionError(op)


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
    """An evaluable d-variate function: parsed expression, wrapped callable,
    or sampled grid with multilinear interpolation."""

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
        ast = _Parser(text, dim).parse()
        return cls(dim, lambda *xs: _eval_ast(ast, xs), ast=ast)

    @classmethod
    def from_callable(cls, fn, dim):
        return cls(dim, fn)

    @classmethod
    def from_grid(cls, axes, values):
        """Sampled tensor grid with multilinear interpolation."""
        from scipy.interpolate import RegularGridInterpolator
        interp = RegularGridInterpolator(
            [np.asarray(a, float) for a in axes], np.asarray(values, float),
            method="linear")
        dim = len(axes)

        def fn(*xs):
            pts = np.broadcast_arrays(*[np.asarray(x, float) for x in xs])
            flat = np.stack([p.ravel() for p in pts], axis=-1)
            out = interp(flat)
            return out.reshape(pts[0].shape) if pts[0].shape else float(out[0])

        return cls(dim, fn)


def parse_expression(text, dim):
    """Parse ``text`` over variables x1..xd into an evaluable ScalarField."""
    return ScalarField.from_expression(text, dim)


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
    def sample(cls, fn, lo, hi, n=201):
        ts = np.linspace(float(lo), float(hi), n)
        return cls(ts, np.array([float(fn(t)) for t in ts]))


class RidgeSum:
    """A sum of ridge terms g_i(a_i . x)."""

    def __init__(self, terms, dim=None):
        self.terms = []
        for a, g in terms:
            v = tuple(rational(c) for c in a)
            if all(c == 0 for c in v):
                raise ValueError("zero direction in ridge term")
            self.terms.append((v, g))
        self.dim = dim if dim is not None else len(self.terms[0][0])

    def __call__(self, *xs):
        if len(xs) == 1 and self.dim != 1:
            xs = tuple(xs[0])
        xs = [np.asarray(float(x) if isinstance(x, Fraction) else x) for x in xs]
        total = 0.0
        for a, g in self.terms:
            arg = sum(float(ai) * xi for ai, xi in zip(a, xs))
            total = total + g(arg)
        return total

    def as_field(self):
        return ScalarField(self.dim, self.__call__)


# ---------------------------------------------------------------------------
# quadrature

def gauss_nodes(lo, hi, n):
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(int(n))
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


def tensor_quadrature(f, box, nodes_per_axis):
    """Tensor Gauss-Legendre approximation of the integral of f over a box.

    Exact (to rounding) for polynomials of degree <= 2*nodes-1 per axis;
    deterministic for fixed inputs.
    """
    if nodes_per_axis < 2:
        raise ValueError("nodes_per_axis must be >= 2")
    if not all(float(lo) < float(hi) for lo, hi in box):
        raise ValueError("box bounds must satisfy lo < hi")
    mesh, wgrid = gauss_grid(box, nodes_per_axis)
    return float(np.sum(np.asarray(f(*mesh), float) * wgrid))


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
    F = np.asarray(f(X, Y), dtype=float)
    return ((F[1:, 1:] - F[1:, :-1]) - F[:-1, 1:]) + F[:-1, :-1]


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
    as point indices from a + point, empty when e* = 0).
    """
    _, r = np.unique(rows, return_inverse=True)
    _, c = np.unique(cols, return_inverse=True)
    f = np.asarray(values, dtype=float).ravel()
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

    One variable per distinct fiber value per direction plus the error
    variable.  Fibers are grouped by equality of a.x computed in the points'
    own arithmetic: exact for ``Fraction`` points, but float points on one
    level line of a skew direction can round to different values of a.x
    and split the fiber, which relaxes the LP.  On a float grid, pass the
    values pulled back to the directions' own coordinates, with the axes
    as directions, so that each fiber is one grid row or column.
    """
    from scipy.optimize import linprog
    pts = list(grid)
    n = len(pts)
    # fiber values per direction, grouped by equality of a.x; point_cols[i]
    # holds each point's column for direction i
    var_index = {}  # (i_dir, fiber_value) -> column
    point_cols = [[var_index.setdefault((i, dot(a, p)), len(var_index))
                   for p in pts]
                  for i, a in enumerate(directions)]
    m = len(var_index)
    # variables: [g_0 ... g_{m-1}, t]; minimize t
    # constraints: sum_i g_{fiber_i(x)} - t <= f(x) and -sum - t <= -f(x)
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
    if not res.success:
        raise RuntimeError(f"minimax LP failed: {res.message}")
    if return_tables:
        tables = []
        for i in range(len(directions)):
            fib = sorted(v for (k, v) in var_index if k == i)
            knots = [float(v) for v in fib]
            vals = [res.x[var_index[(i, v)]] for v in fib]
            tables.append((knots, vals))
        return float(res.fun), tables
    return float(res.fun)
