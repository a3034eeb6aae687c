"""Cycle, path and orbit machinery on finite point sets.

A finite set of points admits a *cycle* with respect to functions
h_1..h_r when nonzero weights can be attached to (a subset of) the points
so that, for every i, the weights sum to zero on each level set (fiber) of
h_i.  Cycles are exactly the obstruction to writing data on the points as a
sum g_1(h_1(x)) + ... + g_r(h_r(x)).  All fiber comparisons are exact over
the rationals.

Every question here is answered from the fibers of the points under h_i:
``Fibers(points, h)`` computes them once, and each function below takes one
in place of ``(points, h)``, or builds one from the pair.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from operator import mul

import numpy as np

from .core import PointConfig, _integer_coordinates, _primitive, bareiss


class CycleExists(ValueError):
    """Raised when a representation is requested on a configuration that
    carries a cycle; the offending certificate is attached."""

    def __init__(self, certificate):
        super().__init__("configuration contains a cycle")
        self.certificate = certificate


class CycleCertificate:
    """Integer weights on a support, summing to zero on every fiber."""

    def __init__(self, support, weights, points=None):
        self.support = list(support)
        self.weights = [int(w) for w in weights]
        self.points = None if points is None else list(points)
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must have equal length")
        if any(w == 0 for w in self.weights):
            raise ValueError("all certificate weights must be nonzero")

    def normalized_weights(self):
        """Weights scaled so that sum |w| = 1 (exact rationals)."""
        total = sum(abs(w) for w in self.weights)
        return [Fraction(w, total) for w in self.weights]

    def __repr__(self):
        return f"CycleCertificate(support={self.support}, weights={self.weights})"


def _key_table(points, h):
    """Fiber values as integers, every one computed once.

    Returns (keys, scales) with keys[i][j] = scales[i] * h_i(x_j): one
    common denominator per h_i, so that fibers group and hash as ints.  A
    PointConfig brings the integer coordinates it computed when it was
    built; other points, and each direction, are read exactly by
    ``_integer_coordinates``.  A callable h_i gets the point as given, and
    its values are read the same way.
    """
    if isinstance(points, PointConfig):
        ipts, den = points.ints, points.den
    else:
        ipts, den = _integer_coordinates(points)
    table, scales = [], []
    for hi in h:
        if callable(hi):
            (keys,), scale = _integer_coordinates([[hi(p) for p in points]])
        else:
            (ia,), e = _integer_coordinates([hi])
            keys = [sum(map(mul, ia, p)) for p in ipts]
            scale = den * e
        table.append(keys)
        scales.append(scale)
    return table, scales


def _group(keys, idx):
    """Fibers of one h_i among the point indices ``idx``: value -> members."""
    fib = {}
    for j in idx:
        fib.setdefault(keys[j], []).append(j)
    return fib


class Fibers:
    """The fibers of finite points under h_1..h_r, computed once.

    ``points`` is the PointConfig as given, or the points as a list;
    ``keys`` and ``scales`` are their ``_key_table``; ``fibers[i]`` maps each
    value in ``keys[i]`` to its point indices, in order of first appearance.
    The fibers are numbered once: fiber c is ``columns[c]`` = (i, value),
    h_1's first, each h_i's in the order of ``fibers[i]``, and its points
    are ``members[c]``.
    """

    def __init__(self, points, h):
        self.points = (points if isinstance(points, PointConfig)
                       else list(points))
        self.keys, self.scales = _key_table(self.points, h)
        self.fibers = [_group(k, range(len(self.points))) for k in self.keys]
        self.columns = [(i, v) for i, fibers in enumerate(self.fibers)
                        for v in fibers]
        self.members = [m for fibers in self.fibers for m in fibers.values()]


def _fibers(points, h):
    """``points`` if it is a Fibers already, else the Fibers of (points, h)."""
    if not isinstance(points, Fibers):
        return Fibers(points, h)
    if h is not None:
        raise TypeError("a Fibers holds its own directions; pass no h")
    return points


def _incidence_rows(fibers, idx):
    """Rows of the fiber incidence system on the point indices ``idx``: one
    per fiber (its members, all in ``idx``), 1 in each member's column.  A
    weight vector lies in the nullspace iff it sums to zero on every fiber.
    """
    col = {j: c for c, j in enumerate(idx)}
    rows = []
    for members in fibers:
        row = [0] * len(idx)
        for j in members:
            row[col[j]] = 1
        rows.append(row)
    return rows


def rational_nullspace(rows, ncols):
    """Basis of the nullspace of a rational matrix, by fraction-free
    elimination: one primitive integer vector per free column, its first
    nonzero entry positive.

    Each is the reduced-row-echelon basis vector of its free column, read
    off the integer pivot rows of ``bareiss`` (the last pivot in the free
    column, minus the pivot rows' entries in the pivot columns) and divided
    by its gcd.
    """
    mat, pivots, last, _ = bareiss(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = last
        for col, r in pivots.items():
            vec[col] = -mat[r][fc]
        basis.append(_primitive(vec))
    return basis


def integerize(vec):
    """Clear denominators and divide by the gcd; sign: first nonzero > 0."""
    (ints,), _ = _integer_coordinates([vec])
    return _primitive(ints)


@functools.lru_cache(maxsize=None)
def _coefficients(k):
    """The 9^k - 1 nonzero coefficient vectors with entries in -4..4."""
    grid = np.array(list(itertools.product(range(-4, 5), repeat=k)),
                    dtype=np.int64)
    grid = grid[grid.any(axis=1)]
    grid.flags.writeable = False   # shared by every later call
    return grid


def _canonical_cycle_vector(basis):
    """Deterministic representative of the cycle space.

    Every combination of the integerized basis with coefficients in -4..4,
    not all zero, is divided by the gcd of its entries and signed so that
    its first nonzero entry is positive.  The one kept has the widest
    support, then the smallest l1 norm, then the lexicographically greatest
    entries.  The combinations are scored in one numpy pass: in int64 when
    no entry or l1 norm can reach 2^63, else in Python ints.  Falls back to
    the first basis vector when the space is too large to enumerate.
    """
    if len(basis) == 1 or len(basis) > 4:
        return integerize(basis[0])
    ints = [integerize(b) for b in basis]
    bound = 4 * len(ints[0]) * sum(max(abs(v) for v in b) for b in ints)
    dtype = np.int64 if bound < 2**63 else object
    vecs = _coefficients(len(ints)).astype(dtype) @ np.array(ints, dtype=dtype)
    vecs //= np.gcd.reduce(vecs, axis=1)[:, None]
    # v and -v are both rows, and the lexicographic rule below keeps the
    # one whose first nonzero entry is positive: no sign pass is needed
    support = (vecs != 0).sum(axis=1)
    vecs = vecs[support == support.max()]
    l1 = np.abs(vecs).sum(axis=1)
    vecs = vecs[l1 == l1.min()]
    for col in range(vecs.shape[1]):
        vecs = vecs[vecs[:, col] == vecs[:, col].max()]
    return [int(v) for v in vecs[0]]


def has_cycle(points, h=None):
    """Decide whether the configuration carries a cycle.

    Returns (False, None) or (True, CycleCertificate) built from a
    canonical nullspace vector of the fiber incidence system.
    """
    fib = _fibers(points, h)
    n = len(fib.points)
    basis = rational_nullspace(_incidence_rows(fib.members, range(n)), n)
    if not basis:
        return False, None
    vec = _canonical_cycle_vector(basis)
    support = [j for j, w in enumerate(vec) if w != 0]
    weights = [w for w in vec if w != 0]
    return True, CycleCertificate(support, weights, fib.points)


def minimal_cycles(points, h=None, cap=10):
    """All support-minimal cycles with support size <= cap.

    Breadth-first over support sizes; a subset is skipped when some point
    has a singleton fiber (no full-support weights exist) or when it
    strictly contains an already-found minimal support.  For each minimal
    support the weight vector is unique up to scale; it is reported in
    smallest integers, first weight positive.

    Returns (certificates, exhausted); ``exhausted`` is False when the cap
    cut the enumeration before all subsets were inspected.
    """
    fib = _fibers(points, h)
    n = len(fib.points)
    found = []
    supports = []
    exhausted = cap >= n
    for size in range(2, min(cap, n) + 1):
        for subset in itertools.combinations(range(n), size):
            if any(s <= set(subset) for s in supports):
                continue
            members = [m for keys in fib.keys
                       for m in _group(keys, subset).values()]
            if any(len(m) == 1 for m in members):
                continue
            basis = rational_nullspace(_incidence_rows(members, subset), size)
            if not basis:
                continue
            vec = basis[0]
            if any(w == 0 for w in vec):
                continue  # support smaller than subset; found at its own size
            supports.append(set(subset))
            found.append(CycleCertificate(list(subset), vec, fib.points))
    found.sort(key=lambda c: c.support)
    return found, exhausted


def cycle_functional(cert, f, points=None):
    """G(f) = sum lambda_j f(x_j) with weights normalized to sum|lambda|=1.

    Vanishes on every sum of the form g_1(h_1(x)) + ... + g_r(h_r(x)).
    """
    pts = list(points) if points is not None else cert.points
    if pts is None:
        raise ValueError("certificate carries no points; pass them explicitly")
    lam = cert.normalized_weights()
    total = 0.0
    for w, j in zip(lam, cert.support):
        total += float(w) * float(f(*[float(c) for c in pts[j]]))
    return total


def tau_closure(points, directions=None):
    """Iterate Z -> intersection over i of {x in Z : x's i-fiber within Z
    has >= 2 members} until a fixed point (or the empty set).

    Returns (trace, fixed_point) where trace is the list of index sets
    visited, starting with the full set.  Emptiness of the fixed point is a
    sufficient condition for the configuration to be cycle-free; the
    converse fails.  Witness: with the coordinate directions of R^3, the
    set (0,0,1/2), (1/2,0,1), (0,1,0), (1,0,1), (1,1,0), (1/2,1/2,0),
    (1/2,1/2,1/2) is its own fixed point, yet its fiber incidence matrix
    has full column rank, so it carries no cycle (acceptance criterion 06).
    """
    fib = _fibers(points, directions)
    current = set(range(len(fib.points)))
    trace = [sorted(current)]
    while current:
        nxt = set(current)
        for keys in fib.keys:
            nxt &= {j for members in _group(keys, current).values()
                    if len(members) >= 2 for j in members}
        if nxt == current:
            break
        current = nxt
        trace.append(sorted(current))
    return trace, sorted(current)


# ---------------------------------------------------------------------------
# paths and orbits (two directions)

def closed_path_search(points, a1=None, a2=None):
    """Find a closed path: distinct points p_1..p_{2n} alternating along
    level lines of a1 and a2 (wrapping around).  Returns the list of point
    indices or None.

    Points are edges of the bipartite multigraph whose sides are the
    a1-fibers and a2-fibers; closed paths correspond to cycles there.
    """
    k1, k2 = _fibers(points, None if a1 is a2 is None else (a1, a2)).keys
    adj = {}  # fiber node (side, value) -> [(neighbour node, point index)]
    for j in range(len(k1)):
        u, v = (1, k1[j]), (2, k2[j])
        adj.setdefault(u, []).append((v, j))
        adj.setdefault(v, []).append((u, j))
    # DFS over fiber nodes; a back edge closes a cycle whose edges are the
    # sought points, one edge per point.  Two points on the same two fibers
    # (possible off the plane) are parallel edges: a closed path of two.
    visited = set()
    for start in adj:
        if start in visited:
            continue
        # recursive DFS via explicit stack, keeping the current edge path
        stack = [(start, None, iter(adj[start]))]
        on_path = {start: None}  # node -> edge used to enter it
        visited.add(start)
        while stack:
            node, in_edge, it = stack[-1]
            advanced = False
            for (nbr, edge) in it:
                if edge == in_edge:
                    continue
                if nbr in on_path:
                    # unwind the stack back to nbr, collecting edges
                    cyc = [edge]
                    k = len(stack) - 1
                    while stack[k][0] != nbr:
                        cyc.append(stack[k][1])
                        k -= 1
                    cyc.reverse()
                    return cyc
                if nbr not in visited:
                    visited.add(nbr)
                    on_path[nbr] = edge
                    stack.append((nbr, edge, iter(adj[nbr])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                del on_path[node]
    return None


def orbits(points, a1=None, a2=None):
    """Partition point indices into orbits: equivalence classes of the
    relation generated by sharing a fiber of a1 or a2, or of any direction
    of a Fibers given in their place (union-find)."""
    fib = _fibers(points, None if a1 is a2 is None else (a1, a2))
    parent = list(range(len(fib.points)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for fibers in fib.fibers:
        for members in fibers.values():
            for j in members[1:]:
                parent[find(j)] = find(members[0])
    groups = {}
    for j in range(len(parent)):
        groups.setdefault(find(j), []).append(j)
    return sorted(groups.values())


# ---------------------------------------------------------------------------
# representation solver

def solve_representation(points, h=None, f_values=None, anchor=0):
    """Solve sum_i g_i(h_i(x_j)) = f(x_j) exactly on the configuration.

    Anchoring: g_i(h_i(x_anchor)) = 0 for i = 1..r-1 (the last function
    absorbs the constant); ``anchor`` is a point index in 0..n-1, and any
    other value raises ValueError.  Requires a cycle-free configuration;
    raises CycleExists otherwise.  Unknowns untouched by the equations
    (isolated fibers of a disconnected block) get the canonical value 0 and
    are reported.

    Returns (tables, free_count) where tables[i] is a dict fiber-value ->
    Fraction.  With a Fibers, pass ``f_values`` by keyword.
    """
    fib = _fibers(points, h)
    n = len(fib.points)
    if not 0 <= anchor < n:
        raise ValueError(f"anchor {anchor} is not a point index 0..{n - 1}")
    # the values as integers over one denominator, which scales every
    # unknown by the same factor
    (vals,), vden = _integer_coordinates([f_values])
    if len(vals) != n:
        raise ValueError("need one f value per point")
    # unknown columns: one per fiber, numbered as ``fib.columns``; the last
    # column is f.  Point j's row is column j of the incidence rows, with a 1
    # in its i-th fiber for each i, in order of i; the anchor rows take the
    # anchor's fibers but the last
    m = len(fib.columns)
    rows = [[0] * m + [v] for v in vals]
    for c, members in enumerate(fib.members):
        for j in members:
            rows[j][c] = 1
    for c in [c for c in range(m) if rows[anchor][c]][:-1]:
        rows.append([int(k == c) for k in range(m + 1)])

    # the anchor rows are independent of the point rows, so a row left
    # without a pivot is a dependency among the points: a cycle
    reduced, pivots, last, _ = bareiss(rows, m)
    if len(pivots) < len(rows):
        raise CycleExists(has_cycle(fib)[1])
    # free unknowns -> 0, so each pivot row's last entry over the last
    # pivot is its unknown
    tables = [{} for _ in fib.keys]
    for col, (i, key) in enumerate(fib.columns):
        value = reduced[pivots[col]][m] if col in pivots else 0
        tables[i][Fraction(key, fib.scales[i])] = Fraction(value, last * vden)
    return tables, m - len(pivots)
