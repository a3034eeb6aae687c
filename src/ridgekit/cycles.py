"""Cycle, path and orbit machinery on finite point sets.

A finite set of points admits a *cycle* with respect to functions
h_1..h_r when nonzero weights can be attached to (a subset of) the points
so that, for every i, the weights sum to zero on each level set (fiber) of
h_i.  Cycles are exactly the obstruction to writing data on the points as a
sum g_1(h_1(x)) + ... + g_r(h_r(x)).  All fiber comparisons are exact over
the rationals.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd
from operator import mul

import numpy as np

from .core import PointConfig, _integer_coordinates, bareiss


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


def _point_list(points):
    """A PointConfig as it is, so that its integer coordinates are read
    where they were built; any other iterable of points as a list."""
    return points if isinstance(points, PointConfig) else list(points)


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


def _incidence_rows(table, idx):
    """Rows of the fiber incidence system restricted to the indices ``idx``.

    Row (i, fiber value) has entry 1 in the column of each member point; a
    weight vector lies in the nullspace iff it sums to zero on every fiber
    of every h_i.
    """
    col = {j: c for c, j in enumerate(idx)}
    rows = []
    for keys in table:
        for members in _group(keys, idx).values():
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
        g = gcd(*vec)
        if next(v for v in vec if v) < 0:
            g = -g
        basis.append([v // g for v in vec])
    return basis


def integerize(vec):
    """Clear denominators and divide by the gcd; sign: first nonzero > 0."""
    den = 1
    for v in vec:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-u for u in ints]
            break
    return ints


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


def has_cycle(points, h):
    """Decide whether the configuration carries a cycle.

    Returns (False, None) or (True, CycleCertificate) built from a
    canonical nullspace vector of the fiber incidence system.
    """
    pts = _point_list(points)
    return _find_cycle(pts, _key_table(pts, h)[0])


def _find_cycle(pts, table):
    """``has_cycle`` on the key table of ``pts``."""
    n = len(pts)
    basis = rational_nullspace(_incidence_rows(table, range(n)), n)
    if not basis:
        return False, None
    vec = _canonical_cycle_vector(basis)
    support = [j for j, w in enumerate(vec) if w != 0]
    weights = [w for w in vec if w != 0]
    return True, CycleCertificate(support, weights, pts)


def _subset_is_taut(table, subset):
    """Necessary condition for a full-support cycle: no point of the subset
    sits alone in any of its fibers (else its weight is forced to zero)."""
    return all(len(members) > 1 for keys in table
               for members in _group(keys, subset).values())


def minimal_cycles(points, h, cap=10):
    """All support-minimal cycles with support size <= cap.

    Breadth-first over support sizes; a subset is skipped when some point
    has a singleton fiber (no full-support weights exist) or when it
    strictly contains an already-found minimal support.  For each minimal
    support the weight vector is unique up to scale; it is reported in
    smallest integers, first weight positive.

    Returns (certificates, exhausted); ``exhausted`` is False when the cap
    cut the enumeration before all subsets were inspected.
    """
    pts = _point_list(points)
    table, _ = _key_table(pts, h)
    n = len(pts)
    found = []
    supports = []
    exhausted = cap >= n
    for size in range(2, min(cap, n) + 1):
        for subset in itertools.combinations(range(n), size):
            if any(s <= set(subset) for s in supports):
                continue
            if not _subset_is_taut(table, subset):
                continue
            basis = rational_nullspace(_incidence_rows(table, subset), size)
            if not basis:
                continue
            vec = basis[0]
            if any(w == 0 for w in vec):
                continue  # support smaller than subset; found at its own size
            supports.append(set(subset))
            found.append(CycleCertificate(list(subset), vec, pts))
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


def tau_closure(points, directions):
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
    pts = _point_list(points)
    table, _ = _key_table(pts, directions)
    current = set(range(len(pts)))
    trace = [sorted(current)]
    while current:
        nxt = set(current)
        for keys in table:
            nxt &= {j for members in _group(keys, current).values()
                    if len(members) >= 2 for j in members}
        if nxt == current:
            break
        current = nxt
        trace.append(sorted(current))
    return trace, sorted(current)


# ---------------------------------------------------------------------------
# paths and orbits (two directions)

def closed_path_search(points, a1, a2):
    """Find a closed path: distinct points p_1..p_{2n} alternating along
    level lines of a1 and a2 (wrapping around).  Returns the list of point
    indices or None.

    Points are edges of the bipartite multigraph whose sides are the
    a1-fibers and a2-fibers; closed paths correspond to cycles there.
    """
    pts = _point_list(points)
    (k1, k2), _ = _key_table(pts, (a1, a2))
    adj = {}  # fiber node (side, value) -> [(neighbour node, point index)]
    for j in range(len(pts)):
        u, v = (1, k1[j]), (2, k2[j])
        adj.setdefault(u, []).append((v, j))
        adj.setdefault(v, []).append((u, j))
    # DFS over fiber nodes; a back edge closes a cycle whose edges are the
    # sought points (distinct edges <=> distinct points, since two distinct
    # points cannot share both fibers of independent directions)
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


def orbits(points, a1, a2):
    """Partition point indices into orbits: equivalence classes of the
    relation generated by sharing an a1-fiber or an a2-fiber (union-find)."""
    pts = _point_list(points)
    parent = list(range(len(pts)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for keys in _key_table(pts, (a1, a2))[0]:
        for members in _group(keys, range(len(pts))).values():
            for j in members[1:]:
                parent[find(j)] = find(members[0])
    groups = {}
    for j in range(len(pts)):
        groups.setdefault(find(j), []).append(j)
    return sorted(groups.values())


# ---------------------------------------------------------------------------
# representation solver

def solve_representation(points, h, f_values, anchor=0):
    """Solve sum_i g_i(h_i(x_j)) = f(x_j) exactly on the configuration.

    Anchoring: g_i(h_i(x_anchor)) = 0 for i = 1..r-1 (the last function
    absorbs the constant); ``anchor`` is a point index in 0..n-1, and any
    other value raises ValueError.  Requires a cycle-free configuration;
    raises CycleExists otherwise.  Unknowns untouched by the equations
    (isolated fibers of a disconnected block) get the canonical value 0 and
    are reported.

    Returns (tables, free_count) where tables[i] is a dict fiber-value ->
    Fraction.
    """
    pts = _point_list(points)
    n = len(pts)
    if not 0 <= anchor < n:
        raise ValueError(f"anchor {anchor} is not a point index 0..{n - 1}")
    r = len(h)
    # the values as integers over one denominator, which scales every
    # unknown by the same factor
    (vals,), vden = _integer_coordinates([f_values])
    if len(vals) != n:
        raise ValueError("need one f value per point")
    table, scales = _key_table(pts, h)

    # unknown columns: one per (i, fiber value); the last column is f
    col_of = {}
    for i, keys in enumerate(table):
        for v in keys:
            col_of.setdefault((i, v), len(col_of))
    m = len(col_of)
    rows = []
    for j in range(n):
        row = [0] * (m + 1)
        for i, keys in enumerate(table):
            row[col_of[(i, keys[j])]] += 1
        row[m] = vals[j]
        rows.append(row)
    for i in range(r - 1):
        row = [0] * (m + 1)
        row[col_of[(i, table[i][anchor])]] = 1
        rows.append(row)

    # the anchor rows are independent of the point rows, so a row left
    # without a pivot is a dependency among the points: a cycle
    reduced, pivots, last, _ = bareiss(rows, m)
    if len(pivots) < len(rows):
        raise CycleExists(_find_cycle(pts, table)[1])
    # free unknowns -> 0, so each pivot row's last entry over the last
    # pivot is its unknown
    tables = [dict() for _ in range(r)]
    for (i, key), col in col_of.items():
        value = reduced[pivots[col]][m] if col in pivots else 0
        tables[i][Fraction(key, scales[i])] = Fraction(value, last * vden)
    return tables, m - len(pivots)
