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

from .core import (DirectionSet, PointConfig, _integer_coordinates,
                   _primitive, bareiss)


class CycleExists(ValueError):
    """Raised when a representation is requested on a configuration that
    carries a cycle; the offending certificate is attached."""

    def __init__(self, certificate):
        super().__init__("configuration contains a cycle")
        self.certificate = certificate


class CycleCertificate:
    """Integer weights on a support, summing to zero on every fiber.
    ``points``, which the support indexes, are kept as given: a PointConfig
    builds its Fraction view only when ``cycle_functional`` reads it."""

    def __init__(self, support, weights, points=None):
        self.support = list(support)
        self.weights = [int(w) for w in weights]
        self.points = points
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
    PointConfig and a DirectionSet bring their integer coordinates; other
    points, each other direction and the values of a callable h_i, which
    gets each point as given, are read by ``_integer_coordinates``.
    """
    ipts, den = ((points.ints, points.den) if isinstance(points, PointConfig)
                 else _integer_coordinates(points))
    h, hden = (h.ints, h.den) if isinstance(h, DirectionSet) else (h, 1)
    table, scales = [], []
    for i, hi in enumerate(h):
        if hi is None:
            raise TypeError(f"direction {i} is None")
        if callable(hi):
            (keys,), scale = _integer_coordinates([[hi(p) for p in points]])
        else:
            (ia,), e = _integer_coordinates([hi])
            keys = [sum(map(mul, ia, p)) for p in ipts]
            scale = den * hden * e
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
    are ``members[c]``; ``ends[j]`` are point j's fibers, one per h_i.
    ``peel`` holds the rounds of τ.  ``nullspace`` is the one cycle space
    that every question reads: a basis of fundamental circuits of
    ``incidence``, one per free point, each with at most rank + 1 points.
    With two directions it is read off ``forest``, the Kruskal spanning
    forest of the fiber graph, with no elimination; with any other number,
    ``bareiss`` eliminates only the points that ``peel`` leaves.
    """

    def __init__(self, points, h):
        self.points = (points if isinstance(points, PointConfig)
                       else list(points))
        self.keys, self.scales = _key_table(self.points, h)
        self.fibers = [_group(k, range(len(self.points))) for k in self.keys]
        self.columns = [(i, v) for i, fibers in enumerate(self.fibers)
                        for v in fibers]
        self.members = [m for fibers in self.fibers for m in fibers.values()]

    @functools.cached_property
    def incidence(self):
        """The fiber incidence system of all the points: row c is fiber c."""
        return _incidence_rows(self.members, range(len(self.points)))

    @functools.cached_property
    def ends(self):
        """ends[j]: the columns of point j's fibers, h_1's first."""
        ends = [[] for _ in range(len(self.points))]
        for c, members in enumerate(self.members):
            for j in members:
                ends[j].append(c)
        return ends

    @functools.cached_property
    def peel(self):
        """The rounds of τ, each the ascending list of the points left that
        are alone in one of their fibers.  A fiber's count of points left
        falls with each removal; at 1 it names a point of the next round."""
        count = [len(m) for m in self.members]
        left = set(range(len(self.points)))
        lone = {j for j in left if any(count[c] == 1 for c in self.ends[j])}
        rounds = []
        while lone:
            rounds.append(sorted(lone))
            left -= lone
            touched = [c for j in lone for c in self.ends[j]]
            for c in touched:
                count[c] -= 1
            lone = {next(k for k in self.members[c] if k in left)
                    for c in touched if count[c] == 1}
        return rounds

    @functools.cached_property
    def forest(self):
        """The ``_Forest`` of the fiber graph of two directions."""
        return _Forest(self)

    @functools.cached_property
    def nullspace(self):
        """The cycle space: ``rational_nullspace(incidence, n)``, vector for
        vector.

        With two directions, the free columns are the points off the
        Kruskal forest, and each one's vector is its fundamental circuit
        (``_Forest.circuit``).  Otherwise the points that ``peel`` removes
        lie in no cycle, so their columns are pivot columns, and every
        vector is zero on them.  ``rational_nullspace`` of the incidence
        system of the points left, padded with zeros, is the basis; a set
        peeled to nothing builds no incidence matrix.
        """
        if len(self.keys) == 2:
            forest = self.forest
            return [forest.circuit(j) for j, tree in enumerate(forest.tree)
                    if not tree]
        left = _peel(self)
        if not left:
            return []
        keep = set(left)
        fibers = ([j for j in members if j in keep] for members in self.members)
        rows = _incidence_rows([m for m in fibers if m], left)
        basis = []
        for vec in rational_nullspace(rows, len(left)):
            padded = [0] * len(self.points)
            for j, w in zip(left, vec):
                padded[j] = w
            basis.append(padded)
        return basis


class _Forest:
    """The Kruskal spanning forest of the fiber graph of two directions: a
    node per fiber, numbered as ``fib.columns``, and an edge per point,
    joining its two fibers, the edges taken in point order.

    ``graph[c]`` lists (point, other fiber) for the points of fiber c, and
    ``tree[j]`` says whether point j is a forest edge.  Each component is
    rooted at its last fiber in column order, ``root[c]`` being fiber c's;
    ``up[c]`` is (point, fiber) of the edge towards it, None at a root,
    ``depth[c]`` the number of edges there, and ``order`` lists every fiber
    after the one above it.
    """

    def __init__(self, fib):
        self.ends = fib.ends
        self.graph = [[(j, sum(self.ends[j]) - c) for j in members]
                      for c, members in enumerate(fib.members)]
        m = len(self.graph)
        _, self.tree = _union_find(self.ends, m)
        self.root, self.up, self.depth = [None] * m, [None] * m, [0] * m
        self.order = []
        for top in reversed(range(m)):
            if self.root[top] is not None:
                continue
            self.root[top] = top
            k = len(self.order)
            self.order.append(top)
            while k < len(self.order):
                u = self.order[k]
                k += 1
                for j, v in self.graph[u]:
                    if self.tree[j] and self.root[v] is None:
                        self.root[v] = top
                        self.up[v] = (j, u)
                        self.depth[v] = self.depth[u] + 1
                        self.order.append(v)

    def circuit(self, j):
        """The fundamental circuit of the point j off the forest: j and the
        forest path between its fibers, weights alternating +1, -1 around
        the cycle, first nonzero entry positive."""
        (a, b), path, back = self.ends[j], [], []
        while a != b:
            if self.depth[a] >= self.depth[b]:
                e, a = self.up[a]
                path.append(e)
            else:
                e, b = self.up[b]
                back.append(e)
        vec = [0] * len(self.ends)
        vec[j] = 1
        for k, e in enumerate(path + back[::-1]):
            vec[e] = -1 if k % 2 == 0 else 1
        return _primitive(vec)

    def potentials(self, vals, anchor):
        """The solution g of g[a] + g[b] = vals[j] for every forest edge j
        from fiber a to fiber b, with g = 0 at the anchor's first fiber in
        its component and at the root of every other one."""
        g = [0] * len(self.up)
        for c in self.order:
            if self.up[c] is not None:
                j, above = self.up[c]
                g[c] = vals[j] - g[above]
        # g and g + t on the even levels, - t on the odd ones, both solve
        # the component's equations: shift the anchor's fiber to 0
        a0 = self.ends[anchor][0]
        shift = g[a0]
        for c in range(len(g)):
            if self.root[c] == self.root[a0]:
                g[c] -= shift if (self.depth[c] - self.depth[a0]) % 2 == 0 \
                    else -shift
        return g


def _union_find(ends, size):
    """Union-find over ``size`` fibers, joined by the points in order, each
    point j joining its fibers ``ends[j]``.  Returns the root of each fiber
    and, for each point, whether it joined fibers not connected before it:
    with two directions, whether it is an edge of the Kruskal spanning
    forest of the fiber graph."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = []
    for fibers in ends:
        roots = {find(c) for c in fibers}
        joined.append(len(roots) > 1)
        if roots:
            top = roots.pop()
            for r in roots:
                parent[r] = top
    return [find(c) for c in range(size)], joined


def _peel(fib):
    """The points that ``fib.peel`` leaves, ascending: τ's fixed point."""
    gone = set().union(*fib.peel)
    return [j for j in range(len(fib.points)) if j not in gone]


def _fibers(points, h):
    """``points`` if it is a Fibers already, else the Fibers of (points, h)."""
    if not isinstance(points, Fibers):
        if h is None:
            raise TypeError("no directions given; pass them, or a Fibers")
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

    The rows are read as integers by ``_integer_coordinates``.  Each vector
    is the reduced-row-echelon basis vector of its free column, read off the
    integer pivot rows of ``bareiss`` (the last pivot in the free column,
    minus the pivot rows' entries in the pivot columns) over its gcd.
    """
    mat, pivots, last, _ = bareiss(_integer_coordinates(rows)[0], ncols)
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
    # dividing by a positive gcd keeps the zero pattern, so only the rows
    # of widest support need dividing
    support = (vecs != 0).sum(axis=1)
    vecs = vecs[support == support.max()]
    vecs //= np.gcd.reduce(vecs, axis=1)[:, None]
    # v and -v are both rows, and the lexicographic rule below keeps the
    # one whose first nonzero entry is positive: no sign pass is needed
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
    if not fib.nullspace:
        return False, None
    vec = _canonical_cycle_vector(fib.nullspace)
    support = [j for j, w in enumerate(vec) if w != 0]
    weights = [w for w in vec if w != 0]
    return True, CycleCertificate(support, weights, fib.points)


def minimal_cycles(points, h=None, cap=10):
    """All support-minimal cycles with support size <= cap.

    With two directions a minimal cycle is a simple cycle of the fiber
    graph (a node per fiber, an edge per point; two points on the same two
    fibers are parallel edges, a cycle of two), and its weights alternate
    +1, -1 around it: ``_fiber_graph_cycles`` walks the graph for them.
    With any other number of directions, subsets are searched breadth-first
    over support sizes.  Only points in the support of some ``nullspace``
    vector lie in a circuit; among those U, a circuit has at most
    |U| - nullity + 1 points.  A subset is skipped when some point has a
    singleton fiber (no full-support weights exist) or when it strictly
    contains an already-found minimal support.  Either way, the weight
    vector of each minimal support is unique up to scale; it is reported in
    smallest integers over the sorted support, first weight positive, and
    the certificates are sorted by support.

    Returns (certificates, exhausted); ``exhausted`` is True when no cycle
    exists or cap >= rank + 1 (rank = points - dimension of the cycle
    space), the most points a circuit can have, so that every minimal
    cycle is listed.  A negative cap raises ValueError.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    fib = _fibers(points, h)
    n = len(fib.points)
    found = []
    if len(fib.keys) == 2:
        # the rank of a graph's incidence system: its forest's edges
        rank = sum(fib.forest.tree)
        for cycle in _fiber_graph_cycles(fib, cap):
            sign = {j: (-1) ** k for k, j in enumerate(cycle)}
            support = sorted(cycle)
            weights = [sign[j] * sign[support[0]] for j in support]
            found.append(CycleCertificate(support, weights, fib.points))
    else:
        rank = n - len(fib.nullspace)
        union = sorted({j for vec in fib.nullspace
                        for j, w in enumerate(vec) if w})
        supports = []
        largest = len(union) - len(fib.nullspace) + 1
        for size in range(2, min(cap, largest) + 1):
            for subset in itertools.combinations(union, size):
                if any(s <= set(subset) for s in supports):
                    continue
                members = [m for keys in fib.keys
                           for m in _group(keys, subset).values()]
                if any(len(m) == 1 for m in members):
                    continue
                basis = rational_nullspace(_incidence_rows(members, subset),
                                           size)
                if not basis:
                    continue
                # a zero weight would leave a smaller circuit inside the
                # subset, found at its own size: the subset was skipped
                supports.append(set(subset))
                found.append(CycleCertificate(list(subset), basis[0],
                                              fib.points))
    found.sort(key=lambda c: c.support)
    return found, rank == n or cap >= rank + 1


def _fiber_graph_cycles(fib, cap):
    """The simple cycles of at most ``cap`` edges of the fiber graph of two
    directions: a node per fiber, numbered as ``fib.columns``, and an edge
    per point, joining its two fibers.  Each cycle is listed once, as its
    points in order around it: from its lowest node, through higher nodes
    only, in the orientation whose first point is lower than its last.  The
    path is kept on an explicit stack, so a cycle may be as long as the
    point set.
    """
    adj = fib.forest.graph
    on_path = [False] * len(adj)
    cycles = []
    for s in range(len(adj)):
        on_path[s] = True
        stack = [(s, iter(adj[s]))]
        edges = []   # the point by which each node after s was reached
        while stack:
            u, out = stack[-1]
            for j, v in out:
                if v == s:
                    if edges and edges[0] < j:
                        cycles.append(edges + [j])
                elif v > s and not on_path[v] and len(edges) + 2 <= cap:
                    on_path[v] = True
                    stack.append((v, iter(adj[v])))
                    edges.append(j)
                    break
            else:
                on_path[u] = False
                stack.pop()
                if edges:
                    edges.pop()
    return cycles


def cycle_functional(cert, f, points=None):
    """G(f) = sum lambda_j f(x_j) with weights normalized to sum|lambda|=1.

    Vanishes on every sum of the form g_1(h_1(x)) + ... + g_r(h_r(x)).
    """
    pts = points if points is not None else cert.points
    if pts is None:
        raise ValueError("certificate carries no points; pass them explicitly")
    pts = list(pts)
    return sum((float(w) * float(f(*[float(c) for c in pts[j]]))
                for w, j in zip(cert.normalized_weights(), cert.support)), 0.0)


def tau_closure(points, directions=None):
    """Iterate Z -> intersection over i of {x in Z : x's i-fiber within Z
    has >= 2 members} until a fixed point (or the empty set).

    Returns (trace, fixed_point): the full set and what each round of
    ``Fibers.peel`` leaves, ascending, and the last, which with other than
    two directions is what ``Fibers.nullspace`` eliminates.  Emptiness of
    the fixed point is a sufficient condition for the configuration to be
    cycle-free; the converse fails.  Witness: with the coordinate
    directions of R^3, the set (0,0,1/2), (1/2,0,1), (0,1,0), (1,0,1),
    (1,1,0), (1/2,1/2,0), (1/2,1/2,1/2) is its own fixed point, yet its
    fiber incidence matrix has full column rank, so it carries no cycle
    (acceptance criterion 06).
    """
    fib = _fibers(points, directions)
    trace = [list(range(len(fib.points)))]
    for gone in map(set, fib.peel):
        trace.append([j for j in trace[-1] if j not in gone])
    return trace, trace[-1]


# ---------------------------------------------------------------------------
# closed paths (two directions) and orbits

def closed_path_search(points, a1=None, a2=None):
    """Find a closed path: distinct points p_1..p_{2n} alternating along
    level lines of a2 and a1 (wrapping around).  Returns the list of point
    indices or None.

    With two directions a circuit of the fiber incidence system is a simple
    cycle of the bipartite fiber graph (fibers are nodes, points edges), so
    the first fundamental circuit, ``nullspace[0]``, is walked: from its
    first point to the other one on its a2-fiber, then on its a1-fiber, in
    turn.  Two points on the same two fibers (possible off the plane) close
    a path of two.  A Fibers without exactly two directions raises
    ValueError.
    """
    fib = _fibers(points, None if a1 is a2 is None else (a1, a2))
    if len(fib.keys) != 2:
        raise ValueError("a closed path needs exactly two directions, "
                         f"got {len(fib.keys)}")
    if not fib.nullspace:
        return None
    support = [j for j, w in enumerate(fib.nullspace[0]) if w]
    path = [support[0]]
    while True:
        keys = fib.keys[len(path) % 2]   # a2 from an odd count, else a1
        nxt = next(j for j in support
                   if j != path[-1] and keys[j] == keys[path[-1]])
        if nxt == path[0]:
            return path
        path.append(nxt)


def orbits(points, a1=None, a2=None):
    """Partition point indices into orbits: equivalence classes of the
    relation generated by sharing a fiber of a1 or a2, or of any direction
    of a Fibers given in their place, any number of them: the components
    of ``_union_find`` over the points' fibers, each listed ascending, in
    order of its first point."""
    fib = _fibers(points, None if a1 is a2 is None else (a1, a2))
    roots, _ = _union_find(fib.ends, len(fib.columns))
    groups = {}
    # a point with no fiber (no directions) is an orbit of its own
    for j, ends in enumerate(fib.ends):
        groups.setdefault(roots[ends[0]] if ends else -1 - j, []).append(j)
    return list(groups.values())


# ---------------------------------------------------------------------------
# representation solver

def solve_representation(points, h=None, f_values=None, anchor=0):
    """Solve sum_i g_i(h_i(x_j)) = f(x_j) exactly on the configuration.

    Anchoring: g_i(h_i(x_anchor)) = 0 for i = 1..r-1 (the last function
    absorbs the constant); ``anchor`` is a point index in 0..n-1, and any
    other value raises ValueError.  Requires a cycle-free configuration;
    raises CycleExists otherwise.  The unknowns, one per fiber, are
    numbered as ``Fibers.columns``; those that the system leaves free,
    taken last in column order, get the canonical value 0 and are counted.

    With two directions the unknowns are potentials along the fiber
    graph's forest: in the anchor's component its first fiber is 0, and in
    every other component the last fiber in column order is the free one.
    With any other number, one ``bareiss`` pass solves the whole system.

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
    if fib.nullspace:
        raise CycleExists(has_cycle(fib)[1])
    m = len(fib.columns)
    if len(fib.keys) == 2:
        values = fib.forest.potentials(vals, anchor)
        # one free unknown per component but the anchor's
        scale, free = vden, fib.forest.up.count(None) - 1
    else:
        # unknown columns: one per fiber, numbered as ``fib.columns``; the
        # last column is f.  Point j's row is column j of ``fib.incidence``
        # and f's value, transposed together so that with no directions
        # each point still has a row; the anchor rows take the anchor's
        # fibers but the last
        rows = list(zip(*fib.incidence, vals))
        for c in [c for c in range(m) if rows[anchor][c]][:-1]:
            rows.append([int(k == c) for k in range(m + 1)])
        reduced, pivots, last, _ = bareiss(rows, m)
        # free unknowns -> 0, so each pivot row's last entry over the last
        # pivot is its unknown
        values = [reduced[pivots[c]][m] if c in pivots else 0
                  for c in range(m)]
        scale, free = last * vden, m - len(pivots)
    tables = [{} for _ in fib.keys]
    for col, (i, key) in enumerate(fib.columns):
        tables[i][Fraction(key, fib.scales[i])] = Fraction(values[col], scale)
    return tables, free
