import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgekit import cycles
from ridgekit.core import dot as core_dot
from ridgekit.core import DirectionSet, PointConfig, rational
from ridgekit.cycles import (
    CycleExists,
    _canonical_cycle_vector,
    closed_path_search,
    cycle_functional,
    has_cycle,
    integerize,
    minimal_cycles,
    orbits,
    rational_nullspace,
    solve_representation,
    tau_closure,
)

X = (1, 0)
Y = (0, 1)
SQUARE = [(0, 0), (0, 1), (1, 0), (1, 1)]
E3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def dot(a, p):
    return sum(Fraction(ai) * Fraction(pi) for ai, pi in zip(a, p))


def incidence(points, dirs):
    """Fiber incidence matrix: one row per (direction, fiber value)."""
    rows = []
    for a in dirs:
        values = sorted({dot(a, p) for p in points})
        rows += [[int(dot(a, p) == v) for p in points] for v in values]
    return rows


# random subsets of {0..3}^2 along (1,0), (0,1), (1,1), and of {0..2}^3
# along the coordinate directions
KINDS = [([(x, y) for x in range(4) for y in range(4)], [X, Y, (1, 1)]),
         ([(x, y, z) for x in range(3) for y in range(3) for z in range(3)],
          E3)]
random_sets = st.sampled_from(KINDS).flatmap(
    lambda kind: st.tuples(
        st.lists(st.sampled_from(kind[0]), min_size=1, max_size=len(kind[0]),
                 unique=True),
        st.just(kind[1])))

# random subsets of a 4 x 4 grid along the axes and along the skew pair
# (1,1), (1,-1), and of {0..2}^3 along (1,0,0) and (0,1,1), where two
# points differing only in y - z share both fibers
TWO_DIRECTION_KINDS = [
    ([(x, y) for x in range(4) for y in range(4)], [X, Y]),
    ([(x, y) for x in range(4) for y in range(4)], [(1, 1), (1, -1)]),
    ([(x, y, z) for x in range(3) for y in range(3) for z in range(3)],
     [(1, 0, 0), (0, 1, 1)])]
two_direction_sets = st.sampled_from(TWO_DIRECTION_KINDS).flatmap(
    lambda kind: st.tuples(
        st.lists(st.sampled_from(kind[0]), min_size=1, max_size=9,
                 unique=True),
        st.just(kind[1])))


class TestHasCycle:
    def test_square_is_a_cycle(self):
        found, cert = has_cycle(SQUARE, [X, Y])
        assert found
        # weights annihilate every fiber of both projections
        for a in (X, Y):
            sums = {}
            for idx, w in zip(cert.support, cert.weights):
                p = SQUARE[idx]
                key = a[0] * p[0] + a[1] * p[1]
                sums[key] = sums.get(key, 0) + w
            assert all(v == 0 for v in sums.values())

    def test_triangle_is_cycle_free(self):
        found, cert = has_cycle([(0, 0), (0, 1), (1, 0)], [X, Y])
        assert not found and cert is None

    def test_numpy_integer_arrays_give_what_tuples_give(self):
        grid = [(x, y) for x in range(3) for y in range(3)]
        for pts, dirs in ((SQUARE, [X, Y]), (SQUARE[:3], [X, Y]),
                          (grid, [X, Y, (1, 1)])):
            want_found, want = has_cycle(pts, dirs)
            found, got = has_cycle(np.array(pts), np.array(dirs))
            assert found == want_found
            if found:
                assert (got.support, got.weights) == \
                    (want.support, want.weights)
            keys = cycles.Fibers(np.array(pts), np.array(dirs)).keys
            assert all(type(k) is int for row in keys for k in row)

    def test_certificate_weights_normalize_to_unit_mass(self):
        _, cert = has_cycle(SQUARE, [X, Y])
        assert sum(abs(w) for w in cert.normalized_weights()) == Fraction(1)

    def test_functional_reads_the_certificates_own_points(self):
        # x*y on the square is no ridge sum of x and y: G(f) = ±1/4
        half = Fraction(1, 2)
        pts = [(0, half), (0, 1), (1, half), (1, 1)]
        f = lambda x, y: x * y  # noqa: E731
        for points in (pts, PointConfig(2, pts)):
            _, cert = has_cycle(points, [X, Y])
            assert abs(cycle_functional(cert, f)) == \
                abs(cycle_functional(cert, f, pts)) == 0.125

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_product_grids_always_have_cycles(self, seed):
        rng = random.Random(seed)
        xs = rng.sample(range(-20, 21), 3)
        ys = rng.sample(range(-20, 21), 3)
        pts = [(x, y) for x in xs for y in ys]
        found, cert = has_cycle(pts, [X, Y])
        assert found
        fn = cycle_functional(cert, lambda x, y: x * 2.0 + np.sin(y), pts)
        assert abs(fn) <= 1e-12  # annihilates ridge sums

    @given(random_sets)
    @settings(max_examples=40, deadline=None)
    def test_nullity_and_certificates_on_random_sets(self, case):
        pts, dirs = case
        rows = incidence(pts, dirs)
        rank = sympy.Matrix(rows).rank()
        assert len(rational_nullspace(rows, len(pts))) == len(pts) - rank
        found, cert = has_cycle(pts, dirs)
        assert found == (rank < len(pts))
        if found:
            for a in dirs:
                sums = {}
                for j, w in zip(cert.support, cert.weights):
                    key = dot(a, pts[j])
                    sums[key] = sums.get(key, 0) + w
                assert all(v == 0 for v in sums.values())


def canonical_cycle_vector_oracle(basis):
    """The certificate search as one Python loop over the coefficient
    vectors: the reference that ``_canonical_cycle_vector`` must match."""
    ints = [integerize(b) for b in basis]
    if len(ints) == 1 or len(ints) > 4:
        return ints[0]
    best_key = None
    best_vec = None
    for coeffs in itertools.product(range(-4, 5), repeat=len(ints)):
        if all(c == 0 for c in coeffs):
            continue
        vec = [sum(c * b[i] for c, b in zip(coeffs, ints))
               for i in range(len(ints[0]))]
        vec = integerize([Fraction(v) for v in vec])
        support = sum(1 for v in vec if v != 0)
        l1 = sum(abs(v) for v in vec)
        key = (support, -l1, vec)
        if best_key is None or key > best_key:
            best_key, best_vec = key, vec
    return best_vec


@st.composite
def nullspace_bases(draw):
    """Bases shaped like ``rational_nullspace`` output: k = 2..4 vectors,
    each 1 in its own free column and 0 in the other free columns.  The
    other entries are small (ties between candidates), rational, or large
    enough that the search must leave int64."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k + 1, 7))
    free = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                         unique=True))
    entry = st.one_of(st.integers(-2, 2),
                      st.fractions(-5, 5, max_denominator=6),
                      st.integers(-2**80, 2**80))
    basis = []
    for i in range(k):
        vec = [Fraction(draw(entry)) for _ in range(n)]
        for j, col in enumerate(free):
            vec[col] = Fraction(int(i == j))
        basis.append(vec)
    return basis


# in int64, 4*(1, 0, BIG) + 4*(0, 1, BIG) would wrap to (4, 4, 8), and its
# reduced form (1, 1, 2) would win on l1
BIG = 2**61 + 1
WIDE_BASIS = [[Fraction(1), Fraction(0), Fraction(BIG)],
              [Fraction(0), Fraction(1), Fraction(BIG)]]


class TestCanonicalCycleVector:
    @given(nullspace_bases())
    @settings(max_examples=20, deadline=None)
    def test_matches_the_loop_over_coefficients(self, basis):
        assert _canonical_cycle_vector(basis) == \
            canonical_cycle_vector_oracle(basis)

    def test_entries_beyond_int64_stay_exact(self):
        assert _canonical_cycle_vector(WIDE_BASIS) == [2, -1, BIG] == \
            canonical_cycle_vector_oracle(WIDE_BASIS)


class TestMinimalCycles:
    def test_square_has_one_minimal_cycle(self):
        certs, exhausted = minimal_cycles(SQUARE, [X, Y])
        assert exhausted and len(certs) == 1
        assert sorted(abs(w) for w in certs[0].weights) == [1, 1, 1, 1]

    def test_six_point_grid_minimal_cycles_have_four_points(self):
        pts = [(x, y) for x in (0, 1, 2) for y in (0, 1)]
        certs, exhausted = minimal_cycles(pts, [X, Y], cap=10)
        assert exhausted
        assert all(len(c.support) == 4 for c in certs)
        assert len(certs) == 3

    def test_a_cap_of_rank_plus_one_lists_every_circuit(self):
        # the 3 x 3 grid along the axes has rank 9 - 4 = 5, so no circuit
        # has more than 6 points: nine 4-cycles and six 6-cycles
        grid = [(x, y) for x in range(3) for y in range(3)]
        certs, exhausted = minimal_cycles(grid, [X, Y], cap=6)
        wide, _ = minimal_cycles(grid, [X, Y], cap=10)
        assert exhausted and len(certs) == 15
        assert [cert_data(c) for c in certs] == [cert_data(c) for c in wide]
        short, exhausted = minimal_cycles(grid, [X, Y], cap=5)
        assert not exhausted and len(short) == 9

    def test_a_cycle_free_set_is_exhausted_at_any_cap(self):
        stairs = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]
        assert minimal_cycles(stairs, [X, Y], cap=2) == ([], True)

    def test_a_negative_cap_is_refused(self):
        with pytest.raises(ValueError, match="cap must be >= 0, got -1"):
            minimal_cycles(SQUARE, [X, Y], cap=-1)

    @given(two_direction_sets)
    @settings(max_examples=60, deadline=None)
    def test_the_fiber_graph_walk_matches_subset_enumeration(self, case):
        pts, dirs = case
        circuits, rank = circuits_oracle(pts, dirs)
        for cap in range(11):
            certs, exhausted = minimal_cycles(pts, dirs, cap=cap)
            assert [cert_data(c) for c in certs] == \
                [c for c in circuits if len(c[0]) <= cap]
            assert exhausted == (rank == len(pts) or cap >= rank + 1)

    def test_the_five_by_five_grid_lists_every_circuit(self):
        grid = [(x, y) for x in range(5) for y in range(5)]
        certs, exhausted = minimal_cycles(grid, [X, Y], cap=10)
        assert exhausted and len(certs) == 3940

    def test_a_cycle_longer_than_the_recursion_limit_is_walked(self):
        # 600 fibers of each direction, joined into one cycle of 1,200 points
        pts = ([(i, i) for i in range(600)]
               + [(i, (i + 1) % 600) for i in range(600)])
        certs, exhausted = minimal_cycles(pts, [X, Y], cap=1200)
        assert exhausted and len(certs) == 1
        assert certs[0].support == list(range(1200))
        assert set(certs[0].weights) == {1, -1}

    def test_a_cycle_free_tail_leaves_the_circuits_unchanged(self):
        # with three directions, only points in the support of a nullspace
        # vector are searched
        grid = [(x, y) for x in range(4) for y in range(4)]
        tail = [(4, 3), (4, 4), (5, 4), (5, 5), (6, 5), (6, 6)]
        dirs = [X, Y, (1, 1)]
        alone, _ = minimal_cycles(grid, dirs, cap=10)
        tailed, _ = minimal_cycles(grid + tail, dirs, cap=10)
        assert len(alone) == 13
        assert [cert_data(c) for c in tailed] == [cert_data(c) for c in alone]


def circuits_oracle(points, dirs):
    """Every circuit of the fiber incidence system, by brute force over
    subsets, and the system's rank.  A circuit is a subset of rank one less
    than its size whose every proper subset is independent; its weights
    span the nullspace of its columns, in smallest integers, first weight
    positive.  The circuits come as (support, weights), sorted by
    support."""
    rows = np.array(incidence(points, dirs)).reshape(-1, len(points))
    ranks = {s: np.linalg.matrix_rank(rows[:, list(s)]) if s else 0
             for size in range(len(points) + 1)
             for s in itertools.combinations(range(len(points)), size)}
    circuits = []
    for s, rank in ranks.items():
        if rank == len(s) - 1 and all(ranks[s[:k] + s[k + 1:]] == rank
                                      for k in range(len(s))):
            (vec,) = sympy.Matrix(rows[:, list(s)]).nullspace()
            ints = [int(v * sympy.ilcm(*[v.q for v in vec])) for v in vec]
            g = sympy.igcd(*ints) * (1 if ints[0] > 0 else -1)
            circuits.append((list(s), [w // g for w in ints]))
    return sorted(circuits), ranks[tuple(range(len(points)))]


class TestTauAndPaths:
    def test_tau_empties_on_cycle_free_sets(self):
        trace, fixed = tau_closure([(0, 0), (0, 1), (1, 0)], [X, Y])
        assert fixed == []

    def test_square_closed_path_found(self):
        path = closed_path_search(SQUARE, X, Y)
        assert path is not None and len(path) % 2 == 0 and len(path) >= 4

    def test_orbits_union(self):
        pts = [(0, 0), (0, 1), (5, 5), (5, 6)]
        obs = orbits(pts, X, Y)
        assert obs == [[0, 1], [2, 3]]

    def test_two_points_on_the_same_two_fibers_close_a_path(self):
        # off the plane two points can share the fibers of both directions:
        # parallel edges of the fiber graph, a closed path of two points
        pts = [(0, 0, 0), (0, 0, 1), (1, 0, 0)]
        dirs = [(1, 0, 0), (0, 1, 0)]
        assert closed_path_search(pts, *dirs) == [0, 1]
        found, cert = has_cycle(pts, dirs)
        assert found and cert_data(cert) == ([0, 1], [1, -1])

    @given(two_direction_sets)
    @settings(max_examples=60, deadline=None)
    def test_a_closed_path_walks_a_minimal_cycle(self, case):
        pts, (a1, a2) = case
        path = closed_path_search(pts, a1, a2)
        if not has_cycle(pts, [a1, a2])[0]:
            assert path is None
            return
        n = len(path)
        assert n % 2 == 0 and len(set(path)) == n >= 2
        # a2's fiber first, then a1's, in turn, wrapping around
        for k in range(n):
            a = a2 if k % 2 == 0 else a1
            assert dot(a, pts[path[k]]) == dot(a, pts[path[(k + 1) % n]])
        certs, _ = minimal_cycles(pts, [a1, a2], cap=n)
        assert sorted(path) in [c.support for c in certs]

    def test_a_closed_path_needs_exactly_two_directions(self):
        fib = cycles.Fibers(SQUARE, [X, Y, (1, 1)])
        with pytest.raises(ValueError, match="exactly two directions, got 3"):
            closed_path_search(fib)


# integer sets of up to 10 points in 2-D and 3-D along 1 to 3 directions,
# parallel and repeated ones included
@st.composite
def point_sets(draw):
    dim = draw(st.integers(2, 3))
    small = st.tuples(*[st.integers(-2, 2)] * dim)
    pts = draw(st.lists(small, min_size=1, max_size=10, unique=True))
    dirs = draw(st.lists(small.filter(any), min_size=1, max_size=3))
    return pts, dirs


class TestSolveRepresentation:
    def test_exact_on_cycle_free_set(self):
        pts = [(0, 0), (0, 1), (1, 1), (2, 2)]
        fvals = [Fraction(1), Fraction(2), Fraction(5), Fraction(9)]
        tables, free = solve_representation(pts, [X, Y], fvals)
        for p, v in zip(pts, fvals):
            total = tables[0][Fraction(p[0])] + tables[1][Fraction(p[1])]
            assert total == v

    def test_raises_on_cycle(self):
        with pytest.raises(CycleExists):
            solve_representation(SQUARE, [X, Y], [0, 0, 0, 1])

    def test_wrong_number_of_values_is_reported_before_a_cycle(self):
        with pytest.raises(ValueError, match="one f value per point"):
            solve_representation(SQUARE, [X, Y], [0, 0, 1])

    def test_no_directions_is_a_cycle(self):
        # no fibers: every weight vector is a cycle, and the values cannot
        # be interpolated by an empty sum
        with pytest.raises(CycleExists):
            solve_representation([(0, 0), (1, 2)], [], [0, 1])

    @given(point_sets())
    @settings(max_examples=60, deadline=None)
    def test_raises_exactly_when_has_cycle_finds_one(self, case):
        # the solve decides cycle-freeness from its own elimination; it
        # must agree with has_cycle and attach the same certificate
        pts, dirs = case
        found, cert = has_cycle(pts, dirs)
        fvals = [Fraction(k * k - 3, 7) for k in range(len(pts))]
        if found:
            with pytest.raises(CycleExists) as exc:
                solve_representation(pts, dirs, fvals)
            assert cert_data(exc.value.certificate) == cert_data(cert)
            return
        tables, _ = solve_representation(pts, dirs, fvals)
        for p, v in zip(pts, fvals):
            assert sum(tab[dot(a, p)] for tab, a in zip(tables, dirs)) == v

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_cycle_free_paths_are_solved_exactly(self, seed):
        rng = random.Random(seed)
        # build a staircase path: alternately share x then y, never closing
        pts = [(0, 0)]
        for k in range(1, 6):
            x, y = pts[-1]
            pts.append((x, y + k) if k % 2 else (x + k, y))
        fvals = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                 for _ in pts]
        tables, _ = solve_representation(pts, [X, Y], fvals)
        for p, v in zip(pts, fvals):
            assert tables[0][Fraction(p[0])] + tables[1][Fraction(p[1])] == v
        # a 3-D tree along three directions: each new point keeps one
        # coordinate of an earlier point and takes fresh values in the other
        # two, so the newest point sits alone in its x- or y-fiber, and
        # peeling points newest first shows that the set carries no cycle
        dirs = [(1, 0, 0), (0, 1, 0), (1, 1, 1)]
        tree = [(0, 0, 0)]
        fresh = iter(range(1, 100))
        for _ in range(7):
            q = rng.choice(tree)
            keep = rng.randrange(3)
            tree.append(tuple(q[i] if i == keep else next(fresh)
                              for i in range(3)))
        fvals = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                 for _ in tree]
        tables, _ = solve_representation(tree, dirs, fvals)
        for p, v in zip(tree, fvals):
            assert sum(tab[dot(a, p)] for tab, a in zip(tables, dirs)) == v


# two directions with denominators 2, 3 and 7, the points of a 4 x 4 grid in
# their own coordinates (fiber values i/3 and j/7), and a callable third
# direction whose fiber values are (i + j)/3
A1 = (Fraction(1, 2), Fraction(1, 3))
A2 = (Fraction(2, 7), Fraction(-1))


def from_fibers(u, v):
    """The point x with A1.x = u and A2.x = v."""
    det = A1[0] * A2[1] - A1[1] * A2[0]
    return ((u * A2[1] - A1[1] * v) / det, (A1[0] * v - u * A2[0]) / det)


RATIONAL_GRID = [from_fibers(Fraction(i, 3), Fraction(j, 7))
                 for i in range(4) for j in range(4)]
RATIONAL_DIRS = [A1, A2, lambda p: p[0] * 7 / 6 - 2 * p[1]]


def dot_key_table(points, h):
    """Fiber values as ``core.dot`` (or the callable) gives them, unscaled:
    the reference for the integer keys."""
    return ([[rational(hi(p)) if callable(hi) else core_dot(hi, p)
              for p in points] for hi in h], [1] * len(h))


def cert_data(cert):
    return None if cert is None else (cert.support, cert.weights)


class TestRationalFibers:
    @pytest.mark.parametrize("seed", range(6))
    def test_integer_keys_match_dot_keys(self, seed, monkeypatch):
        rng = random.Random(seed)
        # with the third direction, only large subsets carry cycles
        dirs = RATIONAL_DIRS[:2 + seed % 2]
        pts = rng.sample(RATIONAL_GRID, rng.randint(7, 10) + 4 * (seed % 2))

        fvals = [Fraction(k * k - 3, 7) for k in range(len(pts))]

        def ask(args, two):
            """Every answer, from ``args`` = (points, h) or (Fibers,) and
            ``two`` = (points, a1, a2) or (Fibers,)."""
            found, cert = has_cycle(*args)
            certs, exhausted = minimal_cycles(*args, cap=6)
            try:
                solved = solve_representation(*args, f_values=fvals)
            except CycleExists as exc:
                solved = cert_data(exc.certificate)
            out = (found, cert_data(cert),
                   [cert_data(c) for c in certs], exhausted,
                   tau_closure(*args), solved)
            if len(dirs) == 2:
                out += (orbits(*two), closed_path_search(*two))
            return out

        def answers():
            got = ask((pts, dirs), (pts, *dirs))
            fib = cycles.Fibers(pts, dirs)
            assert ask((fib,), (fib,)) == got
            return got

        got = answers()
        monkeypatch.setattr(cycles, "_key_table", dot_key_table)
        assert got == answers()

    def test_tables_match_dot_keys(self, monkeypatch):
        stairs = [from_fibers(Fraction(i, 3), Fraction(j, 7))
                  for i, j in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]]
        fvals = [Fraction(k * k - 3, 7) for k in range(len(stairs))]
        tables, free = solve_representation(stairs, RATIONAL_DIRS, fvals)
        for p, v in zip(stairs, fvals):
            assert sum(tab[rational(h(p)) if callable(h) else core_dot(h, p)]
                       for tab, h in zip(tables, RATIONAL_DIRS)) == v
        monkeypatch.setattr(cycles, "_key_table", dot_key_table)
        assert (tables, free) == solve_representation(
            stairs, RATIONAL_DIRS, fvals)

    def test_fibers_are_numbered_once(self):
        # columns: h_1's fibers first, each direction's in order of first
        # appearance; members[c] the points of fiber c
        fib = cycles.Fibers([(0, 0), (1, 0), (0, 1), (1, 1)], [X, (1, 1)])
        assert fib.columns == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]
        assert fib.members == [[0, 2], [1, 3], [0], [1, 2], [3]]

    @pytest.mark.parametrize("dirs", [[X, (1, 1)], [X, Y], [(1, 2)], []])
    def test_incidence_rows_are_numbered_as_the_columns(self, dirs):
        pts = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]
        fib = cycles.Fibers(pts, dirs)
        assert fib.incidence == cycles._incidence_rows(fib.members,
                                                       range(len(pts)))
        assert len(fib.incidence) == len(fib.columns)
        assert fib.incidence is fib.incidence

    def test_a_direction_set_is_read_as_integers(self):
        # no Fraction view of the directions is built, and the fibers and
        # their values are those of the directions as a list
        ds = DirectionSet(2, [A1, A2])
        fib = cycles.Fibers(RATIONAL_GRID, ds)
        assert "_fractions" not in vars(ds)
        listed = cycles.Fibers(RATIONAL_GRID, list(ds))

        def values(f):
            return [[Fraction(k, s) for k in keys]
                    for keys, s in zip(f.keys, f.scales)]

        assert values(fib) == values(listed)
        assert fib.members == listed.members

    def test_a_fibers_takes_no_second_set_of_directions(self):
        fib = cycles.Fibers(SQUARE, [X, Y])
        for call in (lambda: has_cycle(fib, [X, Y]),
                     lambda: minimal_cycles(fib, [X, Y]),
                     lambda: tau_closure(fib, [X, Y]),
                     lambda: orbits(fib, X, Y),
                     lambda: closed_path_search(fib, None, Y),
                     lambda: solve_representation(fib, [0, 0, 0, 1])):
            with pytest.raises(TypeError, match="holds its own directions"):
                call()

    def test_float_coordinates_are_read_exactly(self):
        # 1e16 + 1.0 rounds to 1e16 in floats, which would put both points
        # on one level line of (1, 1); read exactly, they are on two
        pts = [(1e16, 1.0), (1e16, 0.0)]
        assert 1e16 + 1.0 == 1e16 + 0.0
        assert orbits(pts, (1, 1), (0, 1)) == [[0], [1]]
        assert has_cycle(pts, [(1, 1), (1, 0)]) == (False, None)
