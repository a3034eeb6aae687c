import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgekit import cycles
from ridgekit.core import (DirectionSet, PointConfig, _integer_coordinates,
                           bareiss, rational)
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

    @given(st.sampled_from([[X, Y, (1, 1)], [X, Y, (1, 1), (1, -1)]]),
           st.lists(st.sampled_from([(x, y) for x in range(4)
                                     for y in range(4)]),
                    min_size=4, max_size=9, unique=True))
    @settings(max_examples=150, deadline=None)
    def test_the_subset_search_matches_subset_enumeration(self, dirs, pts):
        # with three or four directions the circuits come from the search
        # over subsets, whose every tried subset with a nullspace vector
        # has full support
        circuits, rank = circuits_oracle(pts, dirs)
        for cap in (3, 5, 10):
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

    def test_a_cycle_stops_the_solve_before_any_elimination(self,
                                                             monkeypatch):
        # with three directions the cycle space, computed once per Fibers,
        # decides; the solve's own elimination is not reached
        grid = [(x, y) for x in range(3) for y in range(3)]
        fib = cycles.Fibers(grid, [X, Y, (1, 1)])
        found, cert = has_cycle(fib)

        def no_elimination(*args):
            raise AssertionError("bareiss called")

        monkeypatch.setattr(cycles, "bareiss", no_elimination)
        with pytest.raises(CycleExists) as exc:
            solve_representation(fib, f_values=list(range(9)))
        assert found and cert_data(exc.value.certificate) == cert_data(cert)

    def test_no_directions_is_a_cycle(self):
        # no fibers: every weight vector is a cycle, and the values cannot
        # be interpolated by an empty sum
        with pytest.raises(CycleExists):
            solve_representation([(0, 0), (1, 2)], [], [0, 1])

    @given(point_sets())
    @settings(max_examples=60, deadline=None)
    def test_raises_exactly_when_has_cycle_finds_one(self, case):
        # the solve decides cycle-freeness from the cycle space; it must
        # agree with has_cycle and attach the same certificate
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
    """Fiber values as ``dot`` (or the callable) gives them, unscaled:
    the reference for the integer keys."""
    return ([[rational(hi(p)) if callable(hi) else dot(hi, p)
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
            assert sum(tab[rational(h(p)) if callable(h) else dot(h, p)]
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


# ---------------------------------------------------------------------------
# the cycle space and the solve from the fiber graph, against one dense
# elimination of the whole incidence system

def dense_solve(fib, f_values, anchor):
    """``solve_representation`` as one ``bareiss`` pass over the point rows
    and the anchor rows: the reference for the forest potentials."""
    (vals,), vden = _integer_coordinates([f_values])
    m = len(fib.columns)
    rows = list(zip(*fib.incidence, vals))
    for c in [c for c in range(m) if rows[anchor][c]][:-1]:
        rows.append([int(k == c) for k in range(m + 1)])
    reduced, pivots, last, _ = bareiss(rows, m)
    if len(pivots) < len(rows):
        raise CycleExists(has_cycle(fib)[1])
    tables = [{} for _ in fib.keys]
    for col, (i, key) in enumerate(fib.columns):
        value = reduced[pivots[col]][m] if col in pivots else 0
        tables[i][Fraction(key, fib.scales[i])] = Fraction(value, last * vden)
    return tables, m - len(pivots)


def solved(solve, fib, f_values, anchor):
    """The tables as (value, Fraction) lists in their order, and the free
    count; or the certificate of the cycle that stops the solve."""
    try:
        tables, free = solve(fib, f_values=f_values, anchor=anchor)
    except CycleExists as exc:
        return cert_data(exc.certificate)
    return [list(tab.items()) for tab in tables], free


def orbits_oracle(points, dirs):
    """Orbits by growing each from its first point over shared fibers."""
    left, groups = set(range(len(points))), []
    while left:
        group, todo = set(), [min(left)]
        while todo:
            j = todo.pop()
            if j in group:
                continue
            group.add(j)
            todo += [k for k in left if any(
                dot(a, points[k]) == dot(a, points[j]) for a in dirs)]
        left -= group
        groups.append(sorted(group))
    return groups


# sets of up to 14 points, repeated ones included, with integer and p/q
# coordinates in 2-D and 3-D, along 2 to 4 small integer directions
@st.composite
def mixed_sets(draw, directions=(2, 4), size=14):
    dim = draw(st.integers(2, 3))
    coord = st.one_of(st.integers(-3, 3),
                      st.fractions(-3, 3, max_denominator=3))
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=1,
                        max_size=size))
    dirs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim).filter(any),
                         min_size=directions[0], max_size=directions[1]))
    return pts, dirs


# criterion 06: its own tau fixed point, so peeling removes nothing, yet it
# carries no cycle
CRITERION_06 = [(0, 0, Fraction(1, 2)), (Fraction(1, 2), 0, 1), (0, 1, 0),
                (1, 0, 1), (1, 1, 0), (Fraction(1, 2), Fraction(1, 2), 0),
                (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))]
# two squares and the point (1, 3) between them, on the fiber x = 1 of the
# first and y = 3 of the second: a bridge of the fiber graph
BRIDGED = SQUARE + [(3, 3), (3, 4), (4, 3), (4, 4)] + [(1, 3)]


class TestCycleSpaceFromTheFiberGraph:
    @given(mixed_sets(directions=(0, 4)))
    @settings(max_examples=100, deadline=None)
    def test_nullspace_is_the_dense_basis(self, case):
        pts, dirs = case
        fib = cycles.Fibers(pts, dirs)
        assert fib.nullspace == rational_nullspace(fib.incidence, len(pts))

    @given(mixed_sets(directions=(0, 4)), st.data())
    @settings(max_examples=80, deadline=None)
    def test_solve_is_the_dense_solve(self, case, data):
        pts, dirs = case
        anchor = data.draw(st.integers(0, len(pts) - 1))
        fvals = data.draw(st.lists(st.fractions(-9, 9, max_denominator=5),
                                   min_size=len(pts), max_size=len(pts)))
        fib = cycles.Fibers(pts, dirs)
        assert solved(solve_representation, fib, fvals, anchor) == \
            solved(dense_solve, cycles.Fibers(pts, dirs), fvals, anchor)

    @given(two_direction_sets, st.data())
    @settings(max_examples=150, deadline=None)
    def test_forest_potentials_are_the_dense_solve(self, case, data):
        # several components: the anchor's first fiber and every other
        # component's last fiber are 0, as the dense pivot rule leaves them
        pts, dirs = case
        anchor = data.draw(st.integers(0, len(pts) - 1))
        fvals = [Fraction(k * k - 3, 7) for k in range(len(pts))]
        fib = cycles.Fibers(pts, dirs)
        got = solved(solve_representation, fib, fvals, anchor)
        assert got == solved(dense_solve, cycles.Fibers(pts, dirs), fvals,
                             anchor)
        assert fib.nullspace == rational_nullspace(fib.incidence, len(pts))
        assert orbits(fib) == orbits_oracle(pts, dirs)
        if not fib.nullspace:
            assert got[1] == len(orbits(fib)) - 1

    @given(mixed_sets(directions=(1, 4), size=10))
    @settings(max_examples=40, deadline=None)
    def test_orbits_of_any_number_of_directions(self, case):
        pts, dirs = case
        assert orbits(cycles.Fibers(pts, dirs)) == orbits_oracle(pts, dirs)

    def test_two_orbits_left_after_peeling(self):
        # two unit cubes along the coordinate axes, far apart, their points
        # interleaved: two orbits of nullity 4, whose free columns alternate
        cubes = [tuple(c + 5 * k for c in p)
                 for p in itertools.product((0, 1), repeat=3) for k in (0, 1)]
        fib = cycles.Fibers(cubes, E3)
        assert cycles._peel(fib) == list(range(16))
        assert len(orbits(fib)) == 2
        assert fib.nullspace == rational_nullspace(fib.incidence, 16)
        assert len(fib.nullspace) == 8

    def test_criterion_06_survives_peeling_and_carries_no_cycle(self):
        fib = cycles.Fibers(CRITERION_06, E3)
        assert cycles._peel(fib) == list(range(7))
        assert fib.nullspace == [] == rational_nullspace(fib.incidence, 7)
        fvals = [Fraction(k, 3) for k in range(7)]
        for anchor in range(7):
            assert solved(solve_representation, fib, fvals, anchor) == \
                solved(dense_solve, fib, fvals, anchor)

    @pytest.mark.parametrize("dirs", [[X, Y], [X, Y, (1, 1)]])
    def test_two_cycles_joined_by_a_bridge(self, dirs):
        fib = cycles.Fibers(BRIDGED, dirs)
        assert fib.nullspace == rational_nullspace(fib.incidence, 9)
        if len(dirs) == 2:
            # the bridge survives peeling, yet lies in no cycle
            assert cycles._peel(fib) == list(range(9))
            assert len(fib.nullspace) == 2
            assert all(vec[8] == 0 for vec in fib.nullspace)
            assert orbits(fib) == [list(range(9))]
        fvals = [Fraction(k * k - 3, 7) for k in range(9)]
        for anchor in (0, 4, 8):
            assert solved(solve_representation, fib, fvals, anchor) == \
                solved(dense_solve, fib, fvals, anchor)

    def test_two_directions_need_no_elimination(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("eliminated")
        monkeypatch.setattr(cycles, "bareiss", refuse)
        monkeypatch.setattr(cycles, "rational_nullspace", refuse)
        fib = cycles.Fibers(BRIDGED, [X, Y])
        assert has_cycle(fib)[0] and len(fib.nullspace) == 2
        stairs = [(0, 0), (0, 1), (1, 1), (5, 5), (5, 6)]
        fvals = [Fraction(k, 2) for k in range(5)]
        tables, free = solve_representation(stairs, [X, Y], fvals, anchor=3)
        assert free == 1
        assert tables[0][5] == 0 and tables[1][1] == 0
        for p, v in zip(stairs, fvals):
            assert tables[0][p[0]] + tables[1][p[1]] == v

    def test_a_set_peeled_to_nothing_builds_no_incidence(self):
        stairs = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]
        fib = cycles.Fibers(stairs, [X, Y, (1, 1)])
        assert fib.nullspace == [] and "incidence" not in vars(fib)


# ---------------------------------------------------------------------------
# the τ-closure is the peel

def tau_reference(fib):
    """τ as one loop: each step regroups every direction's fibers among the
    points left and keeps the points whose fibers all hold two of them or
    more, until nothing changes.  The reference for ``Fibers.peel``."""
    current = set(range(len(fib.points)))
    trace = [sorted(current)]
    while current:
        nxt = set(current)
        for keys in fib.keys:
            nxt &= {j for members in cycles._group(keys, current).values()
                    if len(members) >= 2 for j in members}
        if nxt == current:
            break
        current = nxt
        trace.append(sorted(current))
    return trace, sorted(current)


# a path in 2-D or 3-D that sets one coordinate per step to a value not
# used before, along the axes: each round peels its ends, so it takes many
# rounds.  Up to 4 more points on the path's values close cycles or repeat
# a point, and more directions make fibers of one point
@st.composite
def peel_paths(draw):
    dim = draw(st.integers(2, 3))
    p, fresh = [0] * dim, itertools.count(1)
    pts = [tuple(p)]
    for _ in range(draw(st.integers(0, 14))):
        p[draw(st.integers(0, dim - 1))] = Fraction(next(fresh), 2)
        pts.append(tuple(p))
    values = sorted({c for q in pts for c in q})
    pts += draw(st.lists(st.tuples(*[st.sampled_from(values)] * dim),
                         max_size=4))
    axes = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    more = st.tuples(*[st.integers(-2, 2)] * dim).filter(any)
    return (draw(st.permutations(pts)),
            axes + draw(st.lists(more, max_size=4 - dim)))


# those paths and sets of up to 18 points along 0 to 4 directions, each
# direction given as a vector or as a callable on the points
@st.composite
def tau_sets(draw):
    pts, dirs = draw(st.one_of(peel_paths(),
                               mixed_sets(directions=(0, 4), size=18)))
    callable_dirs = [(lambda p, a=a: dot(a, p)) if draw(st.booleans()) else a
                     for a in dirs]
    return pts, callable_dirs


class TestTauClosureIsThePeel:
    @given(tau_sets())
    @settings(max_examples=200, deadline=None)
    def test_tau_closure_is_the_tau_loop(self, case):
        pts, dirs = case
        fib = cycles.Fibers(pts, dirs)
        trace, fixed = tau_closure(fib)
        assert (trace, fixed) == tau_reference(fib)
        assert fixed == cycles._peel(fib)
        assert tau_closure(pts, dirs) == (trace, fixed)

    def test_the_rounds_of_a_staircase(self):
        # each round removes the two ends of the path, one when they meet
        fib = cycles.Fibers(staircase(7), [X, Y])
        assert fib.peel == [[0, 6], [1, 5], [2, 4], [3]]
        trace, fixed = tau_closure(fib)
        assert trace == [list(range(7)), [1, 2, 3, 4, 5], [2, 3, 4], [3], []]
        assert fixed == [] == cycles._peel(fib)

    @pytest.mark.parametrize("call", [has_cycle, tau_closure, orbits,
                                      minimal_cycles])
    def test_points_without_directions_are_refused(self, call):
        with pytest.raises(TypeError, match="no directions given"):
            call([(0, 0), (1, 1)])

    @pytest.mark.parametrize("call", [
        lambda pts: orbits(pts, X),
        lambda pts: closed_path_search(pts, X),
        lambda pts: has_cycle(pts, [X, None]),
    ], ids=["orbits", "closed_path_search", "has_cycle"])
    def test_a_missing_direction_is_named(self, call):
        with pytest.raises(TypeError, match="direction 1 is None"):
            call([(0, 0), (1, 1)])


def staircase(n):
    """n points, each sharing x or y with the one before: a path."""
    return [((j + 1) // 2, j // 2) for j in range(n)]


class TestCycleSpaceAtScale:
    @pytest.mark.parametrize("dirs", [[X, Y], [X, Y, (1, 1)]])
    def test_a_2000_point_staircase_carries_no_cycle(self, dirs):
        assert has_cycle(staircase(2000), dirs) == (False, None)

    def test_a_2000_point_staircase_is_solved_exactly(self):
        pts = staircase(2000)
        fvals = [Fraction(j * j % 11 - 5, j % 3 + 1) for j in range(2000)]
        tables, free = solve_representation(pts, [X, Y], fvals)
        assert free == 0
        for (x, y), v in zip(pts, fvals):
            assert tables[0][x] + tables[1][y] == v

    def test_a_1200_point_cycle_has_nullity_one(self):
        pts = ([(i, i) for i in range(600)]
               + [(i, (i + 1) % 600) for i in range(600)])
        (vec,) = cycles.Fibers(pts, [X, Y]).nullspace
        assert set(vec) == {1, -1}
        assert sum(vec) == 0
