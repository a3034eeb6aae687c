import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgekit.bolts import (
    AxisRect,
    ClassViolated,
    ClosedBolt,
    Hexagon,
    L,
    Octagon,
    SHARP_N,
    StairPolygon,
    _bisect_half_level,
    _bolt_functionals,
    _monotone_on_grid,
    _prune,
    class_check,
    ebolts,
    golomb_lower_bound,
    hexagon_ebolts,
    hexagon_error,
    l,
    maximize_bolt,
    octagon_error,
    polygon_error,
    random_bolt,
    sharp_bounds,
    stairlike_error,
    uc_best,
    vc_best,
)
from ridgekit.core import double_differences, grid_minimax_oracle, max_cycle_mean


def xy(x, y):
    return np.asarray(x) * np.asarray(y)


class TestFunctionals:
    def test_rect_functional_of_product(self):
        # L(xy, [0,1]^2) = (1*1 + 0*0 - 0*1 - 1*0)/4
        assert L(xy, AxisRect(0, 1, 0, 1)) == pytest.approx(0.25)

    def test_rect_functional_additive_in_columns(self):
        r = AxisRect(0, 2, 0, 1)
        r1, r2 = AxisRect(0, 1, 0, 1), AxisRect(1, 2, 0, 1)
        f = lambda x, y: np.exp(np.asarray(x)) * np.asarray(y)
        assert L(f, r) == pytest.approx(L(f, r1) + L(f, r2))

    def test_bolt_functional_annihilates_ridge_sums(self):
        pts = [(0, 0), (0, 2), (1, 2), (1, 1), (3, 1), (3, 0)]
        f = lambda x, y: np.sin(np.asarray(x)) + np.asarray(y) ** 2
        assert abs(l(f, pts)) <= 1e-12

    def test_closed_bolt_validation(self):
        with pytest.raises(ValueError):
            ClosedBolt([(0, 0), (1, 1), (2, 2), (3, 3)])  # no alternation
        with pytest.raises(ValueError):
            ClosedBolt([(0, 0), (0, 1)])  # too short

    @pytest.mark.parametrize("pts, message", [
        # two vertical moves first, then a move along neither axis
        ([(0, 0), (0, 1), (0, 2), (1, 3)], "share a coordinate"),
        # two vertical moves first, then a repeated point
        ([(0, 0), (0, 1), (0, 2), (0, 2)], "must differ"),
    ])
    def test_closed_bolt_reports_a_move_before_the_alternation(
            self, pts, message):
        with pytest.raises(ValueError, match=message):
            ClosedBolt(pts)


class TestRectangleClasses:
    def test_product_error_and_split_height(self):
        err, phi0, psi0, y0 = vc_best(xy, AxisRect(0, 1, 0, 1), c=1.0)
        assert err == pytest.approx(0.25)
        xs = np.linspace(0, 1, 101)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        resid = np.abs(xy(X, Y) - phi0(X) - psi0(Y))
        assert float(resid.max()) == pytest.approx(err, abs=1e-9)

    def test_uc_matches_grid_lp(self):
        f = lambda x, y: (np.asarray(x) - 0.5) ** 2 * np.asarray(y)
        err, *_ = uc_best(f, AxisRect(0, 1, 0, 1), c=0.5)
        xs = np.linspace(0, 1, 21)
        pts = np.array([(x, y) for x in xs for y in xs])
        lp = grid_minimax_oracle(f, [(1, 0), (0, 1)], pts)
        assert abs(err - lp) <= 5e-3

    def test_class_violation_raises(self):
        with pytest.raises(ClassViolated):
            vc_best(lambda x, y: -xy(x, y), AxisRect(0, 1, 0, 1), c=1.0)


def x2_times(g):
    return lambda x, y: np.asarray(y) * g(np.asarray(x))


class TestClassCheck:
    # x2*g(x1) has cell double differences (y'-y)*(g(x')-g(x)): signed as
    # g' on the two sides of c, and as g(b1) - g(a1) on full-width strips
    SIN = staticmethod(x2_times(lambda x: np.sin(np.pi * x)))

    def test_v_class_passes(self):
        v = class_check(self.SIN, AxisRect(0, 0.9, 0, 1), 0.5, "V")
        assert v["passed"] and v["failures"] == []
        assert v["which"] == "V" and v["c"] == 0.5

    def test_u_class_passes(self):
        neg = x2_times(lambda x: -np.sin(np.pi * x))
        v = class_check(neg, AxisRect(0.1, 1, 0, 1), 0.5, "U")
        assert v["passed"] and v["failures"] == []

    @pytest.mark.parametrize("rect,c,side", [
        ((0, 0.9, 0, 1), 0.7, "left"),     # sin falls on (0.5, 0.7)
        ((0, 0.9, 0, 1), 0.3, "right"),    # sin rises on (0.3, 0.5)
        ((0, 1.2, 0, 1), 0.5, "strips"),   # sin(1.2*pi) < sin(0)
    ])
    def test_each_side_fails_alone(self, rect, c, side):
        v = class_check(self.SIN, AxisRect(*rect), c, "V")
        assert not v["passed"]
        assert [name for name, _ in v["failures"]] == [side]
        assert v["failures"][0][1] < -v["tol"]

    @pytest.mark.parametrize("which,c", [("V", 0.0), ("V", 1.5),
                                         ("U", 1.0), ("U", -0.5)])
    def test_split_outside_the_rectangle_raises(self, which, c):
        with pytest.raises(ValueError):
            class_check(xy, AxisRect(0, 1, 0, 1), c, which)

    def test_a_callable_returning_a_scalar_is_a_constant(self):
        one = lambda x, y: 1.0
        assert class_check(one, AxisRect(0, 1, 0, 1), 0.5, "V")["passed"]
        assert polygon_error(one, AxisRect(0, 1, 0, 1))["error"] == 0.0
        hexagon = Hexagon((0, 1, 2), (0, 1, 2))
        assert polygon_error(one, hexagon)["error"] == 0.0
        assert np.array_equal(double_differences(one, [0, 1, 2], [0, 1]),
                              np.zeros((2, 1)))


class TestPolygons:
    HEX = Hexagon((0, 1, 2), (0, 1, 2))

    def test_hexagon_ebolt_count_and_error(self):
        assert len(ebolts(self.HEX)) == 3
        rep = hexagon_error(xy, self.HEX)
        assert rep["error"] == pytest.approx(0.5)
        assert not rep["fallback"]

    def test_octagon_ebolt_counts(self):
        qa = Octagon((0, 1, 2, 3), (0, 1, 2), "A")
        qb = Octagon((0, 1, 2, 3), (0, 1, 2), "B")
        assert len(ebolts(qa)) == 5
        assert len(ebolts(qb)) == 3
        assert octagon_error(xy, qa)["error"] > 0
        assert octagon_error(xy, qb)["error"] > 0

    def test_stairlike_bolt_count_is_subsets_of_steps(self):
        s = StairPolygon((0, 1, 2, 3), (0, 1, 2, 3))
        assert len(ebolts(s)) == 2 ** (s.N - 1) - 1
        assert stairlike_error(xy, s)["error"] > 0

    def test_sharp_bounds_bracket_the_error(self):
        bd = sharp_bounds(xy, self.HEX)
        err = hexagon_error(xy, self.HEX)["error"]
        assert bd["lower"] - 1e-12 <= err <= bd["upper"] + 1e-12

    @pytest.mark.parametrize("f", [
        xy,
        lambda x, y: np.sin(3 * x) * np.cos(2 * y),
        lambda x, y: x * y + np.exp(x / 4) * y,
    ])
    @pytest.mark.parametrize("H", [HEX, Hexagon((-1, 0.3, 2), (0, 0.5, 1.7))])
    def test_sharp_bounds_b_is_the_four_point_stencil(self, f, H):
        # the stencil sharp_bounds used before the shared kernel, in its
        # own order of operations: B must be equal, not merely close
        xs = np.linspace(H.a[0], H.a[2], SHARP_N)
        ys = np.linspace(H.b[0], H.b[2], SHARP_N)
        h = min(xs[1] - xs[0], ys[1] - ys[0]) / 4.0
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        inside = np.array([[H.contains(x, y) for y in ys] for x in xs])
        mixed = (np.asarray(f(X + h, Y + h)) - np.asarray(f(X + h, Y - h))
                 - np.asarray(f(X - h, Y + h))
                 + np.asarray(f(X - h, Y - h))) / (4.0 * h * h)
        want = float(np.max(np.abs(np.where(inside, mixed, 0.0))))
        assert sharp_bounds(f, H)["B"] == want

    @pytest.mark.parametrize("f", [lambda x, y: 0 * x * y, xy])
    def test_sharp_bounds_on_a_hexagon_too_thin_for_a_difference(self, f):
        # 8e-216 high: 4 h^2 underflows, and 0 / 0 made a NaN B with a
        # RuntimeWarning; B and the upper bound are unknown, inf
        H = Hexagon((0.0, 1.0, 2.0), (0.0, 1.4e-281, 8.4e-216))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bd = sharp_bounds(f, H)
        assert bd["B"] == bd["upper"] == math.inf
        assert bd["l_f"] == [abs(l(f, p)) for p in hexagon_ebolts(H)]


    @pytest.mark.parametrize("P", [
        HEX, Octagon((0, 1, 2, 3), (0, 1, 2), "A"),
        Octagon((0, 1, 2, 3), (0, 1, 2), "B"),
        StairPolygon((0, 1, 2, 3), (0, 1, 2, 3))])
    def test_failed_class_check_reports_the_grid_minimax(self, P):
        # outside the class the e-bolts miss most of the error: on the
        # hexagon they reach 0.0989 where the grid minimax is 0.7071
        f = lambda x, y: np.sin(3 * x) * np.cos(2 * y)
        rep = polygon_error(f, P)
        assert rep["fallback"]
        assert rep["error"] > max(rep["values"])
        assert l(f, rep["bolt"]) == pytest.approx(rep["error"], rel=1e-12)
        rects = P.rectangles()
        xs = np.linspace(min(R.a1 for R in rects), max(R.b1 for R in rects),
                         33)
        ys = np.linspace(min(R.a2 for R in rects), max(R.b2 for R in rects),
                         33)
        pts = [(x, y) for x in xs for y in ys
               if any(R.a1 <= x <= R.b1 and R.a2 <= y <= R.b2
                      for R in rects)]
        lp = grid_minimax_oracle(f, [(1, 0), (0, 1)], pts)
        assert rep["error"] == pytest.approx(lp, rel=1e-9)
        if P is self.HEX:
            assert rep["error"] == pytest.approx(0.7071, abs=1e-4)

    def test_rectangle_is_a_one_rectangle_polygon(self):
        # xy lies in the class on the square: its error is L(xy) = 1/4;
        # sin(3x)cos(2y) does not, and falls back to the grid minimax
        R = AxisRect(0, 1, 0, 1)
        rep = polygon_error(xy, R)
        assert rep["error"] == pytest.approx(0.25, rel=1e-12)
        assert not rep["fallback"]
        f = lambda x, y: np.sin(3 * x) * np.cos(2 * y)
        rep = polygon_error(f, R)
        assert rep["fallback"]
        g = np.linspace(0, 1, 33)
        lp = grid_minimax_oracle(f, [(1, 0), (0, 1)],
                                 [(x, y) for x in g for y in g])
        assert rep["error"] == pytest.approx(lp, rel=1e-9)
        assert l(f, rep["bolt"]) == pytest.approx(rep["error"], rel=1e-12)


class TestMaximizeBolt:
    @pytest.mark.parametrize("bolt,want", [
        ([(0.5, 0.25), (0.5, 1.5), (0.75, 1.5), (0.75, 0.5), (1.5, 0.5),
          (1.5, 0.25)],
         [(0.0, 0.0), (0.0, 2.0), (1.0, 2.0), (1.0, 1.0), (2.0, 1.0),
          (2.0, 0.0)]),
        # l < 0 at the start: the bolt is rotated by one point first
        ([(1.5, 0.25), (1.5, 0.75), (0.25, 0.75), (0.25, 0.25)],
         [(2.0, 1.0), (0.0, 1.0), (0.0, 0.0), (2.0, 0.0)]),
    ])
    def test_reanchors_onto_the_lattice(self, bolt, want):
        H = Hexagon((0, 1, 2), (0, 1, 2))
        f = lambda x, y: x * y + np.exp(x / 4) * y
        assert maximize_bolt(f, H, ClosedBolt(bolt)).points == want

    def test_never_decreases_functional(self):
        H = Hexagon((0, 1, 2), (0, 1, 2))
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_bolt(H, rng)
            before = l(xy, p)
            q = maximize_bolt(xy, H, p)
            assert l(xy, q) >= before - 1e-12

    def test_reaches_the_hexagon_error(self):
        H = Hexagon((0, 1, 2), (0, 1, 2))
        rng = np.random.default_rng(3)
        best = 0.0
        for _ in range(50):
            q = maximize_bolt(xy, H, random_bolt(H, rng))
            best = max(best, abs(l(xy, q)))
        assert best == pytest.approx(hexagon_error(xy, H)["error"], abs=1e-9)


def maximize_bolt_oracle(f, H, p):
    """``maximize_bolt`` as two passes, vertical then horizontal, written
    out separately: the reference for the shared re-anchoring pass."""
    a1, a2, a3 = H.a
    b1, b2, b3 = H.b
    pts = list(p.points if isinstance(p, ClosedBolt) else p)
    if l(f, pts) < 0:
        pts = pts[1:] + pts[:1]  # rotate so the functional starts >= 0

    def high_anchor(y):
        # tallest admissible column for a segment whose top reaches y
        return a2 if y > b2 else a3

    # vertical units: consecutive pairs sharing x; even index = + sign
    out = list(pts)
    n = len(pts)
    for k in range(n):
        j = (k + 1) % n
        if pts[k][0] != pts[j][0]:
            continue
        yi, yj = pts[k][1], pts[j][1]
        positive = (k % 2 == 0)
        if positive and yj > yi:
            x = a1
        elif positive and yj < yi:
            x = high_anchor(yi)
        elif not positive and yj < yi:
            x = a1
        else:  # negative sign, moving up
            x = high_anchor(yj)
        out[k] = (x, yi)
        out[j] = (x, yj)
    out = _prune(out)
    if len(out) < 4:
        return ClosedBolt(p.points if isinstance(p, ClosedBolt) else p)

    # horizontal units on the updated bolt; x now lies in {a1, a2, a3}
    def wide_anchor(x):
        # highest admissible row for a segment whose right end is at x
        return b2 if x == a3 else b3

    pts = out
    n = len(pts)
    out = list(pts)
    for k in range(n):
        j = (k + 1) % n
        if pts[k][1] != pts[j][1]:
            continue
        xi, xj = pts[k][0], pts[j][0]
        positive = (k % 2 == 0)
        if positive and xj > xi:
            y = b1
        elif positive and xj < xi:
            y = wide_anchor(xi)
        elif not positive and xj < xi:
            y = b1
        else:
            y = wide_anchor(xj)
        out[k] = (xi, y)
        out[j] = (xj, y)
    out = _prune(out)
    if len(out) < 4:
        return ClosedBolt(p.points if isinstance(p, ClosedBolt) else p)
    return ClosedBolt(out)


def prune_reference(points):
    """The former ``_prune``: remove the leftmost pair of coincident
    successive points (cyclically) and rescan from the start, until none
    remain; the reference for the one-pass prune."""
    pts = list(points)
    changed = True
    while changed and len(pts) >= 2:
        changed = False
        for k in range(len(pts)):
            if pts[k] == pts[(k + 1) % len(pts)]:
                hi, lo = max(k, (k + 1) % len(pts)), min(k, (k + 1) % len(pts))
                if hi == len(pts) - 1 and lo == 0:
                    del pts[hi]
                    del pts[lo]
                else:
                    del pts[lo + 1]
                    del pts[lo]
                changed = True
                break
    return pts


PRUNE_POINTS = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]


@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.sampled_from(PRUNE_POINTS[:k]), max_size=12)))
@settings(max_examples=500, deadline=None)
def test_prune_matches_the_rescanning_loop(pts):
    assert _prune(pts) == prune_reference(pts)


def _outcome(fn, *args):
    try:
        return fn(*args).points
    except ValueError as exc:
        return repr(exc)


def test_maximize_bolt_matches_the_two_pass_oracle():
    rng = np.random.default_rng(11)
    fs = [xy, lambda x, y: np.sin(3 * x) * np.cos(2 * y),
          lambda x, y: -xy(x, y)]
    compared = 0
    for trial in range(300):
        if trial % 3:
            a, b = np.sort(rng.uniform(0, 3, 3)), np.sort(rng.uniform(0, 3, 3))
        else:
            a, b = (0.0, 1.0, 2.0), (0.0, 1.0, 2.0)
        H = Hexagon(a, b)
        p = random_bolt(H, rng, max_pairs=2 + trial % 4)
        pts = list(p.points)
        if trial % 5 == 0:
            # snap coordinates onto the lattice: units that share both
            # coordinates, collapse or leave the hexagon
            pts = [(H.a[int(rng.integers(3))], y) if rng.random() < 0.5
                   else (x, H.b[int(rng.integers(3))]) for x, y in pts]
        f = fs[trial % len(fs)]
        for bolt in (pts, p):
            want = _outcome(maximize_bolt_oracle, f, H, bolt)
            assert _outcome(maximize_bolt, f, H, bolt) == want
            compared += 1
    assert compared == 600


class TestGolomb:
    def test_lower_bound_at_most_lp_value(self):
        xs = np.linspace(0, 1, 5)
        pts = [(x, y) for x in xs for y in xs]
        lp = grid_minimax_oracle(xy, [(1, 0), (0, 1)], np.array(pts))
        gl = golomb_lower_bound(xy, pts)
        assert gl <= lp + 1e-9
        assert gl > 0


def golomb_dfs_oracle(f, points, cap=10, budget=200_000):
    """The former golomb_lower_bound: the largest |l| over simple cycles
    of the fiber graph up to ``cap`` points, found by a DFS that stops
    after ``budget`` expansions."""
    pts = [(float(p[0]), float(p[1])) for p in
           (points.as_array() if hasattr(points, "as_array") else points)]
    xids, yids = {}, {}
    for (x, y) in pts:
        xids.setdefault(x, len(xids))
        yids.setdefault(y, len(yids))
    edges = [(("x", xids[x]), ("y", yids[y]), k) for k, (x, y) in enumerate(pts)]
    adj = {}
    for u, v, k in edges:
        adj.setdefault(u, []).append((v, k))
        adj.setdefault(v, []).append((u, k))

    best = 0.0
    steps = 0
    nodes = sorted(adj, key=lambda t: (t[0], t[1]))
    for start_idx, start in enumerate(nodes):
        # only cycles whose smallest node is `start` (dedupe)
        allowed = set(nodes[start_idx:])
        stack = [(start, None, [start], [])]
        while stack:
            steps += 1
            if steps > budget:
                break
            node, in_edge, path, used = stack.pop()
            for (nbr, edge) in adj[node]:
                if edge == in_edge or edge in used or nbr not in allowed:
                    continue
                if nbr == start and len(used) >= 3:
                    cycle_pts = [pts[e] for e in used + [edge]]
                    if len(cycle_pts) <= cap:
                        best = max(best, abs(l(f, cycle_pts)))
                    continue
                if nbr in path:
                    continue
                if len(used) + 1 >= cap:
                    continue
                stack.append((nbr, edge, path + [nbr], used + [edge]))
        if steps > budget:
            break
    return best


class TestGolombKernel:
    SIN = staticmethod(lambda x, y: np.sin(3 * x) * np.cos(2 * y))

    def test_never_below_the_cycle_search(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            pts = sorted({(float(rng.integers(5)), float(rng.integers(5)))
                          for _ in range(int(rng.integers(4, 20)))})
            f = (self.SIN, xy, lambda x, y: np.cos(x * y + x))[trial % 3]
            dfs = golomb_dfs_oracle(f, pts, budget=20_000)
            assert dfs <= golomb_lower_bound(f, pts) + 1e-12

    def test_equals_an_exhaustive_cycle_search(self):
        # every simple cycle of the 3x3 grid has at most 6 points
        pts = [(x, y) for x in range(3) for y in range(3)]
        assert golomb_lower_bound(self.SIN, pts) == pytest.approx(
            golomb_dfs_oracle(self.SIN, pts, cap=9), rel=1e-12)

    def test_grows_with_the_set_and_equals_the_lp(self):
        # the former cycle search ran out of budget on {0..5}^2 and gave
        # 0.3604, below its own 0.3922 on the {0..4}^2 subset
        small = [(x, y) for x in range(5) for y in range(5)]
        big = [(x, y) for x in range(6) for y in range(6)]
        g4 = golomb_lower_bound(self.SIN, small)
        g5 = golomb_lower_bound(self.SIN, big)
        assert g4 == pytest.approx(0.392199, abs=1e-6)
        assert g5 >= g4
        assert g5 == pytest.approx(0.545680, abs=1e-6)
        lp = grid_minimax_oracle(self.SIN, [(1, 0), (0, 1)], big)
        assert g5 == pytest.approx(lp, rel=1e-12)


# ---------------------------------------------------------------------------
# one array call per point set: the scalar code it replaced, bit for bit

def L_reference(f, rect):
    """The former L: one scalar call of f per corner."""
    a1, b1, a2, b2 = rect.bounds if isinstance(rect, AxisRect) else rect
    return 0.25 * (float(f(a1, a2)) + float(f(b1, b2))
                   - float(f(a1, b2)) - float(f(b1, a2)))


def l_reference(f, bolt):
    """The former l: one scalar call of f per point."""
    pts = bolt.points if isinstance(bolt, ClosedBolt) else list(bolt)
    total = 0.0
    for k, (x, y) in enumerate(pts):
        total += (1.0 if k % 2 == 0 else -1.0) * float(f(x, y))
    return total / len(pts)


def bisect_reference(g, lo, hi, target, iters=80):
    """The former _bisect_half_level: all 80 steps, always."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def monotone_on_grid_reference(f, rects):
    """The former _monotone_on_grid: one grid call per rectangle, and the
    corners by scalar calls."""
    worst = np.inf
    for R in rects:
        xs = np.linspace(R.a1, R.b1, 33)
        ys = np.linspace(R.a2, R.b2, 33)
        worst = min(worst, float(np.min(double_differences(f, xs, ys))))
    scale = max(abs(float(f(R.a1, R.a2))) + abs(float(f(R.b1, R.b2)))
                for R in rects)
    return worst >= -1e-10 * (1.0 + scale), worst


def class_function(c, g, k1, k2, al, be):
    """c x y + g exp(k1 x + k2 y) + al sin(x) + be y^2, with y^2 as y*y:
    numpy's array and scalar paths agree bit for bit on it.  A power would
    not: x ** k on a Python float calls the C library's pow, which differs
    from numpy's array power in the last bit on some arguments."""
    return lambda x, y: (c * x * y + g * np.exp(k1 * x + k2 * y)
                         + al * np.sin(x) + be * y * y)


coefficient = st.floats(-2, 2, allow_nan=False).map(lambda v: round(v, 3))
class_functions = st.builds(class_function, coefficient, coefficient,
                            coefficient, coefficient, coefficient,
                            coefficient)
# with a callable that returns a plain float for array input
fields = st.one_of(class_functions, coefficient.map(lambda v: lambda x, y: v))


@st.composite
def rectangles(draw):
    a1, b1 = sorted(draw(st.lists(st.floats(-3, 3), min_size=2, max_size=2,
                                  unique=True)))
    a2, b2 = sorted(draw(st.lists(st.floats(-3, 3), min_size=2, max_size=2,
                                  unique=True)))
    return AxisRect(a1, b1, a2, b2)


@st.composite
def bolts(draw):
    """A closed bolt (x_k, y_k), (x_k, y_{k+1}) of 2 to 6 point pairs."""
    n = draw(st.integers(2, 6))
    xs = draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n, unique=True))
    ys = draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n, unique=True))
    return ClosedBolt([p for k in range(n)
                       for p in ((xs[k], ys[k]), (xs[k], ys[(k + 1) % n]))])


@st.composite
def polygons(draw):
    shape = draw(st.sampled_from(["rect", "hexagon", "A", "B", "stairs"]))
    if shape == "rect":
        return draw(rectangles())
    nx = {"hexagon": 3, "A": 4, "B": 4}.get(shape) or draw(st.integers(2, 5))
    ny = nx if shape == "stairs" else 3
    a = sorted(draw(st.lists(st.floats(-3, 3), min_size=nx, max_size=nx,
                             unique=True)))
    b = sorted(draw(st.lists(st.floats(-3, 3), min_size=ny, max_size=ny,
                             unique=True)))
    if shape == "hexagon":
        return Hexagon(a, b)
    if shape == "stairs":
        return StairPolygon(a, b)
    return Octagon(a, b, shape)


class TestOneArrayCallPerPointSet:
    @given(fields, rectangles())
    @settings(max_examples=200, deadline=None)
    def test_L_is_the_scalar_L(self, f, R):
        assert L(f, R) == L_reference(f, R)
        assert L(f, R.bounds) == L_reference(f, R.bounds)

    @given(fields, bolts())
    @settings(max_examples=200, deadline=None)
    def test_l_is_the_scalar_l(self, f, bolt):
        assert l(f, bolt) == l_reference(f, bolt)
        assert l(f, bolt.points) == l_reference(f, bolt.points)

    @given(fields, st.lists(bolts(), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_bolts_of_different_lengths_in_one_call(self, f, bs):
        assert _bolt_functionals(f, bs) == [l_reference(f, p) for p in bs]

    @given(class_functions, polygons())
    @settings(max_examples=60, deadline=None)
    def test_polygon_error_is_the_scalar_one(self, f, P):
        rep = polygon_error(f, P)
        assert rep["values"] == [abs(l_reference(f, p)) for p in rep["bolts"]]
        ok, worst = monotone_on_grid_reference(f, P.rectangles())
        assert rep["fallback"] is not ok
        if not ok:
            assert rep["class_worst"] == worst
        if isinstance(P, Hexagon):
            bd = sharp_bounds(f, P)
            assert bd["l_f"] == rep["values"]
            assert bd["l_g"] == [abs(l_reference(xy, p)) for p in rep["bolts"]]

    @given(class_functions, st.lists(rectangles(), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_monotone_on_grid_is_the_per_rectangle_loop(self, f, rects):
        assert _monotone_on_grid(f, rects) == \
            monotone_on_grid_reference(f, rects)

    def test_monotone_on_grid_scales_by_the_corners(self):
        # -5xy has cell differences -5/32^2 on the unit square, within
        # 1e-10 * (1 + |f(0, 0)| + |f(1, 1)|) = 1e-2 here, but not within
        # the 1e-10 the corners (0, 0) and (1, 0) would give
        f = lambda x, y: -5.0 * x * y + 1e8 * y
        ok, worst = _monotone_on_grid(f, [AxisRect(0, 1, 0, 1)])
        assert ok and worst == pytest.approx(-5 / 32**2)

    @given(st.floats(-3, 3), st.floats(1e-300, 6), st.floats(-1, 1),
           st.sampled_from([lambda y: y, lambda y: y ** 3 - y,
                            lambda y: np.floor(4 * y), np.exp]))
    @settings(max_examples=300, deadline=None)
    def test_bisection_stops_where_80_steps_end(self, lo, width, t, g):
        hi = lo + width
        target = g(lo) + t * (g(hi) - g(lo)) if t >= 0 else g(lo) + t
        calls = []

        def counted(y):
            calls.append(y)
            return g(y)

        assert _bisect_half_level(counted, lo, hi, target) == \
            bisect_reference(g, lo, hi, target)
        assert len(calls) <= 80

    @given(class_functions, rectangles(), st.floats(0.05, 0.95),
           st.sampled_from("VU"))
    @settings(max_examples=100, deadline=None)
    def test_monotone_best_is_the_scalar_bisection(self, f, R, s, which):
        a1, b1, a2, b2 = R.bounds
        c = a1 + s * (b1 - a1)
        assert class_check(f, R, c, which)["tol"] == 1e-10 * (1.0 + max(
            abs(float(f(x, y))) for x in (a1, c, b1) for y in (a2, b2)))
        try:
            error, _, psi0, y0 = (vc_best if which == "V" else uc_best)(
                f, R, c)
        except ClassViolated:
            return
        xlo, xhi = (a1, c) if which == "V" else (c, b1)
        want = L_reference(f, (xlo, xhi, a2, b2))
        assert error == want
        assert y0 == bisect_reference(
            lambda y: L_reference(f, (xlo, xhi, a2, y)) if y > a2 else 0.0,
            a2, b2, 0.5 * want)
        const = float(f(xlo, y0)) + float(f(xhi, y0))
        assert psi0(b2) == 0.5 * (float(f(xlo, b2)) + float(f(xhi, b2))
                                  - const)

    @given(fields, st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
            lambda p: (p[0] / 4, p[1] / 3)), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_golomb_reads_the_scalar_values(self, f, pts):
        vals = [float(f(x, y)) for x, y in pts]
        arr = np.array(pts)
        assert golomb_lower_bound(f, pts) == \
            max_cycle_mean(arr[:, 0], arr[:, 1], vals)[0]
