"""Approximation of bivariate functions by sums u(x) + v(y) on axis-parallel
polygons: rectangle and bolt functionals, monotone-class error formulas with
extremal pairs, one e-bolt error formula for hexagons, octagons and stairlike
polygons, the bolt maximization process, e-bolts, sharp two-sided estimates,
and grid lower bounds.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import (UnivariateTable, centred_differences, double_differences,
                   max_cycle_mean)


class ClassViolated(ValueError):
    """The monotonicity-class hypothesis failed on the grid."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class AxisRect:
    def __init__(self, a1, b1, a2, b2):
        if not (a1 < b1 and a2 < b2):
            raise ValueError("need a1 < b1 and a2 < b2")
        self.a1, self.b1 = float(a1), float(b1)
        self.a2, self.b2 = float(a2), float(b2)

    @property
    def bounds(self):
        return (self.a1, self.b1, self.a2, self.b2)


class Hexagon:
    """L-shaped hexagon R1 ∪ R2 with R1 = [a1,a2] x [b1,b3] (tall-left) and
    R2 = [a1,a3] x [b1,b2] (wide-bottom)."""

    def __init__(self, a, b):
        a = tuple(map(float, a))
        b = tuple(map(float, b))
        if len(a) != 3 or len(b) != 3 or not (a[0] < a[1] < a[2]) \
                or not (b[0] < b[1] < b[2]):
            raise ValueError("need a1 < a2 < a3 and b1 < b2 < b3")
        self.a, self.b = a, b

    def contains(self, x, y):
        a, b = self.a, self.b
        in_r1 = (a[0] <= x <= a[1]) and (b[0] <= y <= b[2])
        in_r2 = (a[0] <= x <= a[2]) and (b[0] <= y <= b[1])
        return in_r1 or in_r2

    def rectangles(self):
        a, b = self.a, self.b
        return [AxisRect(a[0], a[1], b[0], b[2]),
                AxisRect(a[0], a[2], b[0], b[1])]


class Octagon:
    """Axis octagon, variant "A" (T-shape: three bottom cells plus a middle
    top cell) or "B" (U-bridge: full bottom row plus two top side cells)."""

    def __init__(self, a, b, variant):
        a = tuple(map(float, a))
        b = tuple(map(float, b))
        if len(a) != 4 or len(b) != 3 or not all(x < y for x, y in zip(a, a[1:])) \
                or not all(x < y for x, y in zip(b, b[1:])):
            raise ValueError("need a1<a2<a3<a4 and b1<b2<b3")
        if variant not in ("A", "B"):
            raise ValueError("variant must be 'A' or 'B'")
        self.a, self.b, self.variant = a, b, variant

    def rectangles(self):
        a, b = self.a, self.b
        if self.variant == "A":
            return [AxisRect(a[0], a[1], b[0], b[1]),
                    AxisRect(a[1], a[2], b[0], b[1]),
                    AxisRect(a[2], a[3], b[0], b[1]),
                    AxisRect(a[1], a[2], b[1], b[2])]
        return [AxisRect(a[0], a[3], b[0], b[1]),
                AxisRect(a[0], a[1], b[1], b[2]),
                AxisRect(a[2], a[3], b[1], b[2])]


class StairPolygon:
    """Staircase ∪_i [a_i, a_{i+1}] x [b_1, b_{N+1-i}]; heights decrease
    left to right."""

    def __init__(self, a, b):
        a = tuple(map(float, a))
        b = tuple(map(float, b))
        if len(a) != len(b) or len(a) < 2:
            raise ValueError("need equally many a's and b's, at least 2")
        if not all(x < y for x, y in zip(a, a[1:])) \
                or not all(x < y for x, y in zip(b, b[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        self.a, self.b = a, b
        self.N = len(a)

    def rectangles(self):
        a, b, N = self.a, self.b, self.N
        return [AxisRect(a[i], a[i + 1], b[0], b[N - 1 - i])
                for i in range(N - 1)]


class ClosedBolt:
    """Ordered points alternating vertical/horizontal moves, closing up."""

    def __init__(self, points):
        pts = [(float(x), float(y)) for x, y in points]
        if len(pts) < 4 or len(pts) % 2 != 0:
            raise ValueError("a closed bolt needs an even number >= 4 of points")
        for k in range(len(pts)):
            p, q = pts[k], pts[(k + 1) % len(pts)]
            if p == q:
                raise ValueError("consecutive bolt points must differ")
            same_x = p[0] == q[0]
            same_y = p[1] == q[1]
            if not (same_x or same_y):
                raise ValueError("consecutive bolt points must share a coordinate")
        # verify strict alternation around the loop
        moves = []
        for k in range(len(pts)):
            p, q = pts[k], pts[(k + 1) % len(pts)]
            moves.append("v" if p[0] == q[0] else "h")
        if any(moves[k] == moves[(k + 1) % len(moves)] for k in range(len(moves))):
            raise ValueError("bolt moves must alternate vertical/horizontal")
        self.points = pts

    def rotate(self, k=1):
        return ClosedBolt(self.points[k:] + self.points[:k])

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"ClosedBolt({self.points})"


def L(f, rect):
    """Quarter of the second-order double difference over the rectangle."""
    a1, b1, a2, b2 = rect.bounds if isinstance(rect, AxisRect) else rect
    return 0.25 * (float(f(a1, a2)) + float(f(b1, b2))
                   - float(f(a1, b2)) - float(f(b1, a2)))


def l(f, bolt):
    """Alternating average (1/2n) * sum (-1)^(k-1) f(p_k) over the bolt."""
    pts = bolt.points if isinstance(bolt, ClosedBolt) else list(bolt)
    total = 0.0
    for k, (x, y) in enumerate(pts):
        total += (1.0 if k % 2 == 0 else -1.0) * float(f(x, y))
    return total / len(pts)


# ---------------------------------------------------------------------------
# monotone classes on a rectangle split at x = c

def class_check(f, R, c, which, grid_n=33, tol=None):
    """Grid check of the V_c / U_c sign conditions on R split at x = c.

    V_c: cell differences >= 0 left of c, <= 0 right of c, and >= 0 on
    full-width horizontal strips.  U_c swaps the one-sided signs (strips
    stay >= 0).  Returns a verdict dict.
    """
    a1, b1, a2, b2 = R.bounds
    c = float(c)
    if which == "V" and not (a1 < c <= b1):
        raise ValueError("V-class needs c in (a1, b1]")
    if which == "U" and not (a1 <= c < b1):
        raise ValueError("U-class needs c in [a1, b1)")
    if which not in ("V", "U"):
        raise ValueError("which must be 'V' or 'U'")
    ys = np.linspace(a2, b2, grid_n)
    if tol is None:
        scale = max(abs(float(f(x, y)))
                    for x in (a1, c, b1) for y in (a2, b2))
        tol = 1e-10 * (1.0 + scale)

    # double differences are additive, so sub-rectangle signs reduce to
    # cell signs
    sign = 1.0 if which == "V" else -1.0
    failures = []
    for name, xs, s in [("left", np.linspace(a1, c, grid_n), sign),
                        ("right", np.linspace(c, b1, grid_n), -sign),
                        ("strips", np.array([a1, b1]), 1.0)]:
        if xs[0] < xs[-1]:
            worst = float(np.min(s * double_differences(f, xs, ys)))
            if worst < -tol:
                failures.append((name, worst))
    return {"passed": not failures, "failures": failures, "tol": tol,
            "which": which, "c": c}


def _bisect_half_level(g, lo, hi, target, iters=80):
    """Smallest y with g(y) >= target, assuming g monotone nondecreasing."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def vc_best(f, R, c, check=True, grid_n=33, table_n=257):
    """Error and extremal pair for the class with >= 0 differences left of c.

    error = L(f, [a1,c] x [a2,b2]); the split height y0 solves
    L(f, [a1,c] x [a2,y]) = error/2; the extremal pair is
    phi0(x) = f(x, y0), psi0(y) = (f(a1,y)+f(c,y)-f(a1,y0)-f(c,y0))/2.
    """
    return _monotone_best(f, R, c, "V", check, grid_n, table_n)


def uc_best(f, R, c, check=True, grid_n=33, table_n=257):
    """Mirror-image class: differences <= 0 left of c, >= 0 right;
    error = L(f, [c,b1] x [a2,b2]) with the analogous extremal pair."""
    return _monotone_best(f, R, c, "U", check, grid_n, table_n)


def _monotone_best(f, R, c, which, check, grid_n, table_n):
    if check:
        verdict = class_check(f, R, c, which, grid_n=grid_n)
        if not verdict["passed"]:
            raise ClassViolated(f"{which}-class check failed", verdict)
    a1, b1, a2, b2 = R.bounds
    c = float(c)
    if which == "V":
        xlo, xhi = a1, c
    else:
        xlo, xhi = c, b1
    error = L(f, (xlo, xhi, a2, b2))

    def accumulated(y):
        return L(f, (xlo, xhi, a2, y)) if y > a2 else 0.0

    y0 = _bisect_half_level(accumulated, a2, b2, 0.5 * error)

    const = float(f(xlo, y0)) + float(f(xhi, y0))

    def phi0(x):
        x = np.asarray(x, dtype=float)
        return f(x, np.full_like(x, y0)) if x.shape else float(f(x, y0))

    def psi0(y):
        y = np.asarray(y, dtype=float)
        xl = np.full_like(y, xlo) if y.shape else xlo
        xh = np.full_like(y, xhi) if y.shape else xhi
        return 0.5 * (np.asarray(f(xl, y), dtype=float)
                      + np.asarray(f(xh, y), dtype=float) - const)

    xs, ys = np.linspace(a1, b1, table_n), np.linspace(a2, b2, table_n)
    phi0.table = UnivariateTable(xs, phi0(xs))
    psi0.table = UnivariateTable(ys, psi0(ys))
    return error, phi0, psi0, y0


# ---------------------------------------------------------------------------
# hexagons, octagons, stairlike polygons

def _rect_bolt(x1, x2, y1, y2):
    return ClosedBolt([(x1, y1), (x1, y2), (x2, y2), (x2, y1)])


def _stair_bolt(acoords, bcoords):
    """Bolt of the staircase with column right-edges ``acoords[1:]`` and
    descending heights ``bcoords``; acoords[0] is the common left edge."""
    floor = bcoords[-1]
    heights = bcoords[:-1]
    pts = [(acoords[0], floor)]  # bottom-left corner
    for k, h in enumerate(heights):
        pts.append((pts[-1][0], h))
        pts.append((acoords[k + 1], h))
    pts.append((acoords[-1], floor))
    return ClosedBolt(pts)


def hexagon_ebolts(H):
    """The three bolts carrying the hexagon error: the full hexagon and the
    two maximal rectangles."""
    a, b = H.a, H.b
    hexbolt = ClosedBolt([(a[0], b[0]), (a[0], b[2]), (a[1], b[2]),
                          (a[1], b[1]), (a[2], b[1]), (a[2], b[0])])
    return [hexbolt] + [_rect_bolt(*R.bounds) for R in H.rectangles()]


def octagon_ebolts(Q):
    a, b = Q.a, Q.b
    if Q.variant == "A":
        q = ClosedBolt([(a[0], b[0]), (a[0], b[1]), (a[1], b[1]), (a[1], b[2]),
                        (a[2], b[2]), (a[2], b[1]), (a[3], b[1]), (a[3], b[0])])
        r123 = _rect_bolt(a[0], a[3], b[0], b[1])
        r124 = ClosedBolt([(a[0], b[0]), (a[0], b[1]), (a[1], b[1]),
                           (a[1], b[2]), (a[2], b[2]), (a[2], b[0])])
        r234 = ClosedBolt([(a[1], b[0]), (a[1], b[2]), (a[2], b[2]),
                           (a[2], b[1]), (a[3], b[1]), (a[3], b[0])])
        r24 = _rect_bolt(a[1], a[2], b[0], b[2])
        return [q, r123, r124, r234, r24]
    r = _rect_bolt(a[0], a[3], b[0], b[2])
    r12 = ClosedBolt([(a[0], b[0]), (a[0], b[2]), (a[1], b[2]),
                      (a[1], b[1]), (a[3], b[1]), (a[3], b[0])])
    r13 = ClosedBolt([(a[0], b[0]), (a[0], b[1]), (a[2], b[1]),
                      (a[2], b[2]), (a[3], b[2]), (a[3], b[0])])
    return [r, r12, r13]


def stairlike_ebolts(S):
    """Maximal bolts of a staircase: one per nonempty subset of steps."""
    if S.N > 8:
        raise ValueError("stairlike e-bolt enumeration capped at N <= 8")
    a, b = S.a, S.b
    N = S.N
    bolts = []
    for size in range(1, N):
        for subset in itertools.combinations(range(1, N), size):
            # steps i in subset: column out to a[i], height b[N - i]
            acoords = [a[0]] + [a[i] for i in subset]
            heights = [b[N - i] for i in subset]
            bolts.append(_stair_bolt(acoords, heights + [b[0]]))
    return bolts


def ebolts(P):
    """Extended bolts of the supported polygon shapes."""
    if isinstance(P, Hexagon):
        return hexagon_ebolts(P)
    if isinstance(P, Octagon):
        return octagon_ebolts(P)
    if isinstance(P, StairPolygon):
        return stairlike_ebolts(P)
    if isinstance(P, AxisRect):
        return [_rect_bolt(*P.bounds)]
    raise TypeError("unsupported polygon type")


def _monotone_on_grid(f, rects, grid_n=33, tol=None):
    """Grid certificate that all cell double differences are >= -tol on
    every constituent rectangle (membership in the monotone class)."""
    worst = np.inf
    for R in rects:
        xs = np.linspace(R.a1, R.b1, grid_n)
        ys = np.linspace(R.a2, R.b2, grid_n)
        worst = min(worst, float(np.min(double_differences(f, xs, ys))))
    if tol is None:
        scale = max(abs(float(f(R.a1, R.a2))) + abs(float(f(R.b1, R.b2)))
                    for R in rects)
        tol = 1e-10 * (1.0 + scale)
    return worst >= -tol, worst


def _grid_minimax(f, rects, grid_n):
    """Exact minimax error of f by sums u(x) + v(y) on the points in the
    union of ``rects`` of the grid_n x grid_n grid of their bounding box,
    and a critical cycle as a bolt (None when the error is 0)."""
    xs = np.linspace(min(R.a1 for R in rects), max(R.b1 for R in rects), grid_n)
    ys = np.linspace(min(R.a2 for R in rects), max(R.b2 for R in rects), grid_n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    inside = np.any([(R.a1 <= X) & (X <= R.b1) & (R.a2 <= Y) & (Y <= R.b2)
                     for R in rects], axis=0)
    rows, cols = np.nonzero(inside)
    err, cycle = max_cycle_mean(rows, cols, f(X[inside], Y[inside]))
    pts = [(xs[rows[k]], ys[cols[k]]) for k in cycle]
    return err, ClosedBolt(pts) if pts else None


def polygon_error(f, P, check=True, grid_n=33):
    """Error over a hexagon, octagon or staircase: max |l| over ``ebolts(P)``.

    The maximum is the error of the best u(x) + v(y) when f lies in the
    nonnegative-difference class on every rectangle of ``P.rectangles()``.
    With ``check`` that class is tested on a grid_n x grid_n grid of each
    rectangle.  When the test fails, ``error`` is the larger of two lower
    bounds of the true error: the e-bolt maximum and the exact minimax
    error on the points of a grid_n x grid_n grid that lie in P.  The
    result is then flagged ``fallback: True``, with the most negative cell
    difference as ``class_worst``; when the grid value is the larger, the
    extremal ``bolt`` is its critical cycle on the grid.

    Returns a dict: ``error``, the extremal ``bolt``, the evaluated
    ``bolts`` and their ``values`` in the same order, and ``fallback``.
    """
    bolts = ebolts(P)
    vals = [abs(l(f, p)) for p in bolts]
    best = int(np.argmax(vals))
    result = {"error": vals[best], "bolt": bolts[best], "bolts": bolts,
              "values": vals, "fallback": False}
    if check:
        rects = P.rectangles()
        ok, worst = _monotone_on_grid(f, rects, grid_n=grid_n)
        if not ok:
            result.update(fallback=True, class_worst=worst)
            err, bolt = _grid_minimax(f, rects, grid_n)
            if err > result["error"]:
                result["error"], result["bolt"] = err, bolt
    return result


hexagon_error = octagon_error = stairlike_error = polygon_error


# ---------------------------------------------------------------------------
# the maximization process over closed bolts of a hexagon

def _prune(points):
    """Remove pairs of coincident successive points (cyclically) until none
    remain; coincident pairs cancel in the alternating functional."""
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


def _reanchor(pts, axis, low, anchor):
    """Move every unit (two successive points sharing coordinate ``axis``)
    along ``axis``: to ``low`` when a + unit (even index) moves up or a -
    unit moves down in the other coordinate, else to ``anchor`` of the
    unit's upper end."""
    out = list(pts)
    n = len(pts)
    for k in range(n):
        j = (k + 1) % n
        if pts[k][axis] != pts[j][axis]:
            continue
        si, sj = pts[k][1 - axis], pts[j][1 - axis]
        positive = (k % 2 == 0)
        if (sj > si) if positive else (sj < si):
            v = low
        else:
            v = anchor(si if positive else sj)
        out[k], out[j] = ((v, si), (v, sj)) if axis == 0 else ((si, v), (sj, v))
    return _prune(out)


def maximize_bolt(f, H, p):
    """One pass of the vertical/horizontal re-anchoring process on a bolt
    of the hexagon.  For f in the nonnegative-difference class the
    functional l(f, .) never decreases; the output is supported on the
    lattice {a_i} x {b_j}.
    """
    a1, a2, a3 = H.a
    b1, b2, b3 = H.b
    pts = list(p.points if isinstance(p, ClosedBolt) else p)
    if l(f, pts) < 0:
        pts = pts[1:] + pts[:1]  # rotate so the functional starts >= 0
    # vertical units go to the tallest admissible column for their top;
    # then horizontal units, with x now in {a1, a2, a3}, to the highest
    # admissible row for their right end
    out = _reanchor(pts, 0, a1, lambda y: a2 if y > b2 else a3)
    if len(out) >= 4:
        out = _reanchor(out, 1, b1, lambda x: b2 if x == a3 else b3)
    if len(out) < 4:
        return ClosedBolt(p.points if isinstance(p, ClosedBolt) else p)
    return ClosedBolt(out)


def random_bolt(H, rng, max_pairs=4):
    """Random closed bolt inside the hexagon (rectangle unions of lattice
    cells are avoided: coordinates are drawn continuously)."""
    a1, a2, a3 = H.a
    b1, b2, b3 = H.b
    for _ in range(1000):
        npairs = int(rng.integers(2, max_pairs + 1))
        xs = rng.uniform(a1, a3, size=npairs)
        ys = rng.uniform(b1, b3, size=npairs)
        pts = []
        for k in range(npairs):
            pts.append((xs[k], ys[k]))
            pts.append((xs[k], ys[(k + 1) % npairs]))
        if len(set(pts)) != len(pts):
            continue
        if all(H.contains(x, y) for x, y in pts):
            try:
                return ClosedBolt(pts)
            except ValueError:
                continue
    raise RuntimeError("failed to sample a bolt")


# ---------------------------------------------------------------------------
# sharp two-sided estimates on a hexagon

def sharp_bounds(f, H, grid_n=65):
    """Two-sided bounds A <= E(f,H) <= B*C + 1.5*(B*|l(g,h)| - |l(f,h)|)
    with g = xy, B = max |d2f/dxdy| on a grid, and A, C the e-bolt maxima
    of f and g."""
    bolts = hexagon_ebolts(H)
    g = lambda x, y: np.asarray(x) * np.asarray(y)
    fvals = [abs(l(f, p)) for p in bolts]
    gvals = [abs(l(g, p)) for p in bolts]
    A = max(fvals)
    C = max(gvals)
    hex_l_f = abs(l(f, bolts[0]))
    hex_l_g = abs(l(g, bolts[0]))

    a1, a2, a3 = H.a
    b1, b2, b3 = H.b
    xs = np.linspace(a1, a3, grid_n)
    ys = np.linspace(b1, b3, grid_n)
    h = min(xs[1] - xs[0], ys[1] - ys[0]) / 4.0
    inside = np.array([[H.contains(x, y) for y in ys] for x in xs])
    mixed = centred_differences(f, xs, ys, h, h) / (4.0 * h * h)
    B = float(np.max(np.abs(np.where(inside, mixed, 0.0))))
    upper = B * C + 1.5 * (B * hex_l_g - hex_l_f)
    return {"lower": A, "upper": upper, "B": B, "C": C,
            "l_f": fvals, "l_g": gvals}


# ---------------------------------------------------------------------------
# Golomb-style lower bound on finite grids

def golomb_lower_bound(f, points, cap=10, budget=200_000):
    """Best lower bound from minimal projection cycles on a finite set.

    For coordinate projections in the plane, minimal projection cycles are
    the simple cycles of the fiber graph of ``core.max_cycle_mean``, and the
    largest normalized functional |l(f, cycle)| over them is its maximum
    cycle mean: the exact minimax error of f by sums u(x) + v(y) on the set.
    ``cap`` and ``budget`` are ignored; they stay for existing callers.
    """
    pts = np.array(points.as_array() if hasattr(points, "as_array")
                   else points, dtype=float).reshape(-1, 2)
    vals = [float(f(x, y)) for x, y in pts]
    return max_cycle_mean(pts[:, 0], pts[:, 1], vals)[0]
