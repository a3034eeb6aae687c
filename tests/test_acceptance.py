"""Acceptance gate: the eleven published-results criteria.

Each test prints exactly one ``[acceptance NN] PASS``/``FAIL`` line; a
FAIL line lists the violated sub-assertions.  Expected values are frozen
from the published worked examples and tables, except in three places
where exact arithmetic contradicts them.  Each of the three tests carries
its evidence as clauses of its own; CHANGES.md lists them.

- 02: the cubic sits at segment n = 115 (theta1 = -459), not the
  published 117 (-467).  The published c1, c2 are the closed forms at
  n = 117, but segment 117 carries t^5 - t^4 - 1, and the published
  network misses the target by 4.
- 03: of the published log10|theta1| values for the polynomial target,
  only the eps = 0.95 entry (theta1 = -1979) is exact; it is checked as
  a network of its own.  The other five entries are rounded too coarsely
  to name a segment and are kept for reference only.
- 06: the seven-point set is the published one with (0, 0, 1) replaced by
  (1/2, 0, 1); the published set carries a four-point cycle.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from ridgekit.bolts import (
    AxisRect,
    Hexagon,
    golomb_lower_bound,
    hexagon_error,
    l,
    maximize_bolt,
    random_bolt,
    uc_best,
    vc_best,
)
from ridgekit.core import grid_minimax_oracle, parse_expression
from ridgekit.cycles import cycle_functional, has_cycle, tau_closure
from ridgekit.l2 import best_l2, build_rset, l2_error
from ridgekit.sigmoid import (
    MonicPoly,
    SigmoidParams,
    calkin_wilf,
    eval_network,
    fit_two_neuron,
    monic_enum,
    monic_index,
    sigma,
)
from ridgekit.smooth import DecompProblem, decompose
from ridgekit.uniform import ParallelogramDomain, diliberto_straus


def finish(num, failures):
    verdict = "PASS" if not failures else "FAIL"
    detail = ("  (" + "; ".join(failures) + ")") if failures else ""
    print(f"\n[acceptance {num:02d}] {verdict}{detail}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


# the published activation table for d=2, lambda=1/4 (all 50 entries)
SIGMA_TABLE = {
    0.0: 0.37462, 0.4: 0.44248, 0.8: 0.53832, 1.2: 0.67932, 1.6: 0.87394,
    2.0: 0.95210, 2.4: 0.95210, 2.8: 0.95210, 3.2: 0.95210, 3.6: 0.95210,
    4.0: 0.95210, 4.4: 0.95146, 4.8: 0.95003, 5.2: 0.95003, 5.6: 0.94924,
    6.0: 0.94787, 6.4: 0.94891, 6.8: 0.95204, 7.2: 0.95725, 7.6: 0.96455,
    8.0: 0.97394, 8.4: 0.96359, 8.8: 0.96359, 9.2: 0.96314, 9.6: 0.95312,
    10.0: 0.95325, 10.4: 0.95792, 10.8: 0.96260, 11.2: 0.96727,
    11.6: 0.97195, 12.0: 0.97662, 12.4: 0.97848, 12.8: 0.97233,
    13.2: 0.97204, 13.6: 0.97061, 14.0: 0.96739, 14.4: 0.96565,
    14.8: 0.96478, 15.2: 0.96478, 15.6: 0.96565, 16.0: 0.96739,
    16.4: 0.96309, 16.8: 0.96309, 17.2: 0.96307, 17.6: 0.96067,
    18.0: 0.95879, 18.4: 0.95962, 18.8: 0.96209, 19.2: 0.96621,
    19.6: 0.97198,
}


def test_criterion_01_activation_table():
    failures = []
    p = SigmoidParams(2.0, 0.25)
    for t, want in SIGMA_TABLE.items():
        got = float(sigma(t, p))
        if abs(got - want) > 1e-4:
            failures.append(f"sigma({t})={got:.5f} want {want}")
    h6 = p.h(6.0)
    if abs(float(sigma(2.0, p)) - (1 + h6) / 2) > 1e-12:
        failures.append("closed form at 2.0")
    if abs(float(sigma(0.0, p))
           - (1 - math.exp(-0.5)) * (1 + h6) / 2) > 1e-12:
        failures.append("closed form at 0.0")
    finish(1, failures)


def cw_next(q):
    """Successor of q in the Calkin-Wilf sequence (Newman's recurrence)."""
    return 1 / (2 * (q.numerator // q.denominator) - q + 1)


def cw_position(q):
    """Index of q in the Calkin-Wilf sequence, by walking the recurrence
    from q_1 = 1 (independent of the library's binary-run codec)."""
    n, cur = 1, Fraction(1)
    while cur != q:
        n, cur = n + 1, cw_next(cur)
    return n


# the published worked example: n = 117, c1 = 2059.373597,
# c2 = -2120.974727 (theta1 = 1 - 4n = -467)
PUBLISHED_02 = (117, 2059.373597, -2120.974727)


def cubic_weights(n):
    """(c1, c2) for u = t^3 - t^2 - t + 1 on segment n, d = 2, lambda = 1/4.

    M_n = 1 - 1/(4(1 + ln(4n+1))); u has B1 = -1, B2 = 2, so
    b_n = (1 - M_n)/9 and a_n = (4 + 5 M_n)/9.  With p0 = 8,
    c1 = 8/b_n = 288(1 + ln(4n+1)) and
    c2 = -16 a_n/(b_n (1 + M_1)) = -(576(1 + ln(4n+1)) - 80)/(1 + M_1).
    """
    L = 1 + math.log(4 * n + 1)
    M1 = 1 - 1 / (4 * (1 + math.log(5)))
    return 288 * L, -(576 * L - 80) / (1 + M1)


def test_criterion_02_cubic_exact_representation():
    failures = []
    f = parse_expression("x1^3 + x1^2 - 5*x1 + 3", 1)
    # g(t) = f(2t - 1) = 8(t^3 - t^2 - t + 1).  The coefficients
    # (1, -1, -1) have signed-rational indices (2, 1, 1) (r_2 = q_1 = 1,
    # r_1 = -q_1), which encode to [2; 1+1, 1+2] = [2; 2, 3] = 17/7.
    cubic = MonicPoly([1, -1, -1])
    q = 2 + 1 / (2 + Fraction(1, 3))
    n = cw_position(q)
    if (q, n) != (Fraction(17, 7), 115):
        failures.append(f"cubic encodes to {q} at n={n}, want 17/7 at 115")
    if monic_enum(n) != cubic:
        failures.append(f"u_{n}={monic_enum(n)} is not the cubic")
    c1, c2 = cubic_weights(n)

    net, achieved = fit_two_neuron(f, -1.0, 1.0, 1e-9)
    if net.theta1_exact != 1 - 4 * n:
        failures.append(f"theta1={net.theta1_exact} want {1 - 4 * n}")
    if net.theta2 != -3:
        failures.append(f"theta2={net.theta2} want -3")
    if net.n != n:
        failures.append(f"n={net.n} want {n}")
    if not math.isclose(net.c1, c1, rel_tol=1e-9):
        failures.append(f"c1={net.c1:.6f} want {c1:.6f}")
    if not math.isclose(net.c2, c2, rel_tol=1e-9):
        failures.append(f"c2={net.c2:.6f} want {c2:.6f}")
    xs = np.linspace(-1.0, 1.0, 1001)
    fv = np.array([float(f(x)) for x in xs])
    err = max(abs(fv[i] - eval_network(net, x)) for i, x in enumerate(xs))
    if err > 1e-8:
        failures.append(f"grid error {err:.3e} > 1e-8")

    # the published row is the cubic's closed form with n off by two; the
    # segment it names carries a quintic (q_117 = 18/11 = [1; 1, 1, 1, 3])
    # and its network, run through sigma, misses f badly
    n_pub, c1_pub, c2_pub = PUBLISHED_02
    c1_117, c2_117 = cubic_weights(n_pub)
    if abs(c1_117 - c1_pub) > 1e-6 or abs(c2_117 - c2_pub) > 1e-6:
        failures.append(f"closed form at {n_pub}: {c1_117}, {c2_117}")
    if monic_enum(n_pub) != MonicPoly([-1, 0, 0, 0, -1]):
        failures.append(f"u_{n_pub}={monic_enum(n_pub)} want t^5-t^4-1")
    p = SigmoidParams(2.0, 0.25)
    pub = c1_pub * sigma(xs - (1 - 4 * n_pub), p) + c2_pub * sigma(xs + 3, p)
    miss = float(np.max(np.abs(pub - fv)))
    if miss <= 1.0:
        failures.append(f"published network misses f by only {miss:.3g}")
    finish(2, failures)


# published log10|theta1| per tolerance, polynomial target.  Only the
# eps = 0.95 entry is exact (theta1 = -1979); the test checks it as a
# network of its own.  The other five are rounded to three decimals, which
# pins theta1 only to a window 0.23% wide: at least 1.8e4 candidate
# segments, so no polynomial to check.  They are also not monotone in eps (7.51 at 0.10
# but 22.60 at 0.35): they record the source's own choice of approximating
# polynomial, a rule not stated in the text at hand, whereas fit_two_neuron
# promises only the accuracy eps and takes theta1 from its own choice.
POLY_LOG_THETA1 = {0.95: math.log10(1979), 0.60: 8.154, 0.35: 22.604,
                   0.10: 7.512, 0.04: 65.310, 0.01: 442.239}


def log10_int(m):
    """log10 of a positive int of any size, from its decimal digits."""
    s = str(m)
    k = min(len(s), 17)
    return len(s) - k + math.log10(int(s[:k]))


def test_criterion_03_fit_tables():
    failures = []
    targets = [
        ("poly", "1 + x1 + x1^2/2 + x1^3/6 + x1^4/24 + x1^5/120 + x1^6/720"),
        ("rational", "4*x1/(4+x1^2)"),
        ("trig", "sin(x1) - x1*cos(x1+1)"),
    ]
    grid = np.linspace(-1.0, 1.0, 1001)
    for name, expr in targets:
        f = parse_expression(expr, 1)
        fv = np.array([float(f(x)) for x in grid])
        for eps in (0.95, 0.60, 0.35, 0.10, 0.04, 0.01):
            net, achieved = fit_two_neuron(f, -1.0, 1.0, eps)
            err = max(abs(fv[i] - eval_network(net, x))
                      for i, x in enumerate(grid))
            if err > eps:
                failures.append(f"{name} eps={eps}: error {err:.3g}")
            if net.theta2 != -3:
                failures.append(f"{name} eps={eps}: theta2={net.theta2}")
            if name == "poly":
                if monic_enum(net.n) != net.poly:
                    failures.append(f"poly eps={eps}: u_n != fitted poly")
                if net.theta1_exact != 1 - 4 * net.n:
                    failures.append(f"poly eps={eps}: theta1 != 1-4n")
                got = net.theta1_log10()
                want = log10_int(4 * net.n - 1)
                if abs(got - want) > 1e-9:
                    failures.append(
                        f"poly eps={eps}: log10|theta1|={got!r} "
                        f"want {want!r}")

    # the exact published entry: theta1 = -1979 = 1 - 4n names n = 495,
    # whose segment carries t^3 + t^2 + 1/2 (q_495 = 24/5 = [4; 1, 4]);
    # with c1 scaling and c2 shifting it, it is a valid eps = 0.95 network
    f = parse_expression(targets[0][1], 1)
    fv = np.array([float(f(x)) for x in grid])
    theta1 = -round(10 ** POLY_LOG_THETA1[0.95])
    n, rem = divmod(1 - theta1, 4)
    if rem or n != 495:
        failures.append(f"published theta1={theta1} names no segment 495")
    if monic_enum(n) != MonicPoly([Fraction(1, 2), 0, 1]):
        failures.append(f"u_{n}={monic_enum(n)} want t^3+t^2+1/2")
    p = SigmoidParams(2.0, 0.25)
    cols = np.column_stack([sigma(grid - theta1, p), sigma(grid + 3, p)])
    c, *_ = np.linalg.lstsq(cols, fv, rcond=None)
    err = float(np.max(np.abs(cols @ c - fv)))
    if err > 0.95:
        failures.append(f"published eps=0.95 network: error {err:.3g}")
    finish(3, failures)


def test_criterion_04_l2_worked_example():
    failures = []
    dirs = [(1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1)]
    completion = [(-1, 1, 1, 1)]
    ybox = [(0.0, 1.0)] * 4
    t = build_rset(dirs, completion, ybox)

    def f(x1, x2, x3, x4):
        xs = [np.asarray(v, dtype=float) for v in (x1, x2, x3, x4)]
        quartic = sum(v ** 4 for v in xs)
        cross = sum(xs[i] ** 2 * xs[j] ** 2
                    for i in range(3) for j in range(i + 1, 4))
        return 8 * xs[0] * xs[1] * xs[2] * xs[3] - quartic + 2 * cross

    err = l2_error(f, t, nodes=24)
    want = math.sqrt(94) / 576
    if abs(err - want) > 1e-6:
        failures.append(f"error {err:.8f} want {want:.8f}")
    sol = best_l2(f, t, nodes=24)
    d = sol.diagnostics
    if abs(d["A"] - 1 / 16) > 1e-9:
        failures.append(f"A={d['A']}")
    fstar_sq = d["fstar_norm_sq"]
    if abs(fstar_sq - 1 / 81) > 1e-9:
        failures.append(f"fstar_norm_sq={fstar_sq}")
    for v in d["fi_norm_sq"]:
        if abs(v - 1 / 192) > 1e-9:
            failures.append(f"fi_norm_sq={v}")
    # best approximant is (1/8) sum_i a^i . x  -  1/8
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        y = rng.uniform(0.0, 1.0, size=4)
        x = t.x_from_y(*y)
        got = float(sol(*x))
        want_val = sum(y[:3]) / 8 - 1 / 8
        worst = max(worst, abs(got - want_val))
    if worst > 1e-6:
        failures.append(f"approximant deviates {worst:.2e}")
    finish(4, failures)


def test_criterion_05_rectangle_class_examples():
    failures = []
    R = AxisRect(0.0, 1.0, 0.0, 1.0)
    fsin = lambda x, y: np.asarray(y) * np.sin(np.pi * np.asarray(x))
    err, phi0, psi0, y0 = vc_best(fsin, R, c=0.5)
    if abs(err - 0.25) > 1e-9:
        failures.append(f"vc error {err}")
    xs = np.linspace(0.0, 1.0, 101)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    want = 0.5 * np.sin(np.pi * X) + 0.5 * Y - 0.25
    got = phi0(X) + psi0(Y)
    if float(np.max(np.abs(got - want))) > 1e-9:
        failures.append("vc extremal pair mismatch")
    resid = float(np.max(np.abs(fsin(X, Y) - got)))
    if abs(resid - 0.25) > 1e-9:
        failures.append(f"vc residual {resid}")

    fsq = lambda x, y: (np.asarray(x) - 0.5) ** 2 * np.asarray(y)
    err_u, *_ = uc_best(fsq, R, c=0.5)
    if abs(err_u - 1 / 16) > 1e-9:
        failures.append(f"uc error {err_u}")

    # -(x-2)^(2n) y^m with n=m=1 on [0,4]x[0,2], split at 2: error 2^(2(n-1)+m)
    fex = lambda x, y: -((np.asarray(x) - 2.0) ** 2) * np.asarray(y)
    err3, *_ = vc_best(fex, AxisRect(0.0, 4.0, 0.0, 2.0), c=2.0)
    if abs(err3 - 2.0) > 1e-9:
        failures.append(f"split example error {err3}")

    for fn, want_e in ((fsin, 0.25), (fsq, 1 / 16)):
        g = np.linspace(0.0, 1.0, 21)
        pts = np.array([(a, b) for a in g for b in g])
        lp = grid_minimax_oracle(fn, [(1, 0), (0, 1)], pts)
        if abs(lp - want_e) > 5e-3:
            failures.append(f"grid LP {lp} vs {want_e}")
    finish(5, failures)


def incidence_matrix(points, directions):
    """0/1 fiber incidence matrix: one row per fiber of each direction."""
    rows = []
    for a in directions:
        fibers = {}
        for j, x in enumerate(points):
            fibers.setdefault(sum(ai * xi for ai, xi in zip(a, x)),
                              []).append(j)
        rows += [[int(j in m) for j in range(len(points))]
                 for m in fibers.values()]
    return sympy.Matrix(rows)


def test_criterion_06_cycle_certificates():
    failures = []
    E3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    l5 = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    found, cert = has_cycle(l5, E3)
    if not found or [abs(w) for w in cert.weights] != [2, 1, 1, 1, 1]:
        failures.append(f"five-point weights {cert and cert.weights}")
    l6 = l5 + [(0, 1, 1)]
    found, cert = has_cycle(l6, E3)
    if not found or cert.weights != [3, -1, -1, -2, 2, -1]:
        failures.append(f"six-point weights {cert and cert.weights}")

    # tau fixes every point, yet no cycle exists: every fiber holds >= 2
    # points and the fiber incidence matrix has full column rank 7
    h = Fraction(1, 2)
    X7 = [(0, 0, h), (h, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0),
          (h, h, 0), (h, h, h)]
    inc = incidence_matrix(X7, E3)
    if min(sum(inc.row(i)) for i in range(inc.rows)) < 2:
        failures.append("seven-point set has a singleton fiber")
    if inc.rank() != 7:
        failures.append(f"seven-point incidence rank {inc.rank()} want 7")
    _, fixed = tau_closure(X7, E3)
    if fixed != list(range(7)):
        failures.append(f"tau fixed point {fixed}")
    found, cert = has_cycle(X7, E3)
    if found:
        failures.append(
            f"seven-point set has a cycle: support {cert.support} "
            f"weights {cert.weights} (expected cycle-free)")

    # the published set has (0, 0, 1) in place of (1/2, 0, 1): its points
    # 1-4 carry a cycle, and rank 6 makes it the only one up to scale
    X7_pub = [X7[0], (0, 0, 1)] + X7[2:]
    inc = incidence_matrix(X7_pub, E3)
    w = sympy.Matrix([0, 1, -1, -1, 1, 0, 0])
    if inc.rank() != 6 or any(inc * w):
        failures.append(f"published seven-point rank {inc.rank()}")
    found, cert = has_cycle(X7_pub, E3)
    if not found or (cert.support, cert.weights) != ([1, 2, 3, 4],
                                                     [1, -1, -1, 1]):
        failures.append(f"published seven-point certificate {cert}")
    finish(6, failures)


def test_criterion_07_annihilation():
    failures = []
    rng = random.Random(20240817)
    X, Y = (1, 0), (0, 1)
    for trial in range(100):
        dx, dy = rng.randint(1, 3), rng.randint(1, 3)
        xs = [Fraction(v, dx) for v in rng.sample(range(-9, 10),
                                                  rng.randint(2, 4))]
        ys = [Fraction(v, dy) for v in rng.sample(range(-9, 10),
                                                  rng.randint(2, 4))]
        pts = [(x, y) for x in xs for y in ys]
        found, cert = has_cycle(pts, [X, Y])
        if not found:
            failures.append(f"trial {trial}: no cycle on a product grid")
            continue
        c1, c2, c3 = (rng.uniform(-2, 2) for _ in range(3))
        g = lambda x, y: (c1 * np.sin(c2 * np.asarray(x, dtype=float))
                          + c3 * np.asarray(y, dtype=float) ** 2
                          + np.asarray(x, dtype=float))
        val = cycle_functional(cert, g, pts)
        if abs(val) > 1e-12:
            failures.append(f"trial {trial}: |G_p(g)|={abs(val):.2e}")
    finish(7, failures)


def test_criterion_08_alternating_sweeps():
    failures = []
    dom = ParallelogramDomain((1, 0), (0, 1), 0.0, 1.0, 0.0, 1.0)
    xy = lambda x, y: np.asarray(x) * np.asarray(y)
    norms, _ = diliberto_straus(xy, dom, iters=100)
    arr = np.asarray(norms)
    if not np.all(np.diff(arr) <= 1e-12):
        failures.append("norms not nonincreasing")
    if abs(arr[100] - 0.25) > 1e-3:
        failures.append(f"norm after 100 sweeps {arr[100]:.5f}")
    ridge = lambda x, y: np.sin(np.asarray(x)) + np.exp(np.asarray(y))
    norms2, _ = diliberto_straus(ridge, dom, iters=2)
    if norms2[2] > 1e-12:
        failures.append(f"ridge input norm {norms2[2]:.2e}")
    finish(8, failures)


def test_criterion_09_hexagon_duality_sandwich():
    failures = []
    H = Hexagon((0, 1, 2), (0, 1, 2))
    xy = lambda x, y: np.asarray(x) * np.asarray(y)
    rep = hexagon_error(xy, H)
    if abs(rep["error"] - 0.5) > 1e-9:
        failures.append(f"hexagon error {rep['error']}")
    pts = [(x, y) for x in np.linspace(0, 2, 9)
           for y in np.linspace(0, 2, 9) if H.contains(x, y)]
    lp = grid_minimax_oracle(xy, [(1, 0), (0, 1)], np.array(pts))
    if abs(lp - rep["error"]) > 5e-3:
        failures.append(f"grid LP {lp}")
    gl = golomb_lower_bound(xy, pts)
    if gl > lp + 1e-9:
        failures.append(f"golomb bound {gl} above LP {lp}")

    rng = np.random.default_rng(11)
    # five random members of the monotone class: nonnegative mixed terms
    members = []
    for _ in range(5):
        a, b, c = rng.uniform(0.1, 1.0, size=3)
        members.append(lambda x, y, a=a, b=b, c=c:
                       a * np.asarray(x) * np.asarray(y)
                       + b * np.exp(0.3 * np.asarray(x))
                       * np.exp(0.2 * np.asarray(y))
                       + c * np.asarray(x))
    for fi, fm in enumerate(members):
        for trial in range(50):
            p = random_bolt(H, rng)
            before = l(fm, p)
            after = l(fm, maximize_bolt(fm, H, p))
            if after < before - 1e-12:
                failures.append(f"f{fi} trial {trial}: "
                                f"{after:.6f} < {before:.6f}")
    finish(9, failures)


def test_criterion_10_smooth_reconstruction():
    failures = []
    box = ((-1.0, 1.0), (-1.0, 1.0))
    rng = np.random.default_rng(5)
    shapes = [np.sin, np.cos, lambda t: t ** 3,
              lambda t: np.exp(0.5 * t), lambda t: t ** 2]
    for case in range(10):
        dirs = [(1.0, 0.0), (0.0, 1.0),
                (1.0, float(rng.uniform(0.5, 1.5)))]
        gs = [shapes[rng.integers(len(shapes))] for _ in range(3)]
        scales = rng.uniform(0.5, 1.5, size=3)

        def f(x, y, dirs=dirs, gs=gs, scales=scales):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            return sum(s * g(a * x + b * y)
                       for s, g, (a, b) in zip(scales, gs, dirs))

        problem = DecompProblem(f, dirs, box)
        result = decompose(problem, fd_step=1e-3)
        if result.residual > 1e-6:
            failures.append(f"case {case}: residual {result.residual:.2e}")
        if case == 0:
            r2 = decompose(problem, fd_step=1e-3, anchor=0.25)
            ts = np.linspace(-0.8, 0.8, 33)
            for gi, (g0, g1) in enumerate(zip(result.components,
                                              r2.components)):
                diff = np.asarray(g0(ts)) - np.asarray(g1(ts))
                coef = np.polyfit(ts, diff, 1)
                dev = float(np.max(np.abs(diff - np.polyval(coef, ts))))
                if dev > 1e-6:
                    failures.append(f"anchor shift term {gi}: {dev:.2e}")
    finish(10, failures)


def test_criterion_11_enumeration_bijection():
    failures = []
    # oracle: the iterated next-rational recurrence
    q = Fraction(1)
    for n in range(1, 3000):
        if calkin_wilf(n) != q:
            failures.append(f"enumeration disagrees with oracle at {n}")
            break
        q = cw_next(q)
    for n in range(1, 100001):
        if monic_index(monic_enum(n)) != n:
            failures.append(f"round trip fails at {n}")
            break
    finish(11, failures)
