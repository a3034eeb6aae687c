"""Output checks computed independently of ridgekit.

Every check recomputes a required property of an answer with the
benchmark's own code (exact Fraction fiber sums and ranks, its own
Calkin-Wilf decoder, its own quadrature and bounds) instead of comparing
against a stored copy of an earlier output.  Each check returns a list of
problems; an empty list means the output passed.
"""

import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# expressions: the benchmark writes every target in ridgekit's grammar and
# evaluates it with numpy itself

_NP_NAMES = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
             "abs": np.abs, "sqrt": np.sqrt, "pi": math.pi, "e": math.e}


def np_function(expr, dim):
    """numpy evaluator of an expression written in ridgekit's grammar."""
    code = compile(expr.replace("^", "**"), "<target>", "eval")
    names = [f"x{i + 1}" for i in range(dim)]

    def fn(*xs):
        env = dict(_NP_NAMES)
        env.update(zip(names, (np.asarray(x, dtype=float) for x in xs)))
        return np.asarray(eval(code, {"__builtins__": {}}, env), dtype=float)

    return fn


def frac_str(v):
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# exact linear algebra over Q

def dot(a, p):
    return sum(Fraction(x) * Fraction(y) for x, y in zip(a, p))


def fibers(points, direction):
    """value -> list of point indices, grouped exactly."""
    out = {}
    for j, p in enumerate(points):
        out.setdefault(dot(direction, p), []).append(j)
    return out


def incidence_rank(points, directions, subset=None):
    """Exact rank of the 0/1 fiber incidence matrix (fraction-free
    integer elimination, rows reduced by their gcd)."""
    idx = list(range(len(points))) if subset is None else list(subset)
    rows = []
    for a in directions:
        groups = {}
        for col, j in enumerate(idx):
            groups.setdefault(dot(a, points[j]), []).append(col)
        for members in groups.values():
            row = [0] * len(idx)
            for col in members:
                row[col] = 1
            rows.append(row)
    rank = 0
    ncols = len(idx)
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                new = [x * p[col] - f * y for x, y in zip(rows[r], p)]
                g = 0
                for x in new:
                    g = math.gcd(g, x)
                rows[r] = [x // g for x in new] if g > 1 else new
        rank += 1
    return rank


def nullity(points, directions, subset=None):
    n = len(points) if subset is None else len(subset)
    return n - incidence_rank(points, directions, subset)


def annihilates(points, directions, support, weights):
    """Problems with a signed weighting that must sum to zero on every
    fiber of every direction."""
    probs = []
    if len(support) != len(weights) or not support:
        return ["support and weights differ in length or are empty"]
    if len(set(support)) != len(support):
        return ["support repeats a point"]
    if any(not (0 <= j < len(points)) for j in support):
        return ["support index out of range"]
    if any(int(w) != w or w == 0 for w in weights):
        return ["weights must be nonzero integers"]
    for a in directions:
        sums = {}
        for j, w in zip(support, weights):
            key = dot(a, points[j])
            sums[key] = sums.get(key, 0) + w
        bad = [k for k, s in sums.items() if s != 0]
        if bad:
            probs.append(f"weights sum to {sums[bad[0]]} on fiber {bad[0]} of {a}")
    return probs


def check_cycles_report(rep, points, directions, opts, fvalues=None):
    """Check a `cycles check` report against exact recomputation."""
    probs = []
    res = rep.get("results")
    if res is None:
        return ["no results in report"]
    rank = incidence_rank(points, directions)
    has = rank < len(points)
    if res.get("has_cycle") is not has:
        probs.append(f"has_cycle={res.get('has_cycle')} but exact rank "
                     f"{rank} of {len(points)} columns")
    certs = res.get("certificates", [])
    if has and not certs and not opts.get("minimal"):
        probs.append("cycle reported without a certificate")
    for c in certs:
        probs += annihilates(points, directions, c["support"], c["weights"])
    if opts.get("minimal"):
        supports = [set(c["support"]) for c in certs]
        for i, s in enumerate(supports):
            if any(i != k and t < s for k, t in enumerate(supports)):
                probs.append(f"support {sorted(s)} contains another found support")
            if nullity(points, directions, sorted(s)) != 1:
                probs.append(f"support {sorted(s)} is not a minimal cycle support")
        cap = opts.get("cap", 10)
        if has and cap >= len(points) and not certs:
            probs.append("full enumeration found no minimal cycle")
    if opts.get("tau"):
        trace = res.get("tau_trace", [])
        fixed = res.get("tau_fixed_point")
        if not trace or trace[0] != list(range(len(points))):
            probs.append("tau trace does not start at the full set")
        if fixed is None or (trace and trace[-1] != fixed):
            probs.append("tau trace does not end at the fixed point")
        fixed_set = set(fixed or [])
        for a in directions:
            for members in fibers([points[j] for j in sorted(fixed_set)], a).values():
                if len(members) < 2:
                    probs.append(f"tau fixed point has a lone point on a fiber of {a}")
                    break
        for c in certs:
            if not set(c["support"]) <= fixed_set:
                probs.append("a cycle support is not inside the tau fixed point")
        if not fixed_set and has:
            probs.append("empty tau fixed point on a set with a cycle")
        if len(directions) == 2:
            probs += _check_orbits(res.get("orbits"), points, directions)
            probs += _check_closed_path(res.get("closed_path"), points,
                                        directions, has)
    if fvalues is not None:
        probs += _check_representation(res.get("representation"), points,
                                       directions, fvalues)
    return probs


def _check_orbits(orbs, points, directions):
    if orbs is None:
        return ["no orbits reported"]
    flat = sorted(j for o in orbs for j in o)
    if flat != list(range(len(points))):
        return ["orbits do not partition the point set"]
    parent = list(range(len(points)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a in directions:
        for members in fibers(points, a).values():
            for j in members[1:]:
                ra, rb = find(members[0]), find(j)
                if ra != rb:
                    parent[rb] = ra
    want = sorted(sorted(j for j in range(len(points)) if find(j) == r)
                  for r in {find(j) for j in range(len(points))})
    if sorted(sorted(o) for o in orbs) != want:
        return ["orbits differ from the connected fiber classes"]
    return []


def _check_closed_path(path, points, directions, has):
    if path is None:
        return ["no closed path on a set with a cycle"] if has else []
    if not has:
        return ["closed path reported on a cycle-free set"]
    n = len(path)
    if n < 2 or n % 2 or len(set(path)) != n:
        return [f"closed path of {n} points is not an even cycle of distinct points"]
    a1, a2 = directions
    for start in (0, 1):
        ok = True
        for k in range(n):
            p, q = points[path[k]], points[path[(k + 1) % n]]
            a = a1 if (k + start) % 2 == 0 else a2
            if dot(a, p) != dot(a, q):
                ok = False
                break
        if ok:
            return []
    return ["closed path does not alternate between the two directions' fibers"]


def _check_representation(rep, points, directions, fvalues):
    if rep is None:
        return ["no representation reported"]
    tables = rep.get("tables", [])
    if len(tables) != len(directions):
        return ["one table per direction expected"]
    for j, p in enumerate(points):
        total = Fraction(0)
        for a, tab in zip(directions, tables):
            key = frac_str(dot(a, p))
            if key not in tab:
                return [f"table misses fiber value {key}"]
            total += Fraction(tab[key])
        if total != Fraction(fvalues[j]):
            return [f"representation gives {total} at point {j}, want {fvalues[j]}"]
    return []


# ---------------------------------------------------------------------------
# the Calkin-Wilf codec, written from the binary runs of n

def binary_runs(n):
    """Run lengths of n's binary digits from the least significant end,
    starting with the (possibly empty) run of ones."""
    terms = [] if n & 1 else [0]
    while n:
        if n & 1:
            k = (n ^ (n + 1)).bit_length() - 1
        else:
            k = (n & -n).bit_length() - 1
        terms.append(k)
        n >>= k
    return terms


def canonical_cf(n):
    """Canonical continued fraction of the n-th Calkin-Wilf rational."""
    terms = binary_runs(n)
    if len(terms) > 1 and terms[-1] == 1:
        terms.pop()
        terms[-1] += 1
    return terms


def cf_value(terms):
    num, den = terms[-1], 1
    for t in reversed(terms[:-1]):
        num, den = t * num + den, num
    return Fraction(num, den)


def signed_rational(k):
    """r_0 = 0, r_{2m} = q_m, r_{2m-1} = -q_m."""
    if k == 0:
        return Fraction(0)
    if k % 2 == 0:
        return cf_value(canonical_cf(k // 2))
    return -cf_value(canonical_cf((k + 1) // 2))


def monic_decode(n):
    """Coefficients a_0..a_{l-1} of the n-th monic rational polynomial."""
    if n == 1:
        return ()
    c = canonical_cf(n)
    if len(c) == 1:
        ks = [c[0] - 2]
    elif len(c) == 2:
        ks = [c[0], c[1] - 2]
    else:
        ks = [c[0]] + [t - 1 for t in c[1:-1]] + [c[-1] - 2]
    return tuple(signed_rational(k) for k in ks)


def cf_terms(q):
    q = abs(Fraction(q))
    terms = []
    num, den = q.numerator, q.denominator
    while den:
        terms.append(num // den)
        num, den = den, num % den
    if len(terms) > 1 and terms[-1] == 1:
        terms.pop()
        terms[-1] += 1
    return terms


def cf_bits(q):
    """Continued-fraction term sum of |q|: the bit length of its
    Calkin-Wilf index (0 for 0)."""
    return sum(cf_terms(q)) if q else 0


def cw_position(q):
    """Index of q > 0 in the Calkin-Wilf sequence: the canonical continued
    fraction, with an odd number of terms, read as binary runs."""
    terms = cf_terms(q)
    if len(terms) % 2 == 0:
        terms[-1] -= 1
        terms.append(1)
    n = 0
    ones = True
    for t in reversed(terms):
        n <<= t
        if ones:
            n |= (1 << t) - 1
        ones = not ones
    return n


def signed_position(r):
    r = Fraction(r)
    if r == 0:
        return 0
    m = cw_position(abs(r))
    return 2 * m if r > 0 else 2 * m - 1


def monic_position(coeffs):
    """Index of the monic polynomial with coefficients a_0..a_{l-1}."""
    ks = [signed_position(c) for c in coeffs]
    if not ks:
        return 1
    if len(ks) == 1:
        return cw_position(Fraction(ks[0] + 2))
    if len(ks) == 2:
        terms = [ks[0], ks[1] + 2]
    else:
        terms = [ks[0]] + [k + 1 for k in ks[1:-1]] + [ks[-1] + 2]
    return cw_position(cf_value(terms))


# ---------------------------------------------------------------------------
# the sigmoid, recomputed

def ln_int(n):
    if n.bit_length() <= 52:
        return math.log(n)
    shift = n.bit_length() - 53
    return math.log(n >> shift) + shift * math.log(2.0)


def strip_m(n, d, lam):
    """M_n = h((2n+1)d) = 1 - lam_eff / (1 + ln(2nd + 1))."""
    lam_eff = min(0.5, lam)
    if n.bit_length() > 50:
        ln = ln_int(n) + math.log(2.0 * d)
    else:
        ln = math.log(2.0 * n * d + 1.0)
    return 1.0 - lam_eff / (1.0 + ln)


def segment_placement(n, coeffs, d, lam):
    """(a_n, b_n) placing u_n in the strip [(1+2M)/3, (2+M)/3]."""
    M = strip_m(n, d, lam)
    if n == 1:
        return 0.5, M / 2.0
    al = [float(c) for c in coeffs]
    lo = al[0] + sum(min(a, 0.0) for a in al[1:])
    hi = al[0] + sum(max(a, 0.0) for a in al[1:]) + 1.0
    a_n = ((1.0 + 2.0 * M) * hi - (2.0 + M) * lo) / (3.0 * (hi - lo))
    b_n = (1.0 - M) / (3.0 * (hi - lo))
    return a_n, b_n


def poly_eval(coeffs, t):
    t = np.asarray(t, dtype=float)
    acc = np.ones_like(t)
    for c in reversed(coeffs):
        acc = acc * t + float(c)
    return acc


def network_values(n, c1, c2, a, b, xs, lam=0.25, coeffs=None):
    """c1 sigma(x - t1) + c2 sigma(x - t2) for a fitted network, where
    x - t1 lies on main segment n and x - t2 on the constant tail."""
    d = b - a
    u = monic_decode(n) if coeffs is None else coeffs
    a_n, b_n = segment_placement(n, u, d, lam)
    tail = (1.0 + strip_m(1, d, lam)) / 2.0
    t = (np.asarray(xs, dtype=float) - a) / d
    return c1 * (a_n + b_n * poly_eval(u, t)) + c2 * tail


def check_fit(n, c1, c2, theta1_exact, theta2, a, b, eps, target, poly=None):
    """A fitted network: theta1 = b - 2n(b-a) exactly, theta2 = 2a - b, the
    polynomial (when given) is the decoded u_n, and the network is within
    eps of the target on a grid."""
    probs = []
    ra, rb = Fraction(a), Fraction(b)
    if theta1_exact is not None and Fraction(theta1_exact) != rb - 2 * n * (rb - ra):
        probs.append("theta1 != b - 2n(b - a)")
    if Fraction(theta2) != 2 * ra - rb:
        probs.append("theta2 != 2a - b")
    u = monic_decode(n)
    if poly is not None and tuple(Fraction(c) for c in poly) != u:
        probs.append("fitted polynomial is not u_n decoded from n")
    xs = np.linspace(a, b, 257)
    err = float(np.max(np.abs(network_values(n, c1, c2, a, b, xs, coeffs=u)
                              - target(xs))))
    if not err <= eps:
        probs.append(f"network misses the target by {err:.3g} > eps {eps}")
    return probs


def sigma_bounds(x, d, lam):
    """Interval that sigma(x) must lie in, from the segment layout."""
    if x < d:
        return 0.0, (1.0 + strip_m(1, d, lam)) / 2.0
    n = max(1, int(math.floor((x / d + 1.0) / 2.0)))
    mn = strip_m(n, d, lam)
    lo, hi = (1.0 + 2.0 * mn) / 3.0, (2.0 + mn) / 3.0
    if n == 1:
        lo = hi = (1.0 + mn) / 2.0
    if x <= 2 * n * d:
        return lo, hi
    # transition to segment n+1: between the two strips, widened by the
    # (1 - M)/6 slack the smoothing step allows
    mm = strip_m(n + 1, d, lam)
    slack = (1.0 - mn) / 6.0
    return (min(lo, (1.0 + 2.0 * mm) / 3.0) - slack,
            max(hi, (2.0 + mm) / 3.0) + slack)


def check_sigma_values(xs, vals, d, lam, tol):
    probs = []
    for x, v in zip(xs, vals):
        lo, hi = sigma_bounds(x, d, lam)
        if not (lo - tol <= v <= hi + tol and 0.0 < v < 1.0):
            probs.append(f"sigma({x})={v} outside [{lo}, {hi}]")
            break
    return probs


# ---------------------------------------------------------------------------
# float layers

def corner_functional(F):
    """Largest |rectangle functional| over a product grid of values F."""
    best = 0.0
    for i in range(F.shape[0] - 1):
        D = F[i + 1:] - F[i]
        best = max(best, float(np.max(D.max(axis=1) - D.min(axis=1))))
    return best / 4.0


def pulled_grid(f, dirs, bounds, n):
    """f on the n x n grid of (a.x, b.x) over the parallelogram."""
    a, b = dirs[:2], dirs[2:]
    c1, d1, c2, d2 = bounds
    det = a[0] * b[1] - a[1] * b[0]
    y1 = np.linspace(c1, d1, n)
    y2 = np.linspace(c2, d2, n)
    Y1, Y2 = np.meshgrid(y1, y2, indexing="ij")
    X = (Y1 * b[1] - Y2 * a[1]) / det
    Y = (Y2 * a[0] - Y1 * b[0]) / det
    return y1, y2, f(X, Y)


def check_uniform(res, f, dirs, bounds, ds_iters):
    probs = []
    scale = 1.0
    if res.get("method") == "closed form":
        y1, y2, F = pulled_grid(f, dirs, bounds, 2)
        scale += float(np.max(np.abs(F)))
        want = 0.25 * (F[0, 0] + F[1, 1] - F[0, 1] - F[1, 0])
        if abs(res["error"] - want) > 1e-9 * scale:
            probs.append(f"error {res['error']} != corner double difference {want}")
        g1, g2 = res["g1_table"], res["g2_table"]
        k1, k2 = np.asarray(g1["knots"]), np.asarray(g2["knots"])
        a, b = dirs[:2], dirs[2:]
        det = a[0] * b[1] - a[1] * b[0]
        Y1, Y2 = np.meshgrid(k1, k2, indexing="ij")
        X = (Y1 * b[1] - Y2 * a[1]) / det
        Y = (Y2 * a[0] - Y1 * b[0]) / det
        resid = f(X, Y) - np.asarray(g1["values"])[:, None] \
            - np.asarray(g2["values"])[None, :]
        top = float(np.max(np.abs(resid)))
        if not (res["error"] - 1e-9 * scale <= top <= res["error"] + 1e-9 * scale):
            probs.append(f"tables reach {top}, not the error {res['error']}")
        if "verified" not in res:
            probs.append("no verification verdict")
    else:
        y1, y2, F = pulled_grid(f, dirs, bounds, 41)
        scale += float(np.max(np.abs(F)))
        lo = corner_functional(F)
        hi = 0.5 * (float(F.max()) - float(F.min()))
        if not (lo - 1e-9 * scale <= res["error"] <= hi + 1e-9 * scale):
            probs.append(f"LP value {res['error']} outside [{lo}, {hi}]")
    if ds_iters:
        norms = res.get("ds_norms", [])
        if len(norms) != ds_iters + 1:
            probs.append("wrong number of sweep norms")
        elif any(b > a + 1e-12 * scale for a, b in zip(norms, norms[1:])):
            probs.append("sweep norms increase")
        else:
            _, _, F = pulled_grid(f, dirs, bounds, 41)
            if norms[-1] < corner_functional(F) - 1e-9 * scale:
                probs.append("sweep norm below the grid's rectangle bound")
    return probs


def gauss_box(box, nodes):
    pts, wts = [], []
    for lo, hi in box:
        x, w = np.polynomial.legendre.leggauss(nodes)
        pts.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
        wts.append(0.5 * (hi - lo) * w)
    mesh = np.meshgrid(*pts, indexing="ij")
    W = wts[0]
    for w in wts[1:]:
        W = np.multiply.outer(W, w)
    return mesh, W


def l2_residual(res, f, J, ybox, weights=None, nodes=16):
    """sqrt of the integral over the domain of (f - sum w_j g_j(a_j.x))^2,
    from the reported component tables, by tensor Gauss-Legendre in y."""
    n = len(J)
    Jinv = np.linalg.inv(np.asarray(J, dtype=float))
    mesh, W = gauss_box(ybox, nodes)
    xs = [sum(Jinv[i][k] * mesh[k] for k in range(n)) for i in range(n)]
    r = f(*xs)
    for j, comp in enumerate(res["components"]):
        g = np.interp(mesh[j], comp["knots"], comp["values"])
        w = 1.0 if weights is None else weights[j](*xs)
        r = r - w * g
    det = abs(float(np.linalg.det(np.asarray(J, dtype=float))))
    return math.sqrt(max(float(np.sum(r * r * W)) / det, 0.0))


def check_l2(res, f, J, ybox, weights=None, exact=None, fscale=1.0):
    probs = []
    err = res["error"]
    if exact is not None and abs(err - exact) > 1e-9:
        probs.append(f"error {err} != closed form {exact}")
    mine = l2_residual(res, f, J, ybox, weights)
    # the tables are piecewise linear on 129 knots, so the quadrature of
    # their residual differs from the reported error by O(h^2)
    tol = 2e-3 * err + 1e-4 * fscale
    if abs(mine - err) > tol:
        probs.append(f"quadrature of the residual gives {mine}, report {err}")
    return probs


def rect_functional(f, x1, x2, y1, y2):
    return 0.25 * float(f(x1, y1) + f(x2, y2) - f(x1, y2) - f(x2, y1))


def bolt_value(f, pts):
    total = 0.0
    for k, (x, y) in enumerate(pts):
        total += (1.0 if k % 2 == 0 else -1.0) * float(f(x, y))
    return total / len(pts)


def is_closed_bolt(pts):
    n = len(pts)
    if n < 4 or n % 2:
        return False
    moves = []
    for k in range(n):
        p, q = pts[k], pts[(k + 1) % n]
        if p == q or (p[0] != q[0] and p[1] != q[1]):
            return False
        moves.append(p[0] == q[0])
    return all(moves[k] != moves[(k + 1) % n] for k in range(n))


def check_polygon(res, f, inside, xs, ys, scale):
    """Bolt values recomputed, error = their maximum, every bolt closed and
    inside the polygon, and no lattice rectangle inside the polygon has a
    larger functional (each is a closed bolt)."""
    probs = []
    vals = []
    for bolt in res["bolts"]:
        pts = [tuple(p) for p in bolt["points"]]
        if not is_closed_bolt(pts) or not all(inside(x, y) for x, y in pts):
            probs.append(f"{pts} is not a closed bolt in the polygon")
        v = abs(bolt_value(f, pts))
        if abs(v - bolt["value"]) > 1e-12 * scale:
            probs.append(f"bolt value {bolt['value']} recomputes to {v}")
        vals.append(v)
    if vals and abs(res["error"] - max(vals)) > 1e-12 * scale:
        probs.append("error is not the largest bolt value")
    best = 0.0
    for i, x1 in enumerate(xs):
        for x2 in xs[i + 1:]:
            for j, y1 in enumerate(ys):
                for y2 in ys[j + 1:]:
                    if all(inside(x, y) for x in (x1, x2) for y in (y1, y2)):
                        best = max(best, abs(rect_functional(f, x1, x2, y1, y2)))
    if best > res["error"] + 1e-9 * scale:
        probs.append(f"lattice rectangle functional {best} exceeds error {res['error']}")
    if "bounds" in res:
        lo, hi = res["bounds"]["lower"], res["bounds"]["upper"]
        if abs(lo - res["error"]) > 1e-12 * scale or hi < lo - 1e-12 * scale:
            probs.append(f"bounds [{lo}, {hi}] do not bracket the error")
    return probs


def check_rect(res, f, rect, c, cls, scale):
    probs = []
    a1, b1, a2, b2 = rect
    xlo, xhi = (a1, c) if cls == "V" else (c, b1)
    want = rect_functional(f, xlo, xhi, a2, b2)
    if abs(res["error"] - want) > 1e-9 * scale:
        probs.append(f"error {res['error']} != L over the {cls} part {want}")
    y0 = res["y0"]
    if not a2 <= y0 <= b2:
        probs.append("y0 outside the rectangle")
    elif abs(rect_functional(f, xlo, xhi, a2, y0) - 0.5 * want) > 1e-7 * scale:
        probs.append("y0 does not halve the functional")
    phi = res["extremal"]["phi0_table"]
    psi = res["extremal"]["psi0_table"]
    X, Y = np.meshgrid(phi["knots"], psi["knots"], indexing="ij")
    resid = f(X, Y) - np.asarray(phi["values"])[:, None] \
        - np.asarray(psi["values"])[None, :]
    top = float(np.max(np.abs(resid)))
    if top > want + 1e-7 * scale:
        probs.append(f"extremal pair deviates by {top} > error {want}")
    return probs


def grid_lp(f, pts):
    """Discrete minimax distance to u(x) + v(y) on a point set (own LP)."""
    from scipy.optimize import linprog
    xs = sorted({p[0] for p in pts})
    ys = sorted({p[1] for p in pts})
    m = len(xs) + len(ys)
    A, rhs = [], []
    for x, y in pts:
        row = np.zeros(m + 1)
        row[xs.index(x)] = 1.0
        row[len(xs) + ys.index(y)] = 1.0
        fx = float(f(x, y))
        A.append(np.concatenate([row[:m], [-1.0]]))
        rhs.append(fx)
        A.append(np.concatenate([-row[:m], [-1.0]]))
        rhs.append(-fx)
    c = np.zeros(m + 1)
    c[m] = 1.0
    out = linprog(c, A_ub=np.array(A), b_ub=np.array(rhs),
                  bounds=[(None, None)] * m + [(0, None)], method="highs")
    return float(out.fun)


def check_golomb(value, f, pts, scale):
    xs = sorted({p[0] for p in pts})
    ys = sorted({p[1] for p in pts})
    have = set(pts)
    lo = 0.0
    for i, x1 in enumerate(xs):
        for x2 in xs[i + 1:]:
            for j, y1 in enumerate(ys):
                for y2 in ys[j + 1:]:
                    if {(x1, y1), (x1, y2), (x2, y1), (x2, y2)} <= have:
                        lo = max(lo, abs(rect_functional(f, x1, x2, y1, y2)))
    hi = grid_lp(f, pts)
    if not (lo - 1e-9 * scale <= value <= hi + 1e-7 * scale):
        return [f"golomb bound {value} outside [{lo}, {hi}]"]
    return []


def check_smooth(res, f, dirs, box, scale):
    from scipy.interpolate import CubicSpline
    probs = []
    (x0, x1), (y0, y1) = box
    rng = np.random.default_rng(7)
    X = rng.uniform(x0, x1, 400)
    Y = rng.uniform(y0, y1, 400)
    total = np.zeros_like(X)
    for (a, b), tab in zip(dirs, res["g_tables"]):
        total += CubicSpline(tab["knots"], tab["values"])(a * X + b * Y)
    fresh = float(np.max(np.abs(f(X, Y) - total)))
    tol = 1e-4 * scale
    if fresh > tol:
        probs.append(f"residual {fresh:.3g} on a fresh grid")
    if not res["residual"] <= tol:
        probs.append(f"reported residual {res['residual']:.3g}")
    cc = res.get("convergence_study", {}).get("residual")
    if cc is None or not cc <= 10 * tol:
        probs.append(f"cross-check residual {cc}")
    return probs
