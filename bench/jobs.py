"""Seeded job lists of the four workloads.

A job is one user question: a call to ``ridgekit.cli.main(argv)``, or a
public library call where the CLI has no command for the operation.  The
seed picks the inputs; the number of jobs of each kind, and their sizes,
are fixed per workload, so that two seeds cost about the same.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
from fractions import Fraction

import numpy as np

import checks


class Job:
    """``call()`` runs the question and returns (exit code, output);
    ``check(code, output)`` returns a list of problems; ``key(output)``
    fingerprints an output so that an identical output is checked once."""

    def __init__(self, kind, call, check, key, expect_fail=False, cli=False):
        self.kind = kind
        self.cli = cli
        self.call = call
        self.check = check
        self.key = key
        self.expect_fail = expect_fail


def _cli():
    import ridgekit.cli
    return ridgekit.cli


_TIMING = re.compile(r'"timing_seconds": [^\n]*')


def cli_key(out):
    return hashlib.sha1(_TIMING.sub("", out).encode()).hexdigest()


def cli_job(kind, argv, check, expect_fail=False):
    argv = [str(a) for a in argv]

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = _cli().main(argv)
        return code, buf.getvalue()

    def checked(code, out):
        if code != 0:
            return [f"exit code {code}: {out[-300:]}"]
        try:
            rep = json.loads(out)
        except ValueError:
            rep = out
        return check(rep)

    return Job(kind, call, checked, cli_key, expect_fail, cli=True)


def lib_job(kind, fn, check, key):
    def call():
        return 0, fn()

    return Job(kind, call, lambda code, out: check(out), key)


def rat(q):
    return checks.frac_str(q)


def write_csv(path, rows):
    with open(path, "w") as fh:
        for r in rows:
            fh.write(",".join(rat(v) for v in r) + "\n")


# ---------------------------------------------------------------------------
# cycles-exact

DIRS2 = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (2, -1), (1, -2),
         (1, 3), (3, 1)]
DIRS3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1),
         (1, 1, 1), (1, -1, 0), (1, 2, 1), (0, 1, -1)]


def _det(m):
    m = [[Fraction(v) for v in row] for row in m]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _solve(rows, rhs):
    """x with rows . x = rhs, by Cramer's rule over Q."""
    d = _det(rows)
    out = []
    for k in range(len(rows)):
        m = [list(r) for r in rows]
        for i in range(len(rows)):
            m[i][k] = rhs[i]
        out.append(_det(m) / d)
    return tuple(out)


def _independent(dirs):
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            u, v = dirs[i], dirs[j]
            if all(u[a] * v[b] == u[b] * v[a]
                   for a in range(len(u)) for b in range(a + 1, len(u))):
                return False
    return True


def _pick_dirs(rng, dim, count, basis=False):
    pool = DIRS2 if dim == 2 else DIRS3
    while True:
        dirs = rng.sample(pool, count)
        if not _independent(dirs):
            continue
        if basis and _det(dirs[:dim]) == 0:
            continue
        return dirs


def _values(rng, count):
    vals = set()
    while len(vals) < count:
        vals.add(Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4))))
    return sorted(vals)


def product_set(rng, dirs, sizes):
    """Points whose coordinates along ``dirs`` (a basis) form a product."""
    axes = [_values(rng, s) for s in sizes]
    pts = []

    def rec(prefix):
        if len(prefix) == len(axes):
            pts.append(_solve(dirs, prefix))
            return
        for v in axes[len(prefix)]:
            rec(prefix + [v])

    rec([])
    return pts


def lattice_subset(rng, dim, side, size):
    box = [tuple(c) for c in np.ndindex(*([side] * dim))]
    return [tuple(Fraction(int(v)) for v in p) for p in rng.sample(box, size)]


def tree_set(rng, dim, dirs, size, staircase=False):
    """Cycle-free by construction: every point added carries a fiber value,
    in some direction, that no earlier point has, so in any signed
    weighting the most recently added point of the support sits alone on
    that fiber."""
    extra = [c for c in DIRS3 if _det(list(dirs[:2]) + [c]) != 0][0] \
        if dim == 3 and len(dirs) == 2 else None
    used = [set() for _ in dirs]

    def fresh(i):
        while True:
            v = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))
            if v not in used[i]:
                return v

    def place(fixed):
        # fixed: {direction index: value}; fill the rest of a basis
        rows, rhs = [], []
        for i, v in fixed.items():
            rows.append(dirs[i])
            rhs.append(v)
        for i in range(len(dirs)):
            if len(rows) == dim:
                break
            if i not in fixed and _det_ok(rows + [dirs[i]], dim):
                rows.append(dirs[i])
                rhs.append(Fraction(rng.randint(-20, 20), rng.choice((1, 2))))
        if len(rows) < dim:
            rows.append(extra)
            rhs.append(Fraction(rng.randint(-9, 9)))
        return _solve(rows, rhs)

    pts = [place({i: fresh(i) for i in range(min(dim, len(dirs)))})]
    for p in pts:
        for i, a in enumerate(dirs):
            used[i].add(checks.dot(a, p))
    while len(pts) < size:
        k = len(pts) - 1 if staircase else rng.randrange(len(pts))
        share = (len(pts) % 2) if staircase else rng.randrange(len(dirs))
        new_dir = (share + 1) % len(dirs) if staircase else \
            rng.choice([i for i in range(len(dirs)) if i != share])
        fixed = {share: checks.dot(dirs[share], pts[k]), new_dir: fresh(new_dir)}
        if dim == 3 and len(dirs) == 3 and rng.random() < 0.5:
            third = 3 - share - new_dir
            fixed[third] = checks.dot(dirs[third], pts[rng.randrange(len(pts))])
            if _det([dirs[i] for i in fixed]) == 0:
                del fixed[third]
        try:
            p = place(fixed)
        except ZeroDivisionError:
            continue
        if p in pts:
            continue
        pts.append(p)
        for i, a in enumerate(dirs):
            used[i].add(checks.dot(a, p))
    return pts


def _det_ok(rows, dim):
    if len(rows) < dim:
        m = np.array([[float(v) for v in r] for r in rows])
        return np.linalg.matrix_rank(m) == len(rows)
    return _det(rows) != 0


# The combinatorial structure of the cycles-exact sets (sizes, fibers,
# nullity) is drawn once from this fixed seed, so that every seed asks
# equally hard questions; the run's seed draws an affine image of each set,
# rescaled directions and the data to interpolate.
STRUCTURE_SEED = 20200528


def _affine_image(rng, pts, dirs):
    """x -> s x + t and a_i -> c_i a_i keep every fiber, so the incidence
    structure and the nullity are unchanged.  s, t and c_i are integers, so
    the rationals involved stay as simple as the set's own, and so does the
    cost of exact arithmetic on them."""
    dim = len(pts[0])
    s = rng.choice((-1, 1))
    t = [rng.randint(-30, 30) for _ in range(dim)]
    new_pts = [tuple(s * v + tv for v, tv in zip(p, t)) for p in pts]
    scales = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in dirs]
    new_dirs = [tuple(c * v for v in a) for c, a in zip(scales, dirs)]
    return new_pts, new_dirs


def cycles_jobs(seed, workdir):
    rng = random.Random(STRUCTURE_SEED)
    data = random.Random(seed)
    sets = []   # (kind, points, dirs)
    # product grids in direction coordinates: nullity (m-1)(n-1) in 2-D,
    # lmn - (l+m+n) + 2 in 3-D
    for sizes, count in [((2, 2), 4), ((2, 3), 8), ((2, 4), 4), ((3, 3), 1),
                         ((3, 4), 3), ((4, 4), 3), ((3, 5), 2), ((4, 5), 2),
                         ((5, 5), 1)]:
        for _ in range(count):
            dirs = _pick_dirs(rng, 2, 2, basis=True)
            sets.append(("product grid", product_set(rng, dirs, sizes), dirs))
    for sizes, count in [((2, 2, 3), 3), ((2, 3, 3), 2)]:
        for _ in range(count):
            dirs = _pick_dirs(rng, 3, 3, basis=True)
            sets.append(("product grid", product_set(rng, dirs, sizes), dirs))
    # random lattice subsets: each slot fixes (nullity class, dimension,
    # number of directions, size), and subsets are drawn until one has that
    # nullity (class 5 stands for 5 and more)
    slots = [(0, 2, 2, 8)] * 3 + [(0, 2, 3, 10)] * 3 + [(0, 3, 3, 8)] * 2 \
        + [(0, 3, 2, 6)] * 2 \
        + [(1, 2, 2, 12)] * 2 + [(1, 3, 2, 6)] * 3 + [(1, 3, 3, 10)] * 3 \
        + [(1, 2, 2, 16)] * 2 \
        + [(2, 3, 2, 8)] * 5 + [(2, 3, 3, 14)] * 3 + [(2, 3, 2, 7)] * 2 \
        + [(3, 3, 2, 11)] * 2 + [(3, 3, 3, 14)] \
        + [(5, 3, 2, 12)] * 3 + [(5, 3, 2, 14)] * 3 + [(5, 3, 3, 16)] * 2
    for k, dim, ndirs, size in slots:
        while True:
            dirs = _pick_dirs(rng, dim, ndirs)
            pts = lattice_subset(rng, dim, 5 if dim == 2 else 3, size)
            if min(checks.nullity(pts, dirs), 5) == k:
                sets.append(("lattice subset", pts, dirs))
                break
    jobs = []
    for idx, (kind, pts, dirs) in enumerate(sets):
        pts, dirs = _affine_image(data, pts, dirs)
        opts = {}
        if len(pts) <= 9 and idx % 2 == 0:
            opts["minimal"] = True
        if idx % 3 == 0:
            opts["tau"] = True
        nul = checks.nullity(pts, dirs)
        label = "0" if nul == 0 else "1" if nul == 1 else "2-4" if nul <= 4 else "5+"
        jobs.append(_cycles_job(workdir, f"s{idx}", f"{kind}, nullity {label}",
                                pts, dirs, opts))
    # cycle-free staircases and trees, with values from a random integer
    # ridge sum to interpolate
    for idx in range(30):
        dim = 2 if idx < 18 else 3
        ndirs = 2 if idx % 3 else 3
        dirs = _pick_dirs(rng, dim, ndirs, basis=(dim == 3 and ndirs == 3))
        stair = dim == 2 and ndirs == 2 and idx % 2 == 0
        pts = tree_set(rng, dim, dirs, 6 + idx % 7, staircase=stair)
        pts, dirs = _affine_image(data, pts, dirs)
        g = [{} for _ in dirs]
        fvals = []
        for p in pts:
            total = 0
            for i, a in enumerate(dirs):
                total += g[i].setdefault(checks.dot(a, p), data.randint(-20, 20))
            fvals.append(total)
        opts = {"solve": fvals}
        if idx % 2:
            opts["tau"] = True
        jobs.append(_cycles_job(workdir, f"t{idx}", "cycle-free staircase --solve"
                                if stair else "cycle-free tree --solve", pts, dirs, opts))
    return jobs


def _cycles_job(workdir, name, kind, pts, dirs, opts):
    pfile = os.path.join(workdir, f"{name}-points.csv")
    dfile = os.path.join(workdir, f"{name}-dirs.csv")
    write_csv(pfile, pts)
    write_csv(dfile, dirs)
    argv = ["cycles", "check", "--points", pfile, "--directions", dfile]
    if opts.get("minimal"):
        argv.append("--minimal")
    if opts.get("tau"):
        argv.append("--tau")
    fvals = opts.get("solve")
    if fvals is not None:
        sfile = os.path.join(workdir, f"{name}-f.csv")
        write_csv(sfile, [(v,) for v in fvals])
        argv += ["--solve", sfile]
    return cli_job(kind, argv,
                   lambda rep: checks.check_cycles_report(rep, pts, dirs, opts, fvals))


# ---------------------------------------------------------------------------
# sigmoid-fit and sigmoid-eval

# fits whose segment index the CLI can print (n below 14,300 bits)
SMALL_FITS = [("sin(x1)", 0.2), ("sin(x1)", 0.1), ("4*x1/(4+x1^2)", 0.6),
              ("4*x1/(4+x1^2)", 0.2), ("4*x1/(4+x1^2)", 0.1),
              ("4*x1/(4+x1^2)", 0.04), ("exp(x1)", 0.95), ("exp(x1)", 0.6),
              ("exp(x1)", 0.35), ("1/(2+x1)", 0.95), ("1/(2+x1)", 0.6),
              ("1/(2+x1)", 0.35), ("1/(2+x1)", 0.04), ("sqrt(2+x1)", 0.95),
              ("sqrt(2+x1)", 0.6), ("sqrt(2+x1)", 0.35), ("sqrt(2+x1)", 0.2)]
# fits whose n has 22,812 to 49,652 bits: `sigmoid fit` prints n with
# str(), which Python 3.11 refuses above 4,300 digits, so these exit 1
CLI_FAILING_FITS = [("cos(2*x1)", 0.95), ("1/(2+x1)", 0.2),
                    ("sqrt(2+x1)", 0.04), ("sqrt(2+x1)", 0.1)]
# fits with indices of 1.6e6 to 1.3e8 bits, reached through the library
BIG_FITS = [("4*x1/(4+x1^2)", 0.35), ("exp(x1)", 0.2), ("exp(x1)", 0.1),
            ("exp(x1)", 0.04), ("sin(x1)", 0.35), ("sin(x1)", 0.04),
            ("cos(2*x1)", 0.35), ("cos(2*x1)", 0.2), ("cos(2*x1)", 0.04),
            ("abs(x1)", 0.6)]

_SMALL_RATS = sorted({Fraction(p, q) for p in range(-6, 7) for q in (1, 2, 3, 4)})


def random_monic(rng, degree, max_bits):
    """Coefficients a_0..a_{degree-1} whose index has at most max_bits."""
    while True:
        coeffs = tuple(rng.choice(_SMALL_RATS) for _ in range(degree))
        if checks.monic_position(coeffs).bit_length() <= max_bits:
            return coeffs


def poly_expr(p0, coeffs):
    terms = [f"x1^{len(coeffs)}"]
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            power = "" if k == 0 else ("*x1" if k == 1 else f"*x1^{k}")
            terms.append(f"({rat(c)}){power}")
    return f"({rat(p0)})*(" + " + ".join(terms) + ")"


def _fit_check(expr, a, b, eps):
    target = checks.np_function(expr, 1)

    def check(rep):
        if not isinstance(rep, dict) or "results" not in rep:
            return ["no results"]
        r = rep["results"]
        n = int(r["n"])
        return checks.check_fit(n, r["c1"], r["c2"], r["theta1"]["exact"],
                                r["theta2"], a, b, eps, target)

    return check


def _fit_cli_job(kind, expr, a, b, eps, expect_fail=False):
    argv = ["sigmoid", "fit", "--expr", expr, "--interval", a, b, "--eps", eps]
    return cli_job(kind, argv, _fit_check(expr, a, b, eps), expect_fail)


def _net_key(out):
    net, achieved = out
    return (net.n.bit_length(), hash(net.n), net.c1, net.c2, achieved)


def _lib_fit_job(expr, a, b, eps):
    def fn():
        from ridgekit.core import parse_expression
        from ridgekit.sigmoid import fit_two_neuron
        return fit_two_neuron(parse_expression(expr, 1), a, b, eps)

    target = checks.np_function(expr, 1)

    def check(out):
        net, _ = out
        return checks.check_fit(net.n, net.c1, net.c2, net.theta1_exact,
                                net.theta2, a, b, eps, target,
                                poly=net.poly.coeffs)

    return lib_job("fit_two_neuron (library)", fn, check, _net_key)


def _seeded_polys(rng, count):
    out = []
    for i in range(count):
        degree = (1, 2, 2, 3, 3, 4)[i % 6]
        coeffs = random_monic(rng, degree, 12000)
        p0 = rng.choice([Fraction(v) for v in (1, 2, 3, 4, -1, -2)]
                        + [Fraction(1, 2), Fraction(3, 2), Fraction(1, 3)])
        out.append((poly_expr(p0, coeffs), rng.choice((1e-4, 1e-5, 1e-6))))
    return out


def fit_jobs(seed, workdir):
    rng = random.Random(seed)
    jobs = []
    for expr, eps in _seeded_polys(rng, 45):
        jobs.append(_fit_cli_job("fit CLI, polynomial", expr, 0, 1, eps))
    for expr, eps in SMALL_FITS:
        jobs.append(_fit_cli_job("fit CLI, n < 14,300 bits", expr, -1, 1, eps))
    for expr, eps in CLI_FAILING_FITS:
        jobs.append(_fit_cli_job("fit CLI, n > 14,300 bits (fails)", expr,
                                 -1, 1, eps, expect_fail=True))
    for expr, eps in BIG_FITS + CLI_FAILING_FITS:
        jobs.append(_lib_fit_job(expr, -1.0, 1.0, eps))
    for _ in range(30):
        batch = []
        while len(batch) < 25:
            coeffs = tuple(
                Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                if rng.random() < 0.7 else Fraction(rng.randint(-9, 9))
                for _ in range(1 + len(batch) % 6))
            # each coefficient adds about 2^(its continued-fraction term
            # sum + 1) bits to the index; keep indices within 6,000 bits
            if sum(1 << (checks.cf_bits(c) + 1) for c in coeffs) <= 6000:
                batch.append(coeffs)
        jobs.append(_monic_index_job(batch))
    return jobs


def _monic_index_job(batch):
    def fn():
        from ridgekit.sigmoid import MonicPoly, monic_index
        return [monic_index(MonicPoly(c)) for c in batch]

    def check(ns):
        for c, n in zip(batch, ns):
            if checks.monic_decode(n) != c:
                return [f"index {n} decodes to another polynomial than {c}"]
        return [] if len(ns) == len(batch) else ["wrong number of indices"]

    return lib_job("monic_index (library, 25 polynomials)", fn, check,
                   lambda ns: tuple(ns))


def eval_jobs(seed, workdir, networks):
    """networks: list of (expr, a, b, eps, NetworkParams) fitted in set-up."""
    rng = random.Random(seed)
    jobs = []
    for i in range(40):
        d = rng.choice((0.5, 1.0, 2.0, 3.0))
        lam = rng.choice((0.1, 0.25, 0.4, 0.75))
        top = (20, 200, 2000, 20000, 200000)[i % 5]
        xs = []
        for _ in range(24):
            if rng.random() < 0.1:
                x = rng.uniform(0.0, d)
            else:
                n = int(round(10 ** rng.uniform(0, np.log10(top))))
                x = rng.uniform((2 * n - 1) * d, (2 * n + 1) * d)
            xs.append(float(f"{x:.6f}"))
        jobs.append(cli_job("sigmoid eval (24 points)",
                            ["sigmoid", "eval", "--d", d, "--lambda", lam, "--x"]
                            + [repr(x) for x in xs],
                            _sigma_eval_check(xs, d, lam)))
    for i in range(20):
        d = rng.choice((0.5, 1.0, 2.0))
        lam = rng.choice((0.1, 0.25, 0.75))
        step = round(d * (0.37, 1.3, 5.1, 23.0)[i % 4], 4)
        start = round(rng.uniform(0.0, 2000.0 * d), 3)
        stop = start + 30.5 * step
        jobs.append(cli_job("sigmoid table (31 rows)",
                            ["sigmoid", "table", "--d", d, "--lambda", lam,
                             "--from", start, "--to", stop, "--step", step],
                            _sigma_table_check(start, step, 31, d, lam)))
    # eval_network point by point; per network, points per job chosen so a
    # job costs a few to a few tens of ms today
    plan = [(0, 6), (0, 6), (0, 6), (0, 6), (1, 20), (1, 20), (2, 30), (2, 30),
            (3, 30), (4, 40)] + [(k, 60) for k in range(5, len(networks))]
    for k, count in plan:
        expr, a, b, eps, net = networks[k]
        xs = [rng.uniform(a, b) for _ in range(count)]
        jobs.append(_eval_network_job(net, expr, eps, xs))
    templates = [[64, 64, 128, 256, 512]] * 10 + [[1024, 1024]] * 6 \
        + [[4096]] * 3 + [[8192]]
    for bits in templates:
        ns = [rng.getrandbits(b) | (1 << (b - 1)) for b in bits]
        jobs.append(_monic_enum_job(ns))
    return jobs


def _sigma_eval_check(xs, d, lam):
    def check(rep):
        vals = rep["results"]["sigma"]
        vals = vals if isinstance(vals, list) else [vals]
        if len(vals) != len(xs):
            return ["wrong number of values"]
        return checks.check_sigma_values(xs, vals, d, lam, 1e-12)
    return check


def _sigma_table_check(start, step, rows, d, lam):
    def check(text):
        lines = text.strip().splitlines()
        if lines[0] != "x,sigma" or len(lines) != rows + 1:
            return [f"table has {len(lines) - 1} rows, want {rows}"]
        xs, vals = [], []
        for i, line in enumerate(lines[1:]):
            xp, vp = line.split(",")
            x = start + i * step
            if abs(float(xp) - x) > 1e-5 * max(1.0, abs(x)):
                return [f"row {i} has x={xp}, want {x}"]
            xs.append(x)
            vals.append(float(vp))
        return checks.check_sigma_values(xs, vals, d, lam, 6e-6)
    return check


def _eval_network_job(net, expr, eps, xs):
    def fn():
        from ridgekit.sigmoid import eval_network
        return [float(eval_network(net, x)) for x in xs]

    target = checks.np_function(expr, 1)
    own = checks.network_values(net.n, net.c1, net.c2, net.a, net.b, xs)
    scale = 1e-9 * (abs(net.c1) + abs(net.c2) + 1.0)

    def check(vals):
        got = np.asarray(vals)
        if len(got) != len(xs):
            return ["wrong number of values"]
        err = float(np.max(np.abs(got - target(np.asarray(xs)))))
        if err > eps:
            return [f"network misses the target by {err} > {eps}"]
        if float(np.max(np.abs(got - own))) > scale:
            return ["values differ from the recomputed network"]
        return []

    bits = net.n.bit_length()
    size = "1.3e8" if bits > 10 ** 8 else "5e5 to 2e7" if bits > 10 ** 5 \
        else "below 1e4"
    return lib_job(f"eval_network (n of {size} bits)", fn, check, tuple)


def _monic_enum_job(ns):
    def fn():
        from ridgekit.sigmoid import monic_enum
        return [monic_enum(n).coeffs for n in ns]

    def check(polys):
        for n, p in zip(ns, polys):
            if tuple(p) != checks.monic_decode(n):
                return [f"monic_enum({n}) differs from the binary-run decoding"]
        return []

    return lib_job(f"monic_enum ({'+'.join(str(n.bit_length()) for n in ns)} bits)",
                   fn, check, lambda polys: hash(tuple(polys)))


def fit_networks(seed):
    """Networks the sigmoid-eval workload evaluates, fitted in set-up."""
    from ridgekit.core import parse_expression
    from ridgekit.sigmoid import fit_two_neuron
    rng = random.Random(seed + 1)
    specs = [(e, -1.0, 1.0, eps) for e, eps in
             [("4*x1/(4+x1^2)", 0.35), ("exp(x1)", 0.1), ("exp(x1)", 0.2),
              ("sin(x1)", 0.35), ("cos(2*x1)", 0.2)]]
    specs += [(e, 0.0, 1.0, eps) for e, eps in _seeded_polys(rng, 8)]
    specs += [(e, -1.0, 1.0, eps) for e, eps in SMALL_FITS[::3]]
    out = []
    for expr, a, b, eps in specs:
        net, _ = fit_two_neuron(parse_expression(expr, 1), a, b, eps)
        out.append((expr, a, b, eps, net))
    return out


# ---------------------------------------------------------------------------
# approx-float

def _num(rng, lo, hi):
    return round(rng.uniform(lo, hi), 3)


def _lin(a, b):
    """a*x1 + b*x2 as an expression."""
    return f"({a}*x1 + ({b})*x2)"


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _class_function(rng):
    """A function with positive mixed derivative: every cell double
    difference is nonnegative (the bolts' monotone class)."""
    c, g = _num(rng, 0.5, 2.0), _num(rng, 0.0, 1.0)
    k1, k2 = _num(rng, 0.0, 0.8), _num(rng, 0.0, 0.8)
    al, be = _num(rng, -1.0, 1.0), _num(rng, -0.5, 0.5)
    return (f"{c}*x1*x2 + {g}*exp({k1}*x1 + {k2}*x2) + ({al})*sin(x1)"
            f" + ({be})*x2^2")


def _uniform_job(kind, expr, dirs, bounds, ds, verify=True):
    argv = ["approx", "uniform", "--expr", expr, "--dirs", *dirs,
            "--bounds", *bounds]
    if verify:
        argv.append("--verify")
    if ds:
        argv += ["--ds-iters", ds]
    f = checks.np_function(expr, 2)
    return cli_job(kind, argv,
                   lambda rep: checks.check_uniform(rep["results"], f, dirs,
                                                    bounds, ds))


def _l2_job(workdir, name, kind, expr, dirs, comp, ybox, nodes, weights=None,
            exact=None):
    dfile = os.path.join(workdir, f"{name}-dirs.csv")
    cfile = os.path.join(workdir, f"{name}-comp.csv")
    yfile = os.path.join(workdir, f"{name}-ybox.json")
    write_csv(dfile, dirs)
    write_csv(cfile, comp)
    _write_json(yfile, ybox)
    argv = ["approx", "l2", "--expr", expr, "--dirs-file", dfile,
            "--completion-file", cfile, "--ybox", yfile, "--nodes", nodes]
    n = len(dirs[0])
    wfns = None
    if weights:
        argv += ["--weights", *weights]
        wfns = [checks.np_function(w, n) for w in weights]
    f = checks.np_function(expr, n)
    J = [list(map(float, r)) for r in list(dirs) + list(comp)]
    mesh, _ = checks.gauss_box(ybox, 5)
    Jinv = np.linalg.inv(np.asarray(J))
    xs = [sum(Jinv[i][k] * mesh[k] for k in range(n)) for i in range(n)]
    fscale = 1.0 + float(np.max(np.abs(f(*xs))))
    return cli_job(kind, argv,
                   lambda rep: checks.check_l2(rep["results"], f, J, ybox,
                                               wfns, exact, fscale))


def _polygon_inside(shape, a, b):
    if shape == "hexagon":
        rects = [(a[0], a[1], b[0], b[2]), (a[0], a[2], b[0], b[1])]
    elif shape == "octagonA":
        rects = [(a[0], a[1], b[0], b[1]), (a[1], a[2], b[0], b[1]),
                 (a[2], a[3], b[0], b[1]), (a[1], a[2], b[1], b[2])]
    elif shape == "octagonB":
        rects = [(a[0], a[3], b[0], b[1]), (a[0], a[1], b[1], b[2]),
                 (a[2], a[3], b[1], b[2])]
    else:
        N = len(a)
        rects = [(a[i], a[i + 1], b[0], b[N - 1 - i]) for i in range(N - 1)]
    return lambda x, y: any(r[0] <= x <= r[1] and r[2] <= y <= r[3]
                            for r in rects)


def _breaks(rng, count, lo=0.0):
    vals = [lo]
    for _ in range(count - 1):
        vals.append(round(vals[-1] + rng.uniform(0.3, 1.2), 3))
    return vals


def _bolts_job(workdir, name, shape, expr, geom, bounds=False, golomb=None,
               rect_class=None):
    gfile = os.path.join(workdir, f"{name}-geom.json")
    _write_json(gfile, geom)
    argv = ["bolts", shape, "--expr", expr, "--geom", gfile]
    f = checks.np_function(expr, 2)
    if rect_class:
        cls, c = rect_class
        argv += ["--class", cls, "--c", c]
        r = geom["rect"]
        scale = 1.0 + float(np.max(np.abs(f(*np.meshgrid(np.linspace(r[0], r[1], 9),
                                                         np.linspace(r[2], r[3], 9))))))
        return cli_job(f"bolts rect --class {cls}", argv,
                       lambda rep: checks.check_rect(rep["results"], f, r, c, cls, scale))
    if bounds:
        argv.append("--bounds")
    pts = None
    if golomb:
        pfile = os.path.join(workdir, f"{name}-golomb.csv")
        write_csv(pfile, [(Fraction(x), Fraction(y)) for x, y in golomb])
        argv += ["--golomb", pfile]
        pts = [(float(Fraction(x)), float(Fraction(y))) for x, y in golomb]
    a, b = geom["a"], geom["b"]
    inside = _polygon_inside(shape, a, b)
    X, Y = np.meshgrid(np.linspace(a[0], a[-1], 9), np.linspace(b[0], b[-1], 9))
    scale = 1.0 + float(np.max(np.abs(f(X, Y))))

    def check(rep):
        res = rep["results"]
        probs = checks.check_polygon(res, f, inside, a, b, scale)
        if pts is not None:
            probs += checks.check_golomb(res["golomb_lower_bound"], f, pts, scale)
        return probs

    kind = f"bolts {shape}" + (" --bounds" if bounds else "") \
        + (f" --golomb {int(len(golomb) ** 0.5)}x{int(len(golomb) ** 0.5)}"
           if golomb else "")
    return cli_job(kind, argv, check)


def approx_jobs(seed, workdir):
    rng = random.Random(seed)
    jobs = []
    closed_dirs = [(1, 0, 0, 1), (1, 1, 1, -1), (2, 1, 1, -1), (1, 2, -1, 1),
                   (1, 0, 1, 1), (1, 1, 0, 1)]
    for idx in range(12):
        dirs = closed_dirs[idx % len(closed_dirs)]
        c1, c2 = _num(rng, -1.0, 1.0), _num(rng, -1.0, 1.0)
        bounds = (c1, round(c1 + rng.uniform(0.5, 2.0), 3),
                  c2, round(c2 + rng.uniform(0.5, 2.0), 3))
        y1, y2 = _lin(dirs[0], dirs[1]), _lin(dirs[2], dirs[3])
        c, g = _num(rng, 0.5, 2.0), _num(rng, 0.0, 1.0)
        k1, k2 = _num(rng, 0.0, 0.8), _num(rng, 0.0, 0.8)
        expr = f"{c}*{y1}*{y2} + {g}*exp({k1}*{y1} + {k2}*{y2})"
        ds = (0, 5, 10, 20)[idx % 4]
        jobs.append(_uniform_job("approx uniform, closed form --verify", expr,
                                 dirs, bounds, ds))
    # The LP fallback runs along the axes only: along skew directions
    # grid_minimax_oracle groups fibers by float equality, splits them, and
    # on some inputs returns less than the grid's own rectangle bound.
    for k, m in [(3, 4), (4, 3), (5, 4), (4, 5)]:
        expr = (f"{_num(rng, 0.5, 1.5)}*sin({k}*x1 + "
                f"{_num(rng, 0, 1)})*cos({m}*x2)")
        c1, c2 = _num(rng, -1, 0), _num(rng, -1, 0)
        bounds = (c1, round(c1 + rng.uniform(0.8, 1.5), 3),
                  c2, round(c2 + rng.uniform(0.8, 1.5), 3))
        jobs.append(_uniform_job("approx uniform, LP fallback", expr,
                                 (1, 0, 0, 1), bounds, 0, verify=False))
    d2 = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1)]
    for idx in range(6):
        dirs = _pick_from(rng, d2, 2)
        ybox = [(lo, round(lo + rng.uniform(0.5, 1.5), 3))
                for lo in (_num(rng, -1, 1), _num(rng, -1, 1))]
        c = _num(rng, 0.3, 1.5)
        expr = [f"exp({c}*x1*x2)", f"sin({c}*x1 + x2^2)",
                f"x1^2*x2 + {c}*x2^3", f"cos({c}*x1)*exp(0.5*x2)"][idx % 4]
        jobs.append(_l2_job(workdir, f"l2a{idx}", "approx l2, 2-D", expr, dirs,
                            [], ybox, (12, 16)[idx % 2]))
    # 3-D and 4-D targets are cubic polynomials, which the jobs' 5 or 6
    # Gauss nodes integrate exactly; for steeper targets the error a job
    # reports is a quadrature at too few nodes (cos(c*x1*x2*x3) at 6 nodes
    # came out 4.8% below the residual of the job's own tables)
    d3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1),
          (1, 1, 1), (1, -1, 0)]
    for idx in range(6):
        r = 2 if idx % 2 else 3
        while True:
            rows = _pick_from(rng, d3, 3)
            if _det(rows) != 0:
                break
        ybox = [(0.0, round(rng.uniform(0.5, 1.2), 3)) for _ in range(3)]
        c = _num(rng, 0.3, 1.5)
        expr = [f"x1*x2*x3 + {c}*x3^2", f"(x1 + {c}*x2)*x3^2",
                f"x1*x2 + {c}*x3^2*x1", f"{c}*x1^2*x2 - x2*x3"][idx % 4]
        jobs.append(_l2_job(workdir, f"l2b{idx}", "approx l2, 3-D", expr,
                            rows[:r], rows[r:], ybox, 6))
    quartic = ("8*x1*x2*x3*x4 - (x1^4+x2^4+x3^4+x4^4) + 2*(x1^2*x2^2+x1^2*x3^2"
               "+x1^2*x4^2+x2^2*x3^2+x2^2*x4^2+x3^2*x4^2)")
    dirs4 = [(1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1)]
    comp4 = [(-1, 1, 1, 1)]
    for idx in range(4):
        ybox = [(0.0, round(rng.uniform(0.6, 1.2), 3)) for _ in range(4)]
        c = _num(rng, 0.3, 1.0)
        expr = [f"x1*x2*x4 + {c}*x3^2", f"x1*x2*x3 + {c}*x4^2",
                f"{c}*x1*x2^2 + x3*x4", f"{c}*x1^2*x2 - x3*x4^2"][idx]
        jobs.append(_l2_job(workdir, f"l2c{idx}", "approx l2, 4-D", expr, dirs4,
                            comp4, ybox, 5))
    jobs.append(_l2_job(workdir, "l2q", "approx l2, 4-D closed form", quartic,
                        dirs4, comp4, [(0.0, 1.0)] * 4, 5,
                        exact=94 ** 0.5 / 576))
    jobs.append(_l2_job(workdir, "l2w", "approx l2, weighted", "exp(x1)",
                        [(1,)], [], [(0.0, 1.0)], 8, weights=["1+x1"]))
    # enough of these cheap jobs that the median job falls among them, not
    # at the step up to the next, dearer kind
    shapes = ["hexagon"] * 17 + ["octagonA"] * 13 + ["octagonB"] * 13 \
        + ["stairs"] * 12
    for idx, shape in enumerate(shapes):
        expr = _class_function(rng)
        if shape == "hexagon":
            geom = {"a": _breaks(rng, 3), "b": _breaks(rng, 3)}
        elif shape.startswith("octagon"):
            geom = {"a": _breaks(rng, 4), "b": _breaks(rng, 3)}
        else:
            n = 3 + idx % 3
            geom = {"a": _breaks(rng, n), "b": _breaks(rng, n)}
        golomb = None
        if shape == "hexagon" and idx >= 12:
            k = (3, 3, 4, 4, 5)[idx - 12]
            xs, ys = _breaks(rng, k), _breaks(rng, k)
            golomb = [(x, y) for x in xs for y in ys]
            expr = f"{_num(rng, 0.5, 2.0)}*x1*x2 + {_num(rng, -1, 1)}*x2^2"
        jobs.append(_bolts_job(workdir, f"b{idx}", shape, expr, geom,
                               bounds=(shape == "hexagon" and idx % 2 == 0),
                               golomb=golomb))
    for idx in range(7):
        a1, a2 = _num(rng, -1, 1), _num(rng, -1, 1)
        rect = [a1, round(a1 + rng.uniform(0.5, 2.0), 3),
                a2, round(a2 + rng.uniform(0.5, 2.0), 3)]
        cls = "V" if idx % 2 == 0 else "U"
        amp = _num(rng, 0.5, 2.0) * (1 if cls == "V" else -1)
        # x2 * sin(...) has its mixed derivative change sign at the peak of
        # the sine, the midpoint c: V-class for amp > 0, U-class for amp < 0
        expr = (f"({amp})*x2*sin(pi*(x1 - ({rect[0]}))/{rect[1] - rect[0]!r})"
                f" + ({_num(rng, -1, 1)})*sin(x1) + ({_num(rng, -1, 1)})*x2^2")
        c = (rect[0] + rect[1]) / 2
        jobs.append(_bolts_job(workdir, f"r{idx}", "rect", expr,
                               {"rect": rect}, rect_class=(cls, c)))
    sm_dirs = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2)]
    gens = ["sin({c}*t)", "exp({c}*t)", "cos({c}*t)", "{c}*t^3", "{c}*t^2"]
    for idx, count in enumerate([3, 3, 3, 4, 4, 5, 3, 3]):
        dirs = _pick_from(rng, sm_dirs, count)
        parts = []
        for i, (a, b) in enumerate(dirs):
            g = gens[(idx + i) % len(gens)].format(c=_num(rng, 0.3, 1.2))
            parts.append(g.replace("t", _lin(a, b)))
        expr = " + ".join(parts)
        box = (-1, 1, -1, 1) if idx % 2 == 0 else \
            (_num(rng, -1, 0), _num(rng, 0.5, 1.5), _num(rng, -1, 0), _num(rng, 0.5, 1.5))
        jobs.append(_smooth_job(workdir, f"sm{idx}", expr, dirs, box))
    return jobs


def _pick_from(rng, pool, count):
    while True:
        dirs = rng.sample(pool, count)
        if _independent(dirs):
            return dirs


def _smooth_job(workdir, name, expr, dirs, box):
    dfile = os.path.join(workdir, f"{name}-dirs.csv")
    write_csv(dfile, dirs)
    argv = ["smooth", "decompose", "--expr", expr, "--dirs", dfile,
            "--box", *box, "--crosscheck"]
    f = checks.np_function(expr, 2)
    bx = ((box[0], box[1]), (box[2], box[3]))
    X, Y = np.meshgrid(np.linspace(box[0], box[1], 9), np.linspace(box[2], box[3], 9))
    scale = 1.0 + float(np.max(np.abs(f(X, Y))))
    return cli_job(f"smooth decompose --crosscheck, {len(dirs)} directions", argv,
                   lambda rep: checks.check_smooth(rep["results"], f, dirs, bx, scale))


def build(workload, seed, workdir):
    """The workload's job list.  sigmoid-eval fits its networks here, so
    that work is part of set-up."""
    if workload == "cycles-exact":
        return cycles_jobs(seed, workdir)
    if workload == "sigmoid-fit":
        return fit_jobs(seed, workdir)
    if workload == "sigmoid-eval":
        return eval_jobs(seed, workdir, fit_networks(seed))
    if workload == "approx-float":
        return approx_jobs(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
