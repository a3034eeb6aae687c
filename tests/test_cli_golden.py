"""Golden CLI outputs: `cycles check`, `approx uniform`, `approx l2`, the
`bolts` commands, `smooth decompose`, and `sigmoid eval` and `sigmoid fit`,
compared with reports recorded in ``tests/data/cli_golden.json``.

Each case writes its input files to a temporary directory and runs
``ridgekit.cli.main``.  The exit code and the ``results`` (or, on a domain
error, ``error``) object are compared with the recording: strings, integers
and booleans exactly, floats to a relative tolerance of 1e-12.  The
``command`` and ``inputs_digest`` fields name temporary paths and
``timing_seconds`` is a clock reading, so none of them is recorded.

To re-record after an intended change of output::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile

import pytest

from ridgekit.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "cli_golden.json")

AXES2 = "1,0\n0,1\n"
AXES3 = "1,0,0\n0,1,0\n0,0,1\n"


def _csv(rows):
    return "".join(",".join(str(v) for v in row) + "\n" for row in rows)


def _cycles(points, dirs, fvals=None, flags=("--minimal", "--tau")):
    files = {"points.csv": _csv(points), "dirs.csv": dirs}
    argv = ["cycles", "check", "--points", "{points.csv}",
            "--directions", "{dirs.csv}", *flags]
    if fvals is not None:
        files["f.csv"] = _csv([[v] for v in fvals])
        argv += ["--solve", "{f.csv}"]
    return files, argv


def _uniform(expr, dirs, bounds, extra=()):
    return {}, ["approx", "uniform", "--expr", expr,
                "--dirs", *map(str, dirs), "--bounds", *map(str, bounds),
                *extra]


def _l2(expr, ybox, extra=(), dirs="0,2\n1,1\n", comp=None, nodes=12):
    files = {"dirs.csv": dirs, "ybox.json": json.dumps(ybox)}
    argv = ["approx", "l2", "--expr", expr, "--dirs-file", "{dirs.csv}",
            "--ybox", "{ybox.json}", "--nodes", str(nodes), *extra]
    if comp is not None:
        files["comp.csv"] = comp
        argv += ["--completion-file", "{comp.csv}"]
    return files, argv


def _smooth(expr, dirs, box):
    return {"dirs.csv": dirs}, ["smooth", "decompose", "--expr", expr,
                                "--dirs", "{dirs.csv}",
                                "--box", *map(str, box), "--crosscheck"]


def _bolts(shape, expr, geom, extra=()):
    files = {"geom.json": json.dumps(geom)}
    return files, ["bolts", shape, "--expr", expr, "--geom", "{geom.json}",
                   *extra]


def _sigmoid_eval(d, lam, xs):
    return {}, ["sigmoid", "eval", "--d", str(d), "--lambda", str(lam),
                "--x", *map(repr, xs)]


def _sigmoid_fit(expr, a, b, eps):
    return {}, ["sigmoid", "fit", "--expr", expr, "--interval", str(a), str(b),
                "--eps", str(eps)]


H = "1/2"
# a cycle-free staircase, a 2x3 grid (nullity 2), a skew pair carrying a
# 6-point grid of fibers and a tree along it, three directions in the
# plane, the two seven-point sets of acceptance criterion 06, a 3-D tree
# along three directions and a 3-D set along two directions
STAIR = [(0, 0), (0, 1), (1, 1), (1, 3), (4, 3)]
GRID23 = [(x, y) for x in (0, 1) for y in (0, 1, 2)]
SKEW = "1,2\n1,-1\n"
SKEW_GRID = [(0, 0), (2, -1), (1, 1), (3, 0), (2, 2), (4, 1), (7, 1)]
SKEW_TREE = [(0, 0), (2, -1), (1, 1), (4, 1)]
PLANE3 = "1,0\n0,1\n1,1\n"
HEX6 = [(1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (1, 1)]
PLANE3_TREE = [(0, 0), (1, 0), (0, 2), (3, 1)]
X7 = [(0, 0, H), (H, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0), (H, H, 0),
      (H, H, H)]
X7_PUB = [X7[0], (0, 0, 1)] + X7[2:]
TREE3 = [(0, 0, 0), (1, 0, 0), (1, 2, 0), (1, 2, 3), (5, 2, 3)]
SPACE2 = "1,0,0\n0,1,1\n"
SPACE2_SET = [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
              (3, 3, 3)]
# without --minimal the report keeps the canonical has_cycle certificate:
# grids of nullity 2, 3 and 4, and the six-point set of criterion 06
GRID24 = [(x, y) for x in (0, 1) for y in (0, 1, 2, 3)]
GRID33 = [(x, y) for x in (0, 1, 2) for y in (0, 1, 2)]
L6 = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1), (0, 1, 1)]

HEX_GEOM = {"a": [0, 1, 2], "b": [0, 1, 2]}
OCT_GEOM = {"a": [0, 1, 2, 3], "b": [0, 1, 2]}
STAIR_GEOM = {"a": [0, 1, 2, 3], "b": [0, 1, 2, 3]}
INSIDE = "x1*x2 + exp(x1/4)*x2"      # nonnegative mixed differences
OUTSIDE = "sin(3*x1)*cos(2*x2)"      # fails the class check
# the closed form along the axes and along the skew pair y1 = 2*x1 + x2,
# y2 = x1 - x2 (a positive mixed derivative in y), the LP fallback along
# the axes, and the V and U classes of a rectangle split at its midpoint
UNI_AXES = "x1*x2 + 0.5*exp(0.3*x1 + 0.2*x2)"
UNI_SKEW = ("1.3*(2*x1 + x2)*(x1 - x2)"
            " + 0.4*exp(0.5*(2*x1 + x2) + 0.3*(x1 - x2))")
UNI_LP = "0.9*sin(3*x1 + 0.4)*cos(4*x2)"
RECT_GEOM = {"rect": [-0.5, 1.0, 0.0, 1.5]}
RECT_V = "1.2*x2*sin(pi*(x1 + 0.5)/1.5) + 0.3*sin(x1) - 0.2*x2^2"
RECT_U = "(-0.8)*x2*sin(pi*(x1 + 0.5)/1.5) + 0.3*sin(x1) - 0.2*x2^2"

# a 3-D r-set of two directions and a completion, and the 4-D quartic of
# two-plane geometry, whose error along these three directions is
# sqrt(94)/576
L2_3D = "x1*x2*x3 + 0.7*x3^2 + sin(x1 - x3)"
QUARTIC = ("8*x1*x2*x3*x4 - (x1^4+x2^4+x3^4+x4^4) + 2*(x1^2*x2^2+x1^2*x3^2"
           "+x1^2*x4^2+x2^2*x3^2+x2^2*x4^2+x3^2*x4^2)")
# ridge sums of transcendental generators along 3 and 5 skew directions
SMOOTH3 = "sin(0.8*(x1 + 2*x2)) + exp(0.5*(x1 - x2)) + cos(2*x1 + x2)"
SMOOTH5 = ("sin(0.8*(x1 + 2*x2)) + exp(0.5*(x1 - x2)) + cos(2*x1 + x2)"
           " + 0.6*(x1 - 2*x2)^3 + exp(0.3*(x1 + x2))")

# sigma with d = 0.5: the left tail (x < d), main parts of segments 1, 5,
# 77 and 2,469, the first and second half of the transition from segment 5
# to 6 ((5, 5.25] and (5.25, 5.5]) and from 77 to 78; with d = 0.1, points
# whose x/d overflows, beside a left-tail, a main and a transition point
SIGMA_PARTS = [-3.0, 0.2, 0.75, 4.8, 5.1, 5.4, 76.9, 77.1, 77.45, 2468.7]
SIGMA_OVERFLOW = [1.7e308, 0.05, 3.33, 1e308, 4.03, 1.7e308]
# the exact polynomial path and the Chebyshev path of sigmoid fit
FIT_POLY = "x1^3 - x1/2 + 1/3"
FIT_CHEB = "sqrt(1 + x1)"

CASES = {
    "cycles-stair-axes-solve": _cycles(STAIR, AXES2, [H, 3, -2, "7/3", 0]),
    "cycles-grid23-axes": _cycles(GRID23, AXES2),
    "cycles-grid23-axes-solve": _cycles(GRID23, AXES2, [1, 2, 3, 4, 5, 6]),
    "cycles-skew-grid": _cycles(SKEW_GRID, SKEW),
    "cycles-skew-tree-solve": _cycles(SKEW_TREE, SKEW, [1, "-5/2", 4, 0]),
    "cycles-plane3-hex": _cycles(HEX6, PLANE3),
    "cycles-plane3-tree-solve": _cycles(PLANE3_TREE, PLANE3,
                                        ["2/3", -1, 5, 8]),
    "cycles-x7-axes3-solve": _cycles(X7, AXES3, [1, 2, 3, 4, 5, 6, "1/7"]),
    "cycles-x7pub-axes3": _cycles(X7_PUB, AXES3),
    "cycles-tree3-axes3-solve": _cycles(TREE3, AXES3, [3, 1, 4, 1, "5/9"]),
    "cycles-space2": _cycles(SPACE2_SET, SPACE2),
    "cycles-space2-plain": _cycles(SPACE2_SET, SPACE2, flags=()),
    "cycles-grid23-axes-plain": _cycles(GRID23, AXES2, flags=()),
    "cycles-grid24-axes-plain": _cycles(GRID24, AXES2, flags=()),
    "cycles-grid33-axes-plain": _cycles(GRID33, AXES2, flags=()),
    "cycles-l6-axes3-plain": _cycles(L6, AXES3, flags=()),
    "l2-skew": _l2("exp(x1*x2)", [[0, 1], [0, 1]]),
    "l2-skew-box": _l2("cos(x1 - 2*x2) + x1^2*x2", [[-1, 2], [0, 3]]),
    "l2-weighted-1d": _l2("exp(x1)", [[0, 1]], dirs="1\n",
                          extra=("--weights", "1+x1")),
    "l2-rset3d-completion": _l2(L2_3D, [[0, 1], [-0.5, 0.7], [0, 1.1]],
                                dirs="1,1,0\n0,1,1\n", comp="1,0,1\n",
                                nodes=8),
    "l2-quartic-4d": _l2(QUARTIC, [[0, 1]] * 4,
                         dirs="1,1,1,-1\n1,1,-1,1\n1,-1,1,1\n",
                         comp="-1,1,1,1\n", nodes=5),
    "smooth-skew3-crosscheck": _smooth(SMOOTH3, "1,2\n1,-1\n2,1\n",
                                       (-1, 1, -0.5, 1.2)),
    "smooth-skew5-crosscheck": _smooth(
        SMOOTH5, "1,2\n1,-1\n2,1\n1,-2\n1,1\n", (-0.8, 1, -1, 0.6)),
    "uniform-axes-closed": _uniform(UNI_AXES, (1, 0, 0, 1), (0, 1, -0.5, 1.5)),
    "uniform-skew-closed-verify": _uniform(
        UNI_SKEW, (2, 1, 1, -1), (-0.5, 1, 0, 1.2),
        extra=("--verify", "--ds-iters", "10")),
    "uniform-axes-lp": _uniform(UNI_LP, (1, 0, 0, 1), (-0.6, 0.5, -0.7, 0.4)),
    "bolts-rect-V": _bolts("rect", RECT_V, RECT_GEOM,
                           extra=("--class", "V", "--c", "0.25")),
    "bolts-rect-U": _bolts("rect", RECT_U, RECT_GEOM,
                           extra=("--class", "U", "--c", "0.25")),
    "bolts-hexagon-inside": _bolts("hexagon", INSIDE, HEX_GEOM,
                                   extra=("--bounds",)),
    "bolts-hexagon-outside": _bolts("hexagon", OUTSIDE, HEX_GEOM),
    "bolts-octagonA-inside": _bolts("octagonA", INSIDE, OCT_GEOM),
    "bolts-octagonA-outside": _bolts("octagonA", OUTSIDE, OCT_GEOM),
    "bolts-octagonB-inside": _bolts("octagonB", INSIDE, OCT_GEOM),
    "bolts-octagonB-outside": _bolts("octagonB", OUTSIDE, OCT_GEOM),
    "bolts-stairs-inside": _bolts("stairs", INSIDE, STAIR_GEOM),
    "bolts-stairs-outside": _bolts("stairs", OUTSIDE, STAIR_GEOM),
    "sigmoid-eval-parts": _sigmoid_eval(0.5, 0.25, SIGMA_PARTS),
    "sigmoid-eval-overflow": _sigmoid_eval(0.1, 0.4, SIGMA_OVERFLOW),
    "sigmoid-fit-poly": _sigmoid_fit(FIT_POLY, 0, 1, 1e-6),
    "sigmoid-fit-chebyshev": _sigmoid_fit(FIT_CHEB, 0, 1, 0.1),
}


def run_case(name, workdir):
    """Exit code and results (or error) object of one case."""
    files, argv = CASES[name]
    paths = {}
    for fname, text in files.items():
        path = os.path.join(workdir, fname)
        with open(path, "w") as fh:
            fh.write(text)
        paths[fname] = path
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([paths[a[1:-1]] if a.startswith("{") else a for a in argv])
    report = json.loads(out.getvalue())
    return {"exit": code,
            "results": report.get("results"),
            "error": report.get("error")}


def assert_same(got, want, where="$"):
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=1e-12), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), \
            f"{where}: keys {sorted(got) if isinstance(got, dict) else got}"
        for k in want:
            assert_same(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), \
            f"{where}: length {len(got) if isinstance(got, list) else got}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, \
            f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden():
    with open(DATA) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_recording(name, golden, tmp_path):
    assert_same(run_case(name, str(tmp_path)), golden[name])


def test_every_recording_has_a_case(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    recorded = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            recorded[case] = run_case(case, tmp)
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"recorded {len(recorded)} cases in {DATA}\n")
