"""Command-line front end: machine-readable JSON/CSV access to every module.

Exit codes: 0 success, 1 domain error (a representation obstruction, a
violated class hypothesis, ...), 2 usage error (bad arguments, an input file
that cannot be read), 141 standard output closed by its reader, after which
nothing more is written (128 + SIGPIPE, the code a shell reports for it).

Options are read as argparse reads them: ``--opt value`` or
``--opt=value``, any unique prefix of an option, the last value of an
option given twice, and negative numbers and ``-inf`` as values.  Usage
errors, ``-h`` and ``--version`` come from argparse.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .core import (
    DirectionSet,
    PointConfig,
    UnivariateTable,
    _decode_text,
    _frac,
    _read_csv_rows,
    max_cycle_mean,
    parse_expression,
)
from .cycles import (
    Fibers,
    closed_path_search,
    has_cycle,
    minimal_cycles,
    orbits,
    solve_representation,
    tau_closure,
)
from .uniform import (
    DS_N,
    HypothesisViolated,
    ParallelogramDomain,
    best_uniform,
    diliberto_straus,
    verify_extremal,
)
from .l2 import best_l2, build_rset
from .bolts import (
    AxisRect,
    Hexagon,
    Octagon,
    StairPolygon,
    golomb_lower_bound,
    polygon_error,
    sharp_bounds,
    uc_best,
    vc_best,
)
from .smooth import DecompProblem, crosscheck_highorder, decompose, tabulate
from .sigmoid import (
    SigmoidParams,
    _log10_abs,
    _scientific,
    fit_two_neuron,
    sigma,
)

# CycleExists, ClassViolated, HypothesisViolated and NotAnRSet are
# ValueErrors
DOMAIN_ERRORS = (
    ArithmeticError,
    ValueError,
    Warning,    # raised as an exception under ``python -W error``
)
_CLOSED_PIPE = 141
_MAX_TABLE_ROWS = 1_000_000     # of `sigmoid table`


# ---------------------------------------------------------------------------
# serialization helpers

def _table(tab, stride=1):
    return {
        "knots": tab.knots[::stride].tolist(),
        "values": tab.values[::stride].tolist(),
    }


def _read_input(args, path):
    """The bytes of an input file, kept for the digest of the report."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.readall()
    args._inputs.append(data)
    return data


def _read_rows(args, path):
    return _read_csv_rows(_read_input(args, path), path)


def _read_json(args, path):
    return json.loads(_decode_text(_read_input(args, path)))


def _digest(args):
    """A hash of the options and of the input files, in the order the
    command read them."""
    h = hashlib.sha256()
    flags = sorted((k, v) for k, v in vars(args).items()
                   if k not in ("func", "_argv", "_inputs"))
    h.update(repr(flags).encode())
    for data in args._inputs:
        h.update(data)
    return h.hexdigest()[:16]


def _print_report(args, **fields):
    """Print the JSON report; a NaN or infinity in it, which strict JSON
    cannot carry, is a domain error that names its field."""
    report = {"schema": 1, "version": __version__,
              "command": " ".join(args._argv), **fields}
    try:
        text = _json_text(report)
    except ValueError:
        field = _non_finite_field(report)
        raise ValueError(f"{field} is not finite") from None
    print(text)


_encode = json.JSONEncoder(allow_nan=False).encode


def _float_text(value):
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not JSON")
    return float.__repr__(value)


# the text of each scalar of these exact types, as JSONEncoder writes it
_SCALAR_TEXT = {
    float: _float_text,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
    str: json.encoder.encode_basestring_ascii,
}


@functools.cache
def _numbers_text(inner):
    """The writer of a list of plain ints and floats with one item a line
    at indent ``inner``: one C encoder, whose item separator carries the
    newline and the indent."""
    encoder = json.encoder.c_make_encoder(
        None, None, json.encoder.encode_basestring_ascii, None, ": ",
        ",\n" + inner, False, False, False)
    return lambda value: "".join(encoder(value, 0))


def _json_text(value):
    """``json.dumps(value, sort_keys=True, indent=2, allow_nan=False)``, for
    string keys.  With an indent ``json`` falls back to its pure-Python
    encoder, so here the text is written in one pass and joined once:
    each scalar by its exact type (any other type by ``JSONEncoder``),
    each list of plain ints and floats by ``_numbers_text``, and dicts
    and mixed lists walked in Python."""
    out = []
    _write_json(value, "", out)
    return "".join(out)


def _write_json(value, indent, out):
    """Append the chunks of ``value`` at ``indent`` to ``out``."""
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        out.append(text(value))
        return
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n" + inner)
        for k, (key, v) in enumerate(sorted(value.items())):
            if k:
                out.append(",\n" + inner)
            out.append(_SCALAR_TEXT.get(type(key), _encode)(key) + ": ")
            _write_json(v, inner, out)
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
        elif set(map(type, value)) <= {float, int}:
            out.append("[\n" + inner + _numbers_text(inner)(value)[1:-1]
                       + "\n" + indent + "]")
        else:
            out.append("[\n" + inner)
            for k, v in enumerate(value):
                if k:
                    out.append(",\n" + inner)
                _write_json(v, inner, out)
            out.append("\n" + indent + "]")
    else:
        out.append(_encode(value))


def _non_finite_field(value, path=""):
    """The dotted path of the first NaN or infinity in a report, or None."""
    if isinstance(value, dict):
        items = [(f"{path}.{k}" if path else k, v)
                 for k, v in sorted(value.items())]
    elif isinstance(value, (list, tuple)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        finite = not isinstance(value, float) or math.isfinite(value)
        return None if finite else path
    return next(filter(None, (_non_finite_field(v, p) for p, v in items)),
                None)


def _emit_error(args, exc, code):
    """The JSON error report of a domain error (1) or unreadable input (2)."""
    _print_report(args, error={"type": type(exc).__name__, "message": str(exc)})
    return code


# ---------------------------------------------------------------------------
# subcommands

def _cmd_cycles_check(args):
    rows = _read_rows(args, args.points)
    points = PointConfig(len(rows[0]), rows)
    h = DirectionSet(points.dim, _read_rows(args, args.directions))
    fib = Fibers(points, h)
    # --minimal lists the minimal cycles in place of has_cycle's certificate
    found, cert = ((bool(fib.nullspace), None) if args.minimal
                   else has_cycle(fib))
    results = {"has_cycle": found}
    certs = [] if cert is None else [cert]
    if args.minimal:
        certs, results["minimal_exhausted"] = minimal_cycles(fib, cap=args.cap)
    results["certificates"] = [{"support": c.support, "weights": c.weights}
                               for c in certs]
    if args.tau:
        trace, fixed = tau_closure(fib)
        results["tau_trace"] = trace
        results["tau_fixed_point"] = fixed
        if len(h) == 2:
            results["orbits"] = orbits(fib)
            results["closed_path"] = closed_path_search(fib)
    if args.solve:
        fvals = [row[0] for row in _read_rows(args, args.solve)]
        tables, free = solve_representation(fib, f_values=fvals,
                                            anchor=args.anchor)
        results["representation"] = {
            "free_unknowns": free,
            "tables": [
                {_frac(k): _frac(v) for k, v in tab.items()}
                for tab in tables
            ],
        }
    return results


def _cmd_approx_uniform(args):
    f = parse_expression(args.expr, 2)
    dom = ParallelogramDomain(args.dirs[:2], args.dirs[2:], *args.bounds)
    try:
        pair = best_uniform(f, dom)
        sample = UnivariateTable.sample
        results = {
            "error": pair.error,
            "method": "closed form",
            "g1_table": _table(sample(pair.g1, dom.c1, dom.d1)),
            "g2_table": _table(sample(pair.g2, dom.c2, dom.d2)),
        }
        if args.verify:
            rep = verify_extremal(f, pair, dom)
            results["witness_path"] = rep.get("witness")
            results["verified"] = rep["verdict"]
    except HypothesisViolated:
        # the exact minimax on the pulled-back grid of diliberto_straus:
        # each fiber is one grid row or column, whatever the directions
        g = dom.grid(DS_N)
        F = f(g.X, g.Y)
        err, _ = max_cycle_mean(*np.indices(F.shape).reshape(2, -1), F)
        results = {"error": err, "method": "numerical (no closed form)"}
    if args.ds_iters:
        norms, tables = diliberto_straus(f, dom, iters=args.ds_iters)
        results["ds_norms"] = [float(v) for v in norms]
        results["ds_g1_table"] = _table(tables[0])
        results["ds_g2_table"] = _table(tables[1])
    return results


def _cmd_approx_l2(args):
    dirs = _read_rows(args, args.dirs_file)
    comp = []
    if args.completion_file:
        data = _read_input(args, args.completion_file)
        if data:
            comp = _read_csv_rows(data, args.completion_file)
    ybox = [tuple(b) for b in _read_json(args, args.ybox)]
    n = len(dirs[0])
    f = parse_expression(args.expr, n)
    t = build_rset(dirs, comp, ybox)
    weights = None
    if args.weights:
        weights = [parse_expression(w, n) for w in args.weights]
    sol = best_l2(f, t, weights=weights, nodes=args.nodes)
    results = {
        "error": sol.error,
        "components": [_table(g) for g in sol.components],
        "diagnostics": {k: float(v) for k, v in sol.diagnostics.items()
                        if np.isscalar(v)},
    }
    return results


def _geometry(geom, key, size=None):
    """``geom[key]`` of a geometry file: a list of numbers, ``size`` of them
    when given.  A missing or malformed key raises ValueError naming it."""
    value = geom.get(key) if isinstance(geom, dict) else None
    if value is None:
        raise ValueError(f"geometry has no key {key!r}")
    if (not isinstance(value, list) or size not in (None, len(value))
            or not all(type(v) in (int, float) for v in value)):
        count = f"{size} " if size else ""
        raise ValueError(f"geometry key {key!r} must be a list of {count}"
                         f"numbers, got {json.dumps(value)}")
    return value


def _cmd_bolts(args):
    geom = _read_json(args, args.geom)
    f = parse_expression(args.expr, 2)
    results = {}
    if args.shape == "rect":
        R = AxisRect(*_geometry(geom, "rect", 4))
        fn = vc_best if args.cls == "V" else uc_best
        err, phi0, psi0, y0 = fn(f, R, args.c)
        results.update({
            "error": float(err),
            "y0": float(y0),
            "extremal": {
                "phi0_table": _table(phi0.table),
                "psi0_table": _table(psi0.table),
            },
        })
    else:
        a, b = _geometry(geom, "a"), _geometry(geom, "b")
        if args.shape == "hexagon":
            P = Hexagon(a, b)
        elif args.shape in ("octagonA", "octagonB"):
            P = Octagon(a, b, args.shape[-1])
        else:
            P = StairPolygon(a, b)
        rep = polygon_error(f, P)
        results.update({
            "error": float(rep["error"]),
            "bolts": [
                {"points": [[float(p[0]), float(p[1])] for p in b.points],
                 "value": float(v)}
                for b, v in zip(rep["bolts"], rep["values"])
            ],
            "fallback": rep["fallback"],
            "extremal_bolt": [[float(p[0]), float(p[1])]
                              for p in rep["bolt"].points],
        })
        if getattr(args, "bounds", False):   # hexagon alone takes --bounds
            bd = sharp_bounds(f, P)
            results["bounds"] = {
                "lower": float(bd["lower"]),
                "upper": float(bd["upper"]),
            }
    if args.golomb:
        pts = _read_rows(args, args.golomb)
        results["golomb_lower_bound"] = float(golomb_lower_bound(f, pts))
    return results


def _cmd_smooth(args):
    dirs = [tuple(float(v) for v in row) for row in _read_rows(args, args.dirs)]
    f = parse_expression(args.expr, 2)
    box = ((args.box[0], args.box[1]), (args.box[2], args.box[3]))
    problem = DecompProblem(f, dirs, box)
    result = decompose(problem)
    tables = tabulate(result, problem)
    results = {
        "residual": result.residual,
        "g_tables": [_table(t, stride=4) for t in tables],
        "derivatives": result.meta["derivatives"],
    }
    if args.crosscheck:
        check = crosscheck_highorder(problem)
        results["convergence_study"] = {"residual": check.residual}
    return results


def _cmd_sigmoid_eval(args):
    params = SigmoidParams(args.d, args.lam)
    vals = [float(v) for v in sigma(args.x, params)]
    results = {"sigma": vals[0] if len(vals) == 1 else vals}
    return results


def _cmd_sigmoid_table(args):
    params = SigmoidParams(args.d, args.lam)
    for flag, value in (("--from", args.start), ("--to", args.stop),
                        ("--step", args.step)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value!r}")
    if not args.step > 0:
        raise ValueError(f"--step must be > 0, got {args.step!r}")
    start, stop, step = args.start, args.stop, args.step
    if stop < start:
        raise ValueError(f"--to {stop!r} is below --from {start!r}")
    if start + step == start:
        raise ValueError(f"--step {step!r} does not move x from --from "
                         f"{start!r}")
    # the row count, known before anything is allocated: --to is a row
    # when (to - from)/step is an integer up to the rounding of the three
    # values and of the quotient, at most 2^-51 (|from| + |to|)/step, and
    # never more than half a step
    slack = min((abs(start) + abs(stop)) / step * 2.0 ** -51, 0.5)
    rows = np.floor((stop - start) / step + slack) + 1.0
    if rows > _MAX_TABLE_ROWS:
        raise ValueError(f"the table would have {rows:.0f} rows, more than "
                         f"the maximum of {_MAX_TABLE_ROWS}")
    # np.arange's own x values; with its stop a step past --to it makes at
    # least those rows, and the slice drops the one or two past them
    xs = np.arange(start, stop + step, step)[:int(rows)]
    print("x,sigma")
    for x, v in zip(xs, sigma(xs, params)):
        print(f"{float(x):g},{float(v):.5f}")


def _cmd_sigmoid_fit(args):
    f = parse_expression(args.expr, 1)
    a, b = args.interval
    net, achieved = fit_two_neuron(f, a, b, args.eps)
    theta1 = net.theta1_exact            # formed once, a big Fraction
    l10 = _log10_abs(theta1)
    exact = theta1.denominator == 1 and abs(l10) < 4000
    results = {
        "c1": float(net.c1),
        "c2": float(net.c2),
        "n": str(net.n),
        "theta1": {"decimal": _scientific(theta1, l10),
                   "exact": _frac(theta1) if exact else None},
        "theta2": _frac(net.theta2),
        "achieved_error": float(achieved),
    }
    return results


# ---------------------------------------------------------------------------
# parser

def _count(text):
    """An option value that counts something: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def _build_parser():
    p = argparse.ArgumentParser(
        prog="ridgekit",
        description="Ridge-function approximation toolkit",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("cycles", help="representability tests")
    csub = pc.add_subparsers(dest="subcommand", required=True)
    cc = csub.add_parser("check", help="cycle detection and representation")
    cc.add_argument("--points", required=True)
    cc.add_argument("--directions", required=True)
    cc.add_argument("--minimal", action="store_true")
    cc.add_argument("--cap", type=_count, default=10)
    cc.add_argument("--tau", action="store_true")
    cc.add_argument("--solve", default=None)
    cc.add_argument("--anchor", type=int, default=0)
    cc.set_defaults(func=_cmd_cycles_check)

    pa = sub.add_parser("approx", help="best approximations")
    asub = pa.add_subparsers(dest="subcommand", required=True)
    au = asub.add_parser("uniform", help="uniform-norm best ridge pair")
    au.add_argument("--expr", required=True)
    au.add_argument("--dirs", nargs=4, type=float, required=True,
                    metavar=("A1X", "A1Y", "B1X", "B1Y"))
    au.add_argument("--bounds", nargs=4, type=float, required=True,
                    metavar=("C1", "D1", "C2", "D2"))
    au.add_argument("--verify", action="store_true")
    au.add_argument("--ds-iters", type=_count, default=0)
    au.set_defaults(func=_cmd_approx_uniform)
    al = asub.add_parser("l2", help="L2-norm best ridge sum")
    al.add_argument("--expr", required=True)
    al.add_argument("--dirs-file", required=True)
    al.add_argument("--completion-file", default=None)
    al.add_argument("--ybox", required=True)
    al.add_argument("--weights", nargs="+", default=None)
    al.add_argument("--nodes", type=int, default=24)
    al.set_defaults(func=_cmd_approx_l2)

    pb = sub.add_parser("bolts", help="bolt-based error formulas")
    bsub = pb.add_subparsers(dest="shape", required=True)
    for shape in ("rect", "hexagon", "octagonA", "octagonB", "stairs"):
        bp = bsub.add_parser(shape)
        bp.add_argument("--expr", required=True)
        bp.add_argument("--geom", required=True)
        if shape == "rect":
            bp.add_argument("--class", dest="cls", choices=("V", "U"),
                            required=True)
            bp.add_argument("--c", type=float, default=0.0)
        if shape == "hexagon":
            bp.add_argument("--bounds", action="store_true")
        bp.add_argument("--golomb", default=None)
        bp.set_defaults(func=_cmd_bolts)

    ps = sub.add_parser("smooth", help="smooth ridge decompositions")
    ssub = ps.add_subparsers(dest="subcommand", required=True)
    sd = ssub.add_parser("decompose")
    sd.add_argument("--expr", required=True)
    sd.add_argument("--dirs", required=True)
    sd.add_argument("--box", nargs=4, type=float, required=True,
                    metavar=("X0", "X1", "Y0", "Y1"))
    sd.add_argument("--crosscheck", action="store_true")
    sd.set_defaults(func=_cmd_smooth)

    pg = sub.add_parser("sigmoid", help="universal sigmoidal activation")
    gsub = pg.add_subparsers(dest="subcommand", required=True)
    ge = gsub.add_parser("eval")
    ge.add_argument("--d", type=float, required=True)
    ge.add_argument("--lambda", dest="lam", type=float, required=True)
    ge.add_argument("--x", type=float, nargs="+", required=True)
    ge.set_defaults(func=_cmd_sigmoid_eval)
    gt = gsub.add_parser("table")
    gt.add_argument("--d", type=float, required=True)
    gt.add_argument("--lambda", dest="lam", type=float, required=True)
    gt.add_argument("--from", dest="start", type=float, required=True)
    gt.add_argument("--to", dest="stop", type=float, required=True)
    gt.add_argument("--step", type=float, required=True)
    gt.set_defaults(func=_cmd_sigmoid_table)
    gf = gsub.add_parser("fit")
    gf.add_argument("--expr", required=True)
    gf.add_argument("--interval", nargs=2, type=float, required=True,
                    metavar=("A", "B"))
    gf.add_argument("--eps", type=float, required=True)
    gf.set_defaults(func=_cmd_sigmoid_fit)
    # each two-word command's own parser, with the attribute its middle
    # level sets: (command, name) -> (dest, parser)
    p.leaves = {(command, name): (action.dest, leaf)
                for command, middle in sub.choices.items()
                for action in middle._actions
                if isinstance(action, argparse._SubParsersAction)
                for name, leaf in action.choices.items()}
    # every parser reads "-1e2", "-.5" and "-inf" as numbers, not as
    # options, so that a leaf and the full tree read a valid command alike,
    # and a non-finite value is refused as "inf" is
    negative_number = re.compile(r"-\.?\d|-(inf|infinity|nan)$",
                                 re.IGNORECASE)
    for parser in (p, *sub.choices.values(),
                   *(leaf for _, leaf in p.leaves.values())):
        parser._negative_number_matcher = negative_number
    return p


@functools.cache
def _option_strings():
    """Every option string of the parser and of its subparsers: a middle
    level's only options, -h and --help, are every leaf's too."""
    parser = _build_parser()
    leaves = [leaf for _, leaf in parser.leaves.values()]
    return {option for p in [parser, *leaves] for action in p._actions
            for option in action.option_strings}


def _attach_expr_values(argv):
    """``--expr -x1^2`` as ``--expr=-x1^2``: argparse reads a separate
    value with a leading minus as an option.  Any token after ``--expr``
    but the parser's own option strings is its value, ``--x1`` too."""
    out = []
    for tok in argv:
        if out and out[-1] == "--expr" and tok not in _option_strings():
            out[-1] = f"--expr={tok}"
        else:
            out.append(tok)
    return out


def _read_leaf(leaf, tokens):
    """The Namespace ``leaf.parse_known_args(tokens)`` gives when it reads
    every token, read in one pass over the leaf's own actions; None for
    anything this pass does not read exactly as argparse does.  It reads
    ``--opt value`` and ``--opt=value``, the values of ``nargs`` None, N
    and "+", converted by ``type`` and checked against ``choices``, and
    ``store_true`` flags.  It declines an unknown or abbreviated option, a
    repeated one, ``--``, ``-h``, a missing or surplus value, a value that
    ``type`` or ``choices`` refuses, a missing required option, a
    positional, and any other action class or nargs, or a string
    default."""
    out = {}
    for action in leaf._actions:
        if not action.option_strings:
            return None                  # a positional
        if argparse.SUPPRESS in (action.dest, action.default):
            continue                     # -h
        if isinstance(action.default, str):
            return None                  # argparse would convert it
        out.setdefault(action.dest, action.default)
    for dest, value in leaf._defaults.items():
        out.setdefault(dest, value)
    options = leaf._option_string_actions
    number = leaf._negative_number_matcher.match
    negatives = not leaf._has_negative_number_optionals
    heads = {o[:2] for o in options}
    seen = set()
    i, n = 0, len(tokens)
    while i < n:
        token = tokens[i]
        i += 1
        action, explicit = options.get(token), None
        if action is None and "=" in token:
            name, _, explicit = token.partition("=")
            action = options.get(name)
        if action is None or action in seen:
            return None
        seen.add(action)
        kind, nargs = type(action), action.nargs
        if kind is not argparse._StoreAction:
            if kind is not argparse._StoreTrueAction or explicit is not None:
                return None      # -h, or a flag given a value
            out[action.dest] = True
            continue
        if explicit is None:
            # the tokens argparse reads as arguments: no leading "-", a
            # lone "-", or a negative number whose first two characters
            # start no option string
            start = i
            while i < n and (tokens[i][:1] != "-" or tokens[i] == "-"
                             or negatives and number(tokens[i])
                             and tokens[i][:2] not in heads):
                i += 1
            strings = tokens[start:i]
        else:
            strings = [explicit]
        if not strings or nargs != "+" and len(strings) != (nargs or 1):
            return None
        try:
            values = [s if action.type is None else action.type(s)
                      for s in strings]
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and any(v not in action.choices
                                              for v in values):
            return None
        out[action.dest] = values[0] if nargs is None else values
    if any(action.required and action not in seen
           for action in leaf._actions):
        return None
    return argparse.Namespace(**out)


def _parse(argv):
    """The options of ``argv``.  argparse hands every token after a
    command's two words to that command's parser, ``-h`` and ``--version``
    too, so ``_read_leaf`` reads a valid command in one pass over that
    parser's actions.  Whatever it declines (input that names no command,
    a prefix or a repeat of an option, ``--``, a usage error, ``-h`` or
    ``--version``) goes through the full tree, which reads it or prints
    its usage error, help or version text and raises SystemExit."""
    parser = _build_parser()
    dest, leaf = parser.leaves.get(tuple(argv[:2]), (None, None))
    args = None if leaf is None else _read_leaf(leaf, argv[2:])
    if args is None:
        return parser.parse_args(argv)
    args.command = argv[0]
    setattr(args, dest, argv[1])
    return args


def _run(argv):
    try:
        args = _parse(_attach_expr_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    args._argv = ["ridgekit"] + argv
    args._inputs = []
    t0 = time.perf_counter()
    try:
        results = args.func(args)
        if results is not None:   # `sigmoid table` prints its own CSV
            _print_report(args, inputs_digest=_digest(args), results=results,
                          timing_seconds=round(time.perf_counter() - t0, 6))
        return 0
    except BrokenPipeError:
        raise
    except DOMAIN_ERRORS as exc:
        return _emit_error(args, exc, 1)
    except OSError as exc:  # an input file that cannot be read
        return _emit_error(args, exc, 2)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # stdout's reader has gone: write nothing more
        return _CLOSED_PIPE


def _script():
    """The ``ridgekit`` command, in a process of its own."""
    code = main()
    if code == _CLOSED_PIPE:
        # the report is still in stdout's buffer: point stdout's fd at
        # os.devnull, so that the interpreter's final flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(_script())
