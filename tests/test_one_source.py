"""Each number a report prints comes from one library call.

The CLI's grid fallback is ``uniform.grid_minimax``, its theta1 text is
``NetworkParams.theta1_decimal``, and the fitter rounds with
``sigmoid._rationalize`` alone.  The forms they replaced are kept here
verbatim as references, and the two agree exactly.
"""

import argparse
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ridgekit
from ridgekit import bolts, cli
from ridgekit import sigmoid as S
from ridgekit.core import max_cycle_mean, parse_expression
from ridgekit.sigmoid import _limited, _simplest_between
from ridgekit.uniform import (DS_N, ParallelogramDomain, best_uniform,
                              grid_minimax, verify_extremal)
from test_cli_golden import CASES, run_case


# ---------------------------------------------------------------------------
# the fitter's rounding: one function

def _simplest_within(value, tol):
    """The simplest rational (least denominator) between value - tol and
    value + tol, each end first rounded to the nearest rational with a
    denominator <= 1e9 (_limited).  That rounding can move an end outward,
    so the result may lie up to about 1e-9 outside +-tol; _finalize_coeffs'
    check on the grid is what bounds the error.  With tol <= 0, the value
    itself, rounded the same way."""
    if tol <= 0:
        return Fraction(*_limited(value, 10**9))
    return _simplest_between(_limited(value - tol, 10**9),
                             _limited(value + tol, 10**9))


def reference_rationalize(coeffs, budget):
    """Per-coefficient simplest-rational rounding within the budget.  With
    no budget, an exact coefficient stays as it is and a float goes to the
    nearest rational with a denominator <= 1e9."""
    if budget > 0:
        return [_simplest_within(float(c), budget) for c in coeffs]
    return [c if isinstance(c, Fraction) else _simplest_within(float(c), 0)
            for c in coeffs]


def _outcome(fn, *args):
    """The value of fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e300, -1e300, 0.1, -1 / 3, 1e9 + 0.5]))
FRACTIONS = st.fractions(max_denominator=10**15).filter(
    lambda q: abs(q) < 10**15)
BUDGETS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-300, 1e-12, 0.5, 1e6,
                     1e300]),
    st.floats(0.0, 1e3, allow_nan=False))


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.one_of(FLOATS, FRACTIONS), min_size=1, max_size=6),
       BUDGETS)
@example([0.0, -0.0, Fraction(-1, 3)], 0.0)
@example([5e-324, -5e-324, 1e300, -1e300], 1e-300)
@example([1e300, -1e300], 1e300)
def test_rationalize_matches_the_former_pair(coeffs, budget):
    got = _outcome(S._rationalize, coeffs, budget)
    want = _outcome(reference_rationalize, coeffs, budget)
    assert got == want
    if isinstance(want, list):
        assert all(type(g) is type(w) for g, w in zip(got, want))


def test_rationalize_keeps_an_exact_coefficient_with_no_budget():
    third = Fraction(1, 3 * 10**12)
    assert S._rationalize([third, 0.1], 0) == [third, Fraction(1, 10)]
    assert not hasattr(S, "_simplest_within")


def test_former_options_are_constants():
    # no caller passed either one, so neither is a parameter
    params = inspect.signature(S._finalize_coeffs).parameters
    assert list(params) == ["raw", "eps", "tgrid", "g_vals"]
    params = inspect.signature(bolts._bisect_half_level).parameters
    assert list(params) == ["g", "lo", "hi", "target"]


# ---------------------------------------------------------------------------
# the pulled-back grid minimax: one function

UNIT_SQUARE = ["--dirs", "1", "0", "0", "1", "--bounds", "0", "1", "0", "1"]
LP_EXPR = "sin(3*x1)*cos(2*x2)"


def reference_fallback(f, dom):
    """The CLI's former fallback: the exact minimax on the pulled-back grid
    of diliberto_straus."""
    g = dom.grid(DS_N)
    F = f(g.X, g.Y)
    err, _ = max_cycle_mean(*np.indices(F.shape).reshape(2, -1), F)
    return err


def _report(argv, capsys):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_grid_minimax_is_the_cli_fallback(capsys):
    code, report = _report(["approx", "uniform", "--expr", LP_EXPR,
                            *UNIT_SQUARE], capsys)
    assert code == 0
    assert report["results"]["method"] == "numerical (no closed form)"
    f = parse_expression(LP_EXPR, 2)
    dom = ParallelogramDomain((1, 0), (0, 1), 0, 1, 0, 1)
    err = grid_minimax(f, dom)[0]
    assert err == report["results"]["error"] == 0.3540335810733412
    assert err == reference_fallback(f, dom)


@pytest.mark.parametrize("expr, dirs, bounds", [
    (LP_EXPR, ((1, 0), (0, 1)), (0, 1, 0, 1)),
    ("0.9*sin(3*x1 + 0.4)*cos(4*x2)", ((1, 0), (0, 1)),
     (-0.6, 0.5, -0.7, 0.4)),
    ("exp(x1*x2) + x1^2", ((2, 1), (1, -1)), (-0.5, 1, 0, 1.2)),
])
def test_grid_minimax_at_33_is_verify_extremals_error(expr, dirs, bounds):
    f = parse_expression(expr, 2)
    dom = ParallelogramDomain(*dirs, *bounds)
    err, cycle, g, F = grid_minimax(f, dom, 33)
    assert g.X.shape == F.shape == (33, 33)
    zero = verify_extremal(f, lambda x, y: np.zeros_like(x), dom)
    assert zero["grid_error"] == err
    if err > 0:
        assert len(cycle) >= 4
        assert reference_fallback(f, dom) == grid_minimax(f, dom)[0]


def test_verify_extremal_witness_is_the_critical_cycle():
    f = parse_expression("exp(x1*x2) + x1^2", 2)
    dom = ParallelogramDomain((2, 1), (1, -1), -0.5, 1, 0, 1.2)
    rep = verify_extremal(f, best_uniform(f, dom), dom)
    err, cycle, g, _ = grid_minimax(f, dom, 33)
    assert rep["verdict"] == "extremal" and rep["grid_error"] == err
    assert rep["witness"] == [(float(g.X.flat[k]), float(g.Y.flat[k]))
                              for k in cycle]


def test_grid_minimax_is_not_exported_and_the_cli_keeps_no_copy():
    assert "grid_minimax" not in ridgekit.__all__
    assert not {"max_cycle_mean", "DS_N", "_log10_abs",
                "_scientific"} & set(vars(cli))


# ---------------------------------------------------------------------------
# theta1: from NetworkParams

FIT_CASES = sorted(name for name in CASES if name.startswith("sigmoid-fit"))


@pytest.mark.parametrize("name", FIT_CASES)
def test_theta1_text_is_the_networks(name, tmp_path):
    got = run_case(name, str(tmp_path))
    argv = CASES[name][1]
    expr = argv[argv.index("--expr") + 1]
    i = argv.index("--interval")
    a, b = float(argv[i + 1]), float(argv[i + 2])
    eps = float(argv[argv.index("--eps") + 1])
    net, _ = S.fit_two_neuron(parse_expression(expr, 1), a, b, eps)
    theta1 = got["results"]["theta1"]
    assert theta1["decimal"] == net.theta1_decimal()
    exact = net.theta1_exact
    assert exact.denominator == 1 and abs(net.theta1_log10()) < 4000
    assert theta1["exact"] == str(exact)


def test_theta1_text_past_4000_digits():
    # the CLI cannot print a network of n above 10^4000 (str(n) refuses
    # it), so its theta1 text is read off the network itself
    net = S.NetworkParams(1.0, 1.0, 10**4001, 0.0, 1.0,
                          S.SigmoidParams(1.0, 0.25), S.monic_enum(1))
    assert abs(net.theta1_log10()) >= 4000
    assert net.theta1_decimal() == "-2.0000e+4001"
    # formed once: the report reads it three times
    assert net.theta1_exact is net.theta1_exact


# ---------------------------------------------------------------------------
# the parser records what it builds

def reference_leaves(p):
    sub = next(a for a in p._actions
               if isinstance(a, argparse._SubParsersAction))
    return {(command, name): (action.dest, leaf)
            for command, middle in sub.choices.items()
            for action in middle._actions
            if isinstance(action, argparse._SubParsersAction)
            for name, leaf in action.choices.items()}


def reference_option_strings(p):
    leaves = [leaf for _, leaf in reference_leaves(p).values()]
    return {option for q in [p, *leaves] for action in q._actions
            for option in action.option_strings}


def test_parser_records_its_leaves_and_option_strings():
    p = cli._build_parser()
    assert p.leaves == reference_leaves(p)
    assert list(p.leaves) == list(reference_leaves(p))
    assert len(p.leaves) == 12
    assert p.option_strings == reference_option_strings(p)
    assert {"-h", "--help", "--version", "--expr", "--x"} <= p.option_strings
    assert not hasattr(cli, "_option_strings")


# ---------------------------------------------------------------------------
# numpy's RuntimeWarning text stays off the command's stderr

def _command(*flags):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ridgekit.__file__)))
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "ridgekit.cli", "sigmoid", "fit",
         "--expr", "1/x1", "--interval", "-1", "1", "--eps", "0.1"],
        env=env, capture_output=True, text=True, timeout=120)


def test_divide_by_zero_leaves_stderr_empty():
    proc = _command()
    assert proc.returncode == 1
    assert proc.stderr == ""
    error = json.loads(proc.stdout)["error"]
    assert error == {"type": "ValueError",
                     "message": "target is not finite at x = 0.0"}


def test_divide_by_zero_as_an_error_still_raises():
    proc = _command("-W", "error::RuntimeWarning")
    assert proc.returncode == 1
    assert proc.stderr == ""
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "RuntimeWarning"
    assert "divide by zero" in error["message"]


def test_in_process_main_keeps_the_callers_filters(capsys):
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        code = cli.main(["sigmoid", "fit", "--expr", "1/x1", "--interval",
                         "-1", "1", "--eps", "0.1"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == \
        "ValueError"
