import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgekit
from ridgekit import cycles
from ridgekit.cli import (_build_parser, _json_text, _parse, _print_report,
                          main)
from ridgekit.sigmoid import SigmoidParams, sigma


@pytest.fixture
def square_csv(tmp_path):
    p = tmp_path / "square.csv"
    p.write_text("0, 0\n0, 1\n1, 0\n1, 1\n")
    return str(p)


@pytest.fixture
def xy_dirs_csv(tmp_path):
    p = tmp_path / "xy.csv"
    p.write_text("1, 0\n0, 1\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDispatch:
    def test_unknown_subcommand_exits_2(self, capsys):
        code, _ = run(capsys, "bogus")
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        code, _ = run(capsys, "sigmoid", "eval", "--d", "2",
                      "--lambda", "0.25", "--x", "6.0", "--frobnicate")
        assert code == 2

    def test_sigmoid_eval_reports_published_value(self, capsys):
        code, out = run(capsys, "sigmoid", "eval", "--d", "2",
                        "--lambda", "0.25", "--x", "6.0")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["results"]["sigma"] == pytest.approx(0.94787, abs=1e-5)

    def test_cycles_check_square(self, capsys, square_csv, xy_dirs_csv):
        code, out = run(capsys, "cycles", "check",
                        "--points", square_csv, "--directions", xy_dirs_csv)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["has_cycle"] is True
        cert = res["certificates"][0]
        assert sorted(cert["weights"]) == [-1, -1, 1, 1]

    def test_domain_error_exits_1(self, capsys, square_csv, xy_dirs_csv,
                                  tmp_path):
        fv = tmp_path / "f.csv"
        fv.write_text("0\n0\n0\n1\n")
        code, out = run(capsys, "cycles", "check",
                        "--points", square_csv, "--directions", xy_dirs_csv,
                        "--solve", str(fv))
        assert code == 1
        assert json.loads(out)["error"]["type"] == "CycleExists"

    @pytest.mark.parametrize("anchor", ["7", "-1"])
    def test_anchor_outside_the_points_exits_1(self, capsys, xy_dirs_csv,
                                               tmp_path, anchor):
        pts = tmp_path / "triangle.csv"
        pts.write_text("0, 0\n0, 1\n1, 0\n")
        fv = tmp_path / "f.csv"
        fv.write_text("1\n2\n3\n")
        code, out = run(capsys, "cycles", "check",
                        "--points", str(pts), "--directions", xy_dirs_csv,
                        "--solve", str(fv), "--anchor", anchor)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert f"anchor {anchor} " in error["message"]

    @pytest.mark.parametrize("text, error", [("1/0", "ZeroDivisionError"),
                                             ("abc", "ValueError")])
    def test_unreadable_coordinate_exits_1(self, capsys, xy_dirs_csv,
                                           tmp_path, text, error):
        pts = tmp_path / "bad.csv"
        pts.write_text(f"0, 0\n{text}, 1\n1, 0\n")
        code, out = run(capsys, "cycles", "check",
                        "--points", str(pts), "--directions", xy_dirs_csv)
        assert code == 1
        assert json.loads(out)["error"]["type"] == error

    def test_solve_reads_every_number_form_exactly(self, capsys, tmp_path):
        # one staircase along (1, 0), (0, 1), (1, 1), written twice
        forms = {"mixed": ["0, 0", "0.5, 0", "5e-1, 3/4", "1.25E0, 0.75",
                           "5/4, 2"],
                 "ratios": ["0/1, 0/1", "1/2, 0/1", "1/2, 3/4", "5/4, 3/4",
                            "5/4, 2/1"]}
        values = {"mixed": ["1", "-0.5", "2/3", "1e1", "-7/4"],
                  "ratios": ["1/1", "-1/2", "2/3", "10/1", "-7/4"]}
        dirs = tmp_path / "dirs.csv"
        dirs.write_text("1, 0\n0, 1\n1, 1\n")
        results = []
        for name in forms:
            pts, fv = tmp_path / f"{name}.csv", tmp_path / f"{name}-f.csv"
            pts.write_text("\n".join(forms[name]) + "\n")
            fv.write_text("\n".join(values[name]) + "\n")
            code, out = run(capsys, "cycles", "check", "--points", str(pts),
                            "--directions", str(dirs), "--solve", str(fv))
            assert code == 0, out
            results.append(json.loads(out)["results"])
        assert results[0] == results[1]
        assert results[0]["representation"]["tables"][1]["3/4"] == "7/6"

    def test_missing_input_file_exits_2(self, capsys, tmp_path):
        code, out = run(capsys, "cycles", "check",
                        "--points", str(tmp_path / "missing.csv"),
                        "--directions", str(tmp_path / "missing2.csv"))
        assert code == 2
        report = json.loads(out)
        assert report["error"]["type"] == "FileNotFoundError"
        assert "missing.csv" in report["error"]["message"]

    def test_check_computes_the_fibers_once(self, capsys, xy_dirs_csv,
                                            tmp_path, monkeypatch):
        # every question of one check is answered from one fiber structure
        calls = []
        key_table = cycles._key_table

        def counted(points, h):
            calls.append(len(h))
            return key_table(points, h)

        monkeypatch.setattr(cycles, "_key_table", counted)
        pts = tmp_path / "stairs.csv"
        pts.write_text("0, 0\n0, 1\n1, 1\n1, 2\n2, 2\n")
        fv = tmp_path / "f.csv"
        fv.write_text("3\n5\n2\n7\n4\n")
        code, out = run(capsys, "cycles", "check", "--points", str(pts),
                        "--directions", xy_dirs_csv, "--minimal", "--tau",
                        "--solve", str(fv))
        assert code == 0, out
        assert calls == [2]
        results = json.loads(out)["results"]
        assert results["has_cycle"] is False
        assert results["closed_path"] is None
        assert results["orbits"] == [[0, 1, 2, 3, 4]]
        assert results["representation"]["free_unknowns"] == 0

    def test_check_tau_with_three_directions_peels_once(
            self, capsys, tmp_path, monkeypatch):
        # the τ trace and the cycle space read one peel of the fibers: the
        # 3 x 3 grid along (1, 0), (0, 1), (1, 1) loses its two corners
        # alone on x + y = 0 and x + y = 4, and its other 7 points are left
        # to eliminate.  No fibers are regrouped after the Fibers groups
        # each direction's once
        calls, groups = [], []
        peel, group = cycles.Fibers.peel.func, cycles._group

        def counted(fib):
            calls.append(fib)
            return peel(fib)

        def grouped(keys, idx):
            groups.append(keys)
            return group(keys, idx)

        once = functools.cached_property(counted)
        once.__set_name__(cycles.Fibers, "peel")
        monkeypatch.setattr(cycles.Fibers, "peel", once)
        monkeypatch.setattr(cycles, "_group", grouped)
        pts, dirs = tmp_path / "grid.csv", tmp_path / "dirs.csv"
        pts.write_text("".join(f"{x}, {y}\n" for x in range(3)
                               for y in range(3)))
        dirs.write_text("1, 0\n0, 1\n1, 1\n")
        code, out = run(capsys, "cycles", "check", "--points", str(pts),
                        "--directions", str(dirs), "--tau")
        assert code == 0, out
        assert len(calls) == 1 and len(groups) == 3
        results = json.loads(out)["results"]
        assert results["has_cycle"] is True
        assert results["tau_trace"] == [list(range(9)),
                                        [1, 2, 3, 4, 5, 6, 7]]
        assert results["tau_fixed_point"] == [1, 2, 3, 4, 5, 6, 7]

    @pytest.mark.parametrize("rows, found", [
        ("0, 0\n0, 1\n1, 0\n1, 1\n", True),
        ("0, 0\n0, 1\n1, 1\n", False),
    ])
    def test_check_minimal_builds_no_canonical_certificate(
            self, capsys, tmp_path, monkeypatch, xy_dirs_csv, rows, found):
        # the minimal cycles replace has_cycle's certificate, so --minimal
        # reads only whether the cycle space is empty
        def refuse(basis):
            raise AssertionError("canonical certificate built")

        pts = tmp_path / "pts.csv"
        pts.write_text(rows)
        monkeypatch.setattr(cycles, "_canonical_cycle_vector", refuse)
        code, out = run(capsys, "cycles", "check", "--points", str(pts),
                        "--directions", xy_dirs_csv, "--minimal")
        assert code == 0, out
        results = json.loads(out)["results"]
        assert set(results) == {"has_cycle", "minimal_exhausted",
                                "certificates"}
        assert results["has_cycle"] is found
        assert len(results["certificates"]) == int(found)

    def test_deterministic_modulo_timing(self, capsys, square_csv,
                                         xy_dirs_csv):
        _, out1 = run(capsys, "cycles", "check",
                      "--points", square_csv, "--directions", xy_dirs_csv)
        _, out2 = run(capsys, "cycles", "check",
                      "--points", square_csv, "--directions", xy_dirs_csv)
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("timing_seconds"), r2.pop("timing_seconds")
        assert r1 == r2

    @pytest.mark.parametrize("command", ["cycles", "l2", "bolts", "smooth"])
    def test_inputs_digest_hashes_the_options_and_the_files(
            self, capsys, tmp_path, command):
        # the digest is the hash of the options and of the bytes of every
        # input file named, comments and an empty file included
        def write(name, text):
            path = tmp_path / name
            path.write_text(text)
            return str(path)

        dirs = write("dirs.csv", "# two directions\n1, 0\n0, 1\n")
        if command == "cycles":
            files = [write("pts.csv", "0, 0\n0, 1/2\n1, 0\n"), dirs,
                     write("f.csv", "1\n2.5\n3\n")]
            argv = ["cycles", "check", "--points", files[0],
                    "--directions", dirs, "--solve", files[2], "--tau"]
        elif command == "l2":
            files = [write("dirs1.csv", "1 # one direction\n"),
                     write("completion.csv", ""),
                     write("ybox.json", "[[0, 1]]\n")]
            argv = ["approx", "l2", "--expr", "exp(x1)", "--dirs-file",
                    files[0], "--completion-file", files[1], "--ybox",
                    files[2], "--nodes", "4"]
        elif command == "bolts":
            files = [write("hex.json", '{"a": [0, 1, 2], "b": [0, 1, 2]}'),
                     write("grid.csv", "".join(f"{i},{j}\n" for i in range(3)
                                               for j in range(3)))]
            argv = ["bolts", "hexagon", "--expr", "x1*x2", "--geom", files[0],
                    "--golomb", files[1]]
        else:
            files = [dirs]
            argv = ["smooth", "decompose", "--expr", "sin(x1) + x2^3",
                    "--dirs", dirs, "--box", "-1", "1", "-1", "1"]
        code, out = run(capsys, *argv)
        assert code == 0, out
        args = _build_parser().parse_args(argv)
        want = hashlib.sha256(repr(sorted(
            (k, v) for k, v in vars(args).items() if k != "func")).encode())
        for path in files:
            with open(path, "rb") as fh:
                want.update(fh.read())
        assert json.loads(out)["inputs_digest"] == want.hexdigest()[:16]

    def test_sigmoid_table_csv(self, capsys):
        code, out = run(capsys, "sigmoid", "table", "--d", "2",
                        "--lambda", "0.25", "--from", "0", "--to", "1.2",
                        "--step", "0.4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,sigma"
        assert lines[1] == "0,0.37462"
        assert len(lines) == 5

    def test_sigmoid_fit_reports_exact_parameters(self, capsys):
        code, out = run(capsys, "sigmoid", "fit",
                        "--expr", "x1^3 + x1^2 - 5*x1 + 3",
                        "--interval", "-1", "1", "--eps", "1e-9")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["theta2"] == "-3"
        assert res["n"] == "115"
        assert res["achieved_error"] <= 1e-9

    def test_approx_uniform(self, capsys):
        code, out = run(capsys, "approx", "uniform", "--expr", "x1*x2",
                        "--dirs", "1", "0", "0", "1",
                        "--bounds", "0", "1", "0", "1")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["error"] == pytest.approx(0.25, abs=1e-9)

    def test_bolts_hexagon(self, capsys, tmp_path):
        geom = tmp_path / "hex.json"
        geom.write_text('{"a": [0, 1, 2], "b": [0, 1, 2]}')
        code, out = run(capsys, "bolts", "hexagon", "--expr", "x1*x2",
                        "--geom", str(geom))
        assert code == 0
        res = json.loads(out)["results"]
        assert res["error"] == pytest.approx(0.5, abs=1e-9)
        assert len(res["bolts"]) == 3

    def test_smooth_decompose(self, capsys, tmp_path):
        dirs = tmp_path / "dirs.csv"
        dirs.write_text("1, 0\n0, 1\n")
        code, out = run(capsys, "smooth", "decompose",
                        "--expr", "sin(x1) + x2^2", "--dirs", str(dirs),
                        "--box", "-1", "1", "-1", "1")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["residual"] <= 1e-6
        assert len(res["g_tables"]) == 2


class TestSigmoidCommands:
    """`sigmoid eval` and `sigmoid table` evaluate all their points in one
    call to sigma; the values are those of sigma point by point."""

    D, LAM = 1.5, 0.4

    def points(self):
        d = self.D
        xs = [-4.0, 0.3 * d, d]                       # left tail, first plateau
        for n in (1, 2, 20, 150, 999, 4321, 60_000, 200_000):
            xs.append((2 * n - 0.6) * d)             # main segment
        for n in (1, 5, 88, 1234, 199_999):
            xs.append((2 * n + 0.3) * d)             # transition, left half
            xs.append((2 * n + 0.85) * d)            # transition, right half
        xs += [2 * 3 * d, 2 * 77 * d, (2 * 77 + 1) * d]  # segment ends
        return [float(f"{x:.6f}") for x in xs]

    def test_eval_matches_sigma_point_by_point(self, capsys):
        xs = self.points()
        assert len(xs) == 24
        code, out = run(capsys, "sigmoid", "eval", "--d", str(self.D),
                        "--lambda", str(self.LAM), "--x",
                        *[repr(x) for x in xs])
        assert code == 0
        params = SigmoidParams(self.D, self.LAM)
        assert json.loads(out)["results"]["sigma"] == \
            [sigma(x, params) for x in xs]

    def test_eval_of_one_point_is_a_scalar(self, capsys):
        code, out = run(capsys, "sigmoid", "eval", "--d", str(self.D),
                        "--lambda", str(self.LAM), "--x", "612.3")
        assert code == 0
        value = json.loads(out)["results"]["sigma"]
        assert isinstance(value, float)
        assert value == sigma(612.3, SigmoidParams(self.D, self.LAM))

    def test_table_matches_the_row_by_row_loop(self, capsys):
        start, stop, step = 2.9, 2.9 + 30.5 * 7.65, 7.65
        code, out = run(capsys, "sigmoid", "table", "--d", str(self.D),
                        "--lambda", str(self.LAM), "--from", str(start),
                        "--to", str(stop), "--step", str(step))
        assert code == 0
        params = SigmoidParams(self.D, self.LAM)
        xs = np.arange(start, stop + 1e-12, step)
        want = ["x,sigma"] + [
            f"{float(x):g},{float(sigma(float(x), params)):.5f}" for x in xs]
        assert out.splitlines() == want
        assert len(want) == 32

    @pytest.mark.parametrize("start,stop,step,last", [
        ("20000", "20010", "1", "20010"), ("20000", "20000", "1", "20000"),
        ("0", "10", "1", "10"), ("0", "0.3", "0.1", "0.3"),
        ("20000", "20000.3", "0.1", "20000.3"),
        ("-1e6", "-1e6", "0.5", "-1e+06"), ("0", "3.5", "1", "3")])
    def test_table_ends_at_the_last_step_within_to(self, capsys, start, stop,
                                                   step, last):
        # --to is a row whenever (to - from)/step is an integer up to
        # rounding, at |x| >= 16,384 too, where a fixed slack of 1e-12 on
        # --to is lost; every x is np.arange's for its row
        code, out = run(capsys, "sigmoid", "table", "--d", "1", "--lambda",
                        "0.25", "--from", start, "--to", stop, "--step", step)
        assert code == 0
        xs = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert xs[-1] == last
        want = np.arange(float(start), float(stop) + float(step),
                         float(step))[:len(xs)]
        assert xs == [f"{x:g}" for x in want.tolist()]
        assert len(xs) == math.floor(round(
            (float(stop) - float(start)) / float(step), 6)) + 1

    @pytest.mark.parametrize("flags,flag", [
        (("--step", "0"), "--step"), (("--step", "-1"), "--step"),
        (("--step", "nan"), "--step"), (("--step", "inf"), "--step"),
        (("--to", "-1"), "--to"), (("--from", "nan"), "--from")])
    def test_table_refuses_a_bad_range(self, capsys, flags, flag):
        opts = {"--from": "0", "--to": "1", "--step": "0.25"}
        opts.update(dict([flags]))
        code, out = run(capsys, "sigmoid", "table", "--d", "1",
                        "--lambda", "0.25", *sum(opts.items(), ()))
        assert code == 1
        assert flag in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("start,step", [("20000", "1e-12"),
                                            ("1", "1e-310")])
    def test_table_refuses_a_step_that_cannot_move_x(self, capsys, start,
                                                      step):
        code, out = run(capsys, "sigmoid", "table", "--d", "1", "--lambda",
                        "0.25", "--from", start, "--to", start,
                        "--step", step)
        assert code == 1
        assert json.loads(out)["error"]["message"] == (
            f"--step {float(step)!r} does not move x from --from "
            f"{float(start)!r}")

    @pytest.mark.parametrize("to,step,rows", [
        ("1e9", "1e-3", "1000000000001"), ("1000000.5", "1", "1000001")])
    def test_table_refuses_too_many_rows(self, capsys, monkeypatch, to, step,
                                         rows):
        # the row count is checked before any array is allocated, so the
        # refusal does not depend on how the machine overcommits memory
        def arange(*args, **kwargs):
            raise AssertionError("np.arange called")

        monkeypatch.setattr(np, "arange", arange)
        code, out = run(capsys, "sigmoid", "table", "--d", "1", "--lambda",
                        "0.5", "--from", "0", "--to", to, "--step", step)
        assert code == 1
        assert json.loads(out)["error"]["message"] == (
            f"the table would have {rows} rows, more than the maximum of "
            "1000000")

    @pytest.mark.parametrize("d,lam,x", [
        ("0.5", "0.4", "158868.00011918705"),   # a 7.6e-4 wide transition
        ("1", "0.25", "1e20")])                 # x/d beyond int64
    def test_eval_of_a_narrow_transition_and_a_huge_x(self, capsys, d, lam, x):
        code, out = run(capsys, "sigmoid", "eval", "--d", d, "--lambda", lam,
                        "--x", x)
        assert code == 0
        assert 0.0 < json.loads(out)["results"]["sigma"] < 1.0

    @pytest.mark.parametrize("flag,name", [("--d", "d"),
                                           ("--lambda", "lambda")])
    def test_eval_refuses_an_infinite_parameter(self, capsys, flag, name):
        opts = {"--d": "1", "--lambda": "0.25", flag: "inf"}
        code, out = run(capsys, "sigmoid", "eval", *sum(opts.items(), ()),
                        "--x", "3")
        assert code == 1
        assert f"finite {name} > 0" in json.loads(out)["error"]["message"]

    def test_eval_refuses_nan(self, capsys):
        code, out = run(capsys, "sigmoid", "eval", "--d", "1", "--lambda",
                        "0.25", "--x", "3", "nan")
        assert code == 1
        assert "nan" in json.loads(out)["error"]["message"]


def test_expr_with_a_leading_minus(capsys):
    tail = ["--interval", "0", "1", "--eps", "0.01"]
    code1, out1 = run(capsys, "sigmoid", "fit", "--expr", "-x1^2", *tail)
    code2, out2 = run(capsys, "sigmoid", "fit", "--expr=-x1^2", *tail)
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["results"] == r2["results"]
    assert r1["inputs_digest"] == r2["inputs_digest"]
    assert r1["command"] == "ridgekit sigmoid fit --expr -x1^2 " + " ".join(tail)


UNIT_SQUARE = ["--dirs", "1", "0", "0", "1", "--bounds", "0", "1", "0", "1"]


@pytest.mark.parametrize("expr", ["--x1", "--pi", "--e"])
def test_expr_value_with_two_leading_minuses(capsys, expr):
    code1, out1 = run(capsys, "approx", "uniform", "--expr", expr,
                      *UNIT_SQUARE)
    code2, out2 = run(capsys, "approx", "uniform", f"--expr={expr}",
                      *UNIT_SQUARE)
    assert code1 == code2 == 0
    assert json.loads(out1)["results"] == json.loads(out2)["results"]


NEGATIVE_EXPONENTS = [
    ["sigmoid", "eval", "--d", "1", "--lambda", "0.25", "--x", "3", "-1e2"],
    ["approx", "uniform", "--expr", "x1*x2", "--dirs", "1", "0", "0", "1",
     "--bounds", "-1e-1", "1", "0", "1"],
]


def test_negative_number_with_an_exponent_is_an_option_value(capsys):
    # -1e2 is -100, read as the second --x value, and -1e-1 as c1
    (sig_code, sig), (unif_code, unif) = [run(capsys, *argv)
                                          for argv in NEGATIVE_EXPONENTS]
    assert sig_code == unif_code == 0
    _, one = run(capsys, "sigmoid", "eval", "--d", "1", "--lambda", "0.25",
                 "--x=-100")
    assert json.loads(sig)["results"]["sigma"][1] == \
        json.loads(one)["results"]["sigma"]
    assert json.loads(unif)["results"]["g1_table"]["knots"][0] == -0.1


def test_option_after_expr_is_not_its_value(capsys):
    code = main(["approx", "uniform", "--expr", *UNIT_SQUARE])
    assert code == 2
    assert "--expr: expected one argument" in capsys.readouterr().err


def test_skew_lp_fallback_reaches_the_rectangle_bound(capsys):
    # along (2,1), (1,-1) the float images of one fiber's grid points give
    # different values of a.x; the LP must still see whole fibers, so its
    # value is at least the largest rectangle functional on the same grid
    code, out = run(capsys, "approx", "uniform",
                    "--expr", "0.738*sin(5*x1 + 0.13)*cos(5*x2)",
                    "--dirs", "2", "1", "1", "-1",
                    "--bounds", "0", "1", "0", "1")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["method"] == "numerical (no closed form)"
    Y1, Y2 = np.meshgrid(np.linspace(0, 1, 41), np.linspace(0, 1, 41),
                         indexing="ij")
    X, Y = (Y1 * -1 - Y2 * 1) / -3, (Y2 * 2 - Y1 * 1) / -3
    F = 0.738 * np.sin(5 * X + 0.13) * np.cos(5 * Y)
    # |F[i,j] + F[k,l] - F[i,l] - F[k,j]| / 4, maximised over l, j per (i, k)
    D = F[:, None, :] - F[None, :, :]
    rect = float(np.max(D.max(axis=2) - D.min(axis=2))) / 4
    assert rect == pytest.approx(0.255549, abs=1e-6)
    assert res["error"] >= rect - 1e-9


def test_cached_parser_carries_no_state_between_calls(capsys, square_csv,
                                                      xy_dirs_csv, tmp_path):
    # one parser serves every main() call of a process: options given to one
    # call (flags, --weights, a usage error, --version) must not reach the
    # next, so each report equals the report of the same argv run first
    dirs = tmp_path / "dirs.csv"
    dirs.write_text("1\n")
    ybox = tmp_path / "ybox.json"
    ybox.write_text("[[0, 1]]")
    cycles = ["cycles", "check", "--points", square_csv,
              "--directions", xy_dirs_csv]
    l2 = ["approx", "l2", "--expr", "exp(x1)", "--dirs-file", str(dirs),
          "--ybox", str(ybox), "--nodes", "12"]
    argvs = [
        cycles + ["--minimal", "--tau"],
        cycles,
        l2 + ["--weights", "1+x1"],
        l2,
        cycles + ["--frobnicate"],
        ["--version"],
        ["sigmoid", "eval", "--d", "2", "--lambda", "0.25", "--x", "6.0"],
    ]

    def report(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        if out.startswith("{"):
            out = json.loads(out)
            out.pop("timing_seconds")
        return code, out, err

    _build_parser.cache_clear()
    in_sequence = [report(argv) for argv in argvs]
    assert _build_parser.cache_info().misses == 1
    assert [r[0] for r in in_sequence] == [0, 0, 0, 0, 2, 0, 0]
    for argv, got in zip(argvs, in_sequence):
        _build_parser.cache_clear()
        assert got == report(argv), argv


def _leaf_argvs(tmp_path):
    """One valid argv per two-word command, keyed by its two words."""
    files = {"points.csv": "0,0\n0,1\n1,0\n1,1\n", "axes.csv": "1,0\n0,1\n",
             "dirs1.csv": "1\n", "ybox.json": "[[0, 1]]",
             "rect.json": '{"rect": [-0.5, 1.0, 0.0, 1.5]}',
             "hexagon.json": '{"a": [0, 1, 2], "b": [0, 1, 2]}',
             "octagon.json": '{"a": [0, 1, 2, 3], "b": [0, 1, 2]}',
             "stairs.json": '{"a": [0, 1, 2, 3], "b": [0, 1, 2, 3]}'}
    path = {}
    for name, text in files.items():
        path[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    geom = {"rect": "rect.json", "hexagon": "hexagon.json",
            "octagonA": "octagon.json", "octagonB": "octagon.json",
            "stairs": "stairs.json"}
    argvs = {
        ("cycles", "check"): [
            "--points", path["points.csv"], "--directions", path["axes.csv"],
            "--minimal", "--cap", "4", "--tau"],
        ("approx", "uniform"): ["--expr", "-x1*x2", *UNIT_SQUARE,
                                "--ds-iters", "2"],
        ("approx", "l2"): [
            "--expr", "exp(x1)", "--dirs-file", path["dirs1.csv"],
            "--ybox", path["ybox.json"], "--nodes", "12",
            "--weights", "1+x1"],
        ("smooth", "decompose"): [
            "--expr", "x1^2 + x2", "--dirs", path["axes.csv"],
            "--box", "0", "1", "0", "1"],
        ("sigmoid", "eval"): ["--d", "2", "--lambda", "0.25",
                              "--x", "6.0", "-1"],
        ("sigmoid", "table"): ["--d", "2", "--lambda", "0.25", "--from", "0",
                               "--to", "2", "--step", "0.4"],
        ("sigmoid", "fit"): ["--expr", "x1^3 + x1", "--interval", "-1", "1",
                             "--eps", "0.01"],
    }
    for shape, name in geom.items():
        argvs["bolts", shape] = ["--expr", "x1*x2", "--geom", path[name]]
    argvs["bolts", "rect"] += ["--class", "V", "--c", "0.25"]
    argvs["bolts", "hexagon"] += ["--bounds"]
    return {leaf: list(leaf) + argv for leaf, argv in argvs.items()}


def _parse_outcome(parse, argv):
    """Exit code, stdout, stderr and parsed options of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, options = 0, vars(parse(argv))
        except SystemExit as exc:
            code, options = exc.code, None
    return code, out.getvalue(), err.getvalue(), options


CHECK = ["cycles", "check", "--points", "p.csv", "--directions", "d.csv"]
TABLE = ["sigmoid", "table", "--d", "1", "--lambda", "0.5"]
PARSE_CORPUS = NEGATIVE_EXPONENTS + [
    CHECK + ["--minimal", "--cap", "-1"],
    CHECK + ["--version"],
    CHECK + ["-h"],
    ["sigmoid", "eval", "--d", "2", "--lambda", "0.25", "--x", "1", "-h"],
    CHECK + ["--"],
    CHECK + ["--", "--tau"],
    CHECK + ["--min", "--t"],
    TABLE + ["--f", "0", "--t", "1", "--st", "0.5"],
    CHECK + ["--bogus"],
    CHECK + ["--bogus=1", "extra"],
    ["sigmoid", "eval", "--d", "2", "--lambda", "0.25", "--x", "6.0",
     "--frobnicate"],
    ["cycles", "check", "--points", "p.csv"],
    CHECK + ["--cap"],
    CHECK + ["--cap", "x"],
    ["sigmoid", "eval", "--d", "2", "--lambda", "0.25", "--x"],
    ["approx", "uniform", "--expr", "x1", "--dirs", "1", "0", "0"],
    ["bolts", "rect", "--expr", "x1", "--geom", "g.json", "--class", "W"],
    [],
    ["bogus"],
    ["bogus", "check"],
    ["cycles"],
    ["cycles", "bogus"],
    ["bolts"],
    ["--version"],
    ["-h"],
    ["--version", "cycles", "check"],
    ["cycles", "-h"],
]


def test_leaf_parse_matches_the_full_tree(tmp_path):
    # a command's own parser gives what the full tree gives: the same
    # options, and the same usage error, help or version text and exit code
    leaf_argvs = _leaf_argvs(tmp_path)
    assert set(leaf_argvs) == set(_build_parser().leaves)
    for argv in list(leaf_argvs.values()) + PARSE_CORPUS:
        got = _parse_outcome(_parse, argv)
        assert got == _parse_outcome(_build_parser().parse_args, argv), argv


def test_valid_commands_never_reach_the_full_tree(capsys, monkeypatch,
                                                  tmp_path):
    def parse_args(*args, **kwargs):
        raise AssertionError("the full parser tree read a valid command")

    monkeypatch.setattr(_build_parser(), "parse_args", parse_args)
    for leaf, argv in _leaf_argvs(tmp_path).items():
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 1), leaf
        if leaf != ("sigmoid", "table"):
            assert json.loads(out)["command"] == "ridgekit " + " ".join(argv)


def test_cheap_commands_never_load_scipy(square_csv, xy_dirs_csv, tmp_path):
    # cycles, sigmoid and approx l2 never call scipy, so a process that runs
    # only them must not pay its import time and memory
    square = tmp_path / "square.json"
    square.write_text("[[0, 1], [0, 1]]")
    line_dir = tmp_path / "line.csv"
    line_dir.write_text("1\n")
    unit = tmp_path / "unit.json"
    unit.write_text("[[0, 1]]")
    script = (
        "import sys\n"
        "from ridgekit.cli import main\n"
        f"assert main(['cycles', 'check', '--points', {square_csv!r},"
        f" '--directions', {xy_dirs_csv!r}]) == 0\n"
        "assert main(['sigmoid', 'eval', '--d', '2', '--lambda', '0.25',"
        " '--x', '6.0']) == 0\n"
        "assert main(['approx', 'l2', '--expr', 'exp(x1*x2)', '--dirs-file',"
        f" {xy_dirs_csv!r}, '--ybox', {str(square)!r}, '--nodes', '8']) == 0\n"
        "assert main(['approx', 'l2', '--expr', 'exp(x1)', '--dirs-file',"
        f" {str(line_dir)!r}, '--ybox', {str(unit)!r}, '--nodes', '8',"
        " '--weights', '1+x1']) == 0\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, sorted(loaded)[:5]\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ridgekit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_fit_target_is_a_domain_error(capsys):
    # x1*x1/x1 is NaN at the grid's midpoint x = 0
    code, out = run(capsys, "sigmoid", "fit", "--expr", "x1*x1/x1",
                    "--interval", "-1", "1", "--eps", "0.1")
    assert code == 1
    report = json.loads(out, parse_constant=lambda name: pytest.fail(name))
    assert report["error"]["type"] == "ValueError"
    assert "not finite" in report["error"]["message"]


@pytest.mark.parametrize("dirs, bounds, message", [
    ("1 0 0 1", "0 1 0 inf", "d2 = inf is not finite"),
    ("1 0 0 inf", "0 1 0 1", "b = (0.0, inf) is not finite"),
])
def test_approx_uniform_refuses_a_non_finite_domain(capsys, dirs, bounds,
                                                    message):
    code, out = run(capsys, "approx", "uniform", "--expr", "x1*x2",
                    "--dirs", *dirs.split(), "--bounds", *bounds.split())
    assert code == 1
    assert json.loads(out)["error"] == {"type": "ValueError",
                                        "message": message}


@pytest.mark.parametrize("bounds, message", [
    ("-inf 1 0 1", "c1 = -inf is not finite"),
    ("0 1 -Infinity 1", "c2 = -inf is not finite"),
    ("0 1 0 -NAN", "d2 = nan is not finite"),
])
def test_a_negative_non_finite_bound_is_refused_as_inf_is(capsys, bounds,
                                                          message):
    # -inf is read as a number, not as an option, whatever its case: a
    # JSON error with exit 1, as for inf, and not a usage error
    argv = ["approx", "uniform", "--expr", "x1", "--dirs", "1", "0", "0",
            "1", "--bounds", *bounds.split()]
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"] == {"type": "ValueError",
                                        "message": message}
    # the full tree reads it alike; nan != nan, so compare the options'
    # text
    leaf, full = [_parse_outcome(parse, argv)
                  for parse in (_parse, _build_parser().parse_args)]
    assert leaf[:3] == full[:3]
    assert str(sorted(leaf[3].items())) == str(sorted(full[3].items()))


@pytest.mark.parametrize("geom, message", [
    ('{"a": [0, 1, 2], "b": [0, 1, 2]}', "geometry has no key 'rect'"),
    ("[1, 2]", "geometry has no key 'rect'"),
    ('{"rect": [0, 1, 0]}',
     "geometry key 'rect' must be a list of 4 numbers, got [0, 1, 0]"),
])
def test_bolts_rect_names_a_missing_or_malformed_key(capsys, tmp_path, geom,
                                                     message):
    path = tmp_path / "geom.json"
    path.write_text(geom)
    code, out = run(capsys, "bolts", "rect", "--expr", "x1*x2",
                    "--geom", str(path), "--class", "V", "--c", "0.5")
    assert code == 1
    assert json.loads(out)["error"] == {"type": "ValueError",
                                        "message": message}


def test_bolts_polygon_names_a_malformed_key(capsys, tmp_path):
    path = tmp_path / "geom.json"
    path.write_text('{"a": [0, 1, 2], "b": [0, 1, null]}')
    code, out = run(capsys, "bolts", "hexagon", "--expr", "x1*x2",
                    "--geom", str(path))
    assert code == 1
    assert json.loads(out)["error"]["message"] == \
        "geometry key 'b' must be a list of numbers, got [0, 1, null]"


@pytest.mark.parametrize("shape, extra, message", [
    ("octagonA", ["--bounds"], "unrecognized arguments: --bounds"),
    ("hexagon", ["--class", "V"], "unrecognized arguments: --class V"),
    ("stairs", ["--c", "0.5"], "unrecognized arguments: --c 0.5"),
    ("rect", [], "the following arguments are required: --class"),
])
def test_bolts_shapes_take_only_the_options_they_read(capsys, tmp_path,
                                                      shape, extra, message):
    # --class and --c are rect's alone, --bounds is hexagon's alone, and
    # rect needs --class: each is a usage error elsewhere, not ignored
    path = tmp_path / "geom.json"
    path.write_text('{"a": [0, 1, 2], "b": [0, 1, 2], "rect": [0, 1, 0, 1]}')
    argv = ["bolts", shape, "--expr", "x1*x2", "--geom", str(path), *extra]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"error: {message}\n" in captured.err
    assert _parse_outcome(_parse, argv) == \
        _parse_outcome(_build_parser().parse_args, argv)


@pytest.mark.parametrize("option", ["--ds-iters", "--cap"])
def test_negative_count_is_a_usage_error(capsys, square_csv, xy_dirs_csv,
                                         option):
    if option == "--cap":
        argv = ["cycles", "check", "--points", square_csv,
                "--directions", xy_dirs_csv, "--minimal", "--cap", "-1"]
    else:
        argv = ["approx", "uniform", "--expr", "x1*x2", "--dirs", "1", "0",
                "0", "1", "--bounds", "0", "1", "0", "1", "--ds-iters", "-4"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be >= 0" in captured.err


@pytest.mark.parametrize("expr, eps", [("x1^3+x1", "nan"), ("sin(x1)", "nan"),
                                       ("sin(x1)", "inf"), ("sin(x1)", "-1")])
def test_sigmoid_fit_refuses_a_bad_eps(capsys, expr, eps):
    code, out = run(capsys, "sigmoid", "fit", "--expr", expr,
                    "--interval", "0", "1", "--eps", eps)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("eps must be finite and >= 0")


def test_sigmoid_fit_reports_an_exhausted_polynomial_budget(capsys):
    # cos is no polynomial, and the Chebyshev path runs out of degrees
    # before its rounded coefficients come within eps/2
    code, out = run(capsys, "sigmoid", "fit", "--expr", "cos(x1)",
                    "--interval", "-1", "1", "--eps", "0.01")
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {"type": "ArithmeticError", "message":
                     "polynomial budget exhausted before reaching eps/2"}


def test_sigmoid_fit_refuses_a_network_that_misses_eps(capsys):
    code, out = run(capsys, "sigmoid", "fit", "--expr", "x1",
                    "--interval", "1e20", "3e20", "--eps", "1")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ArithmeticError"
    assert "15466496.0" in error["message"]
    assert error["message"].endswith("exceeds eps = 1.0")


@pytest.mark.parametrize("expr", ["(" * 400 + "x1" + ")" * 400,
                                  "+".join(["x1"] * 1500)],
                         ids=["400 parentheses", "sum of 1500 terms"])
def test_deeply_nested_expression_is_a_domain_error(capsys, expr):
    code, out = run(capsys, "approx", "uniform", "--expr", expr,
                    "--dirs", "1", "0", "0", "1", "--bounds", "0", "1", "0", "1")
    assert code == 1
    report = json.loads(out)
    assert report["error"]["type"] == "ExprError"
    assert "nested too deeply" in report["error"]["message"]


def test_a_power_chain_of_985_to_989_terms_is_refused_from_a_fresh_stack():
    # the guard stopped at each '^''s base, so from a fresh interpreter
    # parse_expression accepted these chains and approx uniform ended in a
    # RecursionError traceback; under pytest the deeper stack hid it
    proc = _python("""
import contextlib, io, json
from ridgekit.cli import main
from ridgekit.core import ExprError, parse_expression
deep = "expression nested too deeply (at position 0)"
for n in range(985, 990):
    text = "^".join(["x1"] * n)
    try:
        parse_expression(text, 2)
        raise SystemExit(f"{n} terms accepted")
    except ExprError as exc:
        assert str(exc) == deep, exc
    for bounds in (["0", "1", "0", "1"], ["0.5", "1", "0.5", "1"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["approx", "uniform", "--expr", text, "--dirs", "1",
                         "0", "0", "1", "--bounds", *bounds])
        assert code == 1, code
        error = json.loads(out.getvalue())["error"]
        assert error == {"type": "ExprError", "message": deep}, error
""")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_weighted_l2_takes_one_weight_per_direction(capsys, xy_dirs_csv,
                                                    tmp_path):
    # one weight too few or too many is a domain error, not a traceback or
    # a silently dropped weight
    ybox = tmp_path / "ybox.json"
    ybox.write_text("[[0, 1], [0, 1]]")
    l2 = ["approx", "l2", "--expr", "x1*x2", "--dirs-file", xy_dirs_csv,
          "--ybox", str(ybox), "--nodes", "8", "--weights"]
    for weights in (["1+x1"], ["1+x1", "1+x2", "2"]):
        code, out = run(capsys, *l2, *weights)
        assert code == 1
        report = json.loads(out)
        assert report["error"]["type"] == "ValueError"
        assert "one weight per direction" in report["error"]["message"]


def _l2_on_the_unit_cube(capsys, tmp_path, n, nodes):
    """Exit code and report of `approx l2` along the axes of [0, 1]^n."""
    dfile = tmp_path / "dirs.csv"
    dfile.write_text("".join(",".join(str(int(i == j)) for j in range(n))
                             + "\n" for i in range(n)))
    yfile = tmp_path / "ybox.json"
    yfile.write_text(json.dumps([[0, 1]] * n))
    code, out = run(capsys, "approx", "l2", "--expr", "x1^2",
                    "--dirs-file", str(dfile), "--ybox", str(yfile),
                    "--nodes", nodes)
    return code, json.loads(out)


@pytest.mark.parametrize("n,nodes,points", [
    (2, "100000", "10000000000"), (1, "1415", "2002225"),
    (4, "25", "2015625")])
def test_l2_refuses_too_many_nodes(capsys, monkeypatch, tmp_path, n, nodes,
                                   points):
    # the grid is checked before the Gauss rule is made, so the refusal
    # does not depend on how the machine overcommits memory
    def leggauss(*args):
        raise AssertionError("leggauss called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", leggauss)
    code, report = _l2_on_the_unit_cube(capsys, tmp_path, n, nodes)
    assert code == 1
    assert report["error"] == {
        "type": "ValueError",
        "message": f"{nodes} Gauss nodes per axis in {n}-D would make "
                   f"{points} points, more than the maximum of 2000000"}


@pytest.mark.parametrize("nodes", ["0", "-3"])
def test_l2_refuses_fewer_than_one_node(capsys, tmp_path, nodes):
    code, report = _l2_on_the_unit_cube(capsys, tmp_path, 1, nodes)
    assert code == 1
    assert report["error"]["message"] == (
        f"the Gauss rule needs at least 1 node, got {nodes}")


def test_weight_vanishing_at_a_knot_reports_finite_values(capsys, tmp_path):
    # the weight x1 is 0 at the knot 0 of [0, 1]: every table value and the
    # error are finite numbers, so the report is valid JSON
    dirs = tmp_path / "dirs.csv"
    dirs.write_text("1\n")
    ybox = tmp_path / "ybox.json"
    ybox.write_text("[[0, 1]]")
    code, out = run(capsys, "approx", "l2", "--expr", "exp(x1)",
                    "--dirs-file", str(dirs), "--ybox", str(ybox),
                    "--nodes", "8", "--weights", "x1")
    assert code == 0
    res = json.loads(out, parse_constant=lambda name: pytest.fail(name))
    res = res["results"]
    assert res["error"] == pytest.approx(0.00931, abs=1e-5)
    assert res["diagnostics"]["rank"] == 128


def test_verify_reports_a_closed_form_that_is_not_best(capsys):
    # the oscillation vanishes at the nodes of the hypothesis check, so the
    # closed form of x1*x2 is taken; on the verification grid its norm is
    # 0.488 against the grid minimax 0.293
    code, out = run(capsys, "approx", "uniform", "--expr",
                    "x1*x2 + 0.1*cos(20*pi*x1)*cos(20*pi*x2)",
                    "--dirs", "1", "0", "0", "1",
                    "--bounds", "0", "1", "0", "1", "--verify")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["method"] == "closed form"
    assert res["verified"].startswith("not best on the grid")
    assert "0.488295" in res["verified"] and "0.292582" in res["verified"]
    assert res["witness_path"] is None


def _checkout_env():
    """The environment, with this checkout's ridgekit first on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ridgekit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _python(script, **env_vars):
    """Run ``script`` in a fresh interpreter that imports this checkout's
    ridgekit; ``env_vars`` set (a string) or unset (None) variables."""
    env = _checkout_env()
    for name, value in env_vars.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_closed_stdout_ends_without_a_traceback():
    # the reader closes its end of the pipe before the command writes: the
    # command writes nothing more, says nothing on stderr, and exits 141
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ridgekit.cli", "approx", "uniform",
             "--expr=--x1", *UNIT_SQUARE], env=_checkout_env(),
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 141, proc.stderr
    assert proc.stderr == ""


def test_closed_stdout_in_process_returns_the_code(monkeypatch):
    # main(argv) reports the closed pipe by its exit code and leaves the
    # caller's file descriptors alone
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    before = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["sigmoid", "eval", "--d", "1", "--lambda", "0.25",
                 "--x", "3"]) == 141
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


def test_sigmoid_fit_never_loads_sympy():
    # polynomial targets are read exactly without computer algebra, and
    # the others go straight to Chebyshev interpolation
    script = (
        "import sys\n"
        "from ridgekit.cli import main\n"
        "for expr, eps in (('x1^3 + x1^2 - 5*x1 + 3', '1e-9'),"
        " ('sin(x1)', '0.1')):\n"
        "    assert main(['sigmoid', 'fit', '--expr', expr,"
        " '--interval', '-1', '1', '--eps', eps]) == 0\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'sympy']\n"
        "assert not loaded, sorted(loaded)[:5]\n"
    )
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    assert '"n": "115"' in proc.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc/self/task")
def test_ridgekit_threads_pins_blas_threads():
    # OpenBLAS reads its thread count when numpy loads it, so the variable
    # must be copied before `import ridgekit.cli` imports numpy
    script = ("import os\n"
              "import ridgekit.cli\n"
              "print(len(os.listdir('/proc/self/task')))\n")
    proc = _python(script, RIDGEKIT_THREADS="1", OMP_NUM_THREADS=None,
                   OPENBLAS_NUM_THREADS=None, MKL_NUM_THREADS=None)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_uniform_fallback_verify_and_golomb_never_load_scipy(tmp_path):
    # the grid minimax of these three paths is the maximum cycle mean, so a
    # process without scipy runs them all
    geom = tmp_path / "hex.json"
    geom.write_text('{"a": [0, 1, 2], "b": [0, 1, 2]}')
    pts = tmp_path / "pts.csv"
    pts.write_text("".join(f"{x},{y}\n" for x in range(4) for y in range(4)))
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from ridgekit.cli import main\n"
        "def results(*argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert main(argv) == 0\n"
        "    return json.loads(out.getvalue())['results']\n"
        "uniform = ('approx', 'uniform', '--dirs', '1', '0', '0', '1',"
        " '--bounds', '0', '1', '0', '1', '--expr')\n"
        "res = results(*uniform, 'sin(3*x1)*cos(4*x2)')\n"
        "assert res['method'] == 'numerical (no closed form)', res\n"
        "assert results(*uniform, 'x1*x2', '--verify')['verified'] =="
        " 'extremal'\n"
        "res = results('bolts', 'hexagon', '--expr', 'sin(3*x1)*cos(2*x2)',"
        f" '--geom', {str(geom)!r}, '--golomb', {str(pts)!r})\n"
        "assert res['golomb_lower_bound'] > 0, res\n"
    )
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_approx_uniform_of_a_constant_target(capsys, verify):
    # an expression without a variable evaluates like one with a zero term
    # in it: broadcast to the grid, not a lone scalar
    reports = []
    for expr in ["2", "2+0*x1"]:
        code, out = run(capsys, "approx", "uniform", "--expr", expr,
                        "--dirs", "1", "0", "0", "1",
                        "--bounds", "0", "1", "0", "1", *verify)
        assert code == 0
        reports.append(json.loads(out)["results"])
    assert reports[0] == reports[1]
    assert reports[0]["error"] == 0.0


def test_smooth_decompose_of_a_constant_target(capsys, tmp_path):
    dirs = tmp_path / "dirs3.csv"
    dirs.write_text("1, 0\n0, 1\n1, 1\n")
    reports = []
    for expr in ["2", "2+0*x1"]:
        code, out = run(capsys, "smooth", "decompose", "--expr", expr,
                        "--dirs", str(dirs), "--box", "-1", "1", "-1", "1",
                        "--crosscheck")
        assert code == 0
        reports.append(json.loads(out)["results"])
    assert reports[0] == reports[1]


@pytest.mark.filterwarnings("ignore:divide by zero encountered")
def test_smooth_decompose_non_finite_result_is_a_domain_error(capsys,
                                                              tmp_path):
    # 1/(x1+1) is infinite on the box's edge x1 = -1, where the residual
    # is measured: no report may print Infinity or NaN, which strict JSON
    # does not have
    dirs = tmp_path / "dirs3.csv"
    dirs.write_text("1, 0\n0, 1\n1, 1\n")
    code, out = run(capsys, "smooth", "decompose", "--expr", "1/(x1+1)",
                    "--dirs", str(dirs), "--box", "-1", "1", "-1", "1",
                    "--crosscheck")
    assert code == 1
    report = json.loads(out, parse_constant=lambda name: pytest.fail(name))
    assert report["error"] == {
        "type": "ValueError",
        "message": "results.convergence_study.residual is not finite"}


def test_smooth_decompose_reports_jet_derivatives_and_no_scipy(tmp_path):
    # an expression is differentiated by its Taylor jets, and the chains
    # are Chebyshev series: six directions with the cross-check recover
    # T5 to rounding in a process where scipy cannot be imported
    dirs = tmp_path / "dirs6.csv"
    dirs.write_text("1, 0\n0, 1\n1, 1\n1, -1\n1, 2\n2, -1\n")
    t5 = ("sin(x1) + x2^3 + exp(0.5*(x1+x2)) + cos(x1-x2)"
          " + (x1+2*x2)^2/(5+x1+2*x2)")
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from ridgekit.cli import main\n"
        f"assert main(['smooth', 'decompose', '--expr', {t5!r}, '--dirs',"
        f" {str(dirs)!r}, '--box', '-1', '1', '-1', '1',"
        " '--crosscheck']) == 0\n"
    )
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)["results"]
    assert res["derivatives"] == "jet"
    assert "fd_step" not in res
    assert res["residual"] <= 1e-8
    assert res["convergence_study"]["residual"] <= 1e-8


def test_warning_raised_as_an_error_is_a_domain_error(tmp_path):
    # with RuntimeWarning as an error, as CI runs the CLI demo, numpy's
    # divide by zero on the residual grid is raised, not printed: the CLI
    # reports it as JSON with exit 1, not a traceback
    dirs = tmp_path / "dirs3.csv"
    dirs.write_text("1, 0\n0, 1\n1, 1\n")
    script = (
        "import sys\n"
        "from ridgekit.cli import main\n"
        "sys.exit(main(['smooth', 'decompose', '--expr', '1/(x1+1)',"
        f" '--dirs', {str(dirs)!r}, '--box', '-1', '1', '-1', '1',"
        " '--crosscheck']))\n"
    )
    proc = _python(script, PYTHONWARNINGS="error::RuntimeWarning")
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["error"]["type"] == "RuntimeWarning"
    assert "divide by zero" in report["error"]["message"]


# the report writer: what ``json.dumps(..., sort_keys=True, indent=2,
# allow_nan=False)`` prints, for every kind of value a report can hold
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBERS = st.one_of(st.integers(), st.integers(2**64, 2**256),
                    st.integers(-2**256, -2**64), FINITE)
SCALARS = st.one_of(
    st.none(), st.booleans(), NUMBERS, FINITE.map(np.float64), st.text(),
    st.sampled_from([", ", "a, b", "[1, 2]", "é, ü", "\u2603, \n"]))
REPORT_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.lists(NUMBERS, max_size=6),
        st.lists(st.one_of(NUMBERS, st.booleans(), st.text(max_size=3)),
                 max_size=6)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(REPORT_VALUES)
def test_report_writer_prints_what_json_dumps_prints(value):
    want = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    assert _json_text(value) == want


@st.composite
def report_with_a_non_finite_field(draw):
    """(value, dotted path): a value holding one NaN or infinity, nested in
    dicts and lists of finite siblings, and the path that names it."""
    value = draw(st.sampled_from([math.nan, math.inf, -math.inf,
                                  np.float64("nan"), np.float64("-inf")]))
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            key = draw(st.text("abc", min_size=1, max_size=3))
            siblings = draw(st.dictionaries(st.text("xyz", min_size=1),
                                            REPORT_VALUES, max_size=3))
            value = {**siblings, key: value}
            steps.append(f".{key}")
        else:
            before = draw(st.lists(NUMBERS, max_size=3))
            after = draw(st.lists(SCALARS, max_size=3))
            value = before + [value] + after
            steps.append(f"[{len(before)}]")
    return value, "results" + "".join(reversed(steps))


@settings(max_examples=200, deadline=None)
@given(report_with_a_non_finite_field())
def test_report_writer_names_a_non_finite_field(case):
    value, path = case
    args = argparse.Namespace(_argv=["ridgekit", "test"])
    out = io.StringIO()
    with pytest.raises(ValueError, match=f"^{re.escape(path)} is not finite$"):
        with contextlib.redirect_stdout(out):
            _print_report(args, results=value)
    assert out.getvalue() == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("expr", ["log(x1)", "sqrt(x1)*x2"])
def test_a_target_that_is_nan_on_the_grid_is_a_domain_error(capsys, expr):
    # NaN where x1 < 0: the fallback's minimax must not read it as error 0
    code, out = run(capsys, "approx", "uniform", "--expr", expr,
                    "--dirs", "1", "0", "0", "1", "--bounds", "-1", "1", "0",
                    "1")
    assert code == 1
    report = json.loads(out)
    assert "results" not in report
    assert report["error"]["type"] == "ValueError"
    assert report["error"]["message"].endswith("is not finite")
