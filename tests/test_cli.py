import json

import pytest

from ridgekit.cli import main


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

    def test_missing_input_file_exits_2(self, capsys, tmp_path):
        code, out = run(capsys, "cycles", "check",
                        "--points", str(tmp_path / "missing.csv"),
                        "--directions", str(tmp_path / "missing2.csv"))
        assert code == 2
        report = json.loads(out)
        assert report["error"]["type"] == "FileNotFoundError"
        assert "missing.csv" in report["error"]["message"]

    def test_deterministic_modulo_timing(self, capsys, square_csv,
                                         xy_dirs_csv):
        _, out1 = run(capsys, "cycles", "check",
                      "--points", square_csv, "--directions", xy_dirs_csv)
        _, out2 = run(capsys, "cycles", "check",
                      "--points", square_csv, "--directions", xy_dirs_csv)
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("timing_seconds"), r2.pop("timing_seconds")
        assert r1 == r2

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
