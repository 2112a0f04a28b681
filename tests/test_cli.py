import csv
import io
import json
import math
from fractions import Fraction

import pytest

from heatcov import cli
from heatcov.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstants:
    def test_d2(self, capsys):
        code, out, _ = run_cli(["constants", "--dim", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == 2
        assert payload["kappa"] == pytest.approx(1.0 / (2.0 * math.pi))
        assert payload["tanh_deficit"] == pytest.approx(-1.0, abs=1e-10)

    def test_d16(self, capsys):
        # J_16 = -(1 + 1/3 + ... + 1/15) = -2.0218004218004...
        code, out, _ = run_cli(["constants", "--dim", "16"], capsys)
        assert code == 0
        exact = -sum(Fraction(1, k) for k in range(1, 16, 2))
        assert json.loads(out)["tanh_deficit"] == pytest.approx(float(exact), rel=1e-15)

    def test_bad_dim_exits_3(self, capsys):
        code, _, _ = run_cli(["constants", "--dim", "0"], capsys)
        assert code == 3

    def test_arithmetic_fault_exits_3(self, capsys, monkeypatch):
        # a ZeroDivisionError used to print a traceback and exit 1 (verification failure)
        def divide(args):
            return 1.0 / 0.0

        monkeypatch.setattr(cli, "cmd_constants", divide)
        code, out, err = run_cli(["constants", "--dim", "2"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: ")
        assert "Traceback" not in err

    def test_parser_is_built_once_and_handlers_are_found_per_call(self, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        assert run_cli(["constants", "--dim", "2"], capsys)[0] == 0
        monkeypatch.setattr(cli, "cmd_constants", lambda args: 7)
        assert run_cli(["constants", "--dim", "2"], capsys)[0] == 7


class TestCovariance:
    def test_ball2_origin(self, capsys):
        code, out, _ = run_cli(
            ["covariance", "--shape", "ball2", "--point", "0,0"], capsys
        )
        assert code == 0
        assert float(out) == pytest.approx(math.pi, abs=1e-12)

    def test_shape_file(self, tmp_path, capsys):
        f = tmp_path / "shape.json"
        f.write_text(json.dumps({"kind": "interval", "a": 0.0, "b": 2.0}))
        code, out, _ = run_cli(
            ["covariance", "--shape-file", str(f), "--point", "0.5"], capsys
        )
        assert code == 0
        assert float(out) == pytest.approx(1.5, abs=1e-12)

    def test_non_finite_point_exits_3(self, capsys):
        # used to print 0 for the square and exit 0
        code, out, err = run_cli(["covariance", "--shape", "square", "--point", "nan,0"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: point must be finite")


class TestShapeFile:
    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "rectangle"},
            [1, 2],
            {"kind": "rectangle", "half_widths": 5},
            {"kind": "ball", "dim": 2.7},
            {"kind": "rectangle", "half_widths": [math.nan, 1.0]},
            {"kind": "polygon", "vertices": [[0, 0], [1, 0], [1, math.nan], [0, 1]]},
        ],
        ids=["missing-key", "not-an-object", "wrong-type", "non-integer-dim",
             "nan-half-width", "nan-vertex"],
    )
    def test_invalid_shape_exits_2(self, doc, tmp_path, capsys):
        f = tmp_path / "shape.json"
        f.write_text(json.dumps(doc))
        code, out, err = run_cli(["covariance", "--shape-file", str(f), "--point", "0,0"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_triangle_heat_content(self, tmp_path, capsys):
        f = tmp_path / "triangle.json"
        f.write_text(json.dumps({"kind": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]}))
        code, out, _ = run_cli(["heat-content", "--shape-file", str(f), "--t", "0.1"], capsys)
        assert code == 0
        assert 0.0 < float(out) < 0.5


class TestExpansion:
    def test_ball2_row(self, capsys):
        code, out, _ = run_cli(["expansion", "--shape", "ball2", "--t", "0.01"], capsys)
        assert code == 0
        row = json.loads(out)
        assert set(row) == {"t", "H", "phi", "psi", "F", "R", "residual", "D"}
        assert abs(row["residual"]) < 1e-8
        assert abs(row["D"] - (6.0 * math.log(2.0) - 2.0)) < 0.05


class TestVerify:
    def test_ball2_passes(self, capsys):
        code, out, _ = run_cli(["verify", "ball2"], capsys)
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "nonsense"], capsys)
        assert exc.value.code == 2


class TestSweep:
    def test_csv_deterministic(self, tmp_path, capsys):
        args = [
            "sweep", "--shape", "ball2",
            "--t-min", "0.01", "--t-max", "0.1", "--count", "5",
            "--format", "csv",
        ]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert b"\r\n" in out_a.read_bytes()

    def test_csv_contents(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep", "--shape", "square",
                "--t-min", "0.001", "--t-max", "0.1", "--count", "4",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        ts = [float(r["t"]) for r in rows]
        assert ts == sorted(ts, reverse=True)
        for r in rows:
            assert abs(float(r["residual"])) < 1e-8

    def test_last_row_near_limit(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep", "--shape", "ball2",
                "--t-min", str(2.0**-16), "--t-max", str(2.0**-4), "--count", "13",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 13
        d_last = float(rows[-1]["D"])
        assert abs(d_last - (6.0 * math.log(2.0) - 2.0)) < 1e-3

    def test_json_meta(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep", "--shape", "ball2",
                "--t-min", "0.01", "--t-max", "0.1", "--count", "3",
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["shape"] == "ball2"
        assert payload["meta"]["count"] == 3
        assert len(payload["rows"]) == 3

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run_cli(
            [
                "sweep", "--shape", "ball2",
                "--t-min", "0.1", "--t-max", "0.01", "--count", "3",
            ],
            capsys,
        )
        assert code == 2


def test_no_shape_exits_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["covariance", "--point", "0,0"], capsys)
    assert exc.value.code == 2
