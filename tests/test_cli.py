import csv
import io
import json
import math
from fractions import Fraction

import pytest

from heatcov import cli
from heatcov.cli import main

from conftest import POLYGONS_OUTSIDE_THE_FLOATS, SQUARE_C, SQUARE_GAMMA, ball_constant, ball_gamma_integral


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

    def test_square_file_prints_the_bytes_of_the_square(self, tmp_path, capsys):
        # the corners, in the order Rectangle lists them, given as a polygon file take the box's
        # closed form, as --shape square does, and the same chord table
        f = tmp_path / "square.json"
        f.write_text(json.dumps({"kind": "polygon", "vertices": [[1, -1], [1, 1], [-1, 1], [-1, -1]]}))
        for argv in (["covariance", "--point=1,1"], ["covariance", "--point=0.3,0.7"], ["heat-content", "--t", "0.1"]):
            printed = run_cli([*argv, "--shape-file", str(f)], capsys)
            assert printed == run_cli([*argv, "--shape", "square"], capsys) and printed[0] == 0, argv
        assert run_cli(["covariance", "--point=1,1", "--shape-file", str(f)], capsys)[1] == "1\n"

    def test_far_point_prints_zero(self, capsys):
        # |y|^2 overflowed to inf, which printed 0 after a RuntimeWarning on stderr
        assert run_cli(["covariance", "--shape", "ball2", "--point=1e200,1e200"], capsys) == (0, "0\n", "")

    def test_non_finite_point_exits_3(self, capsys):
        # used to print 0 for the square and exit 0
        code, out, err = run_cli(["covariance", "--shape", "square", "--point", "nan,0"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: point must be finite")

    @pytest.mark.parametrize("point", ["1,2,3", "0.5"])
    def test_point_of_the_wrong_dimension_exits_2(self, point, capsys):
        # a 3-D point for the disc used to print "numerical failure" and exit 3
        code, out, err = run_cli(["covariance", "--shape", "ball2", f"--point={point}"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: point has shape")


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
            {"kind": "rectangle", "half_widths": [True, 1.0]},
            {"kind": "ball", "dim": 2, "radius": 3},
        ],
        ids=["missing-key", "not-an-object", "wrong-type", "non-integer-dim",
             "nan-half-width", "nan-vertex", "bool-half-width", "unknown-key"],
    )
    def test_invalid_shape_exits_2(self, doc, tmp_path, capsys):
        f = tmp_path / "shape.json"
        f.write_text(json.dumps(doc))
        code, out, err = run_cli(["covariance", "--shape-file", str(f), "--point", "0,0"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_thin_rectangle_exits_2(self, tmp_path, capsys):
        # its corners fail the polygon checks; it used to print H(0.1) = 9.4e-87 and exit 0, where
        # H is about |Omega|^2 p_0.1(0) = 2.5e-58
        f = tmp_path / "strip.json"
        f.write_text(json.dumps({"kind": "rectangle", "half_widths": [1e-30, 1]}))
        code, out, err = run_cli(["heat-content", "--shape-file", str(f), "--t", "0.1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("doc, size", POLYGONS_OUTSIDE_THE_FLOATS)
    def test_polygon_outside_the_floats_exits_2_naming_its_size(self, doc, size, tmp_path, capsys):
        # the first four printed two RuntimeWarnings or none, then "polygon has a repeated vertex"
        f = tmp_path / "shape.json"
        f.write_text(json.dumps(doc))
        code, out, err = run_cli(["heat-content", "--shape-file", str(f), "--t", "0.1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: a polygon of diameter ") and size in err
        assert err.count("\n") == 1 and "Warning" not in err

    def test_interval_of_infinite_length_exits_2(self, tmp_path, capsys):
        # it loaded with length inf, and expansion exited 3: "t = 0.5 is below inf"
        f = tmp_path / "interval.json"
        f.write_text(json.dumps({"kind": "interval", "a": -1e308, "b": 1e308}))
        code, out, err = run_cli(["expansion", "--shape-file", str(f), "--t", "0.5"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_tiny_interval_exits_3_without_warnings(self, tmp_path, capsys):
        # |Omega|^2 underflowed in the scale of H: it printed nan with two RuntimeWarnings and exited 0
        f = tmp_path / "interval.json"
        f.write_text(json.dumps({"kind": "interval", "a": 0, "b": 1e-160}))
        code, out, err = run_cli(["heat-content", "--shape-file", str(f), "--t", "1e-9"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: t = 1e-09 on a shape of diameter 1e-160")
        assert err.count("\n") == 1 and "Warning" not in err

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

    def test_interval_shape_file(self, tmp_path, capsys):
        f = tmp_path / "interval.json"
        f.write_text(json.dumps({"kind": "interval", "a": 0, "b": 2}))
        code, out, _ = run_cli(["verify", "interval", "--shape-file", str(f)], capsys)
        assert code == 0
        assert out.endswith("RESULT: PASS\n")

    @pytest.mark.parametrize(
        "doc",
        [{"kind": "interval", "a": 0.0, "b": 1.0}, {"kind": "interval", "a": 0.0, "b": math.e},
         {"kind": "interval", "a": -0.5, "b": 2.0}, {"kind": "ball", "dim": 1}],
        ids=["length-1", "length-e", "shifted", "ball1"],
    )
    def test_interval_shape_file_of_any_length(self, doc, tmp_path, capsys):
        # a 1-D target runs the checks of every target, against C = (2/pi)(1 + ln |Omega|)
        # and a gamma integral of 0
        f = tmp_path / "interval.json"
        f.write_text(json.dumps(doc))
        code, out, _ = run_cli(["verify", "interval", "--shape-file", str(f)], capsys)
        assert code == 0
        for label in ("|C_formula - C_closed|", "|C_extrapolated - C_closed|", "|gamma integral - closed form|",
                      "|residual| at t=0.001"):
            assert f"PASS  interval: {label}  " in out
        assert "FAIL" not in out
        assert out.endswith("RESULT: PASS\n")

    def test_closed_forms_match_the_oracles(self):
        # verify's table against the tests' own oracles: C and the gamma integral of the disc
        # and the 3-ball, the square's closed forms, and C = (2/pi)(1 + ln L) of an interval
        assert set(cli.CLOSED_FORMS) == set(cli.NAMED_SHAPES)
        for name, d in (("ball2", 2), ("ball3", 3)):
            c, gamma_integral = cli.CLOSED_FORMS[name]
            assert c == pytest.approx(ball_constant(d), abs=1e-13)
            assert gamma_integral == pytest.approx(ball_gamma_integral(d), rel=1e-13)
        assert cli.CLOSED_FORMS["square"] == pytest.approx((SQUARE_C, SQUARE_GAMMA), abs=1e-15)
        assert cli.interval_constant(math.e) == pytest.approx(4.0 / math.pi, rel=1e-15)
        assert cli.interval_constant(1.0) == pytest.approx(2.0 / math.pi, rel=1e-15)

    @pytest.mark.parametrize(
        "target, doc",
        [
            ("all", {"kind": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]}),
            ("interval", {"kind": "ball", "dim": 2}),
        ],
        ids=["all-triangle", "interval-ball2"],
    )
    def test_shape_file_other_than_an_interval_exits_2(self, target, doc, tmp_path, capsys):
        # verify checks only the built-in shapes and a 1-D shape given by file
        f = tmp_path / "shape.json"
        f.write_text(json.dumps(doc))
        code, out, err = run_cli(["verify", target, "--shape-file", str(f)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: verify --shape-file")


class TestTolerance:
    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_tolerance_outside_zero_to_inf_exits_2(self, tol, capsys):
        # --tol nan used to run 16 rounds and exit 3, --tol inf to print the first round
        code, out, err = run_cli(["heat-content", "--shape", "square", "--t", "0.1", "--tol", tol], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerances must be positive and finite")


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
    for argv in (
        ["covariance", "--point", "0,0"],
        ["heat-content", "--t", "0.1"],
        ["sweep", "--t-min", "0.1", "--t-max", "0.5", "--count", "2"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {argv[0]} needs --shape or --shape-file\n"


@pytest.mark.parametrize(
    "exc", [MemoryError(), MemoryError("Unable to allocate 445. MiB for an array with shape (298515, 200)")],
    ids=["bare", "numpy"],
)
def test_memory_error_exits_3(exc, capsys, monkeypatch):
    # a polygon whose chord tables do not fit used to print a traceback and exit 1
    def allocate(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_heat_content", allocate)
    code, out, err = run_cli(["heat-content", "--shape", "square", "--t", "0.1"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: out of memory")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert str(exc) in err
