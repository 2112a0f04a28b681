"""Command-line front end: verification runs, t-sweeps, machine-readable tables."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__
from .asymptotics import decomposition, decompositions, default_t_grid, heat_content, third_term
from .errors import DimensionMismatchError, HeatcovError, InvalidShapeError
from .kernel import KernelConstants
from .quadrature import QuadSpec
from .shapes import Interval, Rectangle, Shape, UnitBall, covariance, shape_from_json

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

NAMED_SHAPES = {
    "ball2": lambda: UnitBall(2),
    "ball3": lambda: UnitBall(3),
    "square": lambda: Rectangle(1.0, 1.0),
}

# The paper's closed forms, which ``verify`` checks the computed routes against:
# (C_Omega, int_0^1 gamma(ell s)/s ds) for each named shape
SQRT2 = math.sqrt(2.0)
CLOSED_FORMS = {
    "ball2": (6.0 * math.log(2.0) - 2.0, math.pi * (math.pi - 4.0 * math.log(2.0))),
    "ball3": (4.0 * math.log(2.0), 2.0 * math.pi**2 / 3.0),
    "square": (
        4.0 / math.pi * (2.0 * (SQRT2 - 1.0) + math.log(16.0 / (3.0 + 2.0 * SQRT2))),
        2.0 * SQRT2 * (math.pi - 8.0) + 8.0 * math.log(2.0 * (3.0 + 2.0 * SQRT2)),
    ),
}


def interval_constant(length: float) -> float:
    """C_Omega of an interval of the given length, whose gamma vanishes."""
    return 2.0 / math.pi * (1.0 + math.log(length))


COLUMNS = ["t", "H", "phi", "psi", "F", "R", "residual", "D"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _resolve_shape(args) -> Shape:
    if args.shape_file:
        with open(args.shape_file) as fh:
            return shape_from_json(json.load(fh))
    if args.shape:
        return NAMED_SHAPES[args.shape]()
    raise InvalidShapeError(f"{args.command} needs --shape or --shape-file")


def _quad_from(args) -> QuadSpec:
    tol = getattr(args, "tol", None)
    if tol is None:
        return QuadSpec()
    return QuadSpec(abs_tol=tol, rel_tol=tol)


def _write(text: str, out: Optional[str]):
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_constants(args) -> int:
    kc = KernelConstants.for_dim(args.dim)
    print(json.dumps(dataclasses.asdict(kc), indent=2))
    return EXIT_OK


def cmd_covariance(args) -> int:
    shape = _resolve_shape(args)
    y = [float(v) for v in args.point.split(",")]
    g = covariance(shape, y)
    print(_fmt(g))
    return EXIT_OK


def cmd_heat_content(args) -> int:
    shape = _resolve_shape(args)
    print(_fmt(heat_content(shape, args.t, _quad_from(args))))
    return EXIT_OK


def cmd_expansion(args) -> int:
    shape = _resolve_shape(args)
    row = decomposition(shape, args.t, _quad_from(args))
    payload = {c: getattr(row, c) for c in COLUMNS}
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _rows_to_csv(rows) -> str:
    lines = [",".join(COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in COLUMNS))
    return "\r\n".join(lines) + "\r\n"


def _rows_to_json(rows, meta) -> str:
    return json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"


def cmd_sweep(args) -> int:
    shape = _resolve_shape(args)
    quad = _quad_from(args)
    if not (0 < args.t_min < args.t_max) or args.count < 2:
        print("sweep requires 0 < t-min < t-max and count >= 2", file=sys.stderr)
        return EXIT_USAGE
    # geometric grid, largest t first so the last row is nearest the limit
    ts = np.geomspace(args.t_max, args.t_min, args.count)
    rows = [{c: getattr(bd, c) for c in COLUMNS} for bd in decompositions(shape, ts.tolist(), quad)]
    if args.format == "csv":
        _write(_rows_to_csv(rows), args.out)
    else:
        meta = {
            "version": __version__,
            "shape": getattr(args, "shape", None) or args.shape_file,
            "t_min": args.t_min,
            "t_max": args.t_max,
            "count": args.count,
            "tol": getattr(args, "tol", None),
        }
        _write(_rows_to_json(rows, meta), args.out)
    return EXIT_OK


def _verify_one(name: str, shape: Shape, quad: QuadSpec, lines: list) -> bool:
    """Run the checks on a target, a 1-D one against (C of an interval, 0); append pass/fail lines."""
    ok = True

    def check(label, achieved, required):
        nonlocal ok
        passed = achieved <= required
        ok &= passed
        lines.append(
            f"{'PASS' if passed else 'FAIL'}  {name}: {label}  "
            f"achieved={achieved:.3e} required={required:.3e}"
        )

    c_closed, gamma_closed = CLOSED_FORMS[name] if shape.dim > 1 else (interval_constant(shape.geometry.volume), 0.0)
    report = third_term(shape, quad, t_grid=default_t_grid(4, 14))
    check("|C_formula - C_closed|", abs(report.C_formula - c_closed), 1e-8)
    check("|C_extrapolated - C_closed|", abs(report.C_extrapolated - c_closed), 1e-4)
    check("|gamma integral - closed form|", abs(report.pieces["gamma_integral"] - gamma_closed), 1e-8)
    for bd in decompositions(shape, [1e-1, 1e-2, 1e-3], quad):
        check(f"|residual| at t={bd.t}", abs(bd.residual), 1e-7)
    return ok


def cmd_verify(args) -> int:
    quad = _quad_from(args)
    targets = {**{name: make() for name, make in NAMED_SHAPES.items()}, "interval": Interval(0.0, 1.0)}
    if args.shape_file:
        shape = _resolve_shape(args)
        if args.target != "interval" or shape.dim != 1:
            raise InvalidShapeError("verify --shape-file takes a 1-D shape, with target interval")
        targets["interval"] = shape
    selected = targets if args.target == "all" else {args.target: targets[args.target]}
    lines = []
    all_ok = True
    for name, shape in selected.items():
        all_ok &= _verify_one(name, shape, quad, lines)
    print("\n".join(lines))
    print("RESULT: " + ("PASS" if all_ok else "FAIL"))
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; each subcommand X runs ``cmd_X``."""
    parser = argparse.ArgumentParser(prog="heatcov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shape_flags(p, tol=True):
        p.add_argument("--shape", choices=sorted(NAMED_SHAPES))
        p.add_argument("--shape-file", help="path to a JSON shape description")
        if tol:
            p.add_argument("--tol", type=float, help="quadrature tolerance override")

    p = sub.add_parser("constants", help="kernel constants for a dimension")
    p.add_argument("--dim", type=int, default=2)

    p = sub.add_parser("covariance", help="evaluate g(y) at a point")
    add_shape_flags(p, tol=False)
    p.add_argument("--point", required=True, help="comma-separated coordinates")

    p = sub.add_parser("heat-content", help="evaluate H(t)")
    add_shape_flags(p)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("expansion", help="full decomposition at one t")
    add_shape_flags(p)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("target", choices=[*NAMED_SHAPES, "interval", "all"])
    p.add_argument("--shape-file", help="a 1-D shape file, with target interval")
    p.add_argument("--tol", type=float)

    p = sub.add_parser("sweep", help="tabulate the decomposition over a t grid")
    add_shape_flags(p)
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="output path (default: stdout)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so that a replaced cmd_X takes effect
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (InvalidShapeError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HeatcovError, ArithmeticError) as exc:  # overflow, zero division, FloatingPointError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # NumPy's message names the array it could not allocate
        detail = " ".join(str(exc).split())
        print(f"error: out of memory{': ' + detail if detail else ''}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
