"""End-to-end acceptance checks.

Each test prints exactly one `ACCEPTANCE k: PASS|FAIL ...` line (run pytest
with -s to see them) and asserts the same condition, so the suite doubles as
a human-readable report.
"""

import math
import time

import numpy as np
import pytest

from heatcov import (
    ConvexPolygon,
    Interval,
    QuadSpec,
    Rectangle,
    UnitBall,
    covariance,
    decomposition,
    default_t_grid,
    gamma,
    gamma_weighted_integral,
    geometry,
    heat_content,
    third_term,
    unit_ball_volume,
    unit_sphere_area,
)
from heatcov.mc import mc_covariance, mc_heat_content

from conftest import (
    BALL2_C,
    BALL3_C,
    SQUARE_C,
    SQUARE_GAMMA,
    SQUARE_I0,
    SQUARE_I2,
    assert_covariance_facts,
    square_I_terms,
)

QUAD = QuadSpec()

TRIANGLE = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


def report(k: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def _ball_constant_criterion(k: int, shape, target: float):
    start = time.monotonic()
    rep = third_term(shape, QUAD, t_grid=default_t_grid(4, 14))
    elapsed = time.monotonic() - start
    e_formula = abs(rep.C_formula - target)
    e_extrap = abs(rep.C_extrapolated - target)
    ok = e_formula < 1e-8 and e_extrap < 1e-4 and elapsed < 30.0
    report(
        k,
        ok,
        f"C_formula err {e_formula:.2e} (req 1e-8), "
        f"C_extrapolated err {e_extrap:.2e} (req 1e-4), runtime {elapsed:.1f}s (req <30s)",
    )


def test_criterion_1_ball2_constant():
    _ball_constant_criterion(1, UnitBall(2), BALL2_C)


def test_criterion_2_ball3_constant():
    _ball_constant_criterion(2, UnitBall(3), BALL3_C)


def test_criterion_3_square_constant():
    rep = third_term(Rectangle(1.0, 1.0), QUAD, t_grid=default_t_grid(4, 14))
    e_formula = abs(rep.C_formula - SQUARE_C)
    gw, _ = gamma_weighted_integral(Rectangle(1.0, 1.0), QUAD)
    e_gamma = abs(gw - SQUARE_GAMMA)
    terms = square_I_terms(QUAD)
    e_sum = abs(sum(terms) - gw)
    ok = e_formula < 1e-8 and e_gamma < 1e-8 and e_sum < 1e-8
    report(
        3,
        ok,
        f"C_formula err {e_formula:.2e}, gamma integral err {e_gamma:.2e}, "
        f"sum(I_i) err {e_sum:.2e} (req 1e-8 each)",
    )


def test_criterion_4_gamma_integral_table():
    v2, _ = gamma_weighted_integral(UnitBall(2), QUAD)
    v3, _ = gamma_weighted_integral(UnitBall(3), QUAD)
    e2 = abs(v2 - math.pi * (math.pi - 4.0 * math.log(2.0)))
    e3 = abs(v3 - 2.0 * math.pi**2 / 3.0)
    ok = e2 < 1e-8 and e3 < 1e-8
    report(4, ok, f"ball2 err {e2:.2e}, ball3 err {e3:.2e} (req 1e-8 each)")


def test_criterion_5_decomposition_identity():
    worst = 0.0
    for shape in (UnitBall(2), UnitBall(3), Rectangle(1.0, 1.0)):
        for t in (1e-1, 1e-2, 1e-3):
            worst = max(worst, abs(decomposition(shape, t, QUAD).residual))
    report(5, worst < 1e-7, f"max |residual| {worst:.2e} (req 1e-7)")


def test_criterion_6_covariance_properties():
    shapes = [UnitBall(2), Rectangle(1.0, 1.0), TRIANGLE, Interval(0.0, 1.0)]
    failures = []
    for shape in shapes:
        try:
            assert_covariance_facts(shape, QUAD, seed=17)
        except AssertionError as exc:
            failures.append(f"{type(shape).__name__}: {exc}")
    report(
        6,
        not failures,
        "all covariance properties hold for ball/square/triangle/interval"
        if not failures
        else "; ".join(failures),
    )


def test_criterion_7_I_terms():
    terms = square_I_terms(QUAD)
    e0 = abs(terms[0] - SQUARE_I0)
    e2 = abs(terms[2] - SQUARE_I2)
    e_sym = max(abs(terms[i] - terms[i + 4]) for i in range(4))
    ok = e0 < 1e-8 and e2 < 1e-8 and e_sym < 1e-8
    report(
        7,
        ok,
        f"I0 err {e0:.2e}, I2 err {e2:.2e}, max symmetry gap {e_sym:.2e} (req 1e-8 each)",
    )


def test_criterion_8_monte_carlo_agreement():
    worst_z = 0.0
    # heat content: n = 1e6, fixed seeds
    for shape, seed0 in ((UnitBall(2), 800), (Rectangle(1.0, 1.0), 900)):
        for j, t in enumerate((0.1, 0.01)):
            ref = heat_content(shape, t, QUAD)
            est = mc_heat_content(shape, t, n=1_000_000, seed=seed0 + j)
            worst_z = max(worst_z, abs(est.mean - ref) / est.stderr)
    # covariance at 20 random probes per shape against quadrature/closed forms
    rng = np.random.default_rng(2024)
    for shape in (UnitBall(2), Rectangle(1.0, 1.0)):
        ell = geometry(shape).support_radius
        for i in range(20):
            y = rng.uniform(-0.45 * ell, 0.45 * ell, 2)
            ref = covariance(shape, y)
            est = mc_covariance(shape, y, n=200_000, seed=3000 + i)
            worst_z = max(worst_z, abs(est.mean - ref) / est.stderr)
    report(8, worst_z <= 3.0, f"max |z| {worst_z:.2f} (req <= 3 standard errors)")


def test_criterion_9_interval_trend():
    target = 2.0 / math.pi
    errs = [
        abs(decomposition(Interval(0.0, 1.0), 2.0**-k, QUAD).D - target)
        for k in range(6, 11)
    ]
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    ok = errs[-1] < 0.02 and monotone
    report(
        9,
        ok,
        f"|D(2^-10) - 2/pi| = {errs[-1]:.4f} (req 0.02), "
        f"errors {'decrease' if monotone else 'DO NOT decrease'} over k=6..10",
    )


def test_criterion_10_ball_gamma_bound():
    worst = -math.inf
    for d in (2, 3):
        sigma = 1.0 if d == 2 else (d - 1) / 2.0
        bound = unit_sphere_area(d) * unit_ball_volume(d - 1) * sigma
        rng = np.random.default_rng(d)
        for s in rng.uniform(1e-6, 1.0, 1000):
            worst = max(worst, gamma(UnitBall(d), float(s), QUAD) - bound * s * s)
    report(10, worst <= 1e-12, f"max (gamma - bound) = {worst:.2e} (req <= 0)")
