import itertools
import math
import re

import numpy as np
import pytest

from heatcov import (
    Ball,
    ConvexPolygon,
    F_limit,
    Interval,
    QuadSpec,
    Rectangle,
    UnitBall,
    big_R,
    covariance,
    decomposition,
    decompositions,
    default_t_grid,
    gamma,
    gamma_weighted_integral,
    geometry,
    heat_content,
    integrate_1d,
    kappa,
    mc_heat_content,
    phi_slope,
    psi_F,
    third_term,
    unit_sphere_area,
)
from heatcov import shapes
from heatcov.asymptotics import _heat_and_R, phi_over_t
from heatcov.errors import DomainError

from conftest import (
    BALL2_C, BALL3_C, SQRT2, SQUARE_C, SQUARE_GAMMA, R_limit, ball_constant, ball_reference, box_constant,
    box_heat_content, phi, simpson,
)


def interval_heat_content_closed(t):
    # closed form for Omega = (0,1): integrate (1-|y|)+ against the 1-D kernel
    return 2.0 / math.pi * (math.atan(1.0 / t) - t / 2.0 * math.log(1.0 + 1.0 / t**2))


class TestHeatContent:
    @pytest.mark.parametrize(
        "shape", [UnitBall(2), Rectangle(1.0, 1.0), Interval(0.0, 1.0)]
    )
    def test_bounds_and_small_t_limit(self, shape, quad):
        vol = geometry(shape).volume
        assert 0.0 <= heat_content(shape, 0.3, quad) <= vol
        assert heat_content(shape, 1e-6, quad) > 0.99 * vol

    def test_interval_closed_form(self, quad):
        t = 0.1
        closed = interval_heat_content_closed(t)
        # independent fine-grid check of the closed form itself
        oracle = simpson(
            lambda y: (1.0 / math.pi) * t / (t * t + y * y) * max(0.0, 1.0 - abs(y)),
            -1.0,
            1.0,
            n=1 << 17,
        )
        assert closed == pytest.approx(oracle, abs=1e-9)
        assert heat_content(Interval(0.0, 1.0), t, quad) == pytest.approx(closed, abs=1e-10)

    def test_rejects_nonpositive_t(self, quad):
        with pytest.raises(DomainError):
            heat_content(UnitBall(2), 0.0, quad)

    @pytest.mark.parametrize(
        "shape, t",
        [(Interval(0.0, 1e-160), 1e-9), (Rectangle(1e-100, 1e-100), 1.0), (Ball(3, 1e-100), 0.1),
         (Ball(2, 1e100), 1e250), (Ball(1, 8e307), 1.7e308)],
        ids=["interval-1e-160", "square-1e-100", "ball3-1e-100", "ball2-1e100", "ball1-8e307"],
    )
    def test_scale_outside_the_floats_is_a_domain_error(self, shape, t, quad):
        # from the diameter up, H's column is divided by kappa_d t |Omega|^2 (t^2 + ell^2)^(-(d+1)/2),
        # which left the floats: the interval printed nan with two RuntimeWarnings (which fail this
        # test), the square raised QuadratureError
        message = re.escape(f"t = {t:g} on a shape of diameter {geometry(shape).support_radius:g}")
        for run in (lambda: heat_content(shape, t, quad), lambda: decompositions(shape, [t], quad)):
            with pytest.raises(DomainError, match=message):
                run()

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_nonfinite_t(self, t, quad):
        # t = inf used to return nan on the ball
        with pytest.raises(DomainError):
            heat_content(UnitBall(2), t, quad)

    @pytest.mark.parametrize("t", [True, False, "0.1", None, np.bool_(True)], ids=["True", "False", "str", "None", "np-bool"])
    def test_rejects_a_t_that_is_no_real_number(self, t, quad):
        # a bool is an int: heat_content(disc, True) read H(1) = 0.7295116852393728, and "0.1"
        # raised a bare TypeError from '<'
        disc = UnitBall(2)
        for run in (lambda: heat_content(disc, t, quad), lambda: decompositions(disc, [t], quad),
                    lambda: mc_heat_content(disc, t, n=1000, seed=1)):
            with pytest.raises(DomainError, match="t must be a real number"):
                run()

    @pytest.mark.parametrize("t", [np.float64(0.1), np.float32(0.1)], ids=["float64", "float32"])
    def test_numpy_float_t_is_its_float(self, t, quad):
        disc = UnitBall(2)
        assert heat_content(disc, t, quad) == heat_content(disc, float(t), quad)
        assert decompositions(disc, [t], quad) == decompositions(disc, [float(t)], quad)

    @pytest.mark.parametrize(
        "shape", [UnitBall(2), Rectangle(1.0, 1.0), ConvexPolygon([(0, 0), (1, 0), (0, 1)]), UnitBall(3), UnitBall(7)],
        ids=["disc", "square", "triangle", "ball3", "ball7"],
    )
    def test_rejects_t_below_the_least_supported(self, shape, quad):
        # (ell/t)^2 overflowed below t ~ 7e-155 ell: the disc's R(1e-160) read 0.6137 for
        # 0.18450, and the balls of d = 3 and 7 raised QuadratureError; down to 1e-150 ell,
        # R is at its limit
        for t in (1e-160, 1e-300):
            for f in (heat_content, big_R):
                with pytest.raises(DomainError, match="least supported t"):
                    f(shape, t, quad)
        assert big_R(shape, 1.01e-150 * geometry(shape).support_radius, quad) == pytest.approx(
            R_limit(shape, quad), rel=1e-12
        )

    def test_square_polar_vs_identity(self, quad):
        # H from direct polar quadrature vs H solved from the decomposition
        q = Rectangle(1.0, 1.0)
        geo = geometry(q)
        for t in (0.1, 0.01):
            bd = decomposition(q, t, quad)
            h_identity = geo.volume - (
                geo.volume * bd.phi + geo.perimeter / math.pi * t * bd.psi - t * bd.R
            )
            assert bd.H == pytest.approx(h_identity, abs=1e-8)


class TestPhi:
    def test_monotone_vanishing(self):
        shape = UnitBall(2)
        ts = [2.0**-k for k in range(1, 12)]
        vals = [phi(shape, t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_slopes(self):
        assert phi_slope(UnitBall(2)) == pytest.approx(0.5)
        assert phi_slope(Rectangle(1.0, 1.0)) == pytest.approx(1.0 / (2.0 * SQRT2))

    def test_slope_is_limit(self):
        shape = Rectangle(1.0, 1.0)
        assert phi_over_t(shape, 1e-8) == pytest.approx(phi_slope(shape), rel=1e-10)

    def test_closed_form_d2(self):
        # for d = 2 the tail integral is elementary: phi = t / sqrt(t^2 + ell^2)
        for t in (0.5, 0.05):
            assert phi(UnitBall(2), t) == pytest.approx(t / math.hypot(t, 2.0), abs=1e-12)

    @pytest.mark.parametrize("d", [1, 3, 4, 16])
    def test_against_fixed_grid_oracle(self, d):
        # phi(t)/t = (A_d kappa_d / t) * int_0^{t/ell} (1+u^2)^-(d+1)/2 du, Simpson
        shape = UnitBall(d)
        pref = unit_sphere_area(d) * kappa(d)
        for t in (1e-3, 0.4, 30.0):
            oracle = simpson(lambda u: (1.0 + u * u) ** (-(d + 1) / 2.0), 0.0, t / 2.0, n=1 << 12)
            assert phi_over_t(shape, t) == pytest.approx(pref * oracle / t, rel=1e-10)


class TestPsiF:
    def test_psi_matches_direct_integral(self, quad):
        for shape, t in ((UnitBall(2), 0.2), (UnitBall(3), 0.07), (Rectangle(1.0, 1.0), 0.3)):
            geo = geometry(shape)
            d = geo.dim
            direct, _ = integrate_1d(
                lambda r: r**d * (1.0 + r * r) ** (-(d + 1) / 2.0),
                0.0,
                geo.support_radius / t,
                quad,
                points=[1.0, 10.0],
            )
            psi, f_val = psi_F(shape, t)
            assert psi == pytest.approx(direct, abs=1e-9)
            assert psi == pytest.approx(math.log(1.0 / t) + f_val, abs=1e-12)

    def test_subnormal_t(self):
        # 1/t overflows below t = 2^-1024; t = m / 2^k exactly, so ln(1/t) = k ln 2 - ln m
        t = 1e-320
        m, den = t.as_integer_ratio()
        psi, f_val = psi_F(UnitBall(2), t)
        assert f_val == pytest.approx(F_limit(UnitBall(2)), rel=1e-15)
        assert psi == pytest.approx((den.bit_length() - 1) * math.log(2.0) - math.log(m) + f_val, rel=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 7, 16])
    def test_finite_t_against_fixed_grid_oracle(self, d):
        # F(t) = ln(ell + sqrt(ell^2 + t^2)) + int_0^{asinh(ell/t)} (tanh^d - 1)
        ell = 2.0
        for t in (0.05, 0.7, 5.0):
            tail = simpson(lambda th: math.tanh(th) ** d - 1.0, 0.0, math.asinh(ell / t), n=1 << 12)
            _, f_val = psi_F(UnitBall(d), t)
            assert f_val == pytest.approx(math.log(ell + math.hypot(ell, t)) + tail, abs=1e-10)

    def test_limits(self):
        assert F_limit(UnitBall(2)) == pytest.approx(math.log(4.0) - 1.0, abs=1e-10)
        assert F_limit(UnitBall(3)) == pytest.approx(math.log(2.0) - 0.5, abs=1e-10)
        assert F_limit(Rectangle(1.0, 1.0)) == pytest.approx(
            math.log(4.0 * SQRT2) - 1.0, abs=1e-10
        )


class TestBigR:
    def test_limits(self, quad):
        assert R_limit(UnitBall(3), quad) == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert R_limit(UnitBall(2), quad) == pytest.approx(
            (math.pi - 4.0 * math.log(2.0)) / 2.0, abs=1e-8
        )

    @pytest.mark.parametrize("shape", [UnitBall(2), UnitBall(3), Rectangle(1.0, 1.0)])
    def test_monotone_toward_limit(self, shape, quad):
        lim = R_limit(shape, quad)
        vals = [big_R(shape, 2.0**-k, quad) for k in range(2, 10)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= lim + 1e-10 for v in vals)

    def test_interval_vanishes(self, quad):
        assert big_R(Interval(0.0, 1.0), 0.1, quad) == 0.0


class TestDecomposition:
    @pytest.mark.parametrize("t", [0.1, 0.01, 0.001])
    def test_ball2_residual(self, t, quad):
        bd = decomposition(UnitBall(2), t, quad)
        assert abs(bd.residual) < 1e-8

    def test_invariants(self, quad):
        for shape in (UnitBall(2), UnitBall(3), Rectangle(1.0, 1.0)):
            vol = geometry(shape).volume
            bd = decomposition(shape, 0.05, quad)
            assert 0.0 <= bd.H <= vol
            assert 0.0 <= bd.phi <= 1.0
            assert bd.R >= 0.0
            # residual stays within 10x the stacked quadrature tolerances
            assert abs(bd.residual) <= 10.0 * 4.0 * max(quad.abs_tol, 1e-9)

    def test_square_D_near_constant(self, quad):
        bd = decomposition(Rectangle(1.0, 1.0), 0.05, quad)
        assert abs(bd.D - SQUARE_C) <= 0.1

    def test_interval_D(self, quad):
        bd = decomposition(Interval(0.0, 1.0), 0.01, quad)
        assert abs(bd.D - 2.0 / math.pi) <= 0.05
        assert abs(bd.residual) < 1e-10


@pytest.mark.parametrize(
    "shape", [UnitBall(3), UnitBall(2), Rectangle(1.0, 1.5), Interval(0.0, 0.7)],
    ids=["UnitBall(d=3)", "UnitBall(d=2)", "Rectangle(h1=1.0, h2=1.5)", "Interval(a=0.0, b=0.7)"],
)
def test_grid_pass_matches_single_t(shape, quad):
    # one pass over an unsorted grid on both sides of the diameter gives each t's own values
    ts = [3.0, 0.5, 10.0, 1e-3, 0.05]
    assert decompositions(shape, [], quad) == []
    for bd, t in zip(decompositions(shape, ts, quad), ts):
        single = decomposition(shape, t, quad)
        assert bd.t == t
        assert bd.H == pytest.approx(single.H, rel=1e-12)
        assert bd.R == pytest.approx(single.R, rel=1e-12, abs=0.0)
        assert bd.D == pytest.approx(single.D, rel=1e-12)


@pytest.mark.parametrize(
    "shape", [UnitBall(2), UnitBall(5), Interval(0.0, 0.7), Rectangle(1.0, 1.5), ConvexPolygon([(0, 0), (3, 0), (0, 3)])],
    ids=["UnitBall(d=2)", "UnitBall(d=5)", "Interval(a=0.0, b=0.7)", "Rectangle(h1=1.0, h2=1.5)", "triangle"],
)
def test_grid_order_moves_no_bit(shape, quad):
    # each t takes its H, R and D from its own column of one pass, wherever it stands in the grid;
    # the grid reaches below the least width, from it to the diameter (the rectangle's 2 and 3.6,
    # the triangle's 2.12 and 4.24) and beyond, with two t in a group where the shape has it
    want = None
    for grid in itertools.permutations([1e-3, 0.5, 2.5, 3.0, 10.0]):
        rows = decompositions(shape, grid, quad)
        r_alone = _heat_and_R(shape, grid, quad, heat=False)[1]  # third_term's grid pass
        assert [bd.t for bd in rows] == list(grid)
        got = {t: (bd.H.hex(), bd.R.hex(), bd.D.hex(), r.hex()) for t, bd, r in zip(grid, rows, r_alone)}
        want = want or got
        assert got == want, grid


class TestThirdTerm:
    def test_constant_assembly_collapses(self):
        # direct arithmetic: the assembled pieces reduce to the closed-form values
        k2 = 1.0 / (2.0 * math.pi)
        ball2 = k2 * (math.pi * 2.0 * math.pi / 2.0 - math.pi * (math.pi - 4.0 * math.log(2.0))) \
            + 2.0 * (math.log(4.0) - 1.0)
        assert ball2 == pytest.approx(BALL2_C, abs=1e-12)
        k3 = 1.0 / math.pi**2
        ball3 = k3 * (4.0 * math.pi / 3.0 * 4.0 * math.pi / 2.0 - 2.0 * math.pi**2 / 3.0) \
            + 4.0 * (math.log(4.0) - math.log(2.0) - 0.5)
        assert ball3 == pytest.approx(BALL3_C, abs=1e-12)
        square = k2 * (4.0 * 2.0 * math.pi / (2.0 * SQRT2) - SQUARE_GAMMA) \
            + 8.0 / math.pi * (math.log(4.0 * SQRT2) - 1.0)
        assert square == pytest.approx(SQUARE_C, abs=1e-12)

    @pytest.mark.parametrize(
        "shape,expected",
        [(UnitBall(2), BALL2_C), (UnitBall(3), BALL3_C), (Rectangle(1.0, 1.0), SQUARE_C)],
        ids=["ball2", "ball3", "square"],
    )
    def test_constants(self, shape, expected, quad):
        report = third_term(shape, quad, t_grid=default_t_grid(4, 14))
        assert report.C_formula == pytest.approx(expected, abs=1e-8)
        assert report.C_extrapolated == pytest.approx(expected, abs=1e-4)
        assert report.pieces["phi_slope"] == pytest.approx(phi_slope(shape))

    @pytest.mark.parametrize(
        "shape",
        [UnitBall(2), UnitBall(3), Rectangle(1.0, 1.0), ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])],
        ids=["ball2", "ball3", "square", "triangle"],
    )
    def test_gamma_integral_keeps_its_error_estimate(self, shape, quad):
        # the gamma integral behind C_formula reports its quadrature error beside its value
        report = third_term(shape, quad)
        value, err = gamma_weighted_integral(shape, quad)
        assert (report.pieces["gamma_integral"], report.pieces["gamma_integral_err"]) == (value, err)
        assert 0.0 < err < 1e-8

    @pytest.mark.parametrize(
        "vertices",
        [
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
            [(1, 0), (0.5, 0.8), (-0.5, 0.8), (-1, 0), (-0.5, -0.8), (0.5, -0.8)],
        ],
        ids=["triangle", "hexagon"],
    )
    def test_polygon_without_closed_form(self, vertices, quad):
        # nothing to check against but each other: the two routes agree within the fit's error
        report = third_term(ConvexPolygon(vertices), quad)
        assert abs(report.C_extrapolated - report.C_formula) <= report.extrapolation_err

    def test_interval_closed_form(self, quad):
        # C = (2/pi)(1 + ln L), 4/pi at L = e, with no gamma integral
        report = third_term(Interval(0.0, math.e), quad)
        assert report.C_formula == pytest.approx(4.0 / math.pi, abs=1e-12)
        assert report.C_extrapolated == pytest.approx(4.0 / math.pi, abs=report.extrapolation_err)

    def test_square_polygon_shares_rectangle_constant(self, quad):
        # the square as a polygon takes the generic path to the paper's constant
        square = ConvexPolygon([(1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)])
        report = third_term(square, quad, t_grid=default_t_grid(4, 14))
        assert report.C_formula == pytest.approx(SQUARE_C, abs=1e-8)
        assert report.C_extrapolated == pytest.approx(SQUARE_C, abs=1e-4)

    def test_D_error_decreasing(self, quad):
        for shape, c in ((UnitBall(2), BALL2_C), (Rectangle(1.0, 1.0), SQUARE_C)):
            geo = geometry(shape)
            errs = []
            for k in range(4, 15):
                t = 2.0**-k
                pot = phi_over_t(shape, t)
                _, f_val = psi_F(shape, t)
                r = big_R(shape, t, quad)
                errs.append(abs(geo.volume * pot + geo.perimeter / math.pi * f_val - r - c))
            assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_unit_ball_d1_is_the_interval(self):
        # UnitBall(1) is the interval (-1, 1), wherever it lies: gamma vanishes, C is that of
        # an interval of length 2, and H(t) = 2 H_(0,1)(t/2)
        ball = UnitBall(1)
        assert ball == Interval(-1.0, 1.0) == Interval(0.0, 2.0)
        report = third_term(ball)
        assert report.C_formula == pytest.approx(2.0 / math.pi * (1.0 + math.log(2.0)), abs=1e-12)
        assert report.C_extrapolated == pytest.approx(report.C_formula, abs=1e-4)
        for t in (1e-3, 0.1, 2.0):
            assert heat_content(ball, t) == pytest.approx(2.0 * interval_heat_content_closed(t / 2.0), abs=1e-12)

    def test_bad_grid_rejected(self, quad):
        with pytest.raises(DomainError):
            third_term(UnitBall(2), quad, t_grid=[0.1, 0.2, 0.05, 0.01, 0.005])

    def test_a_grid_of_four_t_is_too_few_and_five_fit(self, quad):
        # every four-point grid used to pass this check and then fail the fit as "rank-deficient"
        with pytest.raises(DomainError, match=">= 5 points"):
            third_term(UnitBall(2), quad, t_grid=[0.5, 1e-2, 1e-4, 1e-6])
        report = third_term(UnitBall(2), quad, t_grid=[0.5, 1e-2, 1e-4, 1e-5, 1e-6])
        assert abs(report.C_extrapolated - report.C_formula) <= report.extrapolation_err


EPS = np.finfo(float).eps


@pytest.mark.parametrize("d", [1, 2, 3, 6, 16])
def test_ball_scaling_laws(d, quad, monkeypatch):
    # H_{rB}(r t) = r^d H_B(t); R, D and C scale by r^(d-1), D and C less (Per_B/pi) ln r.  Each
    # side may miss by its reported quadrature error, plus the 50 eps int |f| that QUADPACK
    # adds for rounding (integrate_1d's estimate has no such floor), over every term a value is
    # summed from.  R's kernel is (K_ell - K_c)/t, K_c the deficit kernel and K_ell its terms at
    # c = ell, both positive: its terms integrate to R + 2 (|Omega| - H)/t
    reported = []

    def recording(*args, **kwargs):
        value, err = integrate_1d(*args, **kwargs)
        reported.append((value, err))
        return value, err

    monkeypatch.setattr(shapes, "integrate_1d", recording)
    ts = [1e-4, 0.01, 0.5, 1.5, 10.0, 1e3]  # on both sides of the unit diameter 2

    def laws(ball, scale):
        """Per t, for ball at scale t: (H, R, D) and their error bounds, and (C, its bound)."""
        geo = geometry(ball)
        reported.clear()
        rows = decompositions(ball, [scale * t for t in ts], quad)
        # one chord pass, H columns then R columns; an interval's one chord needs no quadrature
        assert len(reported) == (d > 1)
        raw, err = reported[0] if d > 1 else (np.ones(2 * len(ts)), np.zeros(2 * len(ts)))
        out = []
        for j, (t, bd) in enumerate(zip(ts, rows)):
            # a column below the diameter is the deficit |Omega| - H, and R itself; above it,
            # H and R times a scale
            e_h = err[j] if t < 2.0 else err[j] * bd.H / raw[j]
            e_r = err[len(ts) + j] * abs(bd.R / raw[len(ts) + j]) if d > 1 else 0.0
            e_r += 50 * EPS * (abs(bd.R) + 2.0 * (geo.volume - bd.H) / bd.t)
            terms = abs(geo.volume * bd.phi / bd.t) + abs(geo.perimeter * bd.F / math.pi)
            out.append(((bd.H, e_h + 50 * EPS * geo.volume), (bd.R, e_r), (bd.D, e_r + 50 * EPS * terms)))
        report = third_term(ball, quad)
        g_err = gamma_weighted_integral(ball, quad)[1]
        pieces = report.pieces
        terms = (abs(geo.volume * pieces["phi_slope"]) + abs(geo.perimeter * pieces["F_limit"] / math.pi)
                 + abs(kappa(d) * pieces["gamma_integral"]))
        return out, (report.C_formula, kappa(d) * g_err + 50 * EPS * terms)

    unit, (c_unit, c_err) = laws(UnitBall(d), 1.0)
    per = geometry(UnitBall(d)).perimeter
    for r in (1e-6, 1e-3, 0.37, 3.0, 1e3, 1e6):
        scaled, (c_scaled, c_scaled_err) = laws(Ball(d, r), r)
        log_term = per * math.log(r) / math.pi
        for t, ((h, eh), (rr, er), (dd, ed)), ((h1, eh1), (r1, er1), (d1, ed1)) in zip(ts, scaled, unit):
            assert abs(h - r**d * h1) <= eh + r**d * eh1, (r, t)
            assert abs(rr - r ** (d - 1) * r1) <= er + r ** (d - 1) * er1, (r, t)
            d_err = ed + r ** (d - 1) * (ed1 + 50 * EPS * abs(log_term))
            assert abs(dd - r ** (d - 1) * (d1 + log_term)) <= d_err, (r, t)
        want = r ** (d - 1) * (c_unit + log_term)
        assert abs(c_scaled - want) <= c_scaled_err + r ** (d - 1) * (c_err + 50 * EPS * abs(log_term)), r


@pytest.mark.parametrize("d", range(2, 17))
def test_ball_constant_closed_form(d, quad):
    c = ball_constant(d)
    if d == 2:
        assert c == pytest.approx(BALL2_C, abs=1e-13)
    if d == 3:
        assert c == pytest.approx(BALL3_C, abs=1e-13)
    report = third_term(UnitBall(d), quad)
    assert abs(report.C_formula - c) <= 1e-12
    assert abs(report.C_extrapolated - c) <= report.extrapolation_err


@pytest.mark.parametrize("d", range(1, 17))
def test_ball_H_and_R_against_graded_reference(d, quad):
    # the chord pass against the radial forms of H and R, by graded Gauss-Legendre with the
    # covariance and gamma oracles; d = 1 is the interval (-1, 1), whose R vanishes
    for t in (1e-9, 1e-6, 1e-3, 0.05, 0.5, 2.0, 10.0, 1e3):
        bd = decomposition(UnitBall(d), t, quad)
        if d == 1:
            want_h, want_r = 2.0 / math.pi * (2.0 * math.atan(2.0 / t) - 0.5 * t * math.log1p(4.0 / t**2)), 0.0
        else:
            want_h, want_r = ball_reference(d, t)
        assert bd.H == pytest.approx(want_h, rel=1e-11, abs=0.0), t
        assert bd.R == pytest.approx(want_r, rel=1e-11, abs=0.0), t


SQUARE_CORNERS = [(1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)]


def _rotated_square(angle):
    c, s = math.cos(angle), math.sin(angle)
    return ConvexPolygon([(c * x - s * y, s * x + c * y) for x, y in SQUARE_CORNERS])


class TestMetamorphic:
    @pytest.mark.parametrize("angle", [0.3, 0.7])
    def test_rotation(self, angle, quad):
        rotated, square = _rotated_square(angle), Rectangle(1.0, 1.0)
        for s in (0.1, 0.3, 0.6, 0.9, 1.0):
            assert gamma(rotated, s, quad) == pytest.approx(gamma(square, s, quad), abs=1e-12)
        for t in (0.05, 0.5, 3.0):
            assert heat_content(rotated, t, quad) == pytest.approx(
                heat_content(square, t, quad), abs=1e-12
            )

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_scaling_formula(self, lam, quad):
        # C_{lam Q} = lam (C_Q + Per_Q ln(lam) / pi), through the generic polygon gamma
        report = third_term(Rectangle(lam, lam), quad, t_grid=default_t_grid(4, 10))
        expected = lam * (SQUARE_C + 8.0 * math.log(lam) / math.pi)
        assert report.C_formula == pytest.approx(expected, abs=1e-8)

    def test_scaled_square_routes_agree(self, quad):
        report = third_term(Rectangle(2.0, 2.0), quad)
        assert abs(report.C_extrapolated - report.C_formula) <= 1e-6

    @pytest.mark.parametrize("shift", [(3.7, -1.2), (1e3, -1e3), (1e6, -1e6)])
    def test_translation(self, shift, quad):
        # areas are summed relative to vertex 0, so a far copy adds no rounding
        corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        triangle = ConvexPolygon(corners)
        moved = ConvexPolygon([(x + shift[0], y + shift[1]) for x, y in corners])
        ys = np.random.default_rng(8).uniform(-1.5, 1.5, (200, 2))
        np.testing.assert_allclose(
            covariance(moved, ys), covariance(triangle, ys), rtol=0.0, atol=1e-12
        )
        for s in (2.0**-8, 0.3, 0.7):
            assert gamma(moved, s, quad) == pytest.approx(gamma(triangle, s, quad), abs=1e-10)
        assert heat_content(moved, 0.05, quad) == pytest.approx(
            heat_content(triangle, 0.05, quad), abs=1e-10
        )

    def test_thin_quadrilateral_small_t(self, quad):
        # |Omega| - H = (Per/pi) t ln(1/t) + C t + o(t) at t = 1e-6, on a 50:1 sliver
        quadrilateral = ConvexPolygon([(0.0, 0.0), (5.0, 0.0), (5.1, 0.2), (0.0, 0.1)])
        geo, t = geometry(quadrilateral), 1e-6
        c_formula = (
            geo.volume * phi_slope(quadrilateral)
            + geo.perimeter / math.pi * F_limit(quadrilateral)
            - R_limit(quadrilateral, quad)
        )
        expansion = geo.volume - geo.perimeter / math.pi * t * math.log(1.0 / t) - c_formula * t
        assert abs(heat_content(quadrilateral, t, quad) - expansion) <= 1e-4 * t

    def test_triangle_routes_agree(self, quad):
        # no closed form: the formula and the extrapolated limit check each other
        report = third_term(ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]), quad)
        assert abs(report.C_extrapolated - report.C_formula) <= 1e-6


class TestBoxOracle:
    """Rectangles against conftest's box oracles, which take H and C by Gaussian subordination and
    so share no code with the chord measure."""

    def test_square_constant_is_the_papers(self):
        assert box_constant(1.0, 1.0) == pytest.approx(SQUARE_C, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("h1, h2", [(1.0, 1.0), (1.5, 0.5)])
    def test_heat_content(self, h1, h2, quad):
        # the truncated GK15 weights read smooth integrals up to 3.3e-15 low
        for t in (1e-3, 0.1, 2.0):
            assert heat_content(Rectangle(h1, h2), t, quad) == pytest.approx(
                box_heat_content(h1, h2, t), rel=1e-14, abs=0.0
            ), t

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: H of the aspect-1e3 box reads 1.18e-14 low at t = 2")
    def test_heat_content_of_a_thin_box(self, quad):
        # at t = 1e-3 and 0.1 this box reads 3.3e-15 and 4.0e-15 low, within the bound
        assert heat_content(Rectangle(0.5e-3, 0.5), 2.0, quad) == pytest.approx(
            box_heat_content(0.5e-3, 0.5, 2.0), rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize("h1, h2", [(1.0, 1.0), (1.5, 0.5), (0.5e-3, 0.5)],
                             ids=["aspect-1", "aspect-3", "aspect-1e3"])
    def test_C_formula(self, h1, h2, quad):
        # aspect 1e3 reads 7.2e-13 relative off; the others within 2.6e-15
        c = box_constant(h1, h2)
        assert abs(third_term(Rectangle(h1, h2), quad).C_formula - c) <= 1e-12 * max(1.0, abs(c))
