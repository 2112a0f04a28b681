import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatcov import (
    QuadSpec,
    extrapolate_limit,
    integrate_1d,
    integrate_circle,
)
from heatcov.errors import ExtrapolationError, QuadratureError


class TestIntegrate1d:
    def test_linear(self, quad):
        val, err = integrate_1d(lambda s: s, 0.0, 1.0, quad)
        assert val == pytest.approx(0.5, abs=1e-14)
        assert err <= max(quad.abs_tol, quad.rel_tol * abs(val))

    def test_psi_closed_form(self, quad):
        # Psi for d=2, ell/t = 10, via both substitutions; the closed
        # antiderivative of r^2 (1+r^2)^(-3/2) is arcsinh(r) - r/sqrt(1+r^2)
        closed = math.asinh(10.0) - 10.0 / math.sqrt(101.0)
        v1, _ = integrate_1d(lambda th: np.tanh(th) ** 2, 0.0, math.asinh(10.0), quad)
        v2, _ = integrate_1d(lambda r: r * r * (1 + r * r) ** -1.5, 0.0, 10.0, quad)
        assert v1 == pytest.approx(closed, abs=1e-10)
        assert v2 == pytest.approx(closed, abs=1e-10)

    def test_integrable_endpoint(self, quad):
        val, _ = integrate_1d(
            lambda s: s * s / s, 0.0, 1.0, quad, points=[2.0**-k for k in range(1, 20)]
        )
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_subdivision_limit(self):
        spec = QuadSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=4)
        with pytest.raises(QuadratureError):
            integrate_1d(lambda x: np.sqrt(np.abs(np.sin(50 * x))), 0.0, 3.0, spec)

    def test_nonfinite_sample(self, quad):
        def f(x):
            with np.errstate(divide="ignore"):
                return np.where(x == 0.5, math.inf, 1.0 / (x - 0.5))

        with pytest.raises(QuadratureError, match="non-finite integrand sample"):
            integrate_1d(f, 0.4999999, 0.5000001, quad)

    def test_warns_nothing_and_names_a_divergence(self, quad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="probably diverges there"):
                integrate_1d(lambda s: 1.0 / s, 0.0, 1.0, quad)
            # a finite integral near the top of the float range, whose first error estimates overflow
            value, _ = integrate_1d(lambda x: 1e300 * (2.0 + np.sin(30.0 * x)), 0.0, 3.0, quad)
            assert value == pytest.approx(1e300 * (6.0 + (1.0 - math.cos(90.0)) / 30.0), rel=1e-10)

    @pytest.mark.parametrize("f,a,b", [
        (lambda s: 1.0 / s, 0.0, 1.0),
        (lambda s: 1.0 / (1.0 - s), 0.0, 1.0),
        (lambda s: s**-1.5, 0.0, 1.0),
        (lambda s: 1.0 / np.cos(s), 0.0, math.pi / 2),
    ], ids=["1/s", "1/(1-s)", "s^-1.5", "sec"])
    def test_divergence_raises_within_a_bounded_count(self, f, a, b, quad):
        # each round splits only the panel at the singularity; 1/s took 1018 rounds and
        # 30 525 evaluations before a bisected node underflowed
        sizes = []

        def counted(x):
            sizes.append(len(x))
            return f(x)

        with pytest.raises(QuadratureError, match="has not fallen in 16 rounds"):
            integrate_1d(counted, a, b, quad)
        assert len(sizes) <= 20
        assert sum(sizes) <= 600

    def test_slow_integrable_singularity_still_converges(self, quad):
        # s^-0.95 cuts the error estimate by 3.4 % a round, over 549 rounds; the value is
        # off by 7.9e-8, 42 times the error estimate, so the check is on the value
        value, err = integrate_1d(lambda s: s**-0.95, 0.0, 1.0, quad)
        assert value == pytest.approx(20.0, rel=1e-8)
        assert err <= 1e-10 * value

    def test_one_call_per_round(self):
        # a round evaluates the 15 nodes of all its panels in one call, and the
        # batches split the same panels as splitting the worst one at a time
        # did: 1275 panels, reached in 23 rounds instead of 638 single splits
        sizes = []

        def f(x):
            sizes.append(len(x))
            return np.sqrt(np.abs(np.sin(50 * x)))

        integrate_1d(f, 0.0, 3.0, QuadSpec(abs_tol=1e-8, rel_tol=1e-8))
        assert sum(sizes) == 15 * 1275
        assert len(sizes) == 23

    def test_columns_meet_each_tolerance(self, quad):
        # integrands of different sizes share the nodes, and each meets its own tolerance: a
        # column 1e-12 in size is resolved to 1e-10 absolute only, one of order 1 relatively
        def f(x):
            return np.column_stack([np.sin(x), 1e-12 * np.cos(x), np.sqrt(x), 1e-3 * np.exp(x)])

        value, err = integrate_1d(f, 0.0, 2.0, quad)
        want = np.array([1.0 - math.cos(2.0), 1e-12 * math.sin(2.0), 2.0 ** 2.5 / 3.0, 1e-3 * math.expm1(2.0)])
        assert value.shape == err.shape == (4,)
        assert np.all(err <= np.maximum(quad.abs_tol, quad.rel_tol * np.abs(value)))
        np.testing.assert_allclose(value, want, rtol=1e-10, atol=1e-10)
        # one column of an (n, 1) array: arrays of one, with the value of the one-valued call
        one, one_err = integrate_1d(lambda x: np.sqrt(x)[:, None], 0.0, 2.0, quad)
        assert one.shape == one_err.shape == (1,)
        assert one[0] == pytest.approx(integrate_1d(np.sqrt, 0.0, 2.0, quad)[0], abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=6))
    def test_polynomials_exact(self, coeffs):
        poly = np.polynomial.Polynomial(coeffs)
        anti = poly.integ()
        val, err = integrate_1d(poly, -1.0, 2.0, QuadSpec())
        expected = anti(2.0) - anti(-1.0)
        assert val == pytest.approx(expected, abs=1e-9 + 1e-9 * abs(expected))
        # the error estimate bounds the true error
        assert abs(val - expected) <= max(err, 1e-12 * (1 + abs(expected)))


class TestQuadSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [{"abs_tol": math.nan}, {"abs_tol": math.inf}, {"rel_tol": math.nan}, {"rel_tol": 0.0}, {"abs_tol": -1e-10}],
        ids=["abs-nan", "abs-inf", "rel-nan", "rel-zero", "abs-negative"],
    )
    def test_rejects_tolerance_outside_zero_to_inf(self, kwargs):
        # a nan tolerance used to run 16 rounds and report a divergence, an infinite one to
        # accept the first round as converged
        with pytest.raises(ValueError, match="tolerances must be positive and finite"):
            QuadSpec(**kwargs)

    @pytest.mark.parametrize("budget", [0, -3, 2.0, True])
    def test_rejects_budget_that_is_not_a_positive_integer(self, budget):
        # 0 used to be accepted and fail only inside integrate_1d
        with pytest.raises(ValueError, match="max_subdivisions must be an integer >= 1"):
            QuadSpec(max_subdivisions=budget)

    def test_budget_of_one_panel(self):
        spec = QuadSpec(max_subdivisions=1)
        assert integrate_1d(lambda x: x * x, 0.0, 1.0, spec)[0] == pytest.approx(1.0 / 3.0, rel=1e-15)
        with pytest.raises(QuadratureError, match="max subdivisions"):
            integrate_1d(np.abs, -1.0, 2.0, spec)


class TestIntegrateCircle:
    def test_constant(self, quad):
        val, _ = integrate_circle(lambda th: np.ones_like(th), spec=quad)
        assert val == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_abs_trig(self, quad):
        kinks = [k * math.pi / 2 for k in range(4)]
        val, _ = integrate_circle(
            lambda th: np.abs(np.cos(th)) + np.abs(np.sin(th)), kinks=kinks, spec=quad
        )
        assert val == pytest.approx(8.0, abs=1e-12)

    def test_square_variation_halves(self, quad):
        # circle integral of V_u(Q)/2 equals 2 w_1 Per(Q) / 2 = 16
        kinks = [k * math.pi / 2 for k in range(4)]
        val, _ = integrate_circle(
            lambda th: 2.0 * (np.abs(np.cos(th)) + np.abs(np.sin(th))), kinks=kinks, spec=quad
        )
        assert val == pytest.approx(16.0, abs=1e-12)

    def test_order_doubling_error(self, quad):
        val, err = integrate_circle(lambda th: np.cos(3 * th) ** 2, spec=quad)
        assert abs(val - math.pi) <= max(10.0 * err, 1e-12)

    def test_kinks(self, quad):
        # |cos - 0.3| creases at +-acos(0.3): found adaptively when unlisted,
        # and integrated to rounding when listed
        a = math.acos(0.3)
        exact = 4.0 * math.sin(a) + 0.6 * math.pi - 1.2 * a
        val, _ = integrate_circle(lambda th: np.abs(np.cos(th) - 0.3), spec=quad)
        assert val == pytest.approx(exact, abs=1e-6)
        val, _ = integrate_circle(lambda th: np.abs(np.cos(th) - 0.3), kinks=[a, -a], spec=quad)
        assert val == pytest.approx(exact, abs=1e-12)


class TestExtrapolateLimit:
    def test_exact_model(self):
        ts = [2.0**-k for k in range(4, 12)]
        samples = [(t, 1.0 + t * math.log(1.0 / t)) for t in ts]
        fit = extrapolate_limit(samples)
        assert fit.C == pytest.approx(1.0, abs=1e-10)
        assert fit.coeff_tlogt == pytest.approx(1.0, abs=1e-8)
        assert fit.coeff_t == pytest.approx(0.0, abs=1e-8)
        assert fit.err_estimate < 1e-10

    def test_model_class_recovery(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c, a, b = rng.uniform(-3, 3, 3)
            ts = [2.0**-k for k in range(4, 13)]
            samples = [(t, c + a * t * math.log(1.0 / t) + b * t) for t in ts]
            fit = extrapolate_limit(samples)
            assert fit.C == pytest.approx(c, abs=1e-9)

    def test_noise_raises_error_estimate(self):
        rng = np.random.default_rng(11)
        ts = [2.0**-k for k in range(4, 13)]
        samples = [
            (t, 1.0 + t * math.log(1.0 / t) + rng.choice([-1e-8, 1e-8])) for t in ts
        ]
        fit = extrapolate_limit(samples)
        assert fit.err_estimate >= 1e-8

    def test_requires_four_samples(self):
        with pytest.raises(ExtrapolationError):
            extrapolate_limit([(0.5, 1.0), (0.25, 1.0), (0.125, 1.0)])

    def test_requires_decreasing(self):
        with pytest.raises(ExtrapolationError):
            extrapolate_limit([(0.1, 1.0), (0.2, 1.0), (0.05, 1.0), (0.025, 1.0)])

    def test_narrow_range_rejected(self):
        samples = [(0.100 - 1e-4 * k, 1.0) for k in range(6)]
        with pytest.raises(ExtrapolationError):
            extrapolate_limit(samples)
