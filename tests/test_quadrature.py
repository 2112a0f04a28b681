import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatcov import (
    QuadSpec,
    asymptotics,
    extrapolate_limit,
    integrate_1d,
    integrate_circle,
    third_term,
)
from heatcov.errors import ExtrapolationError, QuadratureError
from heatcov.quadrature import _gk_panels

from conftest import benchmark_radial_shapes


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

    @pytest.mark.parametrize("f,a,b,match", [
        (lambda x: x, 1.0, 1.0, "need a < b"),
        (lambda x: np.full_like(x, 1e308), 0.0, 10.0, "Kronrod sum overflows"),
    ], ids=["empty", "overflow"])
    def test_raises_on_an_empty_interval_and_an_overflowing_sum(self, f, a, b, match, quad):
        # every sample of the overflowing integrand is finite; its Kronrod sum, 2e308, is not
        with pytest.raises(QuadratureError, match=match):
            integrate_1d(f, a, b, quad)

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

    def test_a_column_keeps_its_bits_beside_others(self):
        # a column's panel sums are those of the one-valued integrand, whatever shares the
        # call: a (columns, 15) product a panel gave one column other last bits than two
        lo = np.linspace(0.0, 2.0, 41)[:-1]
        one = _gk_panels(np.sin, lo, lo + 0.05)
        for f in (lambda x: np.sin(x)[:, None], lambda x: np.column_stack([np.sin(x), np.exp(x)]),
                  lambda x: np.column_stack([np.sin(x), np.cos(x), x * x])):
            for got, want in zip(_gk_panels(f, lo, lo + 0.05)[:2], one[:2]):
                np.testing.assert_array_equal(got[0], want[0])

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

    @pytest.mark.parametrize("tol", [True, "1e-10", None])
    @pytest.mark.parametrize("name", ["abs_tol", "rel_tol"])
    def test_rejects_a_tolerance_that_is_no_real_number(self, name, tol):
        # True was accepted as 1.0, and a string or None raised a bare TypeError from '<'
        with pytest.raises(ValueError, match="tolerances must be positive and finite"):
            QuadSpec(**{name: tol})

    @pytest.mark.parametrize("tol", [np.float64(1e-9), np.float32(1e-9), 1], ids=["float64", "float32", "int"])
    def test_accepts_a_numpy_or_integer_tolerance(self, tol):
        assert QuadSpec(abs_tol=tol, rel_tol=tol).abs_tol == tol

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


def _lstsq_limit(samples):
    """(coefficients, rank, err_estimate) of the fit as np.linalg.lstsq makes it, with the
    design of ``extrapolate_limit``: the reference for its float Gram-Schmidt."""
    ts, ds = (np.array(col) for col in zip(*samples))
    n_used = math.ceil(2 * len(samples) / 3)

    def fit(t, d):
        design = np.column_stack([np.ones_like(t), t * np.array([math.log(1.0 / v) for v in t]), t])
        coeffs, _, rank, _ = np.linalg.lstsq(design, d, rcond=None)
        return coeffs, rank, d - design @ coeffs

    coeffs, rank, residuals = fit(ts[-n_used:], ds[-n_used:])
    drop, rank_drop, _ = fit(ts[-n_used + 1:], ds[-n_used + 1:])
    return coeffs, min(rank, rank_drop), float(np.max(np.abs(residuals))) + abs(coeffs[0] - drop[0])


def _exact_limit(samples):
    """The least-squares coefficients of the float design in exact rationals."""
    n_used = math.ceil(2 * len(samples) / 3)
    rows = [(Fraction(1), Fraction(t * math.log(1.0 / t)), Fraction(t), Fraction(d)) for t, d in samples[-n_used:]]
    normal = [[sum(r[i] * r[j] for r in rows) for j in range(4)] for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            f = normal[j][i] / normal[i][i]
            normal[j] = [a - f * b for a, b in zip(normal[j], normal[i])]
    x = [Fraction(0)] * 3
    for i in (2, 1, 0):
        x[i] = (normal[i][3] - sum(normal[i][j] * x[j] for j in range(i + 1, 3))) / normal[i][i]
    return [float(v) for v in x]


def _observed_order(samples, c):
    """The median of the observed orders log(e_k / e_(k+1)) / log(t_k / t_(k+1)), e = |D - c|."""
    orders = [math.log(abs(d0 - c) / abs(d1 - c)) / math.log(t0 / t1)
              for (t0, d0), (t1, d1) in zip(samples, samples[1:]) if d0 != c and d1 != c]
    return float(np.median(orders))


def _check_fit(samples):
    coeffs, rank, err = _lstsq_limit(samples)
    if rank < 3:  # a drop-one fit of two samples, say
        with pytest.raises(ExtrapolationError, match="rank-deficient"):
            extrapolate_limit(samples)
        return
    fit = extrapolate_limit(samples)
    # C is well conditioned: lstsq's is within 1e-13 relative.  The t ln(1/t) and t columns
    # are nearly parallel on a dyadic grid, so lstsq's slopes miss the exact least-squares
    # solution by up to 2e-9 relative on the radial samples: each coefficient must be as
    # near that solution as lstsq's, or within 1e-13 relative of it
    assert fit.C == pytest.approx(coeffs[0], rel=1e-13, abs=0.0)
    exact = _exact_limit(samples)
    for got, ref, want in zip([fit.C, fit.coeff_tlogt, fit.coeff_t], coeffs.tolist(), exact):
        assert abs(got - want) <= max(abs(ref - want), 1e-13 * abs(want)), (got, ref, want)
    # err_estimate and the orders are differences of numbers of the size of C
    assert fit.err_estimate == pytest.approx(err, rel=0.0, abs=1e-13 * max(1.0, abs(fit.C)))
    assert fit.observed_order == pytest.approx(_observed_order(samples, fit.C), rel=1e-13)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fit_of_each_radial_third_term_matches_lstsq(seed, monkeypatch):
    fits = []
    monkeypatch.setattr(asymptotics, "extrapolate_limit", lambda s: (fits.append(list(s)), extrapolate_limit(s))[1])
    for shape in benchmark_radial_shapes(seed):
        third_term(shape)
    assert len(fits) == 19 and all(len(s) == 13 for s in fits)
    for samples in fits:
        _check_fit(samples)


def test_fit_of_random_designs_matches_lstsq():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(4, 20))
        ts = sorted(set((rng.uniform(0.05, 0.95) * 2.0 ** -rng.uniform(1.0, 14.0, n)).tolist()), reverse=True)
        if len(ts) < 4 or ts[-math.ceil(2 * len(ts) / 3)] / ts[-1] < 2.0:
            continue
        c, a, b = rng.normal(size=3) * 3.0
        noise = rng.normal(size=len(ts)) * 10.0 ** rng.uniform(-14.0, -6.0)
        _check_fit([(t, c + a * t * math.log(1.0 / t) + b * t + e) for t, e in zip(ts, noise)])


@pytest.mark.parametrize("scale", [1e-200, 1e-150])
def test_rank_deficient_fit_raises(scale):
    # t ln(1/t) and t are below eps of the column of ones, so lstsq finds rank 1
    samples = [(scale * 2.0**-k, 1.0 + 1e-3 * k) for k in range(13)]
    assert _lstsq_limit(samples)[1] < 3
    with pytest.raises(ExtrapolationError, match="rank-deficient"):
        extrapolate_limit(samples)


@pytest.mark.parametrize("samples", [
    [(0.5, 1.0), (0.25, 1.0), (0.0, 1.0), (-0.1, 1.0)],
    [(0.5, 1.0), (0.25, math.nan), (0.125, 1.0), (0.0625, 1.0)],
    [(0.5, 1.0), (0.25, 1.0), (0.125, math.inf), (0.0625, 1.0)],
], ids=["t <= 0", "nan sample", "inf sample"])
def test_fit_rejects_non_positive_t_and_non_finite_samples(samples):
    with pytest.raises(ExtrapolationError):
        extrapolate_limit(samples)
