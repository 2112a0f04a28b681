import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatcov import (
    KernelConstants,
    integrate_1d,
    kappa,
    tanh_deficit,
    unit_ball_volume,
    unit_sphere_area,
)
from heatcov.errors import DomainError
from heatcov.kernel import (
    _a_minus_sin,
    _ball_volume,
    _recurrence_sums,
    cos_power_deficit,
    gamma_half_integer,
    z_minus_asinh_mean,
)

from conftest import poisson_kernel, simpson


class TestKappa:
    def test_values(self):
        assert kappa(2) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)
        assert kappa(3) == pytest.approx(1.0 / math.pi**2, abs=1e-15)
        assert kappa(1) == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            kappa(0)
        with pytest.raises(DomainError):
            kappa(17)
        with pytest.raises(DomainError, match="dimension must be an integer"):
            kappa(2.0)

    @pytest.mark.parametrize("d", [True, False])
    @pytest.mark.parametrize("f", [kappa, unit_ball_volume, unit_sphere_area, tanh_deficit, KernelConstants.for_dim],
                             ids=["kappa", "unit_ball_volume", "unit_sphere_area", "tanh_deficit", "for_dim"])
    def test_rejects_a_bool_dimension(self, f, d):
        # a bool is an int: kappa(True) returned kappa_1 and KernelConstants.for_dim(True) built d = 1
        with pytest.raises(DomainError, match="dimension must be an integer"):
            f(d)

    def test_kappa_wd_identity(self):
        # kappa_d * w_{d-1} = 1/pi for d >= 2
        for d in range(2, 9):
            assert kappa(d) * unit_ball_volume(d - 1) == pytest.approx(1.0 / math.pi, rel=1e-14)


class TestBallConstants:
    def test_values(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
        assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi)
        assert unit_ball_volume(1) == 2.0
        assert _ball_volume(0) == 1.0  # w_0, behind the checked unit_ball_volume
        assert unit_sphere_area(1) == 2.0

    def test_area_is_d_times_volume(self):
        for d in range(1, 17):
            assert unit_sphere_area(d) == pytest.approx(d * unit_ball_volume(d), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            unit_ball_volume(0)
        with pytest.raises(DomainError, match="positive half-integer"):
            gamma_half_integer(0.3)


class TestPoissonKernel:
    def test_at_origin(self):
        assert poisson_kernel(2, 1.0, [0.0, 0.0]) == pytest.approx(1.0 / (2.0 * math.pi))
        assert poisson_kernel(2, 2.0, [0.0, 0.0]) == pytest.approx(1.0 / (8.0 * math.pi))

    def test_scaling_example(self):
        lhs = poisson_kernel(3, 0.5, [0.0, 0.0, 0.5])
        rhs = 0.5**-3 * poisson_kernel(3, 1.0, [0.0, 0.0, 1.0])
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(DomainError):
            poisson_kernel(2, 0.0, [0.0, 0.0])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_non_finite_and_nonpositive_t(self, t):
        with pytest.raises(DomainError):
            poisson_kernel(2, t, [0.1, 0.2])

    @settings(max_examples=50, deadline=None)
    @given(
        t=st.floats(1e-3, 1e3),
        coords=st.lists(st.floats(-10, 10), min_size=1, max_size=3),
    )
    def test_scaling_property(self, t, coords):
        d = len(coords)
        x = np.array(coords)
        lhs = poisson_kernel(d, t, x)
        rhs = t**-d * poisson_kernel(d, 1.0, x / t)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_normalization(self, d):
        # radial mass inside |x| <= 1e6 t; substitution u = r/t makes it t-free
        t = 1.0
        pref = unit_sphere_area(d) * kappa(d)
        val, _ = integrate_1d(
            lambda u: u ** (d - 1) * (1.0 + u * u) ** (-(d + 1) / 2.0),
            0.0,
            1e6,
            points=[1.0, 10.0, 100.0, 1e3, 1e4, 1e5],
        )
        assert abs(1.0 - pref * val) < 1e-4


class TestTanhDeficit:
    def test_closed_values(self):
        assert tanh_deficit(2) == pytest.approx(-1.0, abs=1e-10)
        assert tanh_deficit(3) == pytest.approx(-math.log(2.0) - 0.5, abs=1e-10)

    @pytest.mark.parametrize("d", range(1, 17))
    def test_against_fixed_grid_oracle(self, d):
        # independent oracle: Simpson on [0, 40] of tanh^d - 1; the tail beyond
        # 40 is below d * 2 e^-80.  A binomial form overflowed for d >= 11.
        oracle = simpson(lambda th: math.tanh(th) ** d - 1.0, 0.0, 40.0, n=1 << 16)
        assert tanh_deficit(d) == pytest.approx(oracle, abs=1e-9)

    def test_recursion(self):
        # J_1 = -ln 2, J_2 = -1, J_d = J_{d-2} - 1/(d-1)
        expected = {1: -math.log(2.0), 2: -1.0}
        for d in range(3, 17):
            expected[d] = expected[d - 2] - 1.0 / (d - 1)
        for d in range(1, 17):
            assert tanh_deficit(d) == pytest.approx(expected[d], abs=1e-14)

    def test_bound(self):
        for d in range(1, 17):
            j = tanh_deficit(d)
            assert j < 0.0
            assert abs(j) <= 1.0 + math.log(d)

    def test_domain(self):
        with pytest.raises(DomainError):
            tanh_deficit(2, 1.5)
        with pytest.raises(DomainError):
            tanh_deficit(17)

    @pytest.mark.parametrize("x", [True, False, "0.5", None, np.bool_(True)])
    def test_rejects_an_x_that_is_no_real_number(self, x):
        # True was taken as 1, so J_3(True) returned J_3, and "0.5" raised a bare TypeError
        with pytest.raises(DomainError, match="x must be a real number"):
            tanh_deficit(3, x)

    @pytest.mark.parametrize("x", [np.float64(0.3), np.float32(0.3), 1], ids=["float64", "float32", "int"])
    def test_accepts_a_numpy_or_integer_x_as_its_float(self, x):
        # a float32 x used to run the sums in float32 and return a float32 J_5 of 7 digits
        for d in (3, 5, 8):
            value = tanh_deficit(d, x)
            assert type(value) is float and value == tanh_deficit(d, float(x))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_low_dimensions_keep_the_recursion_bits(self, d):
        # J_1 = -log1p(x), J_2 = -x and J_3 = J_1 - x^2/2, as the recursion loop rounded them
        def loop(x):
            total = -math.log1p(x) if d % 2 else -x
            for k in range(3 if d % 2 else 4, d + 1, 2):
                total -= x ** (k - 1) / (k - 1)
            return total

        xs = np.linspace(0.0, 1.0, 1001).tolist()
        assert [tanh_deficit(d, x).hex() for x in xs] == [loop(x).hex() for x in xs]

    @pytest.mark.parametrize("d", range(4, 17))
    def test_against_mpmath(self, d):
        # -log1p(x) in odd d, less the sum of x^k / k over k = d - 1, d - 3, ... >= 1
        xs = np.linspace(0.0, 1.0, 1001).tolist()
        with mpmath.workdps(40):
            want = [float(-(mpmath.log1p(x) if d % 2 else 0) - mpmath.fsum(mpmath.mpf(x) ** k / k
                                                                       for k in range(d - 1, 0, -2)))
                    for x in xs]
        np.testing.assert_allclose([tanh_deficit(d, x) for x in xs], want, rtol=1e-15, atol=0.0)


def _a_minus_sin_loop(a):
    """a - sin(a), summing Taylor terms until none changes the sum: the reference."""
    term, total, k = a**3 / 6.0, np.zeros_like(a), 3
    while np.any(total + term != total):
        total += term
        k += 2
        term *= -a * a / ((k - 1) * k)
    return total


class TestCosPowerDeficit:
    @pytest.mark.parametrize("n", range(17))
    def test_float_matches_array(self, n):
        for s in [0.0, 1e-300, 1e-8, *np.linspace(0.0, 1.0, 41)[1:]]:
            got = cos_power_deficit(n, float(s))
            assert type(got) is float
            assert got == cos_power_deficit(n, np.array([s]))[0], (n, s)

    def test_series_at_small_angles(self):
        # for a <= 1e-4 the first term left out, a^7/5040, is below 1.2e-19 of a^3/6, so
        # a^3/6 - a^5/120 rounded once is the reference; a^2, a^3 and a^3/6 each round
        a = np.geomspace(1e-100, 1e-4, 2001)
        want = [float(Fraction(v) ** 3 / 6 - Fraction(v) ** 5 / 120) for v in a]
        np.testing.assert_allclose(_a_minus_sin(a), want, rtol=2.0 * np.finfo(float).eps, atol=0.0)

    def test_series_matches_term_by_term_sum(self):
        a = np.linspace(0.0, math.pi / 2.0, 2001)[1:]
        np.testing.assert_allclose(_a_minus_sin(a), _a_minus_sin_loop(a), rtol=1e-15, atol=0.0)


def _recurrence_sums_exact(n, sin):
    """The sums of the unrolled T_n and I_n recurrences in exact rationals at the float sin A:
    sum of X^k / k over k = n, n - 2, ... >= 1, and sum of w_k X^(k-1) over k = n, n - 2, ... >= 2
    with w_k = (the product of (j - 1)/j over j = n, n - 2, ..., k + 2)/k."""
    x = Fraction(sin)
    tee = sum(x**k / k for k in range(n, 0, -2))
    ratio, rest = Fraction(1), Fraction(0)
    for k in range(n, 1, -2):
        rest += ratio / k * x ** (k - 1)
        ratio *= Fraction(k - 1, k)
    return tee, rest


@pytest.mark.parametrize("n", range(1, 16))
def test_recurrence_sums_are_within_4_ulps_of_exact(n):
    # Horner in sin^2 A on 200 points of sin A in [0, 1), dense near 0 and near 1; the
    # transcendental bases T_0, T_1, I_0 and I_1 are not part of the sums
    sines = np.concatenate([[0.0], np.geomspace(1e-9, 0.5, 100), 1.0 - np.geomspace(1e-12, 0.5, 99)])
    tee, rest = _recurrence_sums(n, sines)
    for got, s in zip(zip(tee.tolist(), rest.tolist()), sines.tolist()):
        for value, want in zip(got, _recurrence_sums_exact(n, s)):
            ulp = Fraction(float(np.spacing(float(want)))) if want else Fraction(0)
            assert abs(Fraction(value) - want) <= 4 * ulp, (n, s, value, float(want))


def _z_minus_asinh_mean_mp(a0, a1):
    """The mean of z - asinh z over [a0, a1] from its antiderivative in mpmath, with 40 digits
    more than the cancellation of its differences takes."""
    with mpmath.workdps(40 + 5 * max(0, math.ceil(-math.log10(a1)))):
        lo, hi = mpmath.mpf(a0), mpmath.mpf(a1)
        if lo == hi:
            return hi - mpmath.asinh(hi)
        antiderivative = lambda z: z * z / 2 - z * mpmath.asinh(z) + mpmath.sqrt(1 + z * z)  # noqa: E731
        return (antiderivative(hi) - antiderivative(lo)) / (hi - lo)


def test_z_minus_asinh_mean_series_within_4_ulps():
    # the series branch, a1 <= 1/4, on a grid of a1 and of a0/a1, ends and near-ends included
    a1 = np.concatenate([[1e-300, 1e-100, 1e-8, 1e-3], np.linspace(0.0, 0.25, 61)[1:]])
    ratio = np.array([0.0, 1e-12, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-9, 1.0])
    hi, lo = np.repeat(a1, len(ratio)), np.outer(a1, ratio).ravel()
    got = z_minus_asinh_mean(lo, hi)
    for a0, a1_, value in zip(lo.tolist(), hi.tolist(), got.tolist()):
        want = _z_minus_asinh_mean_mp(a0, a1_)
        ulp = mpmath.mpf(float(np.spacing(float(want))))
        assert abs(value - want) <= 4 * ulp, (a0, a1_, value, float(want))
    assert z_minus_asinh_mean(np.zeros(3), np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


def test_z_minus_asinh_mean_takes_each_branch_with_the_bits_of_both():
    # the masked branches are elementwise, so a mixed array repeats the bits that each branch
    # gives on an array of its own elements alone
    rng = np.random.default_rng(5)
    a1 = np.concatenate([[0.0, 0.25, np.nextafter(0.25, 1.0), 1e-300], rng.uniform(0.0, 0.5, 3600),
                         rng.uniform(0.0, 0.25, 3600), np.geomspace(1e-8, 1e3, 3600)])
    for a0 in (np.zeros_like(a1), a1 * rng.random(len(a1)), a1.copy()):
        small = a1 <= 0.25
        want = np.empty_like(a1)
        want[small] = z_minus_asinh_mean(a0[small], a1[small])
        want[~small] = z_minus_asinh_mean(a0[~small], a1[~small])
        np.testing.assert_array_equal(z_minus_asinh_mean(a0, a1), want)
        # the chord kernels pass one column per t
        cols = np.array([1.0, 3.0])
        got = z_minus_asinh_mean(a0[:, None] / cols, a1[:, None] / cols)
        np.testing.assert_array_equal(got, np.column_stack([z_minus_asinh_mean(a0 / c, a1 / c) for c in cols]))
        assert got.shape == (len(a1), 2)
    assert z_minus_asinh_mean(np.zeros(0), np.zeros(0)).shape == (0,)


def test_kernel_constants_bundle():
    kc = KernelConstants.for_dim(2)
    assert kc.sphere_area == pytest.approx(2.0 * kc.ball_volume)
    assert kc.tanh_deficit == pytest.approx(-1.0, abs=1e-10)
