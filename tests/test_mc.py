import collections
import inspect
import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatcov import (
    Ball,
    ConvexPolygon,
    QuadSpec,
    Interval,
    Rectangle,
    UnitBall,
    covariance,
    heat_content,
    mc_covariance,
    mc_heat_content,
)
from heatcov import asymptotics, kernel, mc, quadrature, shapes
from heatcov.errors import DimensionMismatchError, DomainError
from heatcov.mc import _block_rng
from heatcov.shapes import ball_covariance_radial

from conftest import (
    area_left_of, contains, convex_polygons, reference_heat_hits, reference_shift_hits, run_python, sample,
    sample_cauchy,
)

TRIANGLE = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
HEXAGON = ConvexPolygon([(1.0, 0.0), (0.5, 0.8), (-0.5, 0.8), (-1.0, 0.0), (-0.5, -0.8), (0.5, -0.8)])
GON40 = ConvexPolygon([(math.cos(math.pi * k / 20), math.sin(math.pi * k / 20)) for k in range(40)])
PENTAGON = ConvexPolygon([(0.0, 0.0), (2.0, 0.0), (2.5, 1.0), (1.0, 2.0), (-0.5, 1.0)])
RECT = Rectangle(1.3, 0.6)
PARTIAL = 3 * (1 << 16) + 17  # three full blocks and a partial one

# float.hex of estimates, made by a one-CPU run on the SFC64 block streams seeded by
# SeedSequence((seed, block)): the balls' blocks, the interval's (the 1-ball's) among them,
# draw three uniforms a sample, the rectangle's and polygons' blocks the uniform-only steps and
# the split fan sampler
GOLDEN = [
    (mc_heat_content, UnitBall(1), 0.1, 200_000, 1, "0x1.bf2085b18548bp+0"),
    (mc_heat_content, UnitBall(3), 0.1, 200_000, 2, "0x1.7ed1b94a8f64fp+1"),
    (mc_heat_content, UnitBall(10), 0.05, 200_000, 3, "0x1.88a1d9f775857p+0"),
    (mc_heat_content, UnitBall(16), 0.02, 200_000, 4, "0x1.502418a4355bfp-3"),
    (mc_heat_content, RECT, 0.1, 200_000, 5, "0x1.307a61c5edb58p+1"),
    (mc_heat_content, TRIANGLE, 0.05, 200_000, 6, "0x1.6e3bcd35a8588p-2"),
    (mc_heat_content, HEXAGON, 0.1, 200_000, 7, "0x1.d36f7e3d1cc12p+0"),
    (mc_heat_content, Interval(0.0, 1.7), 0.1, 200_000, 8, "0x1.7566cf41f212dp+0"),
    (mc_covariance, UnitBall(4), [0.3, -0.2, 0.1, 0.4], 200_000, 9, "0x1.5c6a1680a96bcp+1"),
    (mc_covariance, UnitBall(8), [0.2] * 8, 200_000, 10, "0x1.a0802049626ebp+0"),
    (mc_covariance, RECT, [0.7, 0.2], 200_000, 11, "0x1.e5527e5215768p+0"),
    (mc_covariance, TRIANGLE, [0.2, 0.1], 200_000, 12, "0x1.f40a2877ee4e2p-3"),
    (mc_heat_content, TRIANGLE, 0.05, PARTIAL, 13, "0x1.6c85ee5e63e92p-2"),
]
GOLDEN_IDS = [
    "heat-ball1", "heat-ball3", "heat-ball10", "heat-ball16", "heat-rect", "heat-triangle",
    "heat-hexagon", "heat-interval", "cov-ball4", "cov-ball8", "cov-rect", "cov-triangle",
    "heat-triangle-partial-block",
]


class TestSampleCauchy:
    def test_marginal_mass_d1(self):
        # P(|W| <= 1) = 1/2 for the standard 1-D kernel
        rng = np.random.default_rng(101)
        n = 1_000_000
        w = sample_cauchy(1, rng, n)
        p = float(np.mean(np.abs(w[:, 0]) <= 1.0))
        sigma = math.sqrt(0.25 / n)
        assert abs(p - 0.5) <= 3.0 * sigma

    def test_radial_mass_d2(self):
        # P(|W| <= 1) = 1 - 1/sqrt(2) in dimension 2
        rng = np.random.default_rng(202)
        n = 1_000_000
        w = sample_cauchy(2, rng, n)
        p = float(np.mean(np.einsum("ij,ij->i", w, w) <= 1.0))
        target = 1.0 - 1.0 / math.sqrt(2.0)
        sigma = math.sqrt(target * (1.0 - target) / n)
        assert abs(p - target) <= 3.0 * sigma

    def test_symmetry(self):
        rng = np.random.default_rng(303)
        n = 1_000_000
        w = sample_cauchy(2, rng, n)
        p_right = float(np.mean(w[:, 0] > 0.0))
        assert abs(p_right - 0.5) <= 3.0 * math.sqrt(0.25 / n)

    def test_shape(self):
        rng = np.random.default_rng(7)
        assert sample_cauchy(3, rng, 17).shape == (17, 3)

    def test_zero_denominators_are_redrawn(self):
        class ZeroFirstG0:
            """A generator whose first g0 draw holds zeros in every third row."""

            def __init__(self):
                self.rng = np.random.default_rng(8)
                self.draws = 0

            def standard_normal(self, size):
                self.draws += 1
                out = self.rng.standard_normal(size)
                if self.draws == 2:
                    out[::3] = 0.0
                return out

        rng = ZeroFirstG0()
        w = sample_cauchy(3, rng, 100)
        assert w.shape == (100, 3)
        assert np.all(np.isfinite(w))
        assert rng.draws == 4  # one redraw of g and g0 for the 34 zero rows

        # the fill loop the in-place version replaced, as the reference
        ref_rng, out, filled = ZeroFirstG0(), np.empty((100, 3)), 0
        while filled < 100:
            g = ref_rng.standard_normal((100 - filled, 3))
            g0 = ref_rng.standard_normal(100 - filled)
            ok = g0 != 0.0
            out[filled : filled + ok.sum()] = g[ok] / np.abs(g0[ok])[:, None]
            filled += ok.sum()
        assert np.array_equal(w, out)


class TestUniformSteps:
    """The blocks in d <= 2 draw W ~ p_1 from uniforms by its inverse CDF."""

    N = 400_000

    @staticmethod
    def _step(rng, xy, t):
        n = xy.shape[1]
        shapes._add_planar_step(rng, xy, t, shapes._planar_scratch(np.empty((shapes.WORK_ROWS, n)), n))

    @staticmethod
    def _assert_share(hits, p):
        assert abs(np.mean(hits) - p) <= 5.0 * math.sqrt(p * (1.0 - p) / len(hits))

    def _planar(self, seed):
        w = np.zeros((2, self.N))
        self._step(np.random.default_rng(seed), w, 1.0)
        return w

    @pytest.mark.parametrize("r", [0.01, 0.3, 1.0, 3.0, 100.0])
    def test_planar_radius(self, r):
        # P(|W| <= r) = 1 - (1 + r^2)^(-1/2)
        self._assert_share(np.hypot(*self._planar(1)) <= r, 1.0 - 1.0 / math.sqrt(1.0 + r * r))

    def test_planar_quadrants_and_signs(self):
        x, y = self._planar(2)
        for hits in (x > 0.0, y > 0.0):
            self._assert_share(hits, 0.5)
        for hits in ((x > 0.0) & (y > 0.0), (x < 0.0) & (y > 0.0), (x < 0.0) & (y < 0.0), (x > 0.0) & (y < 0.0)):
            self._assert_share(hits, 0.25)

    def test_planar_matches_sample_cauchy(self):
        # two samples, one from each sampler, agree on the mass of sets of every shape
        ours = self._planar(3)
        ref = sample_cauchy(2, np.random.default_rng(4), self.N).T
        events = [
            lambda w: np.hypot(*w) <= 0.5,
            lambda w: w[0] <= -1.0,
            lambda w: w[0] <= 0.2,
            lambda w: np.abs(w[1]) <= 0.3 * np.abs(w[0]),
            lambda w: np.arctan2(w[1], w[0]) <= 1.0,
            lambda w: (np.abs(w[0] - 2.0) <= 1.0) & (np.abs(w[1] + 0.5) <= 2.0),
        ]
        for event in events:
            p1, p2 = np.mean(event(ours)), np.mean(event(ref))
            p = 0.5 * (p1 + p2)
            assert abs(p1 - p2) <= 5.0 * math.sqrt(2.0 * p * (1.0 - p) / self.N)

    def test_planar_step_adds_t_w(self):
        xy = np.random.default_rng(5).random((2, 1000))
        moved, w = xy.copy(), np.zeros_like(xy)
        self._step(np.random.default_rng(6), moved, 0.3)
        self._step(np.random.default_rng(6), w, 1.0)
        np.testing.assert_allclose(moved - xy, 0.3 * w, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("r", [0.01, 0.5, 1.0, 10.0, 1000.0])
    def test_line(self, r):
        # in d = 1, W is standard Cauchy: P(|W| <= r) = (2/pi) atan r, and W is symmetric
        w = np.empty(self.N)
        shapes._draw_cauchy(np.random.default_rng(7), w)
        self._assert_share(np.abs(w) <= r, 2.0 / math.pi * math.atan(r))
        self._assert_share(w > 0.0, 0.5)


class TestMcHeatContent:
    def test_tiny_t_recovers_volume(self):
        est = mc_heat_content(UnitBall(2), 1e-6, n=1_000_000, seed=41)
        assert abs(est.mean - math.pi) <= max(3.0 * est.stderr, 1e-3)

    @pytest.mark.parametrize(
        "shape,t,seed",
        [
            (UnitBall(2), 0.1, 11),
            (Rectangle(1.0, 1.0), 0.05, 12),
            (TRIANGLE, 0.05, 13),
            (Interval(0.0, 1.0), 0.1, 14),
        ],
        ids=["ball2", "square", "triangle", "interval"],
    )
    def test_matches_quadrature(self, shape, t, seed, quad):
        ref = heat_content(shape, t, quad)
        est = mc_heat_content(shape, t, n=1_000_000, seed=seed)
        assert abs(est.mean - ref) <= 3.0 * est.stderr

    def test_deterministic_and_seed_sensitive(self):
        a = mc_heat_content(UnitBall(2), 0.1, n=200_000, seed=5)
        b = mc_heat_content(UnitBall(2), 0.1, n=200_000, seed=5)
        c = mc_heat_content(UnitBall(2), 0.1, n=200_000, seed=6)
        assert a == b
        assert a.mean != c.mean

    def test_blocking_invariance(self):
        # crossing the block boundary must not change per-block streams
        big = mc_heat_content(UnitBall(2), 0.1, n=(1 << 16) + 4096, seed=9)
        assert big.n == (1 << 16) + 4096
        assert 0.0 <= big.mean <= math.pi

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            mc_heat_content(UnitBall(2), 0.1, n=10, seed=1)

    @pytest.mark.parametrize("t", [-0.1, 0.0, math.nan, math.inf])
    def test_rejects_nonpositive_or_nonfinite_t(self, t):
        with pytest.raises(DomainError):
            mc_heat_content(UnitBall(2), t, n=10_000, seed=1)

    @pytest.mark.parametrize("n", [999, 10_000.0, "10000", True])
    def test_rejects_bad_n(self, n):
        with pytest.raises(DomainError):
            mc_heat_content(UnitBall(2), 0.1, n=n, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5, None])
    def test_rejects_seed_outside_uint64(self, seed):
        with pytest.raises(DomainError):
            mc_heat_content(UnitBall(2), 0.1, n=10_000, seed=seed)

    def test_sliver_samples_exactly(self, quad):
        # 1/20000 of its bounding box: rejection sampling from the box took 7.3 s here
        sliver = ConvexPolygon([(0.0, 0.0), (1.0, 1.0), (1.0 - 1e-4, 1.0)])
        start = time.perf_counter()
        est = mc_heat_content(sliver, 1e-5, n=4096, seed=3)
        assert time.perf_counter() - start <= 1.0
        assert abs(est.mean - heat_content(sliver, 1e-5, quad)) <= 4.0 * est.stderr

    @staticmethod
    def _assert_uniform(poly):
        # the fraction of fan samples on the left of a line is the area share there, on lines
        # that cut the fan triangles anywhere (x > y on the pentagon among them)
        pts = sample(poly, np.random.default_rng(4), 200_000)
        assert np.all(contains(poly, pts))
        verts, vol = poly.vertex_array, poly.geometry.volume
        lines = [((0.0, 0.0), (1.0, 1.0))] + [tuple(np.random.default_rng(k).random((2, 2)) - 0.2) for k in range(6)]
        for a, b in lines:
            a, b = np.asarray(a), np.asarray(b)
            p = area_left_of(verts, a, b) / vol
            left = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0]) > 0.0
            assert abs(np.mean(left) - p) <= 4.0 * math.sqrt(p * (1.0 - p) / len(pts))

    def test_polygon_samples_are_uniform(self):
        self._assert_uniform(PENTAGON)

    def test_regular_40gon_samples_are_uniform(self):
        self._assert_uniform(GON40)

    @pytest.mark.parametrize("k", [7, 20, 33])
    def test_regular_40gon_sectors_and_discs(self, k):
        # a sector between vertex 0 and vertex k holds k/40 of the area, a disc of radius
        # r <= cos(pi/40) the share pi r^2 / |Omega|; the fan runs from vertex 0, not the centre
        pts = sample(GON40, np.random.default_rng(k), 200_000)
        angle = np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * math.pi)
        radius = k / 40.0
        for hits, p in [(angle < 2.0 * math.pi * k / 40.0, k / 40.0),
                        (np.hypot(pts[:, 0], pts[:, 1]) <= radius, math.pi * radius**2 / GON40.geometry.volume)]:
            assert abs(np.mean(hits) - p) <= 4.0 * math.sqrt(p * (1.0 - p) / len(pts))


class TestMcCovariance:
    def test_zero_shift_is_volume(self):
        est = mc_covariance(Rectangle(1.0, 1.0), [0.0, 0.0], n=10_000, seed=3)
        assert est.mean == pytest.approx(4.0)
        assert est.stderr == 0.0

    def test_far_shift_is_zero(self):
        est = mc_covariance(UnitBall(2), [2.5, 0.0], n=10_000, seed=3)
        assert est.mean == 0.0

    @pytest.mark.parametrize("d,y", [(1, [1e300]), (2, [1e200, 1e200]), (3, [1e200, 0.0, 0.0]), (16, [2.0] + [0.0] * 15)])
    def test_ball_shift_beyond_overflow_is_zero(self, d, y):
        # |y|^2 overflowed above about 1.3e154, and inf * Theta_1 <= -inf then counted every
        # draw with Theta_1 > 0: the 3-ball read 2.108 +- 0.021
        est = mc_covariance(UnitBall(d), y, n=10_000, seed=1)
        assert (est.mean, est.stderr) == (0.0, 0.0)

    def test_rejects_scalar_shift(self):
        # a scalar used to broadcast to (0.5, 0.5, 0.5)
        with pytest.raises(DimensionMismatchError):
            mc_covariance(UnitBall(3), 0.5, n=10_000, seed=3)

    def test_rejects_several_shifts(self):
        with pytest.raises(DimensionMismatchError):
            mc_covariance(UnitBall(2), [[0.1, 0.0], [0.2, 0.0]], n=10_000, seed=3)

    def test_rejects_nan_shift(self):
        with pytest.raises(DomainError):
            mc_covariance(UnitBall(2), [math.nan, 0.0], n=10_000, seed=3)

    def test_ball3_midpoint(self):
        est = mc_covariance(UnitBall(3), [0.0, 0.0, 1.0], n=1_000_000, seed=21)
        assert abs(est.mean - 5.0 * math.pi / 12.0) <= 3.0 * est.stderr

    @pytest.mark.parametrize(
        "shape,y,seed",
        [
            (UnitBall(2), [0.3, -0.4], 31),
            (Rectangle(1.5, 0.5), [0.7, 0.2], 32),
            (TRIANGLE, [0.2, 0.1], 33),
            (Interval(0.0, 1.0), [0.35], 34),
        ],
        ids=["ball2", "rect", "triangle", "interval"],
    )
    def test_matches_quadrature(self, shape, y, seed):
        ref = covariance(shape, y)
        est = mc_covariance(shape, y, n=500_000, seed=seed)
        assert abs(est.mean - ref) <= 3.0 * est.stderr


class TestBallInvariants:
    """A ball's blocks draw three uniforms a sample; the reference blocks draw d-vectors."""

    N = 20_000
    TS = (0.02, 0.2, 2.0)
    SHIFTS = (0.0, 0.3, 1.0, 1.9, 2.0, 2.5)

    def _generic(self, ball, method, arg, seed):
        """(mean, stderr) of the reference block, method, on the ball."""
        p = method(ball, _block_rng(seed, 0), self.N, arg) / self.N
        vol = ball.geometry.volume
        return vol * p, vol * math.sqrt(p * (1.0 - p) / self.N)

    def _assert_agree(self, est, generic, ref, vol):
        combined = math.hypot(est.stderr, generic[1])
        assert abs(est.mean - generic[0]) <= 5.0 * combined
        # the binomial stderr at the reference value, positive where every sample misses
        p = ref / vol
        assert abs(est.mean - ref) <= 5.0 * vol * math.sqrt(max(p * (1.0 - p), 0.0) / self.N) + 1e-12 * vol

    @pytest.mark.parametrize("d", range(1, 17))
    def test_heat_content(self, d, quad):
        ball = UnitBall(d)
        for i, t in enumerate(self.TS):
            est = mc_heat_content(ball, t, n=self.N, seed=100 * d + i)
            generic = self._generic(ball, reference_heat_hits, t, 100 * d + i + 50)
            self._assert_agree(est, generic, heat_content(ball, t, quad), ball.geometry.volume)

    @pytest.mark.parametrize("d", range(1, 17))
    def test_covariance(self, d):
        ball = UnitBall(d)
        u = np.random.default_rng(d).standard_normal(d)
        u /= np.linalg.norm(u)
        for i, s in enumerate(self.SHIFTS):
            est = mc_covariance(ball, s * u, n=self.N, seed=200 * d + i)
            generic = self._generic(ball, reference_shift_hits, s * u, 200 * d + i + 50)
            ref = ball_covariance_radial(d, s)
            self._assert_agree(est, generic, ref, ball.geometry.volume)

    @pytest.mark.parametrize("d", [1, 2, 3, 6, 16])
    def test_balls_of_every_radius(self, d, quad):
        # a ball of radius r runs the unit ball's blocks at t/r and y/r: its estimates of
        # H_{rB}(r t) = r^d H_B(t) and g_{rB}(r y) = r^d g_B(y) agree with those and with the
        # reference blocks, which draw X and W in the ball's own coordinates
        u = np.random.default_rng(d).standard_normal(d)
        u /= np.linalg.norm(u)
        h, g = heat_content(UnitBall(d), 0.2, quad), ball_covariance_radial(d, 0.7)
        for i, r in enumerate((1e-6, 1e-3, 0.37, 3.0, 1e3, 1e6)):
            ball = Ball(d, r)
            vol = ball.geometry.volume
            est = mc_heat_content(ball, 0.2 * r, n=self.N, seed=300 * d + i)
            generic = self._generic(ball, reference_heat_hits, 0.2 * r, 300 * d + i + 50)
            self._assert_agree(est, generic, r**d * h, vol)
            est = mc_covariance(ball, 0.7 * r * u, n=self.N, seed=400 * d + i)
            generic = self._generic(ball, reference_shift_hits, 0.7 * r * u, 400 * d + i + 50)
            self._assert_agree(est, generic, r**d * g, vol)

    # the laws of the drawn invariants, each estimated from 400 000 draws within 5 sigma

    LAW_N = 400_000

    @staticmethod
    def _assert_mean(values, mean, var):
        assert abs(np.mean(values) - mean) <= 5.0 * math.sqrt(var / len(values))

    def _axis(self, d, seed):
        c, b = np.empty((2, self.LAW_N))
        UnitBall(d)._draw_axis(np.random.default_rng(seed), c, b)
        return c

    @pytest.mark.parametrize("rho", [0.01, 0.3, 1.0, 3.0, 100.0])
    def test_step_radius_in_the_plane(self, rho):
        # in d = 2, |W|^2 = S^2 + B (1 + S^2)/(1 - B) has P(|W| > rho) = (1 + rho^2)^(-1/2)
        s, b = np.empty((2, self.LAW_N))
        UnitBall(2)._draw_step(np.random.default_rng(1), s, b)
        p = 1.0 / math.sqrt(1.0 + rho * rho)
        self._assert_mean(s * s + b * (1.0 + s * s) / (1.0 - b) > rho * rho, p, p * (1.0 - p))

    @pytest.mark.parametrize("x", [-0.99, -0.5, -0.1, 0.0, 0.3, 0.8, 0.999])
    def test_axis_is_uniform_in_three_dimensions(self, x):
        # Archimedes: the first coordinate of a uniform point of the 2-sphere is uniform on [-1, 1]
        p = 0.5 * (1.0 + x)
        self._assert_mean(self._axis(3, 2) <= x, p, p * (1.0 - p))

    @pytest.mark.parametrize("d", range(2, 17))
    def test_axis_moments(self, d):
        # E Theta_1^(2k) = (2k - 1)!! / (d (d + 2) ... (d + 2k - 2))
        def moment(k):
            return math.prod(2 * i + 1 for i in range(k)) / math.prod(d + 2 * i for i in range(k))

        c2 = np.square(self._axis(d, 3 + d))
        self._assert_mean(c2, moment(1), moment(2) - moment(1) ** 2)
        self._assert_mean(c2 * c2, moment(2), moment(4) - moment(2) ** 2)

    class ExtremeUniforms:
        """A generator whose random rows start with every combination of 0.0, 1/2 and
        1 - 2^-53 across three rows, then hold ordinary uniforms; it keeps a copy of each row."""

        VALUES = (0.0, 0.5, 1.0 - 2.0**-53)

        def __init__(self):
            self.rng = np.random.default_rng(8)
            self.rows = []

        def random(self, out):
            self.rng.random(out=out)
            j = len(self.rows)
            out[:27] = [self.VALUES[(i // 3**j) % 3] for i in range(27)]
            self.rows.append(out.copy())
            return out

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 16])
    @pytest.mark.parametrize("t", [0.05, 0.7])
    def test_heat_block_at_extreme_uniforms(self, d, t):
        n, ball, rng = 200, UnitBall(d), self.ExtremeUniforms()
        with np.errstate(all="raise"):
            hits = ball.heat_hits(rng, n, t, np.empty((shapes.WORK_ROWS, n)))
        # X = r e_1 and W = (S, |W_perp|, 0, ..., 0), a B of 1 making |W_perp| infinite
        u = rng.rows + [np.zeros(n)] * (3 - len(rng.rows))
        s = np.tan(math.pi * (u[1] - 0.5))
        b = u[2] ** (2.0 / (d - 1)) if d > 1 else u[2]
        x = np.zeros((n, d))
        x[:, 0] = u[0] ** (1.0 / d) + t * s
        if d > 1:
            with np.errstate(divide="ignore"):
                x[:, 1] = t * np.sqrt((1.0 + s * s) * b / (1.0 - b))
        assert hits == np.count_nonzero(np.einsum("ij,ij->i", x, x) <= 1.0)
        assert 0 < hits < n

    @pytest.mark.parametrize("d", [1, 2, 3, 16])
    @pytest.mark.parametrize("t", [1e154, 1e160, 1e300])
    def test_heat_block_at_huge_t_warns_of_nothing(self, d, t):
        # (r + t S)^2 overflows and, where B = 0 (every draw in d = 1), t^2 B is inf 0 = nan:
        # both are misses, as they should be, and no block prints a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = mc_heat_content(UnitBall(d), t, n=100_000, seed=1)
        assert est.mean == 0.0

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 16])
    @pytest.mark.parametrize("norm", [0.4, 1.5])
    def test_shift_block_at_extreme_uniforms(self, d, norm):
        n, ball, rng = 200, UnitBall(d), self.ExtremeUniforms()
        y = np.zeros(d)
        y[-1] = norm
        with np.errstate(all="raise"):
            hits = ball.shift_hits(rng, n, y, np.empty((shapes.WORK_ROWS, n)))
        # X = r Theta with Theta = (Theta_1, sqrt(1 - Theta_1^2), 0, ..., 0), turned so that
        # its first axis is y's
        u = rng.rows
        if d == 1:
            axis = np.where(u[1] < 0.5, -1.0, 1.0)
        else:
            axis = np.cos(math.pi * u[1])
            if d > 2:
                axis *= np.sqrt(1.0 - u[2] ** (2.0 / (d - 2)))
        x = np.zeros((n, d))
        x[:, -1] = u[0] ** (1.0 / d) * axis - norm
        if d > 1:
            x[:, 0] = u[0] ** (1.0 / d) * np.sqrt(1.0 - axis * axis)
        assert hits == np.count_nonzero(np.einsum("ij,ij->i", x, x) <= 1.0)
        assert 0 < hits < n


class TestPlanarBlocks:
    """The uniform-only blocks of polygons against quadrature H, the exact covariance and the
    reference block, which draws W with sample_cauchy."""

    N = 50_000

    @staticmethod
    def _sigma(ref, vol, n):
        """The binomial stderr at the reference value, plus the references' own rounding
        (1e-12 |Omega|), which is all that is left where every sample hits or misses."""
        p = ref / vol
        return vol * math.sqrt(max(p * (1.0 - p), 0.0) / n) + 1e-12 * vol

    @settings(max_examples=25, deadline=None)
    @given(
        poly=convex_polygons(log_scale=3.0),
        log_t=st.floats(-3.0, 1.0),
        rho=st.floats(0.0, 1.1),
        theta=st.floats(0.0, 2.0 * math.pi),
        seed=st.integers(0, 2**32),
    )
    @example(poly=GON40, log_t=-1.0, rho=0.0, theta=0.0, seed=1)
    def test_blocks_match_references(self, poly, log_t, rho, theta, seed):
        vol, ell = poly.geometry.volume, poly.geometry.support_radius
        t = ell * 10.0**log_t
        # scale-aware tolerances: H is |Omega| - (t/pi) I or I/pi, I the chord integral
        ref = heat_content(poly, t, QuadSpec(abs_tol=1e-12 * vol / t, rel_tol=1e-12))
        est = mc_heat_content(poly, t, n=self.N, seed=seed)
        sigma = self._sigma(ref, vol, self.N)
        assert abs(est.mean - ref) <= 5.0 * sigma
        generic = vol * reference_heat_hits(poly, _block_rng(seed, 1 << 32), self.N, t) / self.N
        assert abs(est.mean - generic) <= 5.0 * math.sqrt(2.0) * sigma

        y = [rho * ell * math.cos(theta), rho * ell * math.sin(theta)]
        ref = covariance(poly, y)
        est = mc_covariance(poly, y, n=self.N, seed=seed)
        assert abs(est.mean - ref) <= 5.0 * self._sigma(ref, vol, self.N)

    @pytest.mark.parametrize("shape", [RECT, TRIANGLE, HEXAGON, GON40], ids=["rect", "triangle", "hexagon", "40-gon"])
    def test_shift_blocks_count_as_the_generic_block(self, shape):
        # both draw X with the shape's own sampler, so one stream gives one count, at sizes whose
        # halves are empty, of one column, uneven, half a block and a full block
        work, y = np.empty((shapes.WORK_ROWS, mc.BLOCK_SIZE)), np.full(shape.dim, 0.3)
        for n in (1, 2, 1001, 1 << 15, mc.BLOCK_SIZE):
            expected = reference_shift_hits(shape, _block_rng(5, n), n, y)
            assert shape.shift_hits(_block_rng(5, n), n, y, work) == expected, n

    @pytest.mark.parametrize("shape", [RECT, TRIANGLE, HEXAGON, GON40], ids=["rect", "triangle", "hexagon", "40-gon"])
    def test_shift_blocks_test_only_the_edges_a_shift_can_cross(self, shape):
        # X is in the shape, so X - y can leave it only across an edge whose outward normal e has
        # e . y < 0: the block tests those half-planes and no other; y along an edge or an axis
        # puts e . y = 0 on some edges
        tested = []

        class Recording(type(shape)):
            def _inside(self, x, y, scratch, planes=None):
                tested.append(planes)
                return super()._inside(x, y, scratch, planes)

        shape = Recording(shape.h1, shape.h2) if isinstance(shape, Rectangle) else Recording(shape.vertices)
        edges = shape.edge_directions
        normals = np.column_stack([edges[:, 1], -edges[:, 0]])
        work, n = np.empty((shapes.WORK_ROWS, mc.BLOCK_SIZE)), 5000
        for k, y in enumerate([(0.3, 0.3), (-0.2, 0.5), (0.0, -0.4), (0.45, 0.0), *(0.3 * edges[:3])]):
            y = np.asarray(y, dtype=float)
            tested.clear()
            hits = shape.shift_hits(_block_rng(6, k), n, y, work)
            # e . y rounds to either sign where it is 0 in exact arithmetic (y along an edge), but
            # not where both its products are 0 (y along an axis of the rectangle)
            dots, slack = normals @ y, 1e-12 * np.linalg.norm(normals, axis=1) * np.linalg.norm(y)
            zero = (normals * y == 0.0).all(axis=1)
            must, may = ({tuple(e) for e in normals[(dots < bound) & ~zero].tolist()} for bound in (-slack, slack))
            assert tested and all(must <= {tuple(p[:2]) for p in planes} <= may for planes in tested), y
            assert hits == reference_shift_hits(shape, _block_rng(6, k), n, y), y

    @pytest.mark.parametrize("shape", [RECT, TRIANGLE, HEXAGON, GON40], ids=["rect", "triangle", "hexagon", "40-gon"])
    def test_zero_shift_hits_every_draw(self, shape):
        work = np.empty((shapes.WORK_ROWS, mc.BLOCK_SIZE))
        assert shape.shift_hits(_block_rng(1, 0), mc.BLOCK_SIZE, np.zeros(2), work) == mc.BLOCK_SIZE
        est = mc_covariance(shape, [0.0, 0.0], n=100_000, seed=2)
        assert (est.mean, est.stderr) == (shape.geometry.volume, 0.0)


class TestCalibration:
    def test_coverage_across_seeds(self, quad):
        # over many seeds, the 2-sigma interval should cover the truth ~95%
        shape = UnitBall(2)
        t = 0.1
        ref = heat_content(shape, t, quad)
        covered = 0
        seeds = range(1000, 1200)
        for seed in seeds:
            est = mc_heat_content(shape, t, n=10_000, seed=seed)
            if abs(est.mean - ref) <= 2.0 * est.stderr:
                covered += 1
        assert covered >= 0.90 * len(seeds)


def test_block_rng_streams_differ():
    a = _block_rng(0, 0).random(4)
    b = _block_rng(0, 1).random(4)
    c = _block_rng(1, 0).random(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def _on_fresh_thread(fn):
    """fn() run by a new thread, which has no workspace yet."""
    found = []
    thread = threading.Thread(target=lambda: found.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive()
    return found[0]


class TestConcurrentBlocks:
    # the blocks of an estimate run on the calling thread, in a workspace that the thread keeps;
    # concurrent callers each run their own
    @pytest.mark.parametrize("estimator,shape,arg,n,seed,expected", GOLDEN, ids=GOLDEN_IDS)
    def test_golden_estimates(self, estimator, shape, arg, n, seed, expected):
        assert estimator(shape, arg, n=n, seed=seed).mean.hex() == expected

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("case", range(len(GOLDEN)), ids=lambda i: GOLDEN_IDS[i])
    def test_cpu_count_does_not_change_the_estimate(self, monkeypatch, cpus, case):
        # from a fresh thread, while the process reports `cpus` CPUs: nothing sized by the CPU
        # count may change the bits
        estimator, shape, arg, n, seed, expected = GOLDEN[case]
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert _on_fresh_thread(lambda: estimator(shape, arg, n=n, seed=seed).mean.hex()) == expected

    def test_more_threads_than_cores_with_fast_switching(self):
        # six callers of one estimate at once, each in its own workspace: a workspace shared or
        # written by two callers would change an estimate
        shape, n = Interval(0.0, 1.7), 24 * mc.BLOCK_SIZE + 5
        serial = mc_heat_content(shape, 0.1, n=n, seed=3)
        found = []
        callers = [threading.Thread(target=lambda: found.append(mc_heat_content(shape, 0.1, n=n, seed=3)),
                                    daemon=True) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=30.0)
            assert time.perf_counter() - start < 30.0
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert found == [serial] * len(callers)

    @pytest.mark.parametrize("failing", [1, 4])
    def test_block_error_reaches_the_caller(self, failing):
        seen = []

        class FailsOnBlock(Rectangle):
            # the block is the second entropy word of the seed sequence of its stream
            def _sample_rows(self, rng, work, n):
                seen.append(rng.bit_generator.seed_seq.entropy[1])
                return super()._sample_rows(rng, work, n)

            def _inside(self, x, y, scratch):
                if seen[-1] == failing:
                    raise RuntimeError(f"_inside failed on block {failing}")
                return super()._inside(x, y, scratch)

        before = threading.enumerate()
        with pytest.raises(RuntimeError, match=f"block {failing}"):
            mc_heat_content(FailsOnBlock(1.0, 1.0), 0.1, n=10 * mc.BLOCK_SIZE, seed=1)
        # the blocks after the failing one do not run, no thread is left behind, and the next
        # estimate overwrites what the failed block left in the workspace
        assert seen == list(range(failing + 1))
        assert threading.enumerate() == before
        estimator, shape, arg, n, seed, expected = GOLDEN[GOLDEN_IDS.index("heat-rect")]
        assert estimator(shape, arg, n=n, seed=seed).mean.hex() == expected

    def test_estimates_start_no_thread(self, monkeypatch):
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
        before = threading.enumerate()
        for seed in range(1, 21):
            mc_covariance(TRIANGLE, [0.2, 0.1], n=PARTIAL, seed=seed)
        assert started == [] and threading.enumerate() == before

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
    def test_forked_child_repeats_the_golden(self):
        # the child inherits the forking thread's workspace
        estimator, shape, arg, n, seed, expected = GOLDEN[GOLDEN_IDS.index("heat-rect")]
        assert estimator(shape, arg, n=n, seed=seed).mean.hex() == expected
        ctx = multiprocessing.get_context("fork")
        found = ctx.Queue()
        child = ctx.Process(target=lambda: found.put(estimator(shape, arg, n=n, seed=seed).mean.hex()))
        child.start()
        try:
            assert found.get(timeout=60.0) == expected
        finally:
            child.join(timeout=10.0)
            if child.is_alive():
                child.kill()
                child.join()

    def test_import_loads_no_executor_module(self):
        # concurrent.futures loads logging and queue: neither the import nor an estimate needs it
        code = (
            "import sys, threading, heatcov; loaded = 'concurrent.futures' in sys.modules; "
            "heatcov.mc_heat_content(heatcov.Rectangle(1.3, 0.6), 0.1, n=100_000, seed=1); "
            "print(loaded, 'concurrent.futures' in sys.modules, threading.active_count())"
        )
        assert run_python(code) == "False False 1\n"

    def test_two_callers_at_once_get_the_golden_estimates(self):
        # two user threads run every golden estimate at the same time, in opposite orders,
        # with fast switching
        found = [{}, {}]

        def run(order, out):
            for case in order:
                estimator, shape, arg, n, seed, _ = GOLDEN[case]
                out[case] = estimator(shape, arg, n=n, seed=seed).mean.hex()

        cases = list(range(len(GOLDEN)))
        callers = [threading.Thread(target=run, args=(order, out), daemon=True)
                   for order, out in zip((cases, cases[::-1]), found)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        golden = {case: GOLDEN[case][-1] for case in cases}
        assert found == [golden, golden]

    @pytest.mark.parametrize(
        "shape", [UnitBall(1), UnitBall(2), UnitBall(3), UnitBall(16), RECT, TRIANGLE, GON40, Interval(0.0, 1.7)],
        ids=["ball1", "ball2", "ball3", "ball16", "rect", "triangle", "40-gon", "interval"],
    )
    def test_blocks_allocate_less_than_a_row(self, shape):
        # after a warm-up, a block draws and computes in its caller's workspace: a full block
        # allocates less than one boolean row of BLOCK_SIZE bytes
        for estimator, arg in ((mc_heat_content, 0.1), (mc_covariance, [0.1] * shape.dim)):
            estimator(shape, arg, n=mc.BLOCK_SIZE, seed=1)
            tracemalloc.start()
            try:
                estimator(shape, arg, n=mc.BLOCK_SIZE, seed=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < mc.BLOCK_SIZE, estimator.__name__

    def test_blocks_call_no_public_function(self, monkeypatch):
        # an estimate of four blocks calls each public function as often as one of one block, so
        # tracers that rebind them, as the benchmark's does, count estimates and not blocks; the
        # first estimates fill the shape's cached properties
        calls = collections.Counter()
        modules = (asymptotics, kernel, mc, quadrature, shapes)

        def recorded(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__qualname__] += 1
                return fn(*args, **kwargs)
            return wrapper

        public = {
            fn for mod in modules for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
        }
        for mod in modules:
            for name, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in public:
                    monkeypatch.setattr(mod, name, recorded(fn))
        for shape in (UnitBall(2), UnitBall(3), UnitBall(16), RECT, HEXAGON, GON40, Interval(0.0, 1.7)):
            counts = []
            for n in (PARTIAL, 1000, PARTIAL):
                calls.clear()
                mc.mc_heat_content(shape, 0.1, n=n, seed=1)
                mc.mc_covariance(shape, [0.1] * shape.dim, n=n, seed=2)
                counts.append(dict(calls))
            assert counts[1] == counts[2], shape
            assert counts[1]["mc_heat_content"] == counts[1]["mc_covariance"] == 1
