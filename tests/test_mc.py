import math
import time

import numpy as np
import pytest

from heatcov import (
    ConvexPolygon,
    Interval,
    Rectangle,
    UnitBall,
    covariance,
    heat_content,
    mc_covariance,
    mc_heat_content,
    sample_cauchy,
)
from heatcov.mc import _block_rng

TRIANGLE = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


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

    def test_sliver_samples_exactly(self, quad):
        # 1/20000 of its bounding box: rejection sampling from the box took 7.3 s here
        sliver = ConvexPolygon([(0.0, 0.0), (1.0, 1.0), (1.0 - 1e-4, 1.0)])
        start = time.perf_counter()
        est = mc_heat_content(sliver, 1e-5, n=4096, seed=3)
        assert time.perf_counter() - start <= 1.0
        assert abs(est.mean - heat_content(sliver, 1e-5, quad)) <= 4.0 * est.stderr

    def test_polygon_samples_are_uniform(self):
        # the fraction of fan samples in the triangle x > y is its share of the area
        pentagon = ConvexPolygon([(0.0, 0.0), (2.0, 0.0), (2.5, 1.0), (1.0, 2.0), (-0.5, 1.0)])
        pts = pentagon.sample(np.random.default_rng(4), 200_000)
        assert np.all(pentagon.contains(pts))
        share = ConvexPolygon([(0.0, 0.0), (2.0, 0.0), (2.5, 1.0), (1.6, 1.6)]).geometry.volume
        p = share / pentagon.geometry.volume
        assert abs(np.mean(pts[:, 0] > pts[:, 1]) - p) <= 4.0 * math.sqrt(p * (1.0 - p) / len(pts))


class TestMcCovariance:
    def test_zero_shift_is_volume(self):
        est = mc_covariance(Rectangle(1.0, 1.0), [0.0, 0.0], n=10_000, seed=3)
        assert est.mean == pytest.approx(4.0)
        assert est.stderr == 0.0

    def test_far_shift_is_zero(self):
        est = mc_covariance(UnitBall(2), [2.5, 0.0], n=10_000, seed=3)
        assert est.mean == 0.0

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
