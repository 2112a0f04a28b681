"""The chord-length engine of ``PlanarPolytope`` against independent references.

``conftest.polar_reference`` integrates the Green's-theorem covariance
(``conftest.green_covariance``) in polar coordinates, as the package computed
these quantities before the engine; the unit square's gamma and its weighted
integral have closed forms.
"""

import math

import numpy as np
import pytest

from heatcov import (
    ConvexPolygon,
    QuadSpec,
    Rectangle,
    big_R,
    gamma,
    gamma_weighted_integral,
    heat_content,
)
from heatcov.shapes import support_radius_at

from conftest import SQUARE_GAMMA, benchmark_polygons, first_breakpoint, green_covariance, polar_reference, square_gamma

TRIANGLE = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
THIN_QUADRILATERAL = ConvexPolygon([(0.0, 0.0), (5.0, 0.0), (5.1, 0.2), (0.0, 0.1)])
REFERENCE_SHAPES = [p for seed in (1, 2, 3) for p in benchmark_polygons(seed)] + [THIN_QUADRILATERAL]
REFERENCE_IDS = [f"{k}-{seed}" for seed in (1, 2, 3) for k in ("triangle", "hexagon", "rotrect")]


def _regular(n):
    return ConvexPolygon([(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)])


def _chord_covariance(poly, theta, r):
    """int (c - r)_+ dx from the chord table: c is linear between the offsets."""
    x, c = poly.chord_table([theta])
    w, lo, hi = np.diff(x[0]), np.minimum(c[0, :-1], c[0, 1:]), np.maximum(c[0, :-1], c[0, 1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        part = np.where(lo >= r, 0.5 * (lo + hi) - r, (hi - r) ** 2 / (2.0 * (hi - lo)))
    return float(np.sum(np.where(hi > r, w * part, 0.0)))


class TestChordTable:
    def test_extreme_chords_are_exact(self):
        x, c = TRIANGLE.chord_table(np.linspace(0.1, 3.0, 30))
        assert np.all(np.diff(x, axis=1) >= 0.0)
        assert np.all(c[:, 0] == 0.0) and np.all(c[:, -1] == 0.0)
        # u along an edge: the extreme chords are the two parallel edges
        x, c = Rectangle(1.5, 0.5).chord_table([0.0])
        np.testing.assert_array_equal(x, [[0.0, 0.0, 1.0, 1.0]])
        np.testing.assert_array_equal(c, [[3.0] * 4])

    def test_longest_chord_is_the_support_radius(self):
        # the square's chord in direction theta is 2 / max(|cos|, |sin|), the _eta of the paper
        square = Rectangle(1.0, 1.0)
        for theta in np.linspace(0.05, 2.0 * math.pi, 17):
            want = 2.0 / max(abs(math.cos(theta)), abs(math.sin(theta)))
            assert support_radius_at(square, theta) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("poly", REFERENCE_SHAPES[:3] + [THIN_QUADRILATERAL], ids=REFERENCE_IDS[:3] + ["thin"])
    def test_covariance_is_the_chord_integral(self, poly):
        # g(r u) = int (c_u - r)_+ dx, against Green's theorem
        rng = np.random.default_rng(3)
        ell = poly.geometry.support_radius
        for theta, r in zip(rng.uniform(0.0, math.pi, 50), rng.uniform(0.0, ell, 50)):
            u = np.array([[math.cos(theta), math.sin(theta)]])
            assert _chord_covariance(poly, theta, r) == pytest.approx(
                green_covariance(poly, r * u)[0], abs=1e-13 * poly.geometry.volume
            )


@pytest.mark.parametrize("poly", REFERENCE_SHAPES, ids=REFERENCE_IDS + ["thin"])
def test_matches_polar_reference(poly, quad):
    vol = poly.geometry.volume
    assert poly.covariance_integral(quad) == pytest.approx(
        polar_reference(poly, lambda r, g, v: r * g(r)), abs=1e-10
    )
    for t in (1e-3, 0.1, 2.0):
        want = polar_reference(
            poly, lambda r, g, v: r * g(r) * t / (2.0 * math.pi) / (t * t + r * r) ** 1.5,
            seeds=(t, 4 * t, 16 * t, 64 * t, 256 * t),
        )
        assert heat_content(poly, t, quad) == pytest.approx(want, abs=1e-10), t
    # R(t) = kappa_2 int_0^ell r^2 gamma(r) / (t^2 + r^2)^(3/2) dr, and gamma(r) is the
    # circle integral of E / r, E = r V_u/2 - g(0) + g(r u)
    t = 0.1
    want = polar_reference(
        poly, lambda r, g, v: r * (r * v - vol + g(r)) / (t * t + r * r) ** 1.5 / (2.0 * math.pi), seeds=(t,)
    )
    assert big_R(poly, t, quad) == pytest.approx(want, abs=1e-10)
    # int gamma(r)/r dr: E / r^2 is constant on [0, r_1], so below r_0 = r_1/2 it is taken at r_0
    r0 = 0.5 * first_breakpoint(poly)

    def deficit_over_r2(r, g, v):
        r = np.maximum(r, r0)
        return (r * v - vol + g(r)) / (r * r)

    want = polar_reference(poly, deficit_over_r2, seeds=(r0,))
    assert gamma_weighted_integral(poly, quad)[0] == pytest.approx(want, abs=1e-10)


class TestUnitSquare:
    def test_gamma_closed_form(self):
        s = np.concatenate([2.0 ** -np.arange(1, 41), np.linspace(0.05, 1.0, 39)])
        np.testing.assert_allclose(gamma(Rectangle(1.0, 1.0), s), square_gamma(s), rtol=1e-12)

    def test_gamma_integral_closed_form(self, quad):
        square = Rectangle(1.0, 1.0)
        value, _ = gamma_weighted_integral(square, quad)
        assert abs(value - SQUARE_GAMMA) <= 1e-12


@pytest.mark.parametrize(
    "poly, want",
    [(Rectangle(1.0, 1.0), 2.546473996526561e-06), (TRIANGLE, 3.978872251006945e-08)],
    ids=["square", "triangle"],
)
def test_large_t_keeps_the_polar_value(poly, want, quad):
    # the values of the polar integral the engine replaced; (t/pi) int int asinh(c/t)
    # would cancel against |Omega| here (8e-6 relative on the square)
    assert heat_content(poly, 1e3, quad) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("t", [1e-9, 1e3])
@pytest.mark.parametrize("lam", [1e-3, 1e3])
def test_regular_40gon_scaling(t, lam, quad):
    # H_{lam Omega}(lam t) = lam^2 H_Omega(t); at t = 1e-9 the polar integral took 157 s
    poly = _regular(40)
    scaled = ConvexPolygon(lam * poly.vertex_array)
    assert heat_content(scaled, lam * t, quad) == pytest.approx(lam**2 * heat_content(poly, t, quad), rel=1e-10)


SLIVER = ConvexPolygon([(0.0, 0.0), (1.0, 1.0), (1.0 - 1e-4, 1.0)])


def test_min_width():
    assert Rectangle(1.0, 0.3).min_width == pytest.approx(0.6, rel=1e-15)
    assert TRIANGLE.min_width == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert SLIVER.min_width == pytest.approx(1e-4 * math.sqrt(0.5), rel=1e-9)


@pytest.mark.parametrize("poly", [SLIVER, Rectangle(1e-3, 1.0)], ids=["sliver", "thin-rectangle"])
def test_thin_polygon_from_its_width_up(poly, quad):
    # from the least width up H is far below |Omega|, so it is summed as itself, not as
    # |Omega| - (t/2pi) int int asinh(c/t): that deficit form gave the sliver H(0.5) = 2.3e-10
    # for 9.3e-10, and a reported error that hid it
    tight = QuadSpec(abs_tol=1e-20, rel_tol=1e-13)
    for t in (0.5, 1.0, 3.0, 30.0, 1e3):
        assert heat_content(poly, t, quad) == pytest.approx(heat_content(poly, t, tight), rel=1e-9), t
        if t >= poly.geometry.support_radius:  # R from the diameter up, scaled to its size
            assert big_R(poly, t, quad) == pytest.approx(big_R(poly, t, tight), rel=1e-9), t

