import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatcov import (
    Ball,
    ConvexPolygon,
    Interval,
    QuadSpec,
    Rectangle,
    UnitBall,
    big_R,
    covariance,
    directional_variation,
    gamma,
    gamma_weighted_integral,
    geometry,
    heat_content,
    shape_from_json,
    third_term,
    unit_ball_volume,
    unit_sphere_area,
)
from heatcov import mc, shapes
from heatcov.errors import (
    DimensionMismatchError,
    DomainError,
    InvalidShapeError,
    NonUnitVectorError,
    QuadratureError,
)
from heatcov.mc import mc_covariance, mc_heat_content

from conftest import (
    POLYGONS_OUTSIDE_THE_FLOATS,
    SQUARE_GAMMA,
    SQUARE_I0,
    SQUARE_I2,
    assert_covariance_facts,
    ball_constants,
    ball_covariance_oracle,
    ball_gamma_oracle,
    benchmark_polygons,
    convex_polygons,
    exact_intersection_area,
    first_breakpoint,
    gamma_per_r,
    gauss_legendre,
    green_covariance,
    hull,
    perimeter_from_variations,
    rectangle_geometry,
    square_I_terms,
)

SQRT2 = math.sqrt(2.0)

TRIANGLE = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
SQUARE_POLY = ConvexPolygon([(1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)])
THIN_TRIANGLE = ConvexPolygon([(-416.1468365471424, 909.2974268256817), (207.28594360234425, -455.00910714499497),
                               (208.86089294479825, -454.28831968068687)])
SLIVER = ConvexPolygon([(-0.2708798881834609, -0.420267576881343), (-0.26942241768467895, -0.42120340792655375),
                        (0.5403023058681398, 0.8414709848078965)])
FLAT_SLIVER = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (0.5, 1e-6)])
# SLIVER with two more vertices: at y = v_0 - v_3 the walk took the chord from v_0 to v_3, both at
# one offset, as a quotient of cross products with an edge nearly along u, 7.2e-16 off
PENTAGON = ConvexPolygon([*SLIVER.vertices[:3], (0.26222446174057096, 0.4100072285288184),
                          (-0.15247638710741057, -0.23581243095797194)])


class TestShapeConstruction:
    def test_rejects_nonconvex(self):
        with pytest.raises(InvalidShapeError):
            ConvexPolygon([(0, 0), (2, 0), (1, 0.5), (2, 2), (0, 2)])

    def test_rejects_clockwise(self):
        with pytest.raises(InvalidShapeError):
            ConvexPolygon([(0, 0), (0, 1), (1, 0)])

    def test_rejects_repeated_vertices(self):
        with pytest.raises(InvalidShapeError):
            ConvexPolygon([(0, 0), (0, 0), (1, 0), (0, 1)])

    def test_rejects_two_vertices(self):
        with pytest.raises(InvalidShapeError, match="at least 3 vertices"):
            ConvexPolygon([(0, 0), (1, 0)])

    def test_drops_collinear(self):
        p = ConvexPolygon([(0, 0), (0.5, 0.0), (1, 0), (0, 1)])
        assert len(p.vertices) == 3

    def test_rectangle_positive(self):
        with pytest.raises(InvalidShapeError):
            Rectangle(0.0, 1.0)

    def test_interval_order(self):
        with pytest.raises(InvalidShapeError):
            Interval(1.0, 1.0)

    @pytest.mark.parametrize("h1, h2", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0)])
    def test_rectangle_rejects_nonfinite(self, h1, h2):
        with pytest.raises(InvalidShapeError):
            Rectangle(h1, h2)

    @pytest.mark.parametrize("h1, h2", [("1", 1.0), (True, 1.0), (1.0, None), (1.0, False)])
    def test_rectangle_half_widths_are_real_numbers(self, h1, h2):
        # '1' raised TypeError, and True built Rectangle(h1=True, h2=1.0)
        with pytest.raises(InvalidShapeError, match="half-width must be a real number"):
            Rectangle(h1, h2)

    @pytest.mark.parametrize("make", [lambda big: Ball(2, big), lambda big: Interval(0, big), lambda big: Rectangle(big, 1),
                                      lambda big: ConvexPolygon([[big, 0], [1, 0], [0, 1]])],
                             ids=["ball", "interval", "rectangle", "polygon"])
    @pytest.mark.parametrize("big", [10**400, -(10**5000)], ids=["1e400", "-1e5000"])
    def test_an_int_beyond_the_floats_is_invalid(self, make, big):
        # float(big) raised a bare OverflowError; the message names the argument, as repr(-10**5000) raises
        with pytest.raises(InvalidShapeError, match="too large for a float"):
            make(big)

    def test_rectangle_stores_float_half_widths(self):
        rect = Rectangle(1, np.float64(2.0))
        assert [type(h) for h in rect.half_widths] == [float, float] and rect.half_widths == (1.0, 2.0)
        assert rect == Rectangle(1.0, 2.0)

    def test_rectangle_is_held_to_the_polygon_tolerances(self):
        # the corner polygon of a 1e-30 x 1 strip has sides within 1e-12 of its diameter: its
        # H(0.1) read 9.4e-87 for about |Omega|^2 p_0.1(0) = 2.5e-58 when rectangles skipped
        # the polygon's checks
        assert isinstance(Rectangle(1.0, 1.0), ConvexPolygon)
        with pytest.raises(InvalidShapeError):
            Rectangle(1e-30, 1.0)

    @pytest.mark.parametrize("doc, size", POLYGONS_OUTSIDE_THE_FLOATS)
    def test_polygon_outside_the_floats_names_its_size(self, doc, size):
        # the squared diameters raised "polygon has a repeated vertex", those that overflow after two
        # RuntimeWarnings; the underflowing area got as far as H, and the overflowing one raised
        # fsum's "-inf + inf" after three
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidShapeError, match=re.escape(size)):
                shape_from_json(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_polygon_rejects_nonfinite(self, bad):
        # a NaN used to drop its vertex and both neighbours silently
        with pytest.raises(InvalidShapeError):
            ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (1.0, bad), (0.0, 1.0)])

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "rectangle"},
            {"kind": "polygon"},
            {"kind": "interval", "a": 0},
            {"kind": "ball"},
        ],
        ids=["rectangle", "polygon", "interval", "ball"],
    )
    def test_from_json_missing_key(self, doc):
        with pytest.raises(InvalidShapeError):
            shape_from_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "rectangle", "half_widths": 5},
            {"kind": "rectangle", "half_widths": ["1", "2"]},
            {"kind": "polygon", "vertices": 5},
            {"kind": "polygon", "vertices": [["a", 0], [1, 0], [0, 1]]},
            {"kind": "polygon", "vertices": [[0, 0], [1, 0, 2], [0, 1]]},
            {"kind": "interval", "a": "0", "b": 1},
        ],
        ids=["hw-number", "hw-strings", "vertices-number", "vertex-string", "ragged", "a-string"],
    )
    def test_from_json_wrong_type(self, doc):
        with pytest.raises(InvalidShapeError):
            shape_from_json(doc)

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"kind": "ball", "dim": 2, "radius": 3}, "radius"),
            ({"kind": "rectangle", "half_widths": [1, 2], "center": [0, 0]}, "center"),
            ({"kind": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]], "closed": True}, "closed"),
            ({"kind": "interval", "a": 0, "b": 1, "dim": 1}, "dim"),
        ],
        ids=["ball-radius", "rectangle-center", "polygon-closed", "interval-dim"],
    )
    def test_from_json_rejects_keys_it_does_not_read(self, doc, key):
        # {"kind": "ball", "dim": 2, "radius": 3} used to build the unit disc
        with pytest.raises(InvalidShapeError, match=f"unknown key '{key}'"):
            shape_from_json(doc)

    @pytest.mark.parametrize("doc", [{"kind": ["ball"], "dim": 2}, {"dim": 2}], ids=["unhashable", "missing"])
    def test_from_json_unknown_kind(self, doc):
        # the kind is looked up in a dict of the keys each kind reads: a list must not raise TypeError
        with pytest.raises(InvalidShapeError, match="unknown shape kind"):
            shape_from_json(doc)

    @pytest.mark.parametrize("doc", [[1, 2], "ball", None, 3.0])
    def test_from_json_not_an_object(self, doc):
        with pytest.raises(InvalidShapeError):
            shape_from_json(doc)

    @pytest.mark.parametrize("dim", [2.7, 2.0, "3", True])
    def test_from_json_non_integer_dim(self, dim):
        # "dim": 2.7 used to become UnitBall(2)
        with pytest.raises(InvalidShapeError):
            shape_from_json({"kind": "ball", "dim": dim})

    def test_from_json(self):
        assert shape_from_json({"kind": "ball", "dim": 3}) == UnitBall(3)
        assert shape_from_json({"kind": "rectangle", "half_widths": [1, 2]}) == Rectangle(1.0, 2.0)
        assert shape_from_json({"kind": "interval", "a": 0, "b": 1}) == Interval(0.0, 1.0)
        poly = shape_from_json({"kind": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]})
        assert geometry(poly).volume == pytest.approx(0.5)
        with pytest.raises(InvalidShapeError):
            shape_from_json({"kind": "blob"})


class TestBallOfAnyRadius:
    """One class for the balls of every radius: the unit ball is Ball(d), an interval the 1-ball."""

    RADII = [1e-6, 1e-3, 0.37, 3.0, 1e3, 1e6]
    DIMS = [1, 2, 3, 6, 16]
    EPS = np.finfo(float).eps

    def test_unit_ball_and_interval_are_balls(self):
        for d in (1, 2, 16):
            assert UnitBall(d) == Ball(d) == Ball(d, 1) and UnitBall(d).radius == 1.0
        for a, b in [(0.0, 1.0), (-0.5, 2.0), (0.0, 1.7), (0.3, 1.1), (-1e300, 1e300)]:
            assert Interval(a, b) == Ball(1, (b - a) / 2.0)
            assert geometry(Interval(a, b)).volume == b - a  # its one chord, 2 (b - a)/2, is b - a
        assert shape_from_json({"kind": "interval", "a": -1, "b": 2}) == Ball(1, 1.5)

    @pytest.mark.parametrize(
        "d, radius",
        [(16, 1e20), (16, 1e-30), (1, 1e308), (2, 0.0), (2, -1.0), (2, math.nan), (2, math.inf), (2, True), (2, "1"),
         (2, None)],
        ids=["volume-overflows", "volume-underflows", "diameter-overflows", "zero", "negative", "nan", "inf", "bool",
             "string", "none"],
    )
    def test_radius_must_give_a_finite_positive_size(self, d, radius):
        with pytest.raises(InvalidShapeError):
            Ball(d, radius)

    @pytest.mark.parametrize(
        "a, b", [("0", "1"), (0, None), (False, 1), (-1e308, 1e308), (0.0, math.inf), (math.nan, 1.0), (2.0, 1.0)]
    )
    def test_interval_must_be_finite_and_ordered(self, a, b):
        with pytest.raises(InvalidShapeError):
            Interval(a, b)
        with pytest.raises(InvalidShapeError):
            shape_from_json({"kind": "interval", "a": a, "b": b})

    @pytest.mark.parametrize("d", DIMS)
    def test_volume_perimeter_and_diameter_scale(self, d):
        for r in self.RADII:
            geo = geometry(Ball(d, r))
            assert geo.volume == pytest.approx(r**d * unit_ball_volume(d), rel=2 * self.EPS, abs=0.0)
            assert geo.perimeter == pytest.approx(r ** (d - 1) * unit_sphere_area(d), rel=2 * self.EPS, abs=0.0)
            assert geo.support_radius == 2.0 * r
            assert shapes.support_radius_at(Ball(d, r), 0.7) == 2.0 * r  # the Shape default

    # integrate_1d's error estimate, min(diff, (200 diff)^1.5) on a panel, shrinks as the 1.5th
    # power of the integrand's scale where diff < 200^-3: on these balls the one first-round
    # panel of the weight cos^14 psi sin psi reports 5e-49 and 2e-26 of the value and misses
    # by 7.9e-11 of it
    SMALL_ESTIMATES = {(16, 1e-6), (16, 1e-3)}

    @pytest.mark.parametrize("r", RADII)
    @pytest.mark.parametrize("d", DIMS)
    def test_perimeter_through_the_chord_measure(self, d, r, request):
        # Cauchy's formula: the line integral of 1 is w_(d-1) Per, within its reported error and
        # the 50 eps int |f| that QUADPACK adds for rounding
        if (d, r) in self.SMALL_ESTIMATES:
            request.applymarker(pytest.mark.xfail(
                strict=True, reason="integrate_1d reports an error that does not scale with the integrand"))
        value, err = Ball(d, r).line_integral(lambda lo, hi: np.ones_like(lo), QuadSpec())
        shadow = unit_ball_volume(d - 1) if d > 1 else 1.0
        assert abs(value - shadow * geometry(Ball(d, r)).perimeter) <= err + 50 * self.EPS * value

    @pytest.mark.parametrize("d", DIMS)
    def test_gamma_scales(self, d):
        # gamma_{rB}(2r s) = r^(d-1) gamma_B(2s): closed forms, so only rounding separates them
        ss = np.array([1e-4, 0.01, 0.3, 0.77, 1.0])
        for r in self.RADII:
            np.testing.assert_allclose(gamma(Ball(d, r), ss), r ** (d - 1) * gamma(UnitBall(d), ss),
                                       rtol=4 * self.EPS, atol=0.0)

    @pytest.mark.parametrize("d", DIMS)
    def test_covariance_scales(self, d):
        # g_{rB}(y) = r^d g_B(y/r), to a few rounding errors of |Omega|, on both sides of the diameter
        ys = np.random.default_rng(d).uniform(-1.2, 1.2, (200, d)) * 2.0
        for r in self.RADII:
            vol = geometry(Ball(d, r)).volume
            np.testing.assert_allclose(covariance(Ball(d, r), r * ys), r**d * covariance(UnitBall(d), ys),
                                       rtol=0.0, atol=8 * self.EPS * vol)
            assert_covariance_facts(Ball(d, r), QuadSpec(), seed=d, n_probes=50)


class TestScaleFree:
    """Tolerances relative to the diameter: a scaled copy is valid exactly when the shape is."""

    VALID = [
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
        benchmark_polygons(1)[1].vertices,
        [(0.0, 0.0), (1.0, 0.0), (2.0, 1e-13), (0.0, 1.0)],  # (1, 0) is collinear and dropped
    ]
    INVALID = [
        [(0.0, 0.0), (1.0, 0.0), (1.0 + 1e-13, 0.0), (0.0, 1.0)],  # a repeated vertex
        [(0.0, 0.0), (1.0, 0.0), (2.0, 1e-13)],  # collinear
        [(0, 0), (2, 0), (1, 0.5), (2, 2), (0, 2)],  # not convex
    ]

    @pytest.mark.parametrize("lam", [1e-6, 1.0, 1e6])
    def test_scaled_copy_is_valid_exactly_when_shape_is(self, lam):
        for verts in self.VALID:
            poly = ConvexPolygon(np.asarray(verts, dtype=float))
            assert len(ConvexPolygon(lam * poly.vertex_array).vertices) == len(poly.vertices)
            assert len(ConvexPolygon(lam * np.asarray(verts, dtype=float)).vertices) == len(poly.vertices)
        for verts in self.INVALID:
            with pytest.raises(InvalidShapeError):
                ConvexPolygon(lam * np.asarray(verts, dtype=float))

    @pytest.mark.parametrize("lam", [1e-6, 1e6])
    def test_scaled_covariance_and_heat_content(self, lam, quad):
        for verts in self.VALID[:2]:
            poly = ConvexPolygon(verts)
            scaled = ConvexPolygon(lam * poly.vertex_array)
            assert covariance(scaled, [0.0, 0.0]) == pytest.approx(geometry(scaled).volume, rel=1e-14)
            # g_{lam Omega}(lam y) = lam^2 g_Omega(y), also where g is a tiny part of the area
            ys = np.concatenate([np.random.default_rng(5).uniform(-1.5, 1.5, (200, 2)), 0.98 * poly.edge_directions])
            np.testing.assert_allclose(covariance(scaled, lam * ys), lam**2 * covariance(poly, ys), rtol=1e-9, atol=0.0)
            assert geometry(scaled).volume == pytest.approx(lam**2 * geometry(poly).volume, rel=1e-14)
            for t in (1e-3, 0.1, 2.0):
                assert heat_content(scaled, lam * t, quad) == pytest.approx(
                    lam**2 * heat_content(poly, t, quad), rel=1e-12
                )


class TestGeometry:
    def test_ball2(self):
        geo = geometry(UnitBall(2))
        assert geo.volume == pytest.approx(math.pi)
        assert geo.perimeter == pytest.approx(2.0 * math.pi)
        assert geo.support_radius == 2.0

    def test_unit_square(self):
        geo = geometry(Rectangle(1.0, 1.0))
        assert (geo.volume, geo.perimeter) == (4.0, 8.0)
        assert geo.support_radius == pytest.approx(2.0 * SQRT2)

    def test_rectangle_is_the_closed_form_bit_for_bit(self):
        # the corner polygon's fsum of hypot edge lengths, greatest hypot of a vertex pair and
        # exact shoelace round as 4 (h1 + h2), 2 hypot(h1, h2) and 4 h1 h2 do; half the draws are
        # independent, half within the aspect e^27 < 1e12 that the polygon checks accept
        rng = np.random.default_rng(36)
        log_h = rng.uniform(-150.0, 150.0, (1000, 2))
        log_h[500:, 1] = np.clip(log_h[500:, 0] + rng.uniform(-27.0, 27.0, 500), -150.0, 150.0)
        pairs = [(1.0, 1.0), (1.5, 0.5), (2.0, 1.0), (0.1, 0.1), *np.exp(log_h).tolist()]
        accepted = 0
        for h1, h2 in pairs:
            try:
                rect = Rectangle(h1, h2)
            except InvalidShapeError:
                continue
            assert rect.geometry == rectangle_geometry(h1, h2), (h1.hex(), h2.hex())
            accepted += 1
        assert accepted > 500

    def test_random_hull_perimeter_and_diameter_within_an_ulp(self):
        # seeded hulls of 3-30 points, aspect down to 1e-6 and scale 1e-6..1e6, against 40-digit
        # mpmath: the perimeter against the exact float vertices, the diameter against the exact
        # lengths of the differences v_i - v_j that it takes, which round once before any length
        # (against the exact vertices the worst diameter of 2000 such hulls was 0.99 ulp); the
        # fsum of rounded hypot lengths read up to 0.88 ulp off here, and 1.22 ulp on a benchmark rectangle
        rng = np.random.default_rng(7)
        with mpmath.workdps(40):
            for _ in range(100):
                n, aspect, lam = int(rng.integers(3, 31)), 10.0 ** rng.uniform(-6, 0), 10.0 ** rng.uniform(-6, 6)
                angle, phi, rho = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi, n), rng.uniform(0.5, 1.0, n)
                x, y = rho * np.cos(phi), aspect * rho * np.sin(phi)
                x, y = lam * (math.cos(angle) * x - math.sin(angle) * y + 1.0), lam * (math.sin(angle) * x + math.cos(angle) * y)
                poly = ConvexPolygon(hull(list(zip(x.tolist(), y.tolist()))))
                v = [tuple(map(mpmath.mpf, p)) for p in poly.vertices]
                per = mpmath.fsum(mpmath.hypot(q[0] - p[0], q[1] - p[1]) for p, q in zip(v, v[1:] + v[:1]))
                diffs = (poly.vertex_array[:, None] - poly.vertex_array).reshape(-1, 2).tolist()
                diam = max(mpmath.hypot(mpmath.mpf(dx), mpmath.mpf(dy)) for dx, dy in diffs)
                geo = poly.geometry
                assert abs(geo.perimeter - per) <= 0.5 * math.ulp(float(per)), (n, aspect, lam)
                assert abs(geo.support_radius - diam) <= math.ulp(float(diam)), (n, aspect, lam)

    def test_ball_stores_the_geometry_it_validates(self):
        ball = Ball(3, 0.37)
        assert vars(ball)["geometry"].volume == 0.37**3 * unit_ball_volume(3)

    def test_dropped_farthest_vertex_leaves_the_diameter(self):
        # (1 + 5e-8, 0) turns by about 1e-14 <= 1e-12 ell^2 and is dropped as collinear, though it is
        # the farthest of the given points: the diameter is the kept vertices', not 1 + 5e-8
        poly = ConvexPolygon([(0, 0), (1, -1e-7), (1 + 5e-8, 0), (1, 1e-7)])
        assert len(poly.vertices) == 3
        assert poly.geometry == ConvexPolygon([(0, 0), (1, -1e-7), (1, 1e-7)]).geometry
        assert poly.geometry.support_radius == math.hypot(1.0, 1e-7) == float.fromhex("0x1.0000000000017p+0")

    def test_triangle(self):
        geo = geometry(TRIANGLE)
        assert geo.volume == pytest.approx(0.5)
        assert geo.perimeter == pytest.approx(2.0 + SQRT2)
        assert geo.support_radius == pytest.approx(SQRT2)

    def test_interval(self):
        geo = geometry(Interval(0.0, 1.0))
        assert (geo.volume, geo.perimeter, geo.support_radius) == (1.0, 2.0, 1.0)


ONE_OF_EACH = [UnitBall(2), UnitBall(3), Interval(0.0, 2.0), TRIANGLE, Rectangle(1.0, 0.5)]
ONE_OF_EACH_IDS = ["ball2", "ball3", "interval", "triangle", "rect"]


@pytest.mark.parametrize("shape", ONE_OF_EACH, ids=ONE_OF_EACH_IDS)
def test_support_radius_rejects_a_non_finite_theta(shape):
    # as covariance rejects a non-finite point: a polygon returned nan, with NumPy warnings at
    # +-inf, and a ball its diameter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="theta must be finite"):
                shapes.support_radius_at(shape, theta)


@pytest.mark.parametrize("shape", ONE_OF_EACH, ids=ONE_OF_EACH_IDS)
def test_support_radius_rejects_a_theta_that_is_no_real_number(shape):
    # True was taken as theta = 1, and "0.3" raised a bare TypeError; NumPy floats and ints still pass
    for theta in (True, "0.3", None, np.bool_(False)):
        with pytest.raises(DomainError, match="theta must be a real number"):
            shapes.support_radius_at(shape, theta)
    for theta in (np.float64(0.3), np.float32(0.3), 1):
        assert shapes.support_radius_at(shape, theta) == shapes.support_radius_at(shape, float(theta))


@pytest.mark.parametrize("shape", ONE_OF_EACH, ids=ONE_OF_EACH_IDS)
@pytest.mark.parametrize("entry", [lambda shape: directional_variation(shape, np.zeros((0, shape.dim))),
                                   lambda shape: gamma(shape, np.array([]))], ids=["directional_variation", "gamma"])
def test_empty_batch_gives_an_empty_array(entry, shape):
    # as covariance does: no rows, or no s, in and an empty float array out
    out = entry(shape)
    assert isinstance(out, np.ndarray) and out.dtype == float and out.shape == (0,)


class TestDirectionalVariation:
    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, 1.9, 4.0])
    def test_square_formula(self, theta):
        u = (math.cos(theta), math.sin(theta))
        expected = 4.0 * (abs(u[0]) + abs(u[1]))
        assert directional_variation(Rectangle(1.0, 1.0), u) == pytest.approx(expected)
        assert directional_variation(SQUARE_POLY, u) == pytest.approx(expected)

    def test_ball2_constant(self):
        for theta in (0.0, 1.0, 2.5):
            u = (math.cos(theta), math.sin(theta))
            assert directional_variation(UnitBall(2), u) == pytest.approx(4.0)

    def test_ball3_constant(self):
        assert directional_variation(UnitBall(3), (0, 0, 1.0)) == pytest.approx(2.0 * math.pi)

    def test_interval(self):
        assert directional_variation(Interval(0, 2), (1.0,)) == 2.0

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitVectorError):
            directional_variation(UnitBall(2), (1.0, 1.0))

    @pytest.mark.parametrize("shape", [Rectangle(1.0, 1.0), Rectangle(1.5, 0.5), Rectangle(0.5e-6, 0.5), TRIANGLE,
                                       FLAT_SLIVER], ids=["square", "rect", "strip", "triangle", "sliver"])
    def test_half_is_the_shadow_width(self, shape):
        # V_u/2 is the width of the shadow on u^perp, the spread of the offsets of chord_table
        thetas = np.random.default_rng(6).uniform(0.0, 2.0 * math.pi, 200)
        x, _ = shape.chord_table(thetas)
        half = directional_variation(shape, np.column_stack([np.cos(thetas), np.sin(thetas)])) / 2.0
        np.testing.assert_allclose(half, x[:, -1] - x[:, 0], rtol=0.0, atol=1e-14 * geometry(shape).support_radius)

    def test_half_is_the_ball_shadow(self):
        # the shadow of the unit d-ball is the unit (d - 1)-ball, of volume w_0 = 1 for d = 1
        rng = np.random.default_rng(7)
        for d in range(1, 17):
            us = rng.standard_normal((20, d))
            us /= np.linalg.norm(us, axis=1)[:, None]
            want = unit_ball_volume(d - 1) if d > 1 else 1.0
            np.testing.assert_allclose(directional_variation(UnitBall(d), us) / 2.0, want, rtol=1e-15)


BATCH_SHAPES = [UnitBall(1), UnitBall(2), UnitBall(5), Rectangle(1.0, 1.0), Rectangle(1.5, 0.5),
                TRIANGLE, Interval(-0.5, 2.0), *benchmark_polygons(1)[1:],
                ConvexPolygon([(math.cos(math.pi * k / 20), math.sin(math.pi * k / 20)) for k in range(40)])]


@pytest.mark.parametrize(
    "shape", BATCH_SHAPES,
    ids=["ball1", "ball2", "ball5", "square", "rect", "triangle", "interval", "hexagon-1", "rotrect-1", "40-gon"],
)
def test_batch_matches_single_points(shape, quad):
    # (n, d) in, n values out; one point in, a float out.  A batch is its points taken one
    # at a time, so the values are equal by construction: on a polygon each s beyond r_1,
    # such as 0.5, 0.7 and 0.9 here, is a line integral of its own
    rng = np.random.default_rng(4)
    ell = geometry(shape).support_radius
    ys = rng.uniform(-1.2 * ell, 1.2 * ell, (9, shape.dim))
    us = rng.standard_normal((9, shape.dim))
    us /= np.linalg.norm(us, axis=1)[:, None]
    ss = np.array([2.0**-30, 0.01, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0])
    for batch, one, args in (
        (covariance(shape, ys), covariance, ys),
        (directional_variation(shape, us), directional_variation, us),
        (gamma(shape, ss, quad), lambda sh, s: gamma(sh, s, quad), ss),
    ):
        assert batch.shape == (len(args),)
        singles = [one(shape, a) for a in args]
        assert all(isinstance(v, float) for v in singles)
        np.testing.assert_array_equal(batch, singles)


@pytest.mark.parametrize("shape", [Rectangle(1.0, 1.0), *benchmark_polygons(1)],
                         ids=["square", "triangle", "hexagon", "rotated-rectangle"])
def test_polygon_gamma_of_one_s_matches_the_batch(shape, quad):
    # one s is a float with the bits of a batch of one (``test_batch_matches_single_points``
    # compares longer batches)
    ss = np.array([2.0**-30, 0.01, 0.3, 0.5, 0.7, 0.9, 1.0])
    singles = [gamma(shape, s, quad) for s in ss.tolist()]
    assert all(type(v) is float for v in singles)
    assert singles == [float(gamma(shape, ss[i : i + 1], quad)[0]) for i in range(len(ss))]


class TestPerimeterIdentity:
    # Cauchy's formula: one line integral of k = 1 in every dimension; the inputs past the
    # first of each test hold it within 1e-13 of the closed-form perimeter
    def test_ball2(self, quad):
        assert perimeter_from_variations(UnitBall(2), quad) == pytest.approx(
            2.0 * math.pi, abs=1e-10
        )

    def test_square(self, quad):
        assert perimeter_from_variations(Rectangle(1.0, 1.0), quad) == pytest.approx(
            8.0, abs=1e-8
        )
        for shape in (Rectangle(0.5e-6, 0.5), Interval(-0.5, 2.0)):
            assert perimeter_from_variations(shape, quad) == pytest.approx(geometry(shape).perimeter, rel=1e-13)

    def test_ball3(self, quad):
        assert perimeter_from_variations(UnitBall(3), quad) == pytest.approx(
            4.0 * math.pi, abs=1e-8
        )
        for d in range(1, 17):
            assert perimeter_from_variations(UnitBall(d), quad) == pytest.approx(unit_sphere_area(d), rel=1e-13), d

    def test_triangle_matches_geometry(self, quad):
        assert perimeter_from_variations(TRIANGLE, quad) == pytest.approx(
            geometry(TRIANGLE).perimeter, abs=1e-8
        )
        scaled = [ConvexPolygon(lam * TRIANGLE.vertex_array) for lam in (1e-3, 1e3)]
        for shape in [FLAT_SLIVER, *scaled]:
            assert perimeter_from_variations(shape, quad) == pytest.approx(geometry(shape).perimeter, rel=1e-13)


class TestAxisAlignedBoxes:
    """Every polygon that is an axis-aligned box takes the box's closed-form g and Monte Carlo
    blocks, whatever built it; ``Rectangle`` is a constructor of the centred one."""

    YS = np.random.default_rng(5).uniform(-3.0, 3.0, (50, 2))

    @staticmethod
    def _bits(shape, quad):
        """What heatcov computes of a planar shape, as floats."""
        return [*covariance(shape, TestAxisAlignedBoxes.YS).tolist(), heat_content(shape, 0.05, quad),
                big_R(shape, 0.5, quad), *gamma(shape, np.array([0.2, 0.6, 1.0]), quad).tolist(),
                third_term(shape, quad).C_formula, mc_heat_content(shape, 0.1, n=20_000, seed=3).mean,
                mc_covariance(shape, [0.7, 0.2], n=20_000, seed=4).mean]

    @pytest.mark.parametrize("h1, h2", [(1.0, 1.0), (1.3, 0.6)])
    def test_a_rectangle_is_the_polygon_of_its_corners(self, h1, h2, quad):
        rect = Rectangle(h1, h2)
        poly = ConvexPolygon(rect.vertices)
        assert poly == rect and poly.half_widths == rect.half_widths == (h1, h2)
        assert self._bits(poly, quad) == self._bits(rect, quad)

    def test_rectangle_is_a_constructor(self):
        with pytest.raises(TypeError):
            isinstance(SQUARE_POLY, Rectangle)
        assert type(Rectangle(1.0, 1.0)) is ConvexPolygon and repr(Rectangle(1.0, 1.0)) == repr(SQUARE_POLY)
        assert set(mc._blocks.registry) == {object, Ball, ConvexPolygon}

    def test_an_off_centre_box_takes_the_closed_form(self):
        # g is translation invariant, and the box blocks draw on the centred box: [0.5, 3] x [-1.25, 0],
        # whose extents are exact, has the bits of Rectangle(1.25, 0.625), though it is listed from
        # another corner
        box, rect = ConvexPolygon([(0.5, -1.25), (3.0, -1.25), (3.0, 0.0), (0.5, 0.0)]), Rectangle(1.25, 0.625)
        assert box.half_widths == (1.25, 0.625) and box.geometry == rect.geometry
        assert covariance(box, [1.0, -0.3]) == 1.5 * 0.95
        assert covariance(box, self.YS).tolist() == covariance(rect, self.YS).tolist()
        assert type(mc._blocks(box)) is mc._BoxBlocks
        for estimate, arg in ((mc_heat_content, 0.1), (mc_covariance, [0.7, 0.2])):
            assert estimate(box, arg, n=20_000, seed=6) == estimate(rect, arg, n=20_000, seed=6)

    def test_collinear_points_on_the_sides_leave_a_box(self):
        box = ConvexPolygon([(1.3, -0.6), (1.3, 0.0), (1.3, 0.6), (0.0, 0.6), (-1.3, 0.6), (-1.3, -0.6), (0.2, -0.6)])
        assert box == Rectangle(1.3, 0.6) and box.half_widths == (1.3, 0.6)

    @pytest.mark.parametrize(
        "vertices",
        [[(math.cos(0.4) * x - math.sin(0.4) * y, math.sin(0.4) * x + math.cos(0.4) * y) for x, y in
          [(1.3, -0.6), (1.3, 0.6), (-1.3, 0.6), (-1.3, -0.6)]],
         [(0.0, 0.0), (3.0, 0.0), (2.0, 1.0), (1.0, 1.0)]],
        ids=["rotated-rectangle", "trapezoid"],
    )
    def test_other_quadrilaterals_take_the_walk(self, vertices):
        poly = ConvexPolygon(vertices)
        assert len(poly.vertices) == 4 and poly.half_widths is None
        assert type(mc._blocks(poly)) is mc._PolygonBlocks

    def test_tiny_edge_components_are_not_axis_edges(self):
        # the edge (-1e-200, -1e-150) is no axis edge, though the product of its components underflows to 0
        poly = ConvexPolygon([(0.0, 0.0), (1e-150, 0.0), (1e-150, 1e-150), (1e-200, 1e-150)])
        assert len(poly.vertices) == 4 and poly.edge_directions[3, 0] * poly.edge_directions[3, 1] == 0.0
        assert poly.half_widths is None


class TestCovariance:
    def test_ball2_formula(self):
        for s in (0.1, 0.4, 0.75, 0.99):
            expected = 2.0 * math.asin(math.sqrt(1 - s * s)) - 2.0 * s * math.sqrt(1 - s * s)
            assert covariance(UnitBall(2), (2.0 * s, 0.0)) == pytest.approx(expected, abs=1e-12)

    def test_square_values(self):
        q = Rectangle(1.0, 1.0)
        assert covariance(q, (0.0, 0.0)) == 4.0
        assert covariance(q, (1.0, 1.0)) == 1.0
        assert covariance(q, (2.0, 0.3)) == 0.0

    def test_ball3_half(self):
        assert covariance(UnitBall(3), (0.0, 0.0, 1.0)) == pytest.approx(
            5.0 * math.pi / 12.0, abs=1e-12
        )

    @pytest.mark.parametrize("d,y", [(1, [1e300]), (2, [1e200, 1e200]), (3, [1e200, 1e200, 0.0]), (16, [-2.0] + [0.0] * 15)])
    def test_ball_beyond_overflow_is_zero(self, d, y):
        # |y|^2 overflowed above about 1.3e154 and warned; a batch row has the bits of one point
        assert covariance(UnitBall(d), y) == 0.0
        near = [1.9] + [0.0] * (d - 1)
        assert covariance(UnitBall(d), [y, near]).tolist() == [0.0, covariance(UnitBall(d), near)]

    def test_polygon_matches_rectangle_closed_form(self):
        # the chord walk on the square turned by 0.3, at the turned points: a box takes the closed form
        c, s = math.cos(0.3), math.sin(0.3)
        turned = ConvexPolygon([(c * x - s * y, s * x + c * y) for x, y in SQUARE_POLY.vertices])
        assert turned.half_widths is None
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            y0, y1 = rng.uniform(-2.4, 2.4, 2)
            assert covariance(turned, (c * y0 - s * y1, s * y0 + c * y1)) == pytest.approx(
                covariance(Rectangle(1.0, 1.0), (y0, y1)), abs=1e-10
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            covariance(UnitBall(2), (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("kind", [list, tuple, np.array])
    @pytest.mark.parametrize(
        "shape", [UnitBall(3), TRIANGLE, Rectangle(1.0, 0.5), Interval(0.0, 2.0)],
        ids=["UnitBall(d=3)", repr(TRIANGLE), "Rectangle(h1=1.0, h2=0.5)", "Interval(a=0.0, b=2.0)"],
    )
    def test_one_point_as_list_tuple_or_array(self, kind, shape):
        dim = shape.dim
        with pytest.raises(DimensionMismatchError):
            covariance(shape, kind([0.1] * (dim + 1)))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="point must be finite"):
                covariance(shape, kind([0.1] * (dim - 1) + [bad]))
        # the same bits as a row of the (n, dim) batch, whose path is unchanged
        rng = np.random.default_rng(dim)
        ys = rng.uniform(-1.0, 1.0, (20, dim)) * geometry(shape).support_radius
        batch = covariance(shape, ys)
        assert [covariance(shape, kind(y)) for y in ys.tolist()] == batch.tolist()
        # integer coordinates are read as floats
        assert covariance(shape, kind([1] * dim)) == covariance(shape, np.ones((1, dim)))[0]

    @settings(max_examples=50, deadline=None)
    @given(
        h1=st.floats(0.1, 3.0),
        h2=st.floats(0.1, 3.0),
        y1=st.floats(-8, 8),
        y2=st.floats(-8, 8),
    )
    def test_rectangle_properties(self, h1, h2, y1, y2):
        r = Rectangle(h1, h2)
        geo = geometry(r)
        g = covariance(r, (y1, y2))
        assert 0.0 <= g <= geo.volume + 1e-12
        assert g == pytest.approx(covariance(r, (-y1, -y2)), rel=1e-14)
        if math.hypot(y1, y2) >= geo.support_radius:
            assert g == 0.0


def _tolerance(poly):
    return 1e-13 * poly.geometry.volume


# points rho ell (cos theta, sin theta) on random rays, rho in [0, 1.1] (subnormal ones too)
_RAYS = st.lists(st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 1.1)), min_size=1, max_size=8)


def _ray_points(poly, rays):
    ell = poly.geometry.support_radius
    return [(rho * ell * math.cos(theta), rho * ell * math.sin(theta)) for theta, rho in rays]


def _exact_area(verts) -> Fraction:
    v = [(Fraction(x), Fraction(y)) for x, y in verts.tolist()]
    return sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(v, v[1:] + v[:1])) / 2


class TestPolygonArea:
    @settings(max_examples=60, deadline=None)
    @given(poly=convex_polygons(), shift=st.integers(1, 39))
    def test_area_is_the_exact_shoelace_under_any_cyclic_shift(self, poly, shift):
        # a plain float shoelace of a thin hull is off by up to 4.7e-13 |Omega| at aspect 1e-3
        # and moves by as much when vertex 0 changes
        verts = poly.vertex_array
        exact = float(_exact_area(verts))
        assert poly.geometry.volume == exact
        assert ConvexPolygon(np.roll(verts, shift % len(verts), axis=0)).geometry.volume == exact


class TestPolygonCovarianceProperties:
    """The chord-walk covariance of random convex polygons, thin, tiny and huge ones too."""

    @settings(max_examples=40, deadline=None)
    @given(
        poly=convex_polygons(),
        rays=_RAYS,
        pairs=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), min_size=1, max_size=3),
        edges=st.lists(
            st.tuples(st.integers(0, 39), st.sampled_from([-1.0, -0.5, 0.25, 1.0])), min_size=1, max_size=3
        ),
    )
    # a subnormal point: u = y / |y| must still be a unit vector
    @example(poly=TRIANGLE, rays=[(1.0, 5e-324)], pairs=[(0, 0)], edges=[(0, -1.0)])
    # a thin triangle whose chords, as differences of heights above vertex 0, were 1.26e-10 off
    @example(poly=THIN_TRIANGLE, rays=[(0.0, 0.00046967253536933667)], pairs=[(0, 0)], edges=[(0, -1.0)])
    @example(poly=PENTAGON, rays=[(0.0, 0.0)], pairs=[(0, 3), (3, 0)], edges=[(0, -1.0)])
    def test_matches_references(self, poly, rays, pairs, edges):
        # random rays against Green's theorem; vertex differences and edge multiples, where
        # edges of the two copies meet or share a line, against exact rational clipping
        # (Green's theorem misses there by up to 1e-11 |Omega| on thin polygons)
        tol, n = _tolerance(poly), len(poly.vertices)
        ys = np.array(_ray_points(poly, rays))
        np.testing.assert_allclose(covariance(poly, ys), green_covariance(poly, ys), rtol=0.0, atol=tol)
        verts, dirs = poly.vertex_array, poly.edge_directions
        ys = np.array([verts[i % n] - verts[j % n] for i, j in pairs] + [k * dirs[i % n] for i, k in edges])
        want = [exact_intersection_area(verts, y) for y in ys]
        np.testing.assert_allclose(covariance(poly, ys), want, rtol=0.0, atol=tol)

    @settings(max_examples=40, deadline=None)
    @given(
        poly=convex_polygons(),
        rays=_RAYS,
        pairs=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=4),
        shift=st.integers(1, 39),
    )
    # a sliver whose covariance moved by 1.05e-13 |Omega| when the vertices were rolled by one
    @example(poly=SLIVER, rays=[(1.0, 0.0625)], pairs=[], shift=1)
    @example(poly=PENTAGON, rays=[(0.0, 0.0)], pairs=[(0, 3), (3, 0)], shift=1)
    def test_symmetry_bounds_batch_and_shift(self, poly, rays, pairs, shift):
        tol, vol, n = _tolerance(poly), poly.geometry.volume, len(poly.vertices)
        verts = poly.vertex_array
        ys = np.array(_ray_points(poly, rays) + [verts[i % n] - verts[j % n] for i, j in pairs])
        g = covariance(poly, ys)
        np.testing.assert_allclose(g, covariance(poly, -ys), rtol=0.0, atol=tol)
        assert np.all((0.0 <= g) & (g <= vol + tol))
        assert covariance(poly, [0.0, 0.0]) == vol
        np.testing.assert_array_equal(g, [covariance(poly, y) for y in ys])
        shifted = ConvexPolygon(np.roll(verts, shift % n, axis=0))
        np.testing.assert_allclose(covariance(shifted, ys), g, rtol=0.0, atol=tol)


class TestBall:
    @pytest.mark.parametrize("d", range(2, 17))
    def test_against_gauss_legendre_oracle(self, d):
        ball = UnitBall(d)
        for s in (1e-3, 0.1, 0.5, 0.9, 1.0):
            assert gamma(ball, s) == pytest.approx(float(ball_gamma_oracle(d, s)), rel=1e-12)
        for r in (0.0, 0.02, 0.7, 1.5, 1.98):
            assert covariance(ball, [r] + [0.0] * (d - 1)) == pytest.approx(
                float(ball_covariance_oracle(d, r)), abs=1e-13
            )

    @pytest.mark.parametrize("d", range(2, 17))
    def test_gamma_at_one_is_the_wallis_value(self, d):
        # gamma_B(2) = A_d w_{d-1} (1 - int_0^{pi/2} cos^d), which used to raise for d >= 4
        a_d, w_dm1, _ = ball_constants(d)
        wallis = math.sqrt(math.pi) * math.gamma((d + 1) / 2) / (2.0 * math.gamma(d / 2 + 1))
        assert gamma(UnitBall(d), 1.0) == pytest.approx(a_d * w_dm1 * (1.0 - wallis), rel=1e-12)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_gamma_small_s_keeps_relative_accuracy(self, d):
        # gamma_B(2s) = A_d w_{d-1} (d-1) s^2 / 6 + O(s^4)
        a_d, w_dm1, _ = ball_constants(d)
        s = 2.0**-40
        assert gamma(UnitBall(d), s) / (s * s) == pytest.approx(
            a_d * w_dm1 * (d - 1) / 6.0, rel=1e-12
        )

    @pytest.mark.parametrize("d", range(2, 17))
    def test_single_point_covariance_has_the_batch_bits(self, d):
        # one point runs the scalar recurrence of cos_power_deficit in floats: against the
        # vectorised oracle, and a batch of rows gives the same bits
        rng = np.random.default_rng(d)
        us = rng.standard_normal((300, d))
        us /= np.linalg.norm(us, axis=1)[:, None]
        radii = np.concatenate([[0.0, 2.0**-40, 1e-8, 1.0, 2.0 - 1e-12, 2.0, 2.2], rng.uniform(0.0, 2.2, 293)])
        ys = radii[:, None] * us
        singles = [covariance(UnitBall(d), y) for y in ys]
        want = ball_covariance_oracle(d, np.minimum(np.linalg.norm(ys, axis=1), 2.0))
        np.testing.assert_allclose(singles, want, rtol=0.0, atol=1e-13)
        assert [v.hex() for v in singles] == [float(v).hex() for v in covariance(UnitBall(d), ys)]

    @pytest.mark.parametrize("r", [1e-3, 0.37, 1.0, 1e5])
    def test_d1_takes_the_general_formulas(self, r):
        # w_0 = 1: the 1-ball's gamma, V_u, g, gamma integral and R come from the formulas of every d
        ball = Ball(1, r)
        for s in (1e-6, 0.3, 1.0):
            assert math.copysign(1.0, gamma(ball, s)) == 1.0 and gamma(ball, s) == 0.0
        values = gamma(ball, np.array([1e-6, 0.3, 1.0]))
        assert values.tolist() == [0.0] * 3 and not np.signbit(values).any()
        assert directional_variation(ball, [1.0]) == 2.0
        for y in (0.0, 1e-300, 0.3 * r, -1.2 * r, 1.999999 * r, 2.0 * r):
            assert covariance(ball, [y]).hex() == (r * (2.0 - abs(y) / r) if abs(y) < 2.0 * r else 0.0).hex()
        assert gamma_weighted_integral(ball) == (0.0, 0.0)
        assert big_R(ball, 0.1) == 0.0

    @pytest.mark.parametrize("d", range(1, 17))
    def test_gamma_of_one_s_is_a_float_with_the_batch_bits(self, d):
        # one s runs the closed form in Python floats, through cos_power_deficit's float path
        for s in (2.0**-32, 2.0**-8, 0.3, 0.7, 1.0):
            one = gamma(UnitBall(d), s)
            assert type(one) is float
            assert one.hex() == float(gamma(UnitBall(d), np.array([s]))[0]).hex(), (d, s)


def _count_integrand_calls(monkeypatch):
    """Patch shapes.integrate_1d to count its calls; returns one integrand-call count per call."""
    integrate = shapes.integrate_1d
    rounds = []

    def counting(f, *args, **kwargs):
        rounds.append(0)

        def g(x):
            rounds[-1] += 1
            return f(x)

        return integrate(g, *args, **kwargs)

    monkeypatch.setattr(shapes, "integrate_1d", counting)
    return rounds


@pytest.mark.parametrize(
    "shape", [*(UnitBall(d) for d in (1, 2, 3, 6, 10, 16)), Interval(0.0, 0.7)],
    ids=[*(f"UnitBall(d={d})" for d in (1, 2, 3, 6, 10, 16)), "Interval(a=0.0, b=0.7)"],
)
def test_radial_heat_content_takes_few_rounds(shape, quad, monkeypatch):
    # panels seeded where the chord is t 4^k resolve the layer at c ~ t before the first
    # round, at every t; a 1-D set has one chord and needs no quadrature
    rounds = _count_integrand_calls(monkeypatch)
    for t in (1e-9, 1e-6, 1e-3, 1.0, 1e3):
        heat_content(shape, t, quad)
    assert len(rounds) == (0 if shape.dim == 1 else 5)
    assert max(rounds, default=0) <= 5, rounds


def _square_gamma_oracle(s):
    """Fixed-grid deficit integral over 2^16 angles (independent of gamma())."""
    ell = 2.0 * SQRT2
    r = ell * s
    th = np.linspace(0.0, 2.0 * np.pi, 2**16, endpoint=False) + np.pi / 2**16
    c, si = np.cos(th), np.sin(th)
    vu_half = 2.0 * (np.abs(c) + np.abs(si))
    gy = np.maximum(0.0, 2.0 - r * np.abs(c)) * np.maximum(0.0, 2.0 - r * np.abs(si))
    return float(np.mean(vu_half - (4.0 - gy) / r) * 2.0 * np.pi)


class TestGamma:
    def test_ball3(self):
        for s in (0.2, 0.5, 0.9):
            assert gamma(UnitBall(3), s) == pytest.approx(4.0 / 3.0 * math.pi**2 * s * s)
        assert gamma(UnitBall(3), 0.5) == pytest.approx(math.pi**2 / 3.0)

    def test_ball2_at_one(self):
        assert gamma(UnitBall(2), 1.0) == pytest.approx(4.0 * math.pi - math.pi**2, abs=1e-12)

    def test_square_against_angle_grid_oracle(self):
        q = Rectangle(1.0, 1.0)
        for s in (0.3, 0.6, 0.9, 1.0):
            assert gamma(q, s) == pytest.approx(_square_gamma_oracle(s), abs=1e-6)

    def test_interval_vanishes(self):
        assert gamma(Interval(0.0, 1.0), 0.5) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma(UnitBall(2), 0.0)
        with pytest.raises(DomainError):
            gamma(UnitBall(2), 1.5)

    @pytest.mark.parametrize("s", [True, "0.5", None, np.bool_(True)])
    def test_rejects_an_s_that_is_no_real_number(self, s):
        # True was taken as s = 1, so it returned gamma(ell), and "0.5" as 0.5
        with pytest.raises(DomainError, match="s must be a real number"):
            gamma(UnitBall(2), s)

    @pytest.mark.parametrize("s", [np.float64(0.5), np.float32(0.5), 1], ids=["float64", "float32", "int"])
    def test_accepts_a_numpy_or_integer_s(self, s):
        for shape in (UnitBall(2), TRIANGLE):
            assert gamma(shape, s) == gamma(shape, float(s))

    @pytest.mark.parametrize("s", [[[0.5, 0.25]], np.full((2, 2), 0.5)], ids=["1x2", "2x2"])
    def test_rejects_an_s_of_two_dimensions(self, s):
        # it was flattened into a 1-D result
        with pytest.raises(DimensionMismatchError, match=r"s has shape \(\d, 2\)"):
            gamma(TRIANGLE, s)

    def test_nonnegative_probes(self, quad):
        rng = np.random.default_rng(7)
        for shape in (UnitBall(2), UnitBall(3), Rectangle(1.0, 1.0), TRIANGLE):
            for s in rng.uniform(1e-3, 1.0, 25):
                assert gamma(shape, float(s), quad) >= -1e-8

    @pytest.mark.parametrize("d", [2, 3])
    def test_ball_gamma_bound(self, d):
        # gamma_B(2s) <= A_d w_{d-1} sigma_d s^2
        sigma = 1.0 if d == 2 else (d - 1) / 2.0
        bound = unit_sphere_area(d) * unit_ball_volume(d - 1) * sigma
        rng = np.random.default_rng(d)
        for s in rng.uniform(1e-6, 1.0, 1000):
            assert gamma(UnitBall(d), float(s)) <= bound * s * s + 1e-12


def _linear_up_to(shape, r1):
    """gamma(r)/r at 1.3 r_1 over its value on [0, r_1], where it must be constant."""
    ell = geometry(shape).support_radius
    slope = gamma(shape, 0.5 * r1 / ell) / (0.5 * r1)
    for f in (0.7, 1.0):
        assert gamma(shape, f * r1 / ell) / (f * r1) == pytest.approx(slope, rel=1e-12)
    return gamma(shape, 1.3 * r1 / ell) / (1.3 * r1) / slope


class TestPolygonGamma:
    def test_first_breakpoint(self):
        # r_1 is the shorter side of a rectangle and the triangle's shortest height
        for shape, r1 in [(Rectangle(1.0, 1.0), 2.0), (Rectangle(1.5, 0.5), 1.0), (TRIANGLE, 1.0 / SQRT2)]:
            assert first_breakpoint(shape) == pytest.approx(r1, rel=1e-15)
            assert abs(_linear_up_to(shape, r1) - 1.0) > 1e-3

    def test_rectangle_is_its_corner_polygon(self, quad):
        # the chords and the geometry are the polygon's, so H, R, gamma and its integral are too
        s, thetas = np.array([2.0**-20, 0.1, 0.4, 0.7, 1.0]), np.linspace(0.0, math.pi, 7)
        for h1, h2 in [(1.0, 1.0), (1.5, 0.5)]:
            rect = Rectangle(h1, h2)
            poly = ConvexPolygon([(h1, -h2), (h1, h2), (-h1, h2), (-h1, -h2)])
            np.testing.assert_array_equal(rect.vertex_array, poly.vertex_array)
            np.testing.assert_array_equal(rect.edge_directions, poly.edge_directions)
            for a, b in zip(rect.chord_table(thetas), poly.chord_table(thetas)):
                np.testing.assert_array_equal(a, b)
            assert rect.geometry == poly.geometry
            for t in (1e-6, 0.1, 2.0, 50.0):
                assert heat_content(rect, t, quad) == heat_content(poly, t, quad)
                assert big_R(rect, t, quad) == big_R(poly, t, quad)
            np.testing.assert_array_equal(gamma(rect, s, quad), gamma(poly, s, quad))
            assert gamma_weighted_integral(rect, quad) == gamma_weighted_integral(poly, quad)

    def test_first_breakpoint_is_where_gamma_stops_being_linear(self):
        # a vertex's nearest non-incident edge line is met outside the edge,
        # so r_1 exceeds the least vertex-to-line distance (0.52)
        hexagon = ConvexPolygon(
            [(math.cos(k * math.pi / 3), 0.6 * math.sin(k * math.pi / 3)) for k in range(6)]
        )
        r1 = first_breakpoint(hexagon)
        assert r1 == pytest.approx(0.72111, abs=1e-5)
        assert _linear_up_to(hexagon, r1) > 1.0 + 1e-3

    def test_integer_rectangle(self):
        rect = Rectangle(2, 1)
        assert rect.vertex_array.dtype == float
        assert gamma(rect, 0.5) == pytest.approx(gamma(ConvexPolygon(rect.vertex_array), 0.5))

    def test_rectangle_gamma_is_exactly_linear(self):
        # g = (3 - r|cos|)(1 - r|sin|) is quadratic for r <= 1, so gamma(r) = 2r
        rect = Rectangle(1.5, 0.5)
        ell = geometry(rect).support_radius
        for k in range(2, 41):
            s = 2.0**-k
            assert gamma(rect, s) == pytest.approx(2.0 * ell * s, rel=1e-12)

    def test_triangle_gamma_over_s_is_constant(self):
        slopes = [gamma(TRIANGLE, 2.0**-k) * 2.0**k for k in range(8, 41)]
        assert max(slopes) - min(slopes) <= 1e-12 * abs(slopes[0])
        assert slopes[0] > 0.0

    @settings(max_examples=30, deadline=None)
    @given(poly=convex_polygons())
    @example(poly=SLIVER)
    @example(poly=FLAT_SLIVER)
    @example(poly=THIN_TRIANGLE)
    def test_first_breakpoint_is_the_brute_force_one(self, poly):
        assert poly.first_breakpoint == pytest.approx(first_breakpoint(poly), rel=1e-14)

    @pytest.mark.parametrize(
        "poly",
        [*benchmark_polygons(1), *benchmark_polygons(7), Rectangle(1.0, 1.0), Rectangle(1.5, 0.5),
         Rectangle(0.5e-6, 0.5), TRIANGLE, SLIVER, FLAT_SLIVER, THIN_TRIANGLE, PENTAGON],
        ids=["triangle-1", "hexagon-1", "rotrect-1", "triangle-7", "hexagon-7", "rotrect-7", "square",
             "rect", "strip", "triangle", "sliver", "flat-sliver", "thin-triangle", "pentagon"],
    )
    def test_linear_gamma_is_the_general_one(self, poly, quad):
        self._assert_linear_gamma_is_the_general_one(poly, quad)

    @settings(max_examples=15, deadline=None)
    @given(poly=convex_polygons())
    def test_linear_gamma_is_the_general_one_on_random_hulls(self, poly):
        self._assert_linear_gamma_is_the_general_one(poly, QuadSpec())

    @staticmethod
    def _assert_linear_gamma_is_the_general_one(poly, quad):
        # gamma = (r/2) vertex_angle_sum up to r_1, against a theta-integral of its own at each r
        ell, r1 = poly.geometry.support_radius, poly.first_breakpoint
        for r in (r1 * (1.0 - 2.0**-20), 0.5 * r1, ell * 2.0**-32):
            assert gamma(poly, r / ell, quad) == pytest.approx(gamma_per_r(poly, r, quad), rel=1e-13), r
        # beyond r_1 the line integral takes over: it is the general path there, and continuous with
        # the line (gamma leaves it like (r - r_1)^(3/2) on a rectangle, by 1.5e-13 at this r), up
        # to the quadrature tolerance of the two integrals
        assert gamma(poly, r1 * (1.0 + 2.0**-20) / ell, quad) == pytest.approx(
            gamma_per_r(poly, r1 * (1.0 + 2.0**-20), quad), rel=1e-13
        )
        below, above = (gamma(poly, r1 * (1.0 + e) / ell, quad) for e in (-(2.0**-30), 2.0**-30))
        assert above == pytest.approx(below * (1.0 + 2.0**-30) / (1.0 - 2.0**-30), rel=quad.rel_tol)

    def test_small_s_costs_no_integral(self, monkeypatch):
        # up to r_1, gamma is (r/2) vertex_angle_sum, a closed form, whatever the QuadSpec
        rounds = _count_integrand_calls(monkeypatch)
        hexagon = ConvexPolygon(benchmark_polygons(1)[1].vertices)  # a fresh cache
        s1 = hexagon.first_breakpoint / hexagon.geometry.support_radius
        for s in (2.0**-8, 2.0**-20, [2.0**-32, 0.5 * s1, s1]):
            gamma(hexagon, s)
        gamma(hexagon, 2.0**-8, QuadSpec(rel_tol=1e-12))
        assert rounds == []

    def test_a_batch_beyond_the_first_breakpoint_costs_one_integral_per_s(self, monkeypatch):
        hexagon = benchmark_polygons(1)[1]
        s1 = hexagon.first_breakpoint / hexagon.geometry.support_radius
        far = np.linspace(1.01 * s1, 1.0, 7)
        rounds = _count_integrand_calls(monkeypatch)
        values = gamma(hexagon, np.concatenate([[0.5 * s1], far]))
        assert len(rounds) == len(far)
        ell = hexagon.geometry.support_radius
        np.testing.assert_allclose(values[1:], [gamma_per_r(hexagon, ell * s) for s in far], rtol=1e-12)


class TestGammaWeightedIntegral:
    def test_ball2(self, quad):
        value, _ = gamma_weighted_integral(UnitBall(2), quad)
        assert value == pytest.approx(math.pi * (math.pi - 4.0 * math.log(2.0)), abs=1e-8)

    def test_ball3(self, quad):
        value, _ = gamma_weighted_integral(UnitBall(3), quad)
        assert value == pytest.approx(2.0 * math.pi**2 / 3.0, abs=1e-8)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_ball_against_reference(self, d, quad):
        # Fubini on M_d(s)/s^2 with x = sin(p): int_0^1 gamma_B(2s)/s ds =
        # A_d w_{d-1} int_0^{pi/2} (1 - cos^{d-1} p)(1 - sin p) cos p / sin p dp
        a_d, w_dm1, _ = ball_constants(d)

        def f(p):
            cos, sin = np.cos(p), np.sin(p)
            return -np.expm1((d - 1) * np.log(cos)) * (1.0 - sin) * cos / sin

        want = a_d * w_dm1 * gauss_legendre(f, 0.0, 0.5 * math.pi, n=96)
        value, _ = gamma_weighted_integral(UnitBall(d), quad)
        assert value == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_ball_takes_one_quadrature_call(self, d, quad, monkeypatch):
        rounds = _count_integrand_calls(monkeypatch)
        gamma_weighted_integral(UnitBall(d), quad)
        assert len(rounds) == 1
        assert rounds[0] <= 8, rounds

    def test_divergent_integrand_raises(self, quad):
        class FlatGamma(UnitBall):
            # gamma(ell s) = 1 makes int_0^1 gamma/s ds diverge at 0
            def gamma(self, s, quad):
                return np.ones_like(s)

        with np.errstate(all="ignore"), pytest.raises(QuadratureError):
            gamma_weighted_integral(FlatGamma(2), quad)

    def test_square(self, quad):
        value, _ = gamma_weighted_integral(Rectangle(1.0, 1.0), quad)
        assert value == pytest.approx(SQUARE_GAMMA, abs=1e-8)


class TestSquareITerms:
    def test_closed_forms(self, quad):
        terms = square_I_terms(quad)
        assert terms[0] == pytest.approx(SQUARE_I0, abs=1e-8)
        assert terms[2] == pytest.approx(SQUARE_I2, abs=1e-8)

    def test_symmetries(self, quad):
        terms = square_I_terms(quad)
        for i in range(4):
            assert terms[i] == pytest.approx(terms[i + 4], abs=1e-8)

    def test_sum_matches_weighted_integral(self, quad):
        terms = square_I_terms(quad)
        value, _ = gamma_weighted_integral(Rectangle(1.0, 1.0), quad)
        assert sum(terms) == pytest.approx(value, abs=1e-8)


class TestSelfChecks:
    """The covariance facts of ``conftest.assert_covariance_facts``, on each kind of shape."""

    @pytest.mark.parametrize(
        "shape",
        [UnitBall(2), Rectangle(1.0, 1.0), TRIANGLE, Interval(0.0, 1.0), *benchmark_polygons(1),
         ConvexPolygon([(0.0, 0.0), (5.0, 0.0), (5.1, 0.2), (0.0, 0.1)]),
         ConvexPolygon([(math.cos(math.pi * k / 20), math.sin(math.pi * k / 20)) for k in range(40)])],
        ids=["ball2", "square", "triangle", "interval", "triangle-1", "hexagon-1", "rotrect-1", "thin", "40-gon"],
    )
    def test_all_pass(self, shape, quad):
        assert_covariance_facts(shape, quad, seed=123)

    @pytest.mark.parametrize("lam", [1e-6, 1e6])
    @pytest.mark.parametrize("kind", ["triangle", "square"])
    def test_scaled_copies_pass(self, kind, lam, quad):
        # probe radii and tolerances follow the diameter and the volume
        if kind == "triangle":
            shape = ConvexPolygon([(0.0, 0.0), (lam, 0.0), (0.0, lam)])
        else:
            shape = Rectangle(lam, lam)
        assert_covariance_facts(shape, quad, n_probes=50)
