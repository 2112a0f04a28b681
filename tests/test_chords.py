"""The chord-length engine of ``ConvexPolygon`` against independent references.

``conftest.polar_reference`` integrates the Green's-theorem covariance
(``conftest.green_covariance``) in polar coordinates, as the package computed
these quantities before the engine; the unit square's gamma and its weighted
integral have closed forms.
"""

import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from heatcov import (
    ConvexPolygon,
    QuadSpec,
    Rectangle,
    big_R,
    covariance,
    gamma,
    gamma_weighted_integral,
    heat_content,
)
from heatcov.shapes import support_radius_at

from conftest import (
    SQUARE_GAMMA,
    benchmark_polygons,
    covariance_integral,
    first_breakpoint,
    green_covariance,
    hull,
    polar_reference,
    run_python,
    square_gamma,
)

TRIANGLE = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
THIN_QUADRILATERAL = ConvexPolygon([(0.0, 0.0), (5.0, 0.0), (5.1, 0.2), (0.0, 0.1)])
FLAT_TRIANGLE = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (0.5, 1e-6)])
ULP = 2.0**-52
REFERENCE_SHAPES = [p for seed in (1, 2, 3) for p in benchmark_polygons(seed)] + [THIN_QUADRILATERAL]
REFERENCE_IDS = [f"{k}-{seed}" for seed in (1, 2, 3) for k in ("triangle", "hexagon", "rotrect")]


def _regular(n):
    return ConvexPolygon([(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)])


def _chord_covariance(poly, theta, r):
    """int (c - r)_+ dx from the chord table: c is linear between the offsets."""
    x, c = poly.chord_table([theta])
    w, lo, hi = np.diff(x[0]), np.minimum(c[0, :-1], c[0, 1:]), np.maximum(c[0, :-1], c[0, 1:])
    with np.errstate(divide="ignore", invalid="ignore"):  # a piece of zero width has lo = hi at a tie
        part = np.where(lo >= r, 0.5 * (lo + hi) - r, (hi - r) ** 2 / (2.0 * (hi - lo)))
        return float(np.sum(np.where(hi > r, w * part, 0.0)))


def _sorted_vertices(poly, thetas):
    """The vertex indices in the order of ``chord_table``'s offsets, from the same float offsets."""
    rel = poly.vertex_array - poly.vertex_array[0]
    off = rel[:, 1] * np.cos(thetas)[:, None] - rel[:, 0] * np.sin(thetas)[:, None]
    return np.argsort(off, axis=1, kind="stable")


def _exact_chords(poly, theta):
    """The chord through each vertex v, the length of {t : v + t u in P}, in exact rationals
    from the float vertices and the float cos theta, sin theta."""
    ux, uy = Fraction(float(np.cos(theta))), Fraction(float(np.sin(theta)))
    verts = [(Fraction(x), Fraction(y)) for x, y in poly.vertex_array.tolist()]
    chords = []
    for vx, vy in verts:
        lo, hi = [], []
        for (px, py), (qx, qy) in zip(verts, verts[1:] + verts[:1]):
            # inside edge pq: (q - p) x (v + t u - p) >= 0, a bound on t unless u is along pq
            ex, ey = qx - px, qy - py
            area, slope = ex * (vy - py) - ey * (vx - px), ex * uy - ey * ux
            if slope:
                (lo if slope > 0 else hi).append(-area / slope)
        chords.append(min(hi) - max(lo))
    return chords


class TestChordTable:
    def test_extreme_chords_are_exact(self):
        x, c = TRIANGLE.chord_table(np.linspace(0.1, 3.0, 30))
        assert np.all(np.diff(x, axis=1) >= 0.0)
        assert np.all(c[:, 0] == 0.0) and np.all(c[:, -1] == 0.0)
        # u along an edge: the extreme chords are the two parallel edges
        x, c = Rectangle(1.5, 0.5).chord_table([0.0])
        np.testing.assert_array_equal(x, [[0.0, 0.0, 1.0, 1.0]])
        np.testing.assert_array_equal(c, [[3.0] * 4])

    @pytest.mark.parametrize("poly", [FLAT_TRIANGLE, THIN_QUADRILATERAL], ids=["flat-triangle", "thin"])
    def test_thin_chords_to_the_last_bits(self, poly):
        # each chord is taken from the nearer end of the edge it meets, so it keeps its last bits
        # where heights measured from one vertex would cancel
        thetas = np.concatenate([np.linspace(0.0, math.pi, 150, endpoint=False),
                                 0.5 * math.pi + np.linspace(-1e-5, 1e-5, 50)])
        _, c = poly.chord_table(thetas)
        for theta, row, order in zip(thetas, c, _sorted_vertices(poly, thetas)):
            want = _exact_chords(poly, theta)
            for got, vertex in zip(row.tolist(), order.tolist()):
                assert abs(Fraction(got) - want[vertex]) <= 4 * ULP * want[vertex], (theta, vertex)

    @pytest.mark.parametrize(
        "poly", REFERENCE_SHAPES[:3] + [Rectangle(1.5, 0.5)], ids=REFERENCE_IDS[:3] + ["rectangle"]
    )
    def test_ties(self, poly):
        # on an order change two vertices share an offset: the merge must still pick each chord
        verts = poly.vertex_array
        i, j = np.triu_indices(len(verts), 1)
        exact = np.arctan2(*(verts[j] - verts[i]).T[::-1]) % math.pi  # unrounded: ties in the floats
        thetas = np.array([*poly._order_changes, *exact, 0.0, 0.5 * math.pi])
        x, c = poly.chord_table(thetas)
        assert np.all(np.diff(x, axis=1) >= 0.0)
        for theta, xs, row, order in zip(thetas, x, c, _sorted_vertices(poly, thetas)):
            for end, inner in ((0, 1), (-1, -2)):
                if xs[end] != xs[inner]:
                    assert row[end] == 0.0, theta
                else:  # u along the edge of the two extreme vertices
                    length = math.dist(verts[order[end]], verts[order[inner]])
                    assert row[end] == pytest.approx(length, rel=4 * ULP), theta
            longest = row.max()
            assert longest == support_radius_at(poly, theta)
            assert abs(Fraction(longest) - max(_exact_chords(poly, theta))) <= 4 * ULP * longest, theta
            u = np.array([[math.cos(theta), math.sin(theta)]])
            for r in longest * np.array([0.05, 0.5, 0.95]):
                assert _chord_covariance(poly, theta, r) == pytest.approx(
                    green_covariance(poly, r * u)[0], abs=1e-13 * poly.geometry.volume
                ), (theta, r)

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
    assert covariance_integral(poly, quad) == pytest.approx(
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


def _vertex_angle_sum_40_digits(poly):
    """The sum over the vertices b, between a and c, of 1 + (pi - alpha) cot alpha, alpha the
    angle between a - b and c - b, in 40-digit mpmath."""
    with mpmath.workdps(40):
        v = [tuple(map(mpmath.mpf, p)) for p in poly.vertices]
        total = mpmath.mpf(0)
        for a, b, c in zip(v[-1:] + v[:-1], v, v[1:] + v[:1]):
            (px, py), (qx, qy) = (a[0] - b[0], a[1] - b[1]), (c[0] - b[0], c[1] - b[1])
            alpha = mpmath.atan2(abs(px * qy - py * qx), px * qx + py * qy)
            total += 1 + (mpmath.pi - alpha) * mpmath.cot(alpha)
        return float(total)


@pytest.mark.parametrize(
    "poly", [*REFERENCE_SHAPES, FLAT_TRIANGLE, _regular(40), _regular(200)],
    ids=[*REFERENCE_IDS, "thin", "flat-triangle", "40-gon", "200-gon"],
)
def test_vertex_angle_sum_within_4_ulps(poly):
    # gamma(r) = (r/2) vertex_angle_sum up to r_1, with no quadrature
    want = _vertex_angle_sum_40_digits(poly)
    assert abs(poly.vertex_angle_sum - want) <= 4.0 * math.ulp(want)


class TestUnitSquare:
    def test_gamma_closed_form(self):
        s = np.concatenate([2.0 ** -np.arange(1, 41), np.linspace(0.05, 1.0, 39)])
        np.testing.assert_allclose(gamma(Rectangle(1.0, 1.0), s), square_gamma(s), rtol=1e-12)

    def test_gamma_is_exactly_two_r_up_to_r1(self):
        # every interior angle is pi/2, so vertex_angle_sum is 4 and gamma(r) = 2r, r = ell s
        square = Rectangle(1.0, 1.0)
        ell = square.geometry.support_radius
        s = np.concatenate([2.0 ** -np.arange(1, 60), np.linspace(0.01, 0.7, 50)])  # r_1 = 2 = 0.707 ell
        assert square.vertex_angle_sum == 4.0
        np.testing.assert_array_equal(gamma(square, s), 2.0 * ell * s)

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


def test_random_80gon_peaks_below_150_mb():
    # vertices at sorted uniform angles on a 2 x 0.5 ellipse: with each round's chord table
    # built whole, this H peaked at 555 MB; in chunks of at most _PAIR_ENTRIES entries it
    # peaks near 45 MB, with the same bits
    out = run_python(
        "import math, random, resource\n"
        "from heatcov import ConvexPolygon, heat_content\n"
        "rng = random.Random(5)\n"
        "angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(80))\n"
        "poly = ConvexPolygon([(2.0 * math.cos(a), 0.5 * math.sin(a)) for a in angles])\n"
        "print(heat_content(poly, 0.1).hex(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    h, kib = out.split()
    assert h == "0x1.261d1c5f83992p+1"
    assert int(kib) < 150 * 1024


def test_one_point_covariance_builds_no_pair_table():
    # the constructor stores what it measured, and the O(n) chain walk forms its own cross products
    poly = ConvexPolygon([(2.0 * math.cos(0.3 * k), 0.5 * math.sin(0.3 * k)) for k in range(20)])
    assert {"vertex_array", "edge_directions", "geometry"} <= vars(poly).keys()
    covariance(poly, [0.3, -0.2])
    assert "_diff" not in vars(poly)


def _cached_square_tables(poly) -> list:
    """The cached arrays of poly of at least n^2 entries, as the sorted names of their attributes,
    one name for each array."""
    n = len(poly.vertices)
    return sorted(name for name, value in vars(poly).items()
                  for a in (value if isinstance(value, tuple) else (value,))
                  if isinstance(a, np.ndarray) and a.size >= n * n)


@pytest.mark.parametrize("use, tables", [
    (lambda poly: poly.chord_table(np.linspace(0.0, math.pi, 7)), []),
    (lambda poly: heat_content(poly, 0.1), ["_diff", "_segments"]),
    (lambda poly: (poly.min_width, poly.first_breakpoint), ["_diff", "_segments"]),
], ids=["chord_table", "heat_content", "min_width-first_breakpoint"])
def test_one_vertex_pair_table(use, tables):
    # every n^2 table reads the one difference table and forms its cross products as it goes;
    # the chord table reads no n^2 table, and the feet of first_breakpoint are not cached beside
    # the distances that min_width, and so every H and R, reads
    poly = ConvexPolygon([(2.0 * math.cos(0.3 * k), 0.5 * math.sin(0.3 * k)) for k in range(20)])
    use(poly)
    assert _cached_square_tables(poly) == tables


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7: chord_table measures the offsets from vertex 0, so a cyclic shift moves R")
def test_a_cyclic_shift_of_the_vertices_moves_no_bit():
    # the hexagon of test_mc and a seeded random hull, from each of their vertices: R and the
    # weighted gamma integral of the hexagon each take two values over its shifts
    rng = random.Random(2)
    polygons = [[(1.0, 0.0), (0.5, 0.8), (-0.5, 0.8), (-1.0, 0.0), (-0.5, -0.8), (0.5, -0.8)],
                hull([(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)) for _ in range(12)])]
    counts = []
    for verts in polygons:
        outputs = set()
        for k in range(len(verts)):
            poly = ConvexPolygon(verts[k:] + verts[:k])
            values = heat_content(poly, 0.1), big_R(poly, 0.05), gamma(poly, 0.9), gamma_weighted_integral(poly)[0]
            outputs.add(tuple(float(v).hex() for v in values))
        counts.append(len(outputs))
    assert counts == [1, 1]


def test_random_2000gon_one_point_covariance_peaks_below_185_mb(tmp_path):
    # one `heatcov covariance` call on the 2 x 0.5 ellipse with 2000 vertices builds no (n, n, 2)
    # vertex-pair table: about 153 MB on a 2-core VM, where the walk reading that table peaked at
    # 208 MB; most of the rest is the constructor's table of the raw points (ROADMAP item 7)
    rng = random.Random(5)
    angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(2000))
    path = tmp_path / "gon2000.json"
    vertices = [[2.0 * math.cos(a), 0.5 * math.sin(a)] for a in angles]
    path.write_text(json.dumps({"kind": "polygon", "vertices": vertices}))
    out = run_python(
        "import resource\n"
        "from heatcov.cli import main\n"
        f"code = main(['covariance', '--shape-file', {str(path)!r}, '--point=0.3,-0.2'])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    g, code, kib = out.split()
    assert (g, code) == ("2.2937101487575053", "0")
    assert int(kib) < 185 * 1024


def test_random_2000gon_pair_table_peaks_below_410_mb():
    # the same ellipse with 2000 vertices: min_width and first_breakpoint read the one (n, n, 2)
    # vertex-pair table (the differences, 64 MB) and form their cross products as they read it,
    # and g at one point reads none; when every table built its own differences these peaked at
    # 502 MB, and with a cached cross table beside the differences at 326 MB, with the same bits;
    # now about 267 MB on a 2-core VM
    out = run_python(
        "import math, random, resource\n"
        "from heatcov import ConvexPolygon, covariance\n"
        "rng = random.Random(5)\n"
        "angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(2000))\n"
        "poly = ConvexPolygon([(2.0 * math.cos(a), 0.5 * math.sin(a)) for a in angles])\n"
        "print(covariance(poly, [0.3, -0.2]).hex(), poly.min_width.hex(), poly.first_breakpoint.hex(),\n"
        "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    *values, kib = out.split()
    assert values == ["0x1.25984b4db5591p+1", "0x1.ffffd0f55006ep-1", "0x1.58bb347138b6cp-19"]
    assert int(kib) < 300 * 1024


SLIVER = ConvexPolygon([(0.0, 0.0), (1.0, 1.0), (1.0 - 1e-4, 1.0)])


def test_min_width():
    assert Rectangle(1.0, 0.3).min_width == pytest.approx(0.6, rel=1e-15)
    assert TRIANGLE.min_width == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert SLIVER.min_width == pytest.approx(1e-4 * math.sqrt(0.5), rel=1e-9)


def _exact_min_width_squared(verts) -> Fraction:
    """min over edges pq of max over vertices v of ((v - p) x (q - p))^2 / |q - p|^2, exact in the float vertices."""
    v = [(Fraction(x), Fraction(y)) for x, y in verts]
    widths = []
    for (px, py), (qx, qy) in zip(v, v[1:] + v[:1]):
        ex, ey = qx - px, qy - py
        widths.append(max(((x - px) * ey - (y - py) * ex) ** 2 for x, y in v) / (ex * ex + ey * ey))
    return min(widths)


def test_min_width_of_random_hulls():
    # sorted uniform angles on rotated ellipses of aspect 1 down to 1e-6, n = 3..30; the float
    # cross products (v_i - v_j) x e_j round at a few ulps of diameter x edge, so the width is
    # held to 4 ulps of the diameter, not of itself: on a 1e-6 sliver that is 1e-10 of the width
    rng = np.random.default_rng(35)
    for _ in range(60):
        n, aspect, rot = int(rng.integers(3, 31)), 10.0 ** rng.uniform(-6.0, 0.0), rng.uniform(0.0, 2.0 * math.pi)
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        x, y = np.cos(angles), aspect * np.sin(angles)
        c, s = math.cos(rot), math.sin(rot)
        poly = ConvexPolygon(np.column_stack([x * c - y * s, x * s + y * c]))
        want = math.sqrt(_exact_min_width_squared(poly.vertex_array.tolist()))
        assert abs(poly.min_width - want) <= 4.0 * ULP * poly.geometry.support_radius, (n, aspect, want)


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

