"""Outputs pinned against recorded values and an independent reference.

The CSV files under ``data/`` were written by the sweep of the scalar-integrand
code this package replaced, except the R, residual and D columns of the
square's, which were written by the chord engine (the scalar code's R was
1.7e-11 off; ``test_square_R_from_closed_form_gamma`` checks the new values) and the
H, R, residual and D cells of the disc's, which were written by the chord pass over
the disc's line measure (the radial quadrature's H was up to 2.1e-12 off and its R
5.6e-12; ``test_ball2_H_against_reference`` and ``test_ball_R_from_closed_form_gamma``
check the new values, and ``test_ball3_H_against_reference`` the 3-ball's);
the polygon covariance is checked against half-plane clipping
(``conftest.clipped_intersection_area``) and Green's theorem
(``conftest.green_covariance``) on the polygons the benchmark generates.
"""

import csv
import io
import math
from pathlib import Path

import numpy as np
import pytest

from heatcov import covariance, kappa
from heatcov.cli import main

from conftest import (
    ball_gamma_oracle,
    benchmark_polygons,
    clipped_intersection_area,
    gauss_legendre,
    graded_gauss_legendre,
    green_covariance,
    square_gamma,
)

HERE = Path(__file__).resolve().parent


def _recorded(shape):
    with open(HERE / "data" / f"sweep-{shape}.csv", newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("shape", ["square", "ball2", "ball3"])
def test_sweep_matches_recorded_csv(shape, capsys):
    argv = ["sweep", "--shape", shape, "--t-min", "1e-4", "--t-max", "0.5", "--count", "5",
            "--format", "csv"]
    assert main(argv) == 0
    got = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    want = _recorded(shape)
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row_got, row_want in zip(got[1:], want[1:]):
        for column, a, b in zip(want[0], row_got, row_want):
            assert abs(float(a) - float(b)) <= 1e-13, (column, a, b)


def test_square_R_from_closed_form_gamma():
    # R(t) = ell^3 kappa_2 int_0^1 s^2 gamma(ell s) (t^2 + ell^2 s^2)^-3/2 ds on dyadic
    # panels, graded toward s = 1/sqrt(2), where gamma has a square-root kink
    ell, kink = 2.0 * math.sqrt(2.0), 1.0 / math.sqrt(2.0)
    rows = _recorded("square")
    header = rows[0]
    edges = sorted({2.0**-k for k in range(80) if 2.0**-k < kink}
                   | {kink + (f - kink) * 2.0**-k for k in range(60) for f in (kink / 2.0, 1.0)})
    for row in rows[1:]:
        t, want = float(row[header.index("t")]), float(row[header.index("R")])

        def f(s):
            return s * s * square_gamma(s) * (t * t + ell * ell * s * s) ** -1.5

        value = sum(gauss_legendre(f, a, b) for a, b in zip(edges, edges[1:]))
        assert abs(ell**3 * kappa(2) * value - want) <= 1e-13, (t, want)


def _ball_rows(shape):
    rows = _recorded(shape)
    header = rows[0]
    return [(float(row[header.index("t")]), float(row[header.index("H")]), float(row[header.index("R")]))
            for row in rows[1:]]


def test_ball2_H_against_reference():
    # H(t) = t int_0^2 r g(r) (t^2 + r^2)^-3/2 dr with g(r) = 2 acos(r/2) - (r/2) sqrt(4 - r^2),
    # on panels graded geometrically toward r = 0 from t and toward r = 2, where
    # g ~ (2 - r)^(3/2); every row of the sweep
    for t, want, _ in _ball_rows("ball2"):

        def f(r):
            g = 2.0 * np.arccos(r / 2.0) - 0.5 * r * np.sqrt(4.0 - r * r)
            return r * g * (t * t + r * r) ** -1.5

        value = t * graded_gauss_legendre(f, t)
        assert abs(value - want) <= 1e-13, (t, want, value)


def test_ball3_H_against_reference():
    # H(t) = (4/pi) t int_0^2 r^2 g(r) (t^2 + r^2)^-2 dr with g(r) = pi (4 + r)(2 - r)^2 / 12
    for t, want, _ in _ball_rows("ball3"):
        value = 4.0 / math.pi * t * graded_gauss_legendre(
            lambda r: r * r * math.pi * (4.0 + r) * (2.0 - r) ** 2 / 12.0 * (t * t + r * r) ** -2.0, t
        )
        assert abs(value - want) <= 1e-13, (t, want, value)


@pytest.mark.parametrize("shape, d", [("ball2", 2), ("ball3", 3)])
def test_ball_R_from_closed_form_gamma(shape, d):
    # R(t) = kappa_d int_0^2 r^d gamma(r) (t^2 + r^2)^-(d+1)/2 dr, gamma from the Gauss-Legendre
    # oracle of its closed form, on the panels of the H references
    for t, _, want in _ball_rows(shape):
        value = kappa(d) * graded_gauss_legendre(
            lambda r: r**d * ball_gamma_oracle(d, r / 2.0) * (t * t + r * r) ** (-(d + 1) / 2.0), t
        )
        assert abs(value - want) <= 1e-13, (t, want, value)


def _offsets(poly, rng):
    """Seeded points, edge-parallel offsets, vertex differences (on the support
    boundary, where opposite edges of a hexagon or rectangle share a line) and
    points beyond the support."""
    ell = poly.geometry.support_radius
    verts, edges = poly.vertex_array, poly.edge_directions
    ys = [rng.uniform(-ell, ell, (100, 2))]
    ys += [lam * edges for lam in (-1.0, -0.4, 0.0, 0.25, 0.7, 1.0)]
    corners = (verts[:, None, :] - verts[None, :, :]).reshape(-1, 2)
    ys += [corners, corners + 0.37 * edges[0]]
    angle = rng.uniform(0.0, 2.0 * np.pi, 20)
    radius = ell * rng.uniform(1.0, 1.5, 20)
    ys.append(radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)]))
    return np.concatenate(ys)


@pytest.mark.parametrize("seed", range(1, 21))
def test_polygon_covariance_matches_clipping(seed):
    rng = np.random.default_rng(seed)
    for poly in benchmark_polygons(seed):
        ys = _offsets(poly, rng)
        got = covariance(poly, ys)
        want = [clipped_intersection_area(poly.vertex_array, y) for y in ys]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(got, green_covariance(poly, ys), rtol=0.0, atol=1e-13)
