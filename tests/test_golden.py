"""Outputs pinned against recorded values and an independent reference.

The CSV files under ``data/`` were written by the sweep of the scalar-integrand
code this package replaced; the polygon covariance is checked against the
half-plane clipping it replaced (``conftest.clipped_intersection_area``) on the
polygons the benchmark generates.
"""

import csv
import importlib.util
import io
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from heatcov import ConvexPolygon
from heatcov.cli import main

from conftest import clipped_intersection_area

HERE = Path(__file__).resolve().parent


def _benchmark_jobs():
    """perfbench/jobs.py, the benchmark's seeded input generator, as a module."""
    path = HERE.parent / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("shape", ["square", "ball2", "ball3"])
def test_sweep_matches_recorded_csv(shape, capsys):
    argv = ["sweep", "--shape", shape, "--t-min", "1e-4", "--t-max", "0.5", "--count", "5",
            "--format", "csv"]
    assert main(argv) == 0
    got = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    with open(HERE / "data" / f"sweep-{shape}.csv", newline="") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row_got, row_want in zip(got[1:], want[1:]):
        for column, a, b in zip(want[0], row_got, row_want):
            assert abs(float(a) - float(b)) <= 1e-13, (column, a, b)


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
    for spec in _benchmark_jobs().polygon_shapes(random.Random(f"polygons:{seed}")):
        poly = ConvexPolygon(spec.params[0])
        ys = _offsets(poly, rng)
        want = [clipped_intersection_area(poly.vertex_array, y) for y in ys]
        np.testing.assert_allclose(poly.covariance(ys), want, rtol=0.0, atol=1e-13)
