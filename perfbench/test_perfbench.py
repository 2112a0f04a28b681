"""Self-tests of the benchmark: seeded job generation, oracles, metric lists.

    python3 -m pytest -q perfbench

None of these tests runs a workload; they check the benchmark's own parts.
"""

import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402

SEEDS = range(1, 21)


def _signature(job_list):
    return Counter((j.op, j.name) for j in job_list)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_identical_jobs(workload):
    assert jobs.generate(workload, 7) == jobs.generate(workload, 7)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_other_seed_keeps_job_kinds_and_counts(workload):
    first = jobs.generate(workload, 1)
    for seed in (2, 3, 12345):
        other = jobs.generate(workload, seed)
        assert _signature(other) == _signature(first)
        assert other != first  # the inputs do move with the seed


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_names_are_unique_and_references_come_first(workload):
    seen = set()
    for job in jobs.generate(workload, 3):
        assert job.name not in seen
        assert job.ref is None or job.ref in seen
        seen.add(job.name)


def _interior_angles(verts):
    v = np.asarray(verts)
    out = []
    for i in range(len(v)):
        a, b = v[i - 1] - v[i], v[(i + 1) % len(v)] - v[i]
        out.append(math.acos(np.dot(a, b) / np.linalg.norm(a) / np.linalg.norm(b)))
    return out


def _width_ratio(verts):
    """Largest over smallest width of the polygon across 720 directions."""
    th = np.linspace(0.0, math.pi, 720, endpoint=False)
    proj = np.stack([np.cos(th), np.sin(th)], axis=1) @ np.asarray(verts).T
    w = proj.max(axis=1) - proj.min(axis=1)
    return w.max() / w.min()


def test_polygon_constraints_bound_the_cost_of_any_seed():
    for seed in SEEDS:
        for spec in jobs.polygon_shapes(random.Random(f"polygons:{seed}")):
            v = np.asarray(spec.params[0])
            edges = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
            angles = _interior_angles(v)
            assert oracles.polygon_area(v) > 0  # counterclockwise
            assert edges.min() >= 0.2 * oracles.polygon_diameter(v)
            assert min(angles) >= math.radians(40) and max(angles) <= math.radians(140)
            assert _width_ratio(v) <= 3.5
            # the polygon gamma oracle is certified for every generated shape
            assert oracles.polygon_gamma_slope(v, 2.0 ** -min(jobs.POLY_GAMMA_KS)) > 0


def test_rectangle_gamma_is_two_r_inside_its_linear_range():
    h1, h2 = 1.7, 0.4
    for r in (1e-9, 0.1, 0.8):
        assert oracles.rectangle_gamma(h1, h2, r) == pytest.approx(2.0 * r, rel=1e-14)
    # continuous across the first breakpoint r = 2 min(h1, h2)
    assert oracles.rectangle_gamma(h1, h2, 0.8 + 1e-9) == pytest.approx(1.6, rel=1e-8)


def test_rectangle_gamma_matches_the_unit_square_closed_form():
    # gamma_Q(2 sqrt2 s) from the square's sector split, for s > 1/sqrt2
    for s in (0.75, 0.9, 1.0):
        c = 1.0 / (math.sqrt(2.0) * s)
        t = math.acos(c)
        sector = (2.0 * (math.sin(t) + 1.0 - math.cos(t)) - math.sqrt(2.0) * t / s
                  + 2.0 * math.sqrt(2.0) * s * (0.25 - 0.5 * math.sin(t) ** 2))
        r = 2.0 * math.sqrt(2.0) * s
        assert oracles.rectangle_gamma(1.0, 1.0, r) == pytest.approx(8.0 * sector, rel=1e-12)


def test_polygon_oracles_reproduce_rectangle_and_triangle_closed_forms():
    h1, h2, angle = 1.3, 0.6, 0.4
    c, s = math.cos(angle), math.sin(angle)
    corners = [(-h1, -h2), (h1, -h2), (h1, h2), (-h1, h2)]
    rect = np.array([(c * x - s * y, s * x + c * y) for x, y in corners])
    rng = np.random.default_rng(0)
    for y in rng.uniform(-3.0, 3.0, size=(50, 2)):
        local = (c * y[0] + s * y[1], -s * y[0] + c * y[1])
        assert oracles.polygon_covariance(rect, y) == pytest.approx(
            oracles.rectangle_covariance(h1, h2, local), abs=1e-12)
    assert oracles.polygon_gamma_slope(rect, 2.0**-8) == pytest.approx(2.0, rel=1e-9)

    # triangle: g(r u) = |T| (1 - r V_u / (4 |T|))^2, so gamma(r) = r int V_u^2 / (16 |T|)
    tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.3, 0.9)])
    area = oracles.polygon_area(tri)
    th = np.linspace(0.0, 2.0 * math.pi, 200_001)
    u = np.stack([np.cos(th), np.sin(th)], axis=1)
    v2 = oracles._variation(tri, u) ** 2
    closed = float(np.sum(0.5 * (v2[1:] + v2[:-1]) * np.diff(th))) / (16.0 * area)
    assert oracles.polygon_gamma_slope(tri, 2.0**-8) == pytest.approx(closed, rel=1e-8)


def test_ball_oracles_match_closed_forms():
    for s in (1e-6, 0.1, 0.5):
        d2 = 2.0 * math.pi * (2.0 - math.sqrt(1.0 - s * s) - math.asin(s) / s)
        assert oracles.ball_gamma(2, s) == pytest.approx(d2, rel=1e-9, abs=1e-15)
        assert oracles.ball_gamma(3, s) == pytest.approx(4.0 / 3.0 * math.pi**2 * s * s, rel=1e-12)
    for r in (0.0, 0.7, 1.9):
        assert oracles.ball_covariance(3, r) == pytest.approx(math.pi * (4 + r) * (2 - r) ** 2 / 12)
        assert oracles.ball_covariance(2, r) == pytest.approx(
            2.0 * math.acos(r / 2) - 0.5 * r * math.sqrt(4 - r * r))


def test_tanh_deficit_recursion_and_interval_heat_content():
    assert oracles.tanh_deficit(3) == pytest.approx(-math.log(2.0) - 0.5)
    assert oracles.tanh_deficit(4) == pytest.approx(-1.0 - 1.0 / 3.0)
    assert oracles.interval_heat_content(2.0, 1e-12) == pytest.approx(2.0)
    # small t: |Omega| - H = (Per/pi) t ln(1/t) + C t + o(t), C = (2/pi)(1 + ln L)
    L, t = 2.0, 1e-7
    deficit = L - oracles.interval_heat_content(L, t)
    assert (deficit - 2.0 / math.pi * t * math.log(1.0 / t)) / t == pytest.approx(
        2.0 / math.pi * (1.0 + math.log(L)), rel=1e-5)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


def test_known_failures_cover_only_generated_jobs():
    import fnmatch

    known = json.loads((HERE / "known_failures.json").read_text())
    for workload in jobs.WORKLOADS:
        names = [j.name for j in jobs.generate(workload, 1)]
        for entry in known[workload]:
            assert any(fnmatch.fnmatchcase(n, entry["jobs"]) for n in names), entry


def test_tail_latency_leaves_ten_samples_beyond():
    value, pct = run.tail_latency(list(range(100)))
    assert value == 89 and sum(x > value for x in range(100)) == 10
    assert pct == pytest.approx(90.0)
