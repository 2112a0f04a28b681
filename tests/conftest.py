import importlib.util
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from heatcov import ConvexPolygon, QuadSpec, integrate_1d


@pytest.fixture(scope="session")
def quad():
    return QuadSpec()


def simpson(f, a, b, n=4096):
    """Composite Simpson rule: the independent fixed-grid oracle."""
    if n % 2:
        n += 1
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / n
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def gauss_legendre(f, a, b, n=48):
    """n-point Gauss-Legendre rule for a vectorised integrand: the smooth-integrand oracle."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return float(half * np.dot(w, f(0.5 * (a + b) + half * x)))


SQRT2 = math.sqrt(2.0)


def square_gamma(s):
    """gamma(2 sqrt(2) s) of the square [-1, 1]^2 in closed form, from the sector split;
    for s <= 1/sqrt(2), tstar = 0 and it is exactly the linear law 4 sqrt(2) s."""
    tstar = np.arccos(np.minimum(1.0, 1.0 / (SQRT2 * s)))
    st, ct = np.sin(tstar), np.cos(tstar)
    return 8.0 * (2.0 * (st + 1.0 - ct) - SQRT2 * tstar / s + 2.0 * SQRT2 * s * (0.25 - 0.5 * st * st))


def benchmark_polygons(seed: int) -> list:
    """The triangle, hexagon and rotated rectangle the benchmark generates for a seed,
    from perfbench/jobs.py loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    jobs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = jobs
    spec.loader.exec_module(jobs)
    return [ConvexPolygon(s.params[0]) for s in jobs.polygon_shapes(random.Random(f"polygons:{seed}"))]


def _clip_halfplane(poly: list, a: np.ndarray, b: np.ndarray) -> list:
    """Keep the part of poly on the left of the directed line a -> b."""
    out = []
    n = len(poly)
    d = b - a
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        sp = d[0] * (p[1] - a[1]) - d[1] * (p[0] - a[0])
        sq = d[0] * (q[1] - a[1]) - d[1] * (q[0] - a[0])
        if sp >= 0:
            out.append(p)
        if (sp > 0 > sq) or (sp < 0 < sq):
            t = sp / (sp - sq)
            out.append(p + t * (q - p))
    return out


def clipped_intersection_area(verts: np.ndarray, offset: np.ndarray) -> float:
    """Area of P and P + offset by half-plane clipping: the batched covariance's reference."""
    poly = [v.copy() for v in verts]
    shifted = verts + offset
    n = len(shifted)
    for i in range(n):
        poly = _clip_halfplane(poly, shifted[i], shifted[(i + 1) % n])
        if len(poly) < 3:
            return 0.0
    x, y = np.array(poly).T
    area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    return area if area > 1e-14 else 0.0


def first_breakpoint(poly) -> float:
    """r_1: the least distance from a vertex to an edge segment not incident to it.

    P and P + r u change combinatorial type only when a vertex of one crosses
    an edge of the other, so g is quadratic in r on [0, r_1] along every ray.
    """
    verts, edges = poly.vertex_array, poly.edge_directions
    n = len(verts)
    rel = verts[None, :, :] - verts[:, None, :]  # [j, i] = v_i - v_j
    foot = np.einsum("jik,jk->ji", rel, edges) / np.einsum("jk,jk->j", edges, edges)[:, None]
    dist = np.linalg.norm(rel - np.clip(foot, 0.0, 1.0)[..., None] * edges[:, None, :], axis=2)
    j, i = np.indices((n, n))
    return float(dist[(i != j) & (i != (j + 1) % n)].min())


def polar_reference(poly, f, seeds=()) -> float:
    """Integral over the plane, in polar coordinates up to the diameter, of f(r, g, V_u/2)
    where g(rs) maps radii to the Green's-theorem covariance at rs u: the reference for
    the chord-table integrals.

    Along a ray g is quadratic between the radii where the ray crosses a segment
    edge_j - v_i or v_i - edge_j (a vertex of one copy meets an edge of the
    other); those radii and ``seeds`` start the radial panels, and the
    directions of the vertex differences and edges start the angular ones.
    """
    verts, edges = poly.vertex_array, poly.edge_directions
    ell = poly.geometry.support_radius
    a = (verts[None, :, :] - verts[:, None, :]).reshape(-1, 2)
    d = np.tile(edges, (len(verts), 1))
    a, d = np.concatenate([a, -a]), np.concatenate([d, -d])
    spec = QuadSpec(abs_tol=1e-11, rel_tol=1e-11)

    def per_angle(thetas):
        out = np.empty(len(thetas))
        for k, theta in enumerate(thetas):
            u = np.array([math.cos(theta), math.sin(theta)])
            with np.errstate(divide="ignore", invalid="ignore"):
                den = u[0] * d[:, 1] - u[1] * d[:, 0]
                r = (a[:, 0] * d[:, 1] - a[:, 1] * d[:, 0]) / den
                s = (a[:, 0] * u[1] - a[:, 1] * u[0]) / den
            breaks = r[(0.0 <= s) & (s <= 1.0) & (r > 0.0) & (r < ell)]
            half_v = poly.directional_variation(u[None, :])[0] / 2.0
            out[k], _ = integrate_1d(
                lambda r: f(r, lambda rs: poly.covariance(rs[:, None] * u), half_v),
                0.0, ell, spec, points=[*breaks, *seeds],
            )
        return out

    dirs = np.concatenate([a, d])
    kinks = np.arctan2(dirs[:, 1], dirs[:, 0]) % (2.0 * math.pi)
    value, _ = integrate_1d(per_angle, 0.0, 2.0 * math.pi, spec, points=kinks.tolist())
    return value
