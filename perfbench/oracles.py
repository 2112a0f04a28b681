"""Exact reference values that every benchmark job is checked against.

Nothing here calls into ``heatcov``: each value comes from a closed form,
from an exactly integrable piecewise-smooth formula evaluated with
Gauss-Legendre rules, or from a geometric construction that is independent
of the library's own algorithm (polygon intersection areas are built from
vertex-inclusion and edge-crossing points rather than half-plane clipping).
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)
SQRT2 = math.sqrt(2.0)

# Absolute tolerance of the gamma oracles: the scale of the library's own
# `gamma < -1e-8` guard.
GAMMA_ABS_TOL = 1e-8


class OracleError(RuntimeError):
    """The oracle cannot certify a reference value for this input."""


# ---------------------------------------------------------------------------
# Dimension constants
# ---------------------------------------------------------------------------

def tanh_deficit(d: int) -> float:
    """J_d by the recursion J_1 = -ln 2, J_2 = -1, J_d = J_{d-2} - 1/(d-1)."""
    j = [0.0, -LN2, -1.0]
    for k in range(3, d + 1):
        j.append(j[k - 2] - 1.0 / (k - 1))
    return j[d]


def kappa(d: int) -> float:
    return math.gamma((d + 1) / 2) / math.pi ** ((d + 1) / 2)


def ball_volume(d: int) -> float:
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def sphere_area(d: int) -> float:
    return d * ball_volume(d)


# ---------------------------------------------------------------------------
# Third-term constants and interval heat content
# ---------------------------------------------------------------------------

def closed_form_constant(spec) -> float | None:
    """The README's table of C_Omega, or None where no closed form is known."""
    if spec.kind == "ball" and spec.params[0] == 2:
        return 6.0 * LN2 - 2.0
    if spec.kind == "ball" and spec.params[0] == 3:
        return 4.0 * LN2
    if spec.kind == "rectangle" and spec.params == (1.0, 1.0):
        return 4.0 / math.pi * (2.0 * (SQRT2 - 1.0) + math.log(16.0 / (3.0 + 2.0 * SQRT2)))
    if spec.kind == "interval":
        return 2.0 / math.pi * (1.0 + math.log(spec.params[0]))
    return None


def interval_heat_content(length: float, t: float) -> float:
    """H(t) for (0, L): (2/pi) [L atan(L/t) - (t/2) ln(1 + L^2/t^2)]."""
    return 2.0 / math.pi * (
        length * math.atan(length / t) - 0.5 * t * math.log1p((length / t) ** 2)
    )


# ---------------------------------------------------------------------------
# Gauss-Legendre helper
# ---------------------------------------------------------------------------

_GL_CACHE: dict = {}


def _gauss(f, lo: float, hi: float, n: int = 32) -> float:
    """n-point Gauss-Legendre rule for a vectorised integrand on [lo, hi]."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    x, w = _GL_CACHE[n]
    half = 0.5 * (hi - lo)
    return float(half * np.dot(w, f(0.5 * (lo + hi) + half * x)))


# ---------------------------------------------------------------------------
# Unit ball: covariance and gamma
# ---------------------------------------------------------------------------

def ball_covariance(d: int, r: float) -> float:
    """g_B(r) = two caps of height 1 - r/2: 2 w_{d-1} int_0^{acos(r/2)} sin^d."""
    if r >= 2.0:
        return 0.0
    if d == 1:
        return 2.0 - r
    phi0 = math.acos(r / 2.0)
    return 2.0 * ball_volume(d - 1) * _gauss(lambda p: np.sin(p) ** d, 0.0, phi0, 48)


def ball_gamma(d: int, s: float) -> float:
    """gamma_B(2s) = A_d w_{d-1} (1/s) int_0^s [1 - (1-x^2)^((d-1)/2)] dx.

    Follows from V_u/2 = w_{d-1} and g_B(0) - g_B(2s) = 2 w_{d-1}
    int_0^s (1-x^2)^((d-1)/2) dx; the integrand is written with expm1 so
    that no cancellation occurs for small s.
    """
    m = 0.5 * (d - 1)
    inner = _gauss(lambda x: -np.expm1(m * np.log1p(-x * x)), 0.0, s, 32)
    return sphere_area(d) * ball_volume(d - 1) * inner / s


# ---------------------------------------------------------------------------
# Rectangles (axis-aligned, or rotated and given as polygons)
# ---------------------------------------------------------------------------

def rectangle_covariance(h1: float, h2: float, y) -> float:
    """g(y) for [-h1, h1] x [-h2, h2], with y in the rectangle's own frame."""
    return max(0.0, 2.0 * h1 - abs(y[0])) * max(0.0, 2.0 * h2 - abs(y[1]))


def rectangle_gamma(h1: float, h2: float, r: float) -> float:
    """gamma(r) for [-h1, h1] x [-h2, h2], in closed form for 0 < r <= diameter.

    In the first quadrant the deficit V_u/2 - (g(0) - g(r u))/r equals
    r cos(th) sin(th) where both covariance factors are positive, and
    2 (h2 cos + h1 sin) - 4 h1 h2 / r where one of them vanishes (th below
    acos(2 h1 / r) or above asin(2 h2 / r)).  Integrating the three pieces
    and multiplying by the four quadrants gives gamma; for r <= 2 min(h1, h2)
    it reduces to 2 r.
    """
    a = math.acos(min(1.0, 2.0 * h1 / r))
    b = math.asin(min(1.0, 2.0 * h2 / r))
    mid = 0.5 * r * (math.sin(b) ** 2 - math.sin(a) ** 2)
    low = 2.0 * (h2 * math.sin(a) + h1 * (1.0 - math.cos(a))) - 4.0 * h1 * h2 * a / r
    high = (
        2.0 * (h2 * (1.0 - math.sin(b)) + h1 * math.cos(b))
        - 4.0 * h1 * h2 * (0.5 * math.pi - b) / r
    )
    return 4.0 * (low + mid + high)


# ---------------------------------------------------------------------------
# Convex polygons
# ---------------------------------------------------------------------------

def polygon_area(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_diameter(verts: np.ndarray) -> float:
    diffs = verts[:, None, :] - verts[None, :, :]
    return float(np.sqrt((diffs**2).sum(axis=2)).max())


def _inside(poly: np.ndarray, pts: np.ndarray, tol: float) -> np.ndarray:
    """Which of pts lie in the CCW convex polygon poly (boundary included)."""
    edges = np.roll(poly, -1, axis=0) - poly
    cross = edges[None, :, 0] * (pts[:, None, 1] - poly[None, :, 1]) - edges[None, :, 1] * (
        pts[:, None, 0] - poly[None, :, 0]
    )
    return np.all(cross >= -tol, axis=1)


def _edge_crossings(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Points where an edge of p properly crosses an edge of q."""
    dp = np.roll(p, -1, axis=0) - p
    dq = np.roll(q, -1, axis=0) - q
    denom = dp[:, None, 0] * dq[None, :, 1] - dp[:, None, 1] * dq[None, :, 0]
    diff = q[None, :, :] - p[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (diff[..., 0] * dq[None, :, 1] - diff[..., 1] * dq[None, :, 0]) / denom
        u = (diff[..., 0] * dp[:, None, 1] - diff[..., 1] * dp[:, None, 0]) / denom
    i, j = np.nonzero((denom != 0.0) & (s >= 0.0) & (s <= 1.0) & (u >= 0.0) & (u <= 1.0))
    return p[i] + s[i, j, None] * dp[i]


def convex_intersection_area(p: np.ndarray, q: np.ndarray) -> float:
    """Area of the intersection of two CCW convex polygons.

    The intersection is the convex hull of the vertices of each polygon that
    lie in the other and of the edge crossings; its area follows from the
    shoelace formula after sorting those points by angle about their mean.
    """
    scale = max(float(np.abs(p).max()), float(np.abs(q).max()), 1.0)
    tol = 1e-12 * scale * scale
    pts = np.concatenate([p[_inside(q, p, tol)], q[_inside(p, q, tol)], _edge_crossings(p, q)])
    if len(pts) < 3:
        return 0.0
    c = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))
    return max(0.0, polygon_area(pts[order]))


def polygon_covariance(verts: np.ndarray, y) -> float:
    return convex_intersection_area(verts, verts + np.asarray(y, dtype=float))


def _variation(verts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """V_u for unit vectors u (rows): twice the width of the shadow on u-perp."""
    perp = np.stack([-u[:, 1], u[:, 0]], axis=1)
    proj = perp @ verts.T
    return 2.0 * (proj.max(axis=1) - proj.min(axis=1))


def _edge_angles(verts: np.ndarray) -> list:
    edges = np.roll(verts, -1, axis=0) - verts
    angles = set()
    for e in edges:
        a = math.atan2(e[1], e[0]) % (2.0 * math.pi)
        angles.add(a)
        angles.add((a + math.pi) % (2.0 * math.pi))
    return sorted(angles | {0.0, 2.0 * math.pi})


def _quadratic_coefficient_integral(verts: np.ndarray, r: float, nodes: int = 24) -> float:
    """int over the circle of q(u) = (g(r u) - |P| + r V_u / 2) / r^2."""
    area = polygon_area(verts)
    cuts = _edge_angles(verts)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-14:
            continue

        def q(theta):
            u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            g = np.array([polygon_covariance(verts, r * ui) for ui in u])
            return (g - area + 0.5 * r * _variation(verts, u)) / (r * r)

        total += _gauss(q, lo, hi, nodes)
    return total


def polygon_gamma_slope(verts: np.ndarray, s_max: float) -> float:
    """Q with gamma(ell s) = ell s Q for every s <= s_max.

    Along each ray the covariance of a convex polygon is quadratic in r up
    to its first breakpoint, g(r u) = |P| - r V_u / 2 + r^2 q(u), so the
    deficit integrand is exactly r q(u) and gamma(r) = r * int q.  The
    integral is taken at r = ell * s_max and again at an eighth of it; the
    two must agree, which certifies that r = ell * s_max is still inside the
    quadratic range in every direction.
    """
    ell = polygon_diameter(verts)
    q_ref = _quadratic_coefficient_integral(verts, ell * s_max)
    q_small = _quadratic_coefficient_integral(verts, ell * s_max / 8.0)
    if abs(q_ref - q_small) > 1e-7 * max(1.0, abs(q_ref)):
        raise OracleError(f"s_max={s_max} is past the first covariance breakpoint")
    return q_ref


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def within_sigma(mean: float, stderr: float, reference: float, k: float = 5.0) -> bool:
    """MC estimate within k standard errors of the reference value."""
    if stderr == 0.0:
        return abs(mean - reference) <= 1e-12 * max(1.0, abs(reference))
    return abs(mean - reference) <= k * stderr
