import functools
import importlib.util
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

import heatcov
from heatcov import (
    Ball,
    ConvexPolygon,
    Interval,
    QuadSpec,
    Rectangle,
    UnitBall,
    covariance,
    directional_variation,
    gamma_weighted_integral,
    integrate_1d,
    kappa,
    unit_ball_volume,
)
from heatcov.asymptotics import phi_over_t
from heatcov.errors import DomainError, InvalidShapeError
from heatcov.kernel import _check_dim, _check_t
from heatcov.shapes import _PAIR_ENTRIES, WORK_ROWS, _boundary_terms


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


def run_python(code: str) -> str:
    """The stdout of code run by a fresh interpreter that imports this tree's heatcov."""
    path = [str(Path(heatcov.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def poisson_kernel(d: int, t: float, x) -> float:
    """p_t(x) = kappa_d * t / (t^2 + |x|^2)^((d+1)/2)."""
    d = _check_dim(d)
    t = _check_t(t)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (d,):
        raise DomainError(f"x must be a vector of length {d}, got shape {x.shape}")
    return kappa(d) * t / (t * t + float(np.dot(x, x))) ** ((d + 1) / 2)


def phi(shape, t: float) -> float:
    """phi(t): kernel mass beyond the support radius."""
    return phi_over_t(shape, t) * t


def R_limit(shape, quad=QuadSpec()) -> float:
    """lim R(t) as t -> 0: kappa_d times the integral over (0, 1] of gamma(ell s)/s."""
    return kappa(shape.dim) * gamma_weighted_integral(shape, quad)[0]


def perimeter_from_variations(shape, quad=QuadSpec()) -> float:
    """Per from the spherical mean of the directional variations.

    V_u/2 is the volume of the shadow of the shape on u^perp, the measure of the lines in
    direction u that meet it, so Cauchy's formula, int V_u/2 dsigma(u) = w_(d-1) Per, is
    the line integral of k = 1 over w_(d-1) (w_0 = 1), in every dimension.
    """
    value = shape.line_integral(lambda lo, hi: np.ones_like(lo), quad)[0]
    return value / (unit_ball_volume(shape.dim - 1) if shape.dim > 1 else 1.0)


def gauss_legendre(f, a, b, n=48):
    """n-point Gauss-Legendre rule for a vectorised integrand: the smooth-integrand oracle."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return float(half * np.dot(w, f(0.5 * (a + b) + half * x)))


def gauss_legendre_each(f, a, b, n=48):
    """gauss_legendre on [a_i, b_i] for each element of the broadcast arrays a and b."""
    x, w = np.polynomial.legendre.leggauss(n)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    half = 0.5 * (b - a)
    return half * (f((0.5 * (a + b))[..., None] + half[..., None] * x) @ w)


def graded_gauss_legendre(f, t, n=48):
    """int_0^2 f on panels graded geometrically toward r = 0 from t and toward r = 2, where a
    ball's covariance and gamma vanish like a power of 2 - r."""
    edges = np.array(sorted({0.0, 2.0} | {t * 2.0**k for k in range(-60, 60) if t * 2.0**k < 1.0}
                            | {2.0 - 2.0**-k for k in range(60)}))
    return float(np.sum(gauss_legendre_each(f, edges[:-1], edges[1:], n)))


def ball_constants(d):
    """(A_d, w_{d-1}, kappa_d) from math.gamma, independent of heatcov.kernel."""
    a_d = 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)
    kappa = math.gamma((d + 1) / 2) / math.pi ** ((d + 1) / 2)
    return a_d, math.pi ** ((d - 1) / 2) / math.gamma((d + 1) / 2), kappa


def ball_gamma_oracle(d, s):
    """gamma_B(2s) = A_d w_{d-1} / s * int_0^s [1 - (1-x^2)^((d-1)/2)] dx, with x = sin(p),
    at a float or at each element of an array s."""
    a_d, w_dm1, _ = ball_constants(d)
    m = 0.5 * (d - 1)
    inner = gauss_legendre_each(
        lambda p: -np.expm1(m * np.log1p(-np.sin(p) ** 2)) * np.cos(p), 0.0, np.arcsin(s)
    )
    return a_d * w_dm1 * inner / s


def ball_covariance_oracle(d, r):
    """g_B(r) = two caps of height 1 - r/2 = 2 w_{d-1} int_{asin(r/2)}^{pi/2} cos^d, at a float
    or at each element of an array r."""
    _, w_dm1, _ = ball_constants(d)
    return 2.0 * w_dm1 * gauss_legendre_each(lambda p: np.cos(p) ** d, np.arcsin(r / 2.0), 0.5 * math.pi)


def ball_reference(d, t):
    """(H(t), R(t)) of the unit ball in R^d, d >= 2, by graded Gauss-Legendre over r of the
    radial forms A_d kappa_d t int r^(d-1) g_B(r) (t^2 + r^2)^-(d+1)/2 and
    kappa_d int r^d gamma_B(r) (t^2 + r^2)^-(d+1)/2, with the oracles above."""
    a_d, _, kappa = ball_constants(d)
    h = graded_gauss_legendre(lambda r: r ** (d - 1) * ball_covariance_oracle(d, r) * (t * t + r * r) ** (-(d + 1) / 2), t)
    r = graded_gauss_legendre(lambda r: r**d * ball_gamma_oracle(d, r / 2.0) * (t * t + r * r) ** (-(d + 1) / 2), t)
    return a_d * kappa * t * h, kappa * r


def ball_constant(d):
    """C of the unit ball in R^d in closed form: C = (Per/pi)(1 + ln 2 + J_d) + kappa_d Lambda,
    Lambda = A_d [w_(d-1) ln 2 - A_(d-1) (psi((d+1)/2) - psi(1)) / (2 (d-1))], with the
    digamma difference a harmonic sum (plus -2 ln 2 at half-integers) and J_d by its recursion."""
    a_d, w_dm1, kap = ball_constants(d)
    a_dm1 = (d - 1) * w_dm1
    m = (d + 1) // 2
    if d % 2:
        digamma = sum(1.0 / k for k in range(1, m))
    else:
        digamma = -2.0 * math.log(2.0) + sum(2.0 / (2 * k - 1) for k in range(1, d // 2 + 1))
    j = [0.0, -math.log(2.0), -1.0]
    for k in range(3, d + 1):
        j.append(j[k - 2] - 1.0 / (k - 1))
    lam = a_d * (w_dm1 * math.log(2.0) - a_dm1 * digamma / (2.0 * (d - 1)))
    return a_d / math.pi * (1.0 + math.log(2.0) + j[d]) + kap * lam


def ball_gamma_integral(d):
    """int_0^1 gamma_B(2s)/s ds, as int_0^(pi/2) gamma_B(2 sin q) cot q dq, smooth in q, by
    Gauss-Legendre with ``ball_gamma_oracle``."""
    return gauss_legendre(lambda q: ball_gamma_oracle(d, np.sin(q)) / np.tan(q), 0.0, 0.5 * math.pi)


SQRT2 = math.sqrt(2.0)

# the paper's closed forms: C of the disc, the 3-ball and the square [-1, 1]^2, and the
# square's int_0^1 gamma(ell s)/s ds
BALL2_C = 6.0 * math.log(2.0) - 2.0
BALL3_C = 4.0 * math.log(2.0)
SQUARE_C = 4.0 / math.pi * (2.0 * (SQRT2 - 1.0) + math.log(16.0 / (3.0 + 2.0 * SQRT2)))
SQUARE_GAMMA = 2.0 * SQRT2 * (math.pi - 8.0) + 8.0 * math.log(2.0 * (3.0 + 2.0 * SQRT2))


def square_gamma(s):
    """gamma(2 sqrt(2) s) of the square [-1, 1]^2 in closed form, from the sector split;
    for s <= 1/sqrt(2), tstar = 0 and it is exactly the linear law 4 sqrt(2) s."""
    tstar = np.arccos(np.minimum(1.0, 1.0 / (SQRT2 * s)))
    st, ct = np.sin(tstar), np.cos(tstar)
    return 8.0 * (2.0 * (st + 1.0 - ct) - SQRT2 * tstar / s + 2.0 * SQRT2 * s * (0.25 - 0.5 * st * st))


def _eta(i: int, theta: np.ndarray) -> np.ndarray:
    if i in (0, 3, 4, 7):
        return 2.0 / np.abs(np.cos(theta))
    return 2.0 / np.abs(np.sin(theta))


def square_I_terms(quad: QuadSpec = QuadSpec()) -> list:
    """The eight sector integrals of the paper's square derivation, whose sum is the
    square's gamma integral."""
    terms = []
    for i in range(8):
        lo, hi = math.pi / 4.0 * i, math.pi / 4.0 * (i + 1)

        def integrand(theta, _i=i):
            eta = _eta(_i, theta)
            ac, as_ = np.abs(np.cos(theta)), np.abs(np.sin(theta))
            return (
                ac * as_ * eta
                + 2.0 * (ac + as_) * np.log(2.0 * SQRT2 / eta)
                + SQRT2 * (1.0 - 2.0 * SQRT2 / eta)
            )

        val, _ = integrate_1d(integrand, lo, hi, quad)
        terms.append(val)
    return terms


# the closed forms of the sector integrals I_0 and I_2
SQUARE_I0 = 2.0 * math.log(2.0 + SQRT2) + SQRT2 / 4.0 * (math.pi - 8.0)
SQUARE_I2 = (
    2.0 * math.log(2.0) - 2.0 * math.log(2.0 + SQRT2) + 4.0 * math.log(SQRT2 + 1.0)
    + SQRT2 / 4.0 * (math.pi - 8.0)
)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@functools.lru_cache(maxsize=None)
def perfbench_module(name: str):
    """perfbench/<name>.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def benchmark_polygons(seed: int) -> list:
    """The triangle, hexagon and rotated rectangle the benchmark generates for a seed."""
    jobs = perfbench_module("jobs")
    return [ConvexPolygon(s.params[0]) for s in jobs.polygon_shapes(random.Random(f"polygons:{seed}"))]


def benchmark_radial_shapes(seed: int) -> list:
    """The balls d = 1..16 and the three intervals of the benchmark's radial workload for a seed."""
    jobs = perfbench_module("jobs").generate("radial", seed)
    specs = dict.fromkeys(job.shape for job in jobs if job.op == "third_term")
    return [UnitBall(s.params[0]) if s.kind == "ball" else Interval(0.0, s.params[0]) for s in specs]


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


def area_left_of(verts: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Area of the part of the polygon on the left of the directed line a -> b."""
    poly = _clip_halfplane([v.copy() for v in verts], a, b)
    if len(poly) < 3:
        return 0.0
    x, y = np.array(poly).T
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def clipped_intersection_area(verts: np.ndarray, offset: np.ndarray) -> float:
    """Area of P and P + offset by half-plane clipping: a reference for the polygon covariance."""
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


def hull(pts):
    """Convex hull, counterclockwise, by the monotone chain."""
    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1]) <= (
                out[-1][1] - out[-2][1]
            ) * (p[0] - out[-2][0]):
                out.pop()
            out.append(p)
        return out[:-1]

    pts = sorted(set(pts))
    return half(pts) + half(pts[::-1])


@st.composite
def convex_polygons(draw, log_scale=6.0):
    """The hull of 3-40 points: a triangle inscribed in the unit circle and up to 37
    points at radius 1/2 to 1, squeezed by an aspect ratio down to 1e-3, rotated, and
    scaled and moved by lambda in [10^-log_scale, 10^log_scale]."""
    polar = [(0.0, 1.0), (2.0 * math.pi / 3.0, 1.0), (4.0 * math.pi / 3.0, 1.0)]
    polar += draw(st.lists(st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.5, 1.0)), max_size=37))
    aspect, angle = 10.0 ** draw(st.floats(-3.0, 0.0)), draw(st.floats(0.0, math.pi))
    lam = 10.0 ** draw(st.floats(-log_scale, log_scale))
    mx, my = draw(st.tuples(st.floats(-5, 5), st.floats(-5, 5)))
    c, s = math.cos(angle), math.sin(angle)
    pts = [(rho * math.cos(phi), aspect * rho * math.sin(phi)) for phi, rho in polar]
    pts = [(lam * (c * x - s * y + mx), lam * (s * x + c * y + my)) for x, y in pts]
    try:
        return ConvexPolygon(hull(pts))
    except InvalidShapeError:  # two hull points closer than 1e-12 diameters
        assume(False)


def exact_intersection_area(verts, offset) -> float:
    """Area of P and P + offset by half-plane clipping in rational arithmetic: exact
    for the float inputs, up to the final rounding."""
    to_exact = np.vectorize(Fraction, otypes=[object])
    verts, offset = to_exact(np.asarray(verts, dtype=float)), to_exact(np.asarray(offset, dtype=float))
    poly, shifted = list(verts), verts + offset
    n = len(shifted)
    for i in range(n):
        poly = _clip_halfplane(poly, shifted[i], shifted[(i + 1) % n])
        if len(poly) < 3:
            return 0.0
    return float(sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(poly, poly[1:] + poly[:1])) / 2)


@functools.lru_cache(maxsize=16)
def _pair_tables(poly):
    """Per edge pair [i, j]: v_j - v_i, e_j x e_i, which pairs are parallel and which of
    those point the same way, and per edge the tie rules of ``green_covariance``."""
    verts, edges = poly.vertex_array, poly.edge_directions
    diff = verts[None, :, :] - verts[:, None, :]
    den = edges[None, :, 0] * edges[:, None, 1] - edges[None, :, 1] * edges[:, None, 0]
    lengths = np.linalg.norm(edges, axis=1)
    par = np.abs(den) <= 1e-13 * lengths[:, None] * lengths  # sin(angle) <= 1e-13
    same = edges @ edges.T > 0.0
    tau = np.where(edges[:, 1] != 0.0, edges[:, 1], -edges[:, 0])
    return (diff[..., 0], diff[..., 1], np.where(par, 1.0, den), ~par & (den > 0.0),
            ~par & (den < 0.0), par, same, tau > 0.0, tau < 0.0, _boundary_terms(verts))


def green_covariance(poly, ys) -> np.ndarray:
    """Area of P and P + y for each row y of an (m, 2) array, by Green's theorem in
    coordinates relative to vertex 0: the reference for the chord-walk covariance.

    Each edge of either copy counts the part inside the other copy, a
    Cyrus-Beck parameter interval; a piece a + t e, t in [t0, t1], adds
    (t1 - t0) (a x e) / 2.  Edge i of P and edge j of P + y on parallel
    lines are both decided by h = e_i x (v_j + y - v_i), so opposite edges
    on one line count together and cancel.  Where h = 0 the copy is taken
    as shifted by (eps, eps^2): with tau(e) = e_y, or -e_x where e_y = 0,
    a shared edge e counts once, for P if tau(e) > 0 and for P + y if not.
    """
    ys = np.asarray(ys, dtype=float).reshape(-1, 2)
    dx, dy, den, pos, neg, par, same, tie_p, tie_q, c = _pair_tables(poly)
    ex, ey = poly.edge_directions[:, 0], poly.edge_directions[:, 1]
    out = np.empty(len(ys))
    step = max(1, _PAIR_ENTRIES // len(ex) ** 2)
    for k in range(0, len(ys), step):
        y = ys[k : k + step]
        big_x, big_y = dx + y[:, :1, None], dy + y[:, 1:, None]  # [m, i, j] = v_j + y - v_i
        r_p = (ex * big_y - ey * big_x) / den  # (e_j x D) / (e_j x e_i), bounds on edge i of P
        h = ex[:, None] * big_y - ey[:, None] * big_x  # e_i x D: P + y is inside edge i's line
        r_q = h / den  # bounds on edge j of P + y
        len_p = np.where(neg, r_p, 1.0).min(axis=2) - np.where(pos, r_p, 0.0).max(axis=2)
        len_q = np.where(pos, r_q, 1.0).min(axis=1) - np.where(neg, r_q, 0.0).max(axis=1)
        out_q = (h < 0.0) | ((h == 0.0) & ~tie_q[:, None])  # where the lines are parallel
        out_p = np.where(same, (h > 0.0) | ((h == 0.0) & ~tie_p), out_q)
        len_p = np.where((par & out_p).any(axis=2), 0.0, np.maximum(len_p, 0.0))
        len_q = np.where((par & out_q).any(axis=1), 0.0, np.maximum(len_q, 0.0))
        y_cross_e = y[:, :1] * ey - y[:, 1:] * ex
        out[k : k + step] = 0.5 * np.sum(len_p * c + len_q * (c + y_cross_e), axis=1)
    return np.where(out > 1e-14 * poly.geometry.volume, out, 0.0)


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


def gamma_per_r(poly, r, quad=QuadSpec()) -> float:
    """gamma(r) = r int int m_r(c) as one theta-integral of its own, m_r the mean of
    (r - c)_+ / r^2 over a piece: the general path, at any r, that the polygon gamma takes
    in one pass.

    The panels are seeded where a chord through a vertex has length r: where the circle
    of radius r crosses a segment edge_j - v_i, at t = foot -+ sqrt(r^2 - h^2)/|e_j| on
    it, h the distance of its line, which keeps its digits where a segment passes just
    outside the circle (on a thin polygon).
    """
    verts, edges = poly.vertex_array, poly.edge_directions
    a = (verts[None, :, :] - verts[:, None, :]).reshape(-1, 2)
    d = np.tile(edges, (len(verts), 1))
    dd = np.sum(d * d, axis=1)
    foot, h = -np.sum(a * d, axis=1) / dd, np.abs(a[:, 0] * d[:, 1] - a[:, 1] * d[:, 0]) / np.sqrt(dd)
    half = np.sqrt(np.maximum((r - h) * (r + h), 0.0) / dd)
    seeds = []
    for t in (foot - half, foot + half):
        p = (a + t[:, None] * d)[(r >= h) & (0.0 <= t) & (t <= 1.0)]
        seeds += (np.arctan2(p[:, 1], p[:, 0]) % math.pi).tolist()

    def mean(lo, hi):
        part = ((r - lo) / r) ** 2 / (2.0 * (hi - lo))
        return np.where(hi <= r, (1.0 - (lo + hi) / (2.0 * r)) / r, np.where(lo < r, part, 0.0))

    value, _ = poly.line_integral(mean, quad, seeds=seeds)
    return r * value


def covariance_integral(shape, quad=QuadSpec()) -> float:
    """int g = |Omega|^2 as the line integral of c^(d+1) / (d (d+1)), whose mean over a piece
    is a sum of lo^i hi^(d+1-i)."""
    d = shape.dim
    value, _ = shape.line_integral(
        lambda lo, hi: sum(lo**i * hi ** (d + 1 - i) for i in range(d + 2)) / ((d + 2) * d * (d + 1)), quad
    )
    return value


def assert_covariance_facts(shape, quad, seed=0, n_probes=200):
    """The facts about g that the expansion rests on, at seeded random probes: 0 <= g <= g(0)
    = |Omega|, g(-y) = g(y), int g = |Omega|^2, g = 0 beyond the diameter ell, and
    (g(0) - g(r u))/r -> V_u/2.  Probe radii follow ell and tolerances |Omega| (or V_u), so
    a scaled copy passes when the shape does."""
    rng = np.random.default_rng(seed)
    geo = shape.geometry
    vol, ell, d = geo.volume, geo.support_radius, geo.dim
    ys = rng.uniform(-1.2, 1.2, (n_probes, d)) * ell
    g = covariance(shape, ys)
    assert np.all((-1e-12 * vol <= g) & (g <= vol * (1.0 + 1e-9))), "0 <= g <= g(0)"
    np.testing.assert_allclose(covariance(shape, -ys), g, rtol=0.0, atol=1e-9 * vol, err_msg="g(-y) = g(y)")
    g0 = covariance(shape, np.zeros(d))
    assert abs(g0 - vol) < 1e-10 * vol, f"g(0) = {g0}, |Omega| = {vol}"
    assert covariance_integral(shape, quad) == pytest.approx(vol * vol, rel=1e-6), "int g = |Omega|^2"
    us = rng.standard_normal((n_probes, d))
    us /= np.linalg.norm(us, axis=1)[:, None]
    assert np.all(covariance(shape, us * ell * rng.uniform(1.0, 3.0, (n_probes, 1))) == 0.0), "g = 0 beyond ell"
    # difference quotients at r = 1e-4 ell and 1e-5 ell approach V_u/2
    q4, q5 = ((g0 - covariance(shape, r * us[:10])) / r for r in (1e-4 * ell, 1e-5 * ell))
    np.testing.assert_allclose(q4, q5, rtol=1e-2, err_msg="(g(0) - g(r u))/r converges")
    np.testing.assert_allclose(q5, directional_variation(shape, us[:10]) / 2.0, rtol=1e-2, err_msg="slope V_u/2")


def polar_reference(poly, f, seeds=()) -> float:
    """Integral over the plane, in polar coordinates up to the diameter, of f(r, g, V_u/2)
    where g(rs) maps radii to the Green's-theorem covariance at rs u (``green_covariance``):
    the reference for the chord-table integrals.

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
                lambda r: f(r, lambda rs: green_covariance(poly, rs[:, None] * u), half_v),
                0.0, ell, spec, points=[*breaks, *seeds],
            )
        return out

    dirs = np.concatenate([a, d])
    kinks = np.arctan2(dirs[:, 1], dirs[:, 0]) % (2.0 * math.pi)
    value, _ = integrate_1d(per_angle, 0.0, 2.0 * math.pi, spec, points=kinks.tolist())
    return value


# ---------------------------------------------------------------------------
# Reference Monte Carlo blocks: the point sets and the ratio of normals that
# the uniform-only blocks of heatcov replaced
# ---------------------------------------------------------------------------

def sample_cauchy(d, rng, n=1):
    """n vectors with density p_1: d normals over the absolute value of one more, a draw
    whose last normal is 0 drawn again."""
    g = rng.standard_normal((n, d))
    g0 = rng.standard_normal(n)
    while not g0.all():
        ok = g0 != 0.0
        more = n - int(np.sum(ok))
        g = np.concatenate([g[ok], rng.standard_normal((more, d))])
        g0 = np.concatenate([g0[ok], rng.standard_normal(more)])
    g /= np.abs(g0, out=g0)[:, None]
    return g


def sample(shape, rng, n):
    """n uniform points of the shape, an (n, dim) array: a ball's as uniform directions
    times r U^(1/d), a polygon's from its own fan sampler (each point uniform, the rows
    grouped by fan triangle)."""
    if isinstance(shape, Ball):
        v = rng.standard_normal((n, shape.d))
        v /= np.linalg.norm(v, axis=1)[:, None]
        v *= (shape.radius * rng.random(n) ** (1.0 / shape.d))[:, None]
        return v
    work = np.empty((WORK_ROWS, max(n, 2)))
    shape._sample_rows(rng, work, n)
    return work[:2, :n].T


def contains(shape, pts):
    """Membership mask of the rows of an (n, dim) array, from the shape's definition: |x| <= r,
    |x| <= h1 and |y| <= h2, or on the left of every counterclockwise edge pq."""
    if isinstance(shape, Ball):
        return np.sum(pts * pts, axis=1) <= shape.radius**2
    x, y = pts.T
    if isinstance(shape, Rectangle):
        return (np.abs(x) <= shape.h1) & (np.abs(y) <= shape.h2)
    inside = np.ones(len(pts), dtype=bool)
    for (px, py), (qx, qy) in zip(shape.vertices, shape.vertices[1:] + shape.vertices[:1]):
        inside &= (qx - px) * (y - py) - (qy - py) * (x - px) >= 0.0
    return inside


def reference_heat_hits(shape, rng, n, t):
    """How many of n draws of X + t W land in the shape, X from ``sample`` and W from
    ``sample_cauchy``."""
    x = sample(shape, rng, n)
    return int(np.count_nonzero(contains(shape, x + t * sample_cauchy(shape.dim, rng, n))))


def reference_shift_hits(shape, rng, n, y):
    """How many of n draws of X - y land in the shape, X from ``sample``, every edge tested."""
    return int(np.count_nonzero(contains(shape, sample(shape, rng, n) - y)))
