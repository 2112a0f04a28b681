"""Shape descriptors, exact geometry, and set covariance evaluators.

Supported shapes are the unit ball (any dimension up to the package
guard), axis-aligned rectangles, convex polygons, and 1-D intervals.
All shapes are convex, so the covariance support radius equals the
diameter exactly.

Each shape class implements the ``Shape`` protocol and so owns what the
package knows about it.  The module-level functions of the same names
(``geometry``, ``covariance``, ``gamma``, ...) check their inputs and then
ask the shape; the other modules call those functions.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernel
from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidShapeError,
    NonUnitVectorError,
    QuadratureError,
)
from .quadrature import QuadSpec, integrate_1d, integrate_circle, integrate_sphere

SQRT2 = math.sqrt(2.0)
# points x edges^2 per chunk of the batched polygon covariance and chord table, bounding
# their temporaries
_PAIR_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ShapeGeometry:
    volume: float
    perimeter: float
    support_radius: float
    dim: int


# ---------------------------------------------------------------------------
# The shape protocol
# ---------------------------------------------------------------------------

class Shape(ABC):
    """A bounded set of finite perimeter, as the package computes with it.

    Subclasses implement the abstract members; the rest have defaults for
    shapes without the structure they describe.  Arguments arrive checked:
    a direction is a unit vector and a point has the shape's dimension.
    """

    @property
    @abstractmethod
    def geometry(self) -> ShapeGeometry:
        """Closed-form volume, perimeter, and support radius (= diameter)."""

    @property
    def dim(self) -> int:
        return self.geometry.dim

    @property
    def gamma_vanishes(self) -> bool:
        """gamma is identically zero (1-D sets), so R(t) and its limit vanish."""
        return self.dim == 1

    @abstractmethod
    def covariance(self, ys: np.ndarray) -> np.ndarray:
        """Set covariance g(y) = |Omega intersect (Omega + y)| at the rows of an (n, dim) array."""

    def covariance_integral(self, quad: QuadSpec) -> float:
        """Integral of g over its support; equals |Omega|^2.  The default integrates the
        radial profile gbar: A_d int_0^ell r^(d-1) gbar(r) dr."""
        d, gbar = self.dim, self.radial_profile()
        val, _ = integrate_1d(lambda r: r ** (d - 1) * gbar(r), 0.0, self.geometry.support_radius, quad)
        return kernel.unit_sphere_area(d) * val

    @abstractmethod
    def directional_variation(self, us: np.ndarray) -> np.ndarray:
        """Total variation of the indicator in each direction, the rows of an (n, dim) array."""

    @abstractmethod
    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Membership mask of the rows of an (n, dim) array of points."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points drawn uniformly from the shape, as an (n, dim) array."""

    @abstractmethod
    def gamma(self, s: np.ndarray, quad: QuadSpec) -> np.ndarray:
        """gamma(ell * s) for each s in (0, 1] of a 1-D array."""

    def radial_profile(self) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        """g as a function of |y|, mapping an array of radii to values, when g is radial."""
        return None

    def heat_content(self, t: float, quad: QuadSpec) -> float:
        """H(t), unclamped.  The default integrates the radial profile gbar:
        A_d kappa_d t * int_0^ell r^(d-1) gbar(r) (t^2+r^2)^(-(d+1)/2) dr,
        on panels seeded at every t 4^k below ell."""
        d, ell, gbar = self.dim, self.geometry.support_radius, self.radial_profile()

        def f(r):
            return r ** (d - 1) * gbar(r) * (t * t + r * r) ** (-(d + 1) / 2.0)

        # the kernel factor turns over at r ~ t and decays as a power beyond it: a
        # ladder of scales from t up to ell resolves that layer before the first round
        pts, p = [], t
        while p < ell:
            pts.append(p)
            p *= 4.0
        val, _ = integrate_1d(f, 0.0, ell, quad, points=pts)
        return kernel.unit_sphere_area(d) * kernel.kappa(d) * t * val

    def big_R(self, t: float, quad: QuadSpec) -> float:
        """R(t) = ell^(d+1) kappa_d * int_0^1 s^d gamma(ell s) (t^2 + ell^2 s^2)^-(d+1)/2 ds."""
        d, ell = self.dim, self.geometry.support_radius

        def f(s):
            return s**d * gamma(self, s, quad) * (t * t + ell * ell * s * s) ** (-(d + 1) / 2.0)

        pts = sorted({2.0**-k for k in range(1, 24)} | {min(1.0, t / ell)} - {1.0})
        val, _ = integrate_1d(f, 0.0, 1.0, quad, points=pts)
        return ell ** (d + 1) * kernel.kappa(d) * val

    def gamma_weighted_integral(self, quad: QuadSpec) -> tuple:
        """(value, err) of int_0^1 gamma(ell s)/s ds, the class-W integral.  The default is
        one integrate_1d over [0, 1], which raises QuadratureError if the integral diverges."""
        return integrate_1d(lambda s: gamma(self, s, quad) / s, 0.0, 1.0, quad)

    def support_kinks(self) -> list:
        """Angles where circle integrands for this shape lose smoothness."""
        return []

    def support_radius_at(self, theta: float) -> float:
        """Distance from the origin to the support boundary in direction theta."""
        return self.geometry.support_radius

    def gamma_weighted_closed_form(self) -> Optional[float]:
        """Known closed form of the s^-1-weighted gamma integral."""
        return None

    def closed_form_constant(self) -> Optional[float]:
        """Known closed form of the third-term constant C_Omega."""
        return None


@dataclass(frozen=True)
class UnitBall(Shape):
    d: int

    def __post_init__(self):
        d = self.d
        if isinstance(d, bool) or not isinstance(d, Integral) or not 1 <= d <= kernel.MAX_DIM:
            raise InvalidShapeError(f"ball dimension must be an integer in [1, {kernel.MAX_DIM}]")

    @cached_property
    def geometry(self) -> ShapeGeometry:
        return ShapeGeometry(
            volume=kernel.unit_ball_volume(self.d), perimeter=kernel.unit_sphere_area(self.d),
            support_radius=2.0, dim=self.d,
        )

    def covariance(self, ys):
        return ball_covariance_radial(self.d, np.linalg.norm(ys, axis=1))

    def radial_profile(self):
        return lambda r: ball_covariance_radial(self.d, r)

    def directional_variation(self, us):
        return np.full(len(us), 2.0 * kernel.unit_ball_volume(self.d - 1) if self.d >= 2 else 2.0)

    def contains(self, pts):
        return np.einsum("ij,ij->i", pts, pts) <= 1.0

    def sample(self, rng, n):
        v = rng.standard_normal((n, self.d))
        v /= np.linalg.norm(v, axis=1)[:, None]
        r = rng.random(n) ** (1.0 / self.d)
        v *= r[:, None]
        return v

    def gamma(self, s, quad):
        """gamma_B(2s) = A_d w_{d-1} / s * int_0^{asin s} (cos - cos^d)."""
        if self.gamma_vanishes:
            return np.zeros_like(s)
        d = self.d
        w_dm1 = kernel.unit_ball_volume(d - 1)
        return kernel.unit_sphere_area(d) * w_dm1 * kernel.cos_power_deficit(d, s) / s

    def gamma_weighted_closed_form(self):
        if self.d == 2:
            return math.pi * (math.pi - 4.0 * math.log(2.0))
        if self.d == 3:
            return 2.0 * math.pi**2 / 3.0
        return None

    def closed_form_constant(self):
        if self.d == 2:
            return 6.0 * math.log(2.0) - 2.0
        if self.d == 3:
            return 4.0 * math.log(2.0)
        return None


class PlanarPolytope(Shape):
    """A convex polygon: supplies its vertices, derives the rest from its chords.

    For u = (cos theta, sin theta) and n = (-sin theta, cos theta), the chord
    length c(x) of the line x n + R u is linear between the offsets x of the
    vertices (``chord_table``).  With ell the diameter, every quantity of the
    expansion is then one theta-integral over [0, pi) of closed-form sums over
    the linear pieces of c (``_chord_integral``):
    g(r u) = int (c - r)_+ dx, |Omega| - H(t) = (t/pi) int int asinh(c/t),
    gamma(r) = (2/r) int int (r - c)_+, int g = (1/3) int int c^3,
    R(t) = (1/pi) int int [asinh(ell/t) - asinh(c/t) - (ell - c)/sqrt(t^2 + ell^2)]
    and int_0^1 gamma(ell s)/s ds = 2 int int [ln(ell/c) - 1 + c/ell].
    """

    @property
    @abstractmethod
    def vertex_array(self) -> np.ndarray:
        """The vertices in counterclockwise order, as a read-only (n, 2) array."""

    @cached_property
    def edge_directions(self) -> np.ndarray:
        """The edge vectors v_{i+1} - v_i."""
        return np.roll(self.vertex_array, -1, axis=0) - self.vertex_array

    @cached_property
    def _order_changes(self) -> list:
        """Directions of v_j - v_i in [0, pi), where the order of the vertex offsets changes.

        Between two of them every chord-table integrand is analytic in theta.
        They are rounded to 12 decimals, so that a regular polygon's equal
        directions give n seeds, not n(n - 1)/2.
        """
        i, j = np.triu_indices(len(self.vertex_array), 1)
        d = self.vertex_array[j] - self.vertex_array[i]
        return sorted(set(np.round(np.arctan2(d[:, 1], d[:, 0]) % math.pi, 12).tolist()))

    def chord_table(self, thetas) -> tuple:
        """Vertex offsets and chord lengths for each direction theta of a 1-D array.

        Returns (x, c) as (m, n) arrays: row i holds the offsets of the vertices
        along n, relative to vertex 0 and sorted, and the lengths of the chords
        in direction u through them; c is linear in between.  A chord spans the
        points where its line meets the boundary: the vertices at its offset and
        the edges whose ends lie strictly on either side.  So the chords at the
        two extreme offsets are exactly 0, or the length of an edge parallel to u.
        """
        thetas = np.asarray(thetas, dtype=float).reshape(-1)
        rel = self.vertex_array - self.vertex_array[0]
        cos, sin = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
        along, off = rel[:, 0] * cos + rel[:, 1] * sin, rel[:, 1] * cos - rel[:, 0] * sin
        c = np.empty_like(off)
        step = max(1, _PAIR_ENTRIES // len(rel) ** 2)
        for k in range(0, len(thetas), step):
            a, p = along[k : k + step, None, :], off[k : k + step, None, :]  # [m, ., edge j]
            x = off[k : k + step, :, None]  # [m, vertex i, .]: the chord through v_i
            a1, p1 = np.roll(a, -1, axis=2), np.roll(p, -1, axis=2)
            with np.errstate(divide="ignore", invalid="ignore"):
                at = a + (x - p) / (p1 - p) * (a1 - a)
            cross = (x - p) * (x - p1) < 0.0
            top = np.maximum(np.where(cross, at, -np.inf).max(axis=2), np.where(x == p, a, -np.inf).max(axis=2))
            bottom = np.minimum(np.where(cross, at, np.inf).min(axis=2), np.where(x == p, a, np.inf).min(axis=2))
            c[k : k + step] = top - bottom
        order = np.argsort(off, axis=1)
        return np.take_along_axis(off, order, axis=1), np.take_along_axis(c, order, axis=1)

    def _chord_integral(self, mean, quad: QuadSpec, seeds=()) -> tuple:
        """(value, err) of int_0^pi sum over the pieces of c of width * mean(lo, hi) dtheta.

        mean(lo, hi) is the mean of a function of c over a piece on which c runs
        linearly between lo <= hi; the panels are seeded where the offsets change
        order and at ``seeds``.
        """
        def per_direction(thetas):
            x, c = self.chord_table(thetas)
            lo, hi = np.minimum(c[:, :-1], c[:, 1:]), np.maximum(c[:, :-1], c[:, 1:])
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.sum(np.diff(x, axis=1) * mean(lo, hi), axis=1)

        return integrate_1d(per_direction, 0.0, math.pi, quad, points=[*self._order_changes, *seeds])

    def support_kinks(self):
        """Edge directions and their opposites, where |e_j x u| creases."""
        a = np.arctan2(self.edge_directions[:, 1], self.edge_directions[:, 0])
        return sorted(np.concatenate([a, a + math.pi]) % (2.0 * math.pi))

    def support_radius_at(self, theta):
        """The longest chord in direction theta."""
        return float(self.chord_table([theta])[1].max())

    def _circle_crossing_kinks(self, r: float) -> list:
        """Angles where the circle of radius r crosses a segment edge_j - v_i or v_i - edge_j.

        On those segments a vertex of one copy meets an edge of the other, so
        there the chord through a vertex has length r.
        """
        verts, edges = self.vertex_array, self.edge_directions
        # segment [i n + j] = edge_j - v_i runs from v_j - v_i along e_j
        a = (verts[None, :, :] - verts[:, None, :]).reshape(-1, 2)
        d = np.tile(edges, (len(verts), 1))
        # |a + t d|^2 = r^2 with 0 <= t <= 1
        aa, bb = np.sum(d * d, axis=1), 2.0 * np.sum(a * d, axis=1)
        disc = bb * bb - 4.0 * aa * (np.sum(a * a, axis=1) - r * r)
        sq = np.sqrt(np.maximum(disc, 0.0))
        angles = []
        for t in ((-bb - sq) / (2.0 * aa), (-bb + sq) / (2.0 * aa)):
            p = (a + t[:, None] * d)[(disc >= 0.0) & (0.0 <= t) & (t <= 1.0)]
            angles += (np.arctan2(p[:, 1], p[:, 0]) % math.pi).tolist()
        return angles

    def gamma(self, s, quad):
        """gamma(r) = 2 r int int (r - c)_+ / r^2, one theta-integral per r.

        Below the shortest chord through a non-extreme vertex only the end
        pieces, where c rises from 0, contribute, each w / (2 c_1) whatever r:
        so gamma is exactly linear there.
        """
        out = np.empty(len(s))
        for i, r in enumerate(self.geometry.support_radius * s):

            def mean(lo, hi, r=r):
                part = ((r - lo) / r) ** 2 / (2.0 * (hi - lo))
                return np.where(hi <= r, (1.0 - (lo + hi) / (2.0 * r)) / r, np.where(lo < r, part, 0.0))

            value, _ = self._chord_integral(mean, quad, seeds=self._circle_crossing_kinks(r))
            out[i] = 2.0 * r * value
        return out

    def heat_content(self, t, quad):
        """|Omega| - (t/pi) int int asinh(c/t) for t below the diameter, else, free of
        that cancellation, (1/pi) int int (c - t asinh(c/t))."""
        if t < self.geometry.support_radius:
            value, _ = self._chord_integral(lambda lo, hi: kernel.asinh_mean(lo / t, hi / t), quad)
            return self.geometry.volume - t / math.pi * value
        value, _ = self._chord_integral(lambda lo, hi: t * kernel.z_minus_asinh_mean(lo / t, hi / t), quad)
        return value / math.pi

    def big_R(self, t, quad):
        ell = self.geometry.support_radius
        a_ell, s_ell = math.asinh(ell / t), math.hypot(t, ell)

        def mean(lo, hi):
            return a_ell - kernel.asinh_mean(lo / t, hi / t) - (ell - 0.5 * (lo + hi)) / s_ell

        value, _ = self._chord_integral(mean, quad)
        return value / math.pi

    def gamma_weighted_integral(self, quad):
        ell = self.geometry.support_radius

        def mean(lo, hi):
            # the mean of ln c is ln hi - 1 + log1p(z)/z with z = (hi - lo)/lo, or ln hi - 1 if lo = 0
            z = (hi - lo) / lo
            log_ratio = np.where(lo > 0.0, np.where(z > 0.0, np.log1p(z) / z, 1.0), 0.0)
            return np.log(ell / hi) - log_ratio + 0.5 * (lo + hi) / ell

        value, err = self._chord_integral(mean, quad)
        return 2.0 * value, 2.0 * err

    def covariance_integral(self, quad):
        value, _ = self._chord_integral(lambda lo, hi: (lo + hi) * (lo * lo + hi * hi) / 4.0, quad)
        return value / 3.0


@dataclass(frozen=True)
class Rectangle(PlanarPolytope):
    """Axis-aligned rectangle [-h1, h1] x [-h2, h2]."""

    h1: float
    h2: float

    def __post_init__(self):
        if not (0.0 < self.h1 < math.inf and 0.0 < self.h2 < math.inf):
            raise InvalidShapeError("rectangle half-widths must be positive and finite")

    @property
    def is_unit_square(self) -> bool:
        return self.h1 == 1.0 and self.h2 == 1.0

    @cached_property
    def geometry(self) -> ShapeGeometry:
        return ShapeGeometry(
            volume=4.0 * self.h1 * self.h2, perimeter=4.0 * (self.h1 + self.h2),
            support_radius=2.0 * math.hypot(self.h1, self.h2), dim=2,
        )

    @cached_property
    def vertex_array(self) -> np.ndarray:
        h1, h2 = self.h1, self.h2
        verts = np.array([[h1, -h2], [h1, h2], [-h1, h2], [-h1, -h2]], dtype=float)
        verts.flags.writeable = False
        return verts

    def covariance(self, ys):
        gx = np.maximum(0.0, 2.0 * self.h1 - np.abs(ys[:, 0]))
        gy = np.maximum(0.0, 2.0 * self.h2 - np.abs(ys[:, 1]))
        return gx * gy

    def directional_variation(self, us):
        return 4.0 * (self.h2 * np.abs(us[:, 0]) + self.h1 * np.abs(us[:, 1]))

    def contains(self, pts):
        return (np.abs(pts[:, 0]) <= self.h1) & (np.abs(pts[:, 1]) <= self.h2)

    def sample(self, rng, n):
        x = rng.uniform(-self.h1, self.h1, n)
        y = rng.uniform(-self.h2, self.h2, n)
        return np.column_stack([x, y])

    def gamma_weighted_closed_form(self):
        if self.is_unit_square:
            return 2.0 * SQRT2 * (math.pi - 8.0) + 8.0 * math.log(2.0 * (3.0 + 2.0 * SQRT2))
        return None

    def closed_form_constant(self):
        if self.is_unit_square:
            return 4.0 / math.pi * (
                2.0 * (SQRT2 - 1.0) + math.log(16.0 / (3.0 + 2.0 * SQRT2))
            )
        return None


@dataclass(frozen=True)
class ConvexPolygon(PlanarPolytope):
    """Convex polygon with counterclockwise vertices; collinear points dropped."""

    vertices: tuple = field()

    def __init__(self, vertices: Sequence[Sequence[float]]):
        try:
            pts = np.asarray(vertices, dtype=float)
        except (TypeError, ValueError):
            raise InvalidShapeError("polygon vertices must be a list of 2-D points") from None
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidShapeError("polygon vertices must be 2-D points")
        if len(pts) < 3:
            raise InvalidShapeError("polygon needs at least 3 vertices")
        if not np.all(np.isfinite(pts)):
            raise InvalidShapeError("polygon vertices must be finite")
        # tolerances relative to the diameter, so that a scaled copy is valid when the shape is
        diam = _diameter(pts)
        if np.any(np.linalg.norm(pts - np.roll(pts, -1, axis=0), axis=1) <= 1e-12 * diam):
            raise InvalidShapeError("polygon has a repeated vertex")
        # drop collinear vertices, then demand strict convexity and CCW order
        kept = pts[np.abs(_turns(pts)) > 1e-12 * diam * diam]
        if len(kept) < 3:
            raise InvalidShapeError("polygon is degenerate after removing collinear points")
        if np.any(_turns(kept) <= 0):
            raise InvalidShapeError("polygon must be convex with counterclockwise orientation")
        object.__setattr__(self, "vertices", tuple(tuple(p) for p in kept))

    @cached_property
    def vertex_array(self) -> np.ndarray:
        verts = np.array(self.vertices, dtype=float)
        verts.flags.writeable = False
        return verts

    @cached_property
    def geometry(self) -> ShapeGeometry:
        verts = self.vertex_array
        per = float(np.sum(np.linalg.norm(self.edge_directions, axis=1)))
        return ShapeGeometry(
            volume=_polygon_area(verts), perimeter=per, support_radius=_diameter(verts), dim=2
        )

    @cached_property
    def _pair_tables(self):
        """Per edge pair [i, j]: v_j - v_i, e_j x e_i, which pairs are parallel and which of
        those point the same way, and per edge the tie rules of ``covariance``."""
        verts, edges = self.vertex_array, self.edge_directions
        diff = verts[None, :, :] - verts[:, None, :]
        den = edges[None, :, 0] * edges[:, None, 1] - edges[None, :, 1] * edges[:, None, 0]
        lengths = np.linalg.norm(edges, axis=1)
        par = np.abs(den) <= 1e-13 * lengths[:, None] * lengths  # sin(angle) <= 1e-13
        same = edges @ edges.T > 0.0
        tau = np.where(edges[:, 1] != 0.0, edges[:, 1], -edges[:, 0])
        return (diff[..., 0], diff[..., 1], np.where(par, 1.0, den), ~par & (den > 0.0),
                ~par & (den < 0.0), par, same, tau > 0.0, tau < 0.0, _boundary_terms(verts))

    def covariance(self, ys):
        """Area of P and P + y by Green's theorem, in coordinates relative to vertex 0.

        Each edge of either copy counts the part inside the other copy, a
        Cyrus-Beck parameter interval; a piece a + t e, t in [t0, t1], adds
        (t1 - t0) (a x e) / 2.  Edge i of P and edge j of P + y on parallel
        lines are both decided by h = e_i x (v_j + y - v_i), so opposite edges
        on one line count together and cancel.  Where h = 0 the copy is taken
        as shifted by (eps, eps^2): with tau(e) = e_y, or -e_x where e_y = 0,
        a shared edge e counts once, for P if tau(e) > 0 and for P + y if not.
        """
        dx, dy, den, pos, neg, par, same, tie_p, tie_q, c = self._pair_tables
        ex, ey = self.edge_directions[:, 0], self.edge_directions[:, 1]
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
        return np.where(out > 1e-14 * self.geometry.volume, out, 0.0)

    def directional_variation(self, us):
        edges = self.edge_directions
        # outward normal of a CCW edge (dx, dy) is (dy, -dx); |n.u|*len folds
        # the edge length into the unnormalized normal
        return np.sum(np.abs(edges[:, 1] * us[:, :1] - edges[:, 0] * us[:, 1:]), axis=1)

    def contains(self, pts):
        verts = self.vertex_array
        inside = np.ones(len(pts), dtype=bool)
        cross, term, ok = np.empty(len(pts)), np.empty(len(pts)), np.empty(len(pts), dtype=bool)
        n = len(verts)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            # cross = (b - a) x (p - a), in buffers reused across edges
            np.subtract(pts[:, 1], a[1], out=cross)
            cross *= b[0] - a[0]
            np.subtract(pts[:, 0], a[0], out=term)
            term *= b[1] - a[1]
            cross -= term
            inside &= np.greater_equal(cross, 0.0, out=ok)
        return inside

    def sample(self, rng, n):
        """Triangle fan from vertex 0: a triangle drawn by area, then a uniform point in it.

        Where the first draw falls within its triangle's share of the area is
        the first barycentric draw.
        """
        rel, twice_area, start = self._fan
        u, v = rng.random((2, n))
        u *= start[-1]
        k = np.searchsorted(start[1:-1], u, side="right")
        out = np.empty((2, n))  # returned transposed: contiguous rows suit take(out=)
        x, y = out  # scratch until the coordinates are written
        u -= np.take(start, k, out=x, mode="clip")
        u /= np.take(twice_area, k, out=x, mode="clip")
        fold = np.add(u, v, out=x) > 1.0
        np.subtract(1.0, u, out=u, where=fold)
        np.subtract(1.0, v, out=v, where=fold)
        del fold
        # each coordinate is (v_0 + (v_{k+1} - v_0) u) + (v_{k+2} - v_0) v; the last term goes
        # to scratch: the y row before it is written, then u once y is done with it
        for axis, scratch in ((0, y), (1, u)):
            coord = out[axis]
            np.take(rel[1:, axis], k, out=coord, mode="clip")
            coord *= u
            coord += self.vertex_array[0, axis]
            np.take(rel[2:, axis], k, out=scratch, mode="clip")
            scratch *= v
            coord += scratch
        return out.T

    @cached_property
    def _fan(self) -> tuple:
        """(v_i - v_0, twice the areas of the fan triangles v_0 v_i v_{i+1}, their running sums)."""
        verts = self.vertex_array
        twice_area = _boundary_terms(verts)[1:-1]
        return verts - verts[0], twice_area, np.concatenate([[0.0], np.cumsum(twice_area)])

    def closed_form_constant(self):
        # the unit square in polygon representation shares the closed form
        if len(self.vertices) == 4 and np.allclose(
            sorted(self.vertices), [(-1, -1), (-1, 1), (1, -1), (1, 1)], atol=1e-12
        ):
            return Rectangle(1.0, 1.0).closed_form_constant()
        return None


@dataclass(frozen=True)
class Interval(Shape):
    a: float
    b: float

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise InvalidShapeError("interval requires finite a < b")

    @property
    def length(self) -> float:
        return self.b - self.a

    @cached_property
    def geometry(self) -> ShapeGeometry:
        return ShapeGeometry(volume=self.length, perimeter=2.0, support_radius=self.length, dim=1)

    def covariance(self, ys):
        return np.maximum(0.0, self.length - np.abs(ys[:, 0]))

    def radial_profile(self):
        return lambda r: np.maximum(0.0, self.length - r)

    def directional_variation(self, us):
        return np.full(len(us), 2.0)

    def contains(self, pts):
        return (pts[:, 0] >= self.a) & (pts[:, 0] <= self.b)

    def sample(self, rng, n):
        return rng.uniform(self.a, self.b, (n, 1))

    def gamma(self, s, quad):
        return np.zeros_like(s)

    def gamma_weighted_closed_form(self):
        return 0.0

    def closed_form_constant(self):
        return 2.0 / math.pi * (1.0 + math.log(self.length))


def _real(x) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InvalidShapeError(f"expected a number, got {x!r}")
    return float(x)


def shape_from_json(obj) -> Shape:
    """Build a shape from the CLI's JSON object format, or raise InvalidShapeError."""
    if not isinstance(obj, dict):
        raise InvalidShapeError(f"a shape must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    try:
        if kind == "ball":
            return UnitBall(obj["dim"])
        if kind == "rectangle":
            hw = [_real(h) for h in obj["half_widths"]]
            if len(hw) != 2:
                raise InvalidShapeError("rectangle needs exactly two half-widths")
            return Rectangle(*hw)
        if kind == "polygon":
            return ConvexPolygon(obj["vertices"])
        if kind == "interval":
            return Interval(_real(obj["a"]), _real(obj["b"]))
    except KeyError as exc:
        raise InvalidShapeError(f"{kind} shape needs the key {exc}") from None
    except TypeError as exc:
        raise InvalidShapeError(f"malformed {kind} shape: {exc}") from None
    raise InvalidShapeError(f"unknown shape kind {kind!r}")


# ---------------------------------------------------------------------------
# Entry points: check the arguments, then ask the shape
# ---------------------------------------------------------------------------

def geometry(shape: Shape) -> ShapeGeometry:
    """Closed-form volume, perimeter, and support radius (= diameter)."""
    return shape.geometry


def _rows(x, dim: int, what: str):
    """(x as an (n, dim) array, whether x was a single point)."""
    x = np.asarray(x, dtype=float)
    rows = x.reshape(1, -1) if x.ndim <= 1 else x
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise DimensionMismatchError(f"{what} has shape {x.shape}, shape has dimension {dim}")
    if not np.isfinite(rows).all():
        raise DomainError(f"{what} must be finite, got {x}")
    return rows, x.ndim <= 1


def directional_variation(shape: Shape, u):
    """Total variation of the indicator (twice the shadow width) in one unit direction u,
    a float, or in each row of an (n, dim) array."""
    us, single = _rows(u, shape.dim, "direction")
    norms = np.linalg.norm(us, axis=1)
    worst = norms[np.argmax(np.abs(norms - 1.0))]
    if abs(worst - 1.0) > 1e-12:
        raise NonUnitVectorError(f"|u| = {worst} is not 1")
    values = shape.directional_variation(us)
    return float(values[0]) if single else values


def covariance(shape: Shape, y):
    """Set covariance g(y) = |Omega intersect (Omega + y)| at one point, a float, or at
    each row of an (n, dim) array."""
    ys, single = _rows(y, shape.dim, "point")
    values = shape.covariance(ys)
    return float(values[0]) if single else values


def covariance_integral(shape: Shape, quad: QuadSpec = QuadSpec()) -> float:
    """Integral of g over its support; equals |Omega|^2."""
    return shape.covariance_integral(quad)


def support_radius_at(shape: Shape, theta: float) -> float:
    """Distance from the origin to the support boundary in direction theta."""
    return shape.support_radius_at(theta)


def gamma(shape: Shape, s, quad: QuadSpec = QuadSpec()):
    """gamma(ell * s): spherical deficit between V_u/2 and the covariance slope, for
    one s in (0, 1], a float, or for each s of a 1-D array."""
    ss = np.asarray(s, dtype=float)
    single, ss = ss.ndim == 0, ss.reshape(-1)
    if not np.all((0.0 < ss) & (ss <= 1.0)):
        raise DomainError(f"s must lie in (0, 1], got {s}")
    values = shape.gamma(ss, quad)
    i = np.argmin(values)
    if values[i] < -1e-8:
        raise QuadratureError(f"gamma({ss[i]}) = {values[i]} < 0 violates the slope bound")
    return float(values[0]) if single else values


def gamma_weighted_closed_form(shape: Shape) -> Optional[float]:
    """Known closed-form values of the s^-1-weighted gamma integral."""
    return shape.gamma_weighted_closed_form()


# ---------------------------------------------------------------------------
# The perimeter identity and the weighted gamma integral
# ---------------------------------------------------------------------------

def perimeter_from_variations(shape: Shape, quad: QuadSpec = QuadSpec()) -> float:
    """Recover Per via the spherical average of directional variations."""
    geo = geometry(shape)
    if geo.dim == 2:
        value, _ = integrate_circle(
            lambda th: directional_variation(shape, np.column_stack([np.cos(th), np.sin(th)])),
            kinks=shape.support_kinks(),
            spec=quad,
        )
        return value / (2.0 * kernel.unit_ball_volume(1))
    if geo.dim == 3:
        value, _ = integrate_sphere(lambda v: directional_variation(shape, v), quad)
        return value / (2.0 * kernel.unit_ball_volume(2))
    raise DomainError("perimeter_from_variations supports dim 2 and 3 only")


def gamma_weighted_integral(shape: Shape, quad: QuadSpec = QuadSpec()):
    """Integral over (0, 1] of gamma(ell*s)/s, as (value, err_estimate)."""
    if shape.gamma_vanishes:
        return 0.0, 0.0
    return shape.gamma_weighted_integral(quad)


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------

def _boundary_terms(verts: np.ndarray) -> np.ndarray:
    """(v_i - v_0) x e_i: twice the signed area of the triangle v_0, v_i, v_{i+1}."""
    rel, edges = verts - verts[0], np.roll(verts, -1, axis=0) - verts
    return rel[:, 0] * edges[:, 1] - rel[:, 1] * edges[:, 0]


def _polygon_area(verts: np.ndarray) -> float:
    """Shoelace area in coordinates relative to vertex 0, so a translation changes nothing."""
    return 0.5 * float(np.sum(_boundary_terms(verts)))


def _diameter(pts: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)))


def _turns(pts: np.ndarray) -> np.ndarray:
    """(b - a) x (c - a) at each vertex b of a closed polyline, a and c its neighbours."""
    a, c = np.roll(pts, 1, axis=0), np.roll(pts, -1, axis=0)
    return (pts[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (pts[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])


def ball_covariance_radial(d: int, r: np.ndarray) -> np.ndarray:
    """g_B(r e) for the unit ball in R^d at an array of radii, zero for r >= 2.

    Two caps of height 1 - s, s = r/2, give g_B(2s) = 2 w_{d-1} int_{asin s}^{pi/2} cos^d
    = w_d - 2 w_{d-1} (s - M_d) with M_d = int_0^{asin s} (cos - cos^d).
    """
    if np.any(r < 0):
        raise DomainError("radius must be nonnegative")
    if d == 1:
        return np.maximum(0.0, 2.0 - r)
    s = np.minimum(r, 2.0) / 2.0
    cap_gap = s - kernel.cos_power_deficit(d, s)
    # near r = 2 the difference is rounding noise of either sign
    g = np.maximum(0.0, kernel.unit_ball_volume(d) - 2.0 * kernel.unit_ball_volume(d - 1) * cap_gap)
    return np.where(r >= 2.0, 0.0, g)


# ---------------------------------------------------------------------------
# The square's eight sector integrals
# ---------------------------------------------------------------------------

def _eta(i: int, theta: np.ndarray) -> np.ndarray:
    if i in (0, 3, 4, 7):
        return 2.0 / np.abs(np.cos(theta))
    return 2.0 / np.abs(np.sin(theta))


def square_I_terms(quad: QuadSpec = QuadSpec()) -> list:
    """The eight sector integrals whose sum is the square's gamma integral."""
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


# ---------------------------------------------------------------------------
# Randomized covariance property checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CovarianceReport:
    shape: Shape
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _random_unit(rng, dim):
    while True:
        v = rng.standard_normal(dim)
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n


def covariance_self_checks(
    shape: Shape, quad: QuadSpec = QuadSpec(), seed: int = 0, n_probes: int = 200
) -> CovarianceReport:
    """Randomized verification of the covariance properties (a)-(e).

    Probe radii are fractions of the diameter and tolerances fractions of the
    volume (or of V_u), so a scaled copy of a shape passes when the shape does.
    """
    rng = np.random.default_rng(seed)
    geo = geometry(shape)
    ell = geo.support_radius
    vol = geo.volume
    checks = []

    # (a) bounds and (b) symmetry at random probes
    bounds_ok, sym_ok = True, True
    witness_b, witness_s = "", ""
    for _ in range(n_probes):
        y = (rng.uniform(-1.2, 1.2, size=geo.dim)) * ell
        g = covariance(shape, y)
        if not -1e-12 * vol <= g <= vol * (1.0 + 1e-9):
            bounds_ok, witness_b = False, f"g({y}) = {g}"
        gm = covariance(shape, -y)
        if abs(g - gm) > 1e-9 * vol:
            sym_ok, witness_s = False, f"g({y}) = {g} vs g(-y) = {gm}"
    checks.append(CheckResult("bounds 0 <= g <= g(0)", bounds_ok, witness_b))
    checks.append(CheckResult("symmetry g(y) = g(-y)", sym_ok, witness_s))
    g0 = covariance(shape, np.zeros(geo.dim))
    checks.append(
        CheckResult("g(0) = |Omega|", abs(g0 - vol) < 1e-10 * vol, f"g(0) = {g0}, |Omega| = {vol}")
    )

    # (c) total integral
    total = covariance_integral(shape, quad)
    rel = abs(total - vol * vol) / (vol * vol)
    checks.append(
        CheckResult("integral of g = |Omega|^2", rel < 1e-6, f"got {total}, rel err {rel:.2e}")
    )

    # (d) compact support
    supp_ok, witness = True, ""
    for _ in range(n_probes):
        u = _random_unit(rng, geo.dim)
        r = ell * rng.uniform(1.0, 3.0)
        g = covariance(shape, u * r)
        if g != 0.0:
            supp_ok, witness = False, f"g({u * r}) = {g}"
    checks.append(CheckResult("support within |y| < ell", supp_ok, witness))

    # Lipschitz slope: difference quotients at r = 1e-4 ell and 1e-5 ell approach V_u / 2
    lip_ok, witness = True, ""
    r4, r5 = 1e-4 * ell, 1e-5 * ell
    for _ in range(10):
        u = _random_unit(rng, geo.dim)
        vu2 = directional_variation(shape, u) / 2.0
        q4 = (g0 - covariance(shape, u * r4)) / r4
        q5 = (g0 - covariance(shape, u * r5)) / r5
        if abs(q4 / q5 - 1.0) > 1e-2 or abs(q5 - vu2) > 1e-2 * vu2:
            lip_ok, witness = False, f"u = {u}: q(1e-4 ell) = {q4}, q(1e-5 ell) = {q5}, V_u/2 = {vu2}"
    checks.append(CheckResult("slope (g(0)-g(ru))/r -> V_u/2", lip_ok, witness))

    return CovarianceReport(shape=shape, checks=tuple(checks))
