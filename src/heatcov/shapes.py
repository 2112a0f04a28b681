"""Shape descriptors, exact geometry, and set covariance evaluators.

Supported shapes are balls of any radius (in any dimension up to the
package guard; an interval is a 1-ball) and convex polygons; a rectangle
is the convex polygon of its corners, and every axis-aligned box among the
polygons has a closed-form covariance.
All shapes are convex, so the covariance support radius equals the
diameter exactly.

Each shape class implements the ``Shape`` protocol and so owns what the
package computes of it deterministically; its Monte Carlo blocks are in
``heatcov.mc``.  The module-level functions of the same names (``geometry``,
``covariance``, ``gamma``, ...) check their inputs and then ask the shape;
the other modules call those functions.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral, Real
from typing import Callable, Sequence

import numpy as np

from . import kernel
from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidShapeError,
    NonUnitVectorError,
    QuadratureError,
)
from .quadrature import QuadSpec, integrate_1d

# entries per chunk of the chord pieces that line_integral hands its mean, bounding its temporaries
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

    Subclasses implement the abstract members; the rest have defaults that
    hold for any such set, and a shape overrides one where its structure gives
    a sharper or cheaper form.  Arguments arrive checked: a direction is a unit
    vector and a point has the shape's dimension.
    """

    @property
    @abstractmethod
    def geometry(self) -> ShapeGeometry:
        """Exact volume, perimeter, and support radius (= diameter)."""

    @property
    def dim(self) -> int:
        return self.geometry.dim

    @property
    def min_width(self) -> float:
        """The least width of the shape over all directions; the diameter, for a ball."""
        return self.geometry.support_radius

    @property
    def gamma_vanishes(self) -> bool:
        """gamma is identically zero (1-D sets), so R(t) and its limit vanish."""
        return self.dim == 1

    @abstractmethod
    def covariance_at(self, y: list) -> float:
        """Set covariance g(y) = |Omega intersect (Omega + y)| at one point, a list of floats."""

    @abstractmethod
    def line_integral(self, mean: Callable, quad: QuadSpec, seeds: Sequence[float] = ()) -> tuple:
        """(value, err) of the integral of k(c) over the lines through the shape.

        c is the length of the chord the line cuts, and the lines in direction u are
        weighted by dsigma(u) dx over S^(d-1) x u^perp, so each line counts twice (as u
        and -u).  The chords come in pieces on which c runs linearly between lo <= hi
        (a single chord has lo = hi), and mean(lo, hi) is the mean of k over a piece:
        an array of the shape of lo, or with one more axis of columns, in which case
        value and err are arrays of columns.  ``seeds`` are points of the shape's own
        line parameter where k changes scale or creases (see ``scale_seeds``).
        """

    def scale_seeds(self, ts: Sequence[float]) -> list:
        """Seeds of ``line_integral`` where a chord is t 4^k long, for the kernels of H and R
        at each t of ts; none where the chord means resolve every scale of c exactly."""
        return []

    @abstractmethod
    def directional_variation(self, us: np.ndarray) -> np.ndarray:
        """Total variation of the indicator in each direction, the rows of an (n, dim) array."""

    @abstractmethod
    def gamma(self, s, quad: QuadSpec):
        """gamma(ell * s) for s in (0, 1]: a float (or a 0-d array) for a float, as
        ``kernel.cos_power_deficit`` takes it, or an array for each s of a 1-D array."""

    def support_radius_at(self, theta: float) -> float:
        """Distance from the origin to the support boundary in direction theta."""
        return self.geometry.support_radius

    def gamma_weighted_integral(self, quad: QuadSpec) -> tuple:
        """(value, err) of int_0^1 gamma(ell s)/s ds, (0, 0) where gamma vanishes; seeded in even d
        at s = 1 - 4^-k, k = 1..4, where a ball's gamma(ell s) has a (1 - s)^((d+1)/2) term."""
        if self.gamma_vanishes:
            return 0.0, 0.0
        seeds = [1.0 - 4.0**-k for k in range(1, 5)] if self.dim % 2 == 0 else []
        return integrate_1d(lambda s: gamma(self, s, quad) / s, 0.0, 1.0, quad, points=seeds)


@dataclass(frozen=True)
class Ball(Shape):
    """The ball of radius r in R^d.  Every member scales from the unit ball B: with
    |Omega| = r^d w_d, chords 2r sin psi of weight r^(d-1), g(y) = r^d g_B(y/r) and
    gamma(2r s) = r^(d-1) gamma_B(2s).  At r = 1 each factor is an exact multiply or divide by
    1.0.  The ball has no centre, as every quantity heatcov computes is translation invariant:
    ``Interval(a, b)`` is the 1-ball of radius (b - a)/2."""

    d: int
    radius: float = 1.0
    geometry: ShapeGeometry = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        d = self.d
        if isinstance(d, bool) or not isinstance(d, Integral) or not 1 <= d <= kernel.MAX_DIM:
            raise InvalidShapeError(f"ball dimension must be an integer in [1, {kernel.MAX_DIM}]")
        d, r = int(d), _real(self.radius, "the ball radius")
        try:
            volume = r**d * kernel.unit_ball_volume(d)
        except OverflowError:  # r^d beyond the floats
            volume = math.inf
        if not (0.0 < 2.0 * r < math.inf and 0.0 < volume < math.inf):
            raise InvalidShapeError(f"a {d}-ball of radius {r!r} needs a finite positive diameter and volume")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "radius", r)
        perimeter = r ** (d - 1) * kernel.unit_sphere_area(d)
        object.__setattr__(self, "geometry", ShapeGeometry(volume, perimeter, support_radius=2.0 * r, dim=d))

    def covariance_at(self, y):
        r = self.radius
        if max(map(abs, y)) >= 2.0 * r:  # beyond the diameter, before |y|^2 can overflow
            return 0.0
        # |y/r| from NumPy's pairwise sum of squares, the bits of np.linalg.norm
        norm = math.sqrt(np.add.reduce(np.square(np.divide(y, r))))
        return r**self.d * ball_covariance_radial(self.d, norm)

    def line_integral(self, mean, quad, seeds=()):
        """Over psi in [0, pi/2]: the lines at distance r cos psi from the centre cut chords
        c = 2r sin psi, with weight Per A_(d-1) cos^(d-2) psi sin psi dpsi.  In d = 1, the one
        chord of length 2r."""
        d, ell = self.d, self.geometry.support_radius
        if d == 1:
            return _one_chord(mean, ell)
        weight = self.geometry.perimeter * kernel.unit_sphere_area(d - 1)

        def per_angle(psi):  # one piece a node: each row of means times its weight
            sin = np.sin(psi)
            c = ell * sin
            return (mean(c, c).T * (weight * np.cos(psi) ** (d - 2) * sin)).T

        return integrate_1d(per_angle, 0.0, 0.5 * math.pi, quad, points=seeds)

    def scale_seeds(self, ts):
        """The kernels of H and R turn over at c ~ t and decay as powers beyond it: a
        ladder of chords t 4^k up to the diameter resolves that layer before the first round.
        The weight and the kernels peak inside (0, pi/2), most sharply in high d, so the
        quarters psi = k pi/8 are seeds too."""
        if self.d == 1:
            return []
        ell = self.geometry.support_radius
        seeds = {k * math.pi / 8.0 for k in (1, 2, 3)}
        for t in ts:
            c = float(t)
            while c < ell:
                seeds.add(math.asin(c / ell))
                c *= 4.0
        return sorted(seeds)

    def directional_variation(self, us):
        d = self.d
        return np.full(len(us), 2.0 * kernel.unit_ball_volume(d - 1) * self.radius ** (d - 1) if d >= 2 else 2.0)

    def gamma(self, s, quad):
        """gamma(2r s) = r^(d-1) gamma_B(2s), with gamma_B(2s) = A_d w_{d-1} / s *
        int_0^{asin s} (cos - cos^d), in floats for a float s."""
        if self.gamma_vanishes:
            return 0.0 * s
        d = self.d
        w_dm1 = kernel.unit_ball_volume(d - 1)
        return self.radius ** (d - 1) * (kernel.unit_sphere_area(d) * w_dm1 * kernel.cos_power_deficit(d, s) / s)


UnitBall = Ball  # a second name: UnitBall(d) is Ball(d), the unit ball


def Interval(a: float, b: float) -> Ball:
    """The interval [a, b] as the 1-ball of radius (b - a)/2: its one chord, 2 (b - a)/2, is
    b - a exactly, and nothing heatcov computes depends on where it lies."""
    a, b = _real(a, "an interval end"), _real(b, "an interval end")
    if not (-math.inf < a < b < math.inf and b - a < math.inf):
        raise InvalidShapeError(f"an interval needs finite a < b with a finite length, got [{a!r}, {b!r}]")
    return Ball(1, (b - a) / 2.0)


def Rectangle(h1: float, h2: float) -> ConvexPolygon:
    """The rectangle [-h1, h1] x [-h2, h2]: the convex polygon of its corners, with ``half_widths`` (h1, h2)."""
    h1, h2 = _real(h1, "a rectangle half-width"), _real(h2, "a rectangle half-width")
    if not (0.0 < h1 < math.inf and 0.0 < h2 < math.inf):
        raise InvalidShapeError("rectangle half-widths must be positive and finite")
    return ConvexPolygon([[h1, -h2], [h1, h2], [-h1, h2], [-h1, -h2]])


@dataclass(frozen=True)
class ConvexPolygon(Shape):
    """Convex polygon with counterclockwise vertices; collinear points dropped.

    The constructor stores what it measured: ``vertex_array`` (read-only), ``edge_directions``,
    ``geometry`` and ``half_widths``, for an axis-aligned box (four edges, each with an exactly zero
    x or y component) half the extent of its vertices on each axis, whose g is the closed form
    (2 h1 - |y1|)_+ (2 h2 - |y2|)_+, else None.  ``min_width``, ``first_breakpoint`` and the seed
    directions read one cached vertex-pair table, ``_diff`` (v_i - v_j), and form cross products with the
    edges as they read it; ``chord_table`` and ``covariance_at`` read none.  The rest derives from its chords.
    For u = (cos theta, sin theta) and n = (-sin theta, cos theta), the chord length c(x) of the
    line x n + R u is linear between the offsets x of the vertices, where the two boundary chains
    between the extreme offsets merge (``chord_table``, ``covariance_at``).  So ``line_integral``
    is one theta-integral over [0, pi), doubled for -u, of exact sums over the linear pieces of c;
    with ell the diameter and int int that measure: g(r u) = int (c - r)_+ dx,
    |Omega| - H(t) = (t/2pi) int int asinh(c/t), gamma(r) = (1/r) int int (r - c)_+,
    int g = (1/6) int int c^3, R(t) = (1/2pi) int int [asinh(ell/t) - asinh(c/t)
    - (ell - c)/sqrt(t^2 + ell^2)] and int_0^1 gamma(ell s)/s ds = int int [ln(ell/c) - 1 + c/ell]
    (the d = 2 kernels of ``kernel.chord_kernels``).
    """

    vertices: tuple = field()
    geometry: ShapeGeometry = field(init=False, repr=False, compare=False, default=None)
    half_widths: tuple = field(init=False, repr=False, compare=False, default=None)

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
        # tolerances relative to the diameter, so that a scaled copy is valid when the shape is;
        # a size whose squares leave the floats is rejected there, before any other product
        with np.errstate(over="ignore"):
            raw = pts[:, None, :] - pts
            diam = _diameter(raw)
        if np.any(np.linalg.norm(pts - pts[_successor(len(pts))], axis=1) <= 1e-12 * diam):
            raise InvalidShapeError("polygon has a repeated vertex: an edge at most 1e-12 of its diameter long")
        # drop collinear vertices, then demand strict convexity and CCW order
        dropped = np.abs(_turns(pts)) <= 1e-12 * diam * diam
        kept = pts[~dropped]
        if len(kept) < 3:
            raise InvalidShapeError("polygon is degenerate after removing collinear points")
        if np.any(_turns(kept) <= 0):
            raise InvalidShapeError("polygon must be convex with counterclockwise orientation")
        try:  # far from the origin the shoelace's products overflow, and fsum meets inf - inf
            with np.errstate(over="ignore", invalid="ignore"):
                area = _polygon_area(kept)
        except (OverflowError, ValueError):
            area = math.inf
        if not 0.0 < area < math.inf:
            raise InvalidShapeError(f"a polygon of diameter {diam:.6g} and area {area:.6g} needs a finite positive area")
        if len(kept) < len(pts):  # a dropped vertex may have been the farthest
            diam = _diameter(raw, dropped)
        edges = kept[_successor(len(kept))] - kept  # e_j = v_(j+1) - v_j
        kept.flags.writeable = edges.flags.writeable = False
        geo = ShapeGeometry(area, _perimeter(kept, edges), diam, dim=2)
        box = len(kept) == 4 and all(dx == 0.0 or dy == 0.0 for dx, dy in edges.tolist())  # dx * dy can underflow
        half_widths = tuple((0.5 * (kept.max(axis=0) - kept.min(axis=0))).tolist()) if box else None
        for name, value in [("vertices", tuple(tuple(p) for p in kept)), ("vertex_array", kept),
                            ("edge_directions", edges), ("geometry", geo), ("half_widths", half_widths)]:
            object.__setattr__(self, name, value)

    def directional_variation(self, us):
        edges = self.edge_directions
        # outward normal of a CCW edge (dx, dy) is (dy, -dx); |n.u|*len folds
        # the edge length into the unnormalized normal
        return np.sum(np.abs(edges[:, 1] * us[:, :1] - edges[:, 0] * us[:, 1:]), axis=1)

    @cached_property
    def min_width(self) -> float:
        """The least over the edges of the greatest distance of a vertex from the edge's line."""
        return float(self._segments[1].max(axis=0).min())  # [vertex i, edge j]

    @cached_property
    def _diff(self) -> np.ndarray:
        """The one vertex-pair table of the polygon, (n, n, 2): diff[i, j] = v_i - v_j."""
        return self.vertex_array[:, None, :] - self.vertex_array

    @cached_property
    def _segments(self) -> tuple:
        """Entry [i, j] is for edge_j - v_i, a + t d for t in [0, 1] with a = v_j - v_i = diff[j, i] and
        d = e_j: (|d|^2 per edge, the distance |a x d| / |d| of the line from 0)."""
        (ax, ay), (dx, dy) = self._diff.T, self.edge_directions.T
        dd = dx * dx + dy * dy
        return dd, np.abs(ax * dy - ay * dx) / np.sqrt(dd)

    def _feet(self) -> np.ndarray:
        """Entry [i, j] is the t nearest 0 of ``_segments``' a + t d, -(a . d) / |d|^2, formed where read."""
        (ax, ay), (dx, dy) = self._diff.T, self.edge_directions.T
        return -(ax * dx + ay * dy) / self._segments[0]

    @cached_property
    def first_breakpoint(self) -> float:
        """r_1, the least distance from a vertex to an edge not incident to it: no vertex of
        Omega or Omega + r u crosses an edge of the other before, so g is quadratic in r on
        [0, r_1] along every ray."""
        diff, t, (dx, dy) = self._diff, np.clip(self._feet(), 0.0, 1.0), self.edge_directions.T
        dist, i = np.hypot(diff[..., 0].T + t * dx, diff[..., 1].T + t * dy), np.arange(len(diff))
        dist[i, i] = dist[_successor(len(i)), i] = np.inf  # v_i is on the edges i and i - 1
        return float(dist.min())

    @cached_property
    def _order_changes(self) -> list:
        """Directions of v_j - v_i in [0, pi), where the order of the vertex offsets changes.

        Between two of them every chord-table integrand is analytic in theta.
        They are rounded to 12 decimals, so that a regular polygon's equal
        directions give n seeds, not n(n - 1)/2.
        """
        d = self._diff[np.tril_indices(len(self.vertices), -1)]  # v_j - v_i for i < j
        return sorted(set(np.round(np.arctan2(d[:, 1], d[:, 0]) % math.pi, 12).tolist()))

    def chord_table(self, thetas) -> tuple:
        """Vertex offsets and chord lengths for each direction theta of a 1-D array.

        Returns (x, c) as (m, n) arrays: row i holds the offsets of the vertices along n,
        relative to vertex 0 and sorted, and the chord lengths in direction u through them,
        c linear in between: ``covariance_at``'s walk, merged by a stable sort of each row,
        so O(n log n).  The extreme chords are exactly 0, or the length of an edge parallel to u.
        """
        thetas = np.asarray(thetas, dtype=float).reshape(-1)
        (xs, ys), (ex, ey), n = self.vertex_array.T, self.edge_directions.T, len(self.vertices)
        rx, ry = xs - xs[0], ys - ys[0]  # v_i - v_0
        cos, sin, rows = np.cos(thetas)[:, None], np.sin(thetas)[:, None], np.arange(len(thetas))[:, None]
        off = ry * cos - rx * sin
        order = np.argsort(off, axis=1, kind="stable")
        x, steps = np.take_along_axis(off, order, axis=1), (order - order[:, :1]) % n
        up, low = steps <= steps[:, -1:], (steps >= steps[:, -1:]) | (steps == 0)  # the extremes are on both
        # a vertex's chord ends on the other chain, on the edge from its last vertex sorted at or below
        # toward greater offsets: the lower chain rises as the index falls, the upper as it rises
        last_low, last_up = (np.maximum.accumulate(np.where(chain, np.arange(n), 0), axis=1) for chain in (low, up))
        lower = np.take_along_axis(order, np.where(up, last_low, last_up), axis=1)
        upper = (lower + np.where(up, -1, 1)) % n
        edge, near = np.where(up, upper, lower), np.where(x - off[rows, lower] <= off[rows, upper] - x, lower, upper)
        den, along = cos * ey[edge] - sin * ex[edge], cos * (rx[order] - rx[near]) + sin * (ry[order] - ry[near])
        with np.errstate(divide="ignore", invalid="ignore"):  # u along the edge, or a vertex level with its nearer end
            c = np.where((den == 0.0) | (x == off[rows, near]), np.abs(along),
                         np.abs(((xs[order] - xs[near]) * ey[edge] - (ys[order] - ys[near]) * ex[edge]) / den))
        # a vertex level with an extreme one shares its chord: the edge parallel to u
        c[:, [0, -1]] = np.where(x[:, [1, -2]] == x[:, [0, -1]], c[:, [1, -2]], c[:, [0, -1]])
        return x, c

    def line_integral(self, mean, quad, seeds=()):
        """Twice int_0^pi sum over the pieces of c of width * mean(lo, hi) dtheta.

        The panels are seeded where the offsets change order and at the angles
        ``seeds``; the chord table and mean see the directions in chunks of at most
        ``_PAIR_ENTRIES`` entries, so that memory stays bounded on polygons of any size.
        """
        step = max(1, _PAIR_ENTRIES // len(self.vertices))

        def per_direction(thetas):
            parts = []
            for rows in np.split(thetas, range(step, len(thetas), step)):
                x, c = self.chord_table(rows)
                w, lo, hi = np.diff(x, axis=1), np.minimum(c[:, :-1], c[:, 1:]), np.maximum(c[:, :-1], c[:, 1:])
                with np.errstate(divide="ignore", invalid="ignore"):
                    parts.append(_piece_sum(w, mean(lo, hi)))
            return parts[0] if len(parts) == 1 else np.concatenate(parts)

        value, err = integrate_1d(per_direction, 0.0, math.pi, quad, points=[*self._order_changes, *seeds])
        return 2.0 * value, 2.0 * err

    def support_radius_at(self, theta):
        """The longest chord in direction theta."""
        return float(self.chord_table([theta])[1].max())

    def _circle_crossing_kinks(self, r: float) -> list:
        """Angles mod pi where the circle of radius r crosses a segment of ``_segments``
        (there the chord through a vertex is r long), less the ``_order_changes``."""
        (dd, h), foot, a, d = self._segments, self._feet(), self._diff.transpose(1, 0, 2), self.edge_directions
        half = np.sqrt(np.maximum((r - h) * (r + h), 0.0) / dd)  # |a + t d| = r at foot -+ half
        ts = (foot - half, foot + half)
        p = np.concatenate([(a + t[..., None] * d)[(r >= h) & (0.0 <= t) & (t <= 1.0)] for t in ts])
        angles = np.arctan2(p[:, 1], p[:, 0]) % math.pi
        return angles[~np.isin(np.round(angles, 12), self._order_changes)].tolist()

    @cached_property
    def vertex_angle_sum(self) -> float:
        """The sum over the vertices of 1 + (pi - alpha) cot alpha, alpha the interior angle.

        With phi = pi - alpha, the turn from edge e to edge f, a term is 1 - phi cot phi, taken as
        (2 phi sin^2(phi/2) - (phi - sin phi))/sin phi below pi/2, where that would cancel, and
        as 1 - phi (e . f)/(e x f) from there up.  e x f and e . f are rounded once from exact
        products of the coordinates, as rounded edges lose digits at a nearly flat or sharp vertex."""
        (ax, ay), (bx, by), (cx, cy) = (self.vertex_array[_successor(len(self.vertices), k)].T for k in (0, 1, 2))
        cross = _exact_dots([ax, -ay, bx, -by, cx, -cy], [by, bx, cy, cx, ay, ax])  # a x b + b x c + c x a
        dot = _exact_dots([bx, -bx, -ax, ax, by, -by, -ay, ay], [cx, bx, cx, bx, cy, by, cy, by])
        phi = np.arctan2(cross, dot)
        flat = (2.0 * phi * np.sin(0.5 * phi) ** 2 - kernel._a_minus_sin(phi)) / np.sin(phi)
        return math.fsum(np.where(phi < 0.5 * math.pi, flat, 1.0 - phi * dot / cross).tolist())

    def gamma(self, s, quad):
        """gamma(r) = r int int m_r(c), m_r the mean of (r - c)_+ / r^2 over a piece: (r/2)
        ``vertex_angle_sum`` up to r_1 = ``first_breakpoint`` (README, *The chord measure*), and
        beyond r_1 one line integral for each r, seeded at its ``_circle_crossing_kinks``."""
        r = self.geometry.support_radius * np.atleast_1d(s)
        out = r * (0.5 * self.vertex_angle_sum)
        for i in np.flatnonzero(r > self.first_breakpoint).tolist():
            far = float(r[i])

            def mean(lo, hi):
                part = ((far - lo) / far) ** 2 / (2.0 * (hi - lo))
                return np.where(hi <= far, (1.0 - (lo + hi) / (2.0 * far)) / far, np.where(lo < far, part, 0.0))

            value, _ = self.line_integral(mean, quad, seeds=self._circle_crossing_kinks(far))
            out[i] = far * value
        return out.reshape(np.shape(s))

    def gamma_weighted_integral(self, quad):
        ell = self.geometry.support_radius

        def mean(lo, hi):
            # the mean of ln c is ln hi - 1 + log1p(z)/z with z = (hi - lo)/lo, or ln hi - 1 if lo = 0
            z = (hi - lo) / lo
            log_ratio = np.where(lo > 0.0, np.where(z > 0.0, np.log1p(z) / z, 1.0), 0.0)
            return np.log(ell / hi) - log_ratio + 0.5 * (lo + hi) / ell

        return self.line_integral(mean, quad)

    @cached_property
    def _chord_tables(self) -> tuple:
        """The chord walk's six flat lists: the vertices' x and y, the same less the least vertex (by x,
        then y), and the edges' x and y."""
        verts = self.vertex_array
        pts = verts.tolist()
        return (*verts.T.tolist(), *(verts - verts[pts.index(min(pts))]).T.tolist(), *self.edge_directions.T.tolist())

    def covariance_at(self, y):
        """g(r u) = int (c_u(x) - r)_+ dx (see ``chord_table``), in floats.

        The offsets s of the vertices along u^perp split the boundary, at the least
        and the greatest offset, into an upper chain (counterclockwise) and a lower
        one (clockwise).  Walking both at once, c is linear between the merged
        offsets, and each piece of positive width adds its width times the mean of
        (c - r)_+; an edge parallel to u is a piece of zero width and adds nothing.
        The chord through a vertex v to the edge pq of the other chain is
        |(v - m) x (q - p)| / |u x (q - p)|, m the end of the edge nearer in offset: on a
        thin polygon it keeps its digits where heights measured from one origin would
        cancel.  O(n) per point; g(0) = |Omega| exactly.  A box takes its closed form.
        """
        if self.half_widths is not None:
            (h1, h2), (y0, y1) = self.half_widths, y
            return max(0.0, 2.0 * h1 - abs(y0)) * max(0.0, 2.0 * h2 - abs(y1))
        vol, ell = self.geometry.volume, self.geometry.support_radius
        xs, ys, rxs, rys, exs, eys = self._chord_tables
        (y0, y1), n = y, len(xs)
        m = max(abs(y0), abs(y1))  # y / m first, so that u is a unit vector for subnormal y
        h = math.hypot(y0 / m, y1 / m) if m else 1.0
        r = m * h
        if r == 0.0 or r >= ell:
            return vol if r == 0.0 else 0.0
        ux, uy = y0 / m / h, y1 / m / h
        s = [ux * py - uy * px for px, py in zip(rxs, rys)]
        # each chain's last two vertices, a0 a1 counterclockwise and b0 b1 clockwise from the least offset
        a0 = b0 = s.index(min(s))
        a1, b1, top = (a0 + 1) % n, (a0 - 1) % n, max(s)
        total, x, c = 0.0, s[a0], None
        while x < top:
            while s[a1] <= x:  # skip pieces of zero (or, by rounding, negative) width
                a0, a1 = a1, (a1 + 1) % n
            while s[b1] <= x:
                b0, b1 = b1, (b1 - 1) % n
            s0, s1, t0, t1 = s[a0], s[a1], s[b0], s[b1]
            if c is None:  # the chord at the least offset, between two vertices at s0 = t0 = x
                c = abs(ux * (rxs[a0] - rxs[b0]) + uy * (rys[a0] - rys[b0])) if a0 != b0 else 0.0
            # a vertex of one chain across an edge of the other, from the edge's nearer end:
            # the lower chain runs along its edges backwards
            if s1 <= t1:
                z, v, e, end = s1, a1, b1, int(s1 - t0 <= t1 - s1)
            else:
                z, v, e, end = t1, b1, a0, int(t1 - s0 > s1 - t1)
            ex, ey, near = exs[e], eys[e], (e + end) % n
            den = ux * ey - uy * ex  # nonzero on a piece of positive width, barring rounding
            if den and s1 != t1:  # (v - m) x e, with the roundings of chord_table's
                c1 = abs(((xs[v] - xs[near]) * ey - (ys[v] - ys[near]) * ex) / den)
            else:  # u along the edge, or v level with its nearer end
                c1 = abs(ux * (rxs[v] - rxs[near]) + uy * (rys[v] - rys[near]))
            lo, hi = (c, c1) if c <= c1 else (c1, c)
            if hi > r:
                total += (z - x) * (0.5 * (lo + hi) - r if lo >= r else (hi - r) ** 2 / (2.0 * (hi - lo)))
            x, c = z, c1
        return total if total > 1e-14 * vol else 0.0


def _real(x, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, Real):
        raise InvalidShapeError(f"{what} must be a real number, got {x!r}")
    return float(x)


def shape_from_json(obj) -> Shape:
    """Build a shape from the CLI's JSON object format, or raise InvalidShapeError."""
    if not isinstance(obj, dict):
        raise InvalidShapeError(f"a shape must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    reads = {"ball": {"dim"}, "rectangle": {"half_widths"}, "polygon": {"vertices"}, "interval": {"a", "b"}}
    if not isinstance(kind, str) or kind not in reads:
        raise InvalidShapeError(f"unknown shape kind {kind!r}")
    unknown = sorted(obj.keys() - reads[kind] - {"kind"})
    if unknown:
        raise InvalidShapeError(f"{kind} shape has the unknown key {unknown[0]!r}")
    try:
        if kind == "ball":
            return Ball(obj["dim"])
        if kind == "rectangle":
            if len(obj["half_widths"]) != 2:
                raise InvalidShapeError("rectangle needs exactly two half-widths")
            return Rectangle(*obj["half_widths"])
        if kind == "polygon":
            return ConvexPolygon(obj["vertices"])
        return Interval(obj["a"], obj["b"])
    except KeyError as exc:
        raise InvalidShapeError(f"{kind} shape needs the key {exc}") from None
    except TypeError as exc:
        raise InvalidShapeError(f"malformed {kind} shape: {exc}") from None


# ---------------------------------------------------------------------------
# Entry points: check the arguments, then ask the shape
# ---------------------------------------------------------------------------

def geometry(shape: Shape) -> ShapeGeometry:
    """Exact volume, perimeter, and support radius (= diameter)."""
    return shape.geometry


def _rows(x, dim: int, what: str):
    """(x as an (n, dim) array, whether x was a single point)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    rows = x.reshape(1, -1) if single else x
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise DimensionMismatchError(f"{what} has shape {x.shape}, shape has dimension {dim}")
    if not (all(map(math.isfinite, rows[0].tolist())) if single else np.isfinite(rows).all()):
        raise DomainError(f"{what} must be finite, got {x}")
    return rows, single


def directional_variation(shape: Shape, u):
    """Total variation of the indicator (twice the shadow width) in one unit direction u,
    a float, or in each row of an (n, dim) array."""
    us, single = _rows(u, shape.dim, "direction")
    norms = np.linalg.norm(us, axis=1)
    if np.abs(norms - 1.0).max(initial=0.0) > 1e-12:
        raise NonUnitVectorError(f"|u| = {norms[np.argmax(np.abs(norms - 1.0))]} is not 1")
    values = shape.directional_variation(us)
    return float(values[0]) if single else values


def covariance(shape: Shape, y):
    """Set covariance g(y) = |Omega intersect (Omega + y)| at one point, a float, or at
    each row of an (n, dim) array."""
    ys, single = _rows(y, shape.dim, "point")
    return shape.covariance_at(ys[0].tolist()) if single else np.array([shape.covariance_at(p) for p in ys.tolist()])


def support_radius_at(shape: Shape, theta: float) -> float:
    """Distance from the origin to the support boundary in direction theta."""
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta}")
    return shape.support_radius_at(theta)


def gamma(shape: Shape, s, quad: QuadSpec = QuadSpec()):
    """gamma(ell * s): spherical deficit between V_u/2 and the covariance slope, for
    one s in (0, 1], a float, or for each s of a 1-D array."""
    single = np.ndim(s) == 0
    ss = float(s) if single else np.asarray(s, dtype=float).reshape(-1)
    if not (0.0 < ss <= 1.0 if single else ((0.0 < ss) & (ss <= 1.0)).all()):
        raise DomainError(f"s must lie in (0, 1], got {s}")
    values = shape.gamma(ss, quad)  # a float, or a 0-d array, for one s
    low = float(values) if single else values.min(initial=0.0)
    if low < -1e-8:
        raise QuadratureError(f"gamma({ss if single else ss[values.argmin()]}) = {low} < 0 violates the slope bound")
    return low if single else values


def gamma_weighted_integral(shape: Shape, quad: QuadSpec = QuadSpec()):
    """Integral over (0, 1] of gamma(ell*s)/s, as (value, err_estimate)."""
    return shape.gamma_weighted_integral(quad)


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------

def _piece_sum(weights: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Sum over axis 1 of the (nodes, pieces) weights times the piece means, which may
    carry a last axis of columns."""
    return np.sum(weights.reshape(weights.shape + (1,) * (means.ndim - 2)) * means, axis=1)


def _one_chord(mean: Callable, length: float) -> tuple:
    """(value, err) of ``line_integral`` on a 1-D set: its one chord, as u and as -u."""
    c = np.array([[length]])
    value = 2.0 * mean(c, c)[0, 0]
    return (float(value), 0.0) if np.ndim(value) == 0 else (value, np.zeros_like(value))


def _polygon_area(verts: np.ndarray) -> float:
    """Shoelace area of the float vertices, correctly rounded.

    Each product x_i y_j is split without error into its rounded value and
    its rounding error (Dekker's two-product), and fsum adds the 4n parts
    exactly, so neither the choice of vertex 0 nor a translation changes a bit.
    """
    (x, y), nxt = verts.T, _successor(len(verts))
    return 0.5 * math.fsum(np.concatenate([*_two_product(x, y[nxt]), *_two_product(-x[nxt], y)]).tolist())


def _perimeter(verts: np.ndarray, edges: np.ndarray) -> float:
    """The sum of the exact lengths |v_(j+1) - v_j| of the float vertices, within half an ulp.

    Each hypot length L of a rounded edge e = (x, y) carries the correction (Q - L^2)/(2L) into
    fsum, Q = |e + t|^2 = x^2 + y^2 + 2 (x t_x + y t_y) + |t|^2 with t = (v_(j+1) - v_j) - e the
    TwoSum error of the edge; Q - L^2 is exact before its one rounding (``_exact_dots``).  An edge
    with a nonzero component below 2^-485, whose square loses bits to underflow, keeps its plain L.
    """
    after = verts[_successor(len(verts))]
    back = edges - after  # TwoSum of v_(j+1) + (-v_j), whose rounded sum is e
    t = (after - (edges - back)) - (verts + back)
    (x, y), (tx, ty) = edges.T, t.T
    lengths = np.array(list(map(math.hypot, x.tolist(), y.tolist())))
    excess = _exact_dots([x, y, 2.0 * x, 2.0 * y, tx, ty, -lengths], [x, y, tx, ty, tx, ty, lengths])
    exact = ((np.abs(edges) >= 2.0**-485) | (edges == 0.0)).all(axis=1)
    return math.fsum([*lengths.tolist(), *np.where(exact, excess / (2.0 * lengths), 0.0).tolist()])


def _exact_dots(p: list, q: list) -> np.ndarray:
    """The sum over k of p[k][i] q[k][i] for each i, correctly rounded (``_two_product``, fsum)."""
    return np.array([math.fsum(col) for col in np.concatenate(_two_product(np.array(p), np.array(q))).T.tolist()])


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple:
    """(p, e) with p = a * b rounded and p + e = a * b exactly, barring over- and underflow."""
    def split(v):  # v = hi + lo, each with at most 26 significant bits
        c = 134217729.0 * v  # 2^27 + 1
        hi = c - (c - v)
        return hi, v - hi

    p = a * b
    (a_hi, a_lo), (b_hi, b_lo) = split(a), split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _successor(n: int, k: int = 1) -> np.ndarray:
    """The index of the point k on in a closed polyline of n points: pts[_successor(n, k)] is pts rolled by -k."""
    return (np.arange(n) + k) % n


def _diameter(diff: np.ndarray, dropped=slice(0)) -> float:
    """The greatest |v_i - v_j| of a table diff[i, j] = v_i - v_j over the vertices not in ``dropped`` (an index or a
    mask; none by default): the greatest math.hypot of the pairs whose squared distance rounds within 1e-15 of the
    greatest, so that hypot decides a near tie (the diagonals of a rectangle).  A squared distance that overflows,
    or a greatest one of 0, raises InvalidShapeError."""
    square = diff[..., 0] ** 2 + diff[..., 1] ** 2
    square[dropped] = square[:, dropped] = 0.0
    top = float(square.max())
    if not 0.0 < top < math.inf:
        size = float(np.hypot(diff[..., 0], diff[..., 1]).max())
        raise InvalidShapeError(f"a polygon of diameter {size:.6g} needs a finite positive squared diameter")
    return max(map(math.hypot, *diff[square >= top * (1.0 - 1e-15)].T.tolist()))


def _turns(pts: np.ndarray) -> np.ndarray:
    """(b - a) x (c - a) at each vertex b of a closed polyline, a and c its neighbours."""
    a, c = pts[_successor(len(pts), -1)], pts[_successor(len(pts))]
    return (pts[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (pts[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])


def ball_covariance_radial(d: int, r: float) -> float:
    """g_B(r e) for the unit ball in R^d at a radius r, zero for r >= 2, in float arithmetic.

    Two caps of height 1 - s, s = r/2, give g_B(2s) = 2 w_{d-1} int_{asin s}^{pi/2} cos^d
    = w_d - 2 w_{d-1} (s - M_d) with M_d = int_0^{asin s} (cos - cos^d).
    """
    if r < 0.0:
        raise DomainError("radius must be nonnegative")
    if r >= 2.0:
        return 0.0
    if d == 1:
        return 2.0 - r
    s = r / 2.0
    cap_gap = s - kernel.cos_power_deficit(d, s)
    # near r = 2 the difference is rounding noise of either sign
    return max(0.0, kernel.unit_ball_volume(d) - 2.0 * kernel.unit_ball_volume(d - 1) * cap_gap)
