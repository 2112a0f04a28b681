"""Shape descriptors, exact geometry, and set covariance evaluators.

Supported shapes are balls of any radius (in any dimension up to the
package guard; an interval is a 1-ball) and convex polygons; an
axis-aligned rectangle is the convex polygon of its corners, with exact
geometry and covariance.
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

WORK_ROWS = 4  # float rows of a Monte Carlo block's workspace
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

    Subclasses implement the abstract members; the rest have defaults for
    shapes without the structure they describe.  A shape whose gamma does not
    vanish also implements ``gamma_weighted_integral(quad)``, the (value, err)
    of int_0^1 gamma(ell s)/s ds.  Arguments arrive checked: a direction is a
    unit vector and a point has the shape's dimension.
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
    def heat_hits(self, rng: np.random.Generator, n: int, t: float, work: np.ndarray) -> int:
        """How many of n draws of X + t W land in the shape, X uniform on it and W ~ p_1.

        work, a C-contiguous float array of WORK_ROWS rows of at least max(n, 2)
        columns, is scratch that a block may overwrite.
        """

    @abstractmethod
    def shift_hits(self, rng: np.random.Generator, n: int, y: np.ndarray, work: np.ndarray) -> int:
        """How many of n draws of X - y land in the shape, X uniform on it; see ``heat_hits``."""

    @abstractmethod
    def gamma(self, s, quad: QuadSpec):
        """gamma(ell * s) for s in (0, 1]: a float (or a 0-d array) for a float, as
        ``kernel.cos_power_deficit`` takes it, or an array for each s of a 1-D array."""

    def support_radius_at(self, theta: float) -> float:
        """Distance from the origin to the support boundary in direction theta."""
        return self.geometry.support_radius


@dataclass(frozen=True)
class Ball(Shape):
    """The ball of radius r in R^d.  Every member scales from the unit ball B: with
    |Omega| = r^d w_d, chords 2r sin psi of weight r^(d-1), g(y) = r^d g_B(y/r) and
    gamma(2r s) = r^(d-1) gamma_B(2s).  At r = 1 each factor is an exact multiply or divide by
    1.0.  The ball has no centre, as every quantity heatcov computes is translation invariant:
    ``Interval(a, b)`` is the 1-ball of radius (b - a)/2."""

    d: int
    radius: float = 1.0

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

    @cached_property
    def geometry(self) -> ShapeGeometry:
        d, r = self.d, self.radius
        return ShapeGeometry(
            volume=r**d * kernel.unit_ball_volume(d), perimeter=r ** (d - 1) * kernel.unit_sphere_area(d),
            support_radius=2.0 * r, dim=d,
        )

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

    # The ball is rotation invariant, so a block draws three uniforms a sample, which give
    # the invariants its hit test sees, instead of d-vectors, and it runs the unit ball B's
    # test at t/radius and y/radius: see heatcov.mc.

    def _draw_step(self, rng, s, b):
        """Draw the invariants of W ~ p_1 into the rows s and b: the standard Cauchy
        S = W_1 and B ~ Beta((d - 1)/2, 1), with |W_perp|^2 = (1 + S^2) B/(1 - B)."""
        _draw_cauchy(rng, s)
        if self.d == 1:
            b.fill(0.0)
        else:
            rng.random(out=b)
            b **= 2.0 / (self.d - 1)

    def _draw_axis(self, rng, c, b):
        """Draw Theta_1, the first coordinate of a uniform unit vector, into the row c, with
        b as scratch: cos psi sqrt(B') for psi uniform on [0, pi) and B' ~ Beta(1, (d - 2)/2)."""
        rng.random(out=c)
        if self.d == 1:
            c -= 0.5
            np.copysign(1.0, c, out=c)
            return
        c *= 0.5 * math.pi
        np.tan(c, out=c)  # s = tan(psi/2), cos psi = (1 - s^2)/(1 + s^2)
        c *= c
        np.add(c, 1.0, out=b)
        np.subtract(1.0, c, out=c)
        c /= b
        if self.d > 2:
            rng.random(out=b)
            b **= 2.0 / (self.d - 2)
            np.subtract(1.0, b, out=b)
            c *= np.sqrt(b, out=b)

    @np.errstate(over="ignore", invalid="ignore")
    def heat_hits(self, rng, n, t, work):
        # X = r e_1 in B: X + t W is in B iff (r + t S)^2 + t^2 (1 + S^2) B/(1 - B) <= 1,
        # tested times 1 - B, so that a B of 1 is a miss; so is inf or nan at huge t
        t /= self.radius
        r, s, b = work[:3, :n]
        rng.random(out=r)
        r **= 1.0 / self.d
        self._draw_step(rng, s, b)
        s *= t
        r += s
        r *= r
        s *= s
        s += t * t
        s *= b
        np.subtract(1.0, b, out=b)
        r *= b
        r += s
        return int(np.count_nonzero(np.less_equal(r, b, out=s.view(bool)[:n])))

    def shift_hits(self, rng, n, y, work):
        # with y for y/radius, y = |y| e_1 and X = r Theta in B: X - y is in B iff r (r - 2|y| Theta_1) <= 1 - |y|^2
        if max(map(abs, y)) >= 2.0 * self.radius:  # beyond the diameter, before |y|^2 can overflow
            return 0
        r, c, b = work[:3, :n]
        rng.random(out=r)
        r **= 1.0 / self.d
        self._draw_axis(rng, c, b)
        norm = float(np.linalg.norm(y / self.radius))
        c *= 2.0 * norm
        np.subtract(r, c, out=c)
        c *= r
        return int(np.count_nonzero(np.less_equal(c, 1.0 - norm * norm, out=b.view(bool)[:n])))

    def gamma(self, s, quad):
        """gamma(2r s) = r^(d-1) gamma_B(2s), with gamma_B(2s) = A_d w_{d-1} / s *
        int_0^{asin s} (cos - cos^d), in floats for a float s."""
        if self.gamma_vanishes:
            return 0.0 * s
        d = self.d
        w_dm1 = kernel.unit_ball_volume(d - 1)
        return self.radius ** (d - 1) * (kernel.unit_sphere_area(d) * w_dm1 * kernel.cos_power_deficit(d, s) / s)

    def gamma_weighted_integral(self, quad):
        """Seeds s = 1 - 4^-k, k = 1..4, in even d, where gamma_B(2s) has a (1 - s)^((d+1)/2) term."""
        seeds = [1.0 - 4.0**-k for k in range(1, 5)] if self.d % 2 == 0 else []
        return integrate_1d(lambda s: gamma(self, s, quad) / s, 0.0, 1.0, quad, points=seeds)


UnitBall = Ball  # a second name: UnitBall(d) is Ball(d), the unit ball


def Interval(a: float, b: float) -> Ball:
    """The interval [a, b] as the 1-ball of radius (b - a)/2: its one chord, 2 (b - a)/2, is
    b - a exactly, and nothing heatcov computes depends on where it lies."""
    a, b = _real(a, "an interval end"), _real(b, "an interval end")
    if not (-math.inf < a < b < math.inf and b - a < math.inf):
        raise InvalidShapeError(f"an interval needs finite a < b with a finite length, got [{a!r}, {b!r}]")
    return Ball(1, (b - a) / 2.0)


@dataclass(frozen=True)
class ConvexPolygon(Shape):
    """Convex polygon with counterclockwise vertices; collinear points dropped.

    The rest derives from its chords.  For u = (cos theta, sin theta) and
    n = (-sin theta, cos theta), the chord length c(x) of the line x n + R u is
    linear between the offsets x of the vertices, where the two boundary chains
    between the extreme offsets merge (``chord_table``, ``covariance_at``).  So
    ``line_integral`` is one theta-integral over [0, pi), doubled for -u, of
    exact sums over the linear pieces of c; with ell the diameter and int int
    that measure: g(r u) = int (c - r)_+ dx,
    |Omega| - H(t) = (t/2pi) int int asinh(c/t), gamma(r) = (1/r) int int (r - c)_+,
    int g = (1/6) int int c^3, R(t) = (1/2pi) int int [asinh(ell/t) - asinh(c/t)
    - (ell - c)/sqrt(t^2 + ell^2)] and int_0^1 gamma(ell s)/s ds = int int [ln(ell/c) - 1 + c/ell]
    (the d = 2 kernels of ``kernel.chord_kernels``).
    """

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
            raise InvalidShapeError("polygon has a repeated vertex: an edge at most 1e-12 of its diameter long")
        # drop collinear vertices, then demand strict convexity and CCW order
        kept = pts[np.abs(_turns(pts)) > 1e-12 * diam * diam]
        if len(kept) < 3:
            raise InvalidShapeError("polygon is degenerate after removing collinear points")
        if np.any(_turns(kept) <= 0):
            raise InvalidShapeError("polygon must be convex with counterclockwise orientation")
        object.__setattr__(self, "vertices", tuple(tuple(p) for p in kept))

    @cached_property
    def vertex_array(self) -> np.ndarray:
        """The vertices in counterclockwise order, as a read-only (n, 2) array."""
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

    def directional_variation(self, us):
        edges = self.edge_directions
        # outward normal of a CCW edge (dx, dy) is (dy, -dx); |n.u|*len folds
        # the edge length into the unnormalized normal
        return np.sum(np.abs(edges[:, 1] * us[:, :1] - edges[:, 0] * us[:, 1:]), axis=1)

    def _inside(self, x, y, scratch, planes=None) -> np.ndarray:
        """Membership mask of the points (x, y), in the bytes of scratch, three float rows
        of len(x) that it overwrites: e . p <= c for each (e_x, e_y, c) of ``planes`` (by
        default ``_half_planes``)."""
        lhs, term, mask = scratch
        inside, ok = mask.view(bool)[: len(x)], term.view(bool)[: len(x)]
        inside.fill(True)
        for ex, ey, c in self._half_planes if planes is None else planes:
            np.multiply(x, ex, out=lhs)
            lhs += np.multiply(y, ey, out=term)
            inside &= np.less_equal(lhs, c, out=ok)  # in the bytes of term, spent by then
        return inside

    def heat_hits(self, rng, n, t, work):
        self._sample_rows(rng, work, n)
        _add_planar_step(rng, work[:2, :n], t, _planar_scratch(work, n))
        return self._count_inside(work, n)

    def shift_hits(self, rng, n, y, work):
        # X is inside, so X - y can leave only across an edge with e . y < 0
        self._sample_rows(rng, work, n)
        for row, shift in zip(work[:2, :n], y):
            row -= shift
        y0, y1 = y.tolist()
        planes = [p for p in self._half_planes if p[0] * y0 + p[1] * y1 < 0.0]
        return self._count_inside(work, n, planes)

    def _count_inside(self, work, n, *planes):
        """How many points of the rows work[:2, :n] pass ``_inside``, half of them at a time."""
        scratch = _planar_scratch(work, n)
        return sum(
            int(np.count_nonzero(self._inside(x, y, [row[: len(x)] for row in scratch], *planes)))
            for x, y in np.array_split(work[:2, :n], 2, axis=1)
        )

    def _sample_rows(self, rng, work, n):
        """Draw n uniform points into the rows work[0, :n], work[1, :n] of a workspace,
        overwriting at most the scratch of ``_planar_scratch`` besides: a triangle fan
        from vertex 0, the rows grouped by triangle.

        One multinomial draw splits the n points over the triangles
        v_0 v_i v_{i+1} by area, which is the law of labelling each point on
        its own.  A point is then v_0 + b (v_i - v_0) + a (v_{i+1} - v_i), a <= b
        the order statistics of two uniforms: its barycentric coordinates
        (1 - b, b - a, a) are the spacings of two uniforms, uniform on the simplex.
        A segment is written a half row at a time, b and b p_y in two scratch rows.
        """
        shares, legs = self._fan
        counts = rng.multinomial(n, shares).tolist()
        x, y = work[:2, :n]
        rng.random(out=x)
        rng.random(out=y)
        _, b, product = _planar_scratch(work, n)
        start = 0
        for (px, py, ex, ey), m in zip(legs, counts):
            for lo in range(start, start + m, len(b)):
                hi = min(lo + len(b), start + m)
                a, ys, bs = x[lo:hi], y[lo:hi], b[: hi - lo]
                np.maximum(a, ys, out=bs)
                np.minimum(a, ys, out=a)  # the order statistics a <= b of the two uniforms
                np.multiply(a, ey, out=ys)
                ys += np.multiply(bs, py, out=product[: hi - lo])
                a *= ex  # x last, over a
                bs *= px
                a += bs
            start += m
        x += self.vertex_array[0, 0]
        y += self.vertex_array[0, 1]

    @cached_property
    def _fan(self) -> tuple:
        """(the area shares of the fan triangles v_0 v_i v_{i+1}, and per triangle the
        legs v_i - v_0 and v_{i+1} - v_i as [px, py, ex, ey])."""
        verts = self.vertex_array
        twice_area = _boundary_terms(verts)[1:-1]
        legs = np.column_stack([verts[1:-1] - verts[0], self.edge_directions[1:-1]])
        return twice_area / math.fsum(twice_area), legs.tolist()

    @cached_property
    def min_width(self) -> float:
        """The least over the edges of the greatest distance of a vertex from the edge's line."""
        n = len(self.vertex_array)
        return float(self._segments[5].reshape(n, n).max(axis=0).min())  # [vertex i, edge j]

    @cached_property
    def edge_directions(self) -> np.ndarray:
        """The edge vectors v_{i+1} - v_i."""
        return np.roll(self.vertex_array, -1, axis=0) - self.vertex_array

    @cached_property
    def _half_planes(self) -> list:
        """e = (dy, -dx) is the outward normal of the edge (dx, dy) from v, and c = e . v."""
        verts, edges = self.vertex_array, self.edge_directions
        ex, ey = edges[:, 1], -edges[:, 0]
        return np.column_stack([ex, ey, ex * verts[:, 0] + ey * verts[:, 1]]).tolist()

    @cached_property
    def _segments(self) -> tuple:
        """Row i n + j is edge_j - v_i, a + t d for t in [0, 1]: (a, d, |d|^2, whether v_i is
        off edge j, the t nearest 0, the distance of the line from 0)."""
        v, n = self.vertex_array, len(self.vertex_array)
        i, j = np.divmod(np.arange(n * n), n)
        a, d = v[j] - v[i], self.edge_directions[j]
        dd = np.sum(d * d, axis=1)
        h = np.abs(a[:, 0] * d[:, 1] - a[:, 1] * d[:, 0]) / np.sqrt(dd)
        return a, d, dd, (i != j) & (i != (j + 1) % n), -np.sum(a * d, axis=1) / dd, h

    @cached_property
    def first_breakpoint(self) -> float:
        """r_1, the least distance from a vertex to an edge not incident to it: no vertex of
        Omega or Omega + r u crosses an edge of the other before, so g is quadratic in r on
        [0, r_1] along every ray."""
        a, d, _, apart, foot, _ = self._segments
        return float(np.min(np.hypot(*(a + np.clip(foot, 0.0, 1.0)[:, None] * d)[apart].T)))

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

        Returns (x, c) as (m, n) arrays: row i holds the offsets of the vertices along n,
        relative to vertex 0 and sorted, and the chord lengths in direction u through them,
        c linear in between: ``covariance_at``'s walk, merged by a stable sort of each row,
        so O(n log n).  The extreme chords are exactly 0, or the length of an edge parallel to u.
        """
        thetas = np.asarray(thetas, dtype=float).reshape(-1)
        rel, (ex, ey), n = self.vertex_array - self.vertex_array[0], self.edge_directions.T, len(self.vertices)
        cos, sin, rows = np.cos(thetas)[:, None], np.sin(thetas)[:, None], np.arange(len(thetas))[:, None]
        off = rel[:, 1] * cos - rel[:, 0] * sin
        order = np.argsort(off, axis=1, kind="stable")
        x, steps = np.take_along_axis(off, order, axis=1), (order - order[:, :1]) % n
        up, low = steps <= steps[:, -1:], (steps >= steps[:, -1:]) | (steps == 0)  # the extremes are on both
        # a vertex's chord ends on the other chain, on the edge from its last vertex sorted at or below
        # toward greater offsets: the lower chain rises as the index falls, the upper as it rises
        last_low, last_up = (np.maximum.accumulate(np.where(chain, np.arange(n), 0), axis=1) for chain in (low, up))
        lower = np.take_along_axis(order, np.where(up, last_low, last_up), axis=1)
        upper = (lower + np.where(up, -1, 1)) % n
        edge, near = np.where(up, upper, lower), np.where(x - off[rows, lower] <= off[rows, upper] - x, lower, upper)
        den, d = cos * ey[edge] - sin * ex[edge], rel[order] - rel[near]
        with np.errstate(divide="ignore", invalid="ignore"):  # u along the edge, or a vertex level with its nearer end
            c = np.where((den == 0.0) | (x == off[rows, near]), np.abs(cos * d[..., 0] + sin * d[..., 1]),
                         np.abs(self._chord_tables[2][order, edge, (near - edge) % n] / den))
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
        a, d, dd, _, foot, h = self._segments
        half = np.sqrt(np.maximum((r - h) * (r + h), 0.0) / dd)  # |a + t d| = r at foot -+ half
        ts = (foot - half, foot + half)
        p = np.concatenate([(a + t[:, None] * d)[(r >= h) & (0.0 <= t) & (t <= 1.0)] for t in ts])
        angles = np.arctan2(p[:, 1], p[:, 0]) % math.pi
        return angles[~np.isin(np.round(angles, 12), self._order_changes)].tolist()

    @cached_property
    def vertex_angle_sum(self) -> float:
        """The sum over the vertices of 1 + (pi - alpha) cot alpha, alpha the interior angle.

        With phi = pi - alpha, the turn from edge e to edge f, a term is 1 - phi cot phi, taken as
        (2 phi sin^2(phi/2) - (phi - sin phi))/sin phi below pi/2, where that would cancel, and
        as 1 - phi (e . f)/(e x f) from there up.  e x f and e . f are rounded once from exact
        products of the coordinates, as rounded edges lose digits at a nearly flat or sharp vertex."""
        (ax, ay), (bx, by), (cx, cy) = (np.roll(self.vertex_array, -k, axis=0).T for k in (0, 1, 2))
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
        """For the chord walks: the vertices relative to the least of them (by x, then y) and the
        edges e_j = v_(j+1) - v_j as lists, and (v_i - v_(j+k)) x e_j as an (n, n, 2) array [i, j, k]."""
        verts, edges = self.vertex_array, self.edge_directions
        d = verts[:, None, None, :] - np.stack([verts, np.roll(verts, -1, axis=0)], axis=1)
        areas = d[..., 0] * edges[:, None, 1] - d[..., 1] * edges[:, None, 0]
        pts = verts.tolist()
        ox, oy = min(pts)
        return [(x - ox, y - oy) for x, y in pts], edges.tolist(), areas

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
        cancel.  O(n) per point; g(0) = |Omega| exactly.
        """
        vol, ell = self.geometry.volume, self.geometry.support_radius
        rel, edges, areas = self._chord_tables
        (y0, y1), n = y, len(rel)
        m = max(abs(y0), abs(y1))  # y / m first, so that u is a unit vector for subnormal y
        h = math.hypot(y0 / m, y1 / m) if m else 1.0
        r = m * h
        if r == 0.0 or r >= ell:
            return vol if r == 0.0 else 0.0
        ux, uy = y0 / m / h, y1 / m / h
        s = [ux * py - uy * px for px, py in rel]
        i0, i1 = s.index(min(s)), s.index(max(s))
        k = (i1 - i0) % n  # edges on the upper chain
        s += s
        cycle = [*range(n)] * 2
        up, low = cycle[i0 : i0 + k + 1], cycle[i1 : i1 + n - k + 1][::-1]
        su, sl = s[i0 : i0 + k + 1], s[i1 : i1 + n - k + 1][::-1]
        total, x, i, j, c = 0.0, su[0], 1, 1, None
        while x < su[-1]:
            while su[i] <= x:  # skip pieces of zero (or, by rounding, negative) width
                i += 1
            while sl[j] <= x:
                j += 1
            s0, s1, t0, t1 = su[i - 1], su[i], sl[j - 1], sl[j]
            if c is None:  # the chord at the least offset, between two vertices at s0 = t0 = x
                (ax, ay), (bx, by) = rel[up[i - 1]], rel[low[j - 1]]
                c = abs(ux * (ax - bx) + uy * (ay - by)) if up[i - 1] != low[j - 1] else 0.0
            # a vertex of one chain across an edge of the other, from the edge's nearer end:
            # the lower chain runs along its edges backwards
            if s1 <= t1:
                z, v, e, end = s1, up[i], low[j], int(s1 - t0 <= t1 - s1)
            else:
                z, v, e, end = t1, low[j], up[i - 1], int(t1 - s0 > s1 - t1)
            ex, ey = edges[e]
            den = ux * ey - uy * ex  # nonzero on a piece of positive width, barring rounding
            if den and s1 != t1:
                c1 = abs(areas.item(v, e, end) / den)
            else:  # u along the edge, or v level with its nearer end
                (vx, vy), (px, py) = rel[v], rel[(e + end) % n]
                c1 = abs(ux * (vx - px) + uy * (vy - py))
            lo, hi = (c, c1) if c <= c1 else (c1, c)
            if hi > r:
                total += (z - x) * (0.5 * (lo + hi) - r if lo >= r else (hi - r) ** 2 / (2.0 * (hi - lo)))
            x, c = z, c1
        return total if total > 1e-14 * vol else 0.0


@dataclass(frozen=True)
class Rectangle(ConvexPolygon):
    """Axis-aligned rectangle [-h1, h1] x [-h2, h2]: the polygon of its four corners, with
    exact geometry and covariance and a box sampler and membership test."""

    vertices: tuple = field(repr=False)
    h1: float
    h2: float

    def __init__(self, h1: float, h2: float):
        if not (0.0 < h1 < math.inf and 0.0 < h2 < math.inf):
            raise InvalidShapeError("rectangle half-widths must be positive and finite")
        super().__init__([[h1, -h2], [h1, h2], [-h1, h2], [-h1, -h2]])
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)

    @cached_property
    def geometry(self) -> ShapeGeometry:
        return ShapeGeometry(
            volume=4.0 * self.h1 * self.h2, perimeter=4.0 * (self.h1 + self.h2),
            support_radius=2.0 * math.hypot(self.h1, self.h2), dim=2,
        )

    def covariance_at(self, y):
        return max(0.0, 2.0 * self.h1 - abs(y[0])) * max(0.0, 2.0 * self.h2 - abs(y[1]))

    def _inside(self, x, y, scratch, planes=None):
        absolute, spare, mask = scratch
        inside, ok = mask.view(bool)[: len(x)], spare.view(bool)[: len(x)]
        if planes is None:
            np.less_equal(np.abs(x, out=absolute), self.h1, out=inside)
            inside &= np.less_equal(np.abs(y, out=absolute), self.h2, out=ok)
            return inside
        inside.fill(True)
        for ex, ey, _ in planes:
            row, h = (x, math.copysign(self.h1, ex)) if ex else (y, math.copysign(self.h2, ey))
            inside &= (np.less_equal if h > 0.0 else np.greater_equal)(row, h, out=ok)
        return inside

    def _sample_rows(self, rng, work, n):
        for row, h in zip(work[:2, :n], (self.h1, self.h2)):
            rng.random(out=row)
            row *= 2.0 * h
            row -= h


def _real(x, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, Real):
        raise InvalidShapeError(f"{what} must be a real number, got {x!r}")
    return float(x)


def shape_from_json(obj) -> Shape:
    """Build a shape from the CLI's JSON object format, or raise InvalidShapeError."""
    if not isinstance(obj, dict):
        raise InvalidShapeError(f"a shape must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    try:
        if kind == "ball":
            return Ball(obj["dim"])
        if kind == "rectangle":
            hw = [_real(h, "a rectangle half-width") for h in obj["half_widths"]]
            if len(hw) != 2:
                raise InvalidShapeError("rectangle needs exactly two half-widths")
            return Rectangle(*hw)
        if kind == "polygon":
            return ConvexPolygon(obj["vertices"])
        if kind == "interval":
            return Interval(obj["a"], obj["b"])
    except KeyError as exc:
        raise InvalidShapeError(f"{kind} shape needs the key {exc}") from None
    except TypeError as exc:
        raise InvalidShapeError(f"malformed {kind} shape: {exc}") from None
    raise InvalidShapeError(f"unknown shape kind {kind!r}")


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
    worst = norms[np.argmax(np.abs(norms - 1.0))]
    if abs(worst - 1.0) > 1e-12:
        raise NonUnitVectorError(f"|u| = {worst} is not 1")
    values = shape.directional_variation(us)
    return float(values[0]) if single else values


def covariance(shape: Shape, y):
    """Set covariance g(y) = |Omega intersect (Omega + y)| at one point, a float, or at
    each row of an (n, dim) array."""
    ys, single = _rows(y, shape.dim, "point")
    return shape.covariance_at(ys[0].tolist()) if single else np.array([shape.covariance_at(p) for p in ys.tolist()])


def support_radius_at(shape: Shape, theta: float) -> float:
    """Distance from the origin to the support boundary in direction theta."""
    return shape.support_radius_at(theta)


def gamma(shape: Shape, s, quad: QuadSpec = QuadSpec()):
    """gamma(ell * s): spherical deficit between V_u/2 and the covariance slope, for
    one s in (0, 1], a float, or for each s of a 1-D array."""
    single = np.ndim(s) == 0
    ss = float(s) if single else np.asarray(s, dtype=float).reshape(-1)
    if not (0.0 < ss <= 1.0 if single else ((0.0 < ss) & (ss <= 1.0)).all()):
        raise DomainError(f"s must lie in (0, 1], got {s}")
    values = shape.gamma(ss, quad)  # a float, or a 0-d array, for one s
    low = float(values) if single else values.min()
    if low < -1e-8:
        raise QuadratureError(f"gamma({ss if single else ss[values.argmin()]}) = {low} < 0 violates the slope bound")
    return low if single else values


# ---------------------------------------------------------------------------
# The weighted gamma integral
# ---------------------------------------------------------------------------

def gamma_weighted_integral(shape: Shape, quad: QuadSpec = QuadSpec()):
    """Integral over (0, 1] of gamma(ell*s)/s, as (value, err_estimate)."""
    if shape.gamma_vanishes:
        return 0.0, 0.0
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


def _boundary_terms(verts: np.ndarray) -> np.ndarray:
    """(v_i - v_0) x e_i: twice the signed area of the triangle v_0, v_i, v_{i+1}."""
    rel, edges = verts - verts[0], np.roll(verts, -1, axis=0) - verts
    return rel[:, 0] * edges[:, 1] - rel[:, 1] * edges[:, 0]


def _polygon_area(verts: np.ndarray) -> float:
    """Shoelace area of the float vertices, correctly rounded.

    Each product x_i y_j is split without error into its rounded value and
    its rounding error (Dekker's two-product), and fsum adds the 4n parts
    exactly, so neither the choice of vertex 0 nor a translation changes a bit.
    """
    x, y = verts[:, 0], verts[:, 1]
    parts = [*_two_product(x, np.roll(y, -1)), *_two_product(-np.roll(x, -1), y)]
    return 0.5 * math.fsum(np.concatenate(parts).tolist())


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


# ---------------------------------------------------------------------------
# The Monte Carlo step tW, W ~ p_1, from uniforms only (d <= 2)
# ---------------------------------------------------------------------------

def _draw_cauchy(rng: np.random.Generator, w: np.ndarray) -> None:
    """Fill the row w with standard Cauchy draws tan(pi (U - 1/2)), U uniform."""
    rng.random(out=w)
    w -= 0.5
    w *= math.pi
    np.tan(w, out=w)


def _planar_scratch(work: np.ndarray, n: int) -> tuple:
    """Three half rows of ceil(n/2) floats over the rows work[2:] of a workspace: with x
    and y, a planar block uses 3.5 rows of it."""
    h = -(-n // 2)
    flat = work[2:].reshape(-1)
    return flat[:h], flat[h : 2 * h], flat[2 * h : 3 * h]


def _add_planar_step(rng: np.random.Generator, xy: np.ndarray, t: float, rows: tuple) -> None:
    """Add t W to the coordinate rows xy of a (2, n) array in place, W ~ p_1 in d = 2.

    P(|W| > r) = (1 + r^2)^(-1/2), so |W| = sqrt(1 - U^2)/U for U uniform on
    (0, 1].  U = 1 - v, v = rng.random(), is exact, and 1 - U^2 = v (1 + U)
    keeps its digits at small v.  The direction is (cos 2 phi, sin 2 phi), phi
    uniform on [-pi/2, pi/2): with s = tan phi, ((1 - s^2), 2 s)/(1 + s^2).
    |s| <= 1.7e16, so s^2 does not overflow.  Each half of the columns works on
    the three half rows of rows (``_planar_scratch``): it draws its v, then its
    directions.
    """
    for x, y in np.array_split(xy, 2, axis=1):
        k, s, scratch = (row[: len(x)] for row in rows)
        rng.random(out=k)
        np.subtract(1.0, k, out=s)  # U = 1 - v
        np.add(s, 1.0, out=scratch)
        k *= scratch
        np.sqrt(k, out=k)
        k /= s
        k *= t  # t |W|
        _draw_cauchy(rng, s)
        np.multiply(s, s, out=scratch)
        scratch += 1.0
        k /= scratch  # k = t |W| / (1 + s^2)
        np.subtract(2.0, scratch, out=scratch)
        scratch *= k
        x += scratch  # k (1 - s^2)
        s *= k
        s *= 2.0
        y += s  # 2 k s


def _diameter(pts: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)))


def _turns(pts: np.ndarray) -> np.ndarray:
    """(b - a) x (c - a) at each vertex b of a closed polyline, a and c its neighbours."""
    a, c = np.roll(pts, 1, axis=0), np.roll(pts, -1, axis=0)
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
