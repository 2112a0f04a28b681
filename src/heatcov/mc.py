"""Seeded Monte Carlo estimators used only to cross-check the quadrature pipeline.

H(t) = |Omega| P(X + t W in Omega) and g(y) = |Omega| P(X - y in Omega), X
uniform on Omega and W ~ p_1.  Each block of n draws is one call of
``heat_hits`` or ``shift_hits``, which returns its hit count: ``_blocks``
picks those of the shape's class (``Ball`` or ``ConvexPolygon``, a box's where
it has ``half_widths``) once an estimate, and any other class raises ``DomainError``.

In the plane, p_1 and the uniform law on a triangle have exact inverse-CDF
or spacing samplers, so the blocks of polygons draw only uniforms and work
on one contiguous row per coordinate:

- P(|W| > r) = (1 + r^2)^(-1/2), so |W| = sqrt(1 - U^2)/U for U in (0, 1];
  the direction is ((1 - s^2), 2 s)/(1 + s^2), s = tan(pi (V - 1/2)).
- X on a convex polygon: one multinomial draw splits the block over the fan triangles
  by area, twice (v_i - v_0) x e_i of ``vertex_array`` and ``edge_directions``,
  and a point of a triangle has the barycentric coordinates (1 - b, b - a, a), the
  spacings of two uniforms a <= b, uniform on the simplex.  Containment is one half-plane
  test e . p <= c per edge, and for X - y only at the edges with e . y < 0: X is in Omega,
  so e . (X - y) <= c - e . y holds at the others.  A box draws X as two uniform rows on the
  centred box and tests one bound per axis, which leaves the law of every hit count unchanged.

A ball's blocks draw three uniforms a draw in every d, an interval's (the
1-ball's) included, since its hit test sees only rotation invariants.  A
ball of radius rho runs the unit ball B's test at t/rho and y/rho: X/rho is
uniform on B, and X + t W is in rho B iff X/rho + (t/rho) W is in B.  On B,
rotate X onto e_1: X = r e_1, r = U_1^(1/d), and W = (G_1, G_perp)/|g_0|
with G and g_0 standard normal.  Write (g_0, G_1) = R (cos psi, sin psi)
with R^2 ~ chi^2_2 independent of psi:

- S = W_1 = tan psi is standard Cauchy, S = tan(pi (U_2 - 1/2));
- B = |G_perp|^2/(|G_perp|^2 + R^2), a ratio of gamma variates, is
  Beta((d - 1)/2, 1) = U_3^(2/(d - 1)), independent of S (0 in d = 1);
- |W_perp|^2 = |G_perp|^2/g_0^2 = (1 + S^2) B/(1 - B).

So X + t W is in the ball iff (1 - B)(r + t S)^2 + t^2 B (1 + S^2) <= 1 - B,
with no division, and a B that rounds to 1 is a miss.  For g, rotate y onto
|y| e_1 instead: X = r Theta is in the ball shifted by y iff
r (r - 2|y| Theta_1) <= 1 - |y|^2, and Theta_1 = cos psi sqrt(B'):

- psi = pi U_2 is uniform on [0, pi), so cos^2 psi ~ Beta(1/2, 1/2), with
  cos psi = (1 - s^2)/(1 + s^2) and s = tan(pi U_2 / 2);
- B' = 1 - U_3^(2/(d - 2)) ~ Beta(1, (d - 2)/2) for d >= 3, and 1 in d = 2;
- Beta(1/2, 1/2) Beta(1, (d - 2)/2) = Beta(1/2, (d - 1)/2), the law of
  Theta_1^2, and cos psi gives Theta_1 its symmetric sign.

In d = 1, Theta_1 = +-1 by the sign of U_2 - 1/2.

Each block draws from its own SFC64 stream, seeded by
SeedSequence((seed, block)), and returns an integer hit count, so the
estimate for a given (inputs, seed, n) is bit-identical however the blocks
are ordered or shared out.  They run on lanes = min(usable CPUs, blocks)
lanes (the process's affinity mask, else os.cpu_count()): lane i runs the
blocks i, i + lanes, ..., lane 0 on the calling thread and each other on a
thread started for this estimate and joined before it returns, so one CPU
or one block starts none.  A block that raises stops every lane before its
next block, and the caller gets the error of the lowest block that raised
(a KeyboardInterrupt of the calling thread's, whatever the others raised).
NumPy's errstate is per thread, so a block that overflows by design (a
heat block) sets its own.

A block allocates nothing of its size: each lane has its own workspace of
WORK_ROWS = 5 float rows of BLOCK_SIZE columns (2.5 MiB; one array of 4 MiB
would take huge pages, resident in full once touched), from a list that
each calling thread keeps in a ``threading.local``, so later blocks write
into resident memory instead of faulting in zero pages.  Blocks draw with
``out=``, compute in place and write boolean results into the bytes of a
spent row.  A ball block uses 3 rows.  A planar one samples X into rows 0
and 1 (a fan segment's a, y, b and b p_y in rows 0 to 3 at its columns),
adds t W over three half rows of rows 2 and 3, and tests whole rows: rows 2
and 3 hold e . p and a term, row 4's first n bytes the mask.

Blocks call only the private functions of this module, never a public
module function (``geometry``, ``covariance``, ...) that a tracer may
rebind, so that a tracer counts each estimate once and not once a block,
and a tracer that keeps one frame stack never sees a helper thread.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .kernel import _check_t
from .shapes import Ball, ConvexPolygon, Shape, _rows, geometry

BLOCK_SIZE = 1 << 16
WORK_ROWS = 5  # float rows of a block's workspace

_caller = threading.local()  # .work, each calling thread's list of workspaces, one a lane


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n: int
    seed: int


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, block))))


def _estimate(shape: Shape, n: int, seed: int, block_hits, arg) -> McEstimate:
    """|Omega| times the fraction of hits, block_hits(rng, size, arg, work) counting one block's; a
    block_hits of None counts none and runs no block."""
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1000:
        raise DomainError(f"n must be an integer >= 1000, got {n!r}")
    if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed < 1 << 64:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    n, seed = int(n), int(seed)  # a NumPy integer could wrap in the block count, or leak into McEstimate
    vol = geometry(shape).volume
    p = (_count_hits(n, seed, block_hits, arg) if block_hits else 0) / n
    return McEstimate(mean=vol * p, stderr=vol * math.sqrt(max(p * (1.0 - p), 0.0) / n), n=n, seed=seed)


def _count_hits(n: int, seed: int, block_hits, arg) -> int:
    """The hits of the blocks of n draws, lane i running the blocks i, i + lanes, ... in its own
    workspace, lane 0 on the calling thread and each other lane on a thread of its own."""
    blocks = -(-n // BLOCK_SIZE)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    lanes = min(cpus, blocks)
    work = vars(_caller).setdefault("work", [])
    work += [np.empty((WORK_ROWS, BLOCK_SIZE)) for _ in range(len(work), lanes)]
    hits, failed = [0] * lanes, {}  # failed: the error of each block that raised

    def lane(i):
        for k in range(i, blocks, lanes):
            if failed:
                return
            try:
                hits[i] += block_hits(_block_rng(seed, k), min(BLOCK_SIZE, n - k * BLOCK_SIZE), arg, work[i])
            except BaseException as error:
                failed[k] = error
                if not isinstance(error, Exception):  # an interrupt stops every lane, and goes on up now
                    raise

    helpers = []
    try:
        for i in range(1, lanes):
            helper = threading.Thread(target=lane, args=(i,))
            helper.start()
            helpers.append(helper)
        lane(0)
    finally:
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[min(failed)]
    return sum(hits)


def mc_heat_content(shape: Shape, t: float, n: int, seed: int) -> McEstimate:
    """Estimate H(t) = |Omega| P(X + t W in Omega), X uniform on Omega, W ~ p_1."""
    t = _check_t(t)
    return _estimate(shape, n, seed, _blocks(shape).heat_hits, t)


def mc_covariance(shape: Shape, y, n: int, seed: int) -> McEstimate:
    """Estimate g(y) = |Omega| P(X - y in Omega), X uniform on Omega."""
    ys, _ = _rows(y, shape.dim, "point")
    if len(ys) != 1:
        raise DimensionMismatchError(f"mc_covariance takes one point, got {len(ys)}")
    shift_hits = _blocks(shape).shift_hits
    # beyond the diameter g is 0, and no block draws: a ball's |y|^2 could overflow, a polygon's X - y
    far = max(map(abs, ys[0].tolist())) >= shape.geometry.support_radius
    return _estimate(shape, n, seed, None if far else shift_hits, ys[0])


@functools.singledispatch
def _blocks(shape: Shape):
    """The blocks of the shape's class, whose ``heat_hits(rng, n, t, work)`` and ``shift_hits(rng, n,
    y, work)`` count how many of n draws of X + t W, or of X - y, land in the shape.  work, a C-contiguous
    float array of WORK_ROWS rows of at least max(n, 2) columns, is scratch that a block may overwrite."""
    raise DomainError(f"{type(shape).__name__} has no Monte Carlo sampler")


@_blocks.register(Ball)
class _BallBlocks:
    """A ball's blocks draw the rotation invariants that its hit test sees, and run the unit
    ball B's test at t/radius and y/radius."""

    def __init__(self, ball: Ball):
        self.d, self.radius = ball.d, ball.radius

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
        r, c, b = work[:3, :n]
        rng.random(out=r)
        r **= 1.0 / self.d
        self._draw_axis(rng, c, b)
        norm = float(np.linalg.norm(y / self.radius))
        c *= 2.0 * norm
        np.subtract(r, c, out=c)
        c *= r
        return int(np.count_nonzero(np.less_equal(c, 1.0 - norm * norm, out=b.view(bool)[:n])))


class _PolygonBlocks:
    """The fan sampler and half-plane test of a convex polygon, with the tables they read."""

    def __init__(self, poly: ConvexPolygon):
        verts, edges = poly.vertex_array, poly.edge_directions
        ex, ey = edges[:, 1], -edges[:, 0]  # e = (dy, -dx) is the outward normal of the edge (dx, dy) from v
        self._half_planes = np.column_stack([ex, ey, ex * verts[:, 0] + ey * verts[:, 1]]).tolist()  # [e, e . v]
        # fan triangles v_0 v_i v_{i+1}: area shares by (v_i - v_0) x e_i, legs v_i - v_0 and e_i
        legs = np.column_stack([verts[1:-1] - verts[0], edges[1:-1]])  # [px, py, ex, ey]
        twice_area = legs[:, 0] * legs[:, 3] - legs[:, 1] * legs[:, 2]
        self._fan, self.origin = (twice_area / math.fsum(twice_area), legs.tolist()), verts[0]

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

    @np.errstate(over="ignore", invalid="ignore")
    def heat_hits(self, rng, n, t, work):
        # at huge t, t W overflows to inf and inf - inf is nan: misses, like the ball's
        self._sample_rows(rng, work, n)
        _add_planar_step(rng, work[:2, :n], t, _planar_scratch(work, n))
        return self._count_inside(work, n)

    def shift_hits(self, rng, n, y, work):
        # X is inside, so X - y can leave only across an edge with e . y < 0
        self._sample_rows(rng, work, n)
        work[:2, :n] -= y[:, None]
        y0, y1 = y.tolist()
        planes = [p for p in self._half_planes if p[0] * y0 + p[1] * y1 < 0.0]
        return self._count_inside(work, n, planes)

    def _count_inside(self, work, n, *planes):
        """How many points of the rows work[:2, :n] pass ``_inside``, with the rows work[2:5, :n] as scratch."""
        x, y, *scratch = work[:5, :n]
        return int(np.count_nonzero(self._inside(x, y, scratch, *planes)))

    def _sample_rows(self, rng, work, n):
        """Draw n uniform points into the rows work[0, :n], work[1, :n] of a workspace,
        overwriting at most work[2:4, :n] besides: from the triangle fan at vertex 0, the
        rows grouped by triangle, v_0 + b (v_i - v_0) + a (v_{i+1} - v_i) on the triangle
        v_0 v_i v_{i+1}, a <= b the order statistics of two uniforms, b and b p_y in rows 2
        and 3 at the triangle's columns."""
        shares, legs = self._fan
        counts = rng.multinomial(n, shares).tolist()
        x, y = work[:2, :n]
        rng.random(out=x)
        rng.random(out=y)
        start = 0
        for (px, py, ex, ey), m in zip(legs, counts):
            a, ys, b, product = work[:4, start : start + m]
            np.maximum(a, ys, out=b)
            np.minimum(a, ys, out=a)  # the order statistics a <= b of the two uniforms
            np.multiply(a, ey, out=ys)
            ys += np.multiply(b, py, out=product)
            a *= ex  # x last, over a
            b *= px
            a += b
            start += m
        x += self.origin[0]
        y += self.origin[1]


class _BoxBlocks(_PolygonBlocks):
    """A box's blocks draw X on the centred box and test |x| <= h1 and |y| <= h2, for X - y too: X is in
    [-h, h] exactly, and x - y_0 rounds monotonically, so X - y keeps a bound that y moves it away from.
    With no half-planes, it takes the polygon's shift blocks, and its bound test ignores their planes."""

    _half_planes = ()

    def __init__(self, poly: ConvexPolygon):
        self.h1, self.h2 = poly.half_widths

    def _inside(self, x, y, scratch, planes=None):
        absolute, spare, mask = scratch
        inside, ok = mask.view(bool)[: len(x)], spare.view(bool)[: len(x)]
        np.less_equal(np.abs(x, out=absolute), self.h1, out=inside)
        inside &= np.less_equal(np.abs(y, out=absolute), self.h2, out=ok)
        return inside

    def _sample_rows(self, rng, work, n):
        for row, h in zip(work[:2, :n], (self.h1, self.h2)):
            rng.random(out=row)
            row *= 2.0 * h
            row -= h


_blocks.register(ConvexPolygon, lambda poly: _PolygonBlocks(poly) if poly.half_widths is None else _BoxBlocks(poly))


def _draw_cauchy(rng: np.random.Generator, w: np.ndarray) -> None:
    """Fill the row w with standard Cauchy draws tan(pi (U - 1/2)), U uniform."""
    rng.random(out=w)
    w -= 0.5
    w *= math.pi
    np.tan(w, out=w)


def _planar_scratch(work: np.ndarray, n: int) -> tuple:
    """Three half rows of ceil(n/2) floats over the rows work[2:] of a workspace, for
    ``_add_planar_step``."""
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
