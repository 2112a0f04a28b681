"""Seeded Monte Carlo estimators used only to cross-check the quadrature pipeline.

H(t) = |Omega| P(X + t W in Omega) and g(y) = |Omega| P(X - y in Omega), X
uniform on Omega and W ~ p_1.  Each block of n draws is one call of a shape
method, ``heat_hits(rng, n, t, work)`` or ``shift_hits(rng, n, y, work)``,
which returns the block's hit count.

In the plane, p_1 and the uniform law on a triangle have exact inverse-CDF
or spacing samplers, so the blocks of polygons and rectangles draw only
uniforms and work on one contiguous row per coordinate:

- P(|W| > r) = (1 + r^2)^(-1/2), so |W| = sqrt(1 - U^2)/U for U in (0, 1];
  the direction is ((1 - s^2), 2 s)/(1 + s^2), s = tan(pi (V - 1/2)).
- X on a convex polygon: one multinomial draw splits the block over the fan
  triangles by area, and a point of a triangle has the barycentric
  coordinates (1 - b, b - a, a), a <= b the min and max of two uniforms.
  Containment is one half-plane test e . p <= c per edge, and for X - y only
  at the edges with e . y < 0: X is in Omega, so e . (X - y) <= c - e . y
  holds at the others.  A rectangle draws X as two uniform rows.

A ball's blocks draw three uniforms a draw in every d, an interval's (the
1-ball's) included, since its hit test sees only rotation invariants.  A
ball of radius rho runs the unit ball B's test at t/rho and y/rho: X/rho is
uniform on B, and X + t W is in rho B iff X/rho + (t/rho) W is in B.  On B,
rotate X onto e_1: X = r e_1,
r = U_1^(1/d), and W = (G_1, G_perp)/|g_0| with G and g_0 standard normal.
Write (g_0, G_1) = R (cos psi, sin psi) with R^2 ~ chi^2_2 independent of psi:

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
are ordered.  The blocks of an estimate run one after another on the
calling thread; concurrent callers run side by side, each in its own
workspace.  A block's error reaches the caller, and the blocks after it
are not run.

A block allocates nothing of its size: each calling thread keeps one
workspace of WORK_ROWS = 4 float rows of BLOCK_SIZE columns (2 MiB) in a
``threading.local`` from its first estimate on, so later blocks write into
resident memory instead of faulting in zero pages.  Blocks draw with
``out=``, compute in place and write boolean results into the bytes of a
spent row.  A ball block uses 3 rows, a planar one 3.5 (x, y and three half
rows, on which it works half of the columns at a time).

Blocks call only the shape's own methods, the private samplers of ``shapes``
and ``_block_rng``, never a public module function (``geometry``,
``covariance``, ...) that a tracer may rebind, so that a tracer counts each
estimate once and not once a block.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .kernel import _check_t
from .shapes import WORK_ROWS, Shape, _rows, geometry

BLOCK_SIZE = 1 << 16

_caller = threading.local()  # .work, each calling thread's workspace


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n: int
    seed: int


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, block))))


def _estimate(shape: Shape, n: int, seed: int, block_hits) -> McEstimate:
    """|Omega| times the fraction of hits, block_hits(rng, size, work) counting one block's."""
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1000:
        raise DomainError(f"n must be an integer >= 1000, got {n!r}")
    if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed < 1 << 64:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    vol = geometry(shape).volume
    if not hasattr(_caller, "work"):
        _caller.work = np.empty((WORK_ROWS, BLOCK_SIZE))
    work = _caller.work
    p = sum(
        block_hits(_block_rng(seed, k), min(BLOCK_SIZE, n - k * BLOCK_SIZE), work)
        for k in range(-(-n // BLOCK_SIZE))
    ) / n
    return McEstimate(
        mean=vol * p,
        stderr=vol * math.sqrt(max(p * (1.0 - p), 0.0) / n),
        n=n,
        seed=seed,
    )


def mc_heat_content(shape: Shape, t: float, n: int, seed: int) -> McEstimate:
    """Estimate H(t) = |Omega| P(X + t W in Omega), X uniform on Omega, W ~ p_1."""
    t = _check_t(t)
    return _estimate(shape, n, seed, lambda rng, size, work: shape.heat_hits(rng, size, t, work))


def mc_covariance(shape: Shape, y, n: int, seed: int) -> McEstimate:
    """Estimate g(y) = |Omega| P(X - y in Omega), X uniform on Omega."""
    ys, _ = _rows(y, shape.dim, "point")
    if len(ys) != 1:
        raise DimensionMismatchError(f"mc_covariance takes one point, got {len(ys)}")
    y = ys[0]
    return _estimate(shape, n, seed, lambda rng, size, work: shape.shift_hits(rng, size, y, work))
