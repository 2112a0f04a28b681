import math

import numpy as np
import pytest

from heatcov import QuadSpec


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
