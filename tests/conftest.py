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
