"""Dimension constants, Poisson (Cauchy) kernel, and the universal 1-D integrals.

Everything here is a pure function of the dimension ``d`` and, for the
kernel and the 1-D integrals, of one point or upper limit (or, for the means
of asinh that the polygon chord integrals sum, of an interval).  The 1-D
integrals are exact recurrences, not quadratures.  The gamma function is only ever
needed at integer and half-integer arguments, so it is computed by exact
recursion from Gamma(1) = 1 and Gamma(1/2) = sqrt(pi) instead of a
general-purpose approximation.  ``sample_cauchy`` draws from the kernel, for
the Monte Carlo estimators and the shapes' block-hit methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

MAX_DIM = 16


def _check_dim(d: int) -> int:
    if not isinstance(d, (int, np.integer)):
        raise DomainError(f"dimension must be an integer, got {d!r}")
    if d < 1 or d > MAX_DIM:
        raise DomainError(f"dimension must satisfy 1 <= d <= {MAX_DIM}, got {d}")
    return int(d)


def gamma_half_integer(x: float) -> float:
    """Gamma(x) for x a positive multiple of 1/2, by exact recursion."""
    n2 = round(2 * x)
    if abs(2 * x - n2) > 1e-12 or n2 <= 0:
        raise DomainError(f"gamma_half_integer needs a positive half-integer, got {x}")
    if n2 == 1:  # Gamma(1/2)
        return math.sqrt(math.pi)
    if n2 == 2:  # Gamma(1)
        return 1.0
    return (x - 1.0) * gamma_half_integer(x - 1.0)


@lru_cache(maxsize=None, typed=True)
def kappa(d: int) -> float:
    """Normalizing constant of the d-dimensional Cauchy density."""
    d = _check_dim(d)
    return gamma_half_integer((d + 1) / 2) / math.pi ** ((d + 1) / 2)


@lru_cache(maxsize=None, typed=True)
def unit_ball_volume(d: int) -> float:
    d = _check_dim(d)
    return math.pi ** (d / 2) / gamma_half_integer(1 + d / 2)


def unit_sphere_area(d: int) -> float:
    d = _check_dim(d)
    return d * unit_ball_volume(d)


def _check_t(t: float) -> float:
    if not 0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    return float(t)


def poisson_kernel(d: int, t: float, x) -> float:
    """p_t(x) = kappa_d * t / (t^2 + |x|^2)^((d+1)/2)."""
    d = _check_dim(d)
    t = _check_t(t)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (d,):
        raise DomainError(f"x must be a vector of length {d}, got shape {x.shape}")
    r2 = float(np.dot(x, x))
    return kappa(d) * t / (t * t + r2) ** ((d + 1) / 2)


def sample_cauchy(d: int, rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """Draw n vectors with density p_1 via the ratio-of-normals representation."""
    g = rng.standard_normal((n, d))
    g0 = rng.standard_normal(n)
    while not g0.all():  # a zero g0 (possible in floating point): redraw its rows
        ok = g0 != 0.0
        more = n - int(np.sum(ok))
        g = np.concatenate([g[ok], rng.standard_normal((more, d))])
        g0 = np.concatenate([g0[ok], rng.standard_normal(more)])
    g /= np.abs(g0, out=g0)[:, None]
    return g


def tanh_deficit(d: int, x: float = 1.0) -> float:
    """J_d(x) = integral over (0, atanh x) of tanh^d - 1; J_d(1) is J_d.

    With y = tanh(theta) this is -int_0^x (1 - y^d)/(1 - y^2) dy, so
    J_1(x) = -log1p(x), J_2(x) = -x and J_d(x) = J_{d-2}(x) - x^(d-1)/(d-1).
    Every term is negative, so nothing cancels.
    """
    d = _check_dim(d)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    total = -math.log1p(x) if d % 2 else -x
    for k in range(3 if d % 2 else 4, d + 1, 2):
        total -= x ** (k - 1) / (k - 1)
    return total


def cos_power_deficit(n: int, s):
    """M_n = integral over (0, a) of cos - cos^n, where a = asin(s) in [0, pi/2].

    The reduction K_n = cos^(n-1) a sin a / n + (n-1)/n K_{n-2} for
    K_n = int_0^a cos^n turns into M_n = s (1 - c^(n-1)) / n + (n-1)/n M_{n-2}
    with c = cos a.  1 - c^(n-1) is carried as a sum of nonnegative terms
    (1 - c = s^2/(1+c), 1 - c^(k+2) = (1 - c^k) + c^k s^2), and the only
    negative term, M_0 = s - a, is a series, so M_n keeps its relative
    accuracy as s -> 0.  s may be a float or an array; so is the result.  A
    float runs the recurrence in scalar arithmetic, with the same result bits.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim == 0:
        s = s[()]
    c = np.sqrt((1.0 - s) * (1.0 + s))
    if n % 2:  # start from M_1 = 0, carrying 1 - c^2 and c^2
        m, one_minus, ck, first = 0.0 * s, s * s, c * c, 3
    else:  # start from M_0 = s - a, carrying 1 - c and c
        m, one_minus, ck, first = -_a_minus_sin(np.arcsin(s)), s * s / (1.0 + c), c, 2
    for k in range(first, n + 1, 2):
        m = s * one_minus / k + (k - 1) / k * m
        one_minus += ck * s * s
        ck = ck * (c * c)  # not in place: ck may be c itself
    return float(m) if np.ndim(m) == 0 else m


# a - sin a = a^3/6 - a^5 sum over j of _SIN_SERIES[j] (-a^2)^j; on [0, pi/2] the
# first term left out is 3e-23 of the sum
_SIN_SERIES = [1.0 / math.factorial(2 * j + 5) for j in range(11)]


def _a_minus_sin(a):
    """a - sin(a) by its Taylor series in Horner form, free of cancellation on [0, pi/2]."""
    x = a * a
    tail = _SIN_SERIES[-1]
    for coef in reversed(_SIN_SERIES[:-1]):
        tail = coef - x * tail
    cube = a * x
    return cube / 6.0 - cube * x * tail


def asinh_mean(a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Mean of asinh over [a0, a1], 0 <= a0 <= a1, without cancellation.

    It is asinh a1 + a0 (asinh a1 - asinh a0)/(a1 - a0) - (a1 + a0)/(s1 + s0) with
    s = sqrt(1 + a^2), and asinh a1 - asinh a0 = asinh((a1 - a0) q) with
    q = (a1 + a0)/(a1 s0 + a0 s1).
    """
    s0, s1 = np.sqrt(1.0 + a0 * a0), np.sqrt(1.0 + a1 * a1)
    q = (a1 + a0) / (a1 * s0 + a0 * s1)
    dq = (a1 - a0) * q
    slope = np.where(dq > 0.0, np.arcsinh(dq) / dq, 1.0) * q
    return np.arcsinh(a1) + np.where(a0 > 0.0, a0 * slope, 0.0) - (a1 + a0) / (s1 + s0)


# z - asinh z = sum over k >= 1 of _ASINH_SERIES[k - 1] z^(2k+1)
_ASINH_SERIES = [(-1) ** (k + 1) * math.comb(2 * k, k) / 4**k / (2 * k + 1) for k in range(1, 15)]


def z_minus_asinh_mean(a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Mean of z - asinh z over [a0, a1], 0 <= a0 <= a1.

    Where a1 <= 1/4 the difference cancels, so it is summed as a series: the mean
    of z^p over the piece is h_p / (p + 1), h_p = sum of a1^i a0^(p - i), a sum of
    nonnegative terms.
    """
    series, h, power = np.zeros_like(a1), np.ones_like(a1), np.ones_like(a1)
    for p in range(1, 2 * len(_ASINH_SERIES) + 2):
        power = power * a1
        h = power + a0 * h
        if p >= 3 and p % 2:
            series += _ASINH_SERIES[(p - 3) // 2] * h / (p + 1)
    return np.where(a1 <= 0.25, series, 0.5 * (a0 + a1) - asinh_mean(a0, a1))


@dataclass(frozen=True)
class KernelConstants:
    """All d-dependent constants the expansion needs."""

    d: int
    kappa: float
    ball_volume: float
    sphere_area: float
    tanh_deficit: float

    @classmethod
    def for_dim(cls, d: int) -> "KernelConstants":
        d = _check_dim(d)
        return cls(
            d=d,
            kappa=kappa(d),
            ball_volume=unit_ball_volume(d),
            sphere_area=unit_sphere_area(d),
            tanh_deficit=tanh_deficit(d),
        )
