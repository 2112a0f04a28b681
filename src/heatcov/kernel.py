"""Dimension constants, Poisson (Cauchy) kernel, and the universal 1-D integrals.

Everything here is a pure function of the dimension ``d`` and, for the
kernel and the 1-D integrals, of one point or upper limit (or, for the means
of asinh that the polygon chord integrals sum, of an interval).  The 1-D
integrals are exact recurrences, not quadratures.  The gamma function is only ever
needed at integer and half-integer arguments, so it is computed by exact
recursion from Gamma(1) = 1 and Gamma(1/2) = sqrt(pi) instead of a
general-purpose approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError

MAX_DIM = 16
MAX_SCALE = 1e150  # the largest ratio diameter / t that the chord kernels accept


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
    float runs the recurrence in Python floats with an array's bits (a = np.arcsin(s), not math.asin).
    """
    scalar = isinstance(s, (int, float))
    s = float(s) if scalar else np.asarray(s, dtype=float)
    c = (math.sqrt if scalar else np.sqrt)((1.0 - s) * (1.0 + s))
    if n % 2:  # start from M_1 = 0, carrying 1 - c^2 and c^2
        m, one_minus, ck, first = 0.0 * s, s * s, c * c, 3
    else:  # start from M_0 = s - a, carrying 1 - c and c
        a = np.arcsin(s)
        m, one_minus, ck, first = -_a_minus_sin(float(a) if scalar else a), s * s / (1.0 + c), c, 2
    for k in range(first, n + 1, 2):
        m = s * one_minus / k + (k - 1) / k * m
        one_minus += ck * s * s
        ck = ck * (c * c)  # not in place: ck may be c itself
    return m


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
    slope = np.divide(np.arcsinh(dq), dq, out=np.ones_like(dq), where=dq > 0.0) * q
    return np.arcsinh(a1) + np.where(a0 > 0.0, a0 * slope, 0.0) - (a1 + a0) / (s1 + s0)


# z - asinh z = sum over k >= 1 of _ASINH_SERIES[k - 1] z^(2k+1)
_ASINH_SERIES = [(-1) ** (k + 1) * math.comb(2 * k, k) / 4**k / (2 * k + 1) for k in range(1, 15)]


def z_minus_asinh_mean(a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Mean of z - asinh z over [a0, a1], 0 <= a0 <= a1, arrays of one shape.

    Where a1 <= 1/4 the difference cancels, so it is summed as a series: the mean
    of z^p over the piece is h_p / (p + 1), h_p = sum of a1^i a0^(p - i), a sum of
    nonnegative terms.  Each element takes only its own branch.
    """
    small, out = a1 <= 0.25, np.empty(a1.shape)
    if small.any():
        lo, hi = a0[small], a1[small]
        series, h, power = np.zeros_like(hi), np.ones_like(hi), np.ones_like(hi)
        for p in range(1, 2 * len(_ASINH_SERIES) + 2):
            power = power * hi
            h = power + lo * h
            if p >= 3 and p % 2:
                series += _ASINH_SERIES[(p - 3) // 2] * h / (p + 1)
        out[small] = series
    if not small.all():
        lo, hi = a0[~small], a1[~small]
        out[~small] = 0.5 * (lo + hi) - asinh_mean(lo, hi)
    return out


# ---------------------------------------------------------------------------
# The chord kernels of H and R
# ---------------------------------------------------------------------------
# With A = atan(c/t), sin A = X, every kernel is built from
#   T_n = int_0^A sin^(n+1)/cos = sum over k = n+2, n+4, ... of X^k / k,
#   S_n = int_0^A sin^n and I_n = int_0^(pi/2 - A) cos^n = S_n(pi/2) - S_n.
# Below the diameter (t < ell) T_n and I_n are recurrences; from it up, where c <= t and
# X^2 <= 1/2, T_n and S_n are series with terms enough for the largest X^2.

@lru_cache(maxsize=None)
def _series(first: int, central: bool) -> np.ndarray:
    """Coefficients b_j / (first + 2j), j < 60, with b_j = 1 or C(2j, j)/4^j."""
    b = np.cumprod([1.0] + [(2 * j - 1) / (2 * j) if central else 1.0 for j in range(1, 60)])
    return b / (first + 2.0 * np.arange(60))


def _power_series(coef: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """sum over j of coef[j] x2^j for x2 <= 1/2, a sum of positive terms, to as many terms as
    max(x2)^j needs to fall below 2^-56."""
    top = float(x2.max(initial=0.0))
    terms = min(len(coef), math.ceil(56.0 * math.log(2.0) / -math.log(top))) if top > 0.0 else 1
    return x2[..., None] ** np.arange(terms) @ coef[:terms]


@lru_cache(maxsize=None)
def _recurrence_terms(n: int) -> tuple:
    """The unrolled recurrences of T_n and I_n: (k, 1/k) over k = n, n-2, ... >= 1 for
    T_n = T_(n mod 2) - sum of sin^k A / k, and (k - 1, w_k, W) over k = n, n-2, ... >= 2
    for I_n = cos A sum of w_k sin^(k-1) A + W I_(n mod 2)."""
    ks = np.arange(n, 0, -2, dtype=float)
    js = np.arange(n, 1, -2, dtype=float)
    ratios = np.cumprod(np.concatenate([[1.0], (js - 1.0) / js]))  # products over j > k, then all
    return ks, 1.0 / ks, js - 1.0, ratios[:-1] / js, ratios[-1]


def _tan_sin_integral(n: int, x: np.ndarray, sin: np.ndarray, series: bool) -> np.ndarray:
    """T_n(A) at arrays x = tan A and sin = sin A.

    T_0 = ln sec A or T_1 = asinh(tan A) - sin A starts the recurrence
    T_n = T_(n-2) - sin^n A / n, unrolled, which keeps absolute accuracy only: where
    relative accuracy is needed, at sin A <= 1/sqrt(2), T_n is its series in sin A, as
    ``_a_minus_sin`` does it.
    """
    if series and n:
        return sin ** (n + 2) * _power_series(_series(n + 2, False), sin * sin)
    base = np.arcsinh(x) if n % 2 else 0.5 * np.log1p(x * x)
    if n == 0:
        return base
    ks, inverse = _recurrence_terms(n)[:2]
    return base - sin[..., None] ** ks @ inverse


def _sin_power_integral(n: int, x: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """S_n(A) = int_0^A sin^n at arrays x = tan A <= 1 and sin = sin A, by its series in
    sin A; S_0 = A."""
    if n == 0:
        return np.arctan(x)
    return sin ** (n + 1) * _power_series(_series(n + 1, True), sin * sin)


def _cos_power_integral(n: int, x: np.ndarray, sin: np.ndarray, cos: np.ndarray) -> np.ndarray:
    """I_n(A) = int_0^B cos^n, B = pi/2 - A, at arrays x = tan A, sin A and cos A, by the
    reduction I_n = cos^(n-1) B sin B / n + (n-1)/n I_(n-2) from I_0 = B, I_1 = sin B,
    unrolled: a sum of positive terms that keeps its digits as B -> 0."""
    base = cos if n % 2 else np.arctan2(1.0, x)
    if n < 2:
        return base
    _, _, powers, weights, last = _recurrence_terms(n)
    return cos * (sin[..., None] ** powers @ weights) + last * base


def chord_kernels(d: int, ts, ell: float, heat: bool = True, big_r: bool = True, width: float = math.inf) -> Callable:
    """The chord means of the H and R kernels, one column per t, for ``Shape.line_integral``.

    Over the lines of a convex set of diameter ell (README, *The chord measure*), with
    A = atan(c/t): |Omega| - H(t) = int int kappa_d [t T_(d-1)(A) + c I_(d-1)(A)] below
    the least width of the set; from it up, free of that cancellation, H(t) = int int
    kappa_d [c S_(d-1)(A) - t T_(d-1)(A)]; and R(t) = int int kappa_d [T_(d-1)(A_ell) - T_(d-1)(A)
    - (c/t)(S_(d-1)(A_ell) - S_(d-1)(A))], the S difference taken as I(A) - I(A_ell) for
    t < ell.  In d = 2 these are exact means over a piece on which c runs linearly, through
    ``asinh_mean`` and G(z) = z - asinh z (``z_minus_asinh_mean``), with R written from ell
    up as kappa_2 [G(c/t) - G(ell/t) + G'(ell/t)(ell - c)/t]; in other dimensions a piece is
    one chord, lo = hi, and the width must be the diameter.  Returns mean(lo, hi): an array of the
    shape of lo with a last axis of len(ts) H columns (if heat), then len(ts) R columns (if
    big_r).
    """
    ts = np.asarray(ts, dtype=float)
    # the kernels square tan A up to ell/t, which overflows from ell/t ~ 1.3e154
    if ell > MAX_SCALE * float(ts.min()):
        least = f"{ell / MAX_SCALE:g}, the least supported t ({1 / MAX_SCALE:g} times the diameter)"
        raise DomainError(f"t = {ts.min():g} is below {least}")
    kap, n, width = kappa(d), d - 1, min(width, ell)

    def parts(x, below):
        """(T_n, I_n) below the diameter, (T_n, S_n) from it up, at tan A = x, for d != 2."""
        root = np.sqrt(1.0 + x * x)
        sin = x / root
        tee = _tan_sin_integral(n, x, sin, not below)
        return tee, _cos_power_integral(n, x, sin, 1.0 / root) if below else _sin_power_integral(n, x, sin)

    # the columns in three groups: below the width, from it to the diameter, from that up
    side = [(t >= width) + (t >= ell) for t in ts.tolist()]
    sides = [cols for cols in ([i for i, k in enumerate(side) if k == g] for g in range(3)) if cols]
    groups = []  # (t, ell/t, whether H is direct, whether t < ell, the terms at c = ell)
    for cols in sides:
        t = ts[cols]
        x_ell, below = ell / t, t[0] < ell
        root = np.sqrt(1.0 + x_ell * x_ell)
        if d != 2:
            at_ell = parts(x_ell, below)
        elif below:
            at_ell = np.arcsinh(x_ell), 1.0 / root
        else:
            at_ell = z_minus_asinh_mean(x_ell, x_ell), x_ell * x_ell / (root * (1.0 + root))  # G, G'
        groups.append((t, x_ell, t[0] >= width, below, at_ell))
    # put the columns back in the order of ts
    order = None if len(sides) < 2 else np.argsort(sum(sides, []))
    if order is not None and heat and big_r:
        order = np.concatenate([order, order + len(ts)])

    def mean(lo, hi):
        lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi, dtype=float)[..., None]
        h_cols, r_cols = [], []
        for t, x_ell, direct, below, (first, second) in groups:
            x = hi / t
            if d == 2:
                m = asinh_mean(lo / t, x) if below else None
                g = z_minus_asinh_mean(lo / t, x) if direct else None
                h_cols.append(t * (g if direct else m))
                if big_r:
                    x_mean = 0.5 * (lo + hi) / t
                    r_cols.append(first - m - (x_ell - x_mean) * second if below
                                  else g - first + second * (x_ell - x_mean))
            else:
                tee, rest = parts(x, below)
                h_cols.append(t * tee + hi * rest if below else hi * rest - t * tee)
                if big_r:
                    r_cols.append(first - tee - x * (rest - second if below else second - rest))
        cols = h_cols * heat + r_cols * big_r
        out = cols[0] if len(cols) == 1 else np.concatenate(cols, axis=-1)
        return kap * (out if order is None else out[..., order])

    return mean


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
