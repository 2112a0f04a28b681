"""Dimension constants, Poisson (Cauchy) kernel, and the universal 1-D integrals.

Everything here is a pure function of the dimension ``d`` and, for the
kernel and the 1-D integrals, of one point or upper limit (or, for the means
of asinh that the polygon chord integrals sum, of an interval); the chord
kernels also read a shape's volume, diameter and least width.  The 1-D
integrals are exact recurrences, not quadratures.  The gamma function is only ever
needed at integer and half-integer arguments, so it is computed by exact
recursion from Gamma(1) = 1 and Gamma(1/2) = sqrt(pi) instead of a
general-purpose approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np

from .errors import DomainError

MAX_DIM = 16
MAX_SCALE = 1e150  # the largest ratio diameter / t that the chord kernels accept


def _check_dim(d: int) -> int:
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
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
    if isinstance(t, bool) or not isinstance(t, Real):
        raise DomainError(f"t must be a real number, got {t!r}")
    if not 0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    return float(t)


def tanh_deficit(d: int, x: float = 1.0) -> float:
    """J_d(x) = integral over (0, atanh x) of tanh^d - 1; J_d(1) is J_d.

    With y = tanh(theta) this is -int_0^x (1 - y^d)/(1 - y^2) dy: -log1p(x) in odd d, less the sum
    of x^k / k over k = d - 1, d - 3, ... >= 1, T_(d-1) of ``_recurrence_sums``.  Nothing cancels.
    """
    d = _check_dim(d)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    return -(math.log1p(x) if d % 2 else 0.0) - _recurrence_sums(d - 1, x)[0]


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
# the mean of z^(2k+1) over [a0, a1] is (a0 + a1) g_k / (2k + 2), g_k = the sum over i + j = k of
# a1^(2i) a0^(2j); 24 times the series' mean over a0 + a1, less g_1, sums a1^(2i) _ASINH_MEAN[i, j] a0^(2j)
_ASINH_MEAN = np.array([[24.0 * _ASINH_SERIES[i + j - 1] / (2 * (i + j) + 2) if 2 <= i + j <= 14 else 0.0
                         for j in range(15)] for i in range(15)])


def z_minus_asinh_mean(a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Mean of z - asinh z over [a0, a1], 0 <= a0 <= a1, arrays of one shape.

    Where a1 <= 1/4 the difference cancels, so it is summed as a series: one table of the
    powers of a0^2 and a1^2 times the coefficients ``_ASINH_MEAN``, with the leading term
    (a0 + a1)(a0^2 + a1^2)/24 kept apart.  Each element takes only its own branch.
    """
    small, out = a1 <= 0.25, np.empty(a1.shape)
    if small.any():
        lo, hi = a0[small], a1[small]
        n, squares = len(hi), np.concatenate((hi * hi, lo * lo))
        rows, k = np.empty((15, 2 * n)), 2  # the powers 0..14 of squares, each a product of a few
        rows[0], rows[1] = 1.0, squares
        while k < 15:
            rows[k : 2 * k] = rows[: min(k, 15 - k)] * (rows[k - 1] * squares)
            k *= 2
        rest = np.sum(rows[:, :n] * (_ASINH_MEAN @ rows[:, n:]), axis=0)
        out[small] = (hi + lo) * (squares[:n] + squares[n:] + rest) / 24.0
    if not small.all():
        lo, hi = a0[~small], a1[~small]
        out[~small] = 0.5 * (lo + hi) - asinh_mean(lo, hi)
    return out


# ---------------------------------------------------------------------------
# The chord kernels of H and R (README, *The chord measure*)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _recurrence_terms(n: int) -> tuple:
    """The recurrences of T_n and I_n unrolled into Horner coefficients: with p = 2 - n mod 2,
    T_n = T_(n mod 2) - X^p sum_j X^(2j)/(p + 2j) over p + 2j <= n, and
    I_n = cos A X^(3-p) sum_j w_(4-p+2j) X^(2j) + W I_(n mod 2), where
    w_k = (the product of (j - 1)/j over j = n, n - 2, ..., k + 2)/k and W is that product down to
    j = 2.  Returns (the T coefficients, the I coefficients, W), the lists [0.0] in d = 1."""
    ratio, w = 1.0, {}
    for k in range(n, 1, -2):
        w[k] = ratio / k
        ratio *= (k - 1) / k
    rows = [(1.0 / k, w.get(k + 2 * (n % 2), 0.0)) for k in range(2 - n % 2, n + 1, 2)]
    t_coefs, i_coefs = map(list, zip(*rows or [(0.0, 0.0)]))
    return t_coefs, i_coefs, ratio


def _recurrence_sums(n: int, sin: np.ndarray) -> tuple:
    """(the sum of X^k / k over k = n, n - 2, ... >= 1, the sum of w_k X^(k-1) over
    k = n, n - 2, ... >= 2) at X = sin A, with the w_k of ``_recurrence_terms``: both
    polynomials in X^2 by Horner's rule, in place, one scalar step at a time."""
    x2, sums = sin * sin, []
    for coefs in _recurrence_terms(n)[:2]:
        acc = coefs[0] if len(coefs) == 1 else coefs[-1] * x2 + coefs[-2]
        for c in coefs[-3::-1]:
            acc *= x2
            acc += c
        sums.append(acc)
    low, high = (sin, x2) if n % 2 else (x2, sin)
    return low * sums[0], high * sums[1]


@lru_cache(maxsize=None)
def _series_terms(n: int) -> np.ndarray:
    """The series of T_n and S_n, a column each, j < 60: T_n = X^(n+2) sum_j X^(2j)/(n + 2 + 2j)
    and S_n = X^(n+1) sum_j b_j X^(2j)/(n + 1 + 2j), b_j = C(2j, j)/4^j."""
    b, two_j = np.cumprod([1.0] + [(2 * j - 1) / (2 * j) for j in range(1, 60)]), 2.0 * np.arange(60)
    return np.column_stack([1.0 / (n + 2 + two_j), b / (n + 1 + two_j)])


def chord_kernels(shape, ts, heat: bool, big_r: bool) -> tuple:
    """The chord kernels of H and R on shape, one column per t, and the map back from their integrals.

    With A = atan(c/t) and w the least width (``min_width`` in d = 2, else the diameter ell), below w
    the H kernel is the deficit |Omega| - H, kappa_d [t T_(d-1)(A) + c I_(d-1)(A)], and from w up H
    itself; R's kernel subtracts its terms at c = ell (README, *The chord measure*).  In d = 2 these are
    exact means over a piece on which c runs linearly (``asinh_mean``, ``z_minus_asinh_mean``).  In
    other dimensions a piece is one chord, lo = hi, T and I are Horner sums in sin^2 A below ell
    (``_recurrence_sums``) and series from it up.  From w and ell up, H and R fall like t^-d and
    t^-(d+1), which the absolute tolerance would swallow, so there the H columns are divided by their
    lower bound kappa_d t |Omega|^2 (t^2 + ell^2)^(-(d+1)/2) and the R columns scaled by (t/ell)^(d+1).
    Returns (mean, finish): mean(lo, hi), for ``Shape.line_integral``, is an array of the shape of lo
    with a last axis of len(ts) H columns (if heat), then len(ts) R columns (if big_r), in the order of
    ts; finish(value) unscales the integrated columns and returns (H, R), lists in the order of ts or
    None where not asked for, H clamped to [0, |Omega|].
    """
    geo, ts = shape.geometry, [float(t) for t in ts]
    d, ell, vol = geo.dim, geo.support_radius, geo.volume
    width = min(shape.min_width, ell) if d == 2 else ell  # in other dimensions the direct form needs c <= t
    # the kernels square tan A up to ell/t, which overflows from ell/t ~ 1.3e154
    if ell > MAX_SCALE * min(ts):
        least = f"{ell / MAX_SCALE:g}, the least supported t ({1 / MAX_SCALE:g} times the diameter)"
        raise DomainError(f"t = {min(ts):g} is below {least}")
    kap, n, m, t_all = kappa(d), d - 1, len(ts), np.array(ts)
    last, series = _recurrence_terms(n)[2], _series_terms(n)
    # the columns in up to three groups, set up here once: below the width, from it to the
    # diameter, from that up; each is one (nodes, columns) block of every mean call
    side, scale = [(t >= width) + (t >= ell) for t in ts], 1.0
    direct = [k > 0 for k in side]
    if any(direct):  # on a shape too small or too large for t, a scale leaves the floats
        with np.errstate(all="ignore"):  # checked below, before anything is divided by it
            h_scale = np.where(direct, np.hypot(t_all, ell) ** (d + 1) / (kap * t_all * np.square(vol)), 1.0)
            scale = np.concatenate([h_scale] * heat + [np.where(t_all >= ell, (t_all / ell) ** (d + 1), 1.0)] * big_r)
        bad = np.flatnonzero(~(np.isfinite(scale) & (scale > 0.0)))
        if len(bad):
            raise DomainError(f"t = {ts[bad[0] % m]:g} on a shape of diameter {ell:g} puts the scale of "
                              f"H or R outside the floats")
    groups = []  # (columns, t, group, in d = 2 ell/t and the terms at c = ell)
    for k in sorted(set(side)):
        j = [i for i in range(m) if side[i] == k]
        cols = slice(j[0], j[-1] + 1) if j[-1] - j[0] == len(j) - 1 else np.array(j)  # a slice where they adjoin
        t, at_ell = t_all[cols], None  # d != 2 needs no terms at c = ell: see ride
        if d == 2:
            x_ell = ell / t
            root = np.sqrt(1.0 + x_ell * x_ell)
            at_ell = ((x_ell, np.arcsinh(x_ell), 1.0 / root) if k < 2
                      else (x_ell, z_minus_asinh_mean(x_ell, x_ell), x_ell * x_ell / (root * (1.0 + root))))  # G, G'
        groups.append((cols, t, k, at_ell))
    ride = big_r and d != 2  # c = ell rides along as a last node: R's terms there need no call of their own

    def mean(lo, hi):
        hi, lo = np.asarray(hi, dtype=float), np.asarray(lo, dtype=float)[..., None]
        nodes, hi = hi.shape, (np.concatenate((hi.ravel(), (ell,))) if ride else hi)[..., None]
        out = np.empty(hi.shape[:-1] + (m * (heat + big_r),))
        h_out, r_out = out[..., :m], out[..., m * heat:]  # views of the H and the R columns
        for cols, t, k, at_ell in groups:
            x = hi / t
            if d == 2:
                m_ = asinh_mean(lo / t, x) if k == 0 or k == 1 and big_r else None
                g = z_minus_asinh_mean(lo / t, x) if k > 0 else None
                if heat:
                    h_out[..., cols] = t * (m_ if g is None else g)
                if big_r:
                    x_ell, first, second = at_ell
                    gap = x_ell - 0.5 * (lo + hi) / t
                    r_out[..., cols] = first - m_ - gap * second if k < 2 else g - first + second * gap
                continue
            xx = x * x
            root = np.sqrt(1.0 + xx)
            if k < 2:
                # T_n from T_0 = ln sec A or T_1 = asinh(tan A) - sin A (absolute accuracy only), and
                # I_n from I_0 = pi/2 - A or I_1 = cos A (positive terms); d = 1 needs only T_0, I_0
                cos = 1.0 / root
                tee = np.arcsinh(x) if n % 2 else 0.5 * np.log1p(xx)
                rest = last * (cos if n % 2 else np.arctan2(1.0, x))
                if n > 1:
                    tee_sum, rest_sum = _recurrence_sums(n, x / root)
                    tee -= tee_sum
                    rest += rest_sum * cos
            else:
                # T_n and S_n as series, to as many terms as the largest X^2 needs
                sin = x / root
                x2, power = sin * sin, sin ** (n + 1)
                top = float(x2.max(initial=0.0))
                terms = math.ceil(56.0 * math.log(2.0) / -math.log(top)) if top > 0.0 else 1
                sums = x2[..., None] ** np.arange(terms) @ series[:terms]
                tee, rest = power * sin * sums[..., 0], power * sums[..., 1]
            if heat:
                h_out[..., cols] = t * tee + hi * rest if k < 2 else hi * rest - t * tee
            if big_r:  # the last row is c = ell
                r_out[..., cols] = tee[-1] - tee - x * (rest - rest[-1] if k < 2 else rest[-1] - rest)
        out *= kap
        out *= scale
        return out[:-1].reshape(*nodes, -1) if ride else out

    def finish(value):
        value = (value / scale).tolist()
        # below the least width the H columns are the deficit |Omega| - H, from it up H itself
        h = [min(max(v if up else vol - v, 0.0), vol) for v, up in zip(value, direct)] if heat else None
        return h, (value[-m:] if big_r else None)

    return mean, finish


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
