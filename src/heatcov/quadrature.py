"""Numerical substrate: one adaptive quadrature rule (also over circle and sphere), limit fits."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ExtrapolationError, QuadratureError


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and the panel budget governing all integrations."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 10_000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


# Gauss-Kronrod 7/15 pair on [-1, 1]: (node, Gauss weight, Kronrod weight);
# Gauss weight is zero on Kronrod-only nodes.
_GK15 = (
    (0.991455371120813, 0.0, 0.022935322010529),
    (0.949107912342759, 0.129484966168870, 0.063092092629979),
    (0.864864423359769, 0.0, 0.104790010322250),
    (0.741531185599394, 0.279705391489277, 0.140653259715525),
    (0.586087235467691, 0.0, 0.169004726639267),
    (0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.207784955007898, 0.0, 0.204432940075298),
    (0.0, 0.417959183673469, 0.209482141084728),
)


def _gk_panel(f: Callable[[float], float], a: float, b: float):
    """One G7/K15 application on [a, b]; returns (K15 value, error estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    g = 0.0
    k = 0.0
    for x, wg, wk in _GK15:
        for xi in ((mid - half * x, mid + half * x) if x > 0.0 else (mid,)):
            fx = f(xi)
            if not math.isfinite(fx):
                raise QuadratureError(f"non-finite integrand sample f({xi!r}) = {fx!r}")
            g += wg * fx
            k += wk * fx
    diff = half * abs(k - g)
    err = min(diff, (200.0 * diff) ** 1.5)
    return half * k, err


def integrate_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadSpec = QuadSpec(),
    points: Sequence[float] = (),
):
    """Adaptive Gauss-Kronrod integration of f on [a, b].

    ``points`` lists interior breakpoints used to seed the initial panels
    (endpoint singular scales, support kinks).  Returns (value, err) with
    err <= max(abs_tol, rel_tol * |value|) or raises QuadratureError.
    """
    if not a < b:
        raise QuadratureError(f"need a < b, got [{a}, {b}]")
    edges = sorted({a, b, *(p for p in points if a < p < b)})
    heap = []
    counter = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk_panel(f, lo, hi)
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1
    while True:
        total = math.fsum(item[4] for item in heap)
        total_err = math.fsum(item[5] for item in heap)
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total, total_err
        if counter >= spec.max_subdivisions:
            raise QuadratureError(
                f"max subdivisions ({spec.max_subdivisions}) exceeded; "
                f"err={total_err:.3e} value={total:.6e}"
            )
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureError(f"panel [{lo}, {hi}] cannot be split further")
        for sub in ((lo, mid), (mid, hi)):
            val, err = _gk_panel(f, *sub)
            heapq.heappush(heap, (-err, counter, sub[0], sub[1], val, err))
            counter += 1


def integrate_circle(
    f: Callable[[float], float], kinks: Sequence[float] = (), spec: QuadSpec = QuadSpec()
):
    """Integrate f(theta) over [0, 2*pi] with ``integrate_1d``.

    The kink angles, taken mod 2*pi, seed the panels so that |cos|/|sin|-type
    creases never cross one.
    """
    two_pi = 2.0 * math.pi
    return integrate_1d(f, 0.0, two_pi, spec, points=[k % two_pi for k in kinks])


def integrate_sphere(f, spec: QuadSpec = QuadSpec()):
    """Integrate f(u) over the unit sphere in R^3 with nested ``integrate_1d``.

    The outer integral runs over the polar cosine, the inner one over the
    azimuth; the error estimate adds the outer one to twice the largest inner one.
    """
    inner_errs = []

    def ring(m):
        s = math.sqrt(max(0.0, 1.0 - m * m))
        val, err = integrate_1d(
            lambda phi: f(np.array([s * math.cos(phi), s * math.sin(phi), m])),
            0.0, 2.0 * math.pi, spec,
        )
        inner_errs.append(err)
        return val

    value, err = integrate_1d(ring, -1.0, 1.0, spec)
    return value, err + 2.0 * max(inner_errs)


@dataclass(frozen=True)
class LimitFit:
    """Result of fitting D(t) = C + a*t*ln(1/t) + b*t near t = 0."""

    C: float
    coeff_tlogt: float
    coeff_t: float
    err_estimate: float
    observed_order: float


def _lstsq_fit(ts, ds):
    design = np.column_stack([np.ones_like(ts), ts * np.log(1.0 / ts), ts])
    coeffs, _, rank, _ = np.linalg.lstsq(design, ds, rcond=None)
    if rank < 3:
        raise ExtrapolationError("fit is rank-deficient; t range too narrow")
    residuals = ds - design @ coeffs
    return coeffs, residuals


def extrapolate_limit(samples: Sequence[tuple[float, float]]) -> LimitFit:
    """Extract lim_{t->0} D(t) from samples on a decreasing t grid.

    Fits the model C + a*t*ln(1/t) + b*t on the smallest two thirds of the
    samples.  The model is an assumption, not a guarantee; err_estimate and
    observed_order report how well the data supports it.
    """
    if len(samples) < 4:
        raise ExtrapolationError("need at least 4 samples")
    ts = np.array([t for t, _ in samples], dtype=float)
    ds = np.array([v for _, v in samples], dtype=float)
    if not np.all(np.diff(ts) < 0):
        raise ExtrapolationError("t values must be strictly decreasing")
    if np.any(ts >= 1.0):
        raise ExtrapolationError("all t must be below 1")
    n_used = math.ceil(2 * len(samples) / 3)
    ts_used = ts[-n_used:]
    ds_used = ds[-n_used:]
    if ts_used[0] / ts_used[-1] < 2.0:
        raise ExtrapolationError("t range too narrow for a stable fit")
    coeffs, residuals = _lstsq_fit(ts_used, ds_used)
    coeffs_drop, _ = _lstsq_fit(ts_used[1:], ds_used[1:])
    err = float(np.max(np.abs(residuals))) + abs(coeffs[0] - coeffs_drop[0])

    c = coeffs[0]
    errors = np.abs(ds - c)
    orders = []
    for k in range(len(ts) - 1):
        if errors[k] > 0 and errors[k + 1] > 0 and ts[k] != ts[k + 1]:
            orders.append(math.log(errors[k] / errors[k + 1]) / math.log(ts[k] / ts[k + 1]))
    observed = float(np.median(orders)) if orders else float("nan")
    return LimitFit(
        C=float(c),
        coeff_tlogt=float(coeffs[1]),
        coeff_t=float(coeffs[2]),
        err_estimate=err,
        observed_order=observed,
    )
