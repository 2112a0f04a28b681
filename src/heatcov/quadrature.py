"""Numerical substrate: one adaptive quadrature rule (also over the circle), limit fits."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from numbers import Integral, Real
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
        # written so that nan fails: it compares false with every bound
        if not all(not isinstance(tol, bool) and isinstance(tol, Real) and 0.0 < tol < math.inf
                   for tol in (self.abs_tol, self.rel_tol)):
            raise ValueError(f"tolerances must be positive and finite, got {self.abs_tol!r}, {self.rel_tol!r}")
        m = self.max_subdivisions
        if isinstance(m, bool) or not isinstance(m, Integral) or m < 1:
            raise ValueError(f"max_subdivisions must be an integer >= 1, got {m!r}")


# Gauss-Kronrod 7/15 pair on [-1, 1]: (node, Gauss weight, Kronrod weight);
# Gauss weight is zero on Kronrod-only nodes.
_GK15 = np.array([
    (0.991455371120813, 0.0, 0.022935322010529),
    (0.949107912342759, 0.129484966168870, 0.063092092629979),
    (0.864864423359769, 0.0, 0.104790010322250),
    (0.741531185599394, 0.279705391489277, 0.140653259715525),
    (0.586087235467691, 0.0, 0.169004726639267),
    (0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.207784955007898, 0.0, 0.204432940075298),
    (0.0, 0.417959183673469, 0.209482141084728),
])
# all 15 nodes, -x before +x from the outside in and then 0, with their (Gauss, Kronrod) weights
_NODES = np.append(np.outer(_GK15[:-1, 0], (-1.0, 1.0)).ravel(), 0.0)
_WEIGHTS = np.vstack([np.repeat(_GK15[:-1, 1:], 2, axis=0), _GK15[-1, 1:]])
# rounds in a row that may each cut the error estimate by less than 1 % before integrate_1d
# gives up: an integrable endpoint singularity s^-a that double precision can resolve
# (a < 0.97) cuts it by 2 % or more a round, while a divergent one leaves it as it is
_STALL_ROUNDS = 16


def _gk_panels(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """G7/K15 on every panel [lo_i, hi_i] with one call of f on all (panels, 15) nodes.

    Returns (K15 values, error estimates), each a (columns, panels) array, and whether f
    returned one value per node, not a row of columns.  Runs under the caller's errstate."""
    half = 0.5 * (hi - lo)
    x = half[:, None] * _NODES
    x += (0.5 * (lo + hi))[:, None]
    fx = np.asarray(f(x.ravel()))
    # one contiguous (panels, 15) product a column, as for a one-valued f: a (columns, 15)
    # product a panel would take a column's bits from how many columns share the call
    gk = fx.reshape(len(lo), 15, -1).transpose(2, 0, 1).copy() @ _WEIGHTS
    k = gk[..., 1]
    diff = np.abs(k - gk[..., 0])
    diff *= half
    if not math.isfinite(k.sum()):
        fx = fx.reshape(*x.shape, -1)
        bad = np.argwhere(~np.isfinite(fx))
        if len(bad):
            p, q, j = bad[0]
            raise QuadratureError(f"non-finite integrand sample f({float(x[p, q])!r}) = {float(fx[p, q, j])!r}: "
                                  "the integral probably diverges there")
        raise QuadratureError("Kronrod sum overflows on a panel")
    return k * half, np.minimum(diff, (200.0 * diff) ** 1.5), fx.ndim == 1


@np.errstate(all="ignore")  # _gk_panels raises on a non-finite sample; an infinite (200 diff)^1.5 is harmless
def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadSpec = QuadSpec(),
    points: Sequence[float] = (),
):
    """Adaptive Gauss-Kronrod integration of f on [a, b].

    f maps a 1-D array of n nodes to the array of its n values there, or to
    an (n, m) array: m integrands, the columns, share every node.  Each round
    of refinement is one call, with NumPy's warnings off, and a few whole-array
    steps: the nodes, Kronrod sums and error estimates of all its panels.
    ``points`` lists interior breakpoints used to seed the initial panels
    (endpoint singular scales, creases).  Column j has converged once its error
    estimate err_j <= max(abs_tol, rel_tol * |value_j|).  A round ranks the
    panels by their largest column error divided by that column's tolerance,
    and splits the first ones until they cover the excess of the worst column.
    Returns (value, err), floats for a one-valued f and arrays of m for
    columns, once every column has converged; raises QuadratureError when the
    panel budget runs out and once 16 rounds in a row each cut no open
    column's error estimate by 1 % or more.
    """
    if not a < b:
        raise QuadratureError(f"need a < b, got [{a}, {b}]")
    edges = np.array(sorted({a, b, *[p for p in points if a < p < b]}))
    lo, hi = edges[:-1], edges[1:]
    val, err, single = _gk_panels(f, lo, hi)
    count = len(lo)  # panels made so far, in creation order
    last_err, stalled, abs_tol, rel_tol = [math.inf] * len(val), 0, spec.abs_tol, spec.rel_tol
    while True:
        totals = list(map(math.fsum, val.tolist()))
        errs = list(map(math.fsum, err.tolist()))
        tols = [max(abs_tol, rel_tol * abs(v)) for v in totals]
        if all(map(operator.le, errs, tols)):
            return (totals[0], errs[0]) if single else (np.array(totals), np.array(errs))
        worst = max(range(len(errs)), key=lambda j: errs[j] / tols[j])
        fell = any(e < 0.99 * last for e, t, last in zip(errs, tols, last_err) if e > t)
        stalled = 0 if fell else stalled + 1
        if stalled >= _STALL_ROUNDS:
            at = np.argmax(err[worst])
            raise QuadratureError(
                f"error estimate {errs[worst]:.3e} has not fallen in {stalled} rounds, the largest "
                f"on [{float(lo[at])!r}, {float(hi[at])!r}]: the integral probably diverges there"
            )
        last_err = errs
        if count >= spec.max_subdivisions:
            raise QuadratureError(
                f"max subdivisions ({spec.max_subdivisions}) exceeded; "
                f"err={errs[worst]:.3e} value={totals[worst]:.6e}"
            )
        # largest scaled errors first, ties in creation order, within the panel budget; the
        # worst column's scale is 1, so a one-valued f splits by its own errors
        score = err[0] if single else (err * (tols[worst] / np.array(tols))[:, None]).max(0)
        order = (-score).argsort(kind="stable")
        need = int(score[order].cumsum().searchsorted(errs[worst] - tols[worst])) + 1
        split = order[: min(need, (spec.max_subdivisions - count + 1) // 2)]
        s_lo, s_hi = lo[split], hi[split]
        mid = 0.5 * (s_lo + s_hi)
        stuck = (mid <= s_lo) | (mid >= s_hi)
        if stuck.any():
            raise QuadratureError(f"panel [{s_lo[stuck][0]}, {s_hi[stuck][0]}] cannot be split further")
        new_lo, new_hi = np.array([s_lo, mid]).T.ravel(), np.array([mid, s_hi]).T.ravel()
        new_val, new_err, _ = _gk_panels(f, new_lo, new_hi)
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        val, err = np.concatenate([val[:, keep], new_val], axis=1), np.concatenate([err[:, keep], new_err], axis=1)
        count += len(new_lo)


def integrate_circle(
    f: Callable[[np.ndarray], np.ndarray], kinks: Sequence[float] = (), spec: QuadSpec = QuadSpec()
):
    """Integrate f(theta) over [0, 2*pi] with ``integrate_1d``.

    The kink angles, taken mod 2*pi, seed the panels so that |cos|/|sin|-type
    creases never cross one.
    """
    two_pi = 2.0 * math.pi
    return integrate_1d(f, 0.0, two_pi, spec, points=[k % two_pi for k in kinks])


@dataclass(frozen=True)
class LimitFit:
    """Result of fitting D(t) = C + a*t*ln(1/t) + b*t near t = 0."""

    C: float
    coeff_tlogt: float
    coeff_t: float
    err_estimate: float
    observed_order: float


def _fit(ts: list, us: list, ds: list) -> tuple:
    """(C, a, b, residuals) of the least-squares fit of ds by C + a u + b t, u = t ln(1/t), by
    modified Gram-Schmidt on 1 (centring), u, t and ds: as stable as Householder QR."""
    n = len(ts)
    means = [math.fsum(col) / n for col in (us, ts, ds)]
    u, t, d = ([v - mean for v in col] for col, mean in zip((us, ts, ds), means))
    uu, ut, ud = (math.fsum(map(operator.mul, u, col)) for col in (u, t, d))
    ut, ud = (ut / uu, ud / uu) if uu > 0.0 else (0.0, 0.0)
    t, d = [b - ut * a for a, b in zip(u, t)], [b - ud * a for a, b in zip(u, d)]
    tt, td = (math.fsum(map(operator.mul, t, col)) for col in (t, d))
    # rank-deficient where u or t keeps at most eps * rows of the largest column norm, sqrt(n)
    if not min(uu, tt) > (math.ulp(1.0) * n) ** 2 * n:
        raise ExtrapolationError("fit is rank-deficient; t range too narrow")
    slope_t = td / tt
    slope_u = ud - ut * slope_t
    c = means[2] - slope_u * means[0] - slope_t * means[1]
    return c, slope_u, slope_t, [dv - (c + slope_u * uv + slope_t * tv) for tv, uv, dv in zip(ts, us, ds)]


def extrapolate_limit(samples: Sequence[tuple[float, float]]) -> LimitFit:
    """Extract lim_{t->0} D(t) from samples on a decreasing t grid.

    Fits the model C + a*t*ln(1/t) + b*t on the smallest two thirds of the
    samples.  The model is an assumption, not a guarantee; err_estimate and
    observed_order report how well the data supports it.
    """
    if len(samples) < 4:
        raise ExtrapolationError("need at least 4 samples")
    ts, ds = [float(t) for t, _ in samples], [float(v) for _, v in samples]
    if not all(a > b for a, b in zip(ts, ts[1:])):
        raise ExtrapolationError("t values must be strictly decreasing")
    if not (0.0 < ts[-1] and ts[0] < 1.0 and all(map(math.isfinite, ds))):
        raise ExtrapolationError("all t must lie in (0, 1), and every sample must be finite")
    n_used = math.ceil(2 * len(samples) / 3)
    ts_used, ds_used = ts[-n_used:], ds[-n_used:]
    if ts_used[0] / ts_used[-1] < 2.0:
        raise ExtrapolationError("t range too narrow for a stable fit")
    us = [t * math.log(1.0 / t) for t in ts_used]
    c, slope_u, slope_t, residuals = _fit(ts_used, us, ds_used)
    err = max(map(abs, residuals)) + abs(c - _fit(ts_used[1:], us[1:], ds_used[1:])[0])

    errors = [abs(d - c) for d in ds]
    orders = sorted(math.log(e0 / e1) / math.log(t0 / t1)
                    for t0, t1, e0, e1 in zip(ts, ts[1:], errors, errors[1:]) if e0 > 0 and e1 > 0)
    half = len(orders) // 2
    observed = (orders[half] if len(orders) % 2 else (orders[half - 1] + orders[half]) / 2) if orders else math.nan
    return LimitFit(C=c, coeff_tlogt=slope_u, coeff_t=slope_t, err_estimate=err, observed_order=observed)
