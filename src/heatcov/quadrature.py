"""Numerical substrate: one adaptive quadrature rule (also over the circle), limit fits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
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
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ValueError(f"tolerances must be positive and finite, got {self.abs_tol}, {self.rel_tol}")
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

    Returns (K15 values, error estimates), each a (panels, columns) array, and
    whether f returned one value per node rather than a row of columns.
    """
    half = (0.5 * (hi - lo))[:, None]
    x = (0.5 * (lo + hi))[:, None] + half * _NODES
    with np.errstate(all="ignore"):  # a non-finite sum raises below; an infinite (200 diff)^1.5 is harmless
        fx = np.asarray(f(x.ravel()))
        single, fx = fx.ndim == 1, fx.reshape(*x.shape, -1)
        # one contiguous (panels, 15) product a column, as for a one-valued f: a (columns, 15)
        # product a panel would take a column's bits from how many columns share the call.
        # Plain methods (transpose, copy, sum) keep the round's fixed NumPy cost low
        g, k = (fx.transpose(2, 0, 1).copy() @ _WEIGHTS).T
        total, diff = k.sum(), half * np.abs(k - g)
        err = np.minimum(diff, (200.0 * diff) ** 1.5)
    if not math.isfinite(total):
        bad = np.argwhere(~np.isfinite(fx))
        if len(bad):
            p, q, j = bad[0]
            raise QuadratureError(f"non-finite integrand sample f({float(x[p, q])!r}) = {float(fx[p, q, j])!r}: "
                                  "the integral probably diverges there")
        raise QuadratureError("Kronrod sum overflows on a panel")
    return half * k, err, single


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
    of refinement is one call.  ``points`` lists interior breakpoints used to
    seed the initial panels (endpoint singular scales, creases).  Column j
    has converged once its error estimate err_j <= max(abs_tol, rel_tol *
    |value_j|).  A round ranks the panels by their largest column error divided
    by that column's tolerance, and splits the first ones until they cover the
    excess of the worst column.  Returns (value, err), floats for a one-valued
    f and arrays of m for columns, once every column has converged; raises
    QuadratureError when the panel budget runs out and once 16 rounds in a row
    each cut no open column's error estimate by 1 % or more.
    """
    if not a < b:
        raise QuadratureError(f"need a < b, got [{a}, {b}]")
    edges = np.array(sorted({a, b, *(p for p in points if a < p < b)}), dtype=float)
    lo, hi = edges[:-1], edges[1:]
    val, err, single = _gk_panels(f, lo, hi)
    count = len(lo)  # panels made so far; rows are in creation order
    last_err, stalled = [math.inf] * val.shape[1], 0
    while True:
        totals = [math.fsum(col) for col in val.T.tolist()]
        errs = [math.fsum(col) for col in err.T.tolist()]
        tols = [max(spec.abs_tol, spec.rel_tol * abs(v)) for v in totals]
        if all(e <= t for e, t in zip(errs, tols)):
            return (totals[0], errs[0]) if single else (np.array(totals), np.array(errs))
        worst = max(range(len(errs)), key=lambda j: errs[j] / tols[j])
        fell = any(e < 0.99 * last for e, t, last in zip(errs, tols, last_err) if e > t)
        stalled = 0 if fell else stalled + 1
        if stalled >= _STALL_ROUNDS:
            at = np.argmax(err[:, worst])
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
        score = err[:, 0] if single else np.max(err * (tols[worst] / np.array(tols)), axis=1)
        order = np.argsort(-score, kind="stable")
        need = int(np.searchsorted(np.cumsum(score[order]), errs[worst] - tols[worst])) + 1
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
        val, err = np.concatenate([val[keep], new_val]), np.concatenate([err[keep], new_err])
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
