"""Heat content, its three-term small-time decomposition, and the third-term constant."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import kernel
from .errors import DomainError
from .kernel import _check_t
from .quadrature import _MIN_SAMPLES, QuadSpec, extrapolate_limit
from .shapes import Shape, gamma_weighted_integral, geometry


# ---------------------------------------------------------------------------
# Heat content and R on a t grid, in one pass over the chords
# ---------------------------------------------------------------------------

def _heat_and_R(shape: Shape, ts: Sequence[float], quad: QuadSpec, heat: bool = True, big_r: bool = True):
    """(H, R) at each t of ts, as lists, from one ``line_integral`` of the chord kernels, whose
    columns ``kernel.chord_kernels`` lays out, scales and maps back.

    H is clamped to [0, |Omega|]; either is None unless asked for, and R vanishes where
    gamma does.
    """
    if big_r and shape.gamma_vanishes:
        return (_heat_and_R(shape, ts, quad, big_r=False)[0] if heat else None), [0.0] * len(ts)
    mean, finish = kernel.chord_kernels(shape, ts, heat, big_r)
    value, _ = shape.line_integral(mean, quad, seeds=shape.scale_seeds(ts))
    return finish(value)


def heat_content(shape: Shape, t: float, quad: QuadSpec = QuadSpec()) -> float:
    """H(t): mass kept by Omega under the Poisson kernel, clamped to [0, |Omega|]."""
    t = _check_t(t)
    return float(_heat_and_R(shape, [t], quad, big_r=False)[0][0])


# ---------------------------------------------------------------------------
# phi, Psi/F, R
# ---------------------------------------------------------------------------

def phi_over_t(shape: Shape, t: float) -> float:
    """phi(t)/t = (A_d k_d / t) * int_0^{atan(t/ell)} cos^(d-1), without cancellation."""
    t = _check_t(t)
    geo = geometry(shape)
    d = geo.dim
    hyp = math.hypot(t, geo.support_radius)
    # int_0^a cos^(d-1) = sin a - M_{d-1}, with sin a = t/hyp
    cos_int_over_t = 1.0 / hyp - kernel.cos_power_deficit(d - 1, t / hyp) / t
    return kernel.unit_sphere_area(d) * kernel.kappa(d) * cos_int_over_t


def phi_slope(shape: Shape) -> float:
    """lim phi(t)/t = A_d kappa_d / ell."""
    geo = geometry(shape)
    d = geo.dim
    return kernel.unit_sphere_area(d) * kernel.kappa(d) / geo.support_radius


def psi_F(shape: Shape, t: float):
    """(Psi(t), F(t)) with Psi = ln(1/t) + F.

    F(t) = ln(ell + sqrt(ell^2 + t^2)) + J_d(ell / sqrt(ell^2 + t^2)), the
    second term being the tanh deficit truncated at asinh(ell / t).
    """
    t = _check_t(t)
    geo = geometry(shape)
    ell = geo.support_radius
    hyp = math.hypot(ell, t)
    f_val = math.log(ell + hyp) + kernel.tanh_deficit(geo.dim, ell / hyp)
    return -math.log(t) + f_val, f_val


def F_limit(shape: Shape) -> float:
    geo = geometry(shape)
    return math.log(2.0 * geo.support_radius) + kernel.tanh_deficit(geo.dim)


def big_R(shape: Shape, t: float, quad: QuadSpec = QuadSpec()) -> float:
    """R(t) = ell^(d+1) kappa_d * int_0^1 s^d gamma(ell s) (t^2 + ell^2 s^2)^-(d+1)/2 ds."""
    t = _check_t(t)
    return float(_heat_and_R(shape, [t], quad, heat=False)[1][0])


# ---------------------------------------------------------------------------
# Decomposition and the third-term constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionBreakdown:
    t: float
    H: float
    phi: float
    psi: float
    F: float
    R: float
    residual: float
    D: float


def _quotient(shape: Shape, t: float, r: float):
    """(phi/t, Psi, F, D) at t, where D = |Omega| phi/t + (Per/pi) F - R -> C."""
    geo = geometry(shape)
    pot = phi_over_t(shape, t)
    psi, f_val = psi_F(shape, t)
    return pot, psi, f_val, geo.volume * pot + geo.perimeter / math.pi * f_val - r


def decompositions(shape: Shape, ts: Sequence[float], quad: QuadSpec = QuadSpec()) -> list:
    """``decomposition`` at each t of ts, with H and R from one pass over the chords."""
    ts = [_check_t(t) for t in ts]
    if not ts:
        return []
    geo = geometry(shape)
    hs, rs = _heat_and_R(shape, ts, quad)
    rows = []
    for t, h, r in zip(ts, hs, rs):
        pot, psi, f_val, d_val = _quotient(shape, t, r)
        residual = (geo.volume - h) - (
            geo.volume * pot * t + geo.perimeter / math.pi * t * psi - t * r
        )
        rows.append(ExpansionBreakdown(
            t=t, H=h, phi=pot * t, psi=psi, F=f_val, R=r, residual=residual, D=d_val
        ))
    return rows


def decomposition(shape: Shape, t: float, quad: QuadSpec = QuadSpec()) -> ExpansionBreakdown:
    """All pieces of |Omega| - H = |Omega| phi + (Per/pi) t Psi - t R at one t."""
    return decompositions(shape, [t], quad)[0]


@dataclass(frozen=True)
class ThirdTermReport:
    C_formula: float
    C_extrapolated: float
    extrapolation_err: float
    observed_order: float
    pieces: dict


def default_t_grid(k_min: int = 4, k_max: int = 16) -> list:
    return [2.0**-k for k in range(k_min, k_max + 1)]


def third_term(
    shape: Shape,
    quad: QuadSpec = QuadSpec(),
    t_grid: Optional[Sequence[float]] = None,
) -> ThirdTermReport:
    """Assemble the third-term constant two ways, which check each other: by the formula
    from the gamma integral, and as the limit of D(t) on t_grid."""
    geo = geometry(shape)
    gamma_int, gamma_err = gamma_weighted_integral(shape, quad)
    f_lim, slope = F_limit(shape), phi_slope(shape)
    # C = |Omega| lim phi/t + (Per/pi) lim F - lim R, where lim R = kappa_d * gamma_int
    c_formula = (
        geo.volume * slope + geo.perimeter / math.pi * f_lim - kernel.kappa(geo.dim) * gamma_int
    )
    ts = [_check_t(t) for t in t_grid] if t_grid is not None else default_t_grid()
    if len(ts) < _MIN_SAMPLES or any(a <= b for a, b in zip(ts, ts[1:])):
        raise DomainError(f"t_grid must be strictly decreasing with >= {_MIN_SAMPLES} points")
    _, rs = _heat_and_R(shape, ts, quad, heat=False)
    samples = [(t, _quotient(shape, t, r)[-1]) for t, r in zip(ts, rs)]
    fit = extrapolate_limit(samples)
    return ThirdTermReport(
        C_formula=c_formula,
        C_extrapolated=fit.C,
        extrapolation_err=fit.err_estimate,
        observed_order=fit.observed_order,
        pieces={"gamma_integral": gamma_int, "gamma_integral_err": gamma_err, "F_limit": f_lim, "phi_slope": slope},
    )
