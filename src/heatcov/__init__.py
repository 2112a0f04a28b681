"""Heat content of bounded sets under the Poisson kernel via set covariance functions."""

__version__ = "0.1.0"

from .asymptotics import (
    ExpansionBreakdown,
    ThirdTermReport,
    big_R,
    decomposition,
    decompositions,
    default_t_grid,
    F_limit,
    heat_content,
    phi_slope,
    psi_F,
    third_term,
)
from .kernel import (
    KernelConstants,
    kappa,
    tanh_deficit,
    unit_ball_volume,
    unit_sphere_area,
)
from .mc import McEstimate, mc_covariance, mc_heat_content
from .quadrature import (
    LimitFit,
    QuadSpec,
    extrapolate_limit,
    integrate_1d,
    integrate_circle,
)
from .shapes import (
    ConvexPolygon,
    Interval,
    Rectangle,
    Shape,
    ShapeGeometry,
    UnitBall,
    covariance,
    directional_variation,
    gamma,
    gamma_weighted_integral,
    geometry,
    shape_from_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
