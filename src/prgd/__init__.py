"""Perturbed Riemannian gradient descent with verification experiments."""

from .descent import (
    PrgdParams,
    RunTrace,
    TraceEvent,
    boundary_alpha,
    derive_params,
    prgd,
    prgd_lockstep,
    rgd,
    tangent_space_steps,
)
from .manifolds import Euclidean, Manifold, Point, Sphere, Tangent
from .numerics import NumericalError, RngStream, min_eigpair, operator_norm, sample_unit_ball
from .problems import CostFunction, PcaProblem, QuadraticSaddle, load_matrix, save_matrix, synthetic_matrix
from .pullback import Pullback
from .verify import (
    CriticalityReport,
    check_second_order_point,
    check_second_order_points,
    audit_trace,
    coupling_experiment,
    empirical_grad_lipschitz,
    empirical_hess_lipschitz,
)

__all__ = [
    "CostFunction",
    "CriticalityReport",
    "Euclidean",
    "Manifold",
    "NumericalError",
    "PcaProblem",
    "Point",
    "PrgdParams",
    "Pullback",
    "QuadraticSaddle",
    "RngStream",
    "RunTrace",
    "Sphere",
    "Tangent",
    "TraceEvent",
    "boundary_alpha",
    "check_second_order_point",
    "check_second_order_points",
    "audit_trace",
    "coupling_experiment",
    "derive_params",
    "empirical_grad_lipschitz",
    "empirical_hess_lipschitz",
    "load_matrix",
    "min_eigpair",
    "operator_norm",
    "prgd",
    "prgd_lockstep",
    "rgd",
    "sample_unit_ball",
    "save_matrix",
    "synthetic_matrix",
    "tangent_space_steps",
]
