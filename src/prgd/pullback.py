"""The pullback of a cost through the retraction at a fixed base point."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .manifolds import Point, Tangent, same_point
from .numerics import fd_hessian_from_gradients


@dataclass(frozen=True)
class Pullback:
    """The composition cost-after-retraction on the tangent space at `base`.

    Values and gradients are exact (the gradient uses the adjoint of the
    retraction differential). Hessians are central differences of the exact
    pullback gradient, 2k gradient evaluations, O(k*n) memory, in an orthonormal
    tangent basis, so on the sphere they are intrinsic (n-1) x (n-1) matrices.
    """

    problem: object
    base: Point

    def __post_init__(self):
        self.problem._check_point(self.base)

    @property
    def manifold(self):
        return self.base.manifold

    @cached_property
    def basis(self) -> np.ndarray:
        return self.manifold.tangent_basis(self.base)

    def _check_arg(self, s: Tangent):
        if s.base is not self.base and not same_point(s.base, self.base):
            raise ValueError("tangent vector is not based at the pullback's base point")

    def value(self, s: Tangent) -> float:
        self._check_arg(s)
        return self.problem.value(self.manifold.retract(self.base, s))

    def gradient(self, s: Tangent) -> Tangent:
        """Adjoint of the retraction differential applied to the downstream gradient."""
        self._check_arg(s)
        self.manifold._check_tangent(s)
        y, scale = self.manifold._retract_scaled_array(self.base.coords, s.coords)
        grad_y = self.problem.riemannian_gradient(Point(self.manifold, y)).coords
        return Tangent(self.base, self.manifold._scaled_adjoint_array(self.base.coords, scale, grad_y))

    def gradient_many(self, tangents: np.ndarray) -> np.ndarray:
        """Exact gradients at rows of `tangents` (ambient tangent coordinates at the base)."""
        return pullback_gradient_rows(self.problem, self.base.coords, tangents)

    def hessian_at_zero(self) -> np.ndarray:
        """Finite-difference Hessian at the tangent-space origin, in the orthonormal basis."""
        return fd_hessian_from_gradients(self.gradient_many, 0.0, self.basis)

    def hessian_at(self, s: Tangent) -> np.ndarray:
        """Finite-difference Hessian at a tangent point, in the same orthonormal basis."""
        self._check_arg(s)
        return fd_hessian_from_gradients(self.gradient_many, self.basis @ (self.basis.T @ s.coords), self.basis)


def pullback_step(problem, x: np.ndarray, s: np.ndarray):
    """Unchecked (y, f(y), grad f(y), pullback gradient at s) for y = Retr_x(s), rows of s at rows of x.

    One retraction, one fused cost call and one adjoint.
    """
    manifold = problem.manifold
    y, scale = manifold._retract_scaled_array(x, s)
    f, grad_y = problem._value_and_gradient_array(y)
    return y, f, grad_y, manifold._scaled_adjoint_array(x, scale, grad_y)


def pullback_gradient_rows(problem, x: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    """Unchecked `Pullback.gradient_many` at base coordinates x, or of (count, rows, n) tangents at (count, n) bases."""
    manifold = problem.manifold
    x = x[..., None, :]
    points, scale = manifold._retract_scaled_array(x, tangents)
    return manifold._scaled_adjoint_array(x, scale, problem.riemannian_gradient_many(points))
