"""The pullback of a cost through the retraction at a fixed base point."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .manifolds import Point, Tangent
from .numerics import NumericalError, fd_hessian_from_gradients


@dataclass(frozen=True)
class Pullback:
    """The composition cost-after-retraction on the tangent space at `base`.

    Values and gradients are exact (the gradient uses the adjoint of the
    retraction differential). Hessians are central differences of the exact
    pullback gradient, 2k gradient evaluations, O(k*n) memory, in an orthonormal
    tangent basis, so on the sphere they are intrinsic (n-1) x (n-1) matrices.
    `value` and `gradient` are their checks plus one `pullback_step`.
    """

    problem: object
    base: Point

    def __post_init__(self):
        self.problem.manifold._check_point(self.base)

    @property
    def manifold(self):
        return self.base.manifold

    @cached_property
    def frame(self):
        return self.manifold._tangent_frame_array(self.base.coords)

    def value(self, s: Tangent) -> float:
        self.manifold._check_tangent(s, at=self.base)
        return float(pullback_step(self.problem, self.base.coords, s.coords)[1])

    def gradient(self, s: Tangent) -> Tangent:
        """Adjoint of the retraction differential applied to the downstream gradient."""
        self.manifold._check_tangent(s, at=self.base)
        grad = pullback_step(self.problem, self.base.coords, s.coords)[3]
        if not np.all(np.isfinite(grad)):
            raise NumericalError("pullback gradient is non-finite")
        return Tangent(self.base, grad)

    def hessian_at_zero(self) -> np.ndarray:
        """Finite-difference Hessian at the tangent-space origin, in the orthonormal basis."""
        x = self.base.coords
        return fd_hessian_from_gradients(partial(pullback_gradient_rows, self.problem, x), self.manifold, x, self.frame, 0.0)

    def hessian_at(self, s: Tangent) -> np.ndarray:
        """Finite-difference Hessian at a tangent point, in the same orthonormal basis, centred at s projected."""
        self.manifold._check_tangent(s, at=self.base)
        x = self.base.coords
        center = self.manifold._project_array(x, s.coords)
        return fd_hessian_from_gradients(partial(pullback_gradient_rows, self.problem, x), self.manifold, x, self.frame, center)


def pullback_step(problem, x: np.ndarray, s: np.ndarray):
    """Unchecked (y, f(y), grad f(y), pullback gradient at s) for y = Retr_x(s), rows of s at rows of x.

    One retraction, one fused cost call and one adjoint.
    """
    manifold = problem.manifold
    y, scale = manifold._retract_scaled_array(x, s)
    f, grad_y = problem._value_and_gradient_array(y)
    return y, f, grad_y, manifold._scaled_adjoint_array(x, scale, grad_y)


def pullback_gradient_rows(problem, x: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    """Unchecked pullback gradients of the rows of `tangents` at x, or of (count, rows, n) tangents at (count, n) x,
    up to a multiple of x; the tangents are overwritten by their retracted points.

    The adjoint's projection onto the tangent space at x is left out: the FD Hessian takes these rows to
    basis coordinates, and B^T x = 0 drops the multiple of x that the projection would remove. On R^d
    the rows are the pullback gradients exactly. Retracting in place and dividing the gradient block
    the cost made by the scale in place, a call holds two blocks of rows at its peak.
    """
    points, scale = problem.manifold._retract_scaled_array(x[..., None, :], tangents, out=tangents)
    grads = problem.riemannian_gradient_many(points)
    return grads if scale is None else np.divide(grads, scale, out=grads)
