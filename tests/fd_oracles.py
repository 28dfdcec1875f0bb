"""Finite-difference oracles, used by the tests as independent references.

`fd_gradient` and `fd_hessian` difference values only, so they check the
library's gradient and Hessian routes without sharing any of their code.
`dense_basis_hessian` is the pullback FD Hessian through the dense tangent
basis, the route that the implicit basis products replaced.
"""

import math

import numpy as np

from prgd import NumericalError
from prgd.manifolds import Sphere
from prgd.numerics import DEFAULT_HESS_H, as_vector
from sweep_oracles import householder_basis

DEFAULT_GRAD_H = 1e-5


def _eval_scalar(fn, point: np.ndarray) -> float:
    val = float(fn(point))
    if not math.isfinite(val):
        raise NumericalError(f"scalar function returned non-finite value {val!r}")
    return val


def fd_gradient(fn, s, h: float = DEFAULT_GRAD_H) -> np.ndarray:
    """Central-difference gradient of a scalar function at s."""
    s = as_vector(s)
    if not (h > 0):
        raise ValueError("finite-difference step h must be positive")
    grad = np.empty_like(s)
    for i in range(s.size):
        offset = np.zeros_like(s)
        offset[i] = h
        grad[i] = (_eval_scalar(fn, s + offset) - _eval_scalar(fn, s - offset)) / (2.0 * h)
    return grad


def fd_hessian(fn, s, h: float = DEFAULT_HESS_H) -> np.ndarray:
    """Central-difference Hessian of a scalar function at s, symmetrized as (M + M^T)/2."""
    s = as_vector(s)
    if not (h > 0):
        raise ValueError("finite-difference step h must be positive")
    n = s.size
    f0 = _eval_scalar(fn, s)
    hess = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        hess[i, i] = (_eval_scalar(fn, s + ei) - 2.0 * f0 + _eval_scalar(fn, s - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            val = (
                _eval_scalar(fn, s + ei + ej)
                - _eval_scalar(fn, s + ei - ej)
                - _eval_scalar(fn, s - ei + ej)
                + _eval_scalar(fn, s - ei - ej)
            ) / (4.0 * h * h)
            hess[i, j] = val
            hess[j, i] = val
    return 0.5 * (hess + hess.T)


def dense_basis_hessian(problem, x) -> np.ndarray:
    """The pullback FD Hessian at the origin of the tangent space at x (coordinates), with a dense basis.

    The explicit Householder basis B (the identity on R^d), the 2k rows +/- h * B^T, the adjoint with its
    projection onto the tangent space at x, and the differences taken to coordinates by the product with B.
    """
    manifold = problem.manifold
    basis = householder_basis(x) if isinstance(manifold, Sphere) else np.eye(x.size)
    h = DEFAULT_HESS_H
    k = basis.shape[1]
    rows = np.concatenate([h * basis.T, -h * basis.T])
    points, scale = manifold._retract_scaled_array(x, rows)
    grads = manifold._scaled_adjoint_array(x, scale, problem.riemannian_gradient_many(points))
    hess = (grads[:k] - grads[k:]) @ basis / (2.0 * h)
    return 0.5 * (hess + hess.T)
