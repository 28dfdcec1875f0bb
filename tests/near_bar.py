"""Saddles near the curvature bar: PCA matrices whose second eigenvector has curvature -kappa * sqrt(rho * eps)."""

import math

from prgd.numerics import RngStream
from prgd.problems import synthetic_matrix


def near_bar_matrix(dim: int, kappa: float, eps: float):
    """Q diag(2, l2, l2 (1 - 1/dim), ..., l2 (2/dim)) Q^T with l2 = 2 - kappa * sqrt(rho * eps), and Q.

    Q is the rotation of `synthetic_matrix(dim, RngStream(1, 2**48))`, and rho = 9 * ||A|| = 18 is `PcaProblem`'s
    Hessian Lipschitz constant, so the Riemannian Hessian at the second eigenvector Q[:, 1] has the one negative
    eigenvalue l2 - 2 = -kappa * sqrt(rho * eps), kappa times the bar -sqrt(rho * eps), and Q[:, 0] is the minimizer.
    """
    _, lams, q, _ = synthetic_matrix(dim, RngStream(1, 2**48))
    lams[1:] *= 2.0 - kappa * math.sqrt(9.0 * 2.0 * eps)
    a = (q * lams) @ q.T
    return 0.5 * (a + a.T), q
