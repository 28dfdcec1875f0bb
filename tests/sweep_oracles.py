"""Per-sample Lipschitz sweeps, the reference for the library's stacked block sweeps.

These are the sample-at-a-time loops the block sweeps replaced: the same draws
in the same stream order, one pullback and one pair of gradients or
finite-difference Hessians per sample, through the validated public routes.
The block sweeps must return the same ratios bit for bit.

`householder_basis` and `sphere_ball_tangent` are the per-point sphere geometry
that the stacked kernels `Sphere._tangent_basis_array` and `_ball_tangent_array`
replaced; the kernels must give their bits row for row.
"""

import numpy as np

from prgd.numerics import operator_norm
from prgd.pullback import Pullback
from prgd.verify import random_point


def householder_basis(x):
    """Tangent basis at a unit vector x: the Householder reflector of x with column argmax|x_i| deleted."""
    n = x.size
    p = int(np.argmax(np.abs(x)))
    v = x.copy()
    v[p] += np.copysign(1.0, x[p])
    others = np.delete(np.arange(n), p)
    basis = np.outer(v, v[others] / -(1.0 + abs(x[p])))
    basis[others, np.arange(n - 1)] += 1.0
    return basis


def sphere_ball_tangent(x, basis, radius, ball):
    """The tangent at x for a unit-ball draw: basis map, projection, then the norm round-off guard."""
    ambient = basis @ (radius * ball)
    ambient = ambient - x.dot(ambient) * x
    nrm = float(np.linalg.norm(ambient))
    return ambient * (radius / nrm) if nrm > radius else ambient


def sample_pair(problem, ball, rng, min_norm=1e-8):
    x, rng = random_point(problem.manifold, rng)
    while True:
        s, rng = problem.manifold.sample_ball(x, ball, rng)
        if s.norm >= min_norm:
            return x, s, rng


def grad_lipschitz_loop(problem, ball, n_samples, rng):
    worst = 0.0
    for _ in range(n_samples):
        x, s, rng = sample_pair(problem, ball, rng)
        pull = Pullback(problem, x)
        g_s = pull.gradient(s).coords
        g_0 = problem.riemannian_gradient(x).coords
        worst = max(worst, float(np.linalg.norm(g_s - g_0)) / s.norm)
    return worst


def hess_lipschitz_loop(problem, ball, n_samples, rng):
    worst = 0.0
    for _ in range(n_samples):
        x, s, rng = sample_pair(problem, ball, rng)
        pull = Pullback(problem, x)
        diff = pull.hessian_at(s) - pull.hessian_at_zero()
        worst = max(worst, operator_norm(diff) / s.norm)
    return worst
