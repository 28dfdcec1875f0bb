"""Per-sample Lipschitz sweeps, the reference for the library's stacked block sweeps.

These are the sample-at-a-time loops the block sweeps replaced: the same draws
in the same stream order, one pullback and one pair of gradients or
finite-difference Hessians per sample, through the validated public routes.
The block sweeps must return the same ratios bit for bit.

`householder_frame`, `frame_ball_tangent` and `householder_basis` are the
per-point sphere geometry in plain numpy. `frame_ball_tangent` maps a unit-ball
draw through the reflector data, as the stacked kernel `Sphere._ball_tangent_array`
does, and that kernel must give its bits row for row. `householder_basis` is the
dense (n, n - 1) basis, the reference for `tangent_basis` and the implicit basis
products; `dense_ball_tangent` maps a draw through it, and agrees with the frame
map to round-off only.
"""

import numpy as np

from prgd.numerics import operator_norm
from prgd.pullback import Pullback
from prgd.verify import random_point


def householder_frame(x):
    """(others, v, w) at a unit vector x: the reflector's kept columns, B = I[:, others] + v w^T, p = argmax|x_i|."""
    p = int(np.argmax(np.abs(x)))
    v = x.copy()
    v[p] += np.copysign(1.0, x[p])
    others = np.delete(np.arange(x.size), p)
    return others, v, v[others] / -(1.0 + abs(x[p]))


def householder_basis(x):
    """Tangent basis at a unit vector x: the Householder reflector of x with column argmax|x_i| deleted."""
    others, v, w = householder_frame(x)
    basis = np.outer(v, w)
    basis[others, np.arange(x.size - 1)] += 1.0
    return basis


def _project_and_guard(x, ambient, radius):
    """Projection onto x-perp, then the round-off guard that scales a vector longer than radius back to it."""
    ambient = ambient - x.dot(ambient) * x
    nrm = float(np.linalg.norm(ambient))
    return ambient * (radius / nrm) if nrm > radius else ambient


def frame_ball_tangent(x, radius, ball):
    """The tangent at x for a unit-ball draw: B c = v (w . c) plus c at the entries others, for c = radius * ball."""
    others, v, w = householder_frame(x)
    c = radius * ball
    # vecdot, as the kernel: a dot of -0.0 and c is +0.0 there, where w.dot(c) may give -0.0
    ambient = v * np.vecdot(w, c)
    ambient[others] += c
    return _project_and_guard(x, ambient, radius)


def dense_ball_tangent(x, radius, ball):
    """The tangent at x for a unit-ball draw through the dense `householder_basis`: one (n, n - 1) matvec."""
    return _project_and_guard(x, householder_basis(x) @ (radius * ball), radius)


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
