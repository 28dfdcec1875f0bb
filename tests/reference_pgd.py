"""Stand-alone Euclidean perturbed gradient descent, written against plain callables.

Used as the independent comparator for the flat-space reduction: same rng
contract, same stopping rules, but its own loop over f and grad-f callables.
During a perturbation episode the walker keeps the displacement from the
anchor point, so its arithmetic matches the tangent-space formulation
operation for operation.
"""

import numpy as np

from prgd.numerics import sample_unit_ball


def reference_pgd(f, grad_f, x0, eta, radius, horizon, epsilon, budget, gap, rng):
    """Returns f after every descent step."""
    x = np.array(x0, dtype=float)
    f0 = f(x)
    f_values = []
    t = 0
    while t <= budget:
        if f(x) < f0 - gap:
            break
        g = grad_f(x)
        if float(np.linalg.norm(g)) > epsilon:
            x = x - eta * g
            t += 1
            f_values.append(f(x))
        else:
            ball, rng = sample_unit_ball(x.size, rng)
            disp = eta * (radius * ball)
            for _ in range(horizon):
                disp = disp - eta * grad_f(x + disp)
                f_values.append(f(x + disp))
            x = x + disp
            t += horizon
    return f_values
