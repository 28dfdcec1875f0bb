"""The argument boundary: every validated method checks each `Point` with `Manifold._check_point` and each `Tangent`
with `Manifold._check_tangent` at its point, and a bad argument raises that helper's `ValueError`."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from prgd.descent import derive_params, prgd, rgd, tangent_space_steps
from prgd.manifolds import Euclidean, Sphere, Tangent
from prgd.numerics import RngStream
from prgd.problems import PcaProblem, QuadraticSaddle
from prgd.pullback import Pullback
from prgd.verify import check_second_order_point

POINT_ERROR = "^expected a point of "
TANGENT_ERROR = "^expected a tangent vector of "

# unit vectors of R^4: x and y are points of either manifold, s a tangent at x and t one at y
X, Y = [0.5, 0.5, 0.5, 0.5], [0.5, 0.5, -0.5, -0.5]
S, T = [0.5, -0.5, 0.5, -0.5], [0.5, -0.5, -0.5, 0.5]


def context(name):
    """The problem, its valid arguments, and the bad ones: a point of the other manifold, a tangent at another
    point and a one-entry tangent, which numpy would broadcast; the last two also stand in for w, the tangent
    at Retr_x(s)."""
    if name == "sphere":
        problem, other = PcaProblem(np.diag([4.0, 3.0, 2.0, 1.0])), Euclidean(4)
    else:
        problem, other = QuadraticSaddle(np.diag([-1.0, 1.0, 2.0, 3.0])), Sphere(4)
    m = problem.manifold
    x, y = m.point(X), m.point(Y)
    s = m.tangent(x, S)
    at_retraction = m.retract(x, s)
    params = derive_params(epsilon=1e-3, delta=0.1, dim=m.intrinsic_dim, ell=10.0, lip_grad=10.0, lip_hess=10.0,
                           ball=math.inf, gap=1.0, mode="practical", chi=4.0)
    good = {"point": x, "tangent": s, "w": m.project(at_retraction, T)}
    elsewhere = m.tangent(y, T)
    bad = {
        "point": {"other manifold": other.point(X)},
        "tangent": {"elsewhere": elsewhere, "shape": Tangent(x, np.zeros(1))},
        "w": {"elsewhere": elsewhere, "shape": Tangent(at_retraction, np.zeros(1))},
    }
    return SimpleNamespace(problem=problem, m=m, x=x, params=params, good=good, bad=bad)


# name: (the kinds of argument it takes, in order, and the call on a context and those arguments)
METHODS = {
    "Manifold.tangent": (("point",), lambda c, x: c.m.tangent(x, S)),
    "Manifold.project": (("point",), lambda c, x: c.m.project(x, S)),
    "Manifold.retract": (("point", "tangent"), lambda c, x, s: c.m.retract(x, s)),
    "Manifold.retraction_adjoint": (("point", "tangent", "w"), lambda c, x, s, w: c.m.retraction_adjoint(x, s, w)),
    "Manifold.sample_ball": (("point",), lambda c, x: c.m.sample_ball(x, 1.0, RngStream(1))),
    "Manifold.tangent_basis": (("point",), lambda c, x: c.m.tangent_basis(x)),
    "Manifold.check_second_order": (("point", "tangent"), lambda c, x, s: c.m.check_second_order(x, s)),
    "CostFunction.value": (("point",), lambda c, x: c.problem.value(x)),
    "CostFunction.riemannian_gradient": (("point",), lambda c, x: c.problem.riemannian_gradient(x)),
    "Pullback": (("point",), lambda c, x: Pullback(c.problem, x)),
    "Pullback.value": (("tangent",), lambda c, s: Pullback(c.problem, c.x).value(s)),
    "Pullback.gradient": (("tangent",), lambda c, s: Pullback(c.problem, c.x).gradient(s)),
    "Pullback.hessian_at": (("tangent",), lambda c, s: Pullback(c.problem, c.x).hessian_at(s)),
    "tangent_space_steps": (("tangent",),
                            lambda c, s: tangent_space_steps(Pullback(c.problem, c.x), s, 0.1, math.inf, 3)),
    "prgd": (("point",), lambda c, x: prgd(c.problem, x, c.params, RngStream(1), True)),
    "rgd": (("point",), lambda c, x: rgd(c.problem, x, 0.1, 1e-3, 3)),
    "check_second_order_point": (("point",), lambda c, x: check_second_order_point(c.problem, x, 1e-3, 1.0)),
}

BAD = {"point": ["other manifold"], "tangent": ["elsewhere", "shape"], "w": ["elsewhere", "shape"]}
CASES = [(manifold, method, position, kind, bad)
         for manifold in ("sphere", "euclidean")
         for method, (kinds, _) in METHODS.items()
         for position, kind in enumerate(kinds)
         for bad in BAD[kind]]


@pytest.mark.parametrize("manifold", ["sphere", "euclidean"])
@pytest.mark.parametrize("method", METHODS)
def test_valid_arguments_pass(manifold, method):
    c = context(manifold)
    kinds, call = METHODS[method]
    call(c, *(c.good[kind] for kind in kinds))


@pytest.mark.parametrize("manifold, method, position, kind, bad", CASES,
                         ids=[f"{m}-{meth}-{kind}-{bad}" for m, meth, _, kind, bad in CASES])
def test_bad_argument_raises_the_helpers_error(manifold, method, position, kind, bad):
    c = context(manifold)
    kinds, call = METHODS[method]
    args = [c.good[k] for k in kinds]
    args[position] = c.bad[kind][bad]
    with pytest.raises(ValueError, match=POINT_ERROR if kind == "point" else TANGENT_ERROR):
        call(c, *args)
