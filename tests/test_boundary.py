"""The argument boundary: every validated method checks each `Point` with `Manifold._check_point` and each `Tangent`
with `Manifold._check_tangent` at its point, and a bad argument raises that helper's `ValueError`; every count
argument meets `_check_count`'s one rule, and every positive bound `_check_positive_finite`'s or, for a ball that
may be +inf, `_check_positive`'s."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from prgd.descent import derive_params, prgd, rgd, tangent_space_steps
from prgd.manifolds import Euclidean, Sphere, Tangent
from prgd.numerics import RngStream, sample_unit_ball
from prgd.problems import PcaProblem, QuadraticSaddle, synthetic_matrix
from prgd.pullback import Pullback
from prgd.verify import check_second_order_point, empirical_grad_lipschitz, empirical_hess_lipschitz, escape_study

POINT_ERROR = "^expected a point of "
TANGENT_ERROR = "^expected a tangent vector of "

# unit vectors of R^4: x and y are points of either manifold, s a tangent at x and t one at y
X, Y = [0.5, 0.5, 0.5, 0.5], [0.5, 0.5, -0.5, -0.5]
S, T = [0.5, -0.5, 0.5, -0.5], [0.5, -0.5, -0.5, 0.5]


def derive(dim):
    return derive_params(epsilon=1e-3, delta=0.1, dim=dim, ell=10.0, lip_grad=10.0, lip_hess=10.0, ball=math.inf,
                         gap=1.0, mode="practical", chi=4.0)


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
    params = derive(m.intrinsic_dim)
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


# entry point: (the count's name, its minimum, and the call on a context and the count)
COUNTS = {
    "derive_params": ("dim", 1, lambda c, n: derive(n)),
    "PrgdParams.dim": ("dim", 1, lambda c, n: replace(c.params, dim=n)),
    "PrgdParams.horizon": ("horizon", 1, lambda c, n: replace(c.params, horizon=n)),
    "PrgdParams.budget": ("budget", 1, lambda c, n: replace(c.params, budget=n)),
    "tangent_space_steps": ("horizon", 1, lambda c, n: tangent_space_steps(Pullback(c.problem, c.x), c.good["tangent"],
                                                                           0.1, math.inf, n)),
    "rgd": ("max_iters", 0, lambda c, n: rgd(c.problem, c.x, 0.1, 1e-3, n)),
    "empirical_grad_lipschitz": ("n_samples", 1, lambda c, n: empirical_grad_lipschitz(c.problem, 1.0, n,
                                                                                       RngStream(1))),
    "empirical_hess_lipschitz": ("n_samples", 1, lambda c, n: empirical_hess_lipschitz(c.problem, 1.0, n,
                                                                                       RngStream(1))),
    "escape_study": ("trials", 1, lambda c, n: escape_study(c.problem, c.x, c.params, 1, n, algorithm="rgd",
                                                            rgd_max_iters=3)),
    "sample_unit_ball": ("dim", 1, lambda c, n: sample_unit_ball(n, RngStream(1))),
    "synthetic_matrix": ("dim", 2, lambda c, n: synthetic_matrix(n, RngStream(1))),
    "Euclidean": ("dim", 1, lambda c, n: Euclidean(n)),
    "Sphere": ("n", 2, lambda c, n: Sphere(n)),
    "RngStream.seed": ("seed", 0, lambda c, n: RngStream(n)),
    "RngStream.stream": ("stream", 0, lambda c, n: RngStream(1, n)),
    "RngStream.index": ("index", 0, lambda c, n: RngStream(1, 0, n)),
}
# a non-integer, a bool (an int to isinstance), NaN, and one below the minimum
NOT_COUNTS = {"fraction": lambda minimum: 2.5, "bool": lambda minimum: True, "nan": lambda minimum: math.nan,
              "below": lambda minimum: minimum - 1}


@pytest.mark.parametrize("entry", COUNTS)
def test_a_numpy_integer_is_a_count(entry):
    _, minimum, call = COUNTS[entry]
    call(context("sphere"), np.int64(minimum + 2))


@pytest.mark.parametrize("kind", NOT_COUNTS)
@pytest.mark.parametrize("entry", COUNTS)
def test_a_bad_count_raises_the_one_message(entry, kind):
    name, minimum, call = COUNTS[entry]
    val = NOT_COUNTS[kind](minimum)
    with pytest.raises(ValueError) as exc:
        call(context("sphere"), val)
    assert str(exc.value) == f"{name} must be an integer >= {minimum}, got {val!r}"


# entry point: the call on a context and a ball, which may be +inf for no ball
BALLS = {
    "PrgdParams": lambda c, b: replace(c.params, ball=b),
    "tangent_space_steps": lambda c, b: tangent_space_steps(Pullback(c.problem, c.x), c.good["tangent"], 0.1, b, 3),
}


@pytest.mark.parametrize("val", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["lip_grad", "eta", "radius", "score_drop", "locality"])
def test_a_params_field_must_be_positive_and_finite(name, val):
    with pytest.raises(ValueError) as exc:
        replace(context("sphere").params, **{name: val})
    assert str(exc.value) == f"{name} must be positive and finite, got {val!r}"


@pytest.mark.parametrize("entry", BALLS)
def test_a_ball_may_be_infinite(entry):
    BALLS[entry](context("sphere"), math.inf)


@pytest.mark.parametrize("val", [0.0, -1.0, math.nan, -math.inf])
@pytest.mark.parametrize("entry", BALLS)
def test_a_bad_ball_raises_the_one_message(entry, val):
    with pytest.raises(ValueError) as exc:
        BALLS[entry](context("sphere"), val)
    assert str(exc.value) == f"ball must be positive or inf, got {val!r}"
