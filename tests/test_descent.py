import dataclasses
import math
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prgd import NumericalError, descent, verify
from prgd.cli import DEFAULT_QUAD_GAP, escape_study
from prgd.descent import (
    BOUNDARY_TRUNCATION,
    MANIFOLD_STEP,
    PERTURBATION,
    SMALL_GRAD_VISIT,
    TANGENT_STEP,
    PrgdParams,
    TraceEvent,
    boundary_alpha,
    derive_params,
    prgd,
    rgd,
    tangent_space_steps,
)
from prgd.manifolds import Euclidean, Manifold, Sphere, Tangent, same_point
from prgd.numerics import RngStream, fd_hessian_from_gradients
from prgd.problems import CostFunction, PcaProblem, QuadraticSaddle, synthetic_matrix
from prgd.pullback import Pullback
from prgd.verify import check_second_order_point, random_point
from conftest import EuclideanQuadratic, collapsed, evaluated_points, recorded
from reference_pgd import reference_pgd


def practical(chi, epsilon=0.01, ell=1.0, rho=1.0, gap=1.0, ball=math.inf, dim=2, delta=0.1):
    return derive_params(epsilon=epsilon, delta=delta, dim=dim, ell=ell, lip_grad=ell,
                         lip_hess=rho, ball=ball, gap=gap, mode="practical", chi=chi)


class TestDeriveParams:
    def test_step_size_is_inverse_ell(self):
        params = practical(chi=4.0, ell=2.0)
        assert params.eta == 0.5

    def test_worked_theoretical_instance(self):
        # direct numeric evaluation of the parameter equations
        eps, delta, dim, ell, rho, gap = 0.01, 0.1, 4, 1.0, 1.0, 1.0
        chi0 = 4.0 * math.log2(2**31 * ell**2 * math.sqrt(dim) * gap / (delta * math.sqrt(rho) * eps**2.5))
        root = math.sqrt(rho * eps)
        horizon = math.ceil(ell * chi0 / root)
        chi = horizon * root / ell
        params = derive_params(epsilon=eps, delta=delta, dim=dim, ell=ell, lip_grad=ell,
                               lip_hess=rho, ball=1.0, gap=gap, mode="theoretical")
        assert params.horizon == horizon == 2078
        assert params.chi == pytest.approx(chi, rel=1e-12)
        assert params.radius == pytest.approx(eps / (400 * chi**3), rel=1e-12)
        assert params.score_drop == pytest.approx(eps**1.5 / (50 * chi**3 * math.sqrt(rho)), rel=1e-12)
        assert params.locality == pytest.approx(math.sqrt(eps / rho) / (4 * chi), rel=1e-12)

    def test_practical_chi_twenty(self):
        params = practical(chi=20.0)
        assert params.horizon == 200
        assert params.chi == pytest.approx(20.0, rel=1e-12)
        assert params.radius == pytest.approx(3.125e-9, rel=1e-12)
        assert params.score_drop == pytest.approx(2.5e-9, rel=1e-12)

    def test_horizon_integrality_enlarges_chi(self):
        params = practical(chi=4.0, ell=5.0, rho=18.0, epsilon=1e-3)
        assert isinstance(params.horizon, int)
        assert params.chi >= 4.0 - 1e-12
        root = math.sqrt(params.lip_hess * params.epsilon)
        assert params.horizon == pytest.approx(params.ell * params.chi / root, rel=1e-12)

    def test_theoretical_hypothesis_violations_are_named(self):
        common = dict(delta=0.1, dim=4, ell=1.0, lip_grad=1.0, lip_hess=1.0, gap=1.0, mode="theoretical")
        with pytest.raises(ValueError, match=r"ball\^2 \* lip_hess"):
            derive_params(epsilon=2.0, ball=1.0, **common)
        with pytest.raises(ValueError, match=r"sqrt\(lip_hess \* epsilon\)"):
            derive_params(epsilon=0.01, ball=1.0, delta=0.1, dim=4, ell=1.0,
                          lip_grad=0.05, lip_hess=1.0, gap=1.0, mode="theoretical")
        with pytest.raises(ValueError, match=r"3 \* sqrt\(lip_hess\) \* gap"):
            derive_params(epsilon=0.9, ball=1.0, delta=0.1, dim=4, ell=1.0,
                          lip_grad=1.0, lip_hess=1.0, gap=0.01, mode="theoretical")

    def test_theoretical_rejects_infinite_ball(self):
        with pytest.raises(ValueError, match="finite ball"):
            derive_params(epsilon=0.01, delta=0.1, dim=4, ell=1.0, lip_grad=1.0,
                          lip_hess=1.0, ball=math.inf, gap=1.0, mode="theoretical")

    def test_practical_requires_chi(self):
        with pytest.raises(ValueError, match="chi"):
            derive_params(epsilon=0.01, delta=0.1, dim=2, ell=1.0, lip_grad=1.0,
                          lip_hess=1.0, ball=math.inf, gap=1.0, mode="practical")

    def test_budget_capacity_error(self):
        with pytest.raises(OverflowError, match="2\\^63"):
            derive_params(epsilon=1e-6, delta=0.1, dim=2, ell=1.0, lip_grad=1.0,
                          lip_hess=1.0, ball=math.inf, gap=1e7, mode="practical", chi=4.0)

    @pytest.mark.parametrize("mode, epsilon", [("practical", 1e-300), ("practical", 1e-200),
                                               ("theoretical", 1e-130), ("theoretical", 1e-300),
                                               ("theoretical", 1e-120), ("theoretical", 1e-125),
                                               ("theoretical", 1e-129)])
    def test_underflowing_epsilon_is_named(self, mode, epsilon):
        # a power of epsilon that underflows to 0 would divide by zero in the formulas; from about 1e-119
        # to 1e-129 epsilon**2.5 is subnormal, and the theoretical chi's log argument overflows instead.
        # Theoretical mode derives its own chi, so only a practical chi is named
        given = " and chi 4.0" if mode == "practical" else ""
        message = f"the parameter formulas leave the float range at epsilon {epsilon!r}{given}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            derive_params(epsilon=epsilon, delta=0.1, dim=4, ell=1.0, lip_grad=1.0, lip_hess=1.0,
                          ball=1.0, gap=1.0, mode=mode, chi=4.0)

    @pytest.mark.parametrize("change, message", [
        ({"lip_hess": 1e300, "epsilon": 1e10}, "lip_hess 1e+300"), ({"ell": 1e300}, "ell 1e+300"),
        ({"ell": 1e-300}, "ell 1e-300"), ({"gap": 1e300}, "gap 1e+300")])
    def test_overflowing_product_of_finite_inputs_is_named(self, change, message):
        # lip_hess * epsilon overflows to inf (so chi would be 0 * inf = nan), or the budget's gap * horizon / ...
        # does; the range error names the input farthest from 1 in magnitude
        message = f"the parameter formulas leave the float range at {message} and chi 4.0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            derive_params(**{**dict(epsilon=1e-3, delta=0.1, dim=4, ell=1.0, lip_hess=1.0, gap=1.0), **change},
                          lip_grad=1.0, ball=math.inf, mode="practical", chi=4.0)

    def test_params_record_and_derivation_share_one_input_guard(self):
        common = dict(epsilon=0.01, delta=0.1, dim=2, ell=1.0, lip_hess=1.0, gap=1.0, mode="practical")
        good = practical(chi=4.0)
        bad = [{"epsilon": eps} for eps in (0.0, -1.0, math.nan, math.inf)]
        bad += [{"delta": 0.0}, {"delta": 1.0}, {"dim": 0}, {"mode": "x"}]
        for change in bad:
            with pytest.raises(ValueError) as derived:
                derive_params(**{**common, **change}, lip_grad=1.0, ball=math.inf, chi=4.0)
            with pytest.raises(ValueError) as built:
                dataclasses.replace(good, **change)
            assert str(built.value) == str(derived.value), change
            assert next(iter(change)) in str(derived.value)

    def test_params_invariants_enforced(self):
        good = practical(chi=4.0)
        with pytest.raises(ValueError, match="chi > 1/4"):
            PrgdParams(**{**good.__dict__, "chi": 0.2})
        with pytest.raises(ValueError, match="eta == 1/ell"):
            PrgdParams(**{**good.__dict__, "eta": 0.9})
        with pytest.raises(ValueError, match="ell in"):
            PrgdParams(**{**good.__dict__, "ell": 0.5, "eta": 2.0})


class TestBoundaryAlpha:
    def test_full_step_exactly_reaches_ball(self):
        s = np.zeros(2)
        g = np.array([1.0, 0.0])
        assert boundary_alpha(s, g, eta=0.5, ball=0.5) == 1.0

    def test_hand_evaluated_half_step(self):
        b = 2.0
        s = np.array([0.9 * b, 0.0])
        g = np.array([-0.2 * b, 0.0])
        assert boundary_alpha(s, g, eta=1.0, ball=b) == pytest.approx(0.5, rel=1e-14)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_alpha_lands_on_boundary(self, seed):
        rng = RngStream(seed, 77)
        dim = 5
        ball = 1.5
        raw, rng = rng.standard_normal(dim)
        frac, rng = rng.uniform()
        s = raw / np.linalg.norm(raw) * (0.98 * ball * frac)
        g, rng = rng.standard_normal(dim)
        eta = 0.7
        # rescale so the full step certainly exits the ball
        need = (ball + np.linalg.norm(s) + 0.1) / (eta * np.linalg.norm(g))
        boost, rng = rng.uniform()
        g = g * need * (1.0 + boost)
        alpha = boundary_alpha(s, g, eta, ball)
        assert 0.0 < alpha <= 1.0
        assert abs(np.linalg.norm(s - alpha * eta * g) - ball) <= 1e-12 * ball

    @pytest.mark.parametrize("eta", [math.inf, math.nan])
    def test_nonfinite_eta_is_a_configuration_error(self, eta):
        with pytest.raises(ValueError, match="^eta must be positive and finite, got"):
            boundary_alpha(np.zeros(2), np.array([1.0, 0.0]), eta, 0.5)

    def test_violated_preconditions_raise(self):
        with pytest.raises(NumericalError, match="< ball"):
            boundary_alpha(np.array([2.0, 0.0]), np.array([1.0, 0.0]), 1.0, 1.0)
        with pytest.raises(NumericalError, match="leave the ball"):
            boundary_alpha(np.array([0.0, 0.0]), np.array([0.1, 0.0]), 1.0, 1.0)

    def test_infinite_gradient_has_no_feasible_fraction(self):
        # the full step leaves the ball, but the root is inf / inf; no RuntimeWarning (an error under this
        # suite's settings) comes before the raise
        with pytest.raises(NumericalError) as err:
            boundary_alpha(np.array([0.5, 0.0]), np.array([math.inf, 0.0]), 1.0, 1.0)
        assert str(err.value) == "no feasible boundary step fraction in (0, 1], got nan"


class TestTraceEvent:
    def test_fields_and_defaults(self):
        assert TraceEvent._fields == ("t", "kind", "f", "grad_norm", "tangent_norm", "alpha", "dist_start",
                                      "step", "f_before")
        assert TraceEvent._field_defaults == dict.fromkeys(TraceEvent._fields[3:])
        ev = TraceEvent(4, TANGENT_STEP, -0.5, 0.1, 0.2, 1.0, 0.3, 2)
        assert ev == TraceEvent(t=4, kind=TANGENT_STEP, f=-0.5, grad_norm=0.1, tangent_norm=0.2, alpha=1.0,
                                dist_start=0.3, step=2, f_before=None)

    def test_fields_cannot_be_set(self):
        ev = TraceEvent(t=0, kind=MANIFOLD_STEP, f=1.0, grad_norm=0.5)
        for name in TraceEvent._fields:
            with pytest.raises(AttributeError):
                setattr(ev, name, 2.0)
        assert ev._replace(t=3) == TraceEvent(t=3, kind=MANIFOLD_STEP, f=1.0, grad_norm=0.5)
        assert ev.t == 0


class TestTangentSpaceSteps:
    def test_single_step_is_gradient_step(self, pca3):
        x = pca3.manifold.point([0.0, 0.0, 1.0])
        pull = Pullback(pca3, x)
        rng = RngStream(3)
        raw, rng = rng.standard_normal(3)
        s0 = pca3.manifold.project(x, 0.1 * raw)
        s_fin, events = tangent_space_steps(pull, s0, eta=0.1, ball=math.inf, horizon=1)
        grad = pull.gradient(s0).coords
        assert np.array_equal(s_fin.coords, pca3.manifold._project_array(x.coords, s0.coords - 0.1 * grad))
        assert len(events) == 1 and events[0].kind == TANGENT_STEP

    def test_critical_start_stays_put(self, simple_saddle):
        x = simple_saddle.manifold.point([0.0, 0.0])
        pull = Pullback(simple_saddle, x)
        s_fin, events = tangent_space_steps(pull, Tangent(x, np.zeros(2)),
                                            eta=1.0, ball=math.inf, horizon=5)
        assert np.array_equal(s_fin.coords, np.zeros(2))
        assert len(events) == 5

    def test_geometric_contraction_is_exact(self):
        problem = EuclideanQuadratic(np.eye(3))
        x = problem.manifold.point([0.0, 0.0, 0.0])
        pull = Pullback(problem, x)
        s0 = problem.manifold.tangent(x, [1.0, -2.0, 0.5])
        s_fin, events = tangent_space_steps(pull, s0, eta=0.5, ball=math.inf, horizon=20)
        # s_{j+1} = s_j - 0.5 s_j halves exactly in binary floating point
        assert np.array_equal(s_fin.coords, s0.coords * 0.5**20)
        assert all(ev.alpha == 1.0 for ev in events)

    def test_boundary_truncation_stops_on_the_sphere_of_radius_b(self):
        problem = EuclideanQuadratic(np.eye(2))
        x = problem.manifold.point([2.0, 0.0])
        pull = Pullback(problem, x)
        s0 = Tangent(x, np.zeros(2))
        ball = 1.0
        s_fin, events = tangent_space_steps(pull, s0, eta=1.0, ball=ball, horizon=10)
        assert events[-1].kind == BOUNDARY_TRUNCATION
        assert len(events) == 1  # stops right after the truncated step
        assert abs(np.linalg.norm(s_fin.coords) - ball) <= 1e-12 * ball
        assert events[-1].alpha == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("eta", [math.inf, math.nan])
    def test_nonfinite_eta_is_a_configuration_error(self, simple_saddle, eta):
        x = simple_saddle.manifold.point([0.0, 0.0])
        s0 = simple_saddle.manifold.tangent(x, [0.1, 0.0])
        with pytest.raises(ValueError, match="^eta must be positive and finite, got"):
            tangent_space_steps(Pullback(simple_saddle, x), s0, eta=eta, ball=1.0, horizon=3)

    def test_rejects_start_outside_ball(self, simple_saddle):
        x = simple_saddle.manifold.point([0.0, 0.0])
        pull = Pullback(simple_saddle, x)
        s0 = simple_saddle.manifold.tangent(x, [3.0, 0.0])
        with pytest.raises(ValueError) as exc:
            tangent_space_steps(pull, s0, eta=1.0, ball=1.0, horizon=3)
        assert str(exc.value) == "requires ||s0|| <= ball, got 3.0 > 1.0"

    def test_lockstep_rejects_a_perturbation_outside_ball(self, simple_saddle):
        # the record does not tie eta * radius to the ball, so a phase start can land outside it
        params = dataclasses.replace(practical(chi=4.0, ball=1.0), radius=1e6)
        x0 = simple_saddle.manifold.point([0.0, 0.0])
        with pytest.raises(ValueError, match=r"^requires \|\|s0\|\| <= ball, got \d\S* > 1\.0$"):
            descent.prgd_lockstep(simple_saddle, x0, params, [RngStream(1, 0), RngStream(2, 1)])


def public_api_loop(pull, s0, eta, ball, horizon):
    """The tangent-space loop written over the validated Pullback API, as a reference."""
    x = pull.base
    s = s0.coords
    events = []
    for j in range(horizon):
        grad = pull.gradient(Tangent(x, s)).coords
        candidate = s - eta * grad
        truncated = float(np.linalg.norm(candidate)) >= ball
        alpha = boundary_alpha(s, grad, eta, ball) if truncated else 1.0
        if truncated:
            candidate = s - (alpha * eta) * grad
        s = pull.manifold._project_array(x.coords, candidate)
        events.append(TraceEvent(
            t=0, kind=BOUNDARY_TRUNCATION if truncated else TANGENT_STEP,
            f=pull.value(Tangent(x, s)), grad_norm=float(np.linalg.norm(grad)),
            tangent_norm=float(np.linalg.norm(s)), alpha=alpha,
            dist_start=float(np.linalg.norm(s - s0.coords)), step=j + 1,
        ))
        if truncated:
            break
    return s, events


def pca6_phase_start():
    a, _, vecs, _ = synthetic_matrix(6, RngStream(8, 21))
    problem = PcaProblem(a)
    x = problem.manifold.point(vecs[:, 2])
    raw, _ = RngStream(8, 22).standard_normal(6)
    return problem, x, problem.manifold.project(x, 1e-3 * raw)


class TestRawLoopAgainstPublicApi:
    def check_identical(self, problem, x, s0, eta, ball, horizon):
        pull = Pullback(problem, x)
        s_fin, events = tangent_space_steps(pull, s0, eta=eta, ball=ball, horizon=horizon)
        s_ref, ref_events = public_api_loop(pull, s0, eta, ball, horizon)
        assert events == ref_events
        assert np.array_equal(s_fin.coords, s_ref)
        return events

    def test_pca_on_sphere6(self):
        problem, x, s0 = pca6_phase_start()
        events = self.check_identical(problem, x, s0, 1.0 / problem.constants().lip_grad, math.inf, 40)
        assert len(events) == 40

    def test_quadratic_saddle(self):
        problem = QuadraticSaddle(np.diag([-1.0, 0.5, 2.0, 1.0]))
        x = problem.manifold.point([0.0, 0.3, -0.2, 0.1])
        s0 = problem.manifold.tangent(x, [1e-3, 0.0, 2e-3, -1e-3])
        events = self.check_identical(problem, x, s0, 0.4, math.inf, 25)
        assert len(events) == 25

    def test_pca_finite_ball_truncation(self):
        problem, x, s0 = pca6_phase_start()
        events = self.check_identical(problem, x, s0, 1.0 / problem.constants().lip_grad, 0.05, 40)
        # the ball stops the phase part-way, after several full steps
        assert events[-1].kind == BOUNDARY_TRUNCATION and 1 < len(events) < 40


def count_cost_calls(monkeypatch):
    """Count calls of the fused PCA oracle and of the validated value and gradient."""
    calls = {"fused": 0, "value": 0, "riemannian_gradient": 0}
    for owner, attr, key in ((PcaProblem, "_value_and_gradient_array", "fused"),
                             (PcaProblem, "value", "value"),
                             (CostFunction, "riemannian_gradient", "riemannian_gradient")):
        def counted(*args, _original=getattr(owner, attr), _key=key):
            calls[_key] += 1
            return _original(*args)

        monkeypatch.setattr(owner, attr, counted)
    return calls


class TestTangentStepCost:
    def test_one_retraction_and_no_point_comparison_per_step(self, monkeypatch):
        problem, x, s0 = pca6_phase_start()
        pull = Pullback(problem, x)
        calls = {"retract": 0, "same_point": 0}
        # every sphere retraction, plain or handing its scale to the adjoint, runs this kernel
        retract = Sphere._retract_scaled_array

        def counted_retract(*args):
            calls["retract"] += 1
            return retract(*args)

        def counted_same_point(*args):
            calls["same_point"] += 1
            return same_point(*args)

        monkeypatch.setattr(Sphere, "_retract_scaled_array", counted_retract)
        # `Manifold._check_tangent` is the only caller of `same_point` in the package
        monkeypatch.setattr("prgd.manifolds.same_point", counted_same_point)
        horizon = 30
        tangent_space_steps(pull, s0, eta=1.0 / problem.constants().lip_grad, ball=math.inf, horizon=horizon)
        # one retraction per step plus one for the gradient at s0
        assert calls == {"retract": horizon + 1, "same_point": 0}

    def test_one_fused_cost_call_per_retraction(self, monkeypatch):
        problem, x, s0 = pca6_phase_start()
        pull = Pullback(problem, x)
        calls = count_cost_calls(monkeypatch)
        horizon = 30
        tangent_space_steps(pull, s0, eta=1.0 / problem.constants().lip_grad, ball=math.inf, horizon=horizon)
        assert calls == {"fused": horizon + 1, "value": 0, "riemannian_gradient": 0}


def public_api_prgd(problem, x0, params, rng, terminate):
    """The PRGD outer loop written over the validated API, as a reference for the lockstep kernel.

    Returns (events, final point, gradient queries, stop reason).
    """
    manifold = problem.manifold
    x = x0
    f_x = f0 = problem.value(x)
    events = []
    t = queries = 0
    terminated = "budget"
    while t <= params.budget:
        if f_x < f0 - params.gap:
            terminated = "gap_exhausted"
            break
        grad = problem.riemannian_gradient(x).coords
        grad_norm = float(np.linalg.norm(grad))
        queries += 1
        pull = Pullback(problem, x)
        if grad_norm > params.epsilon:
            # a manifold step is one tangent step from zero with the loop-top gradient
            zero = np.zeros(manifold.ambient_dim)
            alpha = 1.0
            if float(np.linalg.norm(zero - params.eta * grad)) >= params.ball:
                alpha = boundary_alpha(zero, grad, params.eta, params.ball)
            s = manifold.project(x, zero - (alpha * params.eta) * grad).coords
            events.append(TraceEvent(t=t, kind=MANIFOLD_STEP, f=pull.value(Tangent(x, s)), grad_norm=grad_norm,
                                     tangent_norm=float(np.linalg.norm(s)), alpha=alpha, f_before=f_x))
            t += 1
        else:
            events.append(TraceEvent(t=t, kind=SMALL_GRAD_VISIT, f=f_x, grad_norm=grad_norm))
            xi, rng = manifold.sample_ball(x, params.radius, rng)
            s0 = Tangent(x, params.eta * xi.coords)
            events.append(TraceEvent(t=t, kind=PERTURBATION, f=pull.value(s0), grad_norm=grad_norm,
                                     tangent_norm=s0.norm))
            s, phase = public_api_loop(pull, s0, params.eta, params.ball, params.horizon)
            events.extend(ev._replace(t=t) for ev in phase)
            queries += len(phase)
            t += params.horizon
            if terminate and phase[-1].f - f_x > -params.score_drop / 2.0:
                terminated = "decrease_threshold"
                break
        x = manifold.retract(x, Tangent(x, s))
        f_x = events[-1].f
    return events, x, queries + 1, terminated


def pca_saddle(dim, ball=math.inf):
    """A synthetic PCA problem, its second eigenvector and practical parameters for escaping it."""
    a, _, vecs, _ = synthetic_matrix(dim, RngStream(1, 2**48))
    problem = PcaProblem(a)
    saddle = problem.manifold.point(vecs[:, 1])
    consts = problem.constants()
    params = derive_params(epsilon=1e-3, delta=0.1, dim=dim - 1, ell=consts.lip_grad,
                           lip_grad=consts.lip_grad, lip_hess=consts.lip_hess, ball=ball,
                           gap=problem.value(saddle) - problem.f_star, mode="practical", chi=4.0)
    return problem, saddle, params


def assert_same_run(trace, other):
    assert trace.events == other.events
    assert np.array_equal(trace.final_point.coords, other.final_point.coords)
    for name in ("final_f", "final_grad_norm", "final_t", "gradient_queries", "terminated",
                 "suspected_second_order"):
        assert getattr(trace, name) == getattr(other, name), name


def assert_block_repeats_single_runs(block_points, single_points, start):
    """A lockstep block evaluated the single runs' points, as a multiset, with their shared start once."""
    expected = Counter()
    for points in single_points:
        expected.update(points)
    expected[start.coords.tobytes()] -= len(single_points) - 1
    assert Counter(block_points) == expected


class TestPrgdAgainstPublicApi:
    @pytest.mark.parametrize("ball, terminate, start", [
        (math.inf, True, "saddle"),
        (0.05, True, "saddle"),
        (math.inf, False, "saddle"),
        (math.inf, True, "random"),
    ])
    def test_pca_runs_match_the_reference_loop(self, ball, terminate, start):
        problem, x0, params = pca_saddle(12, ball)
        if start == "random":
            # descend to the top eigenvector, where the first phase fails to decrease f
            x0, _ = random_point(problem.manifold, RngStream(6, 1))
            params = dataclasses.replace(params, gap=1.0)
        with evaluated_points(problem) as points:
            trace = prgd(problem, x0, params, RngStream(3, 0), terminate_on_no_decrease=terminate)
        with evaluated_points(problem) as ref_points:
            events, x, queries, terminated = public_api_prgd(problem, x0, params, RngStream(3, 0), terminate)
        assert trace.events == events
        assert collapsed(points) == collapsed(ref_points)
        assert np.array_equal(trace.final_point.coords, x.coords)
        assert (trace.gradient_queries, trace.terminated) == (queries, terminated)
        assert trace.n_perturbations >= 1
        if start == "random":
            assert trace.n_manifold_steps >= 1


class TestStudyEqualsSingleRuns:
    """A study's lockstep block repeats each trial's single `prgd` run bit for bit."""

    def check(self, monkeypatch, problem, x0, params, trials, terminate=True):
        # the block's points, not the certificates'
        block, lockstep = [], verify.prgd_lockstep

        def recorded_lockstep(*args, **kwargs):
            with evaluated_points(problem, block):
                return lockstep(*args, **kwargs)

        monkeypatch.setattr(verify, "prgd_lockstep", recorded_lockstep)
        study = escape_study(problem, x0, params, base_seed=1, trials=trials, terminate=terminate)
        singles = []
        for i, res in enumerate(study):
            with evaluated_points(problem) as points:
                single = prgd(problem, x0, params, RngStream(1 + i, i), terminate_on_no_decrease=terminate)
            assert_same_run(res.trace, single)
            singles.append(points)
        assert_block_repeats_single_runs(block, singles, x0)
        return [res.trace for res in study]

    def test_pca_d50_from_the_saddle(self, monkeypatch):
        traces = self.check(monkeypatch, *pca_saddle(50), trials=10)
        # rows leave the block at different ticks, by both stopping rules
        assert {tr.terminated for tr in traces} == {"gap_exhausted", "decrease_threshold"}
        assert len({tr.final_t for tr in traces}) > 1

    def test_quadratic_saddle(self, monkeypatch):
        h = np.diag([-0.5, 0.8, 1.0, 0.3, 0.9, -0.2, 0.6, 1.0, 0.7, 0.4])
        problem = QuadraticSaddle(h)
        params = PrgdParams(epsilon=0.3, delta=0.1, dim=10, ell=1.0, lip_grad=1.0,
                            lip_hess=1.0, ball=math.inf, gap=2.0, chi=4.0,
                            eta=1.0, radius=0.05, horizon=10, score_drop=1e-6,
                            locality=1e-2, budget=200, mode="practical")
        traces = self.check(monkeypatch, problem, problem.manifold.point(np.full(10, 0.01)), params, 6,
                            terminate=False)
        assert all(tr.n_perturbations >= 1 for tr in traces)
        assert any(tr.n_manifold_steps >= 1 for tr in traces)

    def test_finite_ball_truncates_rows_mid_block(self, monkeypatch):
        traces = self.check(monkeypatch, *pca_saddle(50, ball=0.05), trials=10)
        steps = [ev.step for tr in traces for ev in tr.events if ev.kind == BOUNDARY_TRUNCATION]
        # every row truncates once, at its own step, while the other rows keep stepping
        assert len(steps) == 10 and len(set(steps)) > 1

    def test_small_budget_stops_rows_with_budget(self, monkeypatch):
        problem, saddle, params = pca_saddle(50)
        traces = self.check(monkeypatch, problem, saddle, dataclasses.replace(params, budget=200), 6, terminate=False)
        assert all(tr.terminated == "budget" for tr in traces)


class TestBallTest:
    """A step is tested against the ball, and truncated by `boundary_alpha`, only when the ball is finite."""

    def counted_studies(self, monkeypatch, ball):
        calls = []

        def counted(*args):
            calls.append(args)
            return boundary_alpha(*args)

        monkeypatch.setattr(descent, "boundary_alpha", counted)
        traces = [res.trace for res in escape_study(*pca_saddle(20, ball=ball), base_seed=1, trials=5)]
        return traces, len(calls)

    def test_infinite_ball_never_calls_boundary_alpha(self, monkeypatch):
        traces, calls = self.counted_studies(monkeypatch, math.inf)
        assert calls == 0
        assert all(tr.n_perturbations >= 1 for tr in traces)

    def test_finite_ball_truncation_is_unchanged(self, monkeypatch):
        traces, calls = self.counted_studies(monkeypatch, 0.05)
        truncated = [ev for tr in traces for ev in tr.events if ev.alpha is not None and ev.alpha < 1.0]
        assert calls == len(truncated) >= 5
        assert all(ev.kind == BOUNDARY_TRUNCATION for ev in truncated if ev.step is not None)
        problem, x0, params = pca_saddle(20, ball=0.05)
        for i, trace in enumerate(traces):
            assert trace.events == public_api_prgd(problem, x0, params, RngStream(1 + i, i), True)[0]


# Bytes one in-phase step cost in a trace when each step was an object of its own: a 9-field TraceEvent
# (112 B) with four fresh floats (4 x 24 B) in one list slot (8 B). The whole one-row run below then
# had a tracemalloc peak of 225-228 B per step (numpy 2.4, Python 3.11).
TRACE_EVENT_BYTES = 112 + 4 * 24 + 8


class TestTraceColumns:
    def test_one_row_run_holds_less_per_step_than_a_trace_event(self, pca3):
        # without --terminate the run ends only by budget: a gap no run can exhaust keeps it going
        consts = pca3.constants()
        params = derive_params(epsilon=1e-3, delta=0.1, dim=2, ell=consts.lip_grad, lip_grad=consts.lip_grad,
                               lip_hess=consts.lip_hess, ball=math.inf, gap=1.0, mode="practical", chi=4.0)
        params = dataclasses.replace(params, gap=10.0, budget=10_200)
        x0 = pca3.manifold.point([0.0, 1.0, 0.0])
        tracemalloc.start()
        try:
            trace = prgd(pca3, x0, params, RngStream(2, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.terminated == "budget"
        steps = sum(ev.kind in (MANIFOLD_STEP, TANGENT_STEP, BOUNDARY_TRUNCATION) for ev in trace.events)
        assert steps >= 10_000
        assert peak / steps <= TRACE_EVENT_BYTES

    @staticmethod
    def held_bytes_per_step(dim):
        """Bytes per step that tracemalloc counts as held after a one-row 3,000-step run, with its trace alive."""
        problem, saddle, params = pca_saddle(dim)
        # without --terminate the run ends only by budget: a gap no run can exhaust keeps it going
        params = dataclasses.replace(params, gap=10.0, budget=3000)
        tracemalloc.start()
        try:
            trace = prgd(problem, saddle, params, RngStream(2, 0))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert trace.terminated == "budget"
        return held / sum(ev.kind in (MANIFOLD_STEP, TANGENT_STEP, BOUNDARY_TRUNCATION) for ev in trace.events)

    def test_held_bytes_per_step_do_not_grow_with_dimension(self):
        # a trace holds events, one array of per-step values for each phase and a few points, so its steps cost
        # about 40 B at d=3 and at d=500 alike; keeping one n-vector per manifold step and per phase end held
        # 106 B per step at d=500
        small, large = self.held_bytes_per_step(3), self.held_bytes_per_step(500)
        assert large <= 1.25 * small, (small, large)

    def test_phases_that_wrap_the_ring_repeat_the_single_runs(self):
        problem, x0, params = pca_saddle(50)
        with evaluated_points(problem) as block:
            traces = descent.prgd_lockstep(problem, x0, params, [RngStream(1 + i, i) for i in range(10)], True)
        spans = [[item for item in trace._log if type(item) is descent._PhaseSpan] for trace in traces]
        phases, leaves, singles = [], [], []
        for i, trace in enumerate(traces):
            events = trace.events
            assert trace.events is events
            # a run steps once per tick from tick 0, and leaves the block at the tick after its last step
            stepped = [ev for ev in events if ev.kind in (MANIFOLD_STEP, TANGENT_STEP, BOUNDARY_TRUNCATION)]
            leaves.append(len(stepped))
            # each phase ends at tick k after n steps, and is one span of all n
            ends = [(k, ev.step) for k, ev in enumerate(stepped)
                    if ev.step is not None and (k + 1 == len(stepped) or stepped[k + 1].step != ev.step + 1)]
            assert [len(span.rows) for span in spans[i]] == [n for _, n in ends]
            phases.extend((k - n + 1, k) for k, n in ends)
            with evaluated_points(problem) as points:
                assert_same_run(trace, prgd(problem, x0, params, RngStream(1 + i, i), True))
            singles.append(points)
            assert events == public_api_prgd(problem, x0, params, RngStream(1 + i, i), True)[0]
        assert_block_repeats_single_runs(block, singles, x0)
        # the ring holds `horizon` ticks, and the block runs for more than three times as many
        assert max(leaves) > 3 * params.horizon
        # some run leaves while another run's phase goes on
        assert any(first < leave <= last for first, last in phases for leave in leaves)

    def test_a_span_ends_with_its_phase_last_step_and_its_truncation(self):
        problem, x0, params = pca_saddle(8, ball=0.05)
        traces = descent.prgd_lockstep(problem, x0, params, [RngStream(3 + i, i) for i in range(20)], True)
        alphas = []
        for i, trace in enumerate(traces):
            spans = [item for item in trace._log if type(item) is descent._PhaseSpan]
            events = trace.events
            assert events == public_api_prgd(problem, x0, params, RngStream(3 + i, i), True)[0]
            truncations = [ev for ev in events if ev.kind == BOUNDARY_TRUNCATION]
            assert [span.events()[-1] for span in spans if span.alpha is not None] == truncations
            assert [span.alpha for span in spans if span.alpha is not None] == [ev.alpha for ev in truncations]
            # a phase that the ball does not truncate runs its full horizon
            assert all(span.events()[-1].kind == TANGENT_STEP and len(span.rows) == params.horizon
                       for span in spans if span.alpha is None)
            alphas.extend(span.alpha for span in spans)
        # the ball truncates some phases and not others
        assert None in alphas and any(alpha is not None for alpha in alphas)

    def test_a_kept_trace_holds_no_other_run_of_its_block(self):
        problem, x0, params = pca_saddle(50)
        # without terminate the runs end only by budget: a gap no run can exhaust keeps them going
        params = dataclasses.replace(params, gap=10.0, budget=3000)
        tracemalloc.start()
        try:
            traces = descent.prgd_lockstep(problem, x0, params, [RngStream(1 + i, i) for i in range(10)])
            block = tracemalloc.get_traced_memory()[0]
            del traces[1:]
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert traces[0].terminated == "budget"
        # a trace holds only its own run's values, about a tenth of what the block holds
        assert kept <= 0.25 * block, kept / block


def outcome(run):
    """run() with numpy's RuntimeWarnings raised: its result, or the type and message of the error it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return run(), None
        except (NumericalError, RuntimeWarning) as exc:
            return None, (type(exc), str(exc))


class TestLockstepRowsAreSingleRuns:
    """The single-run oracle over drawn set-ups: each lockstep row is its `prgd` run and the public-API loop."""

    @settings(max_examples=40, deadline=None)
    @given(pca=st.booleans(), dim=st.integers(2, 20), index=st.integers(0, 19), rows=st.integers(1, 4),
           epsilon=st.sampled_from([1e-2, 1e-3, 1e-4]), ball_scale=st.sampled_from([math.inf, 1.01, 2.0, 10.0]),
           chi=st.sampled_from([2.0, 4.0]), rho=st.sampled_from([0.01, 0.1, 1.0]), terminate=st.booleans(),
           budget=st.integers(1, 600), seed=st.integers(0, 2**32))
    # a quadratic-saddle phase of 1265 steps doubles s at every step and overflows before the gap test
    @example(pca=False, dim=5, index=0, rows=3, epsilon=1e-3, ball_scale=math.inf, chi=4.0, rho=0.01,
             terminate=True, budget=600, seed=1)
    @example(pca=False, dim=5, index=0, rows=1, epsilon=1e-3, ball_scale=math.inf, chi=4.0, rho=0.01,
             terminate=False, budget=600, seed=1)
    # horizons 1, 2 and 3, where the ring of the block's last `horizon` ticks wraps inside every phase; the rows
    # end gap_exhausted after 25-29 events, so they leave the block at different ticks
    @example(pca=False, dim=4, index=0, rows=4, epsilon=0.36, ball_scale=math.inf, chi=0.3, rho=1.0,
             terminate=False, budget=300, seed=7)
    @example(pca=False, dim=4, index=0, rows=4, epsilon=0.36, ball_scale=math.inf, chi=0.8, rho=1.0,
             terminate=False, budget=300, seed=7)
    @example(pca=False, dim=4, index=0, rows=4, epsilon=0.36, ball_scale=math.inf, chi=1.6, rho=1.0,
             terminate=False, budget=300, seed=7)
    def test_every_row_repeats_its_single_run(self, pca, dim, index, rows, epsilon, ball_scale, chi, rho,
                                              terminate, budget, seed):
        if pca:
            # from an eigenvector of a synthetic spectrum: the top one is the minimum, the others saddles
            a, _, vecs, _ = synthetic_matrix(dim, RngStream(seed, 2**48))
            problem = PcaProblem(a)
            x0 = problem.manifold.point(vecs[:, index % dim])
            consts = problem.constants()
            ell, rho, gap = consts.lip_grad, consts.lip_hess, max(problem.value(x0) - problem.f_star, 1e-12)
        else:
            # the CLI's saddle, whose phases may overflow before the gap test stops them
            problem = QuadraticSaddle(np.diag([-1.0] + [1.0] * (dim - 1)))
            x0 = problem.manifold.point(np.zeros(dim))
            ell, gap = problem.norm, DEFAULT_QUAD_GAP
        # a ball of at least sqrt(epsilon / rho), the smallest that the parameter record accepts
        params = derive_params(epsilon=epsilon, delta=0.1, dim=problem.manifold.intrinsic_dim, ell=ell,
                               lip_grad=ell, lip_hess=rho, ball=ball_scale * math.sqrt(epsilon / rho), gap=gap,
                               mode="practical", chi=chi)
        params = dataclasses.replace(params, budget=budget)
        rngs = [RngStream(seed + i, i) for i in range(rows)]
        singles = [outcome(lambda: prgd(problem, x0, params, rng, terminate)) for rng in rngs]
        block, error = outcome(lambda: descent.prgd_lockstep(problem, x0, params, rngs, terminate))
        errors = [err for _, err in singles if err is not None]
        if errors:
            # the block stops at the first error any of its rows meets
            assert error in errors
            return
        assert error is None
        for trace, (single, _), rng in zip(block, singles, rngs):
            assert_same_run(trace, single)
            events, x, queries, terminated = public_api_prgd(problem, x0, params, rng, terminate)
            assert trace.events == events
            assert trace.final_point.coords.tobytes() == x.coords.tobytes()
            assert (trace.gradient_queries, trace.terminated) == (queries, terminated)


class TestPrgd:
    def test_point_memory_layout_does_not_change_the_run(self):
        problem, saddle, params = pca_saddle(50)
        _, _, vecs, _ = synthetic_matrix(50, RngStream(1, 2**48))
        strided = prgd(problem, problem.manifold.point(vecs[:, 1]), params, RngStream(1, 0), True)
        contiguous = prgd(problem, problem.manifold.point(vecs[:, 1].copy()), params, RngStream(1, 0), True)
        assert strided.events == contiguous.events
        assert np.array_equal(strided.final_point.coords, contiguous.final_point.coords)

    def test_determinism_bitwise(self, simple_saddle):
        params = practical(chi=4.0, epsilon=0.3)
        x0 = simple_saddle.manifold.point([0.01, 0.02])
        with evaluated_points(simple_saddle) as p1:
            t1 = prgd(simple_saddle, x0, params, RngStream(5, 1))
        with evaluated_points(simple_saddle) as p2:
            t2 = prgd(simple_saddle, x0, params, RngStream(5, 1))
        assert len(t1.events) == len(t2.events)
        for a, b in zip(t1.events, t2.events):
            assert a == b
        assert p1 == p2

    def test_flat_space_reduction_matches_reference_pgd(self):
        h = np.diag([-0.5, 0.8, 1.0, 0.3, 0.9, -0.2, 0.6, 1.0, 0.7, 0.4])
        problem = QuadraticSaddle(h)
        params = PrgdParams(epsilon=0.3, delta=0.1, dim=10, ell=1.0, lip_grad=1.0,
                            lip_hess=1.0, ball=math.inf, gap=2.0, chi=4.0,
                            eta=1.0, radius=0.05, horizon=10, score_drop=1e-6,
                            locality=1e-2, budget=200, mode="practical")
        x0 = problem.manifold.point(np.full(10, 0.01))
        with evaluated_points(problem) as points:
            trace = prgd(problem, x0, params, RngStream(42, 3))
        ref_points = []
        ref_f = reference_pgd(
            recorded(lambda v: 0.5 * float(v @ (h @ v)), ref_points), recorded(lambda v: h @ v, ref_points),
            x0.coords, params.eta, params.radius, params.horizon, params.epsilon,
            params.budget, params.gap, RngStream(42, 3),
        )
        assert collapsed(points) == collapsed(ref_points)
        assert trace.final_point.coords.tobytes() == ref_points[-1]
        mine = [ev.f for ev in trace.events if ev.kind in (MANIFOLD_STEP, TANGENT_STEP, BOUNDARY_TRUNCATION)]
        assert mine == ref_f

    def test_counter_discipline(self, simple_saddle):
        params = practical(chi=4.0, epsilon=0.3)
        x0 = simple_saddle.manifold.point([0.001, 0.001])
        trace = prgd(simple_saddle, x0, params, RngStream(9, 2))
        assert abs(trace.gradient_queries - trace.final_t) <= params.horizon
        # counter advances by 1 per manifold step and by the horizon per phase;
        # phase events carry the anchor value
        t = 0
        events = trace.events
        tangent_kinds = (TANGENT_STEP, BOUNDARY_TRUNCATION)
        for i, ev in enumerate(events):
            assert ev.t == t
            if ev.kind == MANIFOLD_STEP:
                t += 1
            elif ev.kind in tangent_kinds:
                phase_over = i + 1 == len(events) or events[i + 1].kind not in tangent_kinds
                if phase_over:
                    t += params.horizon
        assert t == trace.final_t or trace.terminated != "budget"

    def test_termination_flags_suspect_at_second_order_point(self, pca3):
        # the dominant eigenvector is already second order: the first phase fails to decrease
        consts = pca3.constants()
        params = derive_params(epsilon=1e-3, delta=0.1, dim=2, ell=consts.lip_grad,
                               lip_grad=consts.lip_grad, lip_hess=consts.lip_hess,
                               ball=math.inf, gap=0.1, mode="practical", chi=4.0)
        x0 = pca3.manifold.point([1.0, 0.0, 0.0])
        trace = prgd(pca3, x0, params, RngStream(4, 0), terminate_on_no_decrease=True)
        assert trace.terminated == "decrease_threshold"
        assert trace.suspected_second_order
        assert np.array_equal(trace.final_point.coords, x0.coords)
        assert trace.n_perturbations == 1
        assert trace.final_t == params.horizon

    def test_tangent_iterates_respect_finite_ball(self, pca3):
        consts = pca3.constants()
        params = derive_params(epsilon=1e-3, delta=0.1, dim=2, ell=consts.lip_grad,
                               lip_grad=consts.lip_grad, lip_hess=consts.lip_hess,
                               ball=0.5, gap=1.0, mode="practical", chi=4.0)
        x0 = pca3.manifold.point([0.0, 1.0, 0.0])
        trace = prgd(pca3, x0, params, RngStream(12, 0), terminate_on_no_decrease=True)
        for ev in trace.events:
            if ev.kind in (TANGENT_STEP, BOUNDARY_TRUNCATION):
                assert ev.tangent_norm <= params.ball * (1 + 1e-12)

    def test_each_phase_start_is_retracted_once(self, pca3, monkeypatch):
        consts = pca3.constants()
        params = derive_params(epsilon=1e-3, delta=0.1, dim=2, ell=consts.lip_grad,
                               lip_grad=consts.lip_grad, lip_hess=consts.lip_hess,
                               ball=math.inf, gap=1.0, mode="practical", chi=4.0)
        starts, retracted = [], []
        ball_tangent = Sphere._ball_tangent_array
        retract = Sphere._retract_scaled_array

        def recording_ball_tangent(self, x, frame, radius, unit):
            # a phase starts at s0 = eta * xi, one row per start of the tick
            xi = ball_tangent(self, x, frame, radius, unit)
            starts.extend(params.eta * np.array(xi, ndmin=2))
            return xi

        def recording_retract(self, x, s):
            retracted.extend(np.array(s, ndmin=2))  # a copy, one tangent vector per row of a block
            return retract(self, x, s)

        monkeypatch.setattr(Sphere, "_ball_tangent_array", recording_ball_tangent)
        monkeypatch.setattr(Sphere, "_retract_scaled_array", recording_retract)
        trace = prgd(pca3, pca3.manifold.point([0.0, 1.0, 0.0]), params, RngStream(2, 0),
                     terminate_on_no_decrease=True)
        assert len(starts) == trace.n_perturbations >= 1
        for s0 in starts:
            assert sum(np.array_equal(s, s0) for s in retracted) == 1

    def test_phase_starts_are_block_work(self, monkeypatch):
        # the lockstep draws and maps its ball samples on arrays, and retracts only whole blocks of rows
        def refused(*args, **kwargs):
            raise AssertionError("the lockstep used the validated API")

        for owner in (Manifold, Sphere, Euclidean):
            monkeypatch.setattr(owner, "sample_ball", refused)
        monkeypatch.setattr(descent, "Tangent", refused)
        monkeypatch.setattr(descent, "Pullback", refused)
        step = descent.pullback_step

        def block_step(problem, x, s):
            assert x.ndim == s.ndim == 2, "a one-row pullback step"
            return step(problem, x, s)

        monkeypatch.setattr(descent, "pullback_step", block_step)
        problem, saddle, params = pca_saddle(20)
        quadratic = QuadraticSaddle(np.diag([-1.0] + [1.0] * 9))
        quadratic_params = practical(4.0, epsilon=1e-3, ell=quadratic.norm, dim=10)
        for problem, x0, params in ((problem, saddle, params),
                                    (quadratic, quadratic.manifold.point(np.zeros(10)), quadratic_params)):
            traces = descent.prgd_lockstep(problem, x0, params, [RngStream(1 + i, i) for i in range(10)], True)
            assert all(trace.n_perturbations >= 1 for trace in traces)

    def test_small_grad_visits_recorded(self, pca3):
        consts = pca3.constants()
        params = derive_params(epsilon=1e-3, delta=0.1, dim=2, ell=consts.lip_grad,
                               lip_grad=consts.lip_grad, lip_hess=consts.lip_hess,
                               ball=math.inf, gap=1.0, mode="practical", chi=4.0)
        x0 = pca3.manifold.point([0.0, 1.0, 0.0])
        trace = prgd(pca3, x0, params, RngStream(2, 0), terminate_on_no_decrease=True)
        visits = [ev for ev in trace.events if ev.kind == SMALL_GRAD_VISIT]
        assert len(visits) >= 2
        assert visits[0].t == 0 and visits[0].f == pca3.value(x0)
        # the trace keeps the anchor of the last visit only, the point the CLI certifies
        point = trace.last_small_grad_point
        assert pca3.value(point) == visits[-1].f
        assert float(np.linalg.norm(pca3.riemannian_gradient(point).coords)) == visits[-1].grad_norm
        assert not np.array_equal(point.coords, x0.coords)


class TestRgd:
    def test_stops_immediately_at_exact_saddle(self, diag_pca):
        x0 = diag_pca.manifold.point([0.0, 1.0])
        trace = rgd(diag_pca, x0, eta=0.1, epsilon=1e-3, max_iters=100)
        assert trace.terminated == "gradient_converged"
        assert trace.final_t == 0
        assert np.array_equal(trace.final_point.coords, x0.coords)

    @pytest.mark.parametrize("bad, message", [
        ({"max_iters": math.nan}, "max_iters must be an integer >= 0, got nan"),
        ({"max_iters": 2.5}, "max_iters must be an integer >= 0, got 2.5"),
        ({"max_iters": -1}, "max_iters must be an integer >= 0, got -1"),
        ({"epsilon": math.nan}, "epsilon must be nonnegative, got nan"),
        ({"eta": math.inf}, "eta must be positive and finite, got inf"),
        ({"eta": math.nan}, "eta must be positive and finite, got nan"),
    ])
    def test_scalar_arguments_are_checked(self, bad, message):
        # with valid scalars a run from the saddle stops at step 0, so no case can run long
        problem, saddle, params = pca_saddle(5)
        assert rgd(problem, saddle, params.eta, params.epsilon, 10).final_t == 0
        with pytest.raises(ValueError, match=f"^{message}$"):
            rgd(problem, saddle, **({"eta": params.eta, "epsilon": params.epsilon, "max_iters": 10} | bad))

    def test_euclidean_gradient_step(self):
        problem = EuclideanQuadratic(np.eye(2))
        x0 = problem.manifold.point([1.0, 0.0])
        with evaluated_points(problem) as points:
            trace = rgd(problem, x0, eta=0.5, epsilon=1e-12, max_iters=1)
        assert points == [np.array([1.0, 0.0]).tobytes(), np.array([0.5, 0.0]).tobytes()]
        assert np.array_equal(trace.final_point.coords, [0.5, 0.0])

    def test_one_fused_cost_call_per_iterate(self, monkeypatch):
        a, _, _, _ = synthetic_matrix(6, RngStream(3, 44))
        p = PcaProblem(a)
        raw, _ = RngStream(19).standard_normal(6)
        x0 = p.manifold.point(raw / np.linalg.norm(raw))
        calls = count_cost_calls(monkeypatch)
        trace = rgd(p, x0, eta=0.2, epsilon=0.0, max_iters=25)
        assert trace.final_t == 25
        assert calls == {"fused": 26, "value": 0, "riemannian_gradient": 0}

    @pytest.mark.parametrize("max_iters, terminated", [(10_000, "gradient_converged"), (7, "budget"), (0, "budget")])
    def test_queries_and_stop_reason_follow_the_step_count(self, max_iters, terminated):
        # from a random start: one gradient per iterate 0 ... final_t, one event per step
        a, _, _, _ = synthetic_matrix(6, RngStream(3, 44))
        p = PcaProblem(a)
        raw, _ = RngStream(19).standard_normal(6)
        x0 = p.manifold.point(raw / np.linalg.norm(raw))
        trace = rgd(p, x0, eta=0.2, epsilon=1e-6, max_iters=max_iters)
        assert trace.terminated == terminated
        assert (trace.final_t == max_iters) == (terminated == "budget")
        assert trace.gradient_queries == trace.final_t + 1
        assert len(trace.events) == trace.final_t
        assert [ev.t for ev in trace.events] == list(range(trace.final_t))
        assert (trace.final_grad_norm <= 1e-6) == (terminated == "gradient_converged")

    def test_pca_converges_to_an_eigenvector(self):
        a, lams, vecs, _ = synthetic_matrix(6, RngStream(3, 44))
        p = PcaProblem(a)
        raw, _ = RngStream(19).standard_normal(6)
        x0 = p.manifold.point(raw / np.linalg.norm(raw))
        trace = rgd(p, x0, eta=0.2, epsilon=1e-6, max_iters=10_000)
        assert trace.terminated == "gradient_converged"
        assert trace.final_grad_norm <= 1e-6
        overlaps = np.abs(vecs.T @ trace.final_point.coords)
        assert overlaps.max() >= 1.0 - 1e-6

    def test_study_runs_and_certifies_once(self, monkeypatch):
        problem, _, params = pca_saddle(12)
        _, _, vecs, _ = synthetic_matrix(12, RngStream(1, 2**48))
        x0, _ = random_point(problem.manifold, RngStream(6, 1))
        with evaluated_points(problem) as single_points:
            single = rgd(problem, x0, params.eta, params.epsilon, 500)
        report = check_second_order_point(problem, single.final_point, params.epsilon, params.lip_hess)
        study_points = []

        def recorded_rgd(*args, **kwargs):
            with evaluated_points(problem, study_points):
                return rgd(*args, **kwargs)

        monkeypatch.setattr(verify, "rgd", recorded_rgd)
        calls = {"rgd": 0, "check_second_order_points": 0}
        certified = []
        for name in calls:
            def counted(*args, _original=getattr(verify, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(verify, name, counted)
        monkeypatch.setattr(verify, "fd_hessian_from_gradients",
                            lambda gradients, manifold, x, frame, center: certified.append(len(x))
                            or fd_hessian_from_gradients(gradients, manifold, x, frame, center))
        study = escape_study(problem, x0, params, base_seed=7, trials=5, algorithm="rgd",
                             rgd_max_iters=500, v_max=vecs[:, 0])
        # one certificate call, whose one block holds one point
        assert calls == {"rgd": 1, "check_second_order_points": 1}
        assert certified == [1]
        assert [(res.seed, res.stream) for res in study] == [(7 + i, i) for i in range(5)]
        assert single.final_t >= 1
        # the study's one run evaluated the single run's points, in order
        assert study_points == single_points
        for res in study:
            assert_same_run(res.trace, single)
            assert res.report.as_dict() == report.as_dict()
            assert res.alignment == abs(float(single.final_point.coords @ vecs[:, 0]))
