import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from prgd import NumericalError
from prgd.descent import derive_params, prgd, tangent_space_steps
from prgd.manifolds import Tangent
from prgd.numerics import RngStream, fd_hessian_from_gradients, min_eigpair
from prgd.problems import PcaProblem, QuadraticSaddle, synthetic_matrix
from prgd.pullback import Pullback, pullback_gradient_rows, pullback_step
from prgd.verify import random_point, riemannian_hessian_matrix
from conftest import EuclideanQuadratic, SqrtGradient
from fd_oracles import fd_gradient, fd_hessian


def random_sphere_point(sph, rng):
    raw, rng = rng.standard_normal(sph.ambient_dim)
    return sph.point(raw / np.linalg.norm(raw)), rng


def problem_and_point(name, rng):
    """A 6-dim PCA problem at a random sphere point (k = 5), or a Euclidean quadratic (k = 6)."""
    a, _, _, rng = synthetic_matrix(6, rng)
    problem = PcaProblem(a) if name == "pca" else EuclideanQuadratic(a - 1.5 * np.eye(6))
    x, rng = random_point(problem.manifold, rng)
    return problem, x, rng


def value_route_hessian(pull, u):
    """The independent scalar oracle: fd_hessian of u -> pull.value(B u), B the tangent basis."""
    basis = pull.manifold.tangent_basis(pull.base)
    return fd_hessian(lambda uu: pull.value(Tangent(pull.base, basis @ uu)), u)


class TestValue:
    def test_zero_tangent_gives_base_value(self, pca3):
        x = pca3.manifold.point([0.0, 0.0, 1.0])
        pull = Pullback(pca3, x)
        assert pull.value(Tangent(x, np.zeros(3))) == pytest.approx(pca3.value(x), abs=1e-15)

    def test_saddle_base_value(self, diag_pca):
        x = diag_pca.manifold.point([0.0, 1.0])
        pull = Pullback(diag_pca, x)
        assert pull.value(Tangent(x, np.zeros(2))) == -0.5

    def test_along_escape_direction(self, diag_pca):
        # value along t*e1 from the saddle e2 is -(3t^2 + 1)/(2(1 + t^2)); at t=1 it is -1
        x = diag_pca.manifold.point([0.0, 1.0])
        pull = Pullback(diag_pca, x)
        s = diag_pca.manifold.tangent(x, [1.0, 0.0])
        assert pull.value(s) == pytest.approx(-1.0, abs=1e-15)
        for t in (0.25, 0.5, 2.0):
            st = diag_pca.manifold.tangent(x, [t, 0.0])
            assert pull.value(st) == pytest.approx(-0.5 * (3 * t * t + 1) / (1 + t * t), rel=1e-14)

    def test_base_mismatch_rejected(self, diag_pca):
        x = diag_pca.manifold.point([0.0, 1.0])
        other = diag_pca.manifold.point([1.0, 0.0])
        pull = Pullback(diag_pca, x)
        with pytest.raises(ValueError):
            pull.value(Tangent(other, np.zeros(2)))


class TestGradient:
    def test_zero_tangent_is_riemannian_gradient(self, pca3):
        rng = RngStream(2)
        x, rng = random_sphere_point(pca3.manifold, rng)
        pull = Pullback(pca3, x)
        got = pull.gradient(Tangent(x, np.zeros(3))).coords
        want = pca3.riemannian_gradient(x).coords
        assert np.linalg.norm(got - want) <= 1e-14

    def test_matches_closed_form_on_sphere(self):
        # (1 + |s|^2)^-1 (-Proj_x(A(x+s)) - 2 f(s) s) under the minimization sign
        a, _, _, _ = synthetic_matrix(6, RngStream(7, 3))
        p = PcaProblem(a)
        rng = RngStream(8)
        for _ in range(100):
            x, rng = random_sphere_point(p.manifold, rng)
            s, rng = p.manifold.sample_ball(x, 2.0, rng)
            pull = Pullback(p, x)
            got = pull.gradient(s).coords
            xc, sc = x.coords, s.coords
            w = 1.0 / (1.0 + float(sc @ sc))
            proj = a @ (xc + sc) - (xc @ (a @ (xc + sc))) * xc
            closed = w * (-proj - 2.0 * pull.value(s) * sc)
            assert np.linalg.norm(got - closed) <= 1e-10 * max(np.linalg.norm(closed), 1e-12)

    @pytest.mark.parametrize("problem_name", ["pca", "quadratic"])
    def test_matches_fd_gradient(self, problem_name):
        if problem_name == "pca":
            a, _, _, _ = synthetic_matrix(5, RngStream(9, 1))
            problem = PcaProblem(a)
        else:
            g, _ = RngStream(10).standard_normal((5, 5))
            problem = EuclideanQuadratic(g @ g.T + np.eye(5))
        manifold = problem.manifold
        rng = RngStream(11)
        for _ in range(100):
            if problem_name == "pca":
                x, rng = random_sphere_point(manifold, rng)
            else:
                raw, rng = rng.standard_normal(5)
                x = manifold.point(raw)
            s, rng = manifold.sample_ball(x, 0.5, rng)
            pull = Pullback(problem, x)
            basis = manifold.tangent_basis(x)
            u = basis.T @ s.coords

            def phi(uu):
                y = manifold._retract_array(x.coords, basis @ uu)
                return problem.value(manifold.point(y))

            fd = fd_gradient(phi, u)
            got = basis.T @ pull.gradient(s).coords
            assert np.linalg.norm(got - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-9)

    @pytest.mark.parametrize("problem_name", ["pca", "quadratic"])
    def test_gradient_many_matches_row_by_row(self, problem_name):
        problem, x, rng = problem_and_point(problem_name, RngStream(15, 2))
        pull = Pullback(problem, x)
        steps = []
        for _ in range(30):
            s, rng = problem.manifold.sample_ball(x, 2.0, rng)
            steps.append(s)
        got = pullback_gradient_rows(problem, x.coords, np.array([s.coords for s in steps]))
        for row, s in zip(got, steps):
            ref = pull.gradient(s).coords
            # the rows leave out the adjoint's projection: they are the gradients up to a multiple of x
            tangent = problem.manifold._project_array(x.coords, row)
            assert np.linalg.norm(tangent - ref) <= 1e-14 * np.linalg.norm(ref)


class TestPullbackStep:
    """The descent loops' one-call step gives each row the validated pullback's value and gradient bit for bit."""

    @pytest.mark.parametrize("problem_name", ["pca", "quadratic_saddle", "euclidean_quadratic"])
    def test_block_matches_pullback(self, problem_name):
        rng = RngStream(23, 4)
        a, _, _, rng = synthetic_matrix(6, rng)
        problem = {"pca": PcaProblem(a), "quadratic_saddle": QuadraticSaddle(a - 1.5 * np.eye(6)),
                   "euclidean_quadratic": EuclideanQuadratic(a - 1.5 * np.eye(6))}[problem_name]
        x, rng = random_point(problem.manifold, rng)
        pull = Pullback(problem, x)
        steps = []
        for radius in np.geomspace(1e-6, 3.0, 12):
            s, rng = problem.manifold.sample_ball(x, float(radius), rng)
            steps.append(s)
        y, f, _, grads = pullback_step(problem, x.coords[None], np.array([s.coords for s in steps]))
        assert y.shape == grads.shape == (12, 6) and f.shape == (12,)
        for s, y_row, f_row, grad_row in zip(steps, y, f, grads):
            assert np.array_equal(y_row, problem.manifold.retract(x, s).coords)
            assert f_row == pull.value(s)
            assert np.array_equal(grad_row, pull.gradient(s).coords)


class TestStackedPullbacks:
    """A stack of base points gives each pullback's gradient rows and FD Hessian bit for bit."""

    @pytest.mark.parametrize("problem_name", ["pca", "quadratic"])
    def test_stack_matches_each_pullback(self, problem_name):
        problem, _, rng = problem_and_point(problem_name, RngStream(16, 2))
        pulls, steps = [], []
        for _ in range(5):
            x, rng = random_point(problem.manifold, rng)
            s, rng = problem.manifold.sample_ball(x, 2.0, rng)
            pulls.append(Pullback(problem, x))
            steps.append(s)
        x = np.array([pull.base.coords for pull in pulls])
        tangents = np.array([[s.coords, -0.5 * s.coords, 0.0 * s.coords] for s in steps])
        # each call overwrites its tangents with the retracted points
        rows = pullback_gradient_rows(problem, x, tangents.copy())
        for pull, block, got in zip(pulls, tangents, rows):
            assert np.array_equal(got, pullback_gradient_rows(problem, pull.base.coords, block.copy()))
        # s projected onto the tangent space, as `hessian_at` centres it
        centers = problem.manifold._project_array(x, np.array([s.coords for s in steps]))
        hessians = fd_hessian_from_gradients(partial(pullback_gradient_rows, problem, x), problem.manifold, x,
                                             problem.manifold._tangent_frame_array(x), centers[:, None, :])
        for pull, s, got in zip(pulls, steps, hessians):
            assert np.array_equal(got, pull.hessian_at(s))

    @pytest.mark.parametrize("problem_name", ["pca", "quadratic"])
    def test_fd_hessians_are_exactly_symmetric(self, problem_name):
        # the certificate hands this Hessian to the eigensolver without a symmetry check
        problem, _, rng = problem_and_point(problem_name, RngStream(16, 3))
        pulls = []
        for _ in range(4):
            x, rng = random_point(problem.manifold, rng)
            pulls.append(Pullback(problem, x))
            h = pulls[-1].hessian_at_zero()
            assert np.array_equal(h, h.mT)
        x = np.array([pull.base.coords for pull in pulls])
        stack = fd_hessian_from_gradients(partial(pullback_gradient_rows, problem, x), problem.manifold, x,
                                          problem.manifold._tangent_frame_array(x), 0.0)
        assert stack.shape == (len(pulls),) + 2 * (problem.manifold.intrinsic_dim,)
        assert np.array_equal(stack, stack.mT)


class TestFdHessianBuffers:
    def test_peak_memory_is_about_two_row_blocks(self):
        # at its peak a Hessian holds about two (2k, n) blocks: the rows, retracted in place, and their gradients
        n = 300
        a, _, q, _ = synthetic_matrix(n, RngStream(5, n))
        p = PcaProblem(a)
        pull = Pullback(p, p.manifold.point(q[:, 1]))
        tracemalloc.start()
        try:
            pull.hessian_at_zero()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2 * (n - 1) * n * 8

    @pytest.mark.parametrize("n", [20, 150])
    def test_stacks_keep_the_bits_of_2d_calls(self, n):
        # k = n - 1: 19 as in the Lipschitz sweep, and 149 as in a certify-pca-n150 certificate
        a, _, _, rng = synthetic_matrix(n, RngStream(7, n))
        problem = PcaProblem(a)
        pulls, steps = [], []
        for _ in range(3):
            x, rng = random_point(problem.manifold, rng)
            s, rng = problem.manifold.sample_ball(x, 2.0, rng)
            pulls.append(Pullback(problem, x))
            steps.append(s)
        x = np.array([pull.base.coords for pull in pulls])
        centers = problem.manifold._project_array(x, np.array([s.coords for s in steps]))
        gradients = partial(pullback_gradient_rows, problem, x)
        frame = problem.manifold._tangent_frame_array(x)
        at_zero = fd_hessian_from_gradients(gradients, problem.manifold, x, frame, 0.0)
        at_s = fd_hessian_from_gradients(gradients, problem.manifold, x, frame, centers[:, None, :])
        for pull, s, got_zero, got_s in zip(pulls, steps, at_zero, at_s):
            assert np.array_equal(got_zero, pull.hessian_at_zero())
            assert np.array_equal(got_s, pull.hessian_at(s))


class TestHessianAtZero:
    def test_euclidean_quadratic_recovers_matrix(self):
        h = np.array([[2.0, 0.3, 0.0], [0.3, -1.0, 0.1], [0.0, 0.1, 0.5]])
        problem = EuclideanQuadratic(h)
        x = problem.manifold.point([0.4, -0.2, 1.0])
        got = Pullback(problem, x).hessian_at_zero()
        assert np.abs(got - h).max() <= 1e-6

    def test_pca_dominant_is_positive(self, diag_pca):
        x = diag_pca.manifold.point([1.0, 0.0])
        hess = Pullback(diag_pca, x).hessian_at_zero()
        assert hess.shape == (1, 1)
        assert hess[0, 0] == pytest.approx(2.0, abs=1e-5)

    def test_pca_saddle_is_negative(self, diag_pca):
        x = diag_pca.manifold.point([0.0, 1.0])
        hess = Pullback(diag_pca, x).hessian_at_zero()
        assert hess[0, 0] == pytest.approx(-2.0, abs=1e-5)

    def test_matches_analytic_intrinsic_operator(self):
        a, _, _, _ = synthetic_matrix(7, RngStream(13, 2))
        p = PcaProblem(a)
        rng = RngStream(14)
        x, rng = random_sphere_point(p.manifold, rng)
        pull = Pullback(p, x)
        basis = p.manifold.tangent_basis(x)
        analytic = -basis.T @ a @ basis + float(x.coords @ a @ x.coords) * np.eye(6)
        assert np.abs(pull.hessian_at_zero() - analytic).max() <= 1e-5

    def test_min_eig_matches_best_competing_eigenpair(self, pca3):
        # at a unit eigenvector of diagonal A the smallest intrinsic eigenvalue
        # is x^T A x - max_{other} lambda
        lams = np.diag(pca3.matrix)
        for k in range(3):
            x = pca3.manifold.point(np.eye(3)[k])
            lam, _ = min_eigpair(Pullback(pca3, x).hessian_at_zero())
            competing = max(lams[j] for j in range(3) if j != k)
            assert lam == pytest.approx(lams[k] - competing, abs=1e-5)

    def test_hessian_at_matches_hessian_at_zero(self, pca3):
        x = pca3.manifold.point([0.0, 0.0, 1.0])
        pull = Pullback(pca3, x)
        zero = Tangent(x, np.zeros(3))
        assert np.abs(pull.hessian_at(zero) - pull.hessian_at_zero()).max() <= 1e-12


class TestHessianAgainstValueRoute:
    @pytest.mark.parametrize("problem_name", ["pca", "quadratic"])
    def test_hessian_at_zero_and_at_s_match_fd_of_values(self, problem_name):
        problem, x, rng = problem_and_point(problem_name, RngStream(16, 3))
        manifold = problem.manifold
        for _ in range(3):
            pull = Pullback(problem, x)
            k = manifold.intrinsic_dim
            assert np.abs(pull.hessian_at_zero() - value_route_hessian(pull, np.zeros(k))).max() <= 1e-6
            s, rng = manifold.sample_ball(x, 1.0, rng)
            s = Tangent(x, 0.5 * s.coords / s.norm)
            at_s = pull.hessian_at(s)
            assert np.abs(at_s - value_route_hessian(pull, manifold.tangent_basis(x).T @ s.coords)).max() <= 1e-6
            if problem_name == "pca":
                # the pullback curvature moves away from the origin; the check is not vacuous
                assert np.abs(at_s - pull.hessian_at_zero()).max() > 1e-2
            x, rng = random_point(manifold, rng)

    def test_nonfinite_gradients_raise(self):
        problem = SqrtGradient()
        x = problem.manifold.point([0.0, 0.0])
        with pytest.raises(NumericalError):
            Pullback(problem, x).hessian_at_zero()
        with pytest.raises(NumericalError):
            riemannian_hessian_matrix(problem, x)


def test_validated_nonfinite_gradients_are_numerical_errors():
    problem = SqrtGradient()
    x = problem.manifold.point([-1.0, -1.0])
    y = problem.manifold.point([1.0, 1.0])
    # y + s = (-1, -1), where the gradient is NaN
    s = problem.manifold.tangent(y, [-2.0, -2.0])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError):
            problem.riemannian_gradient(x)
        with pytest.raises(NumericalError):
            Pullback(problem, y).gradient(s)


def test_tangent_loop_nonfinite_gradient_is_a_numerical_error():
    problem = SqrtGradient()
    x = problem.manifold.point([1.0, 1.0])
    # the first step lands at (-0.5, -0.5), where the gradient is NaN
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        tangent_space_steps(Pullback(problem, x), Tangent(x, np.zeros(2)),
                            eta=1.0, ball=math.inf, horizon=2)


def test_prgd_loop_top_nonfinite_gradient_is_a_numerical_error():
    problem = SqrtGradient()
    x = problem.manifold.point([-1.0, -1.0])
    params = derive_params(epsilon=0.01, delta=0.1, dim=2, ell=1.0, lip_grad=1.0, lip_hess=1.0,
                           ball=math.inf, gap=1.0, mode="practical", chi=4.0)
    # the gradient is NaN at the start point itself, so the first loop top must reject it
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        prgd(problem, x, params, RngStream(0))
