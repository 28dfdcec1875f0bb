import math
import tracemalloc

import numpy as np
import pytest

from prgd.descent import (
    MANIFOLD_STEP,
    PERTURBATION,
    TANGENT_STEP,
    RunTrace,
    TraceEvent,
    derive_params,
    prgd,
)
from prgd import manifolds, verify
from prgd.errors import NumericalError
from prgd.manifolds import Euclidean, Sphere
from prgd.numerics import RngStream, min_eigpair, sample_unit_ball
from prgd.problems import CostFunction, PcaProblem, QuadraticSaddle, synthetic_matrix
from prgd.verify import (
    SWEEP_CHUNK,
    check_second_order_point,
    audit_trace,
    coupling_experiment,
    empirical_grad_lipschitz,
    empirical_hess_lipschitz,
    random_point,
    riemannian_hessian_matrix,
)
from conftest import EuclideanQuadratic
from sweep_oracles import grad_lipschitz_loop, hess_lipschitz_loop


def pca_params(problem, chi, epsilon=1e-3, gap=1.0, ball=math.inf):
    consts = problem.constants()
    return derive_params(epsilon=epsilon, delta=0.1, dim=problem.manifold.intrinsic_dim,
                         ell=consts.lip_grad, lip_grad=consts.lip_grad,
                         lip_hess=consts.lip_hess, ball=ball, gap=gap,
                         mode="practical", chi=chi)


class TestCriticalityReport:
    def test_pca_dominant_passes(self, diag_pca):
        x = diag_pca.manifold.point([1.0, 0.0])
        report = check_second_order_point(diag_pca, x, eps=0.01, rho=27.0)
        assert report.grad_norm == 0.0
        assert report.min_eig_pullback == pytest.approx(2.0, abs=1e-5)
        assert report.verdict

    def test_pca_saddle_fails(self, diag_pca):
        x = diag_pca.manifold.point([0.0, 1.0])
        report = check_second_order_point(diag_pca, x, eps=0.01, rho=27.0)
        assert report.min_eig_pullback == pytest.approx(-2.0, abs=1e-5)
        assert not report.verdict
        # the escape direction accompanies the report
        assert abs(report.eigvec.coords[0]) == pytest.approx(1.0, abs=1e-6)

    def test_euclidean_convex_quadratic_passes(self, convex2):
        x = convex2.manifold.point([0.0, 0.0])
        for eps in (1e-6, 1e-3, 0.1):
            report = check_second_order_point(convex2, x, eps=eps, rho=1.0)
            assert report.min_eig_pullback == pytest.approx(1.0, abs=1e-5)
            assert report.verdict

    def test_verdict_monotone_in_eps(self, diag_pca):
        x = diag_pca.manifold.point(np.array([1.0, 1e-4]) / math.sqrt(1.0 + 1e-8))
        eps_grid = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
        verdicts = [check_second_order_point(diag_pca, x, eps=e, rho=27.0).verdict for e in eps_grid]
        for earlier, later in zip(verdicts, verdicts[1:]):
            assert later or not earlier

    def test_hessian_routes_agree_for_second_order_retractions(self):
        a, _, _, _ = synthetic_matrix(6, RngStream(31, 1))
        p = PcaProblem(a)
        rng = RngStream(32)
        for _ in range(10):
            x, rng = random_point(p.manifold, rng)
            report = check_second_order_point(p, x, eps=1e-3, rho=18.0)
            lam_hess, _ = min_eigpair(riemannian_hessian_matrix(p, x))
            assert lam_hess == pytest.approx(report.min_eig_pullback, abs=1e-5)

    def test_certificate_builds_one_basis_and_one_gradient_batch(self, monkeypatch):
        calls = {"basis": 0, "batch": 0}
        basis, batch = Sphere.tangent_basis, PcaProblem.riemannian_gradient_many

        def counted(name, method):
            def wrapper(*args):
                calls[name] += 1
                return method(*args)
            return wrapper

        monkeypatch.setattr(Sphere, "tangent_basis", counted("basis", basis))
        monkeypatch.setattr(PcaProblem, "riemannian_gradient_many", counted("batch", batch))
        a, _, q, _ = synthetic_matrix(6, RngStream(31, 1))
        p = PcaProblem(a)
        check_second_order_point(p, p.manifold.point(q[:, 1]), eps=1e-3, rho=18.0)
        # each finite-difference Hessian is one batch of exact gradients
        assert calls == {"basis": 1, "batch": 1}

    def test_generic_certificate_queries_the_validated_gradient_once(self, monkeypatch):
        # the FD Hessian's 2k gradients come from the block oracle; only the gradient norm is validated
        calls = []
        gradient = CostFunction.riemannian_gradient

        def counted(self, x):
            calls.append(x)
            return gradient(self, x)

        monkeypatch.setattr(CostFunction, "riemannian_gradient", counted)
        problem = EuclideanQuadratic(np.diag([-1.0, 0.5, 2.0, 3.0]))
        report = check_second_order_point(problem, problem.manifold.point(np.zeros(4)), eps=1e-3, rho=1.0)
        assert len(calls) == 1
        assert report.min_eig_pullback == pytest.approx(-1.0, abs=1e-6)

    def test_eigvec_sign_rule(self):
        a, _, q, _ = synthetic_matrix(12, RngStream(31, 2))
        p = PcaProblem(a)
        for i in range(1, 12):
            x = p.manifold.point(q[:, i])
            report = check_second_order_point(p, x, eps=1e-3, rho=9.0 * p.norm)
            # the rule holds in the tangent basis, where the eigensolver sees the Hessian
            coords = p.manifold.tangent_basis(x).T @ report.eigvec.coords
            top = int(np.argmax(np.abs(coords)))
            assert coords[top] > 0
            assert np.linalg.norm(report.eigvec.coords) == pytest.approx(1.0, abs=1e-12)

    def test_riemannian_hessian_matches_analytic(self, diag_pca):
        x = diag_pca.manifold.point([0.0, 1.0])
        hess = riemannian_hessian_matrix(diag_pca, x)
        assert hess[0, 0] == pytest.approx(-2.0, abs=1e-6)


class TestCertificateScaling:
    def test_n400_certificate_is_accurate_in_bounded_memory(self):
        # 2k gradient rows, O(k*n); a 2k^2-row value grid would allocate about 1 GB here
        a, lams, q, _ = synthetic_matrix(400, RngStream(5, 400))
        p = PcaProblem(a)
        x = p.manifold.point(q[:, 1])
        tracemalloc.start()
        try:
            report = check_second_order_point(p, x, eps=1e-3, rho=9.0 * p.norm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.min_eig_pullback == pytest.approx(lams[1] - lams[0], abs=1e-6)
        assert peak < 64 * 2**20


class TestEmpiricalLipschitz:
    def test_euclidean_quadratic_gradient_ratio_is_matrix_norm(self):
        h = np.diag([2.0, -1.0, 0.5])
        problem = EuclideanQuadratic(h)
        ratio = empirical_grad_lipschitz(problem, ball=3.0, n_samples=400, rng=RngStream(3, 0))
        assert ratio <= 2.0 + 1e-9
        assert ratio >= 1.0  # the top curvature direction is hit fairly quickly

    def test_pca_ratio_below_problem_constant(self):
        a, _, _, _ = synthetic_matrix(8, RngStream(17, 4))
        p = PcaProblem(a)
        ratio = empirical_grad_lipschitz(p, ball=5.0, n_samples=500, rng=RngStream(5, 0))
        assert ratio <= 2.5 * p.norm

    def test_reproducible_given_seed(self):
        a, _, _, _ = synthetic_matrix(5, RngStream(7, 2))
        p = PcaProblem(a)
        r1 = empirical_grad_lipschitz(p, ball=5.0, n_samples=100, rng=RngStream(9, 3))
        r2 = empirical_grad_lipschitz(p, ball=5.0, n_samples=100, rng=RngStream(9, 3))
        assert r1 == r2

    def test_euclidean_quadratic_hessian_ratio_is_fd_noise(self):
        h = np.diag([2.0, -1.0])
        problem = EuclideanQuadratic(h)
        ratio = empirical_hess_lipschitz(problem, ball=2.0, n_samples=50, rng=RngStream(11, 0))
        assert ratio <= 1e-4 * 2.0

    def test_pca_hessian_ratio_below_problem_constant(self):
        a, _, _, _ = synthetic_matrix(6, RngStream(13, 5))
        p = PcaProblem(a)
        ratio = empirical_hess_lipschitz(p, ball=5.0, n_samples=100, rng=RngStream(15, 0))
        assert ratio <= 9.0 * p.norm


def sweep_problem(name):
    """Criterion 3's d=20 PCA problem, or an indefinite quadratic: closed-form or row-by-row gradients."""
    a, _, _, _ = synthetic_matrix(20, RngStream(11, 2**48))
    if name == "pca":
        return PcaProblem(a)
    if name == "quadratic_saddle":
        return QuadraticSaddle(a - 1.5 * np.eye(20))
    return EuclideanQuadratic(a[:6, :6] - 1.5 * np.eye(6))


class SqrtGradient(CostFunction):
    """sum_i x_i^(3/2) on R^2: NaN value and gradient wherever a coordinate is negative."""

    manifold = Euclidean(2)

    def value(self, x):
        with np.errstate(invalid="ignore"):
            return float(np.sum(x.coords**1.5))

    def euclidean_gradient(self, x):
        with np.errstate(invalid="ignore"):
            return 1.5 * np.sqrt(x.coords)

    def riemannian_gradient_many(self, coords):
        with np.errstate(invalid="ignore"):
            return 1.5 * np.sqrt(coords)


class TestBlockSweeps:
    """The stacked sweeps return the per-sample loops' ratios bit for bit, in bounded memory."""

    @pytest.mark.parametrize("name", ["pca", "quadratic_saddle", "generic"])
    @pytest.mark.parametrize("n_samples", [1, SWEEP_CHUNK - 1, SWEEP_CHUNK, SWEEP_CHUNK + 1, 200])
    def test_ratios_match_the_per_sample_loop(self, name, n_samples, monkeypatch):
        problem = sweep_problem(name)
        rekeys = []
        generator = RngStream._generator

        def counted(rng):
            rekeys.append(rng.index)
            return generator(rng)

        # criterion 3's streams
        for sweep, loop, seed in ((empirical_grad_lipschitz, grad_lipschitz_loop, 40),
                                  (empirical_hess_lipschitz, hess_lipschitz_loop, 41)):
            monkeypatch.setattr(RngStream, "_generator", counted)
            ratio = sweep(problem, 5.0, n_samples, RngStream(seed, 0))
            monkeypatch.undo()
            assert ratio == loop(problem, 5.0, n_samples, RngStream(seed, 0))
            # every sample is drawn, a point and a ball draw at the next two stream indices and no
            # redraw: equal maxima alone could hide a dropped one
            assert rekeys == list(range(2 * n_samples))
            rekeys.clear()

    @pytest.mark.parametrize("problem", [PcaProblem(np.diag([2.0, 1.0])), QuadraticSaddle([[-1.0]])],
                             ids=["pca", "quadratic_saddle"])
    def test_redrawn_samples_match_the_per_sample_loop(self, problem, monkeypatch):
        # with k = 1 a ball draw of radius 2e-8 is shorter than MIN_SAMPLE_NORM about half the time
        loop_draws = []

        def counted(dim, rng):
            loop_draws.append(rng)
            return sample_unit_ball(dim, rng)

        monkeypatch.setattr(manifolds, "sample_unit_ball", counted)
        assert (empirical_grad_lipschitz(problem, 2e-8, 40, RngStream(40, 0))
                == grad_lipschitz_loop(problem, 2e-8, 40, RngStream(40, 0)))
        assert (empirical_hess_lipschitz(problem, 2e-8, 40, RngStream(41, 0))
                == hess_lipschitz_loop(problem, 2e-8, 40, RngStream(41, 0)))
        # the loops drew one ball sample per sample plus one per redraw
        assert len(loop_draws) >= 2 * 40 + 20

    def test_small_ball_and_large_dimension_match_the_loop(self):
        # at n = 300 a block of Hessian rows would exceed the float cap, so each sample is its own block
        a, _, _, _ = synthetic_matrix(300, RngStream(3, 2**48))
        problem = PcaProblem(a)
        assert (empirical_hess_lipschitz(problem, 1e-3, 2, RngStream(3, 0))
                == hess_lipschitz_loop(problem, 1e-3, 2, RngStream(3, 0)))
        assert (empirical_grad_lipschitz(problem, 1e-3, 20, RngStream(3, 0))
                == grad_lipschitz_loop(problem, 1e-3, 20, RngStream(3, 0)))

    @pytest.mark.parametrize("sweep", [empirical_grad_lipschitz, empirical_hess_lipschitz])
    @pytest.mark.parametrize("ball", [1e-9, 0.0, math.inf, math.nan, -1.0])
    def test_ball_without_room_for_a_sample_is_rejected(self, diag_pca, sweep, ball):
        # every draw would be shorter than the minimum sample norm, or NaN, and be redrawn forever
        with pytest.raises(ValueError, match="ball"):
            sweep(diag_pca, ball, 10, RngStream(1))

    @pytest.mark.parametrize("sweep", [empirical_grad_lipschitz, empirical_hess_lipschitz])
    def test_non_finite_gradient_raises(self, sweep):
        with pytest.raises(NumericalError):
            sweep(SqrtGradient(), 1.0, 20, RngStream(2))

    @pytest.mark.parametrize("manifold", [Sphere(2), Sphere(20), Sphere(300), Euclidean(5)], ids=str)
    def test_chunk_rows_are_the_one_row_draws(self, manifold, monkeypatch):
        units = []
        unit_ball_rows = verify._unit_ball_rows
        monkeypatch.setattr(verify, "_unit_ball_rows", lambda *args: units.append(unit_ball_rows(*args)) or units[-1])
        rng = RngStream(5, manifold.ambient_dim, 11)
        x, bases, s, after = verify._draw_chunk(manifold, 0.7, SWEEP_CHUNK, rng)
        assert len(x) == SWEEP_CHUNK and after == RngStream(5, manifold.ambient_dim, 11 + 2 * SWEEP_CHUNK)
        for i in range(SWEEP_CHUNK):
            point, at_ball = random_point(manifold, RngStream(5, manifold.ambient_dim, 11 + 2 * i))
            unit, _ = sample_unit_ball(manifold.intrinsic_dim, at_ball)
            tangent, _ = manifold.sample_ball(point, 0.7, at_ball)
            assert x[i].tobytes() == point.coords.tobytes()
            assert units[0][i].tobytes() == unit.tobytes()
            assert s[i].tobytes() == tangent.coords.tobytes()

    @pytest.mark.parametrize("manifold, normal", [(Sphere(20), math.inf), (Sphere(20), math.nan), (Sphere(20), 1e300),
                                                  (Euclidean(5), math.inf), (Euclidean(5), math.nan)], ids=str)
    def test_chunk_points_get_the_point_checks(self, manifold, normal, monkeypatch):
        # the chunk raises what `random_point` (through `manifold.point`) raises on the same normals;
        # on the sphere 1e300 normals have an infinite norm and normalize to the zero vector
        generator = RngStream._generator

        class BadNormals:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, size=None, out=None):
                out = np.empty(size) if out is None else out
                out[...] = normal
                return out

            def random(self):
                return self.gen.random()

        monkeypatch.setattr(RngStream, "_generator", lambda rng: BadNormals(generator(rng)))
        # numpy warns on the way to the non-finite points; the checks are under test
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ValueError) as one_row:
                random_point(manifold, RngStream(1))
            with pytest.raises(ValueError) as chunk:
                verify._draw_chunk(manifold, 0.7, 3, RngStream(1))
        assert str(chunk.value) == str(one_row.value)
        expected = "sphere point must have unit norm, got 0.0" if normal == 1e300 else "vector entries must all be finite"
        assert str(chunk.value) == expected

    def test_hessian_sweep_memory_does_not_grow_with_samples(self):
        a, _, _, _ = synthetic_matrix(8, RngStream(11, 2**48))
        problem = PcaProblem(a)
        peaks = []
        for n_samples in (200, 2000):
            tracemalloc.start()
            try:
                empirical_hess_lipschitz(problem, 5.0, n_samples, RngStream(41, 0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


class TestTraceAudit:
    def test_pca_run_is_clean(self, pca3):
        # from the saddle e2 the true gap is f(e2) - f(e1) = 1
        params = pca_params(pca3, chi=4.0, gap=1.0)
        x0 = pca3.manifold.point([0.0, 1.0, 0.0])
        trace = prgd(pca3, x0, params, RngStream(21, 0), terminate_on_no_decrease=True)
        report = audit_trace(trace, params)
        assert report.ok, report.first_violation
        assert report.n_phases >= 1 and report.n_manifold_steps >= 1

    def test_quadratic_run_is_clean(self, simple_saddle):
        params = derive_params(epsilon=0.3, delta=0.1, dim=2, ell=1.0, lip_grad=1.0,
                               lip_hess=1.0, ball=math.inf, gap=2.0, mode="practical", chi=4.0)
        x0 = simple_saddle.manifold.point([0.01, 0.01])
        trace = prgd(simple_saddle, x0, params, RngStream(22, 0))
        report = audit_trace(trace, params)
        assert report.ok, report.first_violation

    def test_fake_increasing_manifold_step_is_flagged(self, simple_saddle):
        params = derive_params(epsilon=0.3, delta=0.1, dim=2, ell=1.0, lip_grad=1.0,
                               lip_hess=1.0, ball=math.inf, gap=2.0, mode="practical", chi=4.0)
        trace = RunTrace(f0=0.5)
        trace.events.append(TraceEvent(t=0, kind=MANIFOLD_STEP, f=1.0, grad_norm=0.5,
                                       tangent_norm=0.5, alpha=1.0, f_before=0.5))
        report = audit_trace(trace, params)
        assert not report.ok
        assert "t=0" in report.first_violation

    def test_fake_localization_breach_is_flagged(self, simple_saddle):
        params = derive_params(epsilon=0.3, delta=0.1, dim=2, ell=1.0, lip_grad=1.0,
                               lip_hess=1.0, ball=math.inf, gap=2.0, mode="practical", chi=4.0)
        trace = RunTrace(f0=1.0)
        trace.events.append(TraceEvent(t=0, kind=PERTURBATION, f=1.0, grad_norm=0.0, tangent_norm=0.0))
        trace.events.append(TraceEvent(t=0, kind=TANGENT_STEP, f=1.0, grad_norm=0.0,
                                       tangent_norm=1.0, alpha=1.0, dist_start=1.0, step=1))
        report = audit_trace(trace, params)
        assert any("localization" in v for v in report.violations)


class TestCouplingExperiment:
    def canonical(self):
        problem = QuadraticSaddle(np.diag([-0.2, 1.0]))
        params = derive_params(epsilon=0.01, delta=0.1, dim=2, ell=1.0, lip_grad=1.0,
                               lip_hess=1.0, ball=math.inf, gap=1.0, mode="practical", chi=20.0)
        x = problem.manifold.point([0.0, 0.0])
        return problem, x, params

    def test_escape_decrease_at_both_radii(self):
        problem, x, params = self.canonical()
        omega = 2.0 ** (2.0 - params.chi) * params.ell * params.locality
        assert omega < 2.0 * params.radius
        for r0 in (1.5 * omega, 2.0 * params.radius):
            d1, d2 = coupling_experiment(problem, x, params, r0)
            assert min(d1, d2) <= -params.score_drop

    def test_symmetric_starts_give_equal_drops(self):
        problem, x, params = self.canonical()
        d1, d2 = coupling_experiment(problem, x, params, 2.0 * params.radius)
        assert d1 == d2  # the quadratic is even, so the coupled runs mirror exactly

    def test_flipped_eigenvector_swaps_the_drops(self, pca3, monkeypatch):
        # the certificate fixes the sign of its eigenvector; the other sign only swaps the two starts
        params = pca_params(pca3, chi=24.0)
        x = pca3.manifold.point([0.0, 1.0, 0.0])
        drops = coupling_experiment(pca3, x, params, 2.0 * params.radius)
        kernel = verify._min_eigpair

        def flipped(m):
            lam, vec = kernel(m)
            return lam, -vec

        monkeypatch.setattr(verify, "_min_eigpair", flipped)
        assert coupling_experiment(pca3, x, params, 2.0 * params.radius) == drops[::-1]

    def test_pca_saddle_coupling(self, pca3):
        params = pca_params(pca3, chi=24.0)
        x = pca3.manifold.point([0.0, 1.0, 0.0])
        omega = 2.0 ** (2.0 - params.chi) * params.ell * params.locality
        assert omega < 2.0 * params.radius
        d1, d2 = coupling_experiment(pca3, x, params, 2.0 * params.radius)
        assert min(d1, d2) <= -params.score_drop

    def test_hypothesis_violations_are_named(self):
        problem, x, params = self.canonical()
        omega = 2.0 ** (2.0 - params.chi) * params.ell * params.locality
        with pytest.raises(ValueError, match="omega"):
            coupling_experiment(problem, x, params, 0.5 * omega)
        convex = EuclideanQuadratic(np.eye(2))
        with pytest.raises(ValueError, match="lambda_min"):
            coupling_experiment(convex, convex.manifold.point([0.0, 0.0]), params, 2.0 * params.radius)
        with pytest.raises(ValueError, match="localization budget"):
            coupling_experiment(problem, x, params, params.locality * 4.0 / params.eta)
