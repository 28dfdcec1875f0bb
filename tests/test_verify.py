import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from prgd.descent import (
    BOUNDARY_TRUNCATION,
    MANIFOLD_STEP,
    PERTURBATION,
    TANGENT_STEP,
    RunTrace,
    TraceEvent,
    derive_params,
    prgd,
)
from prgd import NumericalError, manifolds, numerics, verify
from prgd.manifolds import Euclidean, Sphere
from prgd.numerics import RngStream, _min_eigenvalue, min_eigpair, sample_unit_ball
from prgd.problems import CostFunction, PcaProblem, QuadraticSaddle, synthetic_matrix
from prgd.pullback import Pullback
from prgd.verify import (
    MIN_SAMPLE_NORM,
    SWEEP_CHUNK,
    _bottom_eigpair,
    check_second_order_point,
    check_second_order_points,
    audit_trace,
    coupling_experiment,
    empirical_grad_lipschitz,
    empirical_hess_lipschitz,
    random_point,
    riemannian_hessian_matrix,
)
from conftest import EuclideanQuadratic, SqrtGradient
from fd_oracles import dense_basis_hessian
from sweep_oracles import grad_lipschitz_loop, hess_lipschitz_loop, sample_pair


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
        # the escape direction is the pullback Hessian's bottom eigenvector
        assert abs(_bottom_eigpair(Pullback(diag_pca, x))[1].coords[0]) == pytest.approx(1.0, abs=1e-6)

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

    def test_certificate_builds_no_basis_and_one_gradient_batch(self, monkeypatch):
        calls = {"basis": 0, "frame": 0, "batch": 0}
        basis, frame = Sphere.tangent_basis, Sphere._tangent_frame_array
        batch = PcaProblem.riemannian_gradient_many

        def counted(name, method):
            def wrapper(*args):
                calls[name] += 1
                return method(*args)
            return wrapper

        monkeypatch.setattr(Sphere, "tangent_basis", counted("basis", basis))
        monkeypatch.setattr(Sphere, "_tangent_frame_array", counted("frame", frame))
        monkeypatch.setattr(PcaProblem, "riemannian_gradient_many", counted("batch", batch))
        a, _, q, _ = synthetic_matrix(6, RngStream(31, 1))
        p = PcaProblem(a)
        check_second_order_point(p, p.manifold.point(q[:, 1]), eps=1e-3, rho=18.0)
        # each finite-difference Hessian is one batch of exact gradients and one Householder frame, which
        # builds the rows and takes the differences to tangent coordinates; no basis is built
        assert calls == {"basis": 0, "frame": 1, "batch": 1}
        # a block of points is one batch and one stack of frames
        check_second_order_points(p, [p.manifold.point(q[:, i]) for i in range(6)], eps=1e-3, rho=18.0)
        assert calls == {"basis": 0, "frame": 2, "batch": 2}

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
            vec = _bottom_eigpair(Pullback(p, x))[1].coords
            # the rule holds in the tangent basis, where the eigensolver sees the Hessian
            coords = p.manifold.tangent_basis(x).T @ vec
            top = int(np.argmax(np.abs(coords)))
            assert coords[top] > 0
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_certificate_computes_no_eigenvector(self, monkeypatch):
        steps = []
        eigh = np.linalg.eigh

        def counted(*args):
            steps.append(1)
            return eigh(*args)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        a, _, q, _ = synthetic_matrix(12, RngStream(31, 2))
        p = PcaProblem(a)
        x = p.manifold.point(q[:, 1])
        report = check_second_order_point(p, x, eps=1e-3, rho=9.0 * p.norm)
        assert steps == []
        # the report holds the numbers it reports, and no matrix
        assert not any(isinstance(value, np.ndarray) for value in vars(report).values())
        assert list(report.as_dict()) == ["grad_norm", "min_eig_pullback", "eps", "rho", "verdict"]
        pull = Pullback(p, x)
        hess = pull.hessian_at_zero()
        lam, inner = min_eigpair(hess)
        # the counter sees the eigenvector step once it runs
        assert len(steps) == 1
        assert report.min_eig_pullback == lam
        bottom_lam, vec = _bottom_eigpair(Pullback(p, x))
        assert bottom_lam == lam
        # the vector goes through the tangent frame, and agrees with the dense basis to round-off
        frame = p.manifold._tangent_frame_array(x.coords)
        expected = p.manifold._project_array(x.coords, p.manifold._basis_apply_array(frame, inner))
        assert vec.coords.tobytes() == expected.tobytes()
        assert np.abs(vec.coords - p.manifold.tangent_basis(x) @ inner).max() <= 4 * np.finfo(float).eps
        # the residual contract, in the tangent basis where the eigensolver sees the Hessian
        assert np.linalg.norm(hess @ inner - lam * inner) <= 1e-9 * np.abs(np.linalg.eigvalsh(hess)).max()

    def test_certificate_eigenvalue_is_the_eigenpair_eigenvalue(self):
        # eigvalsh gives -0.0 for a negated zero matrix; both routes report 0.0, as the eigenpair always did
        for m in (-np.zeros((2, 2)), np.zeros((3, 3)), np.diag([-2.0, 1.0, 3.0])):
            assert repr(_min_eigenvalue(m)) == repr(min_eigpair(m)[0])
        assert repr(_min_eigenvalue(-np.zeros((2, 2)))) == "0.0"

    def test_riemannian_hessian_matches_analytic(self, diag_pca):
        x = diag_pca.manifold.point([0.0, 1.0])
        hess = riemannian_hessian_matrix(diag_pca, x)
        assert hess[0, 0] == pytest.approx(-2.0, abs=1e-6)


def report_bits(report):
    """The report's fields as reprs, which tell every float bit (and -0.0 from 0.0) apart."""
    return [repr(value) for value in report.as_dict().values()]


def one_point_route(problem, x, eps, rho):
    """A certificate taken one point at a time through the validated gradient and `Pullback`."""
    grad_norm = float(np.linalg.norm(problem.riemannian_gradient(x).coords))
    lam = _min_eigenvalue(Pullback(problem, x).hessian_at_zero())
    return [repr(grad_norm), repr(lam), repr(eps), repr(rho), repr(grad_norm <= eps and lam >= -math.sqrt(rho * eps))]


def pca50_points():
    """The top eigenvector, four saddles and five random points of a d=50 PCA problem, and its rho."""
    a, _, q, _ = synthetic_matrix(50, RngStream(1, 2**48))
    p = PcaProblem(a)
    points = [p.manifold.point(q[:, i]) for i in (0, 1, 2, 7, 49)]
    rng = RngStream(33, 5)
    for _ in range(5):
        x, rng = random_point(p.manifold, rng)
        points.append(x)
    return p, points, 9.0 * p.norm


class TestStackedCertificate:
    """`check_second_order_points` certifies a block of points with the bits of one-point calls."""

    def check(self, problem, points, eps, rho):
        reports = check_second_order_points(problem, points, eps, rho)
        assert len(reports) == len(points)
        for x, report in zip(points, reports):
            assert report_bits(report) == report_bits(check_second_order_point(problem, x, eps, rho))
            assert report_bits(report) == one_point_route(problem, x, eps, rho)
        return reports

    def test_pca_d50_points_match_one_point_calls(self):
        p, points, rho = pca50_points()
        reports = self.check(p, points, 1e-3, rho)
        # only the top eigenvector passes
        assert [r.verdict for r in reports] == [True] + [False] * 9

    def test_quadratic_saddle_points_match_one_point_calls(self):
        problem = QuadraticSaddle(np.diag([-1.0, 0.5, 2.0, 3.0, 0.25, 1.5]))
        points = [problem.manifold.point(np.zeros(6))]
        rng = RngStream(34, 1)
        for _ in range(4):
            x, rng = random_point(problem.manifold, rng)
            points.append(x)
        self.check(problem, points, 1e-3, 1.0)

    def count_blocks(self, monkeypatch):
        """The number of points of each stack of Householder frames a certificate makes, one stack a block."""
        blocks = []
        frame = Sphere._tangent_frame_array

        def counted(self, x):
            blocks.append(len(x))
            return frame(self, x)

        monkeypatch.setattr(Sphere, "_tangent_frame_array", counted)
        return blocks

    def test_small_float_cap_splits_the_points_into_blocks(self, monkeypatch):
        p, points, rho = pca50_points()
        whole = check_second_order_points(p, points, 1e-3, rho)
        blocks = self.count_blocks(monkeypatch)
        # room for three points' gradient rows a block
        monkeypatch.setattr(verify, "SWEEP_BLOCK_FLOATS", 3 * (2 * 49 * 50))
        reports = check_second_order_points(p, points, 1e-3, rho)
        assert blocks == [3, 3, 3, 1]
        assert [report_bits(r) for r in reports] == [report_bits(r) for r in whole]

    def test_default_cap_keeps_d50_points_in_one_block(self, monkeypatch):
        blocks = self.count_blocks(monkeypatch)
        p, points, rho = pca50_points()
        check_second_order_points(p, points, 1e-3, rho)
        assert blocks == [10]
        # one n=2000 point's 2k*n floats exceed the cap, so it is a block of its own
        assert 2 * 1999 * 2000 > verify.SWEEP_BLOCK_FLOATS

    def test_invalid_point_raises_the_one_point_error(self):
        p, points, rho = pca50_points()
        stranger = Sphere(3).point([1.0, 0.0, 0.0])
        with pytest.raises(ValueError) as one:
            check_second_order_point(p, stranger, 1e-3, rho)
        with pytest.raises(ValueError) as block:
            check_second_order_points(p, points[:4] + [stranger] + points[4:], 1e-3, rho)
        assert str(block.value) == str(one.value) and "sphere(3)" in str(one.value)
        # an infinite eps or rho would pass every point, the saddles included
        for eps, rho_bad, message in ((0.0, rho, "eps must be positive and finite, got 0.0"),
                                      (1e-3, -1.0, "rho must be positive and finite, got -1.0"),
                                      (math.inf, rho, "eps must be positive and finite, got inf"),
                                      (1e-3, math.inf, "rho must be positive and finite, got inf"),
                                      (math.nan, rho, "eps must be positive and finite, got nan")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check_second_order_points(p, points, eps, rho_bad)

    def test_no_points_give_no_reports(self):
        p, _, rho = pca50_points()
        assert check_second_order_points(p, [], 1e-3, rho) == []


def certify_n150_points():
    """The certify-pca-n150 benchmark's points at seed 1: the top eigenvector and two saddles, and its rho."""
    a, lams, q, _ = synthetic_matrix(150, RngStream(1, 2**48))
    p = PcaProblem(a)
    return p, [p.manifold.point(q[:, i]) for i in (0, 1, random.Random(1).randrange(2, 150))], 9.0 * float(lams[0])


def quadratic_saddle_points():
    """The origin and four random points of a 6-dim quadratic saddle, and its rho."""
    problem = QuadraticSaddle(np.diag([-1.0, 0.5, 2.0, 3.0, 0.25, 1.5]))
    points = [problem.manifold.point(np.zeros(6))]
    rng = RngStream(34, 1)
    for _ in range(4):
        x, rng = random_point(problem.manifold, rng)
        points.append(x)
    return problem, points, 1.0


class TestDenseBasisOracle:
    """Certificates through the implicit basis products agree with the dense-basis FD Hessian."""

    @pytest.mark.parametrize("case", [pca50_points, certify_n150_points, quadratic_saddle_points],
                             ids=["pca50", "certify_n150", "quadratic_saddle"])
    def test_eigenvalues_and_verdicts_match(self, case):
        problem, points, rho = case()
        eps = 1e-3
        for x, report in zip(points, check_second_order_points(problem, points, eps, rho)):
            lam = float(np.linalg.eigvalsh(dense_basis_hessian(problem, x.coords))[0])
            assert abs(report.min_eig_pullback - lam) <= 1e-12 * max(1.0, abs(lam))
            assert report.verdict == (report.grad_norm <= eps and lam >= -math.sqrt(rho * eps))


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


REDRAW_SAMPLES = 3 * SWEEP_CHUNK + 10
LAST_INDEX = 2**64 - 1


def record_rekeys(monkeypatch):
    """Patch `_rekey` in every module that binds it: the sweeps re-key through `verify`'s binding, the
    streams' draws through `numerics`'. Returns the list of (seed, stream, index) re-keys it records."""
    rekeys = []
    rekey = numerics._rekey

    def counted(seed, stream, index):
        rekeys.append((seed, stream, index))
        return rekey(seed, stream, index)

    for module in (numerics, verify):
        monkeypatch.setattr(module, "_rekey", counted)
    return rekeys


class TestBlockSweeps:
    """The stacked sweeps return the per-sample loops' ratios bit for bit, in bounded memory."""

    @pytest.mark.parametrize("name", ["pca", "quadratic_saddle", "generic"])
    # counts inside one block, around the cap, over several blocks, and over several blocks with redraws
    @pytest.mark.parametrize("n_samples", [1, 7, 8, 9, SWEEP_CHUNK - 1, SWEEP_CHUNK, SWEEP_CHUNK + 1, 200,
                                           REDRAW_SAMPLES])
    def test_ratios_match_the_per_sample_loop(self, name, n_samples, monkeypatch):
        problem = sweep_problem(name)
        redraw = n_samples == REDRAW_SAMPLES
        # ball 5 never needs a redraw; the small ball redraws about 3 samples in 200
        ball = MIN_SAMPLE_NORM / 0.015 ** (1 / problem.manifold.intrinsic_dim) if redraw else 5.0

        def rekeys_of(run, seed):
            rekeys = record_rekeys(monkeypatch)
            ratio = run(problem, ball, n_samples, RngStream(seed, 0))
            monkeypatch.undo()
            return ratio, [index for _, _, index in rekeys]

        # criterion 3's streams
        for sweep, loop, seed in ((empirical_grad_lipschitz, grad_lipschitz_loop, 40),
                                  (empirical_hess_lipschitz, hess_lipschitz_loop, 41)):
            ratio, rekeys = rekeys_of(sweep, seed)
            loop_ratio, loop_rekeys = rekeys_of(loop, seed)
            assert ratio == loop_ratio
            # every sample is drawn, a point and a ball draw at the next two stream indices, then
            # its redraws: the loop's draws exactly, so equal maxima cannot hide a dropped draw
            assert rekeys == loop_rekeys == list(range(len(rekeys)))
            assert (len(rekeys) > 2 * n_samples) == redraw
        if redraw:
            # several blocks, one ended by the cap and one ended early by a maybe-short row before the last
            blocks = []
            draw_chunk = verify._draw_chunk
            monkeypatch.setattr(verify, "_draw_chunk", lambda *args: blocks.append(draw_chunk(*args)) or blocks[-1])
            empirical_hess_lipschitz(problem, ball, n_samples, RngStream(41, 0))
            sizes = [len(block[0]) for block in blocks]
            assert len(sizes) >= 3 and max(sizes) == SWEEP_CHUNK and min(sizes[:-1]) < SWEEP_CHUNK

    @pytest.mark.parametrize("name", ["pca", "quadratic_saddle"])
    def test_sweeps_from_a_keyed_stream_at_an_offset(self, name, monkeypatch):
        # the other sweep-vs-loop tests start at stream 0 and index 0, where a sweep that dropped the
        # stream's number or index would still draw the loop's samples
        problem = sweep_problem(name)
        ball = MIN_SAMPLE_NORM / 0.015 ** (1 / problem.manifold.intrinsic_dim)
        start = RngStream(40, 7, 12_345)
        n_samples = 200
        after = start
        for _ in range(n_samples):
            _, _, after = sample_pair(problem, ball, after)
        for sweep, loop in ((empirical_grad_lipschitz, grad_lipschitz_loop),
                            (empirical_hess_lipschitz, hess_lipschitz_loop)):
            chunks = []
            draw_chunk = verify._draw_chunk
            monkeypatch.setattr(verify, "_draw_chunk", lambda *args: chunks.append(draw_chunk(*args)) or chunks[-1])
            rekeys = record_rekeys(monkeypatch)
            ratio = sweep(problem, ball, n_samples, start)
            monkeypatch.undo()
            loop_rekeys = record_rekeys(monkeypatch)
            loop_ratio = loop(problem, ball, n_samples, start)
            monkeypatch.undo()
            assert ratio.hex() == loop_ratio.hex()
            # the chunks' redraws included, the same (seed, stream, index) re-keys, and the last chunk
            # hands back the stream the loop ends at
            assert len(rekeys) > 2 * n_samples
            assert rekeys == loop_rekeys == [(40, 7, 12_345 + i) for i in range(len(rekeys))]
            assert len(chunks) >= 4 and chunks[-1][3] == after == RngStream(40, 7, 12_345 + len(rekeys))

    @pytest.mark.parametrize("n_samples, first, raises", [
        (1, LAST_INDEX, True),  # the point's draw is the last index, the ball's would be past it
        (1, LAST_INDEX - 1, True),  # the ball's draw is the last index, the advance past it raises
        (SWEEP_CHUNK + 6, LAST_INDEX + 1 - 2 * (SWEEP_CHUNK + 6), True),  # the same, in a second chunk
        (SWEEP_CHUNK + 6, LAST_INDEX - 2 * (SWEEP_CHUNK + 6), False),  # ends one index before the last
    ])
    def test_sweeps_stop_at_the_last_stream_index_as_the_loop_does(self, n_samples, first, raises):
        problem = sweep_problem("pca")
        for sweep, loop in ((empirical_grad_lipschitz, grad_lipschitz_loop),
                            (empirical_hess_lipschitz, hess_lipschitz_loop)):
            if not raises:
                assert sweep(problem, 5.0, n_samples, RngStream(40, 7, first)) == loop(
                    problem, 5.0, n_samples, RngStream(40, 7, first))
                continue
            for run in (sweep, loop):
                with pytest.raises(ValueError, match=r"^index must lie in \[0, 2\^64\), got 18446744073709551616$"):
                    run(problem, 5.0, n_samples, RngStream(40, 7, first))

    def test_block_sweeps_make_the_loops_draws(self, monkeypatch):
        # at d = 2 (k = 1) a ball of 2e-8 makes about half the draws short, so redraws are frequent
        a, _, _, _ = synthetic_matrix(2, RngStream(11, 2**48))
        problem = PcaProblem(a)
        draws = []
        unit_ball_rows = verify._unit_ball_rows

        def one_row(dim, rng):
            draws.append(1)
            return sample_unit_ball(dim, rng)

        def rows(direction, u):
            draws.append(len(direction))
            return unit_ball_rows(direction, u)

        for sweep, loop, seed, loop_draws in ((empirical_grad_lipschitz, grad_lipschitz_loop, 40, 117),
                                              (empirical_hess_lipschitz, hess_lipschitz_loop, 41, 102)):
            monkeypatch.setattr(verify, "sample_unit_ball", one_row)
            monkeypatch.setattr(verify, "_unit_ball_rows", rows)
            ratio = sweep(problem, 2e-8, 50, RngStream(seed, 0))
            monkeypatch.undo()
            assert sum(draws) == loop_draws
            draws.clear()
            monkeypatch.setattr(manifolds, "sample_unit_ball", one_row)
            assert ratio == loop(problem, 2e-8, 50, RngStream(seed, 0))
            monkeypatch.undo()
            assert sum(draws) == loop_draws
            draws.clear()

    def test_row_flagged_as_maybe_short_can_turn_out_long(self):
        # a ball that puts the first sample's tangent norm 1e-7 above MIN_SAMPLE_NORM, inside the margin
        manifold = Sphere(2)
        rng = RngStream(40, 0)
        gen = rng._next()._generator()
        gen.standard_normal(1)
        u = gen.random()
        ball = MIN_SAMPLE_NORM * (1.0 + 1e-7) / u
        assert MIN_SAMPLE_NORM < ball * u < verify.MAYBE_SHORT
        x, _, s, after = verify._draw_chunk(manifold, ball, SWEEP_CHUNK, rng)
        # the flagged row ends the chunk and keeps its first draw
        assert len(x) == 1 and after == RngStream(40, 0, 2)
        point, at_ball = random_point(manifold, rng)
        tangent, _ = manifold.sample_ball(point, ball, at_ball)
        assert tangent.norm >= MIN_SAMPLE_NORM
        assert s[0].tobytes() == tangent.coords.tobytes()
        a, _, _, _ = synthetic_matrix(2, RngStream(11, 2**48))
        problem = PcaProblem(a)
        assert empirical_grad_lipschitz(problem, ball, 20, rng) == grad_lipschitz_loop(problem, ball, 20, rng)

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
    @pytest.mark.parametrize("n_samples", [0, math.nan])
    def test_a_sweep_without_samples_is_rejected(self, diag_pca, sweep, n_samples):
        # a NaN count would draw nothing and report a maximum ratio of 0
        with pytest.raises(ValueError, match=f"^n_samples must be an integer >= 1, got {n_samples!r}$"):
            sweep(diag_pca, 1.0, n_samples, RngStream(1))

    @pytest.mark.parametrize("sweep", [empirical_grad_lipschitz, empirical_hess_lipschitz])
    def test_non_finite_gradient_raises(self, sweep):
        with pytest.raises(NumericalError):
            sweep(SqrtGradient(), 1.0, 20, RngStream(2))

    @staticmethod
    def counted_solves(monkeypatch):
        """The number of matrices the Hessian sweep hands to the eigensolver, counted as they go."""
        solved = []
        eigenvalues = verify._eigenvalues
        monkeypatch.setattr(verify, "_eigenvalues", lambda m: solved.append(m.size // m.shape[-1] ** 2) or eigenvalues(m))
        return solved

    def test_hessian_sweep_solves_only_samples_that_can_raise_the_max(self, monkeypatch):
        # the lipschitz-pca-d20 benchmark's sweep at seed 1: 200 samples, four blocks
        problem = sweep_problem("pca")
        solved = self.counted_solves(monkeypatch)
        ratio = empirical_hess_lipschitz(problem, 5.0, 200, RngStream(41, 0))
        assert 1 <= sum(solved) <= 16
        assert ratio == hess_lipschitz_loop(problem, 5.0, 200, RngStream(41, 0))

    def test_solving_every_sample_gives_the_same_bits(self, monkeypatch):
        # criterion 3's 10^4-sample sweep, pruned and with an infinite bound that solves every sample
        problem = sweep_problem("pca")
        pruned = empirical_hess_lipschitz(problem, 5.0, 10_000, RngStream(41, 0))
        solved = self.counted_solves(monkeypatch)
        monkeypatch.setattr(verify, "_operator_norm_bounds", lambda m: np.full(len(m), math.inf))
        assert empirical_hess_lipschitz(problem, 5.0, 10_000, RngStream(41, 0)) == pruned
        assert sum(solved) == 10_000

    @pytest.mark.parametrize("entry", [math.inf, math.nan, 2.0**1023])
    def test_bad_hessian_difference_raises_what_operator_norm_raises(self, entry, monkeypatch):
        # one sample's difference gets a non-finite entry, or one that a symmetrizing sum would overflow;
        # operator_norm raises on both, and a solve without the check would not
        fd_hessian = verify.fd_hessian_from_gradients

        def bad_at_s(gradients, manifold, x, frame, center):
            hess = fd_hessian(gradients, manifold, x, frame, center)
            if not isinstance(center, float):  # the Hessians at s; the one at the origin is centred at 0.0
                hess[-1, 0, 0] = entry
            return hess

        monkeypatch.setattr(verify, "fd_hessian_from_gradients", bad_at_s)
        with pytest.raises(ValueError) as err:
            empirical_hess_lipschitz(sweep_problem("pca"), 5.0, 200, RngStream(41, 0))
        assert str(err.value) == ("matrix entries must all be finite" if not math.isfinite(entry)
                                  else "matrix entries must all be below 2^1023 in magnitude")

    def test_size_limit_raises_when_every_sample_is_pruned(self, monkeypatch):
        # zero differences have zero bounds, so no sample can raise the max and none is solved
        problem = sweep_problem("pca")
        monkeypatch.setattr(verify, "fd_hessian_from_gradients", lambda gradients, manifold, x, frame, center:
                            np.zeros(x.shape[:-1] + (manifold.intrinsic_dim,) * 2))
        solved = self.counted_solves(monkeypatch)
        assert empirical_hess_lipschitz(problem, 5.0, 100, RngStream(41, 0)) == 0.0
        assert solved == []
        monkeypatch.setattr(numerics, "EIG_DIM_LIMIT", 18)
        with pytest.raises(ValueError, match="^matrix dimension 19 exceeds the supported limit 18$"):
            empirical_hess_lipschitz(problem, 5.0, 100, RngStream(41, 0))

    @pytest.mark.parametrize("manifold", [Sphere(2), Sphere(20), Sphere(300), Euclidean(5)], ids=str)
    def test_chunk_rows_are_the_one_row_draws(self, manifold, monkeypatch):
        # a full chunk, also at n = 300: the draws go through the O(n) tangent frames, and no basis is built
        units = []
        unit_ball_rows = verify._unit_ball_rows
        monkeypatch.setattr(verify, "_unit_ball_rows", lambda *args: units.append(unit_ball_rows(*args)) or units[-1])
        rng = RngStream(5, manifold.ambient_dim, 11)
        x, frame, s, after = verify._draw_chunk(manifold, 0.7, SWEEP_CHUNK, rng)
        assert len(x) == SWEEP_CHUNK and after == RngStream(5, manifold.ambient_dim, 11 + 2 * SWEEP_CHUNK)
        for i in range(SWEEP_CHUNK):
            point, at_ball = random_point(manifold, RngStream(5, manifold.ambient_dim, 11 + 2 * i))
            unit, _ = sample_unit_ball(manifold.intrinsic_dim, at_ball)
            tangent, _ = manifold.sample_ball(point, 0.7, at_ball)
            assert x[i].tobytes() == point.coords.tobytes()
            assert units[0][i].tobytes() == unit.tobytes()
            assert s[i].tobytes() == tangent.coords.tobytes()
            # the block's frame, row for row, is the point's own (R^d has none)
            if frame is not None:
                assert all(a[i].tobytes() == b.tobytes() for a, b in zip(frame, manifold._tangent_frame_array(x[i])))

    def test_full_chunk_at_n300_stays_small(self):
        # a 64-row chunk at n = 300 holds a few (64, 300) blocks of floats: the draws, points, frames and
        # tangents; the (64, 300, 299) basis stack it built before took 44 MiB, 299 such blocks
        tracemalloc.start()
        try:
            verify._draw_chunk(Sphere(300), 0.7, SWEEP_CHUNK, RngStream(5, 300, 11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * SWEEP_CHUNK * 300 * 8

    def test_one_frame_per_hessian_block(self, monkeypatch):
        # each block's one stack of frames serves its ball draws and both of its FD Hessians
        frames = []
        frame = Sphere._tangent_frame_array
        monkeypatch.setattr(Sphere, "_tangent_frame_array", lambda self, x: frames.append(len(x)) or frame(self, x))
        empirical_hess_lipschitz(sweep_problem("pca"), 5.0, 200, RngStream(41, 0))
        assert frames == [SWEEP_CHUNK] * 3 + [200 - 3 * SWEEP_CHUNK]

    @pytest.mark.parametrize("manifold, normal", [(Sphere(20), math.inf), (Sphere(20), math.nan), (Sphere(20), 1e300),
                                                  (Euclidean(5), math.inf), (Euclidean(5), math.nan)], ids=str)
    def test_chunk_points_get_the_point_checks(self, manifold, normal, monkeypatch):
        # the chunk raises what `random_point` (through `manifold.point`) raises on the same normals;
        # on the sphere 1e300 normals have an infinite norm and normalize to the zero vector
        rekey = numerics._rekey

        class BadNormals:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, size=None, out=None):
                out = np.empty(size) if out is None else out
                out[...] = normal
                return out

            def random(self):
                return self.gen.random()

        for module in (numerics, verify):
            monkeypatch.setattr(module, "_rekey", lambda *key: BadNormals(rekey(*key)))
        # numpy warns on the way to the non-finite points; the checks are under test
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ValueError) as one_row:
                random_point(manifold, RngStream(1))
            with pytest.raises(ValueError) as chunk:
                verify._draw_chunk(manifold, 0.7, 3, RngStream(1))
        assert str(chunk.value) == str(one_row.value)
        expected = "sphere point must have unit norm, got 0.0" if normal == 1e300 else "vector entries must all be finite"
        assert str(chunk.value) == expected

    def test_hessian_sweep_memory_does_not_grow_with_samples(self, monkeypatch):
        a, _, _, _ = synthetic_matrix(8, RngStream(11, 2**48))
        problem = PcaProblem(a)
        blocks = []
        draw_chunk = verify._draw_chunk
        monkeypatch.setattr(verify, "_draw_chunk", lambda *args: blocks.append(args) or draw_chunk(*args))
        empirical_hess_lipschitz(problem, 5.0, 200, RngStream(41, 0))
        monkeypatch.undo()
        # the smaller sweep already spans several blocks, so a per-block buffer would show in both peaks
        assert len(blocks) >= 2
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
        trace = RunTrace()
        trace.events.append(TraceEvent(t=0, kind=MANIFOLD_STEP, f=1.0, grad_norm=0.5,
                                       tangent_norm=0.5, alpha=1.0, f_before=0.5))
        report = audit_trace(trace, params)
        assert not report.ok
        assert "t=0" in report.first_violation

    def test_fake_localization_breach_is_flagged(self, simple_saddle):
        params = derive_params(epsilon=0.3, delta=0.1, dim=2, ell=1.0, lip_grad=1.0,
                               lip_hess=1.0, ball=math.inf, gap=2.0, mode="practical", chi=4.0)
        trace = RunTrace()
        trace.events.append(TraceEvent(t=0, kind=PERTURBATION, f=1.0, grad_norm=0.0, tangent_norm=0.0))
        trace.events.append(TraceEvent(t=0, kind=TANGENT_STEP, f=1.0, grad_norm=0.0,
                                       tangent_norm=1.0, alpha=1.0, dist_start=1.0, step=1))
        report = audit_trace(trace, params)
        assert any("localization" in v for v in report.violations)

    @pytest.mark.parametrize("events, violation", [
        ([TraceEvent(t=3, kind=MANIFOLD_STEP, f=1.0, grad_norm=0.5, tangent_norm=0.5, alpha=1.0)],
         "t=3: manifold step lacks audit fields"),
        ([TraceEvent(t=2, kind=TANGENT_STEP, f=1.0, grad_norm=0.5, tangent_norm=0.1, alpha=1.0, dist_start=0.1,
                     step=1)],
         "t=2: tangent step outside a phase or lacking fields"),
        ([TraceEvent(t=1, kind=PERTURBATION, f=1.0, grad_norm=0.0, tangent_norm=0.1),
          TraceEvent(t=1, kind=BOUNDARY_TRUNCATION, f=0.9, tangent_norm=0.2, alpha=0.5, dist_start=0.1, step=1)],
         "t=1: tangent step outside a phase or lacking fields"),
    ], ids=["manifold-step-without-f-before", "tangent-step-without-perturbation", "tangent-step-without-grad-norm"])
    def test_malformed_event_is_flagged(self, events, violation):
        params = derive_params(epsilon=0.3, delta=0.1, dim=2, ell=1.0, lip_grad=1.0,
                               lip_hess=1.0, ball=math.inf, gap=2.0, mode="practical", chi=4.0)
        trace = RunTrace()
        trace.events.extend(events)
        report = audit_trace(trace, params)
        assert report.violations == [violation]
        assert report.n_manifold_steps + report.n_tangent_steps == 1


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

    def test_failed_hypothesis_fails_the_battery_check(self, pca3, monkeypatch):
        # at the dominant eigenvector the pullback Hessian is positive definite, so the experiment's
        # lambda_min hypothesis fails and the battery reports its text
        raised = []

        def recorded(*args):
            try:
                return coupling_experiment(*args)
            except ValueError as exc:
                raised.append(str(exc))
                raise

        monkeypatch.setattr(verify, "coupling_experiment", recorded)
        v_max = np.array([1.0, 0.0, 0.0])
        checks = verify.verification_checks(pca3, pca3.manifold.point(v_max), v_max, pca_params(pca3, chi=4.0),
                                            0, 50)
        assert len(raised) == 1
        assert raised[0].startswith("hypothesis failed: lambda_min of the pullback Hessian is ")
        assert checks[-1] == ("coupling_escape", False, raised[0])

    def test_flipped_eigenvector_swaps_the_drops(self, pca3, monkeypatch):
        # the certificate fixes the sign of its eigenvector; the other sign only swaps the two starts
        params = pca_params(pca3, chi=24.0)
        x = pca3.manifold.point([0.0, 1.0, 0.0])
        drops = coupling_experiment(pca3, x, params, 2.0 * params.radius)
        kernel = numerics._eigenvector_rows
        monkeypatch.setattr(numerics, "_eigenvector_rows", lambda m, which: -kernel(m, which))
        assert coupling_experiment(pca3, x, params, 2.0 * params.radius) == drops[::-1]

    def test_one_hessian_gives_the_eigenvalue_and_the_vector(self, pca3, monkeypatch):
        params = pca_params(pca3, chi=24.0)
        x = pca3.manifold.point([0.0, 1.0, 0.0])
        drops = coupling_experiment(pca3, x, params, 2.0 * params.radius)
        calls = []
        hessian = Pullback.hessian_at_zero
        monkeypatch.setattr(Pullback, "hessian_at_zero", lambda pull: calls.append(pull) or hessian(pull))
        assert coupling_experiment(pca3, x, params, 2.0 * params.radius) == drops
        assert len(calls) == 1

    @pytest.mark.parametrize("case, ball, end", [
        ("quadratic", math.inf, TANGENT_STEP),
        ("pca", math.inf, TANGENT_STEP),
        ("pca", 0.01, BOUNDARY_TRUNCATION),
    ])
    def test_drops_are_the_pullback_values_at_the_end_less_the_start(self, case, ball, end, pca3, monkeypatch):
        # a drop's end value is the phase's last step value, which equals the pullback at its final s bit for bit
        if case == "quadratic":
            problem, x, params = self.canonical()
        else:
            problem, x, params = pca3, pca3.manifold.point([0.0, 1.0, 0.0]), pca_params(pca3, chi=24.0, ball=ball)
        phases, steps = [], verify.tangent_space_steps

        def recording(pull, s0, *args):
            s_end, events = steps(pull, s0, *args)
            phases.append((pull, s0, s_end, events[-1].kind))
            return s_end, events

        monkeypatch.setattr(verify, "tangent_space_steps", recording)
        drops = coupling_experiment(problem, x, params, 2.0 * params.radius)
        assert [kind for *_, kind in phases] == [end, end]
        assert list(drops) == [pull.value(s_end) - pull.value(s0) for pull, s0, s_end, _ in phases]

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
        # a start eta * r0 / 2 beyond a finite ball, checked before the localization budget
        with pytest.raises(ValueError) as exc:
            coupling_experiment(problem, x, replace(params, ball=1.0), 4.0 / params.eta)
        assert str(exc.value) == "hypothesis failed: the starts do not fit in the tangent ball of radius b"
