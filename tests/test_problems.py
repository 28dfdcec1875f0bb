import math

import numpy as np
import pytest

from prgd import numerics
from prgd.manifolds import Euclidean
from prgd.numerics import EIG_DIM_LIMIT, RngStream, min_eigpair
from prgd.pullback import Pullback
from prgd.problems import (
    PROJECT_FLOATS,
    CostFunction,
    PcaProblem,
    QuadraticSaddle,
    load_matrix,
    save_matrix,
    start_vector,
    synthetic_matrix,
)
from conftest import EuclideanQuadratic
from fd_oracles import fd_gradient


class TestPcaValue:
    def test_dominant_eigenvector(self, diag_pca):
        x = diag_pca.manifold.point([1.0, 0.0])
        assert diag_pca.value(x) == -1.5

    def test_identity_matrix(self):
        p = PcaProblem(np.eye(3))
        x = p.manifold.point(np.array([1.0, 2.0, 2.0]) / 3.0)
        assert p.value(x) == pytest.approx(-0.5, abs=1e-15)

    def test_matches_quadratic_form(self):
        rng = RngStream(12)
        g, rng = rng.standard_normal((5, 5))
        a = 0.5 * (g + g.T)
        p = PcaProblem(a)
        raw, rng = rng.standard_normal(5)
        x = p.manifold.point(raw / np.linalg.norm(raw))
        assert p.value(x) == pytest.approx(-0.5 * float(x.coords @ a @ x.coords), rel=1e-14)

    def test_rejects_wrong_manifold(self, diag_pca):
        eu = Euclidean(2)
        with pytest.raises(ValueError):
            diag_pca.value(eu.point([1.0, 0.0]))

    def test_off_sphere_unrepresentable(self, diag_pca):
        with pytest.raises(ValueError):
            diag_pca.manifold.point([1.0, 1.0])


class TestPcaGradient:
    def test_zero_at_eigenvectors(self, diag_pca):
        for coords in ([1.0, 0.0], [0.0, 1.0]):
            x = diag_pca.manifold.point(coords)
            assert np.linalg.norm(diag_pca.riemannian_gradient(x).coords) == 0.0

    def test_hand_evaluated(self, diag_pca):
        x = diag_pca.manifold.point(np.array([1.0, 1.0]) / math.sqrt(2.0))
        grad = diag_pca.riemannian_gradient(x).coords
        expected = -np.array([1.0, -1.0]) / math.sqrt(2.0)
        assert np.allclose(grad, expected, atol=1e-15)

    def test_matches_fd_of_pullback_at_zero(self, pca3):
        sph = pca3.manifold
        rng = RngStream(4)
        raw, rng = rng.standard_normal(3)
        x = sph.point(raw / np.linalg.norm(raw))
        basis = sph.tangent_basis(x)

        def phi(u):
            y = x.coords + basis @ u
            return pca3.value(sph.point(y / np.linalg.norm(y)))

        fd = fd_gradient(phi, np.zeros(2))
        grad = basis.T @ pca3.riemannian_gradient(x).coords
        assert np.linalg.norm(fd - grad) <= 1e-6 * max(np.linalg.norm(grad), 1.0)

    def test_orthogonal_to_base(self):
        a, _, _, _ = synthetic_matrix(8, RngStream(5, 99))
        p = PcaProblem(a)
        rng = RngStream(6)
        for _ in range(100):
            raw, rng = rng.standard_normal(8)
            x = p.manifold.point(raw / np.linalg.norm(raw))
            g = p.riemannian_gradient(x)
            assert abs(float(x.coords @ g.coords)) <= 1e-12

    def test_critical_points_are_exactly_eigenvectors(self, pca3):
        for col in np.eye(3):
            x = pca3.manifold.point(col)
            assert np.linalg.norm(pca3.riemannian_gradient(x).coords) == 0.0
        rng = RngStream(8)
        for _ in range(100):
            raw, rng = rng.standard_normal(3)
            x = pca3.manifold.point(raw / np.linalg.norm(raw))
            if max(abs(x.coords)) > 1.0 - 1e-6:
                continue  # essentially an eigenvector of the diagonal matrix
            assert np.linalg.norm(pca3.riemannian_gradient(x).coords) > 0.0


class TestPcaConstants:
    def test_scaling(self):
        p = PcaProblem(np.diag([2.0, -2.0, 1.0]))
        consts = p.constants()
        assert consts.lip_grad == pytest.approx(5.0, rel=1e-12)
        assert consts.lip_hess == pytest.approx(18.0, rel=1e-12)

    def test_diag31(self, diag_pca):
        consts = diag_pca.constants()
        assert consts.lip_grad == pytest.approx(7.5, rel=1e-12)
        assert consts.lip_hess == pytest.approx(27.0, rel=1e-12)

    def test_zero_matrix_degenerate(self):
        p = PcaProblem(np.zeros((2, 2)))
        consts = p.constants()
        assert consts.lip_grad == 0.0 and consts.lip_hess == 0.0


class TestQuadraticSaddle:
    def test_value_and_gradient_at_origin(self, simple_saddle):
        x = simple_saddle.manifold.point([0.0, 0.0])
        assert simple_saddle.value(x) == 0.0
        assert np.array_equal(simple_saddle.riemannian_gradient(x).coords, [0.0, 0.0])

    def test_value_and_gradient_off_origin(self, simple_saddle):
        x = simple_saddle.manifold.point([1.0, 1.0])
        assert simple_saddle.value(x) == 0.0
        assert np.array_equal(simple_saddle.riemannian_gradient(x).coords, [-1.0, 1.0])

    def test_escape_direction_is_bottom_eigenvector(self, simple_saddle):
        lam, vec = min_eigpair(simple_saddle.matrix)
        assert lam == pytest.approx(-1.0, abs=1e-12)
        assert abs(vec[0]) == pytest.approx(1.0, abs=1e-12)

    def test_requires_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            QuadraticSaddle(np.eye(2))

    def test_oversized_matrix_raises_before_eigensolve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("ran an eigensolver")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
        with pytest.raises(ValueError, match="exceeds the supported limit"):
            QuadraticSaddle(np.zeros((EIG_DIM_LIMIT + 1, EIG_DIM_LIMIT + 1)))


class TestProblemOwnsItsMatrix:
    # a problem solves and evaluates one symmetrized copy of its input, so the caller's array is never read again
    @pytest.mark.parametrize("cls", [PcaProblem, QuadraticSaddle])
    def test_scaling_the_callers_array_changes_nothing(self, cls):
        a, _, q, _ = synthetic_matrix(6, RngStream(45, 1))
        matrix = a - 1.5 * np.eye(6)
        problem = cls(matrix)
        x = problem.manifold.point(q[:, 0])

        def answers():
            return (problem.value(x), problem.riemannian_gradient(x).coords.tobytes(), problem.norm,
                    getattr(problem, "f_star", None))

        before = answers()
        matrix *= 3.0
        assert problem.matrix is not matrix
        assert answers() == before

    def test_a_nearly_symmetric_matrix_gives_the_gradient_of_its_symmetric_part(self):
        # accepted, as SYM_RTOL is absolute below unit scale; f falls on both sides of e1 along the circle,
        # though A e1 is zero for the matrix as given
        m = np.array([[0.0, 1e-12], [0.0, 0.0]])
        problem = PcaProblem(m)
        sym = 0.5 * (m + m.T)
        e1 = np.array([1.0, 0.0])
        grad = problem.riemannian_gradient(problem.manifold.point(e1)).coords
        assert np.array_equal(grad, (e1 @ sym @ e1) * e1 - sym @ e1)
        assert np.array_equal(grad, [0.0, -5e-13])


class TestRiemannianGradientMany:
    # PcaProblem has one GEMM; QuadraticSaddle and EuclideanQuadratic go through their block oracle
    @pytest.mark.parametrize("cls", [PcaProblem, QuadraticSaddle, EuclideanQuadratic])
    def test_matches_row_by_row(self, cls):
        a, _, _, rng = synthetic_matrix(6, RngStream(41, 1))
        problem = cls(a - 1.5 * np.eye(6))
        coords, _ = rng.standard_normal((50, 6))
        if cls is PcaProblem:
            coords /= np.linalg.norm(coords, axis=1, keepdims=True)
        got = problem.riemannian_gradient_many(coords)
        assert got.shape == (50, 6)
        for row, point in zip(got, coords):
            ref = problem.riemannian_gradient(problem.manifold.point(point)).coords
            assert np.linalg.norm(row - ref) <= 1e-14 * np.linalg.norm(ref)


    def test_blocks_longer_than_a_projection_pass(self):
        # the projection runs in place, PROJECT_FLOATS floats at a time, with the bits of one pass
        a, _, _, rng = synthetic_matrix(6, RngStream(41, 2))
        problem = PcaProblem(a)
        coords, _ = rng.standard_normal((3, PROJECT_FLOATS // 6 + 5, 6))
        coords /= np.linalg.norm(coords, axis=-1, keepdims=True)
        before = coords.copy()
        got = problem.riemannian_gradient_many(coords)
        assert np.array_equal(coords, before)
        grads = -(coords @ a.T)
        assert np.array_equal(got, grads - np.einsum("...j,...j->...", grads, coords)[..., None] * coords)
        for block, rows in zip(got, coords):
            assert np.array_equal(block, problem.riemannian_gradient_many(rows))


class TestFusedValueAndGradient:
    # every cost implements the oracle; the validated value and gradient are one call of it
    @pytest.mark.parametrize("cls", [PcaProblem, QuadraticSaddle, EuclideanQuadratic])
    def test_matches_value_and_riemannian_gradient_bitwise(self, cls):
        a, _, _, rng = synthetic_matrix(6, RngStream(43, 1))
        problem = cls(a - 1.5 * np.eye(6))
        coords, _ = rng.standard_normal((50, 6))
        if cls is PcaProblem:
            coords /= np.linalg.norm(coords, axis=1, keepdims=True)
        for y in coords:
            point = problem.manifold.point(y)
            f, grad = problem._value_and_gradient_array(y)
            assert f == problem.value(point)
            assert np.array_equal(grad, problem.riemannian_gradient(point).coords)

    @pytest.mark.parametrize("cls", [PcaProblem, QuadraticSaddle])
    def test_generic_oracle_keeps_leading_stack_axes(self, cls):
        # a shipped oracle on a stack gives every row the bits of a one-row call: the lockstep loop, the
        # sweeps and the stacked certificate rely on it; d=50 as in the escape study
        a, _, _, rng = synthetic_matrix(50, RngStream(47, 1))
        problem = cls(a - 1.5 * np.eye(50))
        stack, _ = rng.standard_normal((3, 5, 50))
        if cls is PcaProblem:
            stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
        f, grad = problem._value_and_gradient_array(stack)
        assert f.shape == (3, 5) and grad.shape == (3, 5, 50)
        for i in range(3):
            block_f, block_grad = problem._value_and_gradient_array(stack[i])
            for j in range(5):
                f_row, grad_row = problem._value_and_gradient_array(stack[i, j])
                assert f[i, j] == block_f[j] == f_row
                assert np.array_equal(grad[i, j], grad_row) and np.array_equal(block_grad[j], grad_row)


class CountedSquaredNorm(CostFunction):
    """1/2 ||x||^2 on R^3 through the fused oracle alone, counting the oracle's calls."""

    manifold = Euclidean(3)

    def __init__(self):
        self.calls = 0

    def _value_and_gradient_array(self, y):
        self.calls += 1
        return 0.5 * np.vecdot(y, y), y.copy()


class TestOneOracle:
    def test_each_query_is_one_oracle_call(self):
        problem = CountedSquaredNorm()
        x = problem.manifold.point([1.0, -2.0, 0.5])
        s = problem.manifold.tangent(x, [0.5, 0.0, 1.0])
        pull = Pullback(problem, x)
        block = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        queries = [
            (lambda: problem.value(x), 2.625),
            (lambda: problem.riemannian_gradient(x).coords, [1.0, -2.0, 0.5]),
            (lambda: pull.value(s), 4.25),
            (lambda: pull.gradient(s).coords, [1.5, -2.0, 1.5]),
            (lambda: problem.value_many(block), [0.5, 2.0]),
            (lambda: problem.riemannian_gradient_many(block), block),
        ]
        for calls, (query, expected) in enumerate(queries, start=1):
            assert np.array_equal(query(), expected)
            assert problem.calls == calls

    def test_a_cost_without_the_oracle_raises(self):
        class NoOracle(CostFunction):
            manifold = Euclidean(2)

        problem, x = NoOracle(), NoOracle.manifold.point([1.0, 0.0])
        for query in (problem.value, problem.riemannian_gradient):
            with pytest.raises(NotImplementedError):
                query(x)
        with pytest.raises(NotImplementedError):
            problem.value_many(x.coords[None])


class TestMatrixIo:
    def test_parse_diagonal(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n3 0\n0 1\n")
        assert np.array_equal(load_matrix(path), np.diag([3.0, 1.0]))

    def test_parse_one_by_one(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1\n5\n")
        assert np.array_equal(load_matrix(path), [[5.0]])

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# header\n2\n\n1 0  # row one\n0 2\n")
        assert np.array_equal(load_matrix(path), np.diag([1.0, 2.0]))

    def test_round_trip_exact(self, tmp_path):
        g, _ = RngStream(3).standard_normal((6, 6))
        m = 0.5 * (g + g.T)
        path = tmp_path / "m.txt"
        save_matrix(path, m)
        assert np.array_equal(load_matrix(path), m)

    def test_rejects_asymmetric(self, tmp_path):
        # load_matrix only parses; the problem's as_sym_matrix rejects the file, as it would the array
        path = tmp_path / "m.txt"
        path.write_text("2\n0 1\n0 0\n")
        with pytest.raises(ValueError, match="asymmetry"):
            PcaProblem(load_matrix(path))

    def test_returns_a_nearly_symmetric_file_as_written(self, tmp_path):
        m = np.array([[1.0, 0.5], [0.5 + 5e-10 * 2.0, 2.0]])
        path = tmp_path / "m.txt"
        save_matrix(path, m)
        assert load_matrix(path).tobytes() == m.tobytes()

    def test_file_and_array_follow_one_symmetry_rule(self, tmp_path):
        # 5e-11 relative asymmetry: accepted on both routes, and symmetrized to the same bits
        m = [[1, 0.5], [0.5000000001, 2]]
        path = tmp_path / "m.txt"
        save_matrix(path, m)
        assert PcaProblem(m).matrix.tobytes() == PcaProblem(load_matrix(path)).matrix.tobytes()

    def test_size_is_checked_at_the_dimension_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(numerics, "EIG_DIM_LIMIT", 2)
        path = tmp_path / "m.txt"
        path.write_text("3\n1 0 0\n0 oops 0\n0 0 1\n")
        with pytest.raises(ValueError, match="^matrix dimension 3 exceeds the supported limit 2$"):
            load_matrix(path)

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n1 0\n0 oops\n")
        with pytest.raises(ValueError, match=":3:"):
            load_matrix(path)

    def test_rejects_row_length_mismatch(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n1 0 0\n0 1\n")
        with pytest.raises(ValueError, match=":2:"):
            load_matrix(path)

    def test_rejects_missing_rows(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3\n1 0 0\n0 1 0\n")
        with pytest.raises(ValueError, match="expected 3 rows"):
            load_matrix(path)


class TestSyntheticMatrix:
    def test_spectrum_and_gap(self):
        a, lams, vecs, _ = synthetic_matrix(10, RngStream(21, 5))
        assert lams[0] == 2.0 and lams[1] == 1.0
        assert lams[0] - lams[1] == 1.0
        got = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.allclose(got, lams, atol=1e-12)
        # eigenvector columns diagonalize the matrix
        assert np.abs(vecs.T @ a @ vecs - np.diag(lams)).max() <= 1e-12

    def test_deterministic_given_stream(self):
        a1, _, _, _ = synthetic_matrix(6, RngStream(4, 9))
        a2, _, _, _ = synthetic_matrix(6, RngStream(4, 9))
        assert np.array_equal(a1, a2)

    def test_oversized_dimension_raises_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a Gaussian matrix")

        monkeypatch.setattr(RngStream, "standard_normal", no_draw)
        with pytest.raises(ValueError, match="exceeds the supported limit"):
            synthetic_matrix(EIG_DIM_LIMIT + 1, RngStream(0, 1))


class TestStartVector:
    def test_reads_floats(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("# start\n0.5 0.5\n0.5 -0.5\n")
        assert np.array_equal(start_vector(path), [0.5, 0.5, 0.5, -0.5])

    def test_reads_the_matrix_layout(self, tmp_path):
        # one reader serves both formats: '#' comments, blank lines, tabs and runs of blanks, counted alike
        layout = "# header\n\n2\t# dimension\n \t \n1\t0  # row one\n\t0 \t {}\t\n# trailing comment\n"
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text(layout.format("2"))
        bad.write_text(layout.format("x"))
        assert np.array_equal(load_matrix(good), np.diag([1.0, 2.0]))
        assert np.array_equal(start_vector(good), [2.0, 1.0, 0.0, 0.0, 2.0])
        with pytest.raises(ValueError, match=":6: row contains a non-numeric entry$"):
            load_matrix(bad)
        with pytest.raises(ValueError, match=":6: non-numeric entry 'x'$"):
            start_vector(bad)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("1.0 two\n")
        with pytest.raises(ValueError, match=":1:"):
            start_vector(path)
