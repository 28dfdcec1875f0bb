import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from prgd.errors import NumericalError
from prgd.numerics import (
    RngStream,
    _norm,
    _unit_ball_rows,
    as_sym_matrix,
    as_vector,
    min_eigpair,
    operator_norm,
    sample_unit_ball,
)
from fd_oracles import fd_gradient, fd_hessian


def random_symmetric(n, seed):
    g, _ = RngStream(seed).standard_normal((n, n))
    return 0.5 * (g + g.T)


def with_spectrum(lams, seed):
    """Q diag(lams) Q^T for a random orthogonal Q, made exactly symmetric."""
    g, _ = RngStream(seed, 1).standard_normal((len(lams), len(lams)))
    q, r = np.linalg.qr(g)
    m = (q * np.sign(np.diag(r)) * lams) @ q.T
    return 0.5 * (m + m.T)


def stress_spectra():
    """(name, matrix) cases that are hard for one inverse-iteration step."""
    cases = [("n=1", np.array([[-3.0]]))]
    for n in (2, 3, 10, 50, 150, 400):
        cases.append((f"random n={n}", random_symmetric(n, n)))
        base = np.linspace(-1.0, 1.0, n) if n > 2 else np.array([-1.0, 0.5, 1.0])[:n]
        repeated = base.copy()
        repeated[1] = repeated[0]
        cases.append((f"repeated lambda_min n={n}", with_spectrum(repeated, n)))
        for gap in (1e-12, 1e-7):
            gapped = base.copy()
            gapped[1] = gapped[0] + gap
            cases.append((f"bottom gap {gap:g} n={n}", with_spectrum(gapped, n)))
        # a saddle's Hessian: one negative eigenvalue under a cluster, as at a top eigenvector's neighbour
        cases.append((f"cluster n={n}", with_spectrum(np.concatenate([[-1.0], np.ones(n - 1)]), n)))
        for scale in (1e-8, 1e8):
            cases.append((f"scale {scale:g} n={n}", scale * with_spectrum(base, n + 1)))
    return cases


STRESS = stress_spectra()
STRESS_IDS = [name for name, _ in STRESS]


class TestNorm:
    @given(st.integers(1, 400), st.integers(0, 2**32 - 1), st.sampled_from([1e-150, 1e-8, 1.0, 1e8, 1e150]))
    def test_matches_numpy_norm_bitwise(self, n, seed, scale):
        raw, _ = RngStream(seed).standard_normal(n)
        v = scale * raw
        assert _norm(v) == float(np.linalg.norm(v))


class TestRowPrimitives:
    """The descent kernels run on blocks with np.vecdot and np.matvec; each row must get the BLAS
    dot and gemv of a 1-d `ndarray.dot`, or a block of trials would not repeat single runs."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 31, 50, 64, 127, 200, 300])
    def test_rows_match_ndarray_dot_bitwise(self, n):
        a = random_symmetric(n, n)
        for rows in (1, 2, 7, 50):
            uv, _ = RngStream(n, rows).standard_normal((2, rows, n))
            u, v = uv
            dots = np.vecdot(u, v)
            products = np.matvec(a, u)
            norms = _norm(u)
            for i in range(rows):
                assert dots[i] == u[i].dot(v[i])
                assert np.array_equal(products[i], a.dot(u[i]))
                assert norms[i] == np.linalg.norm(u[i])
            # the same kernels take 1-d vectors too
            assert np.vecdot(u[0], v[0]) == u[0].dot(v[0])
            assert np.array_equal(np.matvec(a, u[0]), a.dot(u[0]))


class TestValidation:
    def test_vector_is_contiguous(self):
        column = np.arange(12.0).reshape(3, 4)[:, 1]
        v = as_vector(column)
        assert v.flags.c_contiguous and np.array_equal(v, column)

    def test_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([1.0, math.nan])

    def test_vector_rejects_empty(self):
        with pytest.raises(ValueError):
            as_vector([])

    def test_sym_matrix_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            as_sym_matrix([[0.0, 1.0], [0.0, 0.0]])

    def test_sym_matrix_accepts_tiny_asymmetry(self):
        m = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]])
        as_sym_matrix(m)


class TestMinEigpair:
    def test_diagonal(self):
        lam, vec = min_eigpair(np.diag([-1.0, 2.0, 3.0]))
        assert lam == pytest.approx(-1.0, abs=1e-12)
        assert abs(vec[0]) == pytest.approx(1.0, abs=1e-12)

    def test_identity_degenerate_spectrum(self):
        m = np.eye(4)
        lam, vec = min_eigpair(m)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(m @ vec - lam * vec) <= 1e-9 * operator_norm(m)

    def test_matches_independent_full_spectrum_oracle(self):
        m = random_symmetric(10, seed=5)
        lam, vec = min_eigpair(m)
        # oracle: general (non-symmetric) QR eigensolver
        oracle_vals, oracle_vecs = scipy.linalg.eig(m)
        idx = int(np.argmin(oracle_vals.real))
        oracle_lam = float(oracle_vals[idx].real)
        oracle_vec = oracle_vecs[:, idx].real
        oracle_vec = oracle_vec / np.linalg.norm(oracle_vec)
        assert lam == pytest.approx(oracle_lam, abs=1e-9)
        assert abs(float(vec @ oracle_vec)) == pytest.approx(1.0, abs=1e-9)

    def test_residual_contract(self):
        for seed in range(5):
            m = random_symmetric(12, seed=seed)
            lam, vec = min_eigpair(m)
            assert np.linalg.norm(m @ vec - lam * vec) <= 1e-9 * operator_norm(m)
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name, m", STRESS, ids=STRESS_IDS)
    def test_stress_spectra_against_full_eigh(self, name, m, monkeypatch):
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))
        lam, vec = min_eigpair(m)
        oracle_vals, oracle_vecs = np.linalg.eigh(m)
        norm_m = float(np.abs(oracle_vals).max())
        assert abs(lam - oracle_vals[0]) <= 1e-12 * norm_m
        # the contract is 1e-9 * |m|; one solve meets it with a wide margin on every case
        assert np.linalg.norm(m @ vec - lam * vec) <= 1e-9 / 30 * norm_m
        assert len(solves) == 1
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
        if len(oracle_vals) == 1 or oracle_vals[1] - oracle_vals[0] >= 1e-7 * norm_m:
            assert abs(float(vec @ oracle_vecs[:, 0])) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("name, m", STRESS[::4], ids=STRESS_IDS[::4])
    def test_sign_rule_fixes_the_vector(self, name, m, monkeypatch):
        lam, vec = min_eigpair(m)
        top = int(np.argmax(np.abs(vec)))
        assert vec[top] > 0 and np.all(np.abs(vec[:top]) < vec[top])
        # the solve is linear in its start, so a negated or doubled start gives the same bits
        solve = np.linalg.solve
        for factor in (-1.0, 2.0):
            monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, factor * b))
            again = min_eigpair(m)
            monkeypatch.undo()
            assert again[0] == lam and np.array_equal(again[1], vec)

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_zero_matrix(self, n):
        lam, vec = min_eigpair(np.zeros((n, n)))
        assert lam == 0.0
        assert np.array_equal(vec, np.eye(n)[0])

    def test_second_solve_runs_only_after_a_miss(self, monkeypatch):
        m = random_symmetric(12, seed=3)
        lam, vec = min_eigpair(m)
        solves = []
        solve = np.linalg.solve

        def first_misses(a, b):
            solves.append(1)
            # the unsolved start misses the residual contract, so a second solve must follow
            return b.copy() if len(solves) == 1 else solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", first_misses)
        again = min_eigpair(m)
        assert len(solves) == 2
        assert again[0] == lam
        assert abs(float(again[1] @ vec)) == pytest.approx(1.0, abs=1e-12)

    def test_nan_solve_raises(self, monkeypatch):
        # a NaN residual fails `residual <= tol`, so it raises instead of returning a NaN vector
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
        with pytest.raises(NumericalError, match="residual nan"):
            min_eigpair(random_symmetric(5, seed=2))

    @pytest.mark.parametrize("scale", [1e170, 1e200, 1e300, 1e-300])
    def test_extreme_scales(self, scale):
        # m v at 1e170 and above overflows a residual taken on m itself
        m = random_symmetric(30, seed=4)
        lam, vec = min_eigpair(m)
        lam_scaled, vec_scaled = min_eigpair(scale * m)
        assert lam_scaled / scale == pytest.approx(lam, rel=1e-12)
        assert np.abs(vec_scaled - vec).max() <= 1e-9

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            min_eigpair(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            min_eigpair(np.eye(2001))


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(np.diag([-3.0, 2.0])) == pytest.approx(3.0, abs=1e-12)

    def test_zero(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_matches_svd_oracle(self):
        m = random_symmetric(8, seed=11)
        oracle = float(scipy.linalg.svdvals(m).max())
        assert operator_norm(m) == pytest.approx(oracle, rel=1e-12)


class TestStackedSymmetricMatrices:
    def test_operator_norms_of_a_stack_match_each_matrix(self):
        stack = np.array([random_symmetric(7, seed) for seed in range(6)])
        norms = operator_norm(stack)
        assert norms.shape == (6,)
        assert [float(v) for v in norms] == [operator_norm(m) for m in stack]

    def test_one_asymmetric_matrix_fails_the_stack(self):
        stack = np.array([random_symmetric(4, seed) for seed in range(3)])
        stack[1, 0, 3] += 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            operator_norm(stack)
        with pytest.raises(ValueError, match="stack of square matrices"):
            as_sym_matrix(stack[0], stacked=True)
        # an input matrix is never a stack
        with pytest.raises(ValueError, match="expected a square matrix"):
            as_sym_matrix(np.array([random_symmetric(4, 0)] * 2))


class TestFdGradient:
    def test_quadratic_is_exact_to_roundoff(self):
        grad = fd_gradient(lambda s: 0.5 * float(s @ s), np.array([1.0, 2.0]), h=1e-5)
        assert np.allclose(grad, [1.0, 2.0], atol=1e-8)

    def test_constant_function(self):
        grad = fd_gradient(lambda s: 4.2, np.array([0.3, -0.1, 2.0]))
        assert np.array_equal(grad, np.zeros(3))

    def test_matches_closed_form_rayleigh_pullback(self):
        # phi(s) = 1/2 (x+s)^T A (x+s) / (1 + |s|^2) has gradient
        # (A(x+s) - 2 phi(s) s) / (1 + |s|^2)
        a = random_symmetric(5, seed=2)
        x, rng = RngStream(3).standard_normal(5)
        x = x / np.linalg.norm(x)
        s, rng = rng.standard_normal(5)
        s = 0.3 * (s - (x @ s) * x)

        def phi(v):
            y = x + v
            return 0.5 * float(y @ (a @ y)) / (1.0 + float(v @ v))

        closed = (a @ (x + s) - 2.0 * phi(s) * s) / (1.0 + float(s @ s))
        fd = fd_gradient(phi, s)
        assert np.linalg.norm(fd - closed) <= 1e-6 * np.linalg.norm(closed)

    def test_second_order_convergence(self):
        # C^3 function with O(1) third derivative: halving h cuts the error >= 3x
        s = np.array([0.1, -0.2, 0.3])
        exact = np.exp(s)
        h = 1e-3
        errors = []
        while h >= 1e-5:
            errors.append(np.linalg.norm(fd_gradient(lambda v: float(np.sum(np.exp(v))), s, h=h) - exact))
            h /= 2.0
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse >= 3.0 * fine

    def test_nonfinite_value_raises(self):
        with pytest.raises(NumericalError):
            fd_gradient(lambda s: math.inf, np.array([1.0]))


class TestFdHessian:
    def test_quadratic(self):
        h = np.diag([2.0, -1.0])
        fd = fd_hessian(lambda s: 0.5 * float(s @ (h @ s)), np.array([0.3, -0.7]))
        assert np.abs(fd - h).max() <= 1e-6

    def test_linear_function(self):
        a = np.array([1.0, -2.0, 0.5])
        fd = fd_hessian(lambda s: float(a @ s), np.zeros(3))
        assert np.abs(fd).max() <= 1e-7

    def test_symmetric_output(self):
        fd = fd_hessian(lambda s: float(s[0] ** 3 + s[0] * s[1] ** 2), np.array([0.4, 0.2]))
        assert np.array_equal(fd, fd.T)

    def test_rayleigh_pullback_curvature_at_origin(self):
        # second derivative of the spherical pullback of -1/2 x^T A x at 0 is
        # -B^T A B + (x^T A x) I in an orthonormal tangent basis B
        from prgd.problems import PcaProblem, synthetic_matrix
        from prgd.pullback import Pullback

        a, _, _, _ = synthetic_matrix(5, RngStream(6, 77))
        p = PcaProblem(a)
        raw, _ = RngStream(14).standard_normal(5)
        x = p.manifold.point(raw / np.linalg.norm(raw))
        basis = p.manifold.tangent_basis(x)

        def phi(u):
            y = x.coords + basis @ u
            return p.value(p.manifold.point(y / np.linalg.norm(y)))

        fd = fd_hessian(phi, np.zeros(4))
        analytic = -basis.T @ a @ basis + float(x.coords @ a @ x.coords) * np.eye(4)
        assert np.abs(fd - analytic).max() <= 1e-5
        # the batched estimator used by the verifiers agrees with this scalar oracle
        batched = Pullback(p, x).hessian_at_zero()
        assert np.abs(fd - batched).max() <= 1e-7


class TestSampleUnitBall:
    def test_norms_at_most_one(self):
        rng = RngStream(1)
        for _ in range(300):
            point, rng = sample_unit_ball(6, rng)
            assert np.linalg.norm(point) <= 1.0

    def test_uniformity_statistics(self):
        # one 1e5-draw batch at d=5: radial KS, small-ball mass, centered mean
        d = 5
        rng = RngStream(2024)
        radii = np.empty(100_000)
        total = np.zeros(d)
        inside_half = 0
        for i in range(radii.size):
            point, rng = sample_unit_ball(d, rng)
            r = np.linalg.norm(point)
            radii[i] = r
            total += point
            inside_half += r <= 0.5
        # radial CDF is t^d, so r^d should be uniform on [0, 1]
        u = np.sort(radii**d)
        ks = np.abs(u - (np.arange(1, u.size + 1) - 0.5) / u.size).max()
        assert ks <= 0.01
        p = 2.0**-d
        sigma = math.sqrt(p * (1 - p) / radii.size)
        assert abs(inside_half / radii.size - p) <= 3 * sigma
        assert np.linalg.norm(total / radii.size) <= 0.02

    def test_determinism_and_purity(self):
        rng = RngStream(7, stream=3)
        a, rng_after = sample_unit_ball(4, rng)
        b, _ = sample_unit_ball(4, rng)
        assert np.array_equal(a, b)
        c, _ = sample_unit_ball(4, rng_after)
        assert not np.array_equal(a, c)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            sample_unit_ball(0, RngStream(1))

    @pytest.mark.parametrize("dim", [1, 2, 5, 19, 300])
    def test_rows_match_the_scalar_formula(self, dim):
        # the per-row factor is a Python float power: np.power rounds a few percent of them differently
        direction, rng = RngStream(12, dim).standard_normal((500, dim))
        u, _ = rng.uniform(500)
        rows = _unit_ball_rows(direction, u.tolist())
        for row, d, ui in zip(rows, direction, u.tolist()):
            want = d * (ui ** (1.0 / dim) / np.linalg.norm(d))
            out_norm = np.linalg.norm(want)
            assert row.tobytes() == (want / out_norm if out_norm > 1.0 else want).tobytes()


class TestRngStream:
    def test_same_key_same_draws(self):
        x1, _ = RngStream(9, 4).standard_normal(8)
        x2, _ = RngStream(9, 4).standard_normal(8)
        assert np.array_equal(x1, x2)

    def test_streams_differ(self):
        x1, _ = RngStream(9, 0).standard_normal(8)
        x2, _ = RngStream(9, 1).standard_normal(8)
        assert not np.array_equal(x1, x2)

    def test_advance_by_value(self):
        rng = RngStream(5)
        _, rng2 = rng.uniform()
        assert rng.index == 0 and rng2.index == 1
        u1, _ = rng.uniform()
        u2, _ = rng.uniform()
        assert u1 == u2

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_any_valid_seed_works(self, seed):
        val, nxt = RngStream(seed).uniform()
        assert 0.0 <= val < 1.0
        assert nxt.index == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)


def fresh_philox(seed, stream, index):
    """The draw-per-generator oracle: a new Philox keyed (seed, stream) at counter (0, 0, 0, index)."""
    key = np.array([seed, stream], dtype=np.uint64)
    counter = np.array([0, 0, 0, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


# draws recorded with one fresh Philox generator per draw; they must never change
PINNED_DRAWS = [
    (lambda: RngStream(0).standard_normal()[0], "0x1.463cb3872ecbdp-3"),
    (lambda: RngStream(0).uniform()[0], "0x1.7a5d3204726c0p-7"),
    (lambda: RngStream(2024, 7, 3).standard_normal(3)[0],
     ["0x1.888fe084f9e73p+0", "0x1.ce9b0a8aa404ep-3", "0x1.89b0dc181ff9fp+0"]),
    (lambda: RngStream(2**64 - 1, 2**64 - 1, 2**64 - 2).uniform(2)[0], ["0x1.c0406955466dcp-3", "0x1.f12dbb27d1c2cp-1"]),
    (lambda: RngStream(11, 2**48, 2**40).standard_normal((2, 1))[0].ravel(),
     ["0x1.54ef185c7718fp-2", "0x1.464ecdb8f2866p-6"]),
    # normals, then a uniform from the same generator, as `sample_unit_ball` draws them
    (lambda: (lambda g: [*g.standard_normal(2), g.random()])(RngStream(5, 1, 9)._generator()),
     ["0x1.924f46f7d3f58p-3", "0x1.28424ff150c81p+0", "0x1.9c58ec218038ep-1"]),
    (lambda: (lambda g: [*g.standard_normal(2), g.random()])(RngStream(3, 0, 2**64 - 1)._generator()),
     ["0x1.e86c6124a0586p+0", "-0x1.02cd16346b3acp-3", "0x1.341065bbd19ccp-3"]),
]


class TestRekeyedGenerator:
    """Each draw re-keys one generator per thread; it must give a fresh generator's draws, bit for bit."""

    def test_matches_a_fresh_generator_per_draw(self):
        pick = np.random.default_rng(20261018)
        for trial in range(3000):
            seed, stream, index = (int(v) for v in pick.integers(0, 2**64, 3, dtype=np.uint64))
            index = (0, 2**64 - 1, index)[trial % 3]
            size = int(pick.integers(1, 40))
            oracle = fresh_philox(seed, stream, index)
            want = oracle.standard_normal(size), oracle.random()
            gen = RngStream(seed, stream, index)._generator()
            got = gen.standard_normal(size), gen.random()
            assert np.array_equal(got[0], want[0]) and got[1] == want[1], (seed, stream, index, size)

    @pytest.mark.parametrize("index", [0, 1, 2**63, 2**64 - 2])
    def test_public_draws_match_the_oracle(self, index):
        rng = RngStream(2**64 - 1, 17, index)
        for shape in (None, 5, (3, 4)):
            got, nxt = rng.standard_normal(shape)
            want = fresh_philox(2**64 - 1, 17, index).standard_normal(shape)
            assert np.array_equal(got, want) and np.shape(got) == np.shape(want) and nxt.index == index + 1
            got, _ = rng.uniform(shape)
            want = fresh_philox(2**64 - 1, 17, index).random(shape)
            assert np.array_equal(got, want) and np.shape(got) == np.shape(want)
        point, _ = sample_unit_ball(7, rng)
        oracle = fresh_philox(2**64 - 1, 17, index)
        direction, u = oracle.standard_normal(7), oracle.random()
        assert np.array_equal(point, direction * (u ** (1.0 / 7) / np.linalg.norm(direction)))

    @pytest.mark.parametrize("draw,want", PINNED_DRAWS)
    def test_pinned_draws(self, draw, want):
        got = draw()
        assert (got.hex() if np.ndim(got) == 0 else [float(v).hex() for v in got]) == want

    def test_advance_does_not_revalidate(self, monkeypatch):
        calls = []
        post_init = RngStream.__post_init__
        monkeypatch.setattr(RngStream, "__post_init__", lambda self: calls.append(1) or post_init(self))
        rng = RngStream(4, 2)
        assert len(calls) == 1
        for _ in range(10):
            _, rng = sample_unit_ball(3, rng)
            _, rng = rng.uniform()
        assert len(calls) == 1
        assert rng == RngStream(4, 2, 20) and hash(rng) == hash(RngStream(4, 2, 20))
        with pytest.raises(AttributeError):
            rng.index = 0

    def test_last_index_raises_on_advance(self):
        last = RngStream(1, 2, 2**64 - 1)
        for draw in (last.standard_normal, last.uniform, lambda: sample_unit_ball(3, last)):
            with pytest.raises(ValueError, match="index must lie in"):
                draw()

    def test_threads_reproduce_their_serial_draws(self):
        # threads draw from different streams at once, with thread switches as often as the interpreter
        # allows; a generator shared between them would hand one thread's state to another's draw
        streams = range(1, 5)

        def draws(stream, out, start=None):
            if start is not None:
                start.wait(timeout=30)
            rng = RngStream(77, stream)
            for _ in range(2000):
                point, rng = sample_unit_ball(4, rng)
                value, rng = rng.uniform()
                out.append((point, value))

        serial = {stream: [] for stream in streams}
        for stream in streams:
            draws(stream, serial[stream])
        results = {stream: [] for stream in streams}
        start = threading.Barrier(len(streams))
        workers = [threading.Thread(target=draws, args=(stream, results[stream], start)) for stream in streams]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for stream in streams:
            assert len(results[stream]) == len(serial[stream])
            for (p, v), (q, w) in zip(results[stream], serial[stream]):
                assert np.array_equal(p, q) and v == w
