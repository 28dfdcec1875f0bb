import math
import tracemalloc

import numpy as np
import pytest

from prgd.manifolds import Euclidean, Sphere
from prgd.numerics import RngStream, sample_unit_ball
from sweep_oracles import householder_basis, sphere_ball_tangent


def sphere_point(sph, rng):
    g, rng = rng.standard_normal(sph.ambient_dim)
    return sph.point(g / np.linalg.norm(g)), rng


def same_bits(a, b):
    """Equal shapes and bytes: unlike np.array_equal, -0.0 and 0.0 differ."""
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def basis_test_points(n, seed):
    """Random unit vectors, ties in |x_i|, negative largest entries and the +/- coordinate axes of R^n."""
    sph = Sphere(n)
    rng = RngStream(seed, n)
    points = []
    for _ in range(8):
        x, rng = sphere_point(sph, rng)
        points += [x.coords, -x.coords]
    ties = np.ones(n)
    ties[1::2] = -1.0
    points += [ties / np.linalg.norm(ties), -ties / np.linalg.norm(ties)]
    top = np.linspace(0.1, 0.5, n)
    top[n // 2] = -1.0
    points.append(top / np.linalg.norm(top))
    points += [sign * axis for axis in np.eye(n) for sign in (1.0, -1.0)]
    return sph, np.array(points)


class TestPointsAndTangents:
    def test_sphere_point_must_be_unit(self):
        with pytest.raises(ValueError):
            Sphere(3).point([1.0, 1.0, 0.0])

    def test_sphere_point_tolerates_roundoff(self):
        Sphere(2).point([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])

    def test_sphere_tangent_must_be_orthogonal(self):
        sph = Sphere(3)
        x = sph.point([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            sph.tangent(x, [0.5, 1.0, 0.0])
        sph.tangent(x, [0.0, 1.0, 0.0])

    def test_tangent_must_have_ambient_shape(self):
        eu = Euclidean(2)
        x = eu.point([0.0, 0.0])
        with pytest.raises(ValueError, match="shape"):
            eu.tangent(x, [1.0, 2.0, 3.0])
        eu.tangent(x, [1.0, 2.0])

    def test_euclidean_point_any_coords(self):
        Euclidean(2).point([5.0, -3.0])


class TestProject:
    def test_sphere_kills_radial(self):
        sph = Sphere(3)
        x = sph.point([1.0, 0.0, 0.0])
        assert np.array_equal(sph.project(x, [1.0, 0.0, 0.0]).coords, np.zeros(3))

    def test_sphere_keeps_tangential(self):
        sph = Sphere(3)
        x = sph.point([1.0, 0.0, 0.0])
        assert np.array_equal(sph.project(x, [0.0, 1.0, 0.0]).coords, [0.0, 1.0, 0.0])

    def test_euclidean_identity(self):
        eu = Euclidean(4)
        x = eu.point(np.arange(4.0))
        v = np.array([0.1, -0.2, 0.3, 4.0])
        assert np.array_equal(eu.project(x, v).coords, v)


class TestRetract:
    def test_zero_tangent_euclidean_exact(self):
        eu = Euclidean(3)
        x = eu.point([0.1, -2.0, 3.3])
        y = eu.retract(x, eu.zero_tangent(x))
        assert np.array_equal(y.coords, x.coords)

    def test_zero_tangent_sphere_within_normalization(self):
        sph = Sphere(4)
        x, _ = sphere_point(sph, RngStream(3))
        y = sph.retract(x, sph.zero_tangent(x))
        assert np.linalg.norm(y.coords - x.coords) <= 1e-15

    def test_sphere_example(self):
        sph = Sphere(2)
        x = sph.point([1.0, 0.0])
        y = sph.retract(x, sph.tangent(x, [0.0, 1.0]))
        assert np.allclose(y.coords, np.array([1.0, 1.0]) / math.sqrt(2.0), atol=1e-15)

    def test_euclidean_example(self):
        eu = Euclidean(2)
        x = eu.point([1.0, 2.0])
        y = eu.retract(x, eu.tangent(x, [3.0, -1.0]))
        assert np.array_equal(y.coords, [4.0, 1.0])

    def test_sphere_tangency_preserved_over_many_operations(self):
        sph = Sphere(5)
        rng = RngStream(17)
        x, rng = sphere_point(sph, rng)
        for _ in range(1000):
            step, rng = sph.sample_ball(x, 0.3, rng)
            x = sph.retract(x, step)
            assert abs(np.linalg.norm(x.coords) - 1.0) <= 1e-12


class TestRetractionAdjoint:
    def test_identity_at_zero(self):
        sph = Sphere(3)
        x, rng = sphere_point(sph, RngStream(5))
        zero = sph.zero_tangent(x)
        y = sph.retract(x, zero)
        w, rng = sph.sample_ball(y, 1.0, rng)
        back = sph.retraction_adjoint(x, zero, w)
        assert np.linalg.norm(back.coords - w.coords) <= 1e-12

    def test_hand_evaluated_sphere_case(self):
        sph = Sphere(3)
        x = sph.point([1.0, 0.0, 0.0])
        s = sph.tangent(x, [0.0, 1.0, 0.0])
        y = sph.retract(x, s)
        w = sph.tangent(y, np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0))
        back = sph.retraction_adjoint(x, s, w)
        assert np.allclose(back.coords, [0.0, -0.5, 0.0], atol=1e-15)

    def test_euclidean_passthrough(self):
        eu = Euclidean(3)
        x = eu.point([1.0, 2.0, 3.0])
        s = eu.tangent(x, [0.5, 0.0, -0.5])
        y = eu.retract(x, s)
        w = eu.tangent(y, [9.0, -1.0, 0.25])
        assert np.array_equal(eu.retraction_adjoint(x, s, w).coords, w.coords)

    def test_rejects_mismatched_target(self):
        sph = Sphere(3)
        x = sph.point([1.0, 0.0, 0.0])
        s = sph.tangent(x, [0.0, 0.5, 0.0])
        w = sph.tangent(x, [0.0, 1.0, 0.0])  # based at x, not at Retr_x(s)
        with pytest.raises(ValueError):
            sph.retraction_adjoint(x, s, w)

    @pytest.mark.parametrize("manifold", [Euclidean(6), Sphere(6)])
    def test_adjoint_duality_closed_form(self, manifold):
        # <T[sd], w> == <sd, T*[w]> with the closed-form differential, 100 triples
        rng = RngStream(23)
        for _ in range(100):
            if isinstance(manifold, Sphere):
                x, rng = sphere_point(manifold, rng)
            else:
                c, rng = rng.standard_normal(6)
                x = manifold.point(c)
            s, rng = manifold.sample_ball(x, 1.0, rng)
            sd, rng = manifold.sample_ball(x, 1.0, rng)
            y = manifold.retract(x, s)
            raw, rng = rng.standard_normal(6)
            w = manifold.project(y, raw)
            if isinstance(manifold, Sphere):
                scale = float(np.linalg.norm(x.coords + s.coords))
                t_sd = manifold._project_array(y.coords, sd.coords) / scale
            else:
                t_sd = sd.coords
            lhs = float(t_sd @ w.coords)
            rhs = float(sd.coords @ manifold.retraction_adjoint(x, s, w).coords)
            assert abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("manifold", [Euclidean(5), Sphere(5)])
    def test_adjoint_against_fd_differential(self, manifold):
        # central differences of the retraction vs the closed-form adjoint
        rng = RngStream(29)
        h = 1e-5
        for _ in range(100):
            if isinstance(manifold, Sphere):
                x, rng = sphere_point(manifold, rng)
            else:
                c, rng = rng.standard_normal(5)
                x = manifold.point(c)
            s, rng = manifold.sample_ball(x, 1.0, rng)
            sd, rng = manifold.sample_ball(x, 1.0, rng)
            y = manifold.retract(x, s)
            raw, rng = rng.standard_normal(5)
            w = manifold.project(y, raw)
            t_fd = (manifold._retract_array(x.coords, s.coords + h * sd.coords)
                    - manifold._retract_array(x.coords, s.coords - h * sd.coords)) / (2.0 * h)
            lhs = float(t_fd @ w.coords)
            rhs = float(sd.coords @ manifold.retraction_adjoint(x, s, w).coords)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("manifold", [Euclidean(6), Sphere(6)])
    def test_many_matches_row_by_row(self, manifold):
        # the kernel pair on a (50, n) block at one base and a (count, rows, n) stack at count bases
        rng = RngStream(31)
        for count, rows in ((1, 50), (4, 7)):
            bases, tangents, ws, want_y, want = [], [], [], [], []
            for _ in range(count):
                if isinstance(manifold, Sphere):
                    x, rng = sphere_point(manifold, rng)
                else:
                    c, rng = rng.standard_normal(6)
                    x = manifold.point(c)
                bases.append(x.coords)
                for _ in range(rows):
                    s, rng = manifold.sample_ball(x, 2.0, rng)
                    raw, rng = rng.standard_normal(6)
                    y = manifold.retract(x, s)
                    w = manifold.project(y, raw)
                    tangents.append(s.coords)
                    ws.append(w.coords)
                    want_y.append(y.coords)
                    want.append(manifold.retraction_adjoint(x, s, w).coords)
            x = np.array(bases)[:, None, :]
            tangents, ws = np.array(tangents).reshape(count, rows, 6), np.array(ws).reshape(count, rows, 6)
            if count == 1:
                x, tangents, ws = x[0], tangents[0], ws[0]
            y, scale = manifold._retract_scaled_array(x, tangents)
            got = manifold._scaled_adjoint_array(x, scale, ws)
            assert got.shape == y.shape == tangents.shape
            assert np.array_equal(y.reshape(-1, 6), np.array(want_y))
            assert np.array_equal(got.reshape(-1, 6), np.array(want))


class TestSampleBall:
    def test_zero_radius(self):
        sph = Sphere(4)
        x, rng = sphere_point(sph, RngStream(2))
        draw, _ = sph.sample_ball(x, 0.0, rng)
        assert draw.norm == 0.0

    def test_draws_inside_and_tangent(self):
        sph = Sphere(6)
        rng = RngStream(31)
        x, rng = sphere_point(sph, rng)
        for _ in range(200):
            draw, rng = sph.sample_ball(x, 0.7, rng)
            assert draw.norm <= 0.7
            assert abs(float(x.coords @ draw.coords)) <= 1e-10

    @pytest.mark.parametrize(
        "manifold,intrinsic",
        [(Euclidean(3), 3), (Sphere(6), 5)],
    )
    def test_radial_law_uses_intrinsic_dimension(self, manifold, intrinsic):
        rng = RngStream(41)
        if isinstance(manifold, Sphere):
            x, rng = sphere_point(manifold, rng)
        else:
            x = manifold.point(np.zeros(3))
        n = 20_000
        radii = np.empty(n)
        for i in range(n):
            draw, rng = manifold.sample_ball(x, 2.0, rng)
            radii[i] = draw.norm / 2.0
        u = np.sort(radii**intrinsic)
        ks = np.abs(u - (np.arange(1, n + 1) - 0.5) / n).max()
        assert ks <= 0.02

    def test_euclidean_draw_builds_no_identity(self):
        # the identity tangent basis at d = 2000 would take 32 MB; R^d's ball map never reads it
        eu = Euclidean(2000)
        x = eu.point(np.zeros(2000))
        tracemalloc.start()
        try:
            s, _ = eu.sample_ball(x, 1.0, RngStream(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert same_bits(s.coords, sample_unit_ball(2000, RngStream(8))[0])

    def test_negative_radius_rejected(self):
        eu = Euclidean(2)
        with pytest.raises(ValueError):
            eu.sample_ball(eu.point([0.0, 0.0]), -1.0, RngStream(1))

    @pytest.mark.parametrize("manifold", [Sphere(2), Sphere(7), Sphere(40), Euclidean(1), Euclidean(5)])
    def test_stacked_map_matches_per_point_draws(self, manifold):
        # one stacked pass over draws at many points gives each point's validated sample_ball, bit for bit
        if isinstance(manifold, Sphere):
            _, x = basis_test_points(manifold.n, 3)
        else:
            x, _ = RngStream(3).standard_normal((12, manifold.dim))
        radii = np.resize([0.0, 0.3, 1.0, 7.5], len(x))
        rng = RngStream(19, manifold.ambient_dim)
        units, draws = [], []
        for xi, radius in zip(x, radii):
            units.append(sample_unit_ball(manifold.intrinsic_dim, rng)[0])
            s, rng = manifold.sample_ball(manifold.point(xi), radius, rng)
            draws.append(s.coords)
        bases = manifold._tangent_basis_array(x)
        stacked = manifold._ball_tangent_array(x, bases, radii[:, None], np.array(units))
        assert same_bits(stacked, np.array(draws))
        for i in range(len(x)):
            one_row = manifold._ball_tangent_array(x[i], bases[i], radii[i], units[i])
            assert same_bits(one_row, draws[i])
            if isinstance(manifold, Sphere):
                assert same_bits(draws[i], sphere_ball_tangent(x[i], householder_basis(x[i]), radii[i], units[i]))
            else:
                assert same_bits(draws[i], radii[i] * units[i])


class TestTangentBasis:
    @pytest.mark.parametrize("seed", range(5))
    def test_orthonormal_and_orthogonal_to_base(self, seed):
        sph = Sphere(7)
        x, _ = sphere_point(sph, RngStream(seed))
        basis = sph.tangent_basis(x)
        assert basis.shape == (7, 6)
        assert np.abs(basis.T @ basis - np.eye(6)).max() <= 1e-13
        assert np.abs(basis.T @ x.coords).max() <= 1e-13

    @pytest.mark.parametrize("n", [2, 2000])
    def test_orthonormal_at_extreme_dimensions(self, n):
        sph = Sphere(n)
        x, _ = sphere_point(sph, RngStream(n))
        basis = sph.tangent_basis(x)
        assert basis.shape == (n, n - 1)
        assert np.abs(basis.T @ basis - np.eye(n - 1)).max() <= 1e-13
        assert np.abs(x.coords @ basis).max() <= 1e-13

    def test_negative_largest_entry(self):
        sph = Sphere(5)
        x = sph.point(np.array([0.3, -0.8, 0.2, 0.1, -0.4]) / math.sqrt(0.94))
        basis = sph.tangent_basis(x)
        assert np.abs(basis.T @ basis - np.eye(4)).max() <= 1e-15
        assert np.abs(x.coords @ basis).max() <= 1e-15

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_canonical_point_gives_other_canonical_vectors(self, sign):
        sph = Sphere(4)
        for i in range(4):
            basis = sph.tangent_basis(sph.point(sign * np.eye(4)[i]))
            assert np.array_equal(np.abs(basis), np.delete(np.eye(4), i, axis=1))

    def test_deterministic(self):
        sph = Sphere(5)
        x, _ = sphere_point(sph, RngStream(9))
        assert np.array_equal(sph.tangent_basis(x), sph.tangent_basis(x))

    def test_euclidean_identity(self):
        eu = Euclidean(3)
        assert np.array_equal(eu.tangent_basis(eu.point([1.0, 2.0, 3.0])), np.eye(3))

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 50])
    def test_stacked_kernel_matches_per_point(self, n):
        sph, x = basis_test_points(n, 7)
        stacked = sph._tangent_basis_array(x)
        assert stacked.shape == (len(x), n, n - 1)
        for xi, basis in zip(x, stacked):
            assert same_bits(basis, sph.tangent_basis(sph.point(xi)))
            assert same_bits(basis, householder_basis(xi))
        # any leading axes
        assert same_bits(sph._tangent_basis_array(x[:6].reshape(2, 3, n)), stacked[:6].reshape(2, 3, n, n - 1))

    def test_euclidean_stacked_identity(self):
        eu = Euclidean(3)
        x, _ = RngStream(2).standard_normal((4, 3))
        assert np.array_equal(eu._tangent_basis_array(x), np.broadcast_to(np.eye(3), (4, 3, 3)))


class TestSecondOrderCheck:
    def test_euclidean_exactly_zero(self):
        eu = Euclidean(4)
        x = eu.point([0.3, -1.0, 2.0, 0.7])
        s = eu.tangent(x, np.array([1.0, 1.0, 1.0, 1.0]) / 2.0)
        assert eu.check_second_order(x, s) == 0.0

    def test_sphere_axis_case(self):
        sph = Sphere(3)
        x = sph.point([1.0, 0.0, 0.0])
        s = sph.tangent(x, [0.0, 1.0, 0.0])
        assert sph.check_second_order(x, s) <= 1e-6

    def test_sphere_random_cases(self):
        sph = Sphere(5)
        rng = RngStream(55)
        for _ in range(50):
            x, rng = sphere_point(sph, rng)
            raw, rng = sph.sample_ball(x, 1.0, rng)
            unit = sph.project(x, raw.coords / raw.norm)
            assert sph.check_second_order(x, unit) <= 1e-6

    def test_requires_unit_tangent(self):
        sph = Sphere(3)
        x = sph.point([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            sph.check_second_order(x, sph.tangent(x, [0.0, 0.5, 0.0]))
