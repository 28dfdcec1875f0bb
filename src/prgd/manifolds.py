"""Euclidean space and the unit sphere as retraction-equipped manifolds.

Points and tangent vectors are stored in ambient coordinates. Tangent vectors
are re-projected after arithmetic and sphere points re-normalized after every
retraction, so invariants hold over long runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, _norm, as_vector, sample_unit_ball

POINT_NORM_TOL = 1e-12
TANGENT_TOL = 1e-10
RETRACTION_CHECK_H = 1e-4


@dataclass(frozen=True)
class Point:
    manifold: "Manifold"
    coords: np.ndarray


@dataclass(frozen=True)
class Tangent:
    base: Point
    coords: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


def same_point(a: Point, b: Point) -> bool:
    return a.manifold == b.manifold and np.array_equal(a.coords, b.coords)


class Manifold:
    """Common interface: metric, projection, retraction, adjoint, ball sampling.

    A manifold implements five unchecked kernels on coordinate arrays:
    `_project_array`, `_retract_scaled_array`, `_scaled_adjoint_array`,
    `_tangent_basis_array` and `_ball_tangent_array`. They take 1-d vectors,
    or blocks and stacks whose rows are independent (point, vector) pairs; one
    base point serves a block of vectors as `x[..., None, :]`. Each row gets
    the same float operations as a 1-d call, bit for bit. The retraction also
    returns the scale (for the sphere ||x + s||) that the adjoint takes, so an
    adjoint reuses what its retraction computed. Each validated method is its
    argument checks plus one call of these kernels.
    """

    name = "abstract"
    ambient_dim = 0
    intrinsic_dim = 0

    def point(self, coords) -> Point:
        c = as_vector(coords)
        if c.shape != (self.ambient_dim,):
            raise ValueError(f"point has shape {c.shape}, expected ({self.ambient_dim},)")
        self._check_point_rows(c)
        return Point(self, c)

    def _check_point_rows(self, x: np.ndarray):
        """`point`'s checks beyond shape and finiteness, on a point or a block of point rows."""

    def _project_array(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _retract_array(self, x: np.ndarray, s: np.ndarray) -> np.ndarray:
        return self._retract_scaled_array(x, s)[0]

    def _retract_scaled_array(self, x: np.ndarray, s: np.ndarray):
        """Retr_x(s) and the scale that `_scaled_adjoint_array` takes for the same (x, s)."""
        raise NotImplementedError

    def _scaled_adjoint_array(self, x: np.ndarray, scale, w: np.ndarray) -> np.ndarray:
        """Pull w at Retr_x(s) back to x, given the scale `_retract_scaled_array` returned for (x, s)."""
        raise NotImplementedError

    def _tangent_basis_array(self, x: np.ndarray) -> np.ndarray:
        """Orthonormal tangent basis at each point, shape (..., ambient_dim, intrinsic_dim)."""
        raise NotImplementedError

    def _ball_tangent_array(self, x: np.ndarray, basis, radius, unit: np.ndarray) -> np.ndarray:
        """Map unit-ball draws (..., intrinsic_dim) to ambient tangents of norm <= radius at x, through `basis`.

        `basis` is `_tangent_basis_array(x)`, or None to have the kernel build it only if it reads it.
        """
        raise NotImplementedError

    def _check_point(self, x: Point):
        if x.manifold != self:
            raise ValueError(f"point belongs to manifold {x.manifold.name}, expected {self.name}")

    def _check_tangent(self, s: Tangent):
        if s.base.manifold != self:
            raise ValueError(f"base of tangent belongs to manifold {s.base.manifold.name}, expected {self.name}")
        if s.coords.shape != (self.ambient_dim,):
            raise ValueError(f"tangent has shape {s.coords.shape}, expected ({self.ambient_dim},)")

    def tangent(self, base: Point, coords) -> Tangent:
        """Wrap validated coordinates as a tangent vector at `base`; the normal part must be within TANGENT_TOL."""
        self._check_point(base)
        c = as_vector(coords)
        if c.shape != (self.ambient_dim,):
            raise ValueError(f"tangent has shape {c.shape}, expected ({self.ambient_dim},)")
        normal = float(_norm(c - self._project_array(base.coords, c)))
        if normal > TANGENT_TOL * (1.0 + float(_norm(c))):
            raise ValueError(f"vector is not tangent to {self.name} at the base point (normal part {normal:.3e})")
        return Tangent(base, c)

    def zero_tangent(self, x: Point) -> Tangent:
        self._check_point(x)
        return Tangent(x, np.zeros(self.ambient_dim))

    def project(self, x: Point, v) -> Tangent:
        """Orthogonal projection of an ambient vector onto the tangent space at x."""
        self._check_point(x)
        v = as_vector(v)
        if v.shape != (self.ambient_dim,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.ambient_dim},)")
        return Tangent(x, self._project_array(x.coords, v))

    def retract(self, x: Point, s: Tangent) -> Point:
        self._check_tangent(s)
        if not same_point(s.base, x):
            raise ValueError("tangent vector is not based at the retraction point")
        return Point(self, self._retract_array(x.coords, s.coords))

    def retract_many(self, x: np.ndarray, tangents: np.ndarray) -> np.ndarray:
        """Unchecked retractions of the rows of `tangents` at base coordinates x."""
        return self._retract_array(x[..., None, :], tangents)

    def retraction_adjoint(self, x: Point, s: Tangent, w: Tangent) -> Tangent:
        """Adjoint of the retraction differential, pulling w at Retr_x(s) back to x."""
        self._check_tangent(s)
        if not same_point(s.base, x):
            raise ValueError("tangent vector is not based at x")
        y, scale = self._retract_scaled_array(x.coords, s.coords)
        if not (w.base.manifold == self and np.array_equal(w.base.coords, y)):
            raise ValueError("w must be a tangent vector at Retr_x(s)")
        return Tangent(x, self._scaled_adjoint_array(x.coords, scale, w.coords))

    def sample_ball(self, x: Point, radius: float, rng: RngStream) -> tuple[Tangent, RngStream]:
        """Uniform draw from the tangent ball of the given radius at x: one `sample_unit_ball` draw."""
        self._check_point(x)
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        unit, rng = sample_unit_ball(self.intrinsic_dim, rng)
        return Tangent(x, self._ball_tangent_array(x.coords, None, radius, unit)), rng

    def tangent_basis(self, x: Point) -> np.ndarray:
        """Orthonormal basis of the tangent space at x, columns in ambient coordinates."""
        self._check_point(x)
        return self._tangent_basis_array(x.coords)

    def check_second_order(self, x: Point, s: Tangent) -> float:
        """Finite-difference norm of the intrinsic initial acceleration of t -> Retr_x(t s).

        Requires a unit tangent s; a second-order retraction returns ~0. The step is RETRACTION_CHECK_H.
        """
        self._check_tangent(s)
        if abs(s.norm - 1.0) > 1e-9:
            raise ValueError("check_second_order requires a unit tangent vector")
        h = RETRACTION_CHECK_H
        gp = self._retract_array(x.coords, h * s.coords)
        gm = self._retract_array(x.coords, -h * s.coords)
        acc = (gp - 2.0 * x.coords + gm) / (h * h)
        return float(np.linalg.norm(self._project_array(x.coords, acc)))


@dataclass(frozen=True)
class Euclidean(Manifold):
    """R^d with the identity retraction Retr_x(s) = x + s."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("Euclidean dimension must be at least 1")

    @property
    def name(self):
        return f"euclidean({self.dim})"

    @property
    def ambient_dim(self):
        return self.dim

    @property
    def intrinsic_dim(self):
        return self.dim

    def _project_array(self, x, v):
        return v

    def _retract_scaled_array(self, x, s):
        return x + s, None

    def _scaled_adjoint_array(self, x, scale, w):
        return w

    def _tangent_basis_array(self, x):
        # a read-only view: the identity is never copied per point
        return np.broadcast_to(np.eye(self.dim), x.shape[:-1] + (self.dim, self.dim))

    def _ball_tangent_array(self, x, basis, radius, unit):
        return radius * unit

    # each class holds its own name for these, so the bench tracer can wrap them per class
    sample_ball = Manifold.sample_ball
    tangent_basis = Manifold.tangent_basis
    retract_many = Manifold.retract_many
    retraction_adjoint = Manifold.retraction_adjoint

    def check_second_order(self, x, s) -> float:
        # radial curves are straight lines; the acceleration is identically zero
        self._check_tangent(s)
        if abs(s.norm - 1.0) > 1e-9:
            raise ValueError("check_second_order requires a unit tangent vector")
        return 0.0


@dataclass(frozen=True)
class Sphere(Manifold):
    """Unit sphere S^(n-1) in R^n with the metric-projection retraction."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("sphere ambient dimension must be at least 2")

    @property
    def name(self):
        return f"sphere({self.n})"

    @property
    def ambient_dim(self):
        return self.n

    @property
    def intrinsic_dim(self):
        return self.n - 1

    def _check_point_rows(self, x):
        for nrm in _norm(x, keepdims=True).ravel().tolist():
            if abs(nrm - 1.0) > POINT_NORM_TOL:
                raise ValueError(f"sphere point must have unit norm, got {nrm!r}")

    def _project_array(self, x, v):
        return v - np.vecdot(x, v, keepdims=True) * x

    def _retract_scaled_array(self, x, s):
        y = x + s
        scale = _norm(y, keepdims=True)
        return y / scale, scale

    def _scaled_adjoint_array(self, x, scale, w):
        return self._project_array(x, w) / scale

    def _tangent_basis_array(self, x):
        """Orthonormal basis of x-perp at each point: a Householder reflector with one column dropped.

        With p the index of the largest |x_i| (the first on a tie) and
        v = x + sign(x_p) e_p, the reflector I - v v^T / (1 + |x_p|) maps e_p to
        -sign(x_p) x, so its other columns span x-perp. The sign choice keeps the
        denominator >= 1. Deterministic given coordinates; O(n^2) per point.
        """
        n = self.n
        p = np.argmax(np.abs(x), axis=-1, keepdims=True)
        at_p = np.arange(n) == p
        x_p = x[at_p]
        v = x.copy()
        v[at_p] = x_p + np.copysign(1.0, x_p)
        w = v[~at_p].reshape(x.shape[:-1] + (n - 1,)) / -(1.0 + np.abs(x_p.reshape(p.shape)))
        basis = v[..., :, None] * w[..., None, :]
        # kept column j is column others[j] of the reflector: add the identity's entry (others[j], j)
        others = np.arange(n - 1) + (np.arange(n - 1) >= p)
        stack = basis.reshape(-1, n, n - 1)
        stack[np.arange(len(stack))[:, None], others.reshape(-1, n - 1), np.arange(n - 1)] += 1.0
        return basis

    def _ball_tangent_array(self, x, basis, radius, unit):
        if basis is None:
            basis = self._tangent_basis_array(x)
        ambient = self._project_array(x, np.matvec(basis, radius * unit))
        nrm = _norm(ambient, keepdims=True)
        # round-off guard: a row longer than radius is scaled back onto the sphere of that radius
        return ambient * np.divide(radius, nrm, out=np.ones_like(nrm), where=nrm > radius)

    # each class holds its own name for these, so the bench tracer can wrap them per class
    sample_ball = Manifold.sample_ball
    tangent_basis = Manifold.tangent_basis
    retract_many = Manifold.retract_many
    retraction_adjoint = Manifold.retraction_adjoint
