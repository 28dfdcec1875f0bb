"""Euclidean space and the unit sphere as retraction-equipped manifolds.

Points and tangent vectors are stored in ambient coordinates. Tangent vectors
are re-projected after arithmetic and sphere points re-normalized after every
retraction, so invariants hold over long runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, _check_count, _norm, as_vector, sample_unit_ball

POINT_NORM_TOL = 1e-12
TANGENT_TOL = 1e-10
RETRACTION_CHECK_H = 1e-4


# eq=False: equality and hash are identity, as for any object; `same_point` compares values
@dataclass(frozen=True, eq=False)
class Point:
    manifold: "Manifold"
    coords: np.ndarray


@dataclass(frozen=True, eq=False)
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

    A manifold implements these unchecked kernels on coordinate arrays, with n = `ambient_dim` and k =
    `intrinsic_dim`. They are declared in this docstring only, so a manifold that lacks one fails with
    `AttributeError` at its first use:

    - `_project_array(x, v)`: the orthogonal projection of v onto the tangent space at x.
    - `_retract_scaled_array(x, s, out=None)`: Retr_x(s), written into `out` if given (it may be s), and a
      scale (for the sphere ||x + s||, None on R^d).
    - `_scaled_adjoint_array(x, scale, w)`: w at Retr_x(s) pulled back to x, reusing the scale the retraction
      returned for (x, s): the projection onto the tangent space at x, divided by the scale.
    - `_tangent_frame_array(x)`: the orthonormal tangent basis B at each point, in the form the next four take.
    - `_basis_rows_array(frame, scale, out)`: scale * B^T, written into and returned as `out`, (..., k, n).
    - `_tangent_coords_array(frame, rows)`: rows @ B, (..., m, n) rows to (..., m, k) coordinates.
    - `_basis_apply_array(frame, coords)`: B @ coords, (..., k) coordinates to (..., n) vectors.
    - `_ball_tangent_array(x, frame, radius, unit)`: (..., k) unit-ball draws to tangents at x of norm <= radius.

    They take 1-d vectors, or blocks and stacks whose rows are independent (point, vector) pairs; one base
    point serves a block of vectors as `x[..., None, :]`. Each row gets the same float operations as a 1-d
    call, bit for bit. Each validated method is its argument checks plus calls of these kernels.
    """

    @property
    def name(self) -> str:
        """The manifold in error messages: its class and ambient dimension, such as sphere(4) or euclidean(4)."""
        return f"{type(self).__name__.lower()}({self.ambient_dim})"

    def point(self, coords) -> Point:
        c = as_vector(coords)
        if c.shape != (self.ambient_dim,):
            raise ValueError(f"point has shape {c.shape}, expected ({self.ambient_dim},)")
        self._check_point_rows(c)
        return Point(self, c)

    def _check_point_rows(self, x: np.ndarray):
        """`point`'s checks beyond shape and finiteness, on a point or a block of point rows."""

    def _retract_array(self, x: np.ndarray, s: np.ndarray) -> np.ndarray:
        return self._retract_scaled_array(x, s)[0]

    def _check_point(self, x: Point):
        """The one check of a `Point` argument: a point of this manifold, with the ambient shape."""
        if x.manifold != self or x.coords.shape != (self.ambient_dim,):
            raise ValueError(f"expected a point of {self.name} with shape ({self.ambient_dim},), "
                             f"got one of {x.manifold.name} with shape {x.coords.shape}")

    def _check_tangent(self, s: Tangent, at: Point):
        """The one check of a `Tangent` argument: the ambient shape, and based at the checked point `at` (the same
        object, else `same_point`), which puts its base on this manifold."""
        based = s.base is at or same_point(s.base, at)
        if not based or s.coords.shape != (self.ambient_dim,):
            raise ValueError(f"expected a tangent vector of shape ({self.ambient_dim},) at the given point of "
                             f"{self.name}, got shape {s.coords.shape} {'there' if based else 'elsewhere'}")

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

    def project(self, x: Point, v) -> Tangent:
        """Orthogonal projection of an ambient vector onto the tangent space at x."""
        self._check_point(x)
        v = as_vector(v)
        if v.shape != (self.ambient_dim,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.ambient_dim},)")
        return Tangent(x, self._project_array(x.coords, v))

    def retract(self, x: Point, s: Tangent) -> Point:
        self._check_point(x)
        self._check_tangent(s, at=x)
        return Point(self, self._retract_array(x.coords, s.coords))

    def retract_many(self, x: np.ndarray, tangents: np.ndarray) -> np.ndarray:
        """Unchecked retractions of the rows of `tangents` at base coordinates x."""
        return self._retract_array(x[..., None, :], tangents)

    def retraction_adjoint(self, x: Point, s: Tangent, w: Tangent) -> Tangent:
        """Adjoint of the retraction differential, pulling w at Retr_x(s) back to x."""
        self._check_point(x)
        self._check_tangent(s, at=x)
        y, scale = self._retract_scaled_array(x.coords, s.coords)
        self._check_tangent(w, at=Point(self, y))
        return Tangent(x, self._scaled_adjoint_array(x.coords, scale, w.coords))

    def sample_ball(self, x: Point, radius: float, rng: RngStream) -> tuple[Tangent, RngStream]:
        """Uniform draw from the tangent ball of the given radius at x: one `sample_unit_ball` draw."""
        self._check_point(x)
        if not 0 <= radius < np.inf:
            raise ValueError(f"radius must be nonnegative and finite, got {radius!r}")
        unit, rng = sample_unit_ball(self.intrinsic_dim, rng)
        return Tangent(x, self._ball_tangent_array(x.coords, self._tangent_frame_array(x.coords), radius, unit)), rng

    def tangent_basis(self, x: Point) -> np.ndarray:
        """Orthonormal basis of the tangent space at x, columns in ambient coordinates: the rows B^T, transposed."""
        self._check_point(x)
        rows = np.empty((self.ambient_dim, self.intrinsic_dim)).T
        return self._basis_rows_array(self._tangent_frame_array(x.coords), 1.0, rows).T

    def check_second_order(self, x: Point, s: Tangent) -> float:
        """Finite-difference norm of the intrinsic initial acceleration of t -> Retr_x(t s).

        Requires a unit tangent s at x; a second-order retraction returns ~0. The step is RETRACTION_CHECK_H.
        """
        self._check_point(x)
        self._check_tangent(s, at=x)
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
        _check_count(1, dim=self.dim)

    @property
    def ambient_dim(self):
        return self.dim

    @property
    def intrinsic_dim(self):
        return self.dim

    def _project_array(self, x, v):
        return v

    def _retract_scaled_array(self, x, s, out=None):
        return np.add(x, s, out=out), None

    def _scaled_adjoint_array(self, x, scale, w):
        return w

    def _tangent_frame_array(self, x):
        return None

    def _basis_rows_array(self, frame, scale, out):
        return np.multiply(np.eye(self.dim), scale, out=out)

    def _tangent_coords_array(self, frame, rows):
        return rows

    def _basis_apply_array(self, frame, coords):
        return coords

    def _ball_tangent_array(self, x, frame, radius, unit):
        return radius * unit

    # each class holds its own name for these, so the bench tracer can wrap them per class
    sample_ball = Manifold.sample_ball
    tangent_basis = Manifold.tangent_basis
    retract_many = Manifold.retract_many
    retraction_adjoint = Manifold.retraction_adjoint

    def check_second_order(self, x, s) -> float:
        # the base method checks the arguments; radial curves are straight lines, so the acceleration is exactly
        # zero where its differences round
        super().check_second_order(x, s)
        return 0.0


def _drop_p(rows, before):
    """rows[..., others]: entry p of each row dropped, from two shifted copies of the rows."""
    out = rows[..., :-1].copy()
    np.copyto(out, rows[..., 1:], where=~before)
    return out


def _add_kept_identity(rows, before, scale):
    """Add scale to each entry (j, others[j]) of the (..., n - 1, n) rows, in place: the rows of scale * I[others]."""
    # einsum's diagonals are writeable views of the entries (j, j) and (j, j + 1)
    at_j = np.einsum("...jj->...j", rows[..., :-1])
    after_j = np.einsum("...jj->...j", rows[..., 1:])
    np.add(at_j, scale, out=at_j, where=before)
    np.add(after_j, scale, out=after_j, where=~before)


@dataclass(frozen=True)
class Sphere(Manifold):
    """Unit sphere S^(n-1) in R^n with the metric-projection retraction."""

    n: int

    def __post_init__(self):
        _check_count(2, n=self.n)

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
        out = np.vecdot(x, v, keepdims=True) * x
        return np.subtract(v, out, out=out)

    def _retract_scaled_array(self, x, s, out=None):
        y = np.add(x, s, out=out)
        scale = _norm(y, keepdims=True)
        return np.divide(y, scale, out=y), scale

    def _scaled_adjoint_array(self, x, scale, w):
        out = self._project_array(x, w)
        return np.divide(out, scale, out=out)

    def _tangent_frame_array(self, x):
        """The Householder reflector at each point as (before, v, w), with B = I[:, others] + v w^T.

        With p the index of the largest |x_i| (the first on a tie) and
        v = x + sign(x_p) e_p, the reflector I - v v^T / (1 + |x_p|) maps e_p to
        -sign(x_p) x, so its other columns, others = (0, ..., p - 1, p + 1, ..., n - 1),
        span x-perp, and w = v[others] / -(1 + |x_p|). `before` (..., n - 1) marks
        the j < p, where others[j] = j. The sign choice keeps the denominator >= 1.
        Deterministic given coordinates; O(n) per point.
        """
        n = self.n
        p = np.argmax(np.abs(x), axis=-1, keepdims=True)
        at_p = np.arange(n) == p
        x_p = x[at_p]
        v = x.copy()
        v[at_p] = x_p + np.copysign(1.0, x_p)
        before = np.arange(n - 1) < p
        return before, v, _drop_p(v, before) / -(1.0 + np.abs(x_p.reshape(p.shape)))

    def _basis_rows_array(self, frame, scale, out):
        # the outer product (scale w) v^T plus the kept identity rows: O(k*n), and no basis is built
        before, v, w = frame
        np.multiply((scale * w)[..., :, None], v[..., None, :], out=out)
        _add_kept_identity(out, before, scale)
        return out

    def _tangent_coords_array(self, frame, rows):
        # rows[..., others] + (rows v) w^T: O(m*n) a point, where rows @ B is O(m*n*k)
        before, v, w = frame
        coords = _drop_p(rows, before[..., None, :])
        coords += np.einsum("...i,...j->...ij", np.matvec(rows, v), w)
        return coords

    def _basis_apply_array(self, frame, coords):
        # v (w . c) plus c placed at the entries others: O(n) a point, where B @ c is O(n*k)
        before, v, w = frame
        out = v * np.vecdot(w, coords, keepdims=True)
        np.add(out[..., :-1], coords, out=out[..., :-1], where=before)
        np.add(out[..., 1:], coords, out=out[..., 1:], where=~before)
        return out

    def _ball_tangent_array(self, x, frame, radius, unit):
        ambient = self._project_array(x, self._basis_apply_array(frame, radius * unit))
        nrm = _norm(ambient, keepdims=True)
        # round-off guard: a row longer than radius is scaled back onto the sphere of that radius
        return ambient * np.divide(radius, nrm, out=np.ones_like(nrm), where=nrm > radius)

    # each class holds its own name for these, so the bench tracer can wrap them per class
    sample_ball = Manifold.sample_ball
    tangent_basis = Manifold.tangent_basis
    retract_many = Manifold.retract_many
    retraction_adjoint = Manifold.retraction_adjoint
