"""Dense symmetric linear algebra, the gradient-difference Hessian, and deterministic RNG streams."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

EIG_DIM_LIMIT = 2000
SYM_RTOL = 1e-9
DEFAULT_HESS_H = 1e-4


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy or finiteness contract."""


def as_vector(entries) -> np.ndarray:
    """Validate entries as a finite 1-d float64 vector of length >= 1, returned contiguous.

    BLAS sums a strided vector in another order than a contiguous one, so a
    point's memory layout would otherwise change the bits of a trajectory.
    """
    v = np.asarray(entries, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a 1-d vector with at least one entry, got shape {v.shape}")
    _check_finite(v)
    return np.ascontiguousarray(v)


def _check_finite(v: np.ndarray):
    """`as_vector`'s finiteness check, on a vector or a block of rows."""
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must all be finite")


def _check_positive_finite(**values: float) -> None:
    """Raise for the first of the named values that is not positive and finite: NaN and infinity included."""
    for name, val in values.items():
        if not 0 < val < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {val!r}")


def _check_positive(**values: float) -> None:
    """Raise for the first of the named values that is neither positive and finite nor +inf, which means no bound."""
    for name, val in values.items():
        if not 0 < val <= math.inf:
            raise ValueError(f"{name} must be positive or inf, got {val!r}")


def _check_count(minimum: int, **values) -> None:
    """Raise for the first of the named values that is not an integer >= minimum: an int or np.integer, no bool."""
    for name, val in values.items():
        if isinstance(val, bool) or not isinstance(val, (int, np.integer)) or val < minimum:
            raise ValueError(f"{name} must be an integer >= {minimum}, got {val!r}")


def as_sym_matrix(entries, stacked: bool = False) -> np.ndarray:
    """The one rule for every matrix the program accepts: a new (m + m^T)/2 of a square m (`stacked`: of each of a
    stack), with the bits of an exactly symmetric m. Raises for the shape, `_check_entries`, then for max|m_ij - m_ji|
    > SYM_RTOL * max(max|m_ij|, 1), absolute below unit scale."""
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 + stacked or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ValueError(f"expected a {'stack of square matrices' if stacked else 'square matrix'}, got shape {m.shape}")
    scale = np.maximum(_check_entries(m), 1.0)
    asym = np.abs(m - m.mT).max(axis=(-2, -1))
    bad = asym > SYM_RTOL * scale
    if bad.any():
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym[bad][0]:.3e} exceeds {SYM_RTOL:.1e} * scale")
    return 0.5 * (m + m.mT)


def _check_entries(m: np.ndarray) -> np.ndarray:
    """max|m_ij| of a matrix, or of each of a stack, once it passes, in this order: finite entries, a size
    within EIG_DIM_LIMIT, and every |m_ij| below 2^1023, so that m + m.mT and m - m.mT cannot overflow."""
    peak = np.abs(m).max(axis=(-2, -1))
    if not np.all(np.isfinite(peak)):
        raise ValueError("matrix entries must all be finite")
    _check_eig_dim(m.shape[-1])
    if not np.all(peak < 2.0**1023):
        raise ValueError("matrix entries must all be below 2^1023 in magnitude")
    return peak


def min_eigpair(m) -> tuple[float, np.ndarray]:
    """Algebraically smallest eigenvalue lam and a unit eigenvector v of a symmetric matrix.

    lam is the first eigenvalue of `eigvalsh`, so a certificate gets the same bits; v is the first
    eigenvector of one backward-stable `eigh` call, so ||m v - lam v|| <= 1e-9 * max|lam_i| up to
    EIG_DIM_LIMIT. The zero matrix gives lam = 0 and v = e_1. Sign rule: the largest-magnitude
    coordinate of v is positive, the first one on a tie, whatever sign LAPACK picks.
    """
    m = as_sym_matrix(m)
    return _min_eigenvalue(m), _eigenvector_rows(m, [0])[0]


def _min_eigenvalue(m: np.ndarray):
    """`min_eigpair`'s lam, of an exactly symmetric matrix, from `_eigenvalues` alone; 0.0 for the zero matrix.

    For a stack of matrices, a list of them, one per matrix, from one `eigvalsh` call.
    """
    vals = _eigenvalues(m).reshape(-1, m.shape[-1])
    # lam and the top eigenvalue are both zero (of either sign) only for the zero matrix
    lams = [lam if lam or top else 0.0 for lam, top in vals[:, [0, -1]].tolist()]
    return lams if m.ndim > 2 else lams[0]


def _eigenvector_rows(m: np.ndarray, which: list[int]) -> np.ndarray:
    """Unit eigenvectors `which` (indices in ascending eigenvalue order) of an exactly symmetric matrix, whose
    size and finiteness the caller has checked, from one `eigh` call: C-contiguous rows, each normalized
    (LAPACK's are unit only to O(n eps)) and negated if needed to meet `min_eigpair`'s sign rule."""
    try:
        rows = np.ascontiguousarray(np.linalg.eigh(m)[1].T[which])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK essentially never fails here
        raise NumericalError(f"symmetric eigenvector solve did not converge: {exc}") from exc
    rows /= _norm(rows, keepdims=True)
    rows[rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)] < 0] *= -1.0
    return rows


def _check_eig_dim(n: int):
    """Raise for a matrix dimension n above EIG_DIM_LIMIT, the largest size the eigensolvers take."""
    if n > EIG_DIM_LIMIT:
        raise ValueError(f"matrix dimension {n} exceeds the supported limit {EIG_DIM_LIMIT}")


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of an exactly symmetric matrix or stack: only size and finiteness are checked."""
    _check_eig_dim(m.shape[-1])
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must all be finite")
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK essentially never fails here
        raise NumericalError(f"symmetric eigenvalue solve did not converge: {exc}") from exc


def operator_norm(m):
    """Spectral norm max|eigenvalue| of a symmetric matrix, or an array of them for a stack."""
    norms = np.abs(_eigenvalues(as_sym_matrix(m, stacked=np.ndim(m) == 3))).max(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def _operator_norm_bounds(m: np.ndarray):
    """Upper bounds on `operator_norm` of an exactly symmetric matrix or of each of a stack, with no eigensolve.

    For symmetric M, max|lam_i| = ||M^2||_2^(1/2) <= ||M^2||_F^(1/2) = (sum lam_i^4)^(1/4): at most k^(1/4)
    times the norm, and equal to it at rank one. The bound is c * (||(M/c)^2||_F^(1/2) * (1 + 1e-9)) with
    c = max|M_ij| (at least the smallest normal float): M/c has entries of at most 1, so nothing overflows
    or underflows at any finite scale, and the bound is finite while c * k is. The factor covers the
    round-off of the scaling, the product, the sums and the eigensolver up to EIG_DIM_LIMIT. It comes
    before the one multiplication by c, so a subnormal bound is rounded once, as the eigensolver rounds
    its scaled-back eigenvalues, and the zero matrix gets 0. Raises what `operator_norm` raises, by `_check_entries`:
    "matrix entries must all be finite", the size limit, then "matrix entries must all be below 2^1023 in magnitude".
    """
    scale = np.maximum(_check_entries(m), np.finfo(float).smallest_normal)
    unit = m / scale[..., None, None]
    square = (unit @ unit).reshape(m.shape[:-2] + (-1,))
    return scale * (np.sqrt(np.sqrt(np.vecdot(square, square))) * (1.0 + 1e-9))


def _norm(v: np.ndarray, keepdims: bool = False):
    """Euclidean norms of the rows of v, or the norm of a 1-d v: sqrt of the row self-dot.

    `np.vecdot` gives each row the same BLAS dot as `ndarray.dot`, so every
    norm equals numpy.linalg.norm of its row bit for bit; `keepdims` keeps a
    trailing axis of length 1 for broadcasting against v.
    """
    return np.sqrt(np.vecdot(v, v, keepdims=keepdims))


def fd_hessian_from_gradients(gradient_many, manifold, x, frame, center) -> np.ndarray:
    """Central-difference Hessian at x in the tangent basis B of `frame`, symmetrized.

    `frame` is `manifold._tangent_frame_array(x)`, made once by the caller, so Hessians at one x share
    it. Calls `gradient_many` (rows to gradient rows) once on the 2k rows center +/- h * B^T (h =
    DEFAULT_HESS_H), which `manifold._basis_rows_array` writes C-contiguous into one (..., 2k, n)
    buffer, and takes the gradient differences to basis coordinates with `_tangent_coords_array`. On
    the sphere both apply the Householder reflector in O(k*n), and no basis is built. The coordinates
    drop any gradient component along x, so `gradient_many` may leave it in; it may also overwrite the
    rows. `pullback_gradient_rows` retracts them in place, so a pullback Hessian peaks at about two
    such buffers. A (count, n) stack of points with (count, 1, n) centers gives a stack of Hessians,
    each with the bits of a one-point call.
    """
    h = DEFAULT_HESS_H
    k = manifold.intrinsic_dim
    rows = np.empty(x.shape[:-1] + (2 * k, manifold.ambient_dim))
    steps = manifold._basis_rows_array(frame, h, rows[..., :k, :])
    np.subtract(center, steps, out=rows[..., k:, :])
    np.add(center, steps, out=steps)
    grads = gradient_many(rows)
    if not np.all(np.isfinite(grads)):
        raise NumericalError("gradient oracle returned non-finite values during Hessian estimation")
    diff = np.subtract(grads[..., :k, :], grads[..., k:, :], out=steps)
    del grads  # freed before the coordinates are made, so the peak stays at two row blocks
    hess = manifold._tangent_coords_array(frame, diff)
    # the mean of the matrix and its transpose, each over the 2h of the central differences
    hess = np.add(hess, hess.mT)
    hess *= 0.25 / h
    return hess


# one Philox bit generator, Generator and state record per thread, made at the thread's first draw; each
# draw writes the record's counter and key and sets the whole state, so no draw depends on the one before
_PHILOX = threading.local()


def _rekey(seed: int, stream: int, index: int) -> np.random.Generator:
    """This thread's generator, set to the state of a fresh `Philox(counter=(0, 0, 0, index), key=(seed, stream))`.

    Only the record's counter and key change; its buffer (empty) and cached uint32 never do, and
    the state setter only reads the record. The arguments are integers in [0, 2^64).
    """
    try:
        bits, gen, counter, key, record = _PHILOX.record
    except AttributeError:
        counter, key = [0, 0, 0, 0], [0, 0]
        record = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
                  "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        bits = np.random.Philox(key=0)
        gen = np.random.Generator(bits)
        _PHILOX.record = bits, gen, counter, key, record
    counter[3], key[0], key[1] = index, seed, stream
    bits.state = record
    return gen


@dataclass(frozen=True)
class RngStream:
    """Splittable counter-based random stream (Philox), advanced by value.

    Identical (seed, stream, index) produce identical draws on every run and
    platform, given identical draw order. Draw methods return the values plus
    the advanced stream, so a stream value is never mutated in place.
    """

    seed: int
    stream: int = 0
    index: int = 0

    def __post_init__(self):
        _check_count(0, seed=self.seed, stream=self.stream, index=self.index)
        for name in ("seed", "stream", "index"):
            val = int(getattr(self, name))
            if val >= 2**64:
                raise ValueError(f"{name} must lie in [0, 2^64), got {val}")
            object.__setattr__(self, name, val)

    def _generator(self) -> np.random.Generator:
        """This thread's generator at this stream's key (seed, stream) and counter (0, 0, 0, index): `_rekey`.

        Each draw owns a disjoint 2^192-block of the counter space, and starts from an empty buffer.
        """
        return _rekey(self.seed, self.stream, self.index)

    def _next(self) -> "RngStream":
        """The stream one draw on."""
        return RngStream(self.seed, self.stream, self.index + 1)

    def standard_normal(self, shape=None):
        """Draw standard normals, a float for no shape; returns (values, advanced stream)."""
        return self._generator().standard_normal(shape), self._next()

    def uniform(self, shape=None):
        """Draw uniforms on [0, 1), a float for no shape; returns (values, advanced stream)."""
        return self._generator().random(shape), self._next()


def sample_unit_ball(dim: int, rng: RngStream) -> tuple[np.ndarray, RngStream]:
    """Uniform draw from the closed unit ball of R^dim: one row of `_unit_ball_rows`.

    Gaussian direction, radius U^(1/dim); one draw event on the stream.
    """
    _check_count(1, dim=dim)
    gen = rng._generator()
    direction = gen.standard_normal((1, dim))
    return _unit_ball_rows(direction, [gen.random()])[0], rng._next()


def _unit_ball_rows(direction: np.ndarray, u) -> np.ndarray:
    """Unit-ball points from Gaussian direction rows and their uniforms u: row * u^(1/dim) / ||row||.

    The radius u^(1/dim) is a Python float power per row, since `np.power` may round
    differently; the norms and factors are one stacked pass. A row whose norm still
    rounds above 1 is scaled back onto the unit sphere; a zero or non-finite direction
    raises. A row's computed norm is its radius to within (dim + 4) ulps, so only a
    radius above 1 - 1e-6 (dim below 10^9) can round above 1, and only then are the
    norms taken again.
    """
    inv_dim = 1.0 / direction.shape[-1]
    squares = np.vecdot(direction, direction)
    if not all(0.0 < sq < math.inf for sq in squares.tolist()):  # pragma: no cover - probability-zero draw
        raise NumericalError("degenerate Gaussian direction while sampling the unit ball")
    radii = [ui ** inv_dim for ui in u]
    point = direction * (np.array(radii) / np.sqrt(squares))[:, None]
    if max(radii, default=0.0) > 1.0 - 1e-6:
        for i, out_norm in enumerate(_norm(point).tolist()):
            if out_norm > 1.0:
                point[i] /= out_norm
    return point
