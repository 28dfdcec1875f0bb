"""Dense symmetric linear algebra, the gradient-difference Hessian, and deterministic RNG streams."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

EIG_DIM_LIMIT = 2000
SYM_RTOL = 1e-12
DEFAULT_HESS_H = 1e-4


def as_vector(entries) -> np.ndarray:
    """Validate entries as a finite 1-d float64 vector of length >= 1, returned contiguous.

    BLAS sums a strided vector in another order than a contiguous one, so a
    point's memory layout would otherwise change the bits of a trajectory.
    """
    v = np.asarray(entries, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a 1-d vector with at least one entry, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must all be finite")
    return np.ascontiguousarray(v)


def as_sym_matrix(entries, stacked: bool = False) -> np.ndarray:
    """Validate entries as a finite square matrix (`stacked`: a stack of them), symmetric to relative SYM_RTOL."""
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 + stacked or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ValueError(f"expected a {'stack of square matrices' if stacked else 'square matrix'}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must all be finite")
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    asym = np.abs(m - m.mT).max(axis=(-2, -1))
    bad = asym > SYM_RTOL * scale
    if bad.any():
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym[bad][0]:.3e} exceeds {SYM_RTOL:.1e} * scale")
    return m


def min_eigpair(m) -> tuple[float, np.ndarray]:
    """Algebraically smallest eigenvalue lam and a unit eigenvector v of a symmetric matrix.

    lam is the first eigenvalue of `eigvalsh`, which skips the eigenvector
    back-transform of a full `eigh`. v is one inverse-iteration solve
    (m - sigma I) v = b from a fixed generic start b, with sigma a few ulps
    below lam: lam - 8 eps max|lam_i|. The solve runs on m / max|lam_i|, so
    its solution overflows at no scale.

    Residual contract: ||m v - lam v|| <= 1e-9 * max|lam_i|. A second solve
    from v runs only when the first misses it; a miss after that, or a NaN,
    raises NumericalError. The zero matrix gives lam = 0 and v = e_1.

    Sign rule: the largest-magnitude coordinate of v is positive, the first
    one on a tie, so v depends on neither the start nor the LAPACK routine.
    """
    m = as_sym_matrix(m)
    return _min_eigpair(0.5 * (m + m.T))


def _min_eigpair(m: np.ndarray) -> tuple[float, np.ndarray]:
    """`min_eigpair` of an exactly symmetric matrix: only its size and finiteness are checked."""
    n = m.shape[0]
    if n > EIG_DIM_LIMIT:
        raise ValueError(f"matrix dimension {n} exceeds the supported limit {EIG_DIM_LIMIT}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must all be finite")
    try:
        vals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK essentially never fails here
        raise NumericalError(f"symmetric eigenvalue solve did not converge: {exc}") from exc
    lam = float(vals[0])
    norm_m = max(-lam, float(vals[-1]))
    if norm_m == 0.0:
        vec = np.zeros(n)
        vec[0] = 1.0
        return 0.0, vec
    shifted = m / norm_m
    shifted.flat[::n + 1] -= lam / norm_m - 8.0 * np.finfo(float).eps
    # the first n normals of RngStream(0): fixed, and generic, so no eigenvector is orthogonal to it
    vec = RngStream(0)._generator().standard_normal(n)
    for _ in range(2):
        try:
            vec = np.linalg.solve(shifted, vec)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - needs an exact zero pivot
            raise NumericalError(f"inverse-iteration solve failed: {exc}") from exc
        vec /= np.linalg.norm(vec)
        residual = float(np.linalg.norm(m @ vec - lam * vec))
        if residual <= 1e-9 * norm_m:  # False for a NaN residual, which then raises
            break
    else:
        raise NumericalError(f"eigenpair residual {residual:.3e} exceeds 1e-9 * |m| = {1e-9 * norm_m:.3e}")
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return lam, vec


def sym_eigenvalues(m) -> np.ndarray:
    """Eigenvalues, ascending, of a symmetric matrix or of each of a stack (one LAPACK call each); sizes above
    EIG_DIM_LIMIT raise before solving."""
    m = as_sym_matrix(m, stacked=np.ndim(m) == 3)
    if m.shape[-1] > EIG_DIM_LIMIT:
        raise ValueError(f"matrix dimension {m.shape[-1]} exceeds the supported limit {EIG_DIM_LIMIT}")
    try:
        return np.linalg.eigvalsh(0.5 * (m + m.mT))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"symmetric eigendecomposition did not converge: {exc}") from exc


def operator_norm(m):
    """Spectral norm max|eigenvalue| of a symmetric matrix, or an array of them for a stack."""
    norms = np.abs(sym_eigenvalues(m)).max(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def _norm(v: np.ndarray, keepdims: bool = False):
    """Euclidean norms of the rows of v, or the norm of a 1-d v: sqrt of the row self-dot.

    `np.vecdot` gives each row the same BLAS dot as `ndarray.dot`, so every
    norm equals numpy.linalg.norm of its row bit for bit; `keepdims` keeps a
    trailing axis of length 1 for broadcasting against v.
    """
    return np.sqrt(np.vecdot(v, v, keepdims=keepdims))


def fd_hessian_from_gradients(gradient_many, center, basis) -> np.ndarray:
    """Central-difference Hessian in the orthonormal columns of `basis`, symmetrized.

    Calls `gradient_many` (rows to gradient rows) once on the 2k rows center +/- h * basis[:, j],
    with h = DEFAULT_HESS_H.
    A (count, n, k) stack of bases with (count, 1, n) centers gives a stack of Hessians, each
    with the bits of a 2-d call: `np.matmul` makes one gemm per matrix.
    """
    h = DEFAULT_HESS_H
    steps = h * basis.mT
    grads = gradient_many(np.concatenate([center + steps, center - steps], axis=-2))
    if not np.all(np.isfinite(grads)):
        raise NumericalError("gradient oracle returned non-finite values during Hessian estimation")
    k = basis.shape[-1]
    hess = (grads[..., :k, :] - grads[..., k:, :]) @ basis / (2.0 * h)
    return 0.5 * (hess + hess.mT)


# one re-keyed Philox bit generator and Generator per thread, made at a thread's first draw; every draw
# writes the whole state first, so no draw depends on the one before it
_PHILOX = threading.local()
_EMPTY_BUFFER = (0, 0, 0, 0)


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
        for name in ("seed", "stream", "index"):
            raw = getattr(self, name)
            if not isinstance(raw, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {type(raw).__name__}")
            val = int(raw)
            if not 0 <= val < 2**64:
                raise ValueError(f"{name} must lie in [0, 2^64), got {val}")
            object.__setattr__(self, name, val)

    def _generator(self) -> np.random.Generator:
        """This thread's generator, set to the state of a fresh `Philox(counter, key)`.

        The key is (seed, stream) and the counter (0, 0, 0, index), so each draw
        owns a disjoint 2^192-block of the counter space; the buffer is empty.
        Writing the state costs far less than building a new bit generator.
        """
        try:
            bits, gen = _PHILOX.pair
        except AttributeError:
            bits = np.random.Philox(key=0)
            gen = np.random.Generator(bits)
            _PHILOX.pair = bits, gen
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, self.index), "key": (self.seed, self.stream)},
            "buffer": _EMPTY_BUFFER,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen

    def _next(self) -> "RngStream":
        """The stream one draw on; its fields are already valid, so only the new index is checked."""
        index = self.index + 1
        if index >= 2**64:
            raise ValueError(f"index must lie in [0, 2^64), got {index}")
        nxt = object.__new__(RngStream)
        vars(nxt).update(seed=self.seed, stream=self.stream, index=index)
        return nxt

    def standard_normal(self, shape=None):
        """Draw standard normals; returns (values, advanced stream)."""
        gen = self._generator()
        out = gen.standard_normal() if shape is None else gen.standard_normal(shape)
        return out, self._next()

    def uniform(self, shape=None):
        """Draw uniforms on [0, 1); returns (values, advanced stream)."""
        gen = self._generator()
        out = gen.random() if shape is None else gen.random(shape)
        return out, self._next()


def sample_unit_ball(dim: int, rng: RngStream) -> tuple[np.ndarray, RngStream]:
    """Uniform draw from the closed unit ball of R^dim.

    Gaussian direction, radius U^(1/dim); one draw event on the stream.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    gen = rng._generator()
    direction = gen.standard_normal(dim)
    u = gen.random()
    nrm = float(np.linalg.norm(direction))
    if not (nrm > 0 and math.isfinite(nrm)):  # pragma: no cover - probability-zero draw
        raise NumericalError("degenerate Gaussian direction while sampling the unit ball")
    point = direction * (u ** (1.0 / dim) / nrm)
    out_norm = float(np.linalg.norm(point))
    if out_norm > 1.0:  # pragma: no cover - round-off guard
        point = point / out_norm
    return point, rng._next()
