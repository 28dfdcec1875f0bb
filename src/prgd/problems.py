"""Concrete cost functions: dominant eigenvector on the sphere, Euclidean quadratic saddle."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifolds import Euclidean, Manifold, Point, Sphere, Tangent
from .numerics import (NumericalError, RngStream, _check_count, _check_eig_dim, _eigenvalues, as_sym_matrix,
                       as_vector)

PROJECT_FLOATS = 2**14


class CostFunction:
    """Interface: a cost on a manifold, given by one fused oracle.

    Subclasses set `manifold` and implement `_value_and_gradient_array`, the
    unchecked value and Riemannian gradient for one point or for any stack of
    points (one per row along the last axis). It is the one query PRGD's
    complexity counts; every other method is a point check plus one call of
    it, and a subclass may override `riemannian_gradient_many` to evaluate a
    block of gradients faster.
    """

    manifold: Manifold

    def value(self, x: Point) -> float:
        self.manifold._check_point(x)
        return float(self._value_and_gradient_array(x.coords)[0])

    def riemannian_gradient(self, x: Point) -> Tangent:
        self.manifold._check_point(x)
        grad = self._value_and_gradient_array(x.coords)[1]
        if not np.all(np.isfinite(grad)):
            raise NumericalError("Riemannian gradient is non-finite")
        return Tangent(x, grad)

    def _value_and_gradient_array(self, y: np.ndarray):
        """Value and Riemannian-gradient coordinates at manifold coordinates y, without checks.

        For a block or stack y, one value and one gradient row per row of y; leading axes are kept.
        """
        raise NotImplementedError

    def riemannian_gradient_many(self, coords: np.ndarray) -> np.ndarray:
        """Riemannian gradients at rows of `coords`, one row each; leading stack axes are kept."""
        return self._value_and_gradient_array(coords)[1]

    def value_many(self, coords: np.ndarray) -> np.ndarray:
        """Values at rows of `coords` (manifold points in ambient coordinates)."""
        return self._value_and_gradient_array(coords)[0]


@dataclass(frozen=True)
class ProblemConstants:
    lip_grad: float
    lip_hess: float


class PcaProblem(CostFunction):
    """f(x) = -1/2 x^T A x on the unit sphere (minimization of the negated Rayleigh quotient).

    The dominant eigenvector of A is the global minimizer, with value
    `f_star` = -lambda_max / 2; every other unit eigenvector is a critical point.
    A is `matrix` symmetrized by `as_sym_matrix`, a copy the problem owns.
    """

    def __init__(self, matrix):
        matrix = as_sym_matrix(matrix)
        self.manifold = Sphere(matrix.shape[0])
        self.matrix = matrix
        eigenvalues = _eigenvalues(matrix)
        self.norm = float(np.abs(eigenvalues).max())
        self.f_star = -0.5 * float(eigenvalues[-1])

    def _value_and_gradient_array(self, y):
        # np.matvec and np.vecdot give each row the BLAS gemv and dot of a 1-d call; with
        # g = -Ay, g - (y.g) y is exactly (y.Ay) y - Ay, as negation commutes with rounding
        ay = np.matvec(self.matrix, y)
        yay = np.vecdot(y, ay)
        return -0.5 * yay, yay[..., None] * y - ay

    def riemannian_gradient_many(self, coords: np.ndarray) -> np.ndarray:
        grads = coords @ self.matrix.T
        dots = np.einsum("...j,...j->...", grads, coords)
        # (y.Ay) y - Ay in place, about PROJECT_FLOATS floats a pass, so no temporary as large as the block is made
        n = grads.shape[-1]
        g, y, d = grads.reshape(-1, n), coords.reshape(-1, n), dots.reshape(-1, 1)
        step = max(1, PROJECT_FLOATS // n)
        for rows in range(0, len(g), step):
            np.subtract(d[rows:rows + step] * y[rows:rows + step], g[rows:rows + step], out=g[rows:rows + step])
        return grads

    # each class holds its own name for these, so the bench tracer can wrap them per class
    value = CostFunction.value
    value_many = CostFunction.value_many

    def constants(self) -> ProblemConstants:
        """Lipschitz constants valid on every tangent space (no ball restriction)."""
        return ProblemConstants(lip_grad=2.5 * self.norm, lip_hess=9.0 * self.norm)


class QuadraticSaddle(CostFunction):
    """f(x) = 1/2 x^T H x on R^d, H (the problem's own symmetrized copy) indefinite so the origin is a strict saddle."""

    def __init__(self, matrix):
        matrix = as_sym_matrix(matrix)
        eigenvalues = _eigenvalues(matrix)
        self.norm = float(np.abs(eigenvalues).max())
        if float(eigenvalues[0]) >= 0.0:
            raise ValueError("quadratic saddle requires at least one negative eigenvalue")
        self.matrix = matrix
        self.manifold = Euclidean(matrix.shape[0])

    def _value_and_gradient_array(self, y):
        hy = np.matvec(self.matrix, y)
        return 0.5 * np.vecdot(y, hy), hy

    # each class holds its own name for these, so the bench tracer can wrap them per class
    value = CostFunction.value
    value_many = CostFunction.value_many


def _data_lines(path):
    """(line number, tokens) of each data line of a text file: '#' starts a comment, and blank lines are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split("#", 1)[0].split()
            if tokens:
                yield lineno, tokens


def load_matrix(path) -> np.ndarray:
    """Parse a matrix from the text format: a line with n, then n rows of n finite floats, '#' starting a comment.

    Returns the entries as written. Besides the per-line errors, only the size is checked, at the dimension line;
    a problem's `as_sym_matrix` decides the rest, as it does for a matrix given in memory.
    """
    rows = []
    n = None
    for lineno, tokens in _data_lines(path):
        if n is None:
            if len(tokens) != 1:
                raise ValueError(f"{path}:{lineno}: expected a single dimension, got {len(tokens)} tokens")
            try:
                n = int(tokens[0])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: dimension {tokens[0]!r} is not an integer") from None
            if n < 1:
                raise ValueError(f"{path}:{lineno}: dimension must be an integer >= 1, got {n}")
            _check_eig_dim(n)
            continue
        if len(rows) == n:
            raise ValueError(f"{path}:{lineno}: extra data after {n} matrix rows")
        if len(tokens) != n:
            raise ValueError(f"{path}:{lineno}: expected {n} entries, got {len(tokens)}")
        try:
            row = [float(tok) for tok in tokens]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: row contains a non-numeric entry") from None
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"{path}:{lineno}: row contains a non-finite entry")
        rows.append(row)
    if n is None:
        raise ValueError(f"{path}: no matrix dimension found")
    if len(rows) != n:
        raise ValueError(f"{path}: expected {n} rows, found {len(rows)}")
    return np.array(rows)


def save_matrix(path, matrix):
    """Write a matrix in the load_matrix text format with round-trip-exact floats."""
    m = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m.shape[0]}\n")
        for row in m:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def synthetic_matrix(dim: int, rng: RngStream):
    """Rotated diagonal with spectrum 2, 1, 1 - 1/dim, ..., and known eigenpairs.

    Returns (matrix, eigenvalues descending, eigenvector columns, advanced rng).
    The top gap is exactly 1 and the matrix stays positive definite.
    """
    _check_count(2, dim=dim)
    _check_eig_dim(dim)
    lams = np.empty(dim)
    lams[0] = 2.0
    for k in range(2, dim + 1):
        lams[k - 1] = 1.0 - (k - 2) / dim
    gauss, rng = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    a = (q * lams) @ q.T
    a = 0.5 * (a + a.T)
    return a, lams, q, rng


def start_vector(path) -> np.ndarray:
    """Read a start point as whitespace-separated floats ('#' comments allowed)."""
    tokens = []
    for lineno, line in _data_lines(path):
        for tok in line:
            try:
                tokens.append(float(tok))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric entry {tok!r}") from None
    if not tokens:
        raise ValueError(f"{path}: no start coordinates found")
    return as_vector(tokens)
