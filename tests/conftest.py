import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import settings

from prgd.manifolds import Euclidean
from prgd.numerics import as_sym_matrix
from prgd.problems import CostFunction, PcaProblem, QuadraticSaddle

settings.register_profile("deterministic", derandomize=True, max_examples=200)
settings.load_profile("deterministic")


class EuclideanQuadratic(CostFunction):
    """1/2 x^T H x on R^d with arbitrary symmetric H; handy for critical-point tests."""

    def __init__(self, matrix):
        self.matrix = as_sym_matrix(matrix)
        self.norm = float(np.abs(np.linalg.eigvalsh(self.matrix)).max())
        self.manifold = Euclidean(self.matrix.shape[0])

    def _value_and_gradient_array(self, y):
        hy = np.matvec(self.matrix, y)
        return 0.5 * np.vecdot(y, hy), hy


class SqrtGradient(CostFunction):
    """sum_i x_i^(3/2) on R^2: zero gradient at the origin, NaN value and gradient wherever a coordinate is negative."""

    manifold = Euclidean(2)

    def _value_and_gradient_array(self, y):
        with np.errstate(invalid="ignore"):
            return np.sum(y**1.5, axis=-1), 1.5 * np.sqrt(y)


@contextlib.contextmanager
def evaluated_points(problem, points=None):
    """Collect, while open, the rows of every point at which `problem`'s fused cost oracle is evaluated.

    Each row is appended to `points` (a new list by default) as its bytes, in call order, and the list
    is what the context yields: every point a run visited, which its trace does not keep.
    """
    points = [] if points is None else points
    oracle = problem._value_and_gradient_array

    def recording(y):
        points.extend(row.tobytes() for row in y.reshape(-1, y.shape[-1]))
        return oracle(y)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(problem, "_value_and_gradient_array", recording)
        yield points


def recorded(function, points):
    """`function` of one point, appending each point it is called at to `points` as its bytes."""

    def call(v):
        points.append(v.tobytes())
        return function(v)

    return call


def collapsed(points):
    """`points` with each run of consecutive equal entries collapsed to one."""
    return [point for point, _ in itertools.groupby(points)]


@pytest.fixture
def diag_pca():
    return PcaProblem(np.diag([3.0, 1.0]))


@pytest.fixture
def pca3():
    return PcaProblem(np.diag([3.0, 1.0, 0.5]))


@pytest.fixture
def simple_saddle():
    return QuadraticSaddle(np.diag([-1.0, 1.0]))


@pytest.fixture
def convex2():
    return EuclideanQuadratic(np.eye(2))
