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
