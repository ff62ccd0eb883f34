import numpy as np
import pytest

from tracegeo import matcore
from tracegeo.verify import random_invertible, random_spd, random_unimodular


@pytest.fixture(autouse=True)
def _forget_the_last_cut():
    """Each test starts with an empty singular-cut memo, so its SVD counts do not depend on which
    matrices earlier tests passed."""
    matcore._passed[0] = None


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def unit(n, i, j):
    E = np.zeros((n, n))
    E[i, j] = 1.0
    return E


@pytest.fixture
def basis2():
    """Handy n=2 tangent vectors: D1, E12, E21, S12, A12."""
    r2 = np.sqrt(2.0)
    return {
        "D1": np.diag([1.0, 0.0]),
        "E12": unit(2, 0, 1),
        "E21": unit(2, 1, 0),
        "S12": (unit(2, 0, 1) + unit(2, 1, 0)) / r2,
        "A12": (unit(2, 0, 1) - unit(2, 1, 0)) / r2,
    }


__all__ = ["random_invertible", "random_spd", "random_unimodular", "unit"]
