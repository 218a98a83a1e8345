import numpy as np
import pytest

from dyboltz.kernel import KernelParams, QuadratureSpec, eigenvalue_table

QUAD = QuadratureSpec()


@pytest.fixture(scope="session")
def table_factory():
    """Session-cached eigenvalue tables keyed by (s, nmax, lmax)."""
    cache = {}

    def get(s: float, nmax: int, lmax: int):
        key = (s, nmax, lmax)
        if key not in cache:
            cache[key] = eigenvalue_table(nmax, lmax, KernelParams(s=s), QUAD)
        return cache[key]

    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(20250809)
