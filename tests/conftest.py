import sys

import numpy as np
import pytest

from dyboltz.kernel import CODE_VERSION, KernelParams, QuadratureSpec, eigenvalue_table

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


@pytest.fixture()
def running_with():
    """What a digest golden names in ``recorded_with``, as this run has it, printed.

    Besides the versions, ``cpu_dispatch`` lists the SIMD targets numpy
    dispatches to here: its exp, expm1, log and log1p round differently on
    some inputs from one target to another, and the kernel takes all four.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    now = {"code_version": CODE_VERSION, "numpy": np.__version__,
           "python": sys.version.split()[0],
           "cpu_dispatch": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]}
    print(f"running with {now}")
    return now
