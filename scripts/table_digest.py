"""Print a SHA-256 digest of every eigenvalue case that must stay bit-identical.

Each case maps to the SHA-256 of ``lams.tobytes() + errs.tobytes()``: a
table's two arrays, a radial build with its error column left empty, or a
single entry as one-element arrays.  A case that raises
``QuadratureConvergenceError`` digests its failing ``pairs`` (as floats) and
their ``partial`` sums in the same way.  The output is one JSON object, so a
change that should leave eigenvalues untouched is checked by diffing two runs:

    PYTHONPATH=/path/to/old/src python3 scripts/table_digest.py > old.json
    PYTHONPATH=src python3 scripts/table_digest.py > new.json
    diff old.json new.json

The 45 cases are 201x201 and 49x49 tables and the entries (10^6, 0),
(120, 41), (5, 3), (2, 0), (0, 0) at s = 0.2, 0.5, 1, 2 and 4; 201x201
tables built with ``workers=2`` at s = 0.5 and 2, large enough for the
process pool (``kernel._POOL_ENTRIES``), whose digests equal the serial
ones; radial builds to n = 10^4 at the same five s (at s = 0.5 their rows
stop at panels 25-27, where cos theta rounds to 1); and three builds that
stop at ``max_panels``.  s = 0.2 lies below the documented range; its cases
show the deep panels, where the integrand's mass sits.  A full run takes
about 2.5 seconds on a two-core Xeon.  ``tests/golden/table_sha256.json``
records this output, and a tier-1 test checks its cheap cases.
"""

import hashlib
import json

import numpy as np

from dyboltz.errors import QuadratureConvergenceError
from dyboltz.kernel import (KernelParams, QuadratureSpec, eigenvalue,
                            eigenvalue_table, radial_eigenvalues)

S_VALUES = (0.2, 0.5, 1.0, 2.0, 4.0)
ENTRIES = ((10**6, 0), (120, 41), (5, 3), (2, 0), (0, 0))


def _sha(lams, errs) -> str:
    lams, errs = (np.ascontiguousarray(a, dtype=float) for a in (lams, errs))
    return hashlib.sha256(lams.tobytes() + errs.tobytes()).hexdigest()


def _table(nmax, lmax, s, quad=QuadratureSpec(), workers=1):
    tab = eigenvalue_table(nmax, lmax, KernelParams(s=s), quad, workers=workers)
    return _sha(tab.lams, tab.errs)


def _entry(n, l, s, quad=QuadratureSpec()):
    e = eigenvalue(n, l, KernelParams(s=s), quad)
    return _sha([e.lam], [e.err])


def _failure(build):
    try:
        build()
    except QuadratureConvergenceError as exc:
        return _sha(np.array(exc.pairs, dtype=float),
                    [exc.partial[p] for p in exc.pairs])
    raise AssertionError("expected QuadratureConvergenceError")


def cases():
    """(name, thunk) for every case, in a fixed order."""
    for s in S_VALUES:
        for size in (200, 48):
            yield f"table {size + 1}x{size + 1} s={s}", lambda s=s, k=size: _table(k, k, s)
        if s in (0.5, 2.0):
            yield f"table 201x201 workers=2 s={s}", lambda s=s: _table(200, 200, s, workers=2)
        for n, l in ENTRIES:
            yield f"entry ({n},{l}) s={s}", lambda s=s, n=n, l=l: _entry(n, l, s)
    for s in S_VALUES:
        yield (f"radial 10001 s={s}",
               lambda s=s: _sha(radial_eigenvalues(10_000, KernelParams(s=s)), []))
    yield "error table 5x2 s=1.0 max_panels=2", lambda: _failure(
        lambda: eigenvalue_table(4, 1, KernelParams(s=1.0), QuadratureSpec(max_panels=2)))
    yield "error table 31x31 s=2.0 max_panels=3", lambda: _failure(
        lambda: eigenvalue_table(30, 30, KernelParams(s=2.0), QuadratureSpec(max_panels=3)))
    yield "error entry (5,0) s=1.0 max_panels=3", lambda: _failure(
        lambda: eigenvalue(5, 0, KernelParams(s=1.0), QuadratureSpec(max_panels=3)))


def main():
    print(json.dumps({name: thunk() for name, thunk in cases()}, indent=1))


if __name__ == "__main__":
    main()
