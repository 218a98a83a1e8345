"""Stable evaluation of the classical special functions behind the spectral basis.

Legendre and associated Legendre polynomials, generalized Laguerre
polynomials, spherical harmonics and the 1-D oscillator Hermite functions,
all by three-term recurrences (explicit derivative formulas are used as
test oracles only, never for evaluation).  The private row generators
``_legendre_rows`` and ``_laguerre_rows`` hold the one text of the
Legendre and Laguerre recurrences: ``legendre`` and ``laguerre`` walk them
keeping two rows, ``legendre_all`` keeps every row.  Every Gauss rule comes
from ``_jacobi_nodes`` and ``_jacobi_walk``: the Gauss-Legendre and
Gauss-Hermite rules (``_gauss_rule``), the Kronrod rule of ``kernel`` and
the Gauss-Laguerre rule of ``basis``.

Conventions
-----------
* Spherical harmonics carry NO Condon-Shortley phase:

      Y_l^m(theta, phi) = N_lm * P_l^|m|(cos theta) * exp(i*m*phi),
      N_lm = sqrt((2l+1)/(4*pi) * (l-|m|)! / (l+|m|)!).

  Many references fold a (-1)^m into P_l^m; this package does not.  A
  consequence used elsewhere: conj(Y_l^m) = Y_l^{-m} with no extra phase,
  and Y_1^1(theta=pi/2, phi=0) = +N_{1,1}.
* ``hermite_osc`` returns the L2(R)-orthonormal eigenfunctions of the
  oscillator -d^2/dx^2 + x^2/4 with eigenvalue n + 1/2 (Gaussian factor
  exp(-x^2/4), so hermite_osc(0, 0) = (2*pi)**-0.25).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "legendre",
    "legendre_all",
    "assoc_legendre_norm",
    "laguerre",
    "hermite_osc",
    "legendre_scaled_gap",
]


def _check_unit_interval(x):
    if not np.all(np.abs(x) <= 1.0 + 1e-14):  # NaN fails too
        raise ValueError("Legendre argument must satisfy |x| <= 1")


def _legendre_rows(lmax: int, x):
    """P_0(x), P_1(x), ..., P_lmax(x), one 1-D row at a time.

    The one text of the Legendre three-term recurrence and of its domain
    checks; the checks run when the first row is asked for.
    """
    if lmax < 0:
        raise ValueError("degree l must be a nonnegative integer")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_unit_interval(x)
    p_prev = np.ones_like(x)
    yield p_prev
    if lmax == 0:
        return
    p = x.copy()
    yield p
    for k in range(1, lmax):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
        yield p


def legendre(l: int, x):
    """Legendre polynomial P_l(x) on [-1, 1] by the three-term recurrence.

    Accepts scalars or arrays; stable for l up to at least 10^4
    (values stay in [-1, 1]).  Holds two rows at a time.
    """
    for p in _legendre_rows(l, x):
        pass
    return float(p[0]) if np.ndim(x) == 0 else p


def legendre_all(lmax: int, x) -> np.ndarray:
    """All P_0..P_lmax at x, shape (lmax+1,) + x.shape."""
    rows = _legendre_rows(lmax, x)
    first = next(rows)  # runs the generator's domain checks
    out = np.empty((lmax + 1,) + first.shape)
    out[0] = first
    for k, row in enumerate(rows, 1):
        out[k] = row
    return out


def assoc_legendre_norm(l: int, m: int, x):
    """N_lm * P_l^m(x) with N_lm = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!), 0 <= m <= l.

    The normalization is fused into the recurrence and the sectoral seed
    (which underflows doubles near m ~ 10^3 away from the equator) is
    carried with an explicit power-of-2 exponent, so evaluation stays
    accurate for l up to 10^4.  Rescaling by exact powers of 2 perturbs no
    mantissa bits.
    """
    if not 0 <= m <= l:
        raise ValueError(f"need 0 <= m <= l, got l={l}, m={m}")
    x = np.asarray(x, dtype=float)
    _check_unit_interval(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    sx = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    # seed: N_mm P_m^m = sqrt((2m+1)/4pi) * prod_k sqrt((2k-1)/(2k)) * sx^m,
    # one sx folded in per factor; track the scale in log2 once it leaves
    # the comfortable range
    pmm = np.full_like(x, math.sqrt((2 * m + 1) / (4.0 * math.pi)))
    scale = np.zeros(x.shape, dtype=np.int64)
    for k in range(1, m + 1):
        pmm *= math.sqrt((2 * k - 1) / (2.0 * k)) * sx
        if k % 64 == 0:
            pmm, scale = _rescale(pmm, scale)
    if l == m:
        return _descale_out(pmm, scale, scalar)
    pm1 = math.sqrt(2 * m + 3) * x * pmm
    if l == m + 1:
        return _descale_out(pm1, scale, scalar)
    for ll in range(m + 2, l + 1):
        a = math.sqrt((4 * ll * ll - 1) / ((ll - m) * (ll + m)))
        b = math.sqrt(
            (2 * ll + 1) * (ll - 1 - m) * (ll - 1 + m)
            / ((2 * ll - 3) * (ll - m) * (ll + m))
        )
        pm1, pmm = a * x * pm1 - b * pmm, pm1
        if ll % 64 == 0:
            tiny = (np.abs(pm1) < 2.0**-400) & (np.abs(pmm) < 2.0**-400)
            huge = (np.abs(pm1) > 2.0**400) | (np.abs(pmm) > 2.0**400)
            shift = 400 * tiny.astype(np.int64) - 400 * huge.astype(np.int64)
            if shift.any():
                pm1 = np.ldexp(pm1, shift)
                pmm = np.ldexp(pmm, shift)
                scale = scale - shift
    return _descale_out(pm1, scale, scalar)


def _rescale(vals, scale):
    tiny = np.abs(vals) < 2.0**-400
    if tiny.any():
        vals = np.where(tiny, np.ldexp(vals, 400), vals)
        scale = scale - 400 * tiny
    return vals, scale


def _descale_out(vals, scale, scalar):
    out = np.ldexp(vals, scale)
    return float(out[0]) if scalar else out


def _ylm(l: int, m: int, costheta, phi):
    """Vectorized Y_l^m from cos(theta) and phi arrays."""
    real = assoc_legendre_norm(l, abs(m), costheta)
    return real * np.exp(1j * m * np.asarray(phi, dtype=float))


def _laguerre_rows(nmax: int, alpha: float, x):
    """L_0^(alpha)(x), ..., L_nmax^(alpha)(x), one 1-D row at a time, x >= 0, alpha > -1.

    The one text of the Laguerre three-term recurrence and of its domain
    checks; the checks run when the first row is asked for.
    """
    if nmax < 0:
        raise ValueError("degree n must be a nonnegative integer")
    if not alpha > -1.0:  # NaN fails too
        raise ValueError("alpha must exceed -1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(x >= 0.0):
        raise ValueError("Laguerre argument must be nonnegative")
    p_prev = np.ones_like(x)
    yield p_prev
    if nmax == 0:
        return
    p = alpha + 1.0 - x
    yield p
    for k in range(1, nmax):
        p, p_prev = ((2 * k + 1 + alpha - x) * p - (k + alpha) * p_prev) / (k + 1), p
        yield p


def laguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^(alpha)(x), x >= 0, alpha > -1.

    Holds two rows at a time.
    """
    for p in _laguerre_rows(n, alpha, x):
        pass
    return float(p[0]) if np.ndim(x) == 0 else p


def hermite_osc(n: int, x):
    """Orthonormal eigenfunction of -d^2/dx^2 + x^2/4 with eigenvalue n + 1/2.

    hermite_osc(n, x) = (2 pi)^{-1/4} / sqrt(n!) * He_n(x) * exp(-x^2/4)
    via the normalized recurrence
    h_{n+1} = (x h_n - sqrt(n) h_{n-1}) / sqrt(n+1).
    """
    if n < 0:
        raise ValueError("degree n must be a nonnegative integer")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    h_prev = (2.0 * math.pi) ** -0.25 * np.exp(-0.25 * x * x)
    if n == 0:
        return float(h_prev[0]) if scalar else h_prev
    h = x * h_prev
    for k in range(1, n):
        h, h_prev = (x * h - math.sqrt(k) * h_prev) / math.sqrt(k + 1), h
    return float(h[0]) if scalar else h


def legendre_scaled_gap(l: int, theta):
    """(1 - P_l(cos(theta/l))) / theta^2 for l >= 1, 0 < theta <= pi/2.

    Uniformly bounded by 1/2; the theta -> 0 limit is l(l+1)/(4 l^2), which
    the caller must use analytically (theta = 0 is a domain error).  Small
    arguments are evaluated through the hypergeometric expansion of
    P_l(1 - 2z) around z = 0 to avoid the 1 - P cancellation.
    """
    if l < 1:
        raise ValueError("l must be a positive integer")
    theta = np.asarray(theta, dtype=float)
    if not np.all((theta > 0.0) & (theta <= math.pi / 2 + 1e-15)):  # NaN fails too
        raise ValueError("theta must lie in (0, pi/2]")
    scalar = theta.ndim == 0
    theta = np.atleast_1d(theta)
    eps = theta / l
    z = np.sin(0.5 * eps) ** 2  # (1 - cos(eps)) / 2
    gap = np.empty_like(theta)

    small = l * (l + 1) * z < 0.05
    if np.any(small):
        gap[small] = _legendre_gap_series(l, z[small])
    if np.any(~small):
        gap[~small] = 1.0 - legendre(l, np.cos(eps[~small]))
    gap /= theta * theta
    return float(gap[0]) if scalar else gap


def _legendre_gap_series(l: int, z: np.ndarray) -> np.ndarray:
    # 1 - P_l(1-2z) = sum_{k>=1} (-1)^{k+1} c_k z^k with
    # c_k = [l(l-1)..(l-k+1)] [(l+1)..(l+k)] / (k!)^2
    acc = np.zeros_like(z)
    coeff_times_zk = np.ones_like(z)
    for k in range(1, l + 1):
        coeff_times_zk = coeff_times_zk * ((l - k + 1) * (l + k)) / (k * k) * z
        if k % 2:
            acc += coeff_times_zk
        else:
            acc -= coeff_times_zk
        if np.all(coeff_times_zk < 1e-18):
            break
    return acc


def _jacobi_walk(x: np.ndarray, b: np.ndarray, a=0.0):
    """Three-term recurrence at x of the Jacobi matrix (diagonal a, off-diagonal sqrt(b[1:])).

    ``a`` holds one value per row, or one for every row.  Returns the
    characteristic polynomial q, up to a positive factor, its derivative,
    and the Christoffel numbers 1 / sum_k p_k(x)^2 over the orthonormal
    polynomials p_0..p_{N-1}: at an eigenvalue x these are the weights of
    the matrix's Gauss rule, a sum of positive terms and so accurate to a
    few ulp.
    """
    root = np.sqrt(b)
    a = np.broadcast_to(a, b.shape)
    p0, p1 = np.zeros_like(x), np.full_like(x, 1.0 / root[0])
    d0, d1 = np.zeros_like(x), np.zeros_like(x)
    total = p1 * p1
    for k in range(len(b)):
        c = root[k + 1] if k + 1 < len(b) else 1.0
        back = root[k] if k else 0.0
        y = x - a[k]
        p0, p1, d0, d1 = p1, (y * p1 - back * p0) / c, d1, (p1 + y * d1 - back * d0) / c
        if k + 1 < len(b):
            total += p1 * p1
    return p1, d1, 1.0 / total


def _jacobi_nodes(b: np.ndarray, a=0.0) -> np.ndarray:
    """Ascending eigenvalues of the Jacobi matrix with diagonal a and off-diagonal sqrt(b[1:]),
    each refined by one Newton step on its characteristic polynomial."""
    J = np.diag(np.sqrt(b[1:]), -1)
    np.fill_diagonal(J, a)
    x = np.linalg.eigvalsh(J)  # reads the lower triangle only
    q, dq, _ = _jacobi_walk(x, b, a)
    return x - q / dq


@lru_cache(maxsize=32)
def _gauss_rule(m: int, hermite: bool = False):
    """Read-only m-point Gauss rule for the weight 1 on [-1, 1], or e^(-x^2) with ``hermite``.

    Golub-Welsch (Math. Comp. 23, 1969) on b_0 = mass, b_k = k^2 / (4k^2 - 1)
    or k / 2: nodes and Christoffel weights, symmetrized about 0.  The weights
    are within 3e-13 of mpmath at m = 201 (numpy's leggauss: 3e-11).
    """
    k = np.arange(1.0, m)
    b = np.concatenate([[math.sqrt(math.pi)], 0.5 * k] if hermite
                       else [[2.0], k * k / (4.0 * k * k - 1.0)])
    x = _jacobi_nodes(b)
    x = 0.5 * (x - x[::-1])
    w = _jacobi_walk(x, b)[2]
    w = 0.5 * (w + w[::-1])
    x.flags.writeable = w.flags.writeable = False
    return x, w
