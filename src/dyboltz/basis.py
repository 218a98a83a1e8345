"""The orthonormal eigenbasis: pointwise evaluation, Fourier transforms,
null-space projection and numerical inner products.

Basis functions are indexed by (n, l, m) with n, l >= 0 and |m| <= l:

    phi_{n,l,m}(v) = sqrt(n! / (sqrt(2) Gamma(n+l+3/2)))
                     * (|v|/sqrt(2))^l * exp(-|v|^2/4)
                     * L_n^(l+1/2)(|v|^2/2) * Y_l^m(v/|v|),

an orthonormal basis of L^2(R^3) and eigenbasis of the oscillator
-Laplace + |v|^2/4 with eigenvalue 2n + l + 3/2.  The five modes with
n + l <= 1 span the collision-invariant null space.

Conventions
-----------
* Spherical axis: the polar axis of Y_l^m is the FIRST Cartesian axis
  (direction vector (cos theta, sin theta cos phi, sin theta sin phi)).
* Fourier transform: g^(xi) = int exp(-i v.xi) g(v) dv, so the Gaussian
  sqrt(mu) phi_{0,0,0} = mu transforms to exp(-|xi|^2/2).
* A SpectralField is two arrays: the distinct (n, l, m) of its modes and
  their complex amplitudes; every other amplitude is zero.  It synthesizes
  a real-valued function iff c_{n,l,-m} = conj(c_{n,l,m}) (no extra phase
  under the bare Y_l^m convention).
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ResolutionError
from .specfun import (_gauss_rule, _jacobi_nodes, _jacobi_walk, _ylm, assoc_legendre_norm,
                      laguerre)

__all__ = [
    "ModeIndex",
    "SpectralField",
    "eval_phi",
    "fourier_sqrtmu_phi",
    "project_null",
    "inner_product_numeric",
    "orthonormality_max_deviation",
    "oscillator_residual",
]


class ModeIndex(NamedTuple):
    n: int
    l: int
    m: int

    def validate(self) -> "ModeIndex":
        if not all(isinstance(x, (int, np.integer)) for x in self):
            raise ValueError(f"n, l and m must be integers, got {self}")
        if self.n < 0 or self.l < 0:
            raise ValueError(f"n and l must be nonnegative, got {self}")
        if abs(self.m) > self.l:
            raise ValueError(f"|m| must not exceed l, got {self}")
        return self


class SpectralField:
    """Complex amplitudes on finitely many distinct modes, plus a provenance label.

    ``coeffs`` is a mapping {(n, l, m): amplitude} or a pair (modes,
    amplitudes).  They are stored as read-only arrays in the order given:
    ``nlm``, of shape (count, 3) and dtype int64, and the complex ``amps``.
    """

    def __init__(self, coeffs, label: str = ""):
        modes, amps = (list(coeffs), list(coeffs.values())) if hasattr(coeffs, "keys") else coeffs
        self.nlm, self.amps = _checked(modes, amps)
        self.label = label

    @property
    def coeffs(self):
        """A read-only {ModeIndex: amplitude} view, built from the arrays."""
        return MappingProxyType(dict(zip(map(ModeIndex._make, self.nlm.tolist()),
                                         self.amps.tolist())))

    def amplitude(self, mode) -> complex:
        hit = np.flatnonzero((self.nlm == mode).all(axis=1))
        return complex(self.amps[hit[0]]) if hit.size else 0j

    def _norm(self, weight=1.0) -> float:
        """sqrt(sum weight |amplitude|^2); a sum past the double range is inf.

        Only the modes with a nonzero |amplitude|^2 add a term, so a zero
        amplitude under an infinite weight adds 0, not inf * 0 = NaN.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            sq = self.amps.real ** 2 + self.amps.imag ** 2
            return math.sqrt(float(np.sum(np.where(sq > 0.0, weight * sq, 0.0))))

    def l2_norm(self) -> float:
        return self._norm()

    def modes(self):
        return list(map(ModeIndex._make, self.nlm[np.lexsort(self.nlm.T[::-1])].tolist()))

    def inner(self, other: "SpectralField") -> complex:
        """L2 pairing sum_m c_m conj(d_m) over shared modes."""
        i, j = _repeats(np.concatenate((self.nlm, other.nlm)))
        return complex(np.sum(self.amps[i] * other.amps[j - len(self.amps)].conj()))

    def to_json(self) -> str:
        order = np.lexsort(self.nlm.T[::-1])  # rows in (n, l, m) order
        amps = self.amps[order]
        rows = list(zip(*self.nlm[order].T.tolist(), amps.real.tolist(), amps.imag.tolist()))
        return json.dumps({"label": self.label, "rows": rows},
                          separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SpectralField":
        doc = json.loads(text)
        if set(map(len, doc["rows"])) - {5}:
            raise ValueError("each row must be [n, l, m, re, im]")
        n, l, m, re, im = tuple(zip(*doc["rows"])) or ((),) * 5
        return cls((list(zip(n, l, m)), list(map(complex, re, im))), label=doc.get("label", ""))


def _repeats(nlm):
    """(i, j), i < j, for each two equal rows of ``nlm`` that neighbour in (n, l, m) order."""
    order = np.lexsort(nlm.T[::-1])
    same = (nlm[order[1:]] == nlm[order[:-1]]).all(axis=1)
    return np.sort([order[:-1][same], order[1:][same]], axis=0)


def _checked(modes, amps):
    """Read-only int64 modes and complex amplitudes, or a ValueError naming the first
    mode with a bad index (as ``ModeIndex.validate``), a non-finite amplitude or a repeat."""
    nlm = np.array(modes).reshape(len(modes), 3)
    if nlm.dtype.kind in "biu":  # integer indices: only the first out of range is validated
        n, l, m = nlm.T
        modes = nlm[(n < 0) | (l < 0) | (np.abs(m) > l)][:1].tolist()
    for mode in modes:  # ModeIndex.validate holds the index rules and their messages
        ModeIndex(*mode).validate()
    nlm, amps = nlm.astype(np.int64, copy=False), np.array(amps, dtype=complex).reshape(len(nlm))
    if not np.isfinite(amps).all():
        i = int(np.argmin(np.isfinite(amps)))
        raise ValueError(f"amplitude of mode {tuple(nlm[i].tolist())} is not finite: "
                         f"{complex(amps[i])}")
    later = _repeats(nlm)[1]
    if later.size:
        raise ValueError(f"mode {tuple(nlm[later.min()].tolist())} is repeated")
    nlm.flags.writeable = amps.flags.writeable = False
    return nlm, amps


def _radial_norm_const(n: int, l: int) -> float:
    # sqrt(n! / (sqrt(2) Gamma(n+l+3/2))) in log space
    return math.exp(0.5 * math.lgamma(n + 1) - 0.5 * math.lgamma(n + l + 1.5)
                    - 0.25 * math.log(2.0))


def _points(v):
    """(whether v is one point, the points as rows, their norms); raises on a non-finite point."""
    v = np.asarray(v, dtype=float)
    pts = np.atleast_2d(v)
    if not np.isfinite(pts).all():
        raise ValueError("every point component must be finite")
    return v.ndim == 1, pts, np.linalg.norm(pts, axis=-1)


def _ylm_at(l: int, m: int, pts, nz, r):
    """Y_l^m at the directions of the points ``pts[nz]``, of norms ``r`` > 0 (first axis polar)."""
    return _ylm(l, m, np.clip(pts[nz, 0] / r, -1.0, 1.0), np.arctan2(pts[nz, 2], pts[nz, 1]))


def eval_phi(mode, v):
    """phi_{n,l,m} at one or many points of R^3 (last axis = components)."""
    n, l, m = ModeIndex(*mode).validate()
    single, pts, r = _points(v)
    out = np.zeros(len(pts), dtype=complex)

    const = _radial_norm_const(n, l)
    nz = r > 0.0
    if np.any(nz):
        rr = r[nz]
        radial = const * (rr / math.sqrt(2.0)) ** l * np.exp(-0.25 * rr * rr) \
            * laguerre(n, l + 0.5, 0.5 * rr * rr)
        out[nz] = radial * _ylm_at(l, m, pts, nz, rr)
    if np.any(~nz):
        # only l = 0 modes are nonzero at the origin (|v|^l factor)
        if l == 0:
            out[~nz] = const * laguerre(n, 0.5, 0.0) / math.sqrt(4.0 * math.pi)
    return out[0] if single else out


def fourier_sqrtmu_phi(mode, xi):
    """Closed-form transform of sqrt(mu) phi_{n,l,m} at frequency xi.

    Equals (-i)^l (2 pi)^(3/4) (sqrt(2) n! Gamma(n+l+3/2))^(-1/2)
    (|xi|/sqrt(2))^(2n+l) exp(-|xi|^2/2) Y_l^m(xi/|xi|); for the ground mode
    this is exp(-|xi|^2/2), the transform of the Maxwellian itself.
    """
    n, l, m = ModeIndex(*mode).validate()
    single, pts, r = _points(xi)
    out = np.zeros(len(pts), dtype=complex)

    K = 2 * n + l
    const = (2.0 * math.pi) ** 0.75 * math.exp(
        -0.25 * math.log(2.0) - 0.5 * math.lgamma(n + 1) - 0.5 * math.lgamma(n + l + 1.5)
    ) * (-1j) ** l

    nz = r > 0.0
    if np.any(nz):
        rr = r[nz]
        out[nz] = const * (rr / math.sqrt(2.0)) ** K * np.exp(-0.5 * rr * rr) \
            * _ylm_at(l, m, pts, nz, rr)
    if np.any(~nz) and K == 0:
        out[~nz] = const / math.sqrt(4.0 * math.pi)
    return out[0] if single else out


def project_null(field: SpectralField, keep: str) -> SpectralField:
    """Orthogonal projection onto the collision-invariant span (n + l <= 1).

    keep='null' returns P g (the five modes phi_{0,0,0}, phi_{1,0,0},
    phi_{0,1,-1..1}); keep='orthogonal' returns (I - P) g.  The two parts
    sum to the input and the projection is idempotent.
    """
    if keep not in ("null", "orthogonal"):
        raise ValueError("keep must be 'null' or 'orthogonal'")
    mask = (field.nlm[:, 0] + field.nlm[:, 1] <= 1) == (keep == "null")
    return SpectralField((field.nlm[mask], field.amps[mask]), label=field.label)


_MIN_NODES = 64  # the least size of each rule of the inner products below


def _sphere_gram(sph_modes, n_theta: int, n_phi: int) -> np.ndarray:
    """<Y_a, Y_b> over the (l, m) pairs ``sph_modes``: n_theta-point Gauss-Legendre
    in cos(theta) times the uniform n_phi-point rule in phi, exact for the pairs
    with l_a + l_b < 2 n_theta and |m_a - m_b| < n_phi.

    The rule is a tensor product and Y_l^m = N P_l^|m|(cos theta) e^(i m phi),
    so the Gram matrix is the elementwise product of a theta Gram over the
    P rows and a phi Gram over the e^(i m phi) rows; no array holds every
    mode at every node of the sphere.
    """
    x, w = _gauss_rule(n_theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    P = np.array([assoc_legendre_norm(l, abs(m), x) for l, m in sph_modes])
    E = np.array([np.exp(1j * m * phi) for _, m in sph_modes])
    return ((P * w) @ P.T) * ((E * (2.0 * math.pi / n_phi)) @ E.conj().T)


@lru_cache(maxsize=128)
def _laguerre_rule(n_radial: int, alpha: float):
    """Read-only n_radial-point Gauss rule for the weight u^alpha e^(-u) on (0, inf).

    Golub-Welsch on the Jacobi matrix with diagonal 2k + alpha + 1,
    b_0 = Gamma(alpha + 1) and b_k = k (k + alpha): nodes and Christoffel
    weights.  Tail weights below the double range round to 0.  Raises
    ResolutionError when a node or weight is not finite: the orthonormal
    Laguerre values at the nodes overflow from n_radial = 364 on
    (alpha = 0.5), and Gamma(alpha + 1) does for alpha >= 170.  One rule per
    (n_radial, alpha): a Gram scan over l <= lmax asks for 2 lmax + 1
    distinct alphas but (lmax + 1)^2 (nmax + 1)^2 / 2 pair integrals.
    """
    if n_radial < 1:
        raise ValueError(f"n_radial must be positive, got {n_radial}")
    k = np.arange(1.0, n_radial)
    b = np.concatenate([[math.gamma(alpha + 1.0) if alpha < 170.0 else math.inf],
                        k * (k + alpha)])
    diag = 2.0 * np.arange(n_radial) + alpha + 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # raises below
        u = _jacobi_nodes(b, diag)
        w = _jacobi_walk(u, b, diag)[2]
    if not (np.isfinite(u).all() and np.isfinite(w).all()):
        raise ResolutionError(f"Gauss-Laguerre rule n_radial={n_radial}, alpha={alpha} "
                              "leaves the double range: a node or weight is not finite")
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _radial_factor(n: int, l: int, lsum: int, n_radial: int) -> np.ndarray:
    """L_n^(l+1/2) at the nodes of the rule for the pairs with la + lb = lsum."""
    return laguerre(n, l + 0.5, _laguerre_rule(n_radial, 0.5 * (lsum + 1))[0])


def _radial_pair_integral(na, la, nb, lb, n_radial: int, factor=_radial_factor) -> float:
    """int_0^inf r^2 R_a R_b dr via generalized Gauss-Laguerre in u = r^2/2.

    ``factor`` gives the Laguerre values at the nodes; a Gram scan passes a
    memoised ``_radial_factor``, since each one recurs across many pairs.
    Raises ResolutionError when the value is not finite (at l = 0 the
    Laguerre products overflow from n between 180 and 190).
    """
    _, w = _laguerre_rule(n_radial, 0.5 * (la + lb + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
        vals = factor(na, la, la + lb, n_radial) * factor(nb, lb, la + lb, n_radial)
        dot = float(np.dot(w, vals))
    value = _radial_norm_const(na, la) * _radial_norm_const(nb, lb) * math.sqrt(2.0) * dot
    if not math.isfinite(value):
        raise ResolutionError(f"radial integral of ({na}, {la}) and ({nb}, {lb}) on "
                              f"n_radial={n_radial} leaves the double range")
    return value


def inner_product_numeric(mode_a, mode_b) -> complex:
    """<phi_a, phi_b> by tensorized radial x spherical quadrature.

    Generalized Gauss-Laguerre in u = r^2/2 times Gauss-Legendre in
    cos(theta) times a uniform azimuthal rule, each sized from the modes to
    be exact, with at least ``_MIN_NODES`` nodes.  Raises ResolutionError
    when the radial rule or integral leaves the double range.
    """
    a = ModeIndex(*mode_a).validate()
    b = ModeIndex(*mode_b).validate()
    radial = _radial_pair_integral(a.n, a.l, b.n, b.l,
                                   max(_MIN_NODES, (a.n + b.n) // 2 + 1))
    sphere = _sphere_gram([(a.l, a.m), (b.l, b.m)], max(_MIN_NODES, (a.l + b.l) // 2 + 1),
                          max(_MIN_NODES, abs(a.m) + abs(b.m) + 1))[0, 1]
    return radial * complex(sphere)


def orthonormality_max_deviation(nmax: int, lmax: int) -> float:
    """max |<phi_a, phi_b> - delta_ab| over all modes with n <= nmax, l <= lmax.

    Separable form: the Gram matrix factors into a radial-pair matrix over
    (n, l) and a spherical Gram over (l, m), so the full scan over
    ((nmax+1) * sum(2l+1))^2 pairs costs two small matrices, on rules
    sized as ``inner_product_numeric`` sizes them for the largest pair.
    The full Gram matrix is never formed: each row is multiplied out from
    the two factors and reduced to its largest deviation in turn.
    """
    n_radial = max(_MIN_NODES, nmax + 1)
    sph_modes = [(l, m) for l in range(lmax + 1) for m in range(-l, l + 1)]
    sphere_gram = _sphere_gram(sph_modes, max(_MIN_NODES, lmax + 1),
                               max(_MIN_NODES, 2 * lmax + 1))

    rad_modes = [(n, l) for n in range(nmax + 1) for l in range(lmax + 1)]
    R = np.empty((len(rad_modes), len(rad_modes)))
    for lsum in range(2 * lmax + 1):
        # the pairs with la + lb = lsum share one rule: each factor once on it,
        # and only one rule's factors held at a time
        factor = lru_cache(maxsize=None)(_radial_factor)
        for la in range(max(0, lsum - lmax), min(lsum, lmax) + 1):
            lb = lsum - la
            for na, nb in itertools.product(range(nmax + 1), repeat=2):
                i, j = na * (lmax + 1) + la, nb * (lmax + 1) + lb  # rad_modes indices
                if j <= i:
                    R[i, j] = R[j, i] = _radial_pair_integral(na, la, nb, lb, n_radial, factor)

    # mode i is (n, *sph_modes[si]); ri is the rad_modes index of its (n, l)
    n, si = np.divmod(np.arange((nmax + 1) * len(sph_modes)), len(sph_modes))
    ri = n * (lmax + 1) + np.array(sph_modes)[si, 0]
    worst = 0.0
    for i, (a, b) in enumerate(zip(ri, si)):  # one row of the Gram matrix at a time
        row = R[a, ri] * sphere_gram[b, si]
        row[i] -= 1.0
        worst = max(worst, float(np.max(np.abs(row))))
    return worst


# 6th-order central second-difference stencil and its step
_D2_OFFSETS = np.array([-3, -2, -1, 0, 1, 2, 3])
_D2_COEFFS = np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])
_D2_STEP = 1e-2


def oscillator_residual(mode, points) -> float:
    """max_p |(-Lap + |v|^2/4) phi - (2n+l+3/2) phi| / max(1, |phi|).

    The Laplacian uses 6th-order central differences with step
    ``_D2_STEP``; points must stay away from |v| = 0 when l > 0 (the |v|^l
    cusp breaks the stencil's smoothness assumption).
    """
    mode = ModeIndex(*mode).validate()
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if mode.l > 0 and np.any(np.linalg.norm(pts, axis=1) < 10 * _D2_STEP):
        raise ValueError("sample points too close to the origin for l > 0")
    center = eval_phi(mode, pts)
    lap = np.zeros_like(center)
    for axis in range(3):
        shifted = np.repeat(pts[None, :, :], len(_D2_OFFSETS), axis=0)
        shifted[:, :, axis] += _D2_STEP * _D2_OFFSETS[:, None]
        vals = eval_phi(mode, shifted.reshape(-1, 3)).reshape(len(_D2_OFFSETS), -1)
        lap += np.tensordot(_D2_COEFFS, vals, axes=1) / (_D2_STEP * _D2_STEP)
    r2 = np.einsum("ij,ij->i", pts, pts)
    eig = 2 * mode.n + mode.l + 1.5
    resid = np.abs(-lap + 0.25 * r2 * center - eig * center)
    return float(np.max(resid / np.maximum(1.0, np.abs(center))))
