"""Eigenvalues of the linearized collision operator for the Debye-Yukawa kernel.

Canonical kernel
----------------
The physics only pins the angular kernel up to two-sided constants, so this
package FIXES the canonical form

    beta(theta) = (sin theta)^(-1) * (log(1/sin theta))^(2/s - 1),
    0 < theta <= pi/4,  s > 0.

Every numeric constant in the package (the spectral gap ``lambda_{2,0}``,
ratio bounds, decay thresholds downstream) is relative to this choice.  For
s = 2 the gap has the closed form (2/3) * (1 - 2^(-3/2)).

Eigenvalues are

    lambda_{n,l} = int_0^{pi/4} beta(theta) * (1 + delta_{n0} delta_{l0}
                   - sin(theta)^K P_l(sin theta)
                   - cos(theta)^K P_l(cos theta)) dtheta,      K = 2n + l,

computed over geometrically graded dyadic panels [pi/4 * 2^-(j+1), pi/4 * 2^-j]
with fixed-order Gauss nodes per panel.  The integrand vanishes like
theta * log(1/theta)^(2/s-1) at 0 for n + l >= 2, so the grading converges;
each panel is also evaluated at doubled order for an error estimate, and
both orders sit side by side in one 48-column rule per panel by default.
Modes (0,0), (1,0), (0,1) have identically zero integrand and come out
exactly 0.

One loop computes every eigenvalue, a whole l-row at a time: it walks the
panels outward from pi/4, adds each panel to the running sums of the rows
still live, fixes a row at its stopping panel, and evaluates no panel once
every row has stopped.  A table build runs the Legendre recurrence once
for all its l-rows (once per contiguous l-block when parallel), and each
panel takes one bracket call for both rules.  The bracket folds its whole
block through expm1 and recomputes only the columns where
P_l(cos theta) <= 0, on the panels that have any.  A sin^K term with
K log sin theta < -700 is exactly 0: most terms of a table build are, and
numpy's exp would spend about 19 ns on each that underflows to 0 and over
100 ns on each subnormal, against 1.2 ns on a normal result (numpy 2.4 on
AVX-512).  The dropped terms are below 1e-304, so they move a bracket only
where cos theta rounds to 1, and there a panel sum only by a subnormal
amount that vanishes in the running sum.

Most of the remaining sin^K terms cannot change a bit either.  For a
non-null mode the cos part 1 - cos^K P_l(cos theta) is at least
sin^2 theta, the floor, so a term below e^-1 2^-64 of sin^2 theta_min is
under half an ulp of every bracket of its panel and is skipped.  The floor
bound is applied only on panels with sin^2 theta_min > 1e-10 (panels 0-15
by default), where the computed cos part provably keeps that floor; below
theta = 1.05e-8 cos theta rounds to 1 and the computed bracket is 0 or
negative, so the deep panels keep only the e^-700 rule.  At 201x201, s = 2,
the sin^K term is then evaluated on 0.5M of the 44.9M bracket elements
(9.1M under the e^-700 rule alone).  ``_bracket_rows`` gives the proof.
Parallel and serial builds produce bit-identical results because each
(n, l) entry is an independent deterministic computation.

The loop's fixed cost per panel is kept small: the bracket block is built
and weighted in place, the per-panel constants (log P_l(cos theta), the
sign-change columns, the cut points of the sin^K term) are computed for
all panels of a row at once, the two Gauss sums are direct
add-reductions, and the live rows are updated only on panels where some
row stops.  An in-place ufunc applies to each element the same operation
as the expression it replaces, so no bit moves.  A cache file and the
CLI's ``eigs`` output share one formatting pass per table: each float is
written by repr, once, which for a finite float is the text json.dumps
writes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CacheError, EigenvalueLookupError, QuadratureConvergenceError
from .specfun import legendre_all

__all__ = [
    "KernelParams",
    "QuadratureSpec",
    "EigenvalueEntry",
    "EigenvalueTable",
    "RatioBounds",
    "beta",
    "eigen_integrand",
    "eigenvalue",
    "lambda_gap",
    "eigenvalue_table",
    "radial_eigenvalues",
    "asymptotic_leading",
    "ratio_bounds",
    "save_table",
    "load_table",
]

# bump when the quadrature scheme changes; stale caches are rejected, never migrated
CODE_VERSION = "dyboltz-kernel-1"

THETA_MAX = math.pi / 4

NULL_MODES = ((0, 0), (1, 0), (0, 1))

# terminate panel accumulation once a panel contributes less than this
# fraction of the running tolerance (the dyadic tail then sits well inside it)
_PANEL_CUTOFF = 0.1

# a sin^K term whose exponent K log sin theta lies below this is taken as
# exactly 0: e^-700 ~ 1e-304 cannot move a sum of order lambda
_LOG_NEGLIGIBLE = -700.0

# the floor bound on the sin^K term (see _bracket_rows) is applied only on
# panels with sin^2 theta_min above this, where the computed bracket keeps
# its floor sin^2 theta
_LOG_FLOOR_GUARD = math.log(1e-10)

# log of 1 / (e 2^64): a term below this fraction of a bracket is far under
# half its ulp
_LOG_BELOW_HALF_ULP = 64.0 * math.log(2.0) + 1.0


@dataclass(frozen=True)
class KernelParams:
    """Debye-Yukawa exponent s > 0; the angular cutoff is pinned at pi/4."""

    s: float
    theta_max: float = THETA_MAX

    def __post_init__(self):
        if not self.s > 0.0:
            raise ValueError(f"kernel exponent s must be positive, got {self.s}")
        if self.theta_max != THETA_MAX:
            raise ValueError("theta_max is fixed at pi/4 for the canonical kernel")


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_panels: int = 72
    nodes_per_panel: int = 16

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("quadrature tolerances must be positive and finite")
        # the innermost panel starts at pi/4 * 2^-max_panels, which is a
        # positive normal double only up to max_panels = 1021; _panel_rules
        # solves leggauss(2 * nodes_per_panel), a dense eigenproblem, up front
        for name, lo, hi in (("max_panels", 1, 1021), ("nodes_per_panel", 8, 256)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and lo <= value <= hi):
                raise ValueError(f"{name} must be an integer from {lo} to {hi}")


def _check_eigenvalues(n, l, lam, err):
    """Raise ValueError at the first (n, l) that breaks an eigenvalue invariant.

    Every lambda and error estimate is finite, null modes (n + l <= 1) are
    exactly 0, every other lambda is positive and every error estimate is
    nonnegative.  Arguments broadcast, so one entry and a whole table are
    checked by the same code.
    """
    n, l, lam, err = (np.ravel(a) for a in np.broadcast_arrays(n, l, lam, err))
    null = n + l <= 1
    for bad, message in (
            (~(np.isfinite(lam) & np.isfinite(err)),
             "lambda and err must be finite for (n,l)=({n},{l}), got {lam} and {err}"),
            (null & (lam != 0.0), "null mode ({n},{l}) must have lambda = 0"),
            (~null & ~(lam > 0.0), "lambda must be positive for (n,l)=({n},{l}), got {lam}"),
            (~(err >= 0.0), "err estimate must be nonnegative for (n,l)=({n},{l}), "
                            "got {err}")):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(message.format(n=int(n[i]), l=int(l[i]),
                                            lam=float(lam[i]), err=float(err[i])))


@dataclass(frozen=True)
class EigenvalueEntry:
    n: int
    l: int
    lam: float
    err: float

    def __post_init__(self):
        _check_eigenvalues(self.n, self.l, self.lam, self.err)


def beta(theta, params: KernelParams):
    """Canonical angular kernel on (0, pi/4]; positive and finite there."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0) or np.any(theta > params.theta_max + 1e-15):
        raise ValueError("theta must lie in (0, pi/4]")
    scalar = theta.ndim == 0
    theta = np.atleast_1d(theta)
    sin = np.sin(theta)
    out = np.log(1.0 / sin) ** (2.0 / params.s - 1.0) / sin
    return float(out[0]) if scalar else out


_Panel = namedtuple("_Panel", "logsin logcos ps pc logpc neg live_k full_k")


def _panels(logsin, logcos, ps, pc):
    """The bracket inputs of each row (panel) of these node arrays, one by one.

    Besides its node values a panel carries log P_l(cos theta), taken as 0
    where P_l(cos theta) <= 0; the indices of those columns, or None when
    there are none; and the K cut points of the sin^K term that
    ``_bracket_rows`` describes.  ``full_k`` keeps a relative margin of 1e-9
    so that K log sin theta, rounded, still clears ``_LOG_NEGLIGIBLE``.  All
    panels are prepared in a few array operations and handed out lazily,
    since the panel loop stops at panel 18-27 of 72.
    """
    hi, lo = logsin.max(1), logsin.min(1)
    live_k = np.where(2.0 * lo > _LOG_FLOOR_GUARD, (2.0 * lo - _LOG_BELOW_HALF_ULP) / hi,
                      _LOG_NEGLIGIBLE / hi * (1.0 + 1e-9))
    full_k = _LOG_NEGLIGIBLE / lo * (1.0 - 1e-9)
    pos = pc > 0.0
    logpc = np.log(np.where(pos, pc, 1.0))
    for j, mixed in enumerate(~pos.all(1)):
        yield _Panel(logsin[j], logcos[j], ps[j], pc[j], logpc[j],
                     np.flatnonzero(~pos[j]) if mixed else None, live_k[j], full_k[j])


def _bracket_rows(K: np.ndarray, l: int, p: _Panel) -> np.ndarray:
    """1 + delta - sin^K P_l(sin) - cos^K P_l(cos) for each K at panel ``p``, stably.

    ``K`` holds 2n + l as floats in ascending order, one row each.  Near
    theta = 0 the cos term approaches 1, so the whole block is folded
    through -expm1(K log cos + log P_l(cos)), and only the columns where
    P_l(cos theta) <= 0 (``p.neg``, on the few panels that have any) are
    overwritten with 1 - cos^K P_l(cos).  Null-mode rows (K <= 2 - l, a
    prefix) are identically zero and are zeroed exactly.

    The sin^K P_l(sin) term is subtracted only by the rows with
    K <= ``p.live_k``, a prefix; every other row's term cannot change a bit:

    * A term whose exponent K log sin theta lies below ``_LOG_NEGLIGIBLE``
      is exactly 0, never e^-700.  The dropped terms are below 1e-304, so
      they move a bracket only where cos theta rounds to 1, and there a
      panel sum only by a subnormal amount that vanishes in the running sum.
    * The floor bound.  For a non-null row K >= 2, and |P_l| <= 1 with
      cos^K <= cos^2 gives 1 - cos^K P_l(cos theta) >= sin^2 theta, the
      floor.  A row with K max log sin < 2 min log sin - 64 ln 2 - 1
      therefore subtracts |term| < e^-1 2^-64 sin^2 theta_min, while a
      subtraction moves a double c only when the term reaches half an ulp
      below c, at least 2^-54 c.  So the row keeps c bit for bit, which is
      what subtracting the term would give.  The computed c must keep its
      floor, though, which ``p.live_k`` asks only of panels with
      sin^2 theta_min > e^``_LOG_FLOOR_GUARD`` = 1e-10 (panels 0-15 by
      default).  There log cos theta carries an absolute rounding of about
      1.1e-16 against |log cos theta| > 5e-11, a relative 2.2e-6.  P_l at
      the rounded cos theta is off by l(l+1)/2 times that rounding, and
      the recurrence adds about 10 l eps (measured against mpmath up to
      l = 1200), both against 1 - P_l(cos theta) ~ l(l+1) theta^2 / 4 >
      l(l+1) 2.5e-11.  So c stays within a factor 1 - 1e-4 of its true
      value, far inside the margin of e 2^10 between the bound and half an
      ulp.  Where cos theta rounds to 1 (theta < 1.05e-8) the computed c is
      0 or negative and the floor is lost, so those panels keep only the
      e^-700 rule.

    numpy's exp costs about 1.2 ns per normal result, 19 ns per result that
    underflows to 0 and over 100 ns per subnormal one.  Rows with
    K < ``p.full_k`` have every exponent above ``_LOG_NEGLIGIBLE`` and take
    exp directly.  Only the rows between, a band of a few rows on the
    panels past the floor guard, clamp the exponent to keep exp off that
    path and set each dropped term to exactly +0 after the multiply by
    P_l(sin theta); a mask multiply would leave -0 where P_l(sin theta) < 0,
    which differs from the reference formula where cos theta rounds to 1.
    The block is built with in-place ufuncs that apply to each element the
    operations of the expression form, in the same order, so the bits are
    those of the reference formula and fewer temporaries are allocated.
    The caller sets ``np.errstate(under="ignore")``.
    """
    Kc = K[:, None]
    brackets = Kc * p.logcos
    brackets += p.logpc
    np.negative(np.expm1(brackets, out=brackets), out=brackets)
    if p.neg is not None:
        brackets[:, p.neg] = 1.0 - np.exp(Kc * p.logcos[p.neg]) * p.pc[p.neg]
    live = K.searchsorted(p.live_k, side="right")
    if live:
        full = min(K.searchsorted(p.full_k), live)
        term = Kc[:live] * p.logsin
        band = term[full:]
        drop = band < _LOG_NEGLIGIBLE
        np.maximum(band, _LOG_NEGLIGIBLE, out=band)
        np.exp(term, out=term)
        term *= p.ps
        band[drop] = 0.0
        brackets[:live] -= term
    if l <= 1:
        brackets[:K.searchsorted(2 - l, side="right")] = 0.0
    return brackets


_PanelRule = namedtuple("_PanelRule", "logsin logcos sin cos wbeta")


@lru_cache(maxsize=32)
def _gauss_legendre(m: int):
    """Read-only Gauss-Legendre nodes and weights of order m on [-1, 1], solved once."""
    x, w = np.polynomial.legendre.leggauss(m)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=32)
def _panel_rules(params: KernelParams, quad: QuadratureSpec) -> _PanelRule:
    """Gauss rules of orders m and 2m on the dyadic panels, side by side.

    Each field holds its values at the nodes (w * beta for the weights),
    shape (max_panels, 3m): row j is panel [pi/4 * 2^-(j+1), pi/4 * 2^-j],
    its first m columns the coarse rule and the other 2m the fine one, so
    one bracket call per panel serves both rules (48 columns by default).
    """
    hi = np.ldexp(THETA_MAX, -np.arange(quad.max_panels))[:, None]
    lo = 0.5 * hi
    x, w = zip(_gauss_legendre(quad.nodes_per_panel), _gauss_legendre(2 * quad.nodes_per_panel))
    theta = 0.5 * (hi - lo) * np.concatenate(x) + 0.5 * (hi + lo)
    wbeta = 0.5 * (hi - lo) * np.concatenate(w) * beta(theta, params)
    return _PanelRule(np.log(np.sin(theta)), np.log(np.cos(theta)),
                      np.sin(theta), np.cos(theta), wbeta)


def _legendre_sweep(l_end: int, params: KernelParams, quad: QuadratureSpec) -> np.ndarray:
    """P_0..P_l_end at the sin and cos nodes of the panel rule, by one recurrence.

    Row l is the ``pl`` argument of ``_eigen_rows``; the three-term
    recurrence gives P_l independently of the top degree, so a row read
    from a long sweep equals that of a sweep ending at l.
    """
    rule = _panel_rules(params, quad)
    return legendre_all(l_end, np.concatenate([rule.sin.ravel(), rule.cos.ravel()]))


def _eigen_rows(l: int, n_arr: np.ndarray, pl: np.ndarray, params: KernelParams,
                quad: QuadratureSpec):
    """lambda and err for all n in n_arr at fixed l (the one true code path).

    ``pl`` is row l of ``_legendre_sweep`` and ``n_arr`` ascends.  Panels
    are added outward from pi/4 to the running sums of the rows still live;
    a row stops at the first panel whose fine integral falls below
    ``_PANEL_CUTOFF`` times its tolerance, and the loop ends when no row is
    live.  Both the scalar ``eigenvalue`` and the bulk table builder run
    through here, so single entries, serial builds and parallel builds
    agree bit-for-bit.  One ``np.errstate`` covers the whole loop.  Each
    panel weights its bracket block in place and sums both rules with
    ``np.add.reduce``, the reduction ``sum`` calls; the stop bookkeeping
    (the lam/err scatter and four compressions) runs only on panels where
    some row stops, which most panels are not.
    """
    n_arr = np.asarray(n_arr, dtype=np.int64)
    rule = _panel_rules(params, quad)
    m = quad.nodes_per_panel
    panels = _panels(rule.logsin, rule.logcos, *pl.reshape(2, *rule.sin.shape))
    lam = np.empty(len(n_arr))
    err = np.empty(len(n_arr))
    rows = np.arange(len(n_arr))
    K = (2 * n_arr + l).astype(float)
    cum = np.zeros(len(n_arr))
    cum_err = np.zeros(len(n_arr))
    with np.errstate(under="ignore"):
        for panel, wbeta in zip(panels, rule.wbeta):
            terms = _bracket_rows(K, l, panel)
            terms *= wbeta
            i_coarse, i_fine = np.add.reduce(terms[:, :m], 1), np.add.reduce(terms[:, m:], 1)
            del terms  # free this panel's block (4 MB in a radial build) before the next
            cum += i_fine
            cum_err += np.abs(i_fine - i_coarse)
            tol = np.maximum(quad.abs_tol, quad.rel_tol * np.abs(cum))
            done = np.abs(i_fine) < _PANEL_CUTOFF * tol
            if not done.any():
                continue
            lam[rows[done]] = cum[done]
            err[rows[done]] = cum_err[done] + np.abs(i_fine[done])
            rows, K, cum, cum_err = rows[~done], K[~done], cum[~done], cum_err[~done]
            if not len(rows):
                return lam, err
    pairs = [(int(n), l) for n in n_arr[rows]]
    raise QuadratureConvergenceError(pairs, dict(zip(pairs, cum.tolist())))


def eigen_integrand(n: int, l: int, theta, params: KernelParams):
    """beta(theta) times the spectral bracket; identically 0 for null modes."""
    if n < 0 or l < 0:
        raise ValueError("n and l must be nonnegative integers")
    theta = np.asarray(theta, dtype=float)
    scalar = theta.ndim == 0
    b = beta(theta, params)
    theta = np.atleast_1d(theta)
    if (n, l) in NULL_MODES:
        out = np.zeros_like(theta)
        return float(out[0]) if scalar else out
    sin, cos = np.sin(theta), np.cos(theta)
    pl = legendre_all(l, np.concatenate([sin, cos]))[l]
    panel = next(_panels(np.log(sin)[None], np.log(cos)[None], *pl.reshape(2, 1, -1)))
    with np.errstate(under="ignore"):
        br = _bracket_rows(np.array([2.0 * n + l]), l, panel)[0]
    out = np.atleast_1d(b) * br
    return float(out[0]) if scalar else out


def eigenvalue(n: int, l: int, params: KernelParams,
               quad: QuadratureSpec = QuadratureSpec()) -> EigenvalueEntry:
    """One eigenvalue by graded-panel quadrature, exact 0 for the null modes."""
    if n < 0 or l < 0:
        raise ValueError("n and l must be nonnegative integers")
    lam, err = _eigen_rows(l, np.array([n]), _legendre_sweep(l, params, quad)[l],
                           params, quad)
    return EigenvalueEntry(n=n, l=l, lam=float(lam[0]), err=float(err[0]))


def lambda_gap(params: KernelParams,
               quad: QuadratureSpec = QuadratureSpec()) -> EigenvalueEntry:
    """The spectral gap lambda_{2,0}; alias of eigenvalue(2, 0), bit-for-bit."""
    return eigenvalue(2, 0, params, quad)


@dataclass(frozen=True, eq=False)
class EigenvalueTable:
    """lambda_{n,l} and its error estimate for every n <= nmax, l <= lmax.

    ``lams[n, l]`` and ``errs[n, l]`` are read-only float arrays of shape
    (nmax + 1, lmax + 1); the eigenvalue invariants are checked once, when
    the table is built or loaded.
    """

    params: KernelParams
    quad: QuadratureSpec
    lams: np.ndarray
    errs: np.ndarray
    version: str

    def __post_init__(self):
        lams = np.array(self.lams, dtype=float)
        errs = np.array(self.errs, dtype=float)
        if lams.ndim != 2 or lams.shape != errs.shape or 0 in lams.shape:
            raise ValueError(f"lams and errs must be equal-shape nonempty 2-D arrays, "
                             f"got {lams.shape} and {errs.shape}")
        n, l = np.indices(lams.shape)
        _check_eigenvalues(n, l, lams, errs)
        for name, arr in (("lams", lams), ("errs", errs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def nmax(self) -> int:
        return self.lams.shape[0] - 1

    @property
    def lmax(self) -> int:
        return self.lams.shape[1] - 1

    def lookup(self, n: int, l: int) -> EigenvalueEntry:
        if not (0 <= n <= self.nmax and 0 <= l <= self.lmax):
            raise EigenvalueLookupError(n, l)
        return EigenvalueEntry(n=n, l=l, lam=float(self.lams[n, l]),
                               err=float(self.errs[n, l]))

    def lam(self, n: int, l: int) -> float:
        return self.lookup(n, l).lam

    def lams_at(self, n, l) -> np.ndarray:
        """lambda at index arrays n, l; null modes are 0 and need no coverage.

        Raises EigenvalueLookupError at the first other mode outside the table.
        """
        n, l = np.asarray(n), np.asarray(l)
        valid = (n >= 0) & (l >= 0)
        null = valid & (n + l <= 1)
        outside = ~null & ~(valid & (n <= self.nmax) & (l <= self.lmax))
        if outside.any():
            i = np.unravel_index(np.argmax(outside), outside.shape)
            raise EigenvalueLookupError(int(n[i]), int(l[i]))
        return self.lams[np.where(null, 0, n), np.where(null, 0, l)]

    def subset(self, nmax: int, lmax: int) -> "EigenvalueTable":
        return EigenvalueTable(self.params, self.quad, self.lams[:nmax + 1, :lmax + 1],
                               self.errs[:nmax + 1, :lmax + 1], self.version)

    def rows(self):
        """(n, l, lambda, err) as Python numbers, in (n, l) order."""
        for n, (lam_row, err_row) in enumerate(zip(self.lams.tolist(), self.errs.tolist())):
            for l, (lam, err) in enumerate(zip(lam_row, err_row)):
                yield n, l, lam, err

    @cached_property
    def _row_texts(self) -> list:
        """The text "n,l,lambda,err" of every entry in (n, l) order, floats by repr.

        Formatted once per table, so the cache file and the ``eigs`` output
        of one job share it.  repr is json.dumps's text for every finite
        float, and a table holds no other.
        """
        return [f"{n},{l},{lam!r},{err!r}" for n, l, lam, err in self.rows()]


def table_version(params: KernelParams, quad: QuadratureSpec) -> str:
    """Content hash of (kernel params, quadrature spec, code version)."""
    key = "|".join([
        CODE_VERSION,
        f"s={params.s!r}",
        f"theta_max={params.theta_max!r}",
        f"rel_tol={quad.rel_tol!r}",
        f"abs_tol={quad.abs_tol!r}",
        f"max_panels={quad.max_panels}",
        f"nodes_per_panel={quad.nodes_per_panel}",
    ])
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _block_task(args):
    """lambda and err columns for the contiguous l-block ``ls``, one Legendre sweep."""
    ls, nmax, params, quad = args
    pl = _legendre_sweep(ls[-1], params, quad)
    return ls, [_eigen_rows(l, np.arange(nmax + 1), pl[l], params, quad) for l in ls]


def eigenvalue_table(nmax: int, lmax: int, params: KernelParams,
                     quad: QuadratureSpec = QuadratureSpec(),
                     workers: int = 1) -> EigenvalueTable:
    """All eigenvalues with n <= nmax, l <= lmax.

    A serial build sweeps the Legendre recurrence once for the whole table;
    ``workers > 1`` distributes contiguous l-blocks over processes, each
    with its own sweep.  Every entry is an independent deterministic
    computation, so the result does not depend on worker count or
    evaluation order.
    """
    if nmax < 0 or lmax < 0:
        raise ValueError("nmax and lmax must be nonnegative")
    if workers > 1 and lmax > 0:
        size = -(-(lmax + 1) // (4 * workers))  # about four blocks per worker
        tasks = [(range(l, min(l + size, lmax + 1)), nmax, params, quad)
                 for l in range(0, lmax + 1, size)]
        from concurrent.futures import ProcessPoolExecutor  # only parallel builds pay for it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_block_task, tasks))
    else:
        blocks = [_block_task((range(lmax + 1), nmax, params, quad))]
    lams = np.empty((nmax + 1, lmax + 1))
    errs = np.empty((nmax + 1, lmax + 1))
    for ls, rows in blocks:
        for l, (lam, err) in zip(ls, rows):
            lams[:, l], errs[:, l] = lam, err
    return EigenvalueTable(params=params, quad=quad, lams=lams, errs=errs,
                           version=table_version(params, quad))


def radial_eigenvalues(nmax: int, params: KernelParams,
                       quad: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """lambda_{n,0} for n = 0..nmax as a flat array (cheap P_0 = 1 path)."""
    lam, _ = _eigen_rows(0, np.arange(nmax + 1), _legendre_sweep(0, params, quad)[0],
                         params, quad)
    return lam


def asymptotic_leading(n: int, l: int, params: KernelParams) -> float:
    """Leading large-mode term (s/2) * log(sqrt(2n+l))^(2/s), needs 2n+l >= 3.

    For l = 0 this is the whole leading behaviour of lambda_{n,0} (the
    Legendre correction term vanishes since P_0 = 1).
    """
    K = 2 * n + l
    if K < 3:
        raise ValueError("asymptotic leading term requires 2n + l >= 3")
    s = params.s
    return (s / 2.0) * (0.5 * math.log(K)) ** (2.0 / s)


@dataclass(frozen=True)
class RatioBounds:
    c_min: float
    c_max: float
    argmin: tuple
    argmax: tuple


def ratio_bounds(table: EigenvalueTable, shift: float = math.e) -> RatioBounds:
    """Min/max of lambda_{n,l} / log(2n + l + shift)^(2/s) over modes n+l >= 2.

    The default shift e matches the spectral lower-bound weight; shift
    1.5 + e gives the oscillator-norm weight used by the decay certificates.
    """
    n, l = np.indices(table.lams.shape)
    keep = n + l >= 2
    if not keep.any():
        raise ValueError("table has no modes with n + l >= 2")
    n, l = n[keep], l[keep]
    r = table.lams[keep] / np.log(2 * n + l + shift) ** (2.0 / table.params.s)
    i, j = int(np.argmin(r)), int(np.argmax(r))
    return RatioBounds(c_min=float(r[i]), c_max=float(r[j]),
                       argmin=(int(n[i]), int(l[i])), argmax=(int(n[j]), int(l[j])))


# ---------------------------------------------------------------------------
# cache files
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dumps_with_rows(doc: dict, rows) -> str:
    """Compact key-sorted json.dumps of doc plus "rows", each row given as JSON text.

    A row text is its elements without the brackets ("0,1,0.0,0.0"), so
    preformatted rows are joined, not encoded again; the output equals
    json.dumps({**doc, "rows": [...]}, separators=(",", ":"), sort_keys=True).
    """
    head, tail = json.dumps({**doc, "rows": 0}, separators=(",", ":"),
                            sort_keys=True).split('"rows":0', 1)
    return "".join((head, '"rows":[[', "],[".join(rows), "]]", tail))


def save_table(table: EigenvalueTable, path: str):
    """Write the cache file atomically (temp file + rename).

    The header goes through json.dumps; the rows are the table's
    ``_row_texts``, formatted once per table, so an ``eigs`` job that saves
    and then writes its output formats each float once.
    """
    header = {
        "s": table.params.s,
        "theta_max": table.params.theta_max,
        "rel_tol": table.quad.rel_tol,
        "abs_tol": table.quad.abs_tol,
        "max_panels": table.quad.max_panels,
        "nodes_per_panel": table.quad.nodes_per_panel,
        "version": table.version,
    }
    _atomic_write(path, _dumps_with_rows({"header": header}, table._row_texts))


def load_table(path: str, params: KernelParams | None = None,
               quad: QuadratureSpec | None = None) -> EigenvalueTable:
    """Load and validate a cache file.

    Corrupt files and version mismatches (different parameters, quadrature
    spec, or code version) raise CacheError; stale caches are never migrated
    or partially read.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        header = doc["header"]
        file_params = KernelParams(s=header["s"], theta_max=header["theta_max"])
        file_quad = QuadratureSpec(
            rel_tol=header["rel_tol"], abs_tol=header["abs_tol"],
            max_panels=header["max_panels"], nodes_per_panel=header["nodes_per_panel"],
        )
        expected = table_version(file_params, file_quad)
        if header["version"] != expected:
            raise CacheError(
                f"cache version {header['version']} does not match expected {expected} "
                f"(stale code or tampered header); rebuild required"
            )
        if params is not None and params != file_params:
            raise CacheError("cache was built for different kernel parameters")
        if quad is not None and quad != file_quad:
            raise CacheError("cache was built with a different quadrature spec")
        lams, errs = _grid_from_rows(doc["rows"])
        return EigenvalueTable(params=file_params, quad=file_quad, lams=lams, errs=errs,
                               version=header["version"])
    except CacheError:
        raise
    except Exception as exc:
        raise CacheError(f"unreadable eigenvalue cache {path}: {exc}") from exc


def _grid_from_rows(rows):
    """(lams, errs) arrays from cache rows [n, l, lambda, err] in any order.

    The rows must cover the full (n, l) rectangle exactly once.
    """
    rows = np.array(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 4 or not len(rows):
        raise CacheError("cache rows must be nonempty [n, l, lambda, err] lists")
    idx = rows[:, :2]
    if not np.all((idx >= 0) & (idx < len(rows)) & (idx == np.floor(idx))):
        raise CacheError("cache rows need integer (n, l) inside the table")
    n, l = idx.astype(np.int64).T
    shape = (int(n.max()) + 1, int(l.max()) + 1)
    flat = n * shape[1] + l
    covered = np.zeros(len(rows), dtype=bool)  # stays False unless the sizes match
    if len(rows) == shape[0] * shape[1]:
        covered[flat] = True
    if not covered.all():
        raise CacheError(f"cache rows do not cover the {shape[0]}x{shape[1]} (n, l) "
                         f"grid exactly once ({len(rows)} rows)")
    lams, errs = np.empty(shape), np.empty(shape)
    lams.flat[flat], errs.flat[flat] = rows[:, 2], rows[:, 3]
    return lams, errs
