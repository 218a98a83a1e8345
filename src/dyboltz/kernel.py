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
with one fixed Gauss-Kronrod pair per panel: the 16-node Gauss rule
embedded in its 33-node Kronrod extension (m = 16 is the constant
``QuadratureSpec.nodes_per_panel``, part of every cache key).  A
panel's value is the Kronrod sum and its error term |K_33 - G_16|, summed
over panels; that measures the error of the Gauss rule, so it overstates
the error of the reported value.  The Kronrod nodes come from Laurie's
algorithm (Math. Comp. 66, 1997) and the eigenvalues of the Jacobi-Kronrod
matrix, solved once.  The integrand vanishes like
theta * log(1/theta)^(2/s-1) at 0 for n + l >= 2, so the grading
converges.  Modes (0,0), (1,0), (0,1) have identically zero integrand and
come out exactly 0.

The deep panels are summed from a power series.  In x = sin^2 theta the
bracket is 1 - (1 - x)^(K/2) P_l(sqrt(1 - x)) - sin^K P_l(sin theta) =
sum_k a_k x^k, with a_1 = K/2 + l(l+1)/4 for every non-null mode but (0,2), and a
row switches to its first ``_SERIES_ORDER`` = 10 terms from the first
panel where a_1 sin^2 theta_top <= ``_SERIES_SWITCH`` = 1e-2 (panel 4 for
the smallest modes, 10 at a_1 = 10^4 as at (200, 200) or (10^4, 0), 13 at
(10^6, 0)).  There a
panel's value is sum_k a_k M_k and its error term |sum_k a_k (M_k - G_k)|,
with M_k and G_k the panel's Kronrod and Gauss moments of x^k, computed
once per rule; the terms left out are below 1e-19 of the bracket
(``_eigen_rows`` gives the proof).  The direct form cannot be accurate
there: P_l is evaluated at the rounded cos theta, whose absolute error of
about 1.1e-16 moves the bracket by about l(l+1) 1e-16 against its size of
about a_1 theta^2, and below theta = 1.05e-8 cos theta rounds to 1 and
carries no digit of the bracket at all.  x = sin^2 theta keeps its relative
accuracy at every theta, so the series does too.  That made the old rule
miss rel_tol by 1e-8 to 8e-4 at s = 0.1 and 0.2, where the integrand's mass
lies near theta = e^(-1/s), and by 3e-10 at (10^6, 0), s = 0.5.  The
coefficients are one vectorized pass per l-block (``_series_coefficients``).
On the panels that still take the bracket, log cos theta is
log1p(-2 sin^2(theta/2)).

One loop computes every eigenvalue, a whole l-row at a time: it walks the
panels outward from pi/4, adds each panel to the running sums of the rows
still live, fixes a row at its stopping panel, and evaluates no panel once
every row has stopped.  It takes the panels in groups, one bracket call
and two weighted sums per group for the rows that take the bracket, and
two sums over k for the rows on their series: a group keeps its working
set within ``_BLOCK_DOUBLES`` (64k doubles, 512 KB), its bracket block
alone and its ``_GROUP_ARRAYS`` = 8 panels x rows arrays together (the
n-rows of an l are taken in spans of ``_SPAN_ROWS`` = 1985, so one panel
of them fits, and the radial N = 10^4 row is six spans), ends where the next
bracket row switches to its series, and ends where the first live row
could stop, so almost no panel past a row's stop is evaluated; a group of
series rows only runs ``_SERIES_SLACK`` = 2 panels further.  A table build
runs the Legendre recurrence once for all its l-rows (once per contiguous
l-block when parallel), at the nodes of the panels before the last switch
only (10 of 72 panels at 201x201).  The bracket folds its whole block through expm1
and recomputes only the columns where P_l(cos theta) <= 0, on the panels
that have any.  A sin^K term with K log sin theta < -700 is exactly 0:
most terms of a table build are, and numpy's exp would spend about 19 ns
on each that underflows to 0 and over 100 ns on each subnormal, against
1.2 ns on a normal result (numpy 2.4 on AVX-512).  The dropped terms are
below 1e-304, far under half an ulp of a bracket that is at least
sin^2 theta > 1e-3 / a_1 on a panel its row takes directly.

Most of the remaining sin^K terms cannot change a bit either.  For a
non-null mode the cos part 1 - cos^K P_l(cos theta) is at least
sin^2 theta, the floor, so a term below e^-1 2^-64 of sin^2 theta_min is
under half an ulp of every bracket of its panel and is skipped.  The floor
bound is applied only on panels with sin^2 theta_min > 1e-10 (panels 0-15
by default), where the computed cos part provably keeps that floor.  At
201x201, s = 2, a build evaluates 11.9M bracket elements in 326 bracket
calls, and the sin^K term on a small part of them.  ``_bracket_rows`` gives
the proof.  Parallel and serial builds produce bit-identical results
because each (n, l) entry is an independent deterministic computation: its
panel sums, series coefficients and switch panel do not depend on the
group or on the other rows.

The loop's fixed cost per group is kept small: the bracket block is built
in place, the per-panel constants (log P_l(cos theta), the sign-change
columns, the cut points of the sin^K term) are computed for all panels of
a row at once, each weighted sum is one ``np.einsum`` over the panels'
columns or the series' terms, and the live rows are updated only in
groups where some row stops.  A cache file and the CLI's ``eigs`` output
share one formatting pass per table: each float is written by repr, once,
which for a finite float is the text json.dumps writes.  Both files are
written ``_WRITE_ROWS`` = 1024 rows at a time, never joined whole.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
import zlib
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .basis import ModeIndex
from .errors import CacheError, EigenvalueLookupError, QuadratureConvergenceError
from .specfun import _gauss_rule, _jacobi_nodes, _jacobi_walk, legendre, legendre_all

__all__ = [
    "KernelParams",
    "QuadratureSpec",
    "EigenvalueEntry",
    "EigenvalueTable",
    "RatioBounds",
    "beta",
    "eigen_integrand",
    "eigenvalue",
    "eigenvalue_table",
    "radial_eigenvalues",
    "asymptotic_leading",
    "ratio_bounds",
    "save_table",
    "load_table",
]

# bump when the quadrature scheme changes; stale caches are rejected, never migrated
CODE_VERSION = "dyboltz-kernel-4"

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

# a row sums a panel from the bracket's power series in x = sin^2 theta once
# a_1 sin^2 theta <= _SERIES_SWITCH on the whole panel, a_1 = K/2 + l(l+1)/4;
# the terms past x^_SERIES_ORDER are then below 1e-19 of the bracket
_SERIES_SWITCH = 1e-2
_SERIES_ORDER = 10

# a group in which every live row uses its series runs this many panels past
# the first panel where a live row could stop: series panels are cheap
_SERIES_SLACK = 2


@dataclass(frozen=True)
class KernelParams:
    """Debye-Yukawa exponent s > 0; the angular cutoff is the constant ``THETA_MAX`` = pi/4."""

    s: float

    def __post_init__(self):
        if not 0.0 < self.s < math.inf:
            raise ValueError(f"kernel exponent s must be positive and finite, got {self.s}")


def _check_s(table: EigenvalueTable, s: float):
    """Raise ValueError unless s is the exponent of the kernel ``table`` was built for."""
    if s != table.params.s:
        raise ValueError(f"s = {s} disagrees with the table kernel (s = {table.params.s})")


@dataclass(frozen=True)
class QuadratureSpec:
    """``max_panels``, the one setting, bounds the panels an eigenvalue may take.  The
    accuracy contract, ``rel_tol`` = 1e-10 and ``abs_tol`` = 1e-13, and the panel rule
    G16 in K33 are class constants, kept in every table version and cache header."""

    max_panels: int = 72
    rel_tol = 1e-10
    abs_tol = 1e-13
    nodes_per_panel = 16

    def __post_init__(self):
        # the innermost panel starts at pi/4 * 2^-max_panels, which is a
        # positive normal double only up to max_panels = 1021
        if not (isinstance(self.max_panels, (int, np.integer)) and 1 <= self.max_panels <= 1021):
            raise ValueError("max_panels must be an integer from 1 to 1021")


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
    """Canonical angular kernel on (0, pi/4]; positive and finite there, or a ValueError
    where it overflows a double (near 0 for a small s: below theta = 6.3e-14 at s = 0.01)."""
    theta = np.asarray(theta, dtype=float)
    if not np.all((theta > 0.0) & (theta <= THETA_MAX + 1e-15)):  # NaN fails too
        raise ValueError("theta must lie in (0, pi/4]")
    scalar = theta.ndim == 0
    theta = np.atleast_1d(theta)
    sin = np.sin(theta)
    with np.errstate(over="ignore"):
        out = np.log(1.0 / sin) ** (2.0 / params.s - 1.0) / sin
    over = ~np.isfinite(out)
    if over.any():
        raise ValueError(f"beta overflows a double at theta = {theta[over].max():.3g} "
                         f"for s = {params.s:g}")
    return float(out[0]) if scalar else out


_Panels = namedtuple("_Panels", "logsin logcos ps pc logpc neg live_k")


def _panels(logsin, logcos, ps, pc) -> _Panels:
    """The bracket inputs of each row (panel) of these node arrays.

    Besides its node values a panel carries log P_l(cos theta), taken as 0
    where P_l(cos theta) <= 0, and the mask of those columns; and the K cut
    point of the sin^K term that ``_bracket_rows`` describes, with a
    relative margin of 1e-9 on the e^-700 rule so that rounding cannot drop
    a term the rule keeps.  Every field has one row per panel, so a group
    of consecutive panels is the slice ``_group(panels, j, k)``.
    """
    hi, lo = logsin.max(1), logsin.min(1)
    live_k = np.where(2.0 * lo > _LOG_FLOOR_GUARD, (2.0 * lo - _LOG_BELOW_HALF_ULP) / hi,
                      _LOG_NEGLIGIBLE / hi * (1.0 + 1e-9))
    pos = pc > 0.0
    return _Panels(logsin, logcos, ps, pc, np.log(np.where(pos, pc, 1.0)), ~pos, live_k)


def _group(panels: _Panels, j: int, k: int) -> _Panels:
    """Panels j..k-1 of ``panels``."""
    return _Panels(*(field[j:k] for field in panels))


def _bracket_rows(K: np.ndarray, l: int, p: _Panels) -> np.ndarray:
    """1 + delta - sin^K P_l(sin) - cos^K P_l(cos) for each K at each panel of ``p``, stably.

    ``K`` holds 2n + l as floats in ascending order; the block has shape
    (panels, rows, columns).  Near theta = 0 the cos term approaches 1, so
    the whole block is folded through -expm1(K log cos + log P_l(cos)), and
    only the columns where P_l(cos theta) <= 0 (``p.neg``, on the few panels
    that have any) are overwritten with 1 - cos^K P_l(cos).  Null-mode rows
    (K <= 2 - l, a prefix) are identically zero and are zeroed exactly.

    On each panel the sin^K P_l(sin) term is subtracted only by the rows
    with K <= ``p.live_k``, a prefix; every other row's term cannot change a
    bit:

    * A term whose exponent K log sin theta lies below ``_LOG_NEGLIGIBLE``
      is exactly 0, never e^-700.  The dropped terms are below 1e-304, so
      they move no bracket that keeps its floor sin^2 theta below; a row
      takes its bracket only above its series switch, where
      sin^2 theta > 1e-3 / a_1 (``_eigen_rows``).
    * The floor bound.  For a non-null row K >= 2, and |P_l| <= 1 with
      cos^K <= cos^2 gives 1 - cos^K P_l(cos theta) >= sin^2 theta, the
      floor.  A row with K max log sin < 2 min log sin - 64 ln 2 - 1
      therefore subtracts |term| < e^-1 2^-64 sin^2 theta_min, while a
      subtraction moves a double c only when the term reaches half an ulp
      below c, at least 2^-54 c.  So the row keeps c bit for bit, which is
      what subtracting the term would give.  The computed c must keep its
      floor, though, which ``p.live_k`` asks only of panels with
      sin^2 theta_min > e^``_LOG_FLOOR_GUARD`` = 1e-10 (panels 0-15 by
      default).  There log cos theta = log1p(-2 sin^2(theta/2)) is
      accurate to a few ulp, but P_l is evaluated at the rounded
      cos theta, whose absolute rounding of about 1.1e-16 moves it by
      l(l+1)/2 times that, and the recurrence adds about 10 l eps (measured
      against mpmath up to l = 1200), both against
      1 - P_l(cos theta) ~ l(l+1) theta^2 / 4 > l(l+1) 2.5e-11.  So c stays
      within a factor 1 - 1e-4 of its true value, far inside the margin of
      e 2^10 between the bound and half an ulp.  Deeper, P_l(cos theta)
      carries fewer digits (none where cos theta rounds to 1, below
      theta = 1.05e-8), so those panels keep only the e^-700 rule; a row
      reaches them on its bracket only if a_1 > 7e7.

    numpy's exp costs about 1.2 ns per normal result, 19 ns per result that
    underflows to 0 and over 100 ns per subnormal one.  The term is taken
    for the rows up to the largest live prefix of the group; its exponent
    is clamped at ``_LOG_NEGLIGIBLE`` to keep exp off that path, and each
    dropped term, below the clamp or past its panel's prefix, is set to
    exactly +0 after the multiply by P_l(sin theta).  Subtracting +0 leaves
    every double as it is, -0 included, while a mask multiply would leave
    -0 where P_l(sin theta) < 0, which differs from the reference formula
    where the cos part rounds to 0.  An exponent above the clamp is left as
    it is, so every kept term is exactly the reference's.  The block is
    built with in-place ufuncs that apply to each element the
    operations of the expression form, in the same order, so the bits are
    those of the reference formula, whatever the group, and fewer
    temporaries are allocated.  The caller sets ``np.errstate(under="ignore")``.
    """
    Kc = K[:, None]
    brackets = Kc * p.logcos[:, None]
    if l:  # P_0 = 1, so log P_0 = 0 adds nothing
        brackets += p.logpc[:, None]
    np.negative(np.expm1(brackets, out=brackets), out=brackets)
    if p.neg.any():
        g, c = np.nonzero(p.neg)
        brackets[g, :, c] = 1.0 - np.exp(Kc.T * p.logcos[g, c, None]) * p.pc[g, c, None]
    live = K.searchsorted(p.live_k, side="right")
    top = live.max()
    if top:
        term = Kc[:top] * p.logsin[:, None]
        drop = term < _LOG_NEGLIGIBLE
        drop |= np.arange(top)[:, None] >= live[:, None, None]
        np.maximum(term, _LOG_NEGLIGIBLE, out=term)
        np.exp(term, out=term)
        if l:
            term *= p.ps[:, None]
        np.copyto(term, 0.0, where=drop)
        brackets[:, :top] -= term
    if l <= 1:
        brackets[:, :K.searchsorted(2 - l, side="right")] = 0.0
    return brackets


@lru_cache(maxsize=1)
def _half_angle_powers() -> np.ndarray:
    """T[j, k], the coefficient of x^k in t^j, t = sin^2(theta/2) = (1 - sqrt(1 - x)) / 2.

    t = sum_k C_(k-1) x^k / 4^k with the Catalan numbers C, so 4^k T[j, k]
    is an integer, and each entry is rounded once; j, k <= ``_SERIES_ORDER``.
    Every coefficient of t, and so of each t^j, is positive.
    """
    order = _SERIES_ORDER
    t = [0] + [math.comb(2 * k - 2, k - 1) // k for k in range(1, order + 1)]
    rows = [[1] + [0] * order]
    for _ in range(order):
        rows.append([sum(rows[-1][i] * t[k - i] for i in range(k + 1)) for k in range(order + 1)])
    out = np.array([[c / 4 ** k for k, c in enumerate(row)] for row in rows])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=1)
def _sin_series() -> np.ndarray:
    """S[l, n, k - 1], the coefficient of x^k in sin^K P_l(sin theta), K = 2n + l.

    With P_l(y) = sum_j p_{l,j} y^(l-2j), p_{l,j} = (-1)^j C(l, j)
    C(2l - 2j, l) / 2^l, the term is a polynomial in x = sin^2 theta with
    p_{l,j} at x^(n+l-j), so only rows with n + ceil(l/2) <=
    ``_SERIES_ORDER`` have terms up to that order: l and n run to
    2 ``_SERIES_ORDER`` and ``_SERIES_ORDER``.  Each entry is rounded once.
    """
    order = _SERIES_ORDER
    out = np.zeros((2 * order + 1, order + 1, order))
    for l in range(2 * order + 1):
        for j in range(l // 2 + 1):
            p = (-1) ** j * math.comb(l, j) * math.comb(2 * l - 2 * j, l) / 2 ** l
            for n in range(order + 1):
                if 1 <= n + l - j <= order:
                    out[l, n, n + l - j - 1] = p
    out.flags.writeable = False
    return out


def _powers(x: np.ndarray) -> np.ndarray:
    """x^1..x^``_SERIES_ORDER`` along a new last axis, by repeated multiplication."""
    return np.cumprod(np.repeat(x[..., None], _SERIES_ORDER, axis=-1), axis=-1)


def _series_coefficients(ls, n_arr) -> np.ndarray:
    """a_1..a_order of the bracket as a power series in x = sin^2 theta, for each l and n.

    Returns shape (len(ls), len(n_arr), ``_SERIES_ORDER``).  With
    K = 2n + l the bracket is 1 - exp(S(x)) - sin^K P_l(sin theta), where

        S = (K/2) log(1 - x) + log F(t),  F(t) = sum_j h_j t^j = P_l(cos theta),

    F the hypergeometric series 2F1(-l, l + 1; 1; t) in t = sin^2(theta/2)
    (h_j = (-l)_j (l + 1)_j / j!^2).  log F is taken as a series in t by
    the recurrence of a logarithm's coefficients and composed with t(x),
    whose powers have positive coefficients (``_half_angle_powers``); exp by
    the recurrence E_k = (1/k) sum_{i<=k} i S_i E_{k-i}, so a_k = -E_k less
    the exact x^k term of sin^K P_l(sin theta) (``_sin_series``).  a_1 is
    K/2 + l(l+1)/4 save where that term starts at x^1.  Null modes get 0.
    Every step is elementwise in (l, n) with no reduction across entries,
    so an entry's coefficients have the same bits in any call.
    """
    order = _SERIES_ORDER
    ls = np.asarray(ls, dtype=np.int64)
    n_arr = np.asarray(n_arr, dtype=np.int64)
    l = ls.astype(float)[:, None]
    power = _half_angle_powers()
    h = [1.0]
    for j in range(1, order + 1):
        h.append(h[-1] * ((j - 1 - l) * (j + l)) / (j * j))
    log_f = [None]  # log F as a series in t
    for k in range(1, order + 1):
        acc = 0.0
        for i in range(1, k):
            acc = acc + i * log_f[i] * h[k - i]
        log_f.append(h[k] - acc / k)
    half_k = n_arr + 0.5 * l  # K / 2
    scaled = []  # k S_k = k (log F)_k - K/2
    for k in range(1, order + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc = acc + log_f[j] * power[j, k]
        scaled.append(k * acc - half_k)
    out = np.empty((len(ls), len(n_arr), order))
    for k in range(1, order + 1):
        acc = scaled[k - 1].copy()  # i = k, times E_0 = 1
        for i in range(1, k):
            acc += scaled[i - 1] * out[..., k - i - 1]
        out[..., k - 1] = acc / k
    np.negative(out, out=out)
    small = np.nonzero((ls[:, None] <= 2 * order) & (n_arr <= order))
    if small[0].size:
        out[small] -= _sin_series()[ls[small[0]], n_arr[small[1]]]
    out[(ls[:, None] + n_arr) <= 1] = 0.0
    return out


_PanelRule = namedtuple("_PanelRule",
                        "logsin logcos sin cos wvalue wcheck series_from mvalue mdiff")

# a group of consecutive panels is evaluated in one numpy call per step,
# as many as keep its working set within this many doubles (512 KB, inside
# a core's L2 cache): its bracket block of rows x panels x 33 nodes, and
# its panels x rows arrays together; a build takes its n-rows in spans of
# at most _SPAN_ROWS = 1985, so that even a group of one panel keeps that
# bound
_BLOCK_DOUBLES = 1 << 16
_SPAN_ROWS = _BLOCK_DOUBLES // (2 * QuadratureSpec.nodes_per_panel + 1)

# the panels x rows arrays a group of _eigen_rows holds at once: the
# values and errors, the joined value, the running sums of value and error,
# the panel sizes, their stopping limits and the stop mask.  A group takes
# as many panels as keep all of them within _BLOCK_DOUBLES together; the
# count follows the loop's code, so it is a constant, not an option
_GROUP_ARRAYS = 8

# log of the factor by which a panel's value falls from one panel to the
# next below the knee (theta^2 over dyadic panels); it only sizes groups
_LOG_DECAY = math.log(4.0)

# a smaller table is built serially whatever ``workers`` says: two workers in
# fresh processes lost to one at 161x161 (0.26 s against 0.18 s at s = 2)
_POOL_ENTRIES = 30_000


def _kronrod_jacobi(m: int) -> np.ndarray:
    """Off-diagonal squares b_0..b_2m of the Jacobi-Kronrod matrix of G_m in K_2m+1.

    Laurie's algorithm (D. P. Laurie, Math. Comp. 66, 1997) for the
    Legendre weight on [-1, 1].  The Kronrod matrix keeps the first
    ceil(3m/2) + 1 Legendre coefficients b_k = k^2 / (4k^2 - 1) (b_0 = 2,
    the weight's mass) and the algorithm fills in the rest from the mixed
    moments s, t.  The weight is even, so every diagonal entry is 0 and the
    diagonal updates of the general algorithm drop out.
    """
    b = np.zeros(2 * m + 1)
    k = np.arange(1.0, (3 * m + 1) // 2 + 1)
    b[0] = 2.0
    b[1:len(k) + 1] = k * k / (4.0 * k * k - 1.0)
    s, t = np.zeros(m // 2 + 2), np.zeros(m // 2 + 2)
    t[1] = b[m + 1]
    for i in range(m - 1):
        k = np.arange((i + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + m + 1] * s[k] - b[i - k] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1].copy()
    for i in range(m - 1, 2 * m - 2):
        k = np.arange(i + 1 - m, (i - 1) // 2 + 1)
        j = m - 1 - (i - k)
        s[j + 1] = np.cumsum(b[i - k] * s[j + 2] - b[k + m + 1] * s[j + 1])
        if i % 2:
            b[(i + 1) // 2 + m + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    return b


@lru_cache(maxsize=32)
def _gauss_kronrod(m: int):
    """Read-only Gauss-Kronrod rule G_m in K_2m+1 on [-1, 1], solved once.

    Returns the nodes x, the 2m + 1 Kronrod weights and the m Gauss weights.
    The first m nodes are those of ``specfun._gauss_rule(m)``, the other m + 1
    the Kronrod nodes, each ascending.  The eigenvalues of the
    Jacobi-Kronrod matrix interlace Gauss and Kronrod nodes; each Kronrod
    node takes one Newton step on the characteristic polynomial, and all
    weights are Christoffel numbers, symmetrized as the nodes are.  For m
    from 8 to 256 the rule integrates P_0..P_3m+1 to about 5e-16.
    """
    b = _kronrod_jacobi(m)
    xk = _jacobi_nodes(b)[0::2]
    xg, wg = _gauss_rule(m)
    x = np.concatenate([xg, 0.5 * (xk - xk[::-1])])
    w = _jacobi_walk(x, b)[2]
    w[:m], w[m:] = 0.5 * (w[:m] + w[m - 1::-1]), 0.5 * (w[m:] + w[:m - 1:-1])
    for a in (x, w):
        a.flags.writeable = False
    return x, w, wg


@lru_cache(maxsize=32)
def _panel_rules(params: KernelParams, quad: QuadratureSpec) -> _PanelRule:
    """The Gauss-Kronrod pair G_m in K_2m+1 on the dyadic panels, m = 16.

    Each node field has shape (max_panels, 2m + 1): row j is panel
    [pi/4 * 2^-(j+1), pi/4 * 2^-j], its first m columns the Gauss nodes and
    the other m + 1 the Kronrod nodes.  ``wvalue`` holds w * beta of the
    Kronrod rule, whose sum is the panel's value, and ``wcheck`` that of the
    Gauss rule on the first m columns, whose difference from the value is
    the panel's error term.  log cos theta is
    log1p(-2 sin^2(theta/2)), accurate where cos theta rounds to 1.

    For the series rows: ``series_from[j]`` = ``_SERIES_SWITCH`` /
    sin^2 theta_top, so a row with a_1 <= it sums panel j from its series;
    ``mvalue[j, k - 1]`` is the panel's Kronrod moment sum_c w_c x_c^k
    (x = sin^2 theta, k = 1..``_SERIES_ORDER``) and ``mdiff`` that moment
    less the Gauss one, so a series panel's value and error term are each
    one sum over k.
    """
    m = QuadratureSpec.nodes_per_panel
    hi = np.ldexp(THETA_MAX, -np.arange(quad.max_panels))[:, None]
    lo = 0.5 * hi
    x, wk, wg = _gauss_kronrod(m)
    theta = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    scale = 0.5 * (hi - lo) * beta(theta, params)
    sin, half = np.sin(theta), np.sin(0.5 * theta)
    wvalue, wcheck = scale * wk, scale[:, :m] * wg
    with np.errstate(under="ignore", divide="ignore"):  # deep panels of a large max_panels
        powers = _powers(sin * sin)
        mvalue = np.einsum("pc,pck->pk", wvalue, powers)
        mdiff = mvalue - np.einsum("pc,pck->pk", wcheck, powers[:, :m])
        series_from = _SERIES_SWITCH / np.sin(hi[:, 0]) ** 2
    return _PanelRule(np.log(sin), np.log1p(-2.0 * half * half), sin, np.cos(theta),
                      wvalue, wcheck, series_from, mvalue, mdiff)


def _a1(K, l):
    """a_1 = K/2 + l(l+1)/4, which sets a row's switch to its series (``_eigen_rows``)."""
    return 0.5 * K + 0.25 * l * (l + 1)


def _legendre_sweep(l_end: int, a1_max: float, params: KernelParams,
                    quad: QuadratureSpec) -> np.ndarray:
    """P_0..P_l_end at the sin and cos nodes of the panels that take the bracket, by one recurrence.

    Those are the panels before the switch to the series of a row with
    a_1 = ``a1_max`` (at least one), and so of every row with a smaller
    a_1.  Row l is the ``pl`` argument of ``_eigen_rows``, which reads the
    panel count from its length.  The three-term recurrence gives P_l at
    each node independently of the top degree and of the other nodes, so a
    row read from a long sweep equals that of a short one where both reach.
    """
    rule = _panel_rules(params, quad)
    count = max(1, int(rule.series_from.searchsorted(a1_max)))
    return legendre_all(l_end, np.concatenate([rule.sin[:count].ravel(),
                                               rule.cos[:count].ravel()]))


def _running_sums(start: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """``start`` (one row) and its sums with each row of ``steps`` in turn, as ``+=`` adds.

    ``np.add.accumulate`` adds row after row in sequence, but it loops once
    per column, so a single step is one vectorized add instead.
    """
    if len(steps) == 1:
        return np.concatenate([start, start + steps])
    return np.add.accumulate(np.concatenate([start, steps]))


def _eigen_rows(l: int, n_arr: np.ndarray, pl: np.ndarray, params: KernelParams,
                quad: QuadratureSpec, series: np.ndarray):
    """lambda and err for all n in n_arr at fixed l (the one true code path).

    ``pl`` is row l of ``_legendre_sweep``, ``n_arr`` ascends and ``series``
    holds the rows' ``_series_coefficients``.  Panels are added outward from
    pi/4 to the running sums of the rows still live; a row stops at the
    first panel whose value falls below ``_PANEL_CUTOFF`` times its
    tolerance, and the loop ends when no row is live.  The rule is data
    (``_PanelRule``): a panel's value is the sum of its weighted brackets,
    its error term the distance of the check rule's sum from it.

    A row takes its bracket up to its switch panel, the first with
    a_1 sin^2 theta_top <= ``_SERIES_SWITCH``, a_1 = K/2 + l(l+1)/4, and
    from there its series: the value sum_k a_k M_k and the error term
    |sum_k a_k (M_k - G_k)| over the panel's moments (``_PanelRule``).
    a_1 grows with n, so the rows on their series are a prefix of the live
    rows.  The series leaves out terms below 1e-19 of the bracket.  Write
    y = a_1 x <= 1e-2 (x = sin^2 theta <= sin^2 theta_top) and f << g when
    each coefficient of f is at most that of g in absolute value.  The cos
    part is g(x) = (1 - x)^(K/2) F(t(x)) (``_series_coefficients``), and

    * (1 - x)^(K/2) << (1 - x)^(-K/2), as |binomial(K/2, k)| is at most
      (K/2)(K/2 + 1)...(K/2 + k - 1) / k!;
    * |h_j| <= (l(l+1))^j / j!^2, since (l - i)(l + 1 + i) <= l(l+1), so
      F(t) << exp(l(l+1) t); and t << x / (4 (1 - x)), as every
      coefficient of t lies in (0, 1/4].

    So g << G(x) = (1 - x)^(-K/2) exp(c x / (1 - x)), c = l(l+1)/4, and for
    x < rho < 1 the terms past x^10 sum to at most
    G(rho) (x/rho)^11 / (1 - x/rho).  A non-null mode has a_1 >= 2, so
    rho = 1/a_1 <= 1/2 gives G(rho) <= exp(a_1 rho / (1 - rho)) <= e^2 (by
    -log(1 - rho) <= rho / (1 - rho)) and x/rho = y: the dropped cos terms
    are at most e^2 y^11 / (1 - y) < 7.5e-20 y.  The same bound puts the
    terms past x^1 below 0.075 y, and those of sin^K P_l(sin theta) are at
    most 1.5 x^2 (K <= 3) or x^(K/2) <= x^2, below 0.005 y; the x^1 term of
    (0,2)'s adds to its bracket.  So the bracket exceeds 0.9 y.  The sin^K part is
    a polynomial whose coefficients sum to at most (1 + sqrt 2)^l in
    absolute value, with every power at least K/2; its terms past x^10 are
    below 4e-32 y for every (n, l) (a scan of n, l < 60 gives the largest,
    and the bound falls off beyond).  Rounding in the coefficients is
    smaller still: against exact rationals (``tests/oracles.py``) each
    a_k x^k is within 1e-18 of a_1 x at the largest x a series panel sees.

    Each step evaluates a group of consecutive panels in one bracket call
    for the rows not yet on their series.  The budget ``_BLOCK_DOUBLES``
    covers every per-group array: the bracket block fits it, and so do the
    ``_GROUP_ARRAYS`` arrays of one value per panel and row taken together,
    in rows as well as panels (``_block_task`` passes at most
    ``_SPAN_ROWS`` rows, so one panel of them fits).  The group ends at the
    next bracket row's switch panel, and at the first
    panel where a live row could stop: below the knee
    a panel's value falls about 4-fold per panel, as theta^2 does, so a
    row whose last value is q times its stopping threshold stops no sooner
    than floor(log_4 q) + 1 panels later (before the first panel, q is
    1 / (``_PANEL_CUTOFF`` rel_tol), as if that panel held all of lambda).
    A group with every row on its series runs ``_SERIES_SLACK`` panels
    further, within the same budget.  This only sizes the groups;
    the running sums go through a group with ``np.add.accumulate``, which
    adds in sequence as ``+=`` does, and a row takes the sums at its own
    stopping panel.  Each weighted sum is an ``np.einsum`` whose inner loop
    runs over one panel's contiguous columns of one row, or over one row's
    contiguous coefficients (no BLAS), so every bit is independent of the
    group and of the other rows: single entries, serial builds, parallel
    builds and any group or span size agree bit-for-bit.  One ``np.errstate``
    covers the whole loop.
    """
    n_arr = np.asarray(n_arr, dtype=np.int64)
    rule = _panel_rules(params, quad)
    m = QuadratureSpec.nodes_per_panel
    n_panels, width = rule.sin.shape
    count = len(pl) // (2 * width)  # the panels any of these rows takes directly
    panels = _panels(rule.logsin[:count], rule.logcos[:count], *pl.reshape(2, count, width))
    lam = np.empty(len(n_arr))
    err = np.empty(len(n_arr))
    rows = np.arange(len(n_arr))
    K = (2 * n_arr + l).astype(float)
    first = rule.series_from.searchsorted(_a1(K, l))
    cum = np.zeros((1, len(n_arr)))
    cum_err = np.zeros((1, len(n_arr)))
    j, reach = 0, -math.log(_PANEL_CUTOFF * quad.rel_tol)
    with np.errstate(under="ignore"):
        while j < n_panels:
            ns = first.searchsorted(j, side="right")  # rows on their series at panel j
            direct = ns < len(rows)
            # doubles per panel: of the bracket block, or of the group's arrays together
            per_panel = max((len(rows) - ns) * width, _GROUP_ARRAYS * len(rows))
            steps = max(1, _BLOCK_DOUBLES // per_panel)
            slack = 0 if direct else _SERIES_SLACK
            if reach < steps * _LOG_DECAY:  # False for NaN, which keeps the budget
                steps = min(steps, int(reach / _LOG_DECAY) + 1 + slack)
            # a group ends where the next bracket row switches to its series
            k = min(n_panels, j + steps, first[ns] if direct else n_panels)
            values, errors = [], []
            if ns:
                values.append(np.einsum("rk,gk->gr", series[:ns], rule.mvalue[j:k]))
                errors.append(np.abs(np.einsum("rk,gk->gr", series[:ns], rule.mdiff[j:k])))
            if direct:
                terms = _bracket_rows(K[ns:], l, _group(panels, j, k))
                value = np.einsum("grc,gc->gr", terms, rule.wvalue[j:k])
                check = np.einsum("grc,gc->gr", terms[..., :m], rule.wcheck[j:k])
                del terms  # free this group's block before the next
                values.append(value)
                errors.append(np.abs(value - check))
            value = np.concatenate(values, axis=1)
            run = _running_sums(cum, value)
            run_err = _running_sums(cum_err, np.concatenate(errors, axis=1))
            size = np.abs(value)
            limit = _PANEL_CUTOFF * np.maximum(quad.abs_tol, quad.rel_tol * np.abs(run[1:]))
            done = size < limit
            last = size[-1] / limit[-1]
            j = k
            cum, cum_err = run[-1:], run_err[-1:]
            if done.any():
                stop = done.any(0)
                g, i = done.argmax(0)[stop], np.flatnonzero(stop)
                lam[rows[i]] = run[g + 1, i]
                err[rows[i]] = run_err[g + 1, i] + size[g, i]
                keep = ~stop
                rows, K, first, series = rows[keep], K[keep], first[keep], series[keep]
                cum, cum_err = cum[:, keep], cum_err[:, keep]
                if not len(rows):
                    return lam, err
                last = last[keep]
            reach = math.log(max(last.min(), 1.0))  # a live row's last ratio is >= 1 or NaN
    pairs = [(int(n), l) for n in n_arr[rows]]
    raise QuadratureConvergenceError(pairs, dict(zip(pairs, cum[0].tolist())))


def eigen_integrand(n: int, l: int, theta, params: KernelParams):
    """beta(theta) times the spectral bracket; identically 0 for null modes.

    The bracket is the one the quadrature sums: the direct form, with
    log cos theta = log1p(-2 sin^2(theta/2)), and its power series in
    x = sin^2 theta wherever a_1 x <= ``_SERIES_SWITCH``.  There the
    product is formed as (beta sin theta) sin theta sum_k a_k x^(k-1), so
    it keeps its digits where x is subnormal (theta below about 1.5e-154).
    """
    ModeIndex(n, l, 0).validate()
    theta = np.asarray(theta, dtype=float)
    scalar = theta.ndim == 0
    b = np.atleast_1d(beta(theta, params))
    theta = np.atleast_1d(theta)
    if (n, l) in NULL_MODES:
        out = np.zeros_like(theta)
        return float(out[0]) if scalar else out
    sin, half = np.sin(theta), np.sin(0.5 * theta)
    pl = legendre(l, np.concatenate([sin, np.cos(theta)]))
    panel = _panels(np.log(sin)[None], np.log1p(-2.0 * half * half)[None],
                    *pl.reshape(2, 1, -1))
    K = 2.0 * n + l
    with np.errstate(under="ignore", over="ignore", divide="ignore"):  # x may underflow to 0
        out = b * _bracket_rows(np.array([K]), l, panel)[0, 0]
        x = sin * sin
        deep = _a1(K, l) <= _SERIES_SWITCH / x
        if deep.any():
            a = _series_coefficients([l], [n])[0, 0]
            sd = sin[deep]
            poly = a[0] + np.einsum("ck,k->c", _powers(x[deep])[:, :-1], a[1:])
            out[deep] = b[deep] * sd * sd * poly
    return float(out[0]) if scalar else out


def eigenvalue(n: int, l: int, params: KernelParams,
               quad: QuadratureSpec = QuadratureSpec()) -> EigenvalueEntry:
    """One eigenvalue by graded-panel quadrature, exact 0 for the null modes."""
    ModeIndex(n, l, 0).validate()
    _, [(lam, err)] = _block_task(([l], np.array([n]), params, quad))
    return EigenvalueEntry(n=n, l=l, lam=float(lam[0]), err=float(err[0]))


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

    def lam(self, n: int, l: int) -> float:
        """lambda_{n,l}; EigenvalueLookupError unless the table covers (n, l)."""
        if not (0 <= n <= self.nmax and 0 <= l <= self.lmax):
            raise EigenvalueLookupError(n, l)
        return float(self.lams[n, l])

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
        """The corner n <= nmax, l <= lmax; ValueError unless the table covers it."""
        if not (0 <= nmax <= self.nmax and 0 <= lmax <= self.lmax):
            raise ValueError(f"subset({nmax}, {lmax}) is not a corner of a "
                             f"table({self.nmax}, {self.lmax})")
        return EigenvalueTable(self.params, self.quad, self.lams[:nmax + 1, :lmax + 1],
                               self.errs[:nmax + 1, :lmax + 1])

    @cached_property
    def _row_texts(self) -> list:
        """The text "n,l,lambda,err" of every entry in (n, l) order, floats by repr.

        Formatted once per table, so the cache file and the ``eigs`` output
        of one job share it.  repr is json.dumps's text for every finite
        float, and a table holds no other.
        """
        prefixes = (f"{n},{l}," for n in range(self.nmax + 1) for l in range(self.lmax + 1))
        texts = (map(float.__repr__, a.ravel().tolist()) for a in (self.lams, self.errs))
        return list(map("{}{},{}".format, prefixes, *texts))


def _cache_key(params: KernelParams, quad: QuadratureSpec) -> dict:
    """Every input a table's bits depend on: the header of its cache file."""
    return {"s": params.s, "theta_max": THETA_MAX, "rel_tol": quad.rel_tol,
            "abs_tol": quad.abs_tol, "max_panels": quad.max_panels,
            "nodes_per_panel": QuadratureSpec.nodes_per_panel, "code_version": CODE_VERSION}


def table_version(params: KernelParams, quad: QuadratureSpec) -> str:
    """The crc32 of the cache key as json.dumps writes it, in 8 hex digits: the name
    of the table's cache files and the ``version`` that ``eigs --format json`` writes."""
    return f"{zlib.crc32(json.dumps(_cache_key(params, quad)).encode()):08x}"


def _block_task(args):
    """lambda and err at the ascending n array ``n`` for each l of the block ``ls``.

    One Legendre sweep serves the block.  The n-rows of each l are taken in
    spans of at most ``_SPAN_ROWS``, so that a group of one panel keeps its
    working set within ``_BLOCK_DOUBLES``: its bracket block, and its
    per-group arrays together; the series coefficients are one vectorized
    pass per chunk of l-rows and span, each chunk's within
    ``_BLOCK_DOUBLES``.  Every entry is an independent computation, so the
    spans leave every bit as it is.  The spans of an l all run before any
    of them fails it, so a ``QuadratureConvergenceError`` names each
    failing (n, l) of the first failing l with its partial sum, as one
    unsplit build would.
    """
    ls, n, params, quad = args
    pl = _legendre_sweep(ls[-1], _a1(2.0 * n[-1] + ls[-1], ls[-1]), params, quad)
    chunk = max(1, _BLOCK_DOUBLES // (min(len(n), _SPAN_ROWS) * _SERIES_ORDER))
    rows = []
    for start in range(0, len(ls), chunk):
        part = ls[start:start + chunk]
        found = [([], [], {}) for _ in part]  # each l's lambda and err by span, failed rows
        for i in range(0, len(n), _SPAN_ROWS):
            span = n[i:i + _SPAN_ROWS]
            for (lams, errs, failed), l, series in zip(found, part,
                                                       _series_coefficients(part, span)):
                try:
                    lam, err = _eigen_rows(l, span, pl[l], params, quad, series)
                except QuadratureConvergenceError as exc:
                    failed.update(exc.partial)
                else:
                    lams.append(lam)
                    errs.append(err)
        for lams, errs, failed in found:
            if failed:
                raise QuadratureConvergenceError(list(failed), failed)
            rows.append((np.concatenate(lams), np.concatenate(errs)))
    return ls, rows


def eigenvalue_table(nmax: int, lmax: int, params: KernelParams,
                     quad: QuadratureSpec = QuadratureSpec(),
                     workers: int = 1) -> EigenvalueTable:
    """All eigenvalues with n <= nmax, l <= lmax.

    A serial build sweeps the Legendre recurrence once for the whole table;
    ``workers > 1`` distributes contiguous l-blocks over processes, each
    with its own sweep, once the table has ``_POOL_ENTRIES`` entries.  Every
    entry is an independent deterministic computation, so the result does
    not depend on worker count or evaluation order.
    """
    if nmax < 0 or lmax < 0:
        raise ValueError("nmax and lmax must be nonnegative")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    n = np.arange(nmax + 1)
    if workers > 1 and lmax > 0 and (nmax + 1) * (lmax + 1) >= _POOL_ENTRIES:
        size = -(-(lmax + 1) // (4 * workers))  # about four blocks per worker
        tasks = [(range(l, min(l + size, lmax + 1)), n, params, quad)
                 for l in range(0, lmax + 1, size)]
        from concurrent.futures import ProcessPoolExecutor  # only parallel builds pay for it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_block_task, tasks))
    else:
        blocks = [_block_task((range(lmax + 1), n, params, quad))]
    lams = np.empty((nmax + 1, lmax + 1))
    errs = np.empty((nmax + 1, lmax + 1))
    for ls, rows in blocks:
        for l, (lam, err) in zip(ls, rows):
            lams[:, l], errs[:, l] = lam, err
    return EigenvalueTable(params=params, quad=quad, lams=lams, errs=errs)


def radial_eigenvalues(nmax: int, params: KernelParams,
                       quad: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """lambda_{n,0} for n = 0..nmax: a writable copy of column 0 of ``eigenvalue_table``."""
    return eigenvalue_table(nmax, 0, params, quad).lams[:, 0].copy()


def asymptotic_leading(n: int, l: int, params: KernelParams) -> float:
    """Radial leading term (s/2) * log(sqrt(K))^(2/s) at K = 2n+l, needs K >= 3.

    It is the leading large-n behaviour of lambda_{n,0} (the Legendre
    correction term vanishes since P_0 = 1), evaluated at K = 2n+l for any
    l; it is not the leading term in l.  Along n = 0 it lies below
    lambda_{0,l} by a factor that tends to 2^(2/s).
    """
    ModeIndex(n, l, 0).validate()
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


def _log_bound(K_max: int, s: float, shift: float = math.e) -> np.ndarray:
    """log(K + shift)^(2/s) for K = 0..K_max, one ``math.log`` per K, to be indexed by
    K = 2n + l; OverflowError where a power leaves the double range."""
    return np.array([math.log(k + shift) ** (2.0 / s) for k in range(K_max + 1)])


def ratio_bounds(table: EigenvalueTable, shift: float = math.e) -> RatioBounds:
    """Min/max of lambda_{n,l} / log(2n + l + shift)^(2/s) over modes n+l >= 2.

    The default shift e matches the spectral lower-bound weight and the ``eigs``
    ``ratio_to_log_bound`` column; shift 1.5 + e gives the oscillator-norm weight used
    by the decay certificates.  Each divisor takes one ``math.log`` (``_log_bound``).
    """
    n, l = np.indices(table.lams.shape)
    keep = n + l >= 2
    if not keep.any():
        raise ValueError("table has no modes with n + l >= 2")
    n, l = n[keep], l[keep]
    bound = _log_bound(2 * table.nmax + table.lmax, table.params.s, shift)
    r = table.lams[keep] / bound[2 * n + l]
    i, j = int(np.argmin(r)), int(np.argmax(r))
    return RatioBounds(c_min=float(r[i]), c_max=float(r[j]),
                       argmin=(int(n[i]), int(l[i])), argmax=(int(n[j]), int(l[j])))


# ---------------------------------------------------------------------------
# cache files
# ---------------------------------------------------------------------------

# files are written this many rows at a time, so a job never holds a whole
# cache file or ``eigs`` output as one string (4 MB and 6.9 MB at 201x201),
# nor its encoded bytes; one write per row took 4x the time of these pieces
_WRITE_ROWS = 1024


def _row_chunks(rows):
    """Lists of at most ``_WRITE_ROWS`` consecutive items of ``rows``."""
    rows = iter(rows)
    return iter(lambda: list(itertools.islice(rows, _WRITE_ROWS)), [])


def _atomic_write(path: str, text):
    """Write ``text``, a str or an iterable of str pieces, to ``path`` atomically.

    The pieces go to a temp file in the target's directory, made if missing,
    which replaces ``path`` only once every piece is written; if writing
    fails, the temp file is removed and ``path`` is left as it was.
    """
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dumps_with_rows(doc: dict, rows):
    """Compact key-sorted json.dumps of doc plus "rows", each row given as JSON text.

    A row text is its elements without the brackets ("0,1,0.0,0.0"), so
    preformatted rows are joined, not encoded again.  The text comes in
    pieces of at most ``_WRITE_ROWS`` rows, whose join equals
    json.dumps({**doc, "rows": [...]}, separators=(",", ":"), sort_keys=True).
    """
    head, tail = json.dumps({**doc, "rows": 0}, separators=(",", ":"),
                            sort_keys=True).split('"rows":0', 1)
    yield head + '"rows":[['
    for i, chunk in enumerate(_row_chunks(rows)):
        yield ("],[" if i else "") + "],[".join(chunk)
    yield "]]" + tail


def _json_text(doc) -> str:
    """Compact key-sorted JSON of ``doc``, each non-finite float written as null: strict
    parsers reject the NaN and Infinity that json.dumps writes (floats keep their repr)."""
    doc = json.loads(json.dumps(doc), parse_constant=lambda name: None)
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def save_table(table: EigenvalueTable, path: str):
    """Write the cache file {"header": the cache key, "rows": [[n, l, lambda, err], ...]}.

    It is written atomically (temp file + rename), in pieces.  The rows are
    the table's ``_row_texts``, formatted once per table, so an ``eigs`` job
    that saves and then writes its output formats each float once.
    """
    _atomic_write(path, _dumps_with_rows({"header": _cache_key(table.params, table.quad)},
                                         table._row_texts))


def load_table(path: str, params: KernelParams | None = None,
               quad: QuadratureSpec | None = None) -> EigenvalueTable:
    """Load and validate a cache file; any fault raises CacheError, nothing is migrated.

    Every header field must equal the cache key's of ``params`` and ``quad`` (by
    default the header's s and max_panels); the error names the first that differs.
    json.loads reads the header alone and ``_parse_rows`` the rows.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        start = data.index(b'"rows"')
        header = json.loads(data[:start].rstrip().removesuffix(b",") + b"}")["header"]
        params = params or KernelParams(s=header["s"])
        quad = quad or QuadratureSpec(max_panels=header["max_panels"])
        key = _cache_key(params, quad)
        for field in {**key, **header}:
            if header.get(field) != key.get(field):
                raise CacheError(f"cache {field} {header.get(field)!r} is not {key.get(field)!r}")
        lams, errs = _grid_from_rows(_parse_rows(data, start + len(b'"rows"')))
        return EigenvalueTable(params=params, quad=quad, lams=lams, errs=errs)
    except CacheError:
        raise
    except Exception as exc:
        raise CacheError(f"unreadable eigenvalue cache {path}: {exc}") from exc


_PARSE_BYTES = 1 << 16  # the rows are parsed about this many bytes at a time
_NOT_ROW_SYNTAX = bytes(sorted(set(range(256)) - set(b",[]")))


def _parse_rows(data: bytes, pos: int) -> np.ndarray:
    """The rows ': [[n, l, lambda, err], ...]}' after ``data[pos]`` as an (nrows, 4) array.

    In each piece, cut after a row's ']', the brackets and commas must read
    ',[,,,]' per row (the first piece's comma implied), and np.fromstring
    must read four numbers per row with the brackets blanked.
    """
    lo, hi = data.index(b"[", pos), data.rindex(b"]")
    if data[pos:lo].strip() != b":" or data[hi + 1:].strip() != b"}":
        raise CacheError("cache rows must be one array closed by the file's last '}'")
    rows, done, start = np.empty((data.count(b"]", lo + 1, hi), 4)), 0, lo + 1
    while start < hi:
        stop = data.find(b"]", start + _PARSE_BYTES, hi) + 1 or hi
        piece = (b"," if start == lo + 1 else b"") + data[start:stop]
        count = piece.count(b"]")
        if piece.translate(None, _NOT_ROW_SYNTAX) != b",[,,,]" * count:
            raise CacheError("cache rows must be [n, l, lambda, err] lists")
        text = piece.translate(bytes.maketrans(b"[]", b"  ")).lstrip().removeprefix(b",")
        rows[done:done + count] = np.fromstring(text, sep=",").reshape(count, 4)
        done, start = done + count, stop
    return rows


def _grid_from_rows(rows: np.ndarray):
    """(lams, errs) arrays from the (nrows, 4) cache rows [n, l, lambda, err].

    The rows must be the (n, l) grid up to the last row's pair, in (n, l)
    order, the order ``save_table`` writes.
    """
    if not len(rows):
        raise CacheError("cache rows must be nonempty [n, l, lambda, err] lists")
    n, l = rows[-1, :2]
    fits = 0 <= min(n, l) and (n + 1) * (l + 1) == len(rows)
    shape = (int(n) + 1, int(l) + 1) if fits else (0, 0)
    if not np.array_equal(rows[:, :2], np.indices(shape).reshape(2, -1).T):
        raise CacheError(f"cache rows are not the (n, l) grid up to ({n:g}, {l:g}) in "
                         f"(n, l) order, each pair exactly once ({len(rows)} rows)")
    return rows[:, 2:].T.copy().reshape(2, *shape)  # a copy, so ``rows`` can be freed
