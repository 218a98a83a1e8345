"""Exact spectral evolution and finite-truncation verification of the decay claims.

The evolution is diagonal: each amplitude decays as exp(-lambda_{n,l} t),
null modes (n + l <= 1) are conserved.  No time stepping is involved, so
the semigroup law and null conservation hold to roundoff and the weak
formulation can be checked against high-order time quadrature.

Decay certificates
------------------
The decay statements involve an unspecified positive constant c0.  This
package fixes it once per table, as ``choose_c0`` computes it:

    c0 = (1/2) * c_min * log(2 + 3/2 + e)^(2/s - 1),
    c_min = min over table modes (n + l >= 2) of
            lambda_{n,l} / log(2n + l + 3/2 + e)^(2/s),

i.e. the ratio minimum taken with the OSCILLATOR-NORM shift 3/2 + e (see
``kernel.ratio_bounds(shift=...)``), not the default spectral-bound shift e.
With that choice, for s <= 2 the mode-wise bound

    c0 * log(2n + l + 3/2 + e) <= lambda_{n,l} / 2

holds for every tabulated mode with n + l >= 2 (the chain
(log W0)^(2/s-1) log W <= (log W)^(2/s) needs W >= W0, which is exactly
n + l >= 2); combined with the verified spectral gap it certifies

    (2n+l+3/2+e)^(c0 t) exp(-lambda_{n,l} t) <= exp(-lambda_{2,0} t / 2)

for every t > 0, with equality at the ratio-minimizing mode when s = 2.
The e-shifted minimum from plain ratio_bounds does NOT certify this (it
fails at mode (2,0)); the half-unit difference between the two log shifts
matters at small modes.  The checks take no other c0: a constant given
by hand could be zero, negative or uncertified.

Rate conventions: certificates use the decay factor exp(-lambda_{2,0} t/2)
(half of each eigenvalue is spent on weight growth); check records also
report the unreduced exp(-lambda_{2,0} t) / exp(-lambda_{2,0} t/4) variants
so callers can compare both constants without the package adjudicating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ModeIndex, SpectralField, project_null
from .kernel import EigenvalueTable, _check_s, _json_text, ratio_bounds
from .kernel import radial_eigenvalues  # not called; the benchmark tracer wraps this name
from .spaces import W_SHIFT, NormSpec, log_weight, spectral_norm
from .specfun import _gauss_rule

__all__ = [
    "evolve",
    "choose_c0",
    "rate1_certificate",
    "decay_check_thm12",
    "rate1_check",
    "rate2_check",
    "DelaySeries",
    "S2DelaySeries",
    "SobolevSeries",
    "log_coeff",
    "TailVerdict",
    "series_tail_classify",
    "classify_frontier",
    "weak_form_residual",
    "EvolutionReport",
]

_REL_SLACK = 1e-12  # roundoff slack of rate1_certificate and the decay checks
_TAIL_WINDOW = 1000  # trailing terms that series_tail_classify reads for growth
_FRONTIER_T_LO, _FRONTIER_TOL = 1e-3, 0.01  # classify_frontier's lower end, width
_WEAK_FORM_NODES = 64  # Gauss-Legendre order of weak_form_residual


def _decay(lam: np.ndarray, t: float) -> np.ndarray:
    """exp(-lambda t) for each mode, by the C library's exp.

    numpy's SIMD exp is faithfully rounded, not correctly: against mpmath it
    missed the nearest double on 891 of 20,000 arguments in [-5, 0] (numpy
    2.4, AVX-512), and math.exp on 18.  So a single mode would miss its
    closed form exp(-lambda t) by an ulp for about one lambda in twenty.
    math.exp costs about 0.1 us a mode.
    """
    return np.fromiter(map(math.exp, (-lam * t).tolist()), float, len(lam))


def _check_time(t: float) -> None:
    """ValueError unless t is finite and nonnegative (``t < 0`` alone lets NaN through)."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and nonnegative, got {t!r}")


def evolve(g: SpectralField, t: float, table: EigenvalueTable) -> SpectralField:
    """Multiply each amplitude by exp(-lambda_{n,l} t); null modes are unchanged."""
    _check_time(t)
    decay = _decay(table.lams_at(g.nlm[:, 0], g.nlm[:, 1]), t)
    return SpectralField((g.nlm, g.amps * decay), label=g.label)


def choose_c0(table: EigenvalueTable, s: float) -> float:
    """The certificate constant (1/2) c_min log(2+3/2+e)^(2/s-1) (module docstring)."""
    _check_s(table, s)
    c_min = ratio_bounds(table, shift=W_SHIFT).c_min
    return 0.5 * c_min * math.log(2.0 + W_SHIFT) ** (2.0 / s - 1.0)


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    c0: float
    worst_margin: float
    worst_mode: tuple


def rate1_certificate(table: EigenvalueTable, s: float) -> CertificateReport:
    """Mode-wise check lambda - c0 log W >= lambda_{2,0}/2 over the whole table.

    Equality occurs at the ratio-minimizing mode for s = 2, hence a slack for
    roundoff, r = ``_REL_SLACK``: the stricter of r * lambda_{2,0}/2 on
    the margin and a factor 1 + r on W^(c0 t) e^(-lambda t) <=
    e^(-lambda_{2,0} t/2) at every t <= 5, i.e. log1p(r)/5 on the margin.
    """
    c0 = choose_c0(table, s)
    half_gap = 0.5 * table.lam(2, 0)
    n, l = np.indices(table.lams.shape)
    keep = n + l >= 2
    n, l = n[keep], l[keep]
    margin = table.lams[keep] - c0 * np.log(2 * n + l + W_SHIFT) - half_gap
    i = int(np.argmin(margin))
    worst, worst_mode = float(margin[i]), (int(n[i]), int(l[i]))
    ok = worst >= -min(_REL_SLACK * half_gap, math.log1p(_REL_SLACK) / 5.0)
    return CertificateReport(ok=ok, c0=c0, worst_margin=worst, worst_mode=worst_mode)


@dataclass(frozen=True)
class DecayCheck:
    lhs: float
    rhs: float
    holds: bool
    rhs_paper: float
    holds_paper: bool
    c0: float


def _decay_check(g0: SpectralField, t: float, table: EigenvalueTable, c0: float,
                 weight: NormSpec, base_norm, paper_rate: float) -> DecayCheck:
    """The ``weight`` norm of (I-P)g(t) against base_norm((I-P)g0) times the
    certified factor exp(-lambda_{2,0}t/2) (``rhs``) and the paper factor
    exp(-paper_rate lambda_{2,0}t) (``rhs_paper``), each with the roundoff
    slack ``_REL_SLACK``."""
    gp = project_null(g0, "orthogonal")
    lhs = spectral_norm(evolve(gp, t, table), weight)
    base = base_norm(gp)
    gap = table.lam(2, 0)
    rhs = math.exp(-0.5 * gap * t) * base
    rhs_paper = math.exp(-paper_rate * gap * t) * base
    return DecayCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1.0 + _REL_SLACK),
                      rhs_paper=rhs_paper, holds_paper=lhs <= rhs_paper * (1.0 + _REL_SLACK),
                      c0=c0)


def decay_check_thm12(g0: SpectralField, t0: float, t: float,
                      table: EigenvalueTable, s: float) -> DecayCheck:
    """Log-Sobolev-weighted decay check with dual-weighted initial data.

    With c0 = ``choose_c0(table, s)``, lhs is the logsob(t*c0, s) norm of
    (I-P)g(t); the right-hand side is the logsob(-t0, s) norm of (I-P)g0
    times a decay factor: exp(-lambda_{2,0}t/2) for ``rhs`` and
    exp(-lambda_{2,0}t/4) for ``rhs_paper``.  Requires t >= t0/c0 (below
    that the weight gain is not paid for).
    """
    if t0 <= 0.0:
        raise ValueError("t0 must be positive")
    c0 = choose_c0(table, s)
    if t < t0 / c0:
        raise ValueError(f"need t >= t0/c0 = {t0 / c0:.6g}, got {t}")
    return _decay_check(g0, t, table, c0, NormSpec.logsob(t * c0, s),
                        lambda gp: spectral_norm(gp, NormSpec.logsob(-t0, s)), 0.25)


def rate1_check(g0: SpectralField, t: float, table: EigenvalueTable,
                s: float) -> DecayCheck:
    """Shubin-weighted decay check || (e+H)^(c0 t) (I-P)g(t) || vs L2 of (I-P)g0.

    ``rhs``/``holds`` use the certified factor exp(-lambda_{2,0}t/2);
    ``rhs_paper``/``holds_paper`` the unreduced exp(-lambda_{2,0}t).  With
    the certificate constant the certified variant holds mode-wise for any
    finite field covered by the table (s <= 2).
    """
    if not 0.0 < s <= 2.0:
        raise ValueError("rate1 check applies for s in (0, 2]")
    _check_time(t)
    c0 = choose_c0(table, s)
    return _decay_check(g0, t, table, c0, NormSpec.shubin(2.0 * c0 * t),
                        SpectralField.l2_norm, 1.0)


@dataclass(frozen=True)
class Rate2Check:
    lhs: float
    rhs: float
    holds: bool
    cs_empirical: float
    cs_budget: float


def rate2_check(g0: SpectralField, t: float, k: float, table: EigenvalueTable,
                s: float) -> Rate2Check:
    """Shubin(k) smoothing check with the smallest constant making it hold.

    cs_empirical is the least c_s with
    ||(I-P)g(t)||_{Q^k} <= exp(-lambda_{2,0} t) exp(c_s (1/t)^(s/(2-s)) k^(2/(2-s)))
    * ||(I-P)g0||_{L2} for this instance.  The budget combines the Young
    optimum at tau = t c_min/2 (c_min the 3/2+e-shifted ratio minimum, which
    certifies max_modes W^k exp(-lambda t) mode-wise) with a term absorbing
    the lambda_{2,0}/2-vs-lambda_{2,0} rate deficit:

        budget = (2-s)/4 * (s/(2 c_min))^(s/(2-s))
                 + lambda_{2,0}/2 * t^(2/(2-s)) / k^(2/(2-s)).
    """
    if not 0.0 < s < 2.0:
        raise ValueError("rate2 check applies for s in (0, 2)")
    _check_s(table, s)
    if t <= 0.0:
        raise ValueError("time must be positive")
    if k < 0.0:
        raise ValueError("weight order k must be nonnegative")
    gp = project_null(g0, "orthogonal")
    lhs = spectral_norm(evolve(gp, t, table), NormSpec.shubin(k))
    gap = table.lam(2, 0)
    baseline = math.exp(-gap * t) * gp.l2_norm()
    if k == 0.0:
        return Rate2Check(lhs=lhs, rhs=baseline, holds=lhs <= baseline * (1.0 + _REL_SLACK),
                          cs_empirical=0.0, cs_budget=0.0)
    scale = (1.0 / t) ** (s / (2.0 - s)) * k ** (2.0 / (2.0 - s))
    cs_emp = max(0.0, math.log(lhs / baseline) / scale) if baseline > 0.0 else math.inf
    c_min = ratio_bounds(table, shift=W_SHIFT).c_min
    budget = ((2.0 - s) / 4.0 * (s / (2.0 * c_min)) ** (s / (2.0 - s))
              + 0.5 * gap * t ** (2.0 / (2.0 - s)) / k ** (2.0 / (2.0 - s)))
    rhs = baseline * math.exp(cs_emp * scale)
    return Rate2Check(lhs=lhs, rhs=rhs, holds=cs_emp <= budget,
                      cs_empirical=cs_emp, cs_budget=budget)


# ---------------------------------------------------------------------------
# series initial data and tail classification
# ---------------------------------------------------------------------------

class _RadialSeries:
    """Radial data sum_{n_min <= n <= N} c_n phi_{n,0,0}; see ``log_coeff``."""

    n_min = 2

    def __post_init__(self):
        # series_tail_classify reads term ratios over the trailing half
        if self.N - self.n_min < 3:
            raise ValueError(f"the series needs at least four terms: truncation N must be "
                             f"at least {self.n_min + 3}, got {self.N}")

    def field(self, lam: np.ndarray) -> SpectralField:
        """The truncated data as a SpectralField, given lambda_{n,0} for n <= N."""
        n = np.arange(self.n_min, self.N + 1)
        with np.errstate(over="ignore"):  # SpectralField names an overflowed mode
            amps = np.exp(log_coeff(self, np.log(n), lam[n]))
        return SpectralField((np.outer(n, (1, 0, 0)), amps), label=str(self))


@dataclass(frozen=True)
class DelaySeries(_RadialSeries):
    """Radial data sum_{n>=1} (1/n) exp(tau0 lambda_{n,0}) phi_{n,0,0}, truncated at N."""

    tau0: float
    N: int = 10_000
    n_min = 1

    def __post_init__(self):
        if not 0.0 < self.tau0 < math.inf:
            raise ValueError(f"tau0 must be positive and finite, got {self.tau0!r}")
        super().__post_init__()


@dataclass(frozen=True)
class S2DelaySeries(_RadialSeries):
    """Radial data sum_{n>=2} n^(-1/2)/log(n) phi_{n,0,0}, truncated at N."""

    N: int = 10_000


@dataclass(frozen=True)
class SobolevSeries(_RadialSeries):
    """Radial data sum_{n>=2} n^(-(tau+1)/2)/log(n) phi_{n,0,0}, truncated at N."""

    tau: float
    N: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau!r}")
        super().__post_init__()


def log_coeff(spec, logn, lam):
    """log |c_n| of a radial series at log n = ``logn``, vectorized.

    ``lam`` holds lambda_{n,0} at the same n (only the delay data reads it).
    """
    if isinstance(spec, DelaySeries):
        return spec.tau0 * lam - logn
    if isinstance(spec, S2DelaySeries):
        return -0.5 * logn - np.log(logn)
    if isinstance(spec, SobolevSeries):
        return -0.5 * (spec.tau + 1.0) * logn - np.log(logn)
    raise TypeError(f"not a radial series spec: {spec!r}")


@dataclass(frozen=True)
class TailVerdict:
    classification: str  # convergent | divergent | inconclusive
    p_hat: float
    window_growth_log10: float
    median_tail_ratio_log: float
    log10_tail_estimate: float
    log10_partial_sum: float  # log10 of the sum of every term n <= N


def _fit_lambda_tail(lam: np.ndarray, s: float, u: np.ndarray) -> np.ndarray:
    """lambda_{n,0} at n = e^u from a fit a x^(2/s) + b x^(2/s-1) + c, x = log sqrt(2n).

    Fitted on the top decade of the computed range; the basis matches the
    leading term and first correction of the large-mode expansion, so the
    fit extrapolates stably far beyond the truncation (the extrapolation is
    only used for tail trend detection, never for reported eigenvalues).
    """
    N = len(lam) - 1
    n = np.arange(max(2, N // 10), N + 1)
    x = 0.5 * np.log(2.0 * n)
    A = np.vstack([x ** (2.0 / s), x ** (2.0 / s - 1.0), np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, lam[n], rcond=None)
    xx = 0.5 * (u + math.log(2.0))
    return coef[0] * xx ** (2.0 / s) + coef[1] * xx ** (2.0 / s - 1.0) + coef[2]


_U_HORIZON = 600.0  # far edge of the log-space extrapolation grid (n = e^600)


def _median(x: np.ndarray) -> float:
    """``np.median`` of a nonempty 1-D array, from a full sort.

    np.median imports numpy.ma, about 17 ms of a CLI run.  Its value is the
    middle element, or the mean (a + b) / 2 of the middle two, of the
    partitioned array, and NaN when the array holds a NaN (NaN sorts last).
    The sorted array has the same middle values, so the result is the same
    double; only a zero median may carry the other sign, since sort and
    partition may order -0 and +0 differently.
    """
    s = np.sort(x)
    h = len(s) // 2
    if np.isnan(s[-1]):
        return math.nan
    return float(s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2)


def series_tail_classify(spec, t: float, norm: NormSpec,
                         table: EigenvalueTable) -> TailVerdict:
    """Convergent/divergent/inconclusive verdict for a radial series norm at time t.

    Two lines of evidence feed the verdict:

    * the exact log-terms log b_n = log weight + 2 (log|c_n| - lambda_{n,0} t)
      for n <= N: partial-sum growth by >= 10x over the trailing window, or a
      sustained term ratio >= 1, is immediate divergence;
    * an integral-test surrogate in u = log n over [log N, 600], with
      lambda extrapolated by its fitted large-mode form: if the per-e-fold
      integrand exp(log b + u) trends back up over the horizon the tail
      integral is unbounded (divergent); if it keeps decaying and the
      integral settles, the tail is summable (convergent) and its size is
      reported.

    The log-space horizon matters: some divergent series only turn upward
    at n ~ e^200, far beyond any representable term index, but the trend is
    visible in u.  Verdicts that match neither pattern are inconclusive,
    which is a legitimate return near thresholds, not an error.

    ``table`` supplies lambda_{n,0} for n <= spec.N and the exponent s; a
    table that does not cover those modes raises EigenvalueLookupError.
    """
    _check_time(t)
    if not isinstance(spec, _RadialSeries):
        raise TypeError("tail classification applies to the radial series families")
    N = spec.N
    lam = table.lams_at(np.arange(N + 1), np.zeros(N + 1, dtype=np.int64))
    n = np.arange(spec.n_min, N + 1)
    logn = np.log(n)
    with np.errstate(over="ignore"):  # lambda t past the double range: a zero term
        log_b = (log_weight(norm, np.log(2 * n + W_SHIFT), lam[n])
                 + 2.0 * (log_coeff(spec, logn, lam[n]) - lam[n] * t))
    window = min(_TAIL_WINDOW, len(n) // 2)
    tail_b = log_b[-window:]

    log10_sum = _log10_sum_at(log_b, len(n))
    growth = log10_sum - _log10_sum_at(log_b, len(n) - window)
    with np.errstate(invalid="ignore"):  # two zero terms have no ratio: NaN, not >= 0
        med_ratio = _median(np.diff(tail_b))
    A = np.vstack([logn[-window:], np.ones(window)]).T
    slope, _ = np.linalg.lstsq(A, tail_b, rcond=None)[0]
    p_hat = float(-slope)

    if growth >= 1.0 or med_ratio >= 0.0:
        return TailVerdict("divergent", p_hat, growth, med_ratio, math.inf, log10_sum)

    # extrapolated integral test: h(u) = log b(e^u) + u, tail = int exp(h) du
    u = np.linspace(math.log(float(N)), _U_HORIZON, 1024)
    lam_u = _fit_lambda_tail(lam, table.params.s, u)
    logW = u + math.log(2.0) + np.log1p(0.5 * W_SHIFT * np.exp(-u))
    with np.errstate(over="ignore"):
        h = log_weight(norm, logW, lam_u) + 2.0 * (log_coeff(spec, u, lam_u) - lam_u * t) + u
    du = u[1] - u[0]
    rising = h[-1] > -math.inf and h[-1] >= h[len(h) // 2]  # -inf is a zero term
    hmax = float(np.max(h))
    if hmax == -math.inf:  # every term of the tail is zero in doubles
        return TailVerdict("convergent", p_hat, growth, med_ratio, -math.inf, log10_sum)
    decayed = h[-1] <= hmax - 40.0
    with np.errstate(under="ignore"):
        contrib = np.exp(h - hmax)
    total = float(np.sum(contrib))
    last_eighth = float(np.sum(contrib[-len(h) // 8:]))
    settled = decayed and (total > 0.0 and last_eighth <= 1e-6 * total)
    log10_tail = ((hmax + math.log(total * du)) / math.log(10.0)
                  if total > 0.0 else -math.inf)

    if rising:
        cls = "divergent"
    elif settled:
        cls = "convergent"
    else:
        cls = "inconclusive"
    return TailVerdict(cls, p_hat, growth, med_ratio, log10_tail, log10_sum)


def _log10_sum_at(log_b: np.ndarray, upto: int) -> float:
    chunk = log_b[:upto]
    m = float(np.max(chunk))
    if m == -math.inf:
        return -math.inf
    return (m + math.log(float(np.sum(np.exp(chunk - m))))) / math.log(10.0)


def classify_frontier(spec_for_t, k: float, table: EigenvalueTable) -> float:
    """Smallest t with a convergent verdict for Shubin(k), by bisection.

    ``spec_for_t`` is the series spec (the same data evolves; only t moves).
    Inconclusive verdicts count as not-yet-convergent, so the frontier is an
    upper bisection bracket on the divergence threshold, searched for in
    [``_FRONTIER_T_LO``, max(4, 4k)].  ``table`` must cover (n <= N, l = 0),
    as for ``series_tail_classify``.
    """
    norm = NormSpec.shubin(k)
    lo, hi = _FRONTIER_T_LO, max(4.0, 4.0 * k)
    if series_tail_classify(spec_for_t, hi, norm, table).classification != "convergent":
        raise ValueError(f"no convergent verdict up to t = max(4, 4k) = {hi}")
    while hi - lo > _FRONTIER_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        v = series_tail_classify(spec_for_t, mid, norm, table)
        if v.classification == "convergent":
            hi = mid
        else:
            lo = mid
    return hi


def weak_form_residual(g0: SpectralField, test_modes, t: float,
                       table: EigenvalueTable) -> float:
    """|LHS - RHS| of the weak formulation for phi(tau) = (1+tau) sum_j phi_{mode_j}.

    LHS = <g(t), phi(t)> - <g0, phi(0)>; RHS integrates <g, d_tau phi> -
    <g, L phi> over [0, t] with Gauss-Legendre of order ``_WEAK_FORM_NODES``.
    The evolution is exact, so the residual is pure quadrature error.
    """
    _check_time(t)
    idx = np.array([ModeIndex(*m).validate() for m in test_modes], dtype=np.int64).reshape(-1, 3)
    lams = table.lams_at(idx[:, 0], idx[:, 1])
    amps = (idx[:, None, :] == g0.nlm).all(axis=2) @ g0.amps  # 0 where g0 has no such mode

    lhs = (1.0 + t) * np.sum(amps * np.exp(-lams * t)) - np.sum(amps)
    if t == 0.0:
        return float(abs(lhs))
    x, w = _gauss_rule(_WEAK_FORM_NODES)
    tau = 0.5 * t * (x + 1.0)
    wt = 0.5 * t * w
    decay = np.exp(-np.outer(tau, lams))  # (nodes, modes)
    integrand = decay @ amps - ((1.0 + tau)[:, None] * decay) @ (lams * amps)
    rhs = np.dot(wt, integrand)
    return float(abs(lhs - rhs))


def _sorted_times(times) -> tuple:
    """``times`` as an ascending tuple of floats; ValueError unless each is finite,
    nonnegative and distinct."""
    times = tuple(sorted(float(t) for t in times))
    for t in times:
        _check_time(t)
    if len(set(times)) != len(times):
        raise ValueError("times must be distinct")
    return times


@dataclass(frozen=True)
class EvolutionReport:
    """Norm trajectories of an evolved field plus fitted exponential rates."""

    times: tuple
    norm_specs: tuple
    values: tuple  # values[i][j] = norm j at time i
    decay_slopes: tuple

    @classmethod
    def compute(cls, g0: SpectralField, times, norms, table: EigenvalueTable
                ) -> "EvolutionReport":
        times = _sorted_times(times)
        specs = tuple(norms)
        rows = [tuple(spectral_norm(gt, sp, table) for sp in specs)
                for gt in (evolve(g0, t, table) for t in times)]
        slopes = []
        tarr = np.array(times)
        for j in range(len(specs)):
            vals = np.array([rows[i][j] for i in range(len(times))])
            ok = vals > 0.0
            if ok.sum() >= 2 and len(set(tarr[ok])) >= 2:
                A = np.vstack([tarr[ok], np.ones(ok.sum())]).T
                slope, _ = np.linalg.lstsq(A, np.log(vals[ok]), rcond=None)[0]
                slopes.append(float(slope))
            else:
                slopes.append(math.nan)
        return cls(times=times, norm_specs=tuple(str(sp) for sp in specs),
                   values=tuple(rows), decay_slopes=tuple(slopes))

    def rows(self):
        for i, t in enumerate(self.times):
            for j, sp in enumerate(self.norm_specs):
                yield t, sp, self.values[i][j]

    def to_csv(self) -> str:
        lines = ["time,norm,value"]
        for t, sp, v in self.rows():
            sp = f'"{sp}"' if "," in sp else sp
            lines.append(f"{t!r},{sp},{v!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return _json_text({"times": self.times, "norms": self.norm_specs,
                           "values": self.values, "decay_slopes": self.decay_slopes})
