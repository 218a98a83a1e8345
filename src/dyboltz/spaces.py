"""Function-space norms as weighted spectral sums, plus the Young-bound machinery.

Every norm here is a square root of a weighted sum of squared amplitudes
over the modes of a finite SpectralField; W = 2n + l + 3/2 + e denotes the
shifted oscillator eigenvalue and lambda~ the modified collision eigenvalue
(1 on the null space, lambda_{n,l} otherwise):

    l2                      weight 1
    shubin:k=K              weight W^K          (|| (e+H)^{K/2} u ||)
    logsob:tau=T,nu=N       weight exp(2 T (log W)^(2/N)),  T may be negative
    domain:tau=T            weight exp(T lambda~)
    domaindual:tau=T        weight exp(-T lambda~)
    domainplus:tau=T        weight lambda~ exp(T lambda~)
    domainplusdual:tau=T    weight exp(-T lambda~) / lambda~

The strings on the left are the canonical CLI forms accepted by
``parse_norm_spec``; every parameter must be finite.  ``log_weight`` is
the one map from a norm to its weight: ``spectral_norm`` sums it over a
finite field, and the solver's radial series sums and tail surrogate call
it too.

Note the two distinct logarithm shifts in this package: norm weights use
log(2n + l + 3/2 + e) (as here), while the spectral-bound ratio in
``kernel.ratio_bounds`` defaults to log(2n + l + e).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SpectralField
from .kernel import EigenvalueTable, _check_s, _log_bound

__all__ = [
    "NormSpec",
    "log_weight",
    "spectral_norm",
    "young_min",
    "young_rhs",
    "YoungMin",
    "EmbeddingEstimate",
    "embedding_estimate",
    "parse_norm_spec",
]

W_SHIFT = 1.5 + math.e

# each norm kind and the NormSpec fields it takes, in their canonical order
_KINDS = {"l2": (), "shubin": ("k",), "logsob": ("tau", "nu"), "domain": ("tau",),
          "domaindual": ("tau",), "domainplus": ("tau",), "domainplusdual": ("tau",)}


@dataclass(frozen=True)
class NormSpec:
    kind: str
    k: float = 0.0
    tau: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}; choose from {tuple(_KINDS)}")
        if not all(map(math.isfinite, (self.k, self.tau, self.nu))):
            raise ValueError(f"norm parameters must be finite, got {self!r}")
        if self.kind == "shubin" and self.k < 0.0:
            raise ValueError("shubin order k must be nonnegative")
        if self.kind == "logsob" and self.nu <= 0.0:
            raise ValueError("logsob nu must be positive")
        if self.kind.startswith("domain") and self.tau <= 0.0:
            raise ValueError(f"{self.kind} tau must be positive")

    # constructors ---------------------------------------------------------
    @classmethod
    def l2(cls):
        return cls("l2")

    @classmethod
    def shubin(cls, k: float):
        return cls("shubin", k=k)

    @classmethod
    def logsob(cls, tau: float, nu: float):
        return cls("logsob", tau=tau, nu=nu)

    @property
    def needs_table(self) -> bool:
        return self.kind.startswith("domain")

    def __str__(self):
        """The canonical form; ``parse_norm_spec`` reads it back to an equal spec."""
        args = ",".join(f"{key}={_num(getattr(self, key))}" for key in _KINDS[self.kind])
        return f"{self.kind}:{args}" if args else self.kind


def _num(x: float) -> str:
    """x as ``:g`` text where that parses back to x, else as its repr."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def _parse_spec(text: str, takes: dict) -> tuple:
    """``(kind, {key: value text})`` of a 'kind:key=value,...' spec, the kind lowercased.

    A ValueError names an unknown kind (and lists the kinds of ``takes`` with
    their arguments), or an argument that is malformed, repeated or not among
    ``takes[kind]``.
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind not in takes:
        forms = (name + ":" * bool(keys) + ",".join(f"{k}={k[0].upper()}" for k in keys)
                 for name, keys in takes.items())
        raise ValueError(f"unknown kind {kind!r}; canonical forms: {', '.join(forms)}")
    args = {}
    for item in rest.split(",") if rest else ():
        key, _, value = (part.strip() for part in item.partition("="))
        if not value:
            raise ValueError(f"malformed {kind} argument {item.strip()!r}")
        if key in args or key not in takes[kind]:
            raise ValueError(f"{kind} {'repeats' if key in args else 'takes no'} argument {key!r}")
        args[key] = value
    return kind, args


def parse_norm_spec(text: str) -> NormSpec:
    """Parse the canonical CLI string form, e.g. 'shubin:k=2' or 'domain:tau=0.5'; a
    ValueError names an argument that is malformed, repeated, missing or not the kind's."""
    kind, args = _parse_spec(text.lower(), _KINDS)
    for key in _KINDS[kind]:
        if key not in args:
            raise ValueError(f"norm spec {text!r} is missing argument {key!r}")
    return NormSpec(kind, **{key: float(value) for key, value in args.items()})


def _lam_tilde(lam):
    # lambda~: 1 on the null space, which is exactly where lambda = 0
    return np.where(lam == 0.0, 1.0, lam)


def log_weight(spec: NormSpec, logW, lam=None):
    """log of the squared-sum weight of modes with log W = ``logW``, vectorized.

    ``lam`` holds the collision eigenvalues of the same modes (0 on the null
    space); only the domain norms read it.
    """
    if spec.kind == "l2":
        return np.zeros_like(logW)
    if spec.kind == "shubin":
        return spec.k * logW
    if spec.kind == "logsob":
        return 2.0 * spec.tau * logW ** (2.0 / spec.nu)
    if lam is None:
        raise ValueError(f"{spec.kind} norms need an eigenvalue table")
    lam = _lam_tilde(lam)
    if spec.kind == "domain":
        return spec.tau * lam
    if spec.kind == "domaindual":
        return -spec.tau * lam
    if spec.kind == "domainplus":
        return spec.tau * lam + np.log(lam)
    return -spec.tau * lam - np.log(lam)  # domainplusdual


def spectral_norm(field: SpectralField, spec: NormSpec,
                  table: EigenvalueTable | None = None) -> float:
    """sqrt(sum_modes weight * |amplitude|^2); table required for domain norms."""
    n, l = field.nlm[:, 0], field.nlm[:, 1]
    lam = table.lams_at(n, l) if spec.needs_table and table is not None else None
    # finite weighted sums may legitimately overflow the double range
    with np.errstate(over="ignore"):
        weight = np.exp(log_weight(spec, np.log(2 * n + l + W_SHIFT), lam))
    return field._norm(weight)


@dataclass(frozen=True)
class YoungMin:
    min_value: float
    argmin: float


def _check_young(tau: float, nu: float, k: float):
    # written so that NaN and the infinities fail each comparison
    if not (0.0 < tau < math.inf and 0.0 < nu < 2.0):
        raise ValueError("need tau > 0 and 0 < nu < 2")
    if not 0.0 <= k < math.inf:
        raise ValueError("k must be nonnegative")


def young_min(tau: float, nu: float, k: float) -> YoungMin:
    """Numeric minimum of h(x) = exp(2 tau (log x)^(2/nu)) / x^k over x >= 1.

    h is unimodal in log x with interior stationary point
    u* = (k nu / (4 tau))^(nu/(2-nu)); golden section searches
    log x in [0, 3 (u* + 1)], which brackets u*.
    """
    _check_young(tau, nu, k)
    if k == 0.0:
        return YoungMin(min_value=1.0, argmin=1.0)  # h nondecreasing from h(1) = 1
    log_u_star = nu / (2.0 - nu) * math.log(k * nu / (4.0 * tau))
    if log_u_star > 690.0:  # u* itself not representable (nu close to 2)
        raise ValueError("stationary point too large to represent; parameters too extreme")
    u_hi = 3.0 * (math.exp(log_u_star) + 1.0)

    def g(u):  # log h
        return 2.0 * tau * u ** (2.0 / nu) - k * u

    lo, hi = 0.0, u_hi
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    ga, gb = g(a), g(b)
    while hi - lo > 1e-13 * (1.0 + hi):
        if ga <= gb:
            hi, b, gb = b, a, ga
            a = hi - inv_phi * (hi - lo)
            ga = g(a)
        else:
            lo, a, ga = a, b, gb
            b = lo + inv_phi * (hi - lo)
            gb = g(b)
    u_min = 0.5 * (lo + hi)
    log_min = g(u_min)
    return YoungMin(
        min_value=math.exp(log_min) if log_min > -745.0 else 0.0,
        argmin=math.exp(u_min) if u_min < 709.0 else math.inf,
    )


def young_rhs(tau: float, nu: float, k: float) -> float:
    """Closed-form lower bound exp(-((2-nu)/2) (nu/(4 tau))^(nu/(2-nu)) k^(2/(2-nu))).

    This is the exact minimum of h over x >= 1 (Young's inequality is tight
    at the stationary point), so ``young_min`` reproduces it to roundoff.
    """
    _check_young(tau, nu, k)
    expo = (2.0 - nu) / 2.0 * (nu / (4.0 * tau)) ** (nu / (2.0 - nu)) * k ** (2.0 / (2.0 - nu))
    return math.exp(-expo)


@dataclass(frozen=True)
class EmbeddingEstimate:
    tau1_hat: float
    tau2_hat: float


def embedding_estimate(table: EigenvalueTable, s: float) -> EmbeddingEstimate:
    """Finite-truncation witnesses for the domain-vs-log-Sobolev embeddings.

    Returns the min and max over stored modes of
    lambda~_{n,l} / (2 (log W)^(2/s)), with one ``math.log`` per 2n + l as in
    ``kernel.ratio_bounds`` at shift 3/2 + e; any tau1 <= tau1_hat makes the domain
    norm dominate the logsob(tau*tau1, s) norm mode-wise on this table, and
    any tau2 >= tau2_hat the reverse.  Witnesses are truncation-dependent;
    no asymptotic claim is made.  s must be the table's kernel exponent.
    """
    _check_s(table, s)
    if table.nmax < 50 or table.lmax < 50:
        raise ValueError("embedding estimate needs table coverage n, l up to at least 50")
    n, l = np.indices(table.lams.shape)
    bound = _log_bound(2 * table.nmax + table.lmax, s, W_SHIFT)
    r = _lam_tilde(table.lams) / (2.0 * bound[2 * n + l])
    return EmbeddingEstimate(tau1_hat=float(r.min()), tau2_hat=float(r.max()))
