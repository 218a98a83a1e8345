"""Named verification checks behind the CLI ``verify`` command.

Each check runs a self-contained subset of the package's correctness
properties and returns a CheckResult with the measured value and the
threshold it was held to; each gate is written here once.  A check's sizes
(table corner, mode sets, point and field counts, series N, grid sizes)
are keyword-only parameters whose defaults size it for interactive use:
the checks that depend on s share one 60x60 eigenvalue table built by
``run_suite`` (the gap and ratio checks read its 48x48 corner).  The
acceptance criteria in tests/test_acceptance.py call the same checks at
full size.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from . import basis, kernel, solver, spaces, specfun

__all__ = ["CheckResult", "run_suite", "SUITES"]

GAP_CLOSED_FORM_S2 = (2.0 / 3.0) * (1.0 - 2.0 ** -1.5)
_SEED = 20240801  # seed of the draw source that run_suite hands to its checks in turn


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def to_json_dict(self):
        d = asdict(self)
        d["passed"] = bool(self.passed)  # numpy bools are not JSON serializable
        d["measured"] = float(self.measured)
        d["threshold"] = float(self.threshold)
        return d


class _Draws:
    """The three draws the checks take from their rng, each built from
    ``random.Random(seed).random()``.

    Python keeps that sequence the same across versions, and every draw is
    computed from it with ``math`` on Python floats, so a report does not
    depend on the numpy version; it also spares ``verify`` the import of
    ``numpy.random``.  ``size`` (an int or a tuple) shapes an array in C
    order as numpy's Generator does, and ``size=None`` returns one float.
    A numpy Generator can stand in for it.
    """

    def __init__(self, seed: int):
        self._random = random.Random(seed).random

    def _shaped(self, size, draw):
        if size is None:
            return draw()
        shape = (size,) if isinstance(size, int) else tuple(size)
        return np.array([draw() for _ in range(math.prod(shape))]).reshape(shape)

    def uniform(self, low, high, size=None):
        return self._shaped(size, lambda: low + (high - low) * self._random())

    def normal(self, loc=0.0, scale=1.0, size=None):
        # Box-Muller on two draws; 1 - u lies in (0, 1], so the log is finite
        def draw():
            u, v = self._random(), self._random()
            return loc + scale * math.sqrt(-2.0 * math.log(1.0 - u)) * math.cos(2.0 * math.pi * v)
        return self._shaped(size, draw)

    def integers(self, low, high):
        # one of low, ..., high - 1: (high - low) * u stays below high - low for u < 1
        return low + int((high - low) * self._random())


def _golden_rows():
    with resources.files("dyboltz.data").joinpath("golden_eigenvalues.csv").open() as fh:
        yield from csv.DictReader(fh)


def _bessel_j0(x: float) -> float:
    # power series; converges fast for |x| <= pi/2
    total, term = 1.0, 1.0
    for k in range(1, 40):
        term *= -(x * x) / (4.0 * k * k)
        total += term
        if abs(term) < 1e-18:
            break
    return total


# ---------------------------------------------------------------------------
# specfun
# ---------------------------------------------------------------------------

def check_legendre_bound(rng) -> CheckResult:
    worst = 0.0
    x = rng.uniform(-1.0, 1.0, size=200)
    for l in (10, 100, 1000, 10000):
        worst = max(worst, float(np.max(np.abs(specfun.legendre(l, x)))))
    return CheckResult("legendre_bound", worst <= 1.0 + 1e-12, worst, 1.0)


def check_legendre_orthogonality(rng) -> CheckResult:
    x, w = specfun._gauss_rule(64)
    vals = specfun.legendre_all(20, x)
    gram = (vals * w) @ vals.T
    expect = np.diag([2.0 / (2 * l + 1) for l in range(21)])
    worst = float(np.max(np.abs(gram - expect)))
    return CheckResult("legendre_orthogonality", worst <= 1e-10, worst, 1e-10)


def check_sphere_orthonormality(rng) -> CheckResult:
    modes = [(l, m) for l in range(11) for m in range(-l, l + 1)]
    gram = basis._sphere_gram(modes, 32, 32)  # exact: l + l' <= 63, |m - m'| < 32
    worst = float(np.max(np.abs(gram - np.eye(len(modes)))))
    return CheckResult("sphere_orthonormality", worst <= 1e-10, worst, 1e-10)


def check_scaled_gap_values(rng) -> CheckResult:
    a = abs(specfun.legendre_scaled_gap(1, math.pi / 2) - 4.0 / math.pi**2)
    b = abs(specfun.legendre_scaled_gap(500, 1.0) - (1.0 - _bessel_j0(1.0)))
    worst = max(a, b * 1e-9)  # Mehler-Heine agreement is O(1/l); map b <= 1e-3 onto 1e-12
    return CheckResult("scaled_gap_values", a <= 1e-12 and b <= 1e-3, worst, 1e-12,
                       detail=f"l=1 dev {a:.2e}; Mehler-Heine dev {b:.2e}")


def _scaled_gap_grid(points: int) -> np.ndarray:
    """theta_j = (pi/2) j / points for j = 1..points."""
    return math.pi / 2 * np.arange(1, points + 1) / points


def check_scaled_gap_bound(rng, *, lmin: int = 1, lmax: int = 50,
                           points: int = 100) -> CheckResult:
    thetas = _scaled_gap_grid(points)
    worst = max(float(np.max(specfun.legendre_scaled_gap(l, thetas)))
                for l in range(lmin, lmax + 1))
    return CheckResult("scaled_gap_uniform_bound", worst <= 0.5, worst, 0.5)


def check_hermite_eigenrelation(rng) -> CheckResult:
    h = basis._D2_STEP
    x = rng.uniform(-3.0, 3.0, size=60)
    worst = 0.0
    for n in range(9):
        vals = np.array([specfun.hermite_osc(n, x + h * o) for o in basis._D2_OFFSETS])
        d2 = basis._D2_COEFFS @ vals / h**2
        center = specfun.hermite_osc(n, x)
        resid = np.abs(-d2 + 0.25 * x * x * center - (n + 0.5) * center)
        worst = max(worst, float(np.max(resid / np.maximum(1.0, np.abs(center)))))
    return CheckResult("hermite_eigenrelation", worst <= 1e-6, worst, 1e-6)


def check_laguerre_values(rng) -> CheckResult:
    worst = max(
        abs(specfun.laguerre(0, 0.5, 3.1) - 1.0),
        abs(specfun.laguerre(1, 0.5, 1.0) - 0.5),
        abs(specfun.laguerre(2, 0.5, 0.0) - 1.875),
    )
    return CheckResult("laguerre_values", worst <= 1e-12, worst, 1e-12)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def check_null_exactness(rng) -> CheckResult:
    worst = 0.0
    for s in (0.5, 1.0, 2.0, 4.0):
        p = kernel.KernelParams(s=s)
        for n, l in kernel.NULL_MODES:
            worst = max(worst, abs(kernel.eigenvalue(n, l, p).lam))
    return CheckResult("null_exactness", worst <= 1e-12, worst, 1e-12)


def check_gap_closed_form(rng) -> CheckResult:
    lam = kernel.eigenvalue(2, 0, kernel.KernelParams(s=2.0)).lam
    dev = abs(lam - GAP_CLOSED_FORM_S2)
    return CheckResult("gap_closed_form_s2", dev <= 1e-8, dev, 1e-8)


def check_gap_golden(rng) -> CheckResult:
    worst = 0.0
    for row in _golden_rows():
        p = kernel.KernelParams(s=float(row["s"]))
        lam = kernel.eigenvalue(int(row["n"]), int(row["l"]), p).lam
        worst = max(worst, abs(lam - float(row["lambda"])) / float(row["lambda"]))
    return CheckResult("eigenvalues_vs_golden", worst <= 1e-7, worst, 1e-7)


def check_spectral_gap(rng, table: kernel.EigenvalueTable, *, corner: int = 48) -> CheckResult:
    tab = table.subset(corner, corner)
    n, l = np.indices(tab.lams.shape)
    keep = n + l >= 2
    worst = float(np.min(tab.lams[keep] - (tab.lam(2, 0) - tab.errs[keep])))
    return CheckResult(f"spectral_gap_{corner}", worst >= 0.0, worst, 0.0,
                       detail=f"s={table.params.s}, min margin over table({corner},{corner})")


def check_ratio_interval(rng, table: kernel.EigenvalueTable, *, corner: int = 48) -> CheckResult:
    rb = kernel.ratio_bounds(table.subset(corner, corner))
    ratio = rb.c_max / rb.c_min
    return CheckResult(f"ratio_interval_{corner}", rb.c_min > 0.0 and ratio <= 50.0,
                       ratio, 50.0, detail=f"s={table.params.s}, c_min={rb.c_min:.5g}")


def check_table_determinism(rng, *, nmax: int = 10, lmax: int = 10,
                            workers: int = 1) -> CheckResult:
    p = kernel.KernelParams(s=1.0)
    a = kernel.eigenvalue_table(nmax, lmax, p)
    b = kernel.eigenvalue_table(nmax, lmax, p, workers=workers)
    same = bool(np.array_equal(a.lams, b.lams) and np.array_equal(a.errs, b.errs))
    return CheckResult("table_determinism", same, float(same), 1.0)


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def check_orthonormality(rng, *, size: int = 6) -> CheckResult:
    dev = basis.orthonormality_max_deviation(size, size)
    return CheckResult(f"basis_orthonormality_{size}", dev <= 1e-8, dev, 1e-8)


def check_ground_mode(rng) -> CheckResult:
    pts = rng.normal(scale=1.5, size=(50, 3))
    r2 = np.einsum("ij,ij->i", pts, pts)
    expect = (2 * math.pi) ** -0.75 * np.exp(-0.25 * r2)
    dev = float(np.max(np.abs(basis.eval_phi((0, 0, 0), pts) - expect)))
    return CheckResult("phi000_is_sqrt_maxwellian", dev <= 1e-12, dev, 1e-12)


def check_fourier_ground(rng) -> CheckResult:
    a = abs(basis.fourier_sqrtmu_phi((0, 0, 0), [0.0, 0.0, 0.0]) - 1.0)
    b = abs(basis.fourier_sqrtmu_phi((0, 0, 0), [1.0, 0.0, 0.0]) - math.exp(-0.5))
    worst = max(a, b)
    return CheckResult("fourier_ground_mode", worst <= 1e-12, worst, 1e-12)


def check_fourier_vs_quadrature(rng, *, modes=((0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 1, 0),
                                                (1, 2, -2))) -> CheckResult:
    # the closed-form transform of sqrt(mu) phi at 10 uniform xi in
    # (-2.5, 2.5)^3 per mode, drawn mode after mode, against a 40^3
    # Gauss-Hermite rule of its defining integral; in v = sqrt(2) u the
    # Gaussian cancels the rule's weight.  The rule is summed one first-axis
    # slab of 40^2 nodes at a time, so no array spans the whole grid, and
    # e^(-i v.xi) splits into e^(-i v_1 xi_1) times a factor every slab shares.
    draws = 10
    xis = rng.uniform(-2.5, 2.5, size=(len(modes), draws, 3))
    x, w = specfun._gauss_rule(40, hermite=True)
    rest = math.sqrt(2.0) * np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    w_rest = np.outer(w, w).ravel()
    worst = 0.0
    for mode, xi in zip(modes, xis):
        shared = np.exp(-1j * (rest @ xi[:, 1:].T))
        direct = np.zeros(draws, dtype=complex)
        for va, wa in zip(math.sqrt(2.0) * x, w):
            v = np.column_stack([np.full(len(rest), va), rest])
            weight = wa * w_rest * np.exp(0.25 * np.einsum("ij,ij->i", v, v))
            direct += np.exp(-1j * va * xi[:, 0]) * ((basis.eval_phi(mode, v) * weight) @ shared)
        direct *= 2.0 ** 1.5 * (2 * math.pi) ** -0.75
        worst = max(worst, float(np.max(np.abs(direct - basis.fourier_sqrtmu_phi(mode, xi)))))
    return CheckResult("fourier_vs_quadrature", worst <= 1e-6, worst, 1e-6)


def check_oscillator(rng, *, draws: int = 80, points: int = 80,
                     modes=((0, 0, 0), (1, 0, 0), (0, 2, 1), (2, 3, -1), (3, 1, 0))) -> CheckResult:
    # the first ``points`` of ``draws`` uniform points with |v| > 0.5
    pts = rng.uniform(-2.5, 2.5, size=(draws, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.5][:points]
    worst = 0.0
    for mode in modes:
        worst = max(worst, basis.oscillator_residual(mode, pts))
    return CheckResult("oscillator_eigenrelation", worst <= 1e-6, worst, 1e-6)


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

def check_weight_values(rng) -> CheckResult:
    f = basis.SpectralField({(0, 0, 0): 1.0})
    a = abs(spaces.spectral_norm(f, spaces.NormSpec.shubin(2)) - (1.5 + math.e))
    b = abs(spaces.spectral_norm(f, spaces.NormSpec.logsob(1, 2)) - (1.5 + math.e))
    worst = max(a, b)
    return CheckResult("norm_weight_values", worst <= 1e-12, worst, 1e-12)


def check_young_equality(rng) -> CheckResult:
    worst, done = 0.0, 0
    while done < 50:
        tau = rng.uniform(0.1, 3.0)
        nu = rng.uniform(0.05, 1.95)
        k = rng.uniform(1.0, 8.0)
        r = spaces.young_rhs(tau, nu, k)
        if r < 1e-300:
            continue
        m = spaces.young_min(tau, nu, k).min_value
        worst = max(worst, abs(m - r) / r)
        done += 1
    closed = abs(spaces.young_min(1.0, 1.0, 4.0).min_value - math.exp(-2.0)) / math.exp(-2.0)
    worst = max(worst, closed)
    return CheckResult("young_equality", worst <= 1e-6, worst, 1e-6)


def check_shubin_vs_logsob(rng) -> CheckResult:
    # mode-wise W^(2 tau1) <= exp(2 tau1 (log W)^(2/s)) needs log W >= 1
    worst = -math.inf
    for _ in range(20):
        modes = _random_field(rng, 30, nmax=20, lmax=20)
        tau1 = rng.uniform(0.05, 0.8)
        s = rng.uniform(0.5, 2.0)
        a = spaces.spectral_norm(modes, spaces.NormSpec.shubin(2 * tau1))
        b = spaces.spectral_norm(modes, spaces.NormSpec.logsob(tau1, s))
        worst = max(worst, (a - b) / b)
    return CheckResult("shubin_below_logsob", worst <= 1e-12, worst, 1e-12)


def _random_field(rng, count: int, nmax: int = 40, lmax: int = 40):
    coeffs = {}
    while len(coeffs) < count:
        n = int(rng.integers(0, nmax + 1))
        l = int(rng.integers(0, lmax + 1))
        m = int(rng.integers(-l, l + 1))
        coeffs[(n, l, m)] = complex(rng.normal(), rng.normal())
    return basis.SpectralField(coeffs)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def check_exact_decay(rng, table: kernel.EigenvalueTable) -> CheckResult:
    lam = table.lam(2, 0)
    g = basis.SpectralField({(2, 0, 0): 1.0})
    worst = 0.0
    for t in (0.1, 1.0, 10.0):
        got = basis.project_null(solver.evolve(g, t, table), "orthogonal").l2_norm()
        expect = math.exp(-lam * t)
        worst = max(worst, abs(got - expect) / expect)
    return CheckResult("exact_single_mode_decay", worst <= 1e-12, worst, 1e-12)


def check_semigroup(rng, table: kernel.EigenvalueTable, *,
                    field=lambda rng: _random_field(rng, 25, nmax=12, lmax=12),
                    times=(0.6, 1.7)) -> CheckResult:
    # evolving for t1 then t2 equals evolving for t1 + t2, mode by mode; field(rng) is g
    g = field(rng)
    t1, t2 = times
    a = solver.evolve(solver.evolve(g, t1, table), t2, table)
    b = solver.evolve(g, t1 + t2, table)
    worst = max(abs(a.amplitude(m) - b.amplitude(m)) / abs(b.amplitude(m))
                for m in b.modes())
    return CheckResult("semigroup", worst <= 1e-12, worst, 1e-12)


def check_weak_form(rng, table: kernel.EigenvalueTable, *, count: int = 10,
                    nmax: int = 12, test_modes: int = 4) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        g = _random_field(rng, count, nmax=nmax, lmax=nmax)
        test = list(g.modes())[:test_modes] + [(1, 1, 0)]
        t = float(rng.uniform(0.1, 3.0))
        worst = max(worst, solver.weak_form_residual(g, test, t, table))
    return CheckResult("weak_form_residual", worst <= 1e-10, worst, 1e-10)


def check_rate1(rng, table: kernel.EigenvalueTable) -> CheckResult:
    s = table.params.s
    if s > 2.0:
        return CheckResult("rate1_certificate", True, math.nan, 0.0,
                           detail=f"skipped: rate1 applies for s <= 2, got s={s}")
    rep = solver.rate1_certificate(table, s)
    return CheckResult("rate1_certificate", rep.ok, rep.worst_margin, 0.0,
                       detail=f"s={s}, table({table.nmax},{table.lmax}), "
                              f"worst mode {rep.worst_mode}")


def check_delay_verdicts(rng, *, N: int = 2000) -> CheckResult:
    tab = kernel.eigenvalue_table(N, 0, kernel.KernelParams(s=1.0))
    spec = solver.DelaySeries(tau0=0.5, N=N)
    v1 = solver.series_tail_classify(spec, 0.25, spaces.NormSpec.l2(), tab)
    v2 = solver.series_tail_classify(spec, 1.0, spaces.NormSpec.l2(), tab)
    ok = v1.classification == "divergent" and v2.classification == "convergent"
    return CheckResult("delay_series_verdicts", ok, float(ok), 1.0,
                       detail=f"t=0.25 -> {v1.classification}, t=1.0 -> {v2.classification}")


SUITES = {
    "specfun": [check_legendre_bound, check_legendre_orthogonality,
                check_sphere_orthonormality, check_scaled_gap_values,
                check_scaled_gap_bound, check_hermite_eigenrelation,
                check_laguerre_values],
    "kernel": [check_null_exactness, check_gap_closed_form, check_gap_golden,
               check_spectral_gap, check_ratio_interval, check_table_determinism],
    "basis": [check_orthonormality, check_ground_mode, check_fourier_ground,
              check_fourier_vs_quadrature, check_oscillator],
    "spaces": [check_weight_values, check_young_equality, check_shubin_vs_logsob],
    "solver": [check_exact_decay, check_semigroup, check_weak_form, check_rate1,
               check_delay_verdicts],
}


def run_suite(suite: str, s: float = 2.0):
    """Run one suite (or 'all'); returns a list of CheckResult.

    Each check is called by its ``co_argcount``: as fn(rng), or as
    fn(rng, table) with one shared 60x60 table at s, built only when such a
    check is selected; rng is one ``_Draws`` at ``_SEED``, drawn from by the
    checks in turn.  Its keyword-only sizes keep their defaults.
    """
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{', '.join(list(SUITES) + ['all'])}")
    checks = [fn for name in names for fn in SUITES[name]]
    table = None
    if any(fn.__code__.co_argcount == 2 for fn in checks):
        table = kernel.eigenvalue_table(60, 60, kernel.KernelParams(s=s))
    rng = _Draws(_SEED)
    return [fn(rng, table) if fn.__code__.co_argcount == 2 else fn(rng) for fn in checks]
