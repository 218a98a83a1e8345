"""Acceptance criteria at full scale, one test per criterion (C01..C15).

C01-C04 and C06-C14 call the ``dyboltz.verify`` checks at the acceptance
sizes, so each gate and tolerance is written once, in the check; a test
keeps locally only what no check has (C04's 100 -> 200 stability shifts,
C10's random fields, C12's attained-at and per-l parts, C13's s=4 split
and frontier).  C05 and C15 keep their own code.

Each test prints a `[C##] PASS|FAIL <name> (<elapsed>) <measurements>` line
before asserting, so a full transcript survives failures; run with

    pytest tests/test_acceptance.py -v -s

Elapsed times are printed for the record, not asserted.  One sub-claim is
known not to hold for the canonical kernel and fails honestly rather than
being loosened: the s = 0.5 ratio-stability bound in C04.  The minimizing
mode sits at the (nmax, 0) table edge, where the ratio is still descending
at these sizes (0.020833 at n = 100, 0.019492 at n = 200, both confirmed
against the mpmath oracle in tests/golden/edge_eigenvalues.csv), shifting
c_min by 6.4% > 5%.  C12 checks the uniform bound 1/2 that
`legendre_scaled_gap` documents, with closed-form values at both ends of
its grid.  See README "Known-red criteria".
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from dyboltz import kernel, verify
from dyboltz.basis import SpectralField
from dyboltz.kernel import (KernelParams, QuadratureSpec, asymptotic_leading,
                            eigenvalue, ratio_bounds)
from dyboltz.solver import (S2DelaySeries, SobolevSeries, choose_c0,
                            classify_frontier, rate1_check, series_tail_classify)
from dyboltz.spaces import NormSpec
from dyboltz.specfun import legendre_scaled_gap

QUAD = QuadratureSpec()


def report(tag, ok, t0, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{tag}] {status} ({time.time() - t0:.1f}s) {detail}")
    return ok


# ---------------------------------------------------------------------------

def test_c01_null_exactness(rng):
    t0 = time.time()
    res = verify.check_null_exactness(rng)
    assert report("C01 null exactness", res.passed, t0, f"max |lambda| = {res.measured:.3e}")


def test_c02_golden_gap(rng):
    t0 = time.time()
    closed, golden = verify.check_gap_closed_form(rng), verify.check_gap_golden(rng)
    assert report("C02 golden gap", closed.passed and golden.passed, t0,
                  f"s=2 closed-form dev {closed.measured:.2e}; "
                  f"golden rows rel {golden.measured:.2e}")


def test_c03_spectral_gap_full_table(rng, table_factory):
    t0 = time.time()
    res = [verify.check_spectral_gap(rng, table_factory(s, 200, 200), corner=200)
           for s in (1.0, 2.0)]
    assert report("C03 spectral gap 200x200", all(r.passed for r in res), t0,
                  "; ".join(f"{r.detail} {r.measured:.3e}" for r in res))


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 4.0])
def test_c04_ratio_bounds_and_stability(s, rng, table_factory):
    t0 = time.time()
    tab = table_factory(s, 200, 200)
    res = verify.check_ratio_interval(rng, tab, corner=200)
    rb200 = ratio_bounds(tab)
    rb100 = ratio_bounds(tab.subset(100, 100))
    shift_min = abs(rb200.c_min - rb100.c_min) / rb100.c_min
    shift_max = abs(rb200.c_max - rb100.c_max) / rb100.c_max
    ok = res.passed and shift_min < 0.05 and shift_max < 0.05
    assert report(f"C04 ratio bounds s={s}", ok, t0,
                  f"c_min={rb200.c_min:.5f}@{rb200.argmin} c_max={rb200.c_max:.5f}"
                  f"@{rb200.argmax} spread={res.measured:.2f} "
                  f"shifts=({shift_min:.2%},{shift_max:.2%})")


@pytest.mark.parametrize("s", [1.0, 2.0])
def test_c05_asymptotic_leading(s):
    t0 = time.time()
    p = KernelParams(s=s)
    devs = {}
    for n in (10**3, 10**6):
        lam = eigenvalue(n, 0, p, QUAD).lam
        devs[n] = abs(lam / asymptotic_leading(n, 0, p) - 1.0)
    ok = devs[10**6] <= 0.25 and devs[10**6] < devs[10**3]
    assert report(f"C05 asymptotic leading s={s}", ok, t0,
                  f"dev(1e6)={devs[10**6]:.4f} < dev(1e3)={devs[10**3]:.4f}")


def test_c06_orthonormality(rng):
    t0 = time.time()
    res = verify.check_orthonormality(rng, size=10)
    assert report("C06 orthonormality n,l<=10", res.passed, t0, f"max dev {res.measured:.3e}")


def test_c07_oscillator_eigenrelation(rng):
    t0 = time.time()
    modes = [(n, l, m) for n in range(6) for l in range(6) for m in range(-l, l + 1)]
    res = verify.check_oscillator(rng, draws=140, points=100, modes=modes)
    assert report("C07 oscillator residual n,l<=5", res.passed, t0, f"max {res.measured:.3e}")


def test_c08_fourier_identity(rng):
    t0 = time.time()
    ground = verify.check_fourier_ground(rng)
    modes = [(n, l, m) for n in range(4) for l in range(4) for m in range(-l, l + 1)]
    res = verify.check_fourier_vs_quadrature(rng, modes=modes)
    ok = ground.passed and res.passed
    assert report("C08 fourier identity n,l<=3", ok, t0,
                  f"ground dev {ground.measured:.1e}; closed-vs-quadrature {res.measured:.3e}")


def test_c09_exact_decay_and_semigroup(rng, table_factory):
    t0 = time.time()
    tab = table_factory(2.0, 200, 200)
    decay = verify.check_exact_decay(rng, tab)
    semi = verify.check_semigroup(rng, tab, field=lambda rng: SpectralField({(2, 0, 0): 1.0}),
                                  times=(0.4, 0.6))
    assert report("C09 exact decay", decay.passed and semi.passed, t0,
                  f"decay rel {decay.measured:.2e}; semigroup rel {semi.measured:.2e}")


@pytest.mark.parametrize("s", [1.0, 2.0])
def test_c10_rate1_certificate(s, rng, table_factory):
    t0 = time.time()
    tab = table_factory(s, 200, 200)
    modewise = verify.check_rate1(rng, tab)
    c0 = choose_c0(tab, s)
    fields_ok = True
    for _ in range(100):
        g = verify._random_field(rng, 50, nmax=200, lmax=200)
        for t in (0.5, 1.0, 2.0, 5.0):
            fields_ok = fields_ok and rate1_check(g, t, tab, s).holds
    assert report(f"C10 rate1 certificate s={s}", modewise.passed and fields_ok, t0,
                  f"c0={c0:.5f}; worst mode-wise margin {modewise.measured:.2e} "
                  f"({modewise.detail}); 100 random fields hold: {fields_ok}")


def test_c11_young_equality(rng):
    t0 = time.time()
    res = verify.check_young_equality(rng)
    assert report("C11 young equality", res.passed, t0, f"worst rel {res.measured:.2e}")


def test_c12_scaled_gap_bound(rng):
    # documented bound: (1 - P_l(cos(theta/l)))/theta^2 <= 1/2.  For l = 1
    # the ratio is (1 - cos theta)/theta^2 = sinc^2(theta/2)/2, strictly
    # decreasing on (0, pi/2], so the grid sup is attained at l = 1 and the
    # first node theta_1, where it equals 2 sin^2(theta_1/2)/theta_1^2; the
    # other grid end gives 4/pi^2.  Per-l sup <= 0.28 for l >= 100.
    # l = 1..500 in one pass: the uniform bound over both parts, the tail's own sup
    t0 = time.time()
    head = verify.check_scaled_gap_bound(rng, lmax=99, points=1000)
    tail = verify.check_scaled_gap_bound(rng, lmin=100, lmax=500, points=1000)
    bound_ok = head.passed and tail.passed
    grid_sup = max(head.measured, tail.measured)
    ends = verify.check_scaled_gap_values(rng)
    thetas = verify._scaled_gap_grid(1000)
    # the first maximum in (l, j) order is (1, 0) iff that node attains the sup
    attained_ok = legendre_scaled_gap(1, thetas)[0] == grid_sup
    theta1 = float(thetas[0])
    closed = 2.0 * math.sin(theta1 / 2) ** 2 / theta1**2
    closed_dev = abs(grid_sup - closed) / closed
    ok = (bound_ok and ends.passed and attained_ok and closed_dev <= 1e-12
          and tail.measured <= 0.28)
    assert report("C12 scaled-gap bound", ok, t0,
                  f"grid sup {grid_sup:.11f}, attained at (l, j)=(1, 0): {attained_ok}, "
                  f"<= 1/2: {bound_ok}; closed form {closed:.11f} rel dev {closed_dev:.1e}; "
                  f"{ends.detail}; per-l sup for l>=100 {tail.measured:.5f} <= 0.28")


def test_c13_series_scenarios(rng, table_factory):
    t0 = time.time()
    delay = verify.check_delay_verdicts(rng, N=10000)
    tab2 = table_factory(2.0, 10000, 0)
    tab4 = table_factory(4.0, 10000, 0)

    sob = SobolevSeries(tau=1.0, N=10000)
    sob_ok = True
    for t in (1.0, 10.0):
        a = series_tail_classify(sob, t, NormSpec.shubin(1.0), tab4)
        b = series_tail_classify(sob, t, NormSpec.shubin(2.0), tab4)
        sob_ok = sob_ok and a.classification == "convergent" \
            and b.classification == "divergent"

    n_fit = np.arange(1000, 10001)
    A = np.vstack([np.log(n_fit), np.ones_like(n_fit, dtype=float)]).T
    gamma = float(np.linalg.lstsq(A, tab2.lams[n_fit, 0], rcond=None)[0][0])
    s2 = S2DelaySeries(N=10000)
    frontier = {k: classify_frontier(s2, k, tab2) for k in (1.0, 2.0, 4.0)}
    increasing = frontier[1.0] < frontier[2.0] < frontier[4.0]
    within = all(abs(frontier[k] - k / (2 * gamma)) <= 0.2 * (k / (2 * gamma))
                 for k in frontier)
    ok = delay.passed and sob_ok and increasing and within
    assert report("C13 series scenarios", ok, t0,
                  f"delay {delay.detail}; "
                  f"s=4 split ok: {sob_ok}; gamma={gamma:.4f}; "
                  f"frontiers {[round(frontier[k], 3) for k in (1., 2., 4.)]}")


def test_c14_weak_formulation(rng, table_factory):
    t0 = time.time()
    res = verify.check_weak_form(rng, table_factory(2.0, 200, 200), count=12, nmax=39,
                                 test_modes=5)
    assert report("C14 weak formulation", res.passed, t0, f"max residual {res.measured:.3e}")


def test_c15_determinism_and_caching(rng, tmp_path, monkeypatch):
    t0 = time.time()
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        r = subprocess.run(
            [sys.executable, "-m", "dyboltz.cli", "eigs", "--s", "2",
             "--nmax", "16", "--lmax", "16", "--out", str(out),
             "--cache-dir", str(tmp_path / "cache")],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(open(out / "eigs_s2_n16_l16.csv", "rb").read())
    byte_identical = outs[0] == outs[1]

    monkeypatch.setattr(kernel, "_POOL_ENTRIES", 0)  # a 41x41 build would stay serial
    exact = verify.check_table_determinism(rng, nmax=40, lmax=40, workers=3).passed
    ok = byte_identical and exact
    assert report("C15 determinism/caching", ok, t0,
                  f"byte-identical: {byte_identical}; parallel==serial: {exact}")
