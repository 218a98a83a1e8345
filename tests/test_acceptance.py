"""Acceptance criteria at full scale, one test per criterion (C01..C15).

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

import csv
import math
import subprocess
import sys
import time
from importlib import resources

import numpy as np
import pytest

from dyboltz.basis import (SpectralField, eval_phi, fourier_sqrtmu_phi,
                           orthonormality_max_deviation, oscillator_residual,
                           project_null)
from dyboltz.kernel import (NULL_MODES, KernelParams, QuadratureSpec,
                            asymptotic_leading, eigenvalue, eigenvalue_table,
                            lambda_gap, ratio_bounds)
from dyboltz.solver import (DelaySeries, S2DelaySeries, SobolevSeries,
                            choose_c0, classify_frontier, evolve, rate1_check,
                            series_tail_classify, weak_form_residual)
from dyboltz.spaces import W_SHIFT, NormSpec, young_min, young_rhs
from dyboltz.specfun import legendre_scaled_gap
from oracles import fourier_by_gauss_hermite

GAP_S2 = (2.0 / 3.0) * (1.0 - 2.0 ** -1.5)
QUAD = QuadratureSpec()


def report(tag, ok, t0, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{tag}] {status} ({time.time() - t0:.1f}s) {detail}")
    return ok


# ---------------------------------------------------------------------------

def test_c01_null_exactness():
    t0 = time.time()
    worst = 0.0
    for s in (0.5, 1.0, 2.0, 4.0):
        p = KernelParams(s=s)
        for n, l in NULL_MODES:
            worst = max(worst, abs(eigenvalue(n, l, p, QUAD).lam))
    ok = worst <= 1e-12
    assert report("C01 null exactness", ok, t0, f"max |lambda| = {worst:.3e}")


def test_c02_golden_gap():
    t0 = time.time()
    lam = lambda_gap(KernelParams(s=2.0), QUAD).lam
    dev2 = abs(lam - 0.4309644063)
    ok = dev2 <= 1e-8
    worst_rel = 0.0
    path = resources.files("dyboltz.data").joinpath("golden_eigenvalues.csv")
    with path.open() as fh:
        for row in csv.DictReader(fh):
            if (int(row["n"]), int(row["l"])) != (2, 0) or row["s"] == "2":
                continue
            p = KernelParams(s=float(row["s"]))
            got = lambda_gap(p, QUAD).lam
            worst_rel = max(worst_rel, abs(got - float(row["lambda"])) / float(row["lambda"]))
    ok = ok and worst_rel <= 1e-7
    assert report("C02 golden gap", ok, t0,
                  f"s=2 dev {dev2:.2e}; other s rel {worst_rel:.2e}")


def test_c03_spectral_gap_full_table(table_factory):
    t0 = time.time()
    worst = math.inf
    arg = None
    for s in (1.0, 2.0):
        tab = table_factory(s, 200, 200)
        gap = tab.lam(2, 0)
        n, l = np.indices(tab.lams.shape)
        margin = np.where(n + l >= 2, tab.lams - (gap - tab.errs), math.inf)
        i = np.unravel_index(np.argmin(margin), margin.shape)
        if margin[i] < worst:
            worst, arg = float(margin[i]), (s, int(i[0]), int(i[1]))
    ok = worst >= 0.0
    assert report("C03 spectral gap 200x200", ok, t0,
                  f"min margin {worst:.3e} at {arg}")


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 4.0])
def test_c04_ratio_bounds_and_stability(s, table_factory):
    t0 = time.time()
    tab = table_factory(s, 200, 200)
    rb200 = ratio_bounds(tab)
    rb100 = ratio_bounds(tab.subset(100, 100))
    spread = rb200.c_max / rb200.c_min
    shift_min = abs(rb200.c_min - rb100.c_min) / rb100.c_min
    shift_max = abs(rb200.c_max - rb100.c_max) / rb100.c_max
    ok = (rb200.c_min > 0.0 and spread <= 50.0
          and shift_min < 0.05 and shift_max < 0.05)
    assert report(f"C04 ratio bounds s={s}", ok, t0,
                  f"c_min={rb200.c_min:.5f}@{rb200.argmin} c_max={rb200.c_max:.5f}"
                  f"@{rb200.argmax} spread={spread:.2f} "
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


def test_c06_orthonormality():
    t0 = time.time()
    dev = orthonormality_max_deviation(10, 10)
    ok = dev <= 1e-8
    assert report("C06 orthonormality n,l<=10", ok, t0, f"max dev {dev:.3e}")


def test_c07_oscillator_eigenrelation(rng):
    t0 = time.time()
    pts = rng.uniform(-2.5, 2.5, size=(140, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.5][:100]
    worst, arg = 0.0, None
    for n in range(6):
        for l in range(6):
            for m in range(-l, l + 1):
                r = oscillator_residual((n, l, m), pts)
                if r > worst:
                    worst, arg = r, (n, l, m)
    ok = worst <= 1e-6
    assert report("C07 oscillator residual n,l<=5", ok, t0,
                  f"max {worst:.3e} at {arg}")


def test_c08_fourier_identity(rng):
    t0 = time.time()
    at_zero = abs(fourier_sqrtmu_phi((0, 0, 0), [0.0, 0.0, 0.0]) - 1.0)
    worst = 0.0
    xis = rng.uniform(-2.5, 2.5, size=(10, 3))
    for n in range(4):
        for l in range(4):
            for m in range(-l, l + 1):
                for xi in xis:
                    a = fourier_sqrtmu_phi((n, l, m), xi)
                    b = fourier_by_gauss_hermite(eval_phi, (n, l, m), xi)
                    worst = max(worst, abs(a - b))
    ok = at_zero <= 1e-12 and worst <= 1e-6
    assert report("C08 fourier identity n,l<=3", ok, t0,
                  f"ground at 0 dev {at_zero:.1e}; closed-vs-quadrature {worst:.3e}")


def test_c09_exact_decay_and_semigroup(table_factory):
    t0 = time.time()
    tab = table_factory(2.0, 200, 200)
    lam = tab.lam(2, 0)
    g = SpectralField({(2, 0, 0): 1.0})
    worst = 0.0
    for t in (0.1, 1.0, 10.0):
        got = project_null(evolve(g, t, tab), "orthogonal").l2_norm()
        worst = max(worst, abs(got - math.exp(-lam * t)) / math.exp(-lam * t))
    a = evolve(evolve(g, 0.4, tab), 0.6, tab).amplitude((2, 0, 0))
    b = evolve(g, 1.0, tab).amplitude((2, 0, 0))
    semi = abs(a - b) / abs(b)
    ok = worst <= 1e-12 and semi <= 1e-12
    assert report("C09 exact decay", ok, t0,
                  f"decay rel {worst:.2e}; semigroup rel {semi:.2e}")


@pytest.mark.parametrize("s", [1.0, 2.0])
def test_c10_rate1_certificate(s, rng, table_factory):
    t0 = time.time()
    tab = table_factory(s, 200, 200)
    c0 = choose_c0(tab, s)
    gap = tab.lam(2, 0)
    n, l = np.indices(tab.lams.shape)
    keep = n + l >= 2
    W = (2 * n + l + W_SHIFT)[keep]
    lam = tab.lams[keep]
    worst = math.inf
    for t in (0.5, 1.0, 2.0, 5.0):
        lhs = W ** (c0 * t) * np.exp(-lam * t)
        rhs = math.exp(-0.5 * gap * t)
        margin = float(np.min(rhs * (1.0 + 1e-12) - lhs))
        worst = min(worst, margin)
    modewise_ok = worst >= 0.0

    fields_ok = True
    for _ in range(100):
        coeffs = {}
        while len(coeffs) < 50:
            n = int(rng.integers(0, 201))
            l = int(rng.integers(0, 201))
            m = int(rng.integers(-l, l + 1))
            coeffs[(n, l, m)] = complex(rng.normal(), rng.normal())
        g = SpectralField(coeffs)
        for t in (0.5, 1.0, 2.0, 5.0):
            fields_ok = fields_ok and rate1_check(g, t, tab, s, c0=c0).holds
    ok = modewise_ok and fields_ok
    assert report(f"C10 rate1 certificate s={s}", ok, t0,
                  f"c0={c0:.5f}; worst mode-wise margin {worst:.2e}; "
                  f"100 random fields hold: {fields_ok}")


def test_c11_young_equality(rng):
    t0 = time.time()
    closed = abs(young_min(1.0, 1.0, 4.0).min_value - math.exp(-2.0))
    worst, done = closed / math.exp(-2.0), 0
    while done < 50:
        tau = float(rng.uniform(0.1, 3.0))
        nu = float(rng.uniform(0.05, 1.95))
        k = float(rng.uniform(1.0, 8.0))
        r = young_rhs(tau, nu, k)
        if r < 1e-300:
            continue  # below double range; relative comparison undefined
        worst = max(worst, abs(young_min(tau, nu, k).min_value - r) / r)
        done += 1
    ok = worst <= 1e-6
    assert report("C11 young equality", ok, t0, f"worst rel {worst:.2e}")


def test_c12_scaled_gap_bound():
    # documented bound: (1 - P_l(cos(theta/l)))/theta^2 <= 1/2.  For l = 1
    # the ratio is (1 - cos theta)/theta^2 = sinc^2(theta/2)/2, strictly
    # decreasing on (0, pi/2], so the grid sup is attained at l = 1 and the
    # first node theta_1, where it equals 2 sin^2(theta_1/2)/theta_1^2; the
    # other grid end gives 4/pi^2.  Per-l sup <= 0.28 for l >= 100.
    t0 = time.time()
    thetas = math.pi / 2 * np.arange(1, 1001) / 1000.0
    sup, arg = -math.inf, None
    tail_sup = -math.inf
    for l in range(1, 501):
        vals = legendre_scaled_gap(l, thetas)
        j = int(np.argmax(vals))
        if vals[j] > sup:
            sup, arg = float(vals[j]), (l, j)
        if l >= 100:
            tail_sup = max(tail_sup, float(vals[j]))
    theta1 = float(thetas[0])
    closed = 2.0 * math.sin(theta1 / 2) ** 2 / theta1**2
    closed_dev = abs(sup - closed) / closed
    end_dev = abs(legendre_scaled_gap(1, math.pi / 2) - 4.0 / math.pi**2)
    bound_ok = sup <= 0.5
    attained_ok = arg == (1, 0)
    closed_ok = closed_dev <= 1e-12
    end_ok = end_dev <= 1e-9
    per_l_ok = tail_sup <= 0.28
    ok = bound_ok and attained_ok and closed_ok and end_ok and per_l_ok
    assert report("C12 scaled-gap bound", ok, t0,
                  f"grid sup {sup:.11f} at (l, j)={arg}, <= 1/2: {bound_ok}; "
                  f"closed form {closed:.11f} rel dev {closed_dev:.1e}; "
                  f"l=1 at pi/2 vs 4/pi^2 dev {end_dev:.1e}; "
                  f"per-l sup for l>=100 {tail_sup:.5f} <= 0.28")


def test_c13_series_scenarios(table_factory):
    t0 = time.time()
    tab1 = table_factory(1.0, 10000, 0)
    tab2 = table_factory(2.0, 10000, 0)
    tab4 = table_factory(4.0, 10000, 0)

    delay = DelaySeries(tau0=0.5, N=10000)
    v_early = series_tail_classify(delay, 0.25, NormSpec.l2(), tab1)
    v_late = series_tail_classify(delay, 1.0, NormSpec.l2(), tab1)
    delay_ok = (v_early.classification == "divergent"
                and v_late.classification == "convergent")

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
    ok = delay_ok and sob_ok and increasing and within
    assert report("C13 series scenarios", ok, t0,
                  f"delay {v_early.classification}/{v_late.classification}; "
                  f"s=4 split ok: {sob_ok}; gamma={gamma:.4f}; "
                  f"frontiers {[round(frontier[k], 3) for k in (1., 2., 4.)]}")


def test_c14_weak_formulation(rng, table_factory):
    t0 = time.time()
    tab = table_factory(2.0, 200, 200)
    worst = 0.0
    for _ in range(20):
        coeffs = {}
        while len(coeffs) < 12:
            n = int(rng.integers(0, 40))
            l = int(rng.integers(0, 40))
            m = int(rng.integers(-l, l + 1))
            coeffs[(n, l, m)] = complex(rng.normal(), rng.normal())
        g = SpectralField(coeffs)
        test_modes = list(g.modes())[:5] + [(1, 1, 0)]
        t = float(rng.uniform(0.1, 3.0))
        worst = max(worst, weak_form_residual(g, test_modes, t, tab))
    ok = worst <= 1e-10
    assert report("C14 weak formulation", ok, t0, f"max residual {worst:.3e}")


def test_c15_determinism_and_caching(tmp_path):
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

    p = KernelParams(s=1.0)
    serial = eigenvalue_table(40, 40, p, QUAD, workers=1)
    parallel = eigenvalue_table(40, 40, p, QUAD, workers=3)
    exact = (np.array_equal(serial.lams, parallel.lams)
             and np.array_equal(serial.errs, parallel.errs))
    ok = byte_identical and exact
    assert report("C15 determinism/caching", ok, t0,
                  f"byte-identical: {byte_identical}; parallel==serial: {exact}")
