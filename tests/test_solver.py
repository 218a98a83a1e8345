import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyboltz import solver
from dyboltz.basis import SpectralField, project_null
from dyboltz.errors import EigenvalueLookupError
from dyboltz.kernel import ratio_bounds
from dyboltz.spaces import W_SHIFT, NormSpec, spectral_norm
from dyboltz.solver import (DelaySeries, EvolutionReport,
                            S2DelaySeries, SobolevSeries, choose_c0,
                            classify_frontier, decay_check_thm12, evolve,
                            rate1_certificate, rate1_check, rate2_check,
                            series_tail_classify, weak_form_residual)
from strategies import FIELDS, TIMES


def _random_field(rng, count, nmax=20, lmax=20):
    coeffs = {}
    while len(coeffs) < count:
        n = int(rng.integers(0, nmax + 1))
        l = int(rng.integers(0, lmax + 1))
        m = int(rng.integers(-l, l + 1))
        coeffs[(n, l, m)] = complex(rng.normal(), rng.normal())
    return SpectralField(coeffs)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_evolve_identity_at_zero(rng, table_factory):
    tab = table_factory(2.0, 20, 20)
    g = _random_field(rng, 20)
    gt = evolve(g, 0.0, tab)
    assert gt.coeffs == g.coeffs


def test_evolve_null_modes_unchanged(table_factory):
    tab = table_factory(2.0, 8, 8)
    g = SpectralField({(0, 0, 0): 1.0, (1, 0, 0): 2.0, (0, 1, -1): 1.5j})
    gt = evolve(g, 7.3, tab)
    assert gt.coeffs == g.coeffs


def test_evolve_single_mode_closed_form(table_factory):
    tab = table_factory(2.0, 8, 8)
    gt = evolve(SpectralField({(2, 0, 0): 1.0}), 1.0, tab)
    assert gt.amplitude((2, 0, 0)) == math.exp(-tab.lam(2, 0))


def test_evolve_requires_coverage(table_factory):
    tab = table_factory(2.0, 8, 8)
    with pytest.raises(EigenvalueLookupError):
        evolve(SpectralField({(9, 0, 0): 1.0}), 1.0, tab)
    for t in (-0.5, math.nan, math.inf):  # t < 0 alone lets NaN through
        with pytest.raises(ValueError, match="time must be finite and nonnegative"):
            evolve(SpectralField({(0, 0, 0): 1.0, (2, 0, 0): 1.0}), t, tab)


@settings(max_examples=30, deadline=None)
@given(g=FIELDS, t1=TIMES, t2=TIMES)
def test_semigroup_property(table_factory, g, t1, t2):
    tab = table_factory(2.0, 20, 20)
    a = evolve(evolve(g, t1, tab), t2, tab)
    b = evolve(g, t1 + t2, tab)
    assert (a.nlm == b.nlm).all()
    assert (np.abs(a.amps - b.amps) <= 1e-12 * np.abs(b.amps)).all()


def test_null_conservation_exact(rng, table_factory):
    tab = table_factory(2.0, 20, 20)
    g = _random_field(rng, 30)
    gt = evolve(g, 3.1, tab)
    assert project_null(gt, "null").coeffs == project_null(g, "null").coeffs


def test_orthogonal_part_monotone_decay(rng, table_factory):
    tab = table_factory(2.0, 20, 20)
    g = _random_field(rng, 30)
    gap, gap_err = tab.lam(2, 0), tab.errs[2, 0]
    base = project_null(g, "orthogonal").l2_norm()
    prev = base
    for t in (0.2, 0.5, 1.0, 2.0, 4.0):
        cur = project_null(evolve(g, t, tab), "orthogonal").l2_norm()
        assert cur <= prev * (1.0 + 1e-15)
        assert cur <= math.exp(-(gap - gap_err) * t) * base * (1 + 1e-12)
        prev = cur


def test_exact_decay_rate(table_factory):
    tab = table_factory(2.0, 8, 8)
    lam = tab.lam(2, 0)
    g = SpectralField({(2, 0, 0): 1.0})
    for t in (0.1, 1.0, 10.0):
        got = project_null(evolve(g, t, tab), "orthogonal").l2_norm()
        assert abs(got - math.exp(-lam * t)) <= 1e-12 * math.exp(-lam * t)


# ---------------------------------------------------------------------------
# Galerkin truncation
# ---------------------------------------------------------------------------

def test_truncation_cauchy_in_dual_norm(table_factory):
    # delay-series data: successive truncation increments shrink in the dual norm
    tab = table_factory(1.0, 60, 0)
    tau = 1.2
    coeffs = {(n, 0, 0): math.exp(0.55 * tab.lam(n, 0)) / n for n in range(1, 61)}
    g0 = SpectralField(coeffs)
    t = 0.3
    gt = evolve(g0, t, tab)
    dual = NormSpec("domaindual", tau=tau)
    prev = None
    def increment(field, N):  # the Galerkin projection onto 2n + l <= N + 20, less onto <= N
        K = 2 * field.nlm[:, 0] + field.nlm[:, 1]
        keep = (N < K) & (K <= N + 20)
        return SpectralField((field.nlm[keep], field.amps[keep]))

    for N in (20, 40, 60, 80, 100):
        diff = spectral_norm(increment(gt, N), dual, tab)
        if prev is not None:
            assert diff <= prev
        prev = diff


def test_uniqueness_functional_vanishes(rng, table_factory):
    # difference of two evolutions of the same data is identically zero,
    # and the dual-weighted test functional certifies it at machine precision
    tab = table_factory(2.0, 20, 20)
    g = _random_field(rng, 25)
    a, b = evolve(g, 1.3, tab), evolve(g, 1.3, tab)
    assert (a.nlm == b.nlm).all()
    tau = 0.8
    total = sum(math.exp(-2.0 * tau * (1.0 if m.n + m.l <= 1 else tab.lam(m.n, m.l)))
                * abs(a.amplitude(m) - b.amplitude(m)) ** 2 for m in a.modes())
    assert total == 0.0


# ---------------------------------------------------------------------------
# decay checks
# ---------------------------------------------------------------------------

def test_choose_c0_uses_shifted_ratio(table_factory):
    tab = table_factory(2.0, 30, 30)
    c_min = ratio_bounds(tab, shift=W_SHIFT).c_min
    assert choose_c0(tab, 2.0) == 0.5 * c_min  # (log W0)^0 = 1 at s = 2
    with pytest.raises(ValueError):
        choose_c0(tab, 1.0)  # s disagrees with the table kernel


def test_rate1_certificate_on_small_tables(table_factory):
    for s in (1.0, 2.0):
        rep = rate1_certificate(table_factory(s, 60, 60), s)
        assert rep.ok, rep


def test_rate1_certificate_keeps_the_stricter_slack(table_factory):
    # at s=2, log1p(1e-12)/5 = 2.0e-13 is stricter than 1e-12 * lambda_{2,0}/2 = 2.15e-13.
    # Lowering (5, 3) to lambda_{2,0} - 2d makes it the ratio minimizer with margin -d.
    tab = table_factory(2.0, 8, 8)
    for d, ok in ((1.9e-13, True), (2.1e-13, False)):
        lams = tab.lams.copy()
        lams[5, 3] = lams[2, 0] - 2 * d
        rep = rate1_certificate(type(tab)(tab.params, tab.quad, lams, tab.errs), 2.0)
        assert rep.worst_mode == (5, 3) and abs(rep.worst_margin + d) < 1e-16
        assert rep.ok is ok, rep


def test_rate1_single_mode_closed_form(table_factory):
    tab = table_factory(2.0, 30, 30)
    lam = tab.lam(2, 0)
    g = SpectralField({(2, 0, 0): 2.0})
    for t in (0.5, 1.0, 3.0):
        r = rate1_check(g, t, tab, 2.0)
        expect_lhs = (2 * 2 + 0 + W_SHIFT) ** (r.c0 * t) * math.exp(-lam * t) * 2.0
        assert abs(r.lhs - expect_lhs) < 1e-12 * expect_lhs
        assert r.holds
        assert r.rhs == math.exp(-0.5 * lam * t) * 2.0
        assert r.rhs_paper == math.exp(-lam * t) * 2.0


def test_rate1_null_data_vacuous(table_factory):
    tab = table_factory(2.0, 30, 30)
    r = rate1_check(SpectralField({(0, 0, 0): 3.0}), 1.0, tab, 2.0)
    assert r.lhs == 0.0 and r.holds


def test_rate1_random_fields_hold(rng, table_factory):
    tab = table_factory(1.0, 30, 30)
    for _ in range(25):
        g = _random_field(rng, 20, nmax=30, lmax=30)
        for t in (0.5, 2.0):
            assert rate1_check(g, t, tab, 1.0).holds


def test_rate1_rejects_bad_s(table_factory):
    tab = table_factory(4.0, 8, 8)
    with pytest.raises(ValueError):
        rate1_check(SpectralField({(2, 0, 0): 1.0}), 1.0, tab, 4.0)


def test_decay_check_thm12_single_mode_s2(table_factory):
    # pure gap-mode data: the quarter-rate variant holds once t exceeds
    # 2 t0/c0 (= 4 t0 log W / lambda_{2,0}); the half-rate variant never does
    # for this field since the certificate is exactly tight at (2,0)
    tab = table_factory(2.0, 60, 60)
    g = SpectralField({(2, 0, 0): 1.0})
    t0 = 0.01
    c0 = choose_c0(tab, 2.0)
    r = decay_check_thm12(g, t0, 5 * t0 / c0, tab, 2.0)
    assert r.holds_paper and not r.holds
    assert r.lhs <= r.rhs_paper
    r_early = decay_check_thm12(g, t0, 1.0 * t0 / c0, tab, 2.0)
    assert not r_early.holds_paper
    with pytest.raises(ValueError):
        decay_check_thm12(g, t0, 0.5 * t0 / c0, tab, 2.0)
    with pytest.raises(ValueError, match="t0 must be positive"):
        decay_check_thm12(g, 0.0, 1.0, tab, 2.0)


def test_decay_check_null_data(table_factory):
    tab = table_factory(2.0, 30, 30)
    g = SpectralField({(0, 0, 0): 1.0, (0, 1, 1): 2.0})
    r = decay_check_thm12(g, 0.01, 5.0, tab, 2.0)
    assert r.lhs == 0.0 and r.holds and r.holds_paper


def test_decay_check_thm12_rejects_other_s(table_factory):
    tab = table_factory(2.0, 30, 30)
    with pytest.raises(ValueError, match="disagrees with the table kernel"):
        decay_check_thm12(SpectralField({(2, 0, 0): 1.0}), 0.5, 5.0, tab, 1.0)


def test_decay_checks_take_no_other_c0(table_factory):
    # c0 is always choose_c0(table, s): a hand-given one could be 0 or negative
    tab = table_factory(2.0, 30, 30)
    g = SpectralField({(2, 0, 0): 1.0})
    for c0 in (0.0, -1.0):
        with pytest.raises(TypeError):
            decay_check_thm12(g, 0.5, 50.0, tab, 2.0, c0=c0)
        with pytest.raises(TypeError):
            rate1_check(g, 1.0, tab, 2.0, c0=c0)
    assert decay_check_thm12(g, 0.5, 50.0, tab, 2.0).c0 == choose_c0(tab, 2.0)


def test_rate2_check_rejects_other_s(table_factory):
    tab = table_factory(2.0, 8, 8)
    with pytest.raises(ValueError, match=r"s = 1.0 disagrees with the table kernel \(s = 2.0\)"):
        rate2_check(SpectralField({(2, 0, 0): 1.0}), 1.0, 1.0, tab, 1.0)


def test_rate2_k_zero_reduces_to_l2(rng, table_factory):
    tab = table_factory(1.0, 30, 30)
    g = _random_field(rng, 20, nmax=30, lmax=30)
    r = rate2_check(g, 1.5, 0.0, tab, 1.0)
    assert r.cs_empirical == 0.0 and r.holds
    gp = project_null(g, "orthogonal")
    assert abs(r.lhs - project_null(evolve(g, 1.5, tab), "orthogonal").l2_norm()) < 1e-12
    assert abs(r.rhs - math.exp(-tab.lam(2, 0) * 1.5) * gp.l2_norm()) < 1e-12


def test_rate2_single_mode_formula(table_factory):
    tab = table_factory(1.0, 30, 30)
    g = SpectralField({(2, 0, 0): 1.0})
    k, t, s = 2.0, 1.0, 1.0
    r = rate2_check(g, t, k, tab, s)
    W = 4.0 + W_SHIFT
    # lhs = W^(k/2) e^(-lam t); baseline = e^(-lam t); cs scales the log ratio
    expect = (0.5 * k * math.log(W)) / ((1.0 / t) ** (s / (2 - s)) * k ** (2 / (2 - s)))
    assert abs(r.cs_empirical - expect) < 1e-12
    assert r.holds
    # for this field the clamped constant grows with t (the log-ratio is
    # t-independent while the scale shrinks); budget still dominates
    r2 = rate2_check(g, 4.0, k, tab, s)
    assert r2.cs_empirical > r.cs_empirical and r2.holds


def test_rate2_budget_certifies_random_fields(rng, table_factory):
    tab = table_factory(1.0, 30, 30)
    for _ in range(20):
        g = _random_field(rng, 25, nmax=30, lmax=30)
        for t in (0.5, 2.0):
            for k in (1.0, 3.0):
                assert rate2_check(g, t, k, tab, 1.0).holds


def test_rate2_validation(table_factory):
    tab = table_factory(2.0, 8, 8)
    g = SpectralField({(2, 0, 0): 1.0})
    with pytest.raises(ValueError):
        rate2_check(g, 1.0, 1.0, tab, 2.0)  # s must be < 2
    with pytest.raises(ValueError):
        rate2_check(g, 0.0, 1.0, tab, 2.0)
    tab1 = table_factory(1.0, 8, 8)
    with pytest.raises(ValueError, match="time must be positive"):
        rate2_check(g, 0.0, 1.0, tab1, 1.0)
    with pytest.raises(ValueError, match="weight order k must be nonnegative"):
        rate2_check(g, 1.0, -1.0, tab1, 1.0)


# ---------------------------------------------------------------------------
# series classification
# ---------------------------------------------------------------------------

def test_delay_series_verdicts(table_factory):
    tab = table_factory(1.0, 2000, 0)
    spec = DelaySeries(tau0=0.5, N=2000)
    assert series_tail_classify(spec, 0.25, NormSpec.l2(), tab).classification == "divergent"
    assert series_tail_classify(spec, 1.0, NormSpec.l2(), tab).classification == "convergent"


def test_series_spec_validation(table_factory):
    with pytest.raises(ValueError):
        DelaySeries(tau0=0.0)
    with pytest.raises(ValueError):
        S2DelaySeries(N=1)
    # the tail test reads term ratios over the trailing half: four terms at least
    with pytest.raises(ValueError, match="at least four terms: truncation N must be at least 5"):
        SobolevSeries(tau=1.0, N=4)
    with pytest.raises(ValueError, match="at least 4, got 3"):
        DelaySeries(tau0=0.5, N=3)
    assert series_tail_classify(DelaySeries(tau0=0.5, N=4), 1.0, NormSpec.l2(),
                                table_factory(1.0, 2000, 0)).classification
    with pytest.raises(ValueError):
        SobolevSeries(tau=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tau0 must be positive and finite"):
            DelaySeries(tau0=bad)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            SobolevSeries(tau=bad)
    with pytest.raises(TypeError):
        series_tail_classify(SpectralField({}), 1.0, NormSpec.l2(),
                             table_factory(1.0, 2000, 0))
    with pytest.raises(TypeError, match="not a radial series spec"):
        solver.log_coeff(NormSpec.l2(), np.log([2.0, 3.0]), np.ones(2))


def test_sobolev_series_verdicts(table_factory):
    tab = table_factory(4.0, 2000, 0)
    spec = SobolevSeries(tau=1.0, N=2000)
    a = series_tail_classify(spec, 1.0, NormSpec.shubin(1.0), tab)
    b = series_tail_classify(spec, 1.0, NormSpec.shubin(2.0), tab)
    assert a.classification == "convergent"
    assert b.classification == "divergent"


def test_zero_terms_are_a_convergent_series(table_factory):
    # past t ~ 1e307 lambda t overflows, so the terms are zero in doubles: the
    # series converges, with a zero tail once the surrogate's terms are all zero
    tab = table_factory(4.0, 200, 0)
    spec = DelaySeries(tau0=0.5, N=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts = [series_tail_classify(spec, t, NormSpec.l2(), tab)
                    for t in (1e306, 1e307, 1e308)]
    assert [v.classification for v in verdicts] == ["convergent"] * 3
    assert verdicts[-1].log10_tail_estimate == -math.inf


def test_frontier_monotone_small(table_factory):
    tab = table_factory(2.0, 2000, 0)
    spec = S2DelaySeries(N=2000)
    t1 = classify_frontier(spec, 1.0, tab)
    t2 = classify_frontier(spec, 2.0, tab)
    assert 0.0 < t1 < t2


def test_classifier_accepts_built_table(table_factory):
    # an eigenvalue table covering (n <= N, l = 0) works as the lambda source
    tab = table_factory(1.0, 400, 0)
    spec = DelaySeries(tau0=0.5, N=400)
    v = series_tail_classify(spec, 2.0, NormSpec.l2(), tab)
    assert v.classification == "convergent"
    with pytest.raises(EigenvalueLookupError):
        series_tail_classify(DelaySeries(tau0=0.5, N=500), 2.0, NormSpec.l2(), tab)


CROSS_PATH_NORMS = [NormSpec.l2(), NormSpec.shubin(2.0), NormSpec.logsob(0.5, 2.0),
                    NormSpec("domain", tau=0.5), NormSpec("domaindual", tau=0.5),
                    NormSpec("domainplus", tau=0.5), NormSpec("domainplusdual", tau=0.5)]


@pytest.mark.parametrize("norm", CROSS_PATH_NORMS, ids=str)
@pytest.mark.parametrize("family", ["delay", "sobolev"])
def test_finite_field_norm_matches_series_partial_sum(family, norm, table_factory):
    # the finite-field norm of the truncated series at time t and the
    # classifier's full partial sum must use the same weight and coefficients
    N, t = 200, 0.75
    tab = table_factory(1.0, N, 0)
    if family == "delay":
        spec = DelaySeries(tau0=0.5, N=N)
        coeffs = {(n, 0, 0): math.exp(0.5 * tab.lam(n, 0)) / n for n in range(1, N + 1)}
    else:
        spec = SobolevSeries(tau=1.0, N=N)
        coeffs = {(n, 0, 0): n ** -1.0 / math.log(n) for n in range(2, N + 1)}
    field = evolve(SpectralField(coeffs), t, tab)
    got = 2.0 * math.log10(spectral_norm(field, norm, tab))
    want = series_tail_classify(spec, t, norm, tab).log10_partial_sum
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


def test_verdict_evidence_fields(table_factory):
    v = series_tail_classify(DelaySeries(tau0=0.5, N=2000), 1.0, NormSpec.l2(),
                             table_factory(1.0, 2000, 0))
    assert v.classification == "convergent"
    assert v.median_tail_ratio_log < 0.0 and v.window_growth_log10 < 1.0
    assert isinstance(v.log10_partial_sum, float) and math.isfinite(v.log10_partial_sum)
    assert v.log10_tail_estimate < v.log10_partial_sum


# ---------------------------------------------------------------------------
# weak formulation
# ---------------------------------------------------------------------------

def test_weak_form_null_mode_exact(table_factory):
    tab = table_factory(2.0, 8, 8)
    g = SpectralField({(0, 0, 0): 1.0})
    assert weak_form_residual(g, [(0, 0, 0)], 2.0, tab) <= 1e-12


def test_weak_form_single_mode(table_factory):
    tab = table_factory(2.0, 8, 8)
    g = SpectralField({(2, 0, 0): 1.0})
    assert weak_form_residual(g, [(2, 0, 0)], 1.0, tab) <= 1e-10


def test_weak_form_extra_test_modes_no_effect(rng, table_factory):
    tab = table_factory(2.0, 20, 20)
    g = _random_field(rng, 10)
    base = weak_form_residual(g, list(g.modes())[:4], 1.7, tab)
    absent = [(19, 19, 0), (20, 5, -5)]
    again = weak_form_residual(g, list(g.modes())[:4] + absent, 1.7, tab)
    assert abs(base - again) < 1e-14


def test_weak_form_random_fields(rng, table_factory):
    tab = table_factory(2.0, 20, 20)
    for _ in range(20):
        g = _random_field(rng, 12)
        test_modes = list(g.modes())[:5]
        t = float(rng.uniform(0.1, 3.0))
        assert weak_form_residual(g, test_modes, t, tab) <= 1e-10


# ---------------------------------------------------------------------------
# evolution report
# ---------------------------------------------------------------------------

def test_report_rows_and_slope(table_factory):
    tab = table_factory(2.0, 8, 8)
    lam = tab.lam(2, 0)
    g = SpectralField({(2, 0, 0): 1.0})
    rep = EvolutionReport.compute(g, [0.0, 0.5, 1.0, 2.0], [NormSpec.l2()], tab)
    assert rep.values[0][0] == 1.0
    assert abs(rep.decay_slopes[0] + lam) < 1e-10
    rows = list(rep.rows())
    assert rows[0] == (0.0, "l2", 1.0)
    assert "time,norm,value" in rep.to_csv()
    assert rep.to_json().startswith("{")
    with pytest.raises(ValueError):
        EvolutionReport.compute(g, [0.0, 0.0], [NormSpec.l2()], tab)


@pytest.mark.parametrize("times", [[1.0], [0.0, 1e6]])
def test_report_slope_is_nan_below_two_positive_norms(table_factory, times):
    # one time, or a mode decayed to an exact zero, leaves too few positive norms to fit
    tab = table_factory(2.0, 8, 8)
    rep = EvolutionReport.compute(SpectralField({(2, 0, 0): 1.0}), times, [NormSpec.l2()], tab)
    assert rep.values[-1][0] == math.exp(-tab.lam(2, 0) * times[-1])
    assert math.isnan(rep.decay_slopes[0])


def test_report_null_mode_constant(table_factory):
    tab = table_factory(2.0, 8, 8)
    g = SpectralField({(0, 1, 0): 2.0})
    rep = EvolutionReport.compute(g, [0.0, 1.0, 5.0], [NormSpec.l2()], tab)
    assert all(row[0] == 2.0 for row in rep.values)


def test_report_values_equal_per_time_spectral_norms(rng, table_factory):
    tab = table_factory(2.0, 20, 20)
    g = SpectralField({**_random_field(rng, 40).coeffs, (0, 0, 0): 1.0, (1, 0, 0): -0.5,
                       (0, 1, 1): 0.25j, (3, 4, -2): 2.0 - 1.0j})
    norms = [NormSpec.l2(), NormSpec.shubin(2.5), NormSpec.logsob(0.7, 1.5),
             NormSpec("domain", tau=0.5), NormSpec("domaindual", tau=0.5),
             NormSpec("domainplus", tau=1.0), NormSpec("domainplusdual", tau=1.0)]
    times = [0.0, 0.3, 1.0, 4.0]
    rep = EvolutionReport.compute(g, times, norms, tab)
    for t, row in zip(times, rep.values):
        gt = evolve(g, t, tab)
        assert row == tuple(spectral_norm(gt, sp, tab) for sp in norms)


@settings(max_examples=300, deadline=None)
@example(xs=[1.0, math.nan, 2.0])
@example(xs=[-math.inf, math.inf])
@example(xs=[1e308, 1.7e308])
@example(xs=[3.0, -1.0, 2.0, 0.5])
@given(xs=st.lists(st.floats(width=64), min_size=1, max_size=60)
       | st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1.0, 4.0]), min_size=1, max_size=9))
def test_median_equals_numpy_median(xs):
    # the tail classifier's sort-based median is np.median's double (NaN for
    # any NaN); only a zero median may carry the other sign
    x = np.array(xs)
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.median(x)
        got = solver._median(x)
    assert isinstance(got, float)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want
        assert want == 0.0 or np.float64(got).tobytes() == want.tobytes()
