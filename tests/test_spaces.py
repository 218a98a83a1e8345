import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyboltz.basis import SpectralField
from dyboltz.errors import EigenvalueLookupError
from dyboltz.spaces import (W_SHIFT, EmbeddingEstimate, NormSpec,
                            embedding_estimate, parse_norm_spec, spectral_norm,
                            young_min, young_rhs)
from strategies import FIELDS

GAP_S2 = (2.0 / 3.0) * (1.0 - 2.0 ** -1.5)


def _lam_tilde(tab, n, l):
    # the modified eigenvalue: 1 on the null space, the table value elsewhere
    return 1.0 if n + l <= 1 else tab.lam(n, l)


def _random_field(rng, count, nmax=12, lmax=12):
    coeffs = {}
    while len(coeffs) < count:
        n = int(rng.integers(0, nmax + 1))
        l = int(rng.integers(0, lmax + 1))
        m = int(rng.integers(-l, l + 1))
        coeffs[(n, l, m)] = complex(rng.normal(), rng.normal())
    return SpectralField(coeffs)


def test_norm_spec_validation_and_strings():
    with pytest.raises(ValueError):
        NormSpec.shubin(-1.0)
    with pytest.raises(ValueError):
        NormSpec.logsob(1.0, 0.0)
    with pytest.raises(ValueError):
        NormSpec("domain", tau=0.0)
    with pytest.raises(ValueError, match="unknown norm kind 'bogus'"):
        NormSpec("bogus")
    assert str(NormSpec.logsob(-0.5, 2)) == "logsob:tau=-0.5,nu=2"
    for text in ("l2", "shubin:k=2", "logsob:tau=1,nu=2", "domain:tau=0.5",
                 "domaindual:tau=0.5", "domainplus:tau=3", "domainplusdual:tau=0.1"):
        assert str(parse_norm_spec(text)) == text
    with pytest.raises(ValueError):
        parse_norm_spec("sobolev:k=2")
    with pytest.raises(ValueError):
        parse_norm_spec("shubin")
    with pytest.raises(ValueError):
        parse_norm_spec("logsob:tau=1")


@pytest.mark.parametrize("text, named", [
    ("shubin:k=2,tau=3", "takes no argument 'tau'"),
    ("logsob:tau=1,nu=2,k=5", "takes no argument 'k'"),
    ("l2:k=1", "takes no argument 'k'"),
    ("domain:tau=0.5,nu=1", "takes no argument 'nu'"),
    ("shubin:k=2,k=3", "repeats argument 'k'"),
    ("logsob:tau=1,nu=2,tau=1", "repeats argument 'tau'")])
def test_norm_spec_rejects_foreign_and_repeated_arguments(text, named):
    # a dropped or overwritten argument would compute another norm with no error
    with pytest.raises(ValueError, match=named):
        parse_norm_spec(text)


@pytest.mark.parametrize("text", ["shubin:k=nan", "shubin:k=inf", "logsob:tau=inf,nu=2",
                                  "logsob:tau=1,nu=nan", "domain:tau=nan"])
def test_norm_spec_rejects_non_finite_parameters(text):
    with pytest.raises(ValueError, match="must be finite"):
        parse_norm_spec(text)


_NUMBERS = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(st.one_of(
    st.just(NormSpec.l2()),
    st.builds(NormSpec.shubin, st.floats(min_value=0.0, allow_infinity=False)),
    st.builds(NormSpec.logsob, _NUMBERS, _POSITIVE),
    st.builds(NormSpec, st.sampled_from(["domain", "domaindual", "domainplus",
                                         "domainplusdual"]), tau=_POSITIVE)))
@example(NormSpec.shubin(1.2345678))
def test_norm_spec_string_round_trip(spec):
    # the label names the norm that was computed: :g text only where it parses back
    assert parse_norm_spec(str(spec)) == spec


def test_single_mode_weight_examples(table_factory):
    f = SpectralField({(0, 0, 0): 1.0})
    w0 = 1.5 + math.e
    assert abs(spectral_norm(f, NormSpec.shubin(2)) - w0) < 1e-12
    assert abs(spectral_norm(f, NormSpec.logsob(1, 2)) - w0) < 1e-12
    tab = table_factory(2.0, 8, 8)
    g = SpectralField({(2, 0, 0): 1.0})
    expect = math.exp(0.5 * tab.lam(2, 0))  # 1.2404634...
    assert abs(spectral_norm(g, NormSpec("domain", tau=1.0), tab) - expect) < 1e-12


def test_modified_lambda(table_factory):
    # the domain(tau) norm of a unit single-mode field is exp(tau lambda~ / 2),
    # with lambda~ = 1 on the null space, which needs no table coverage
    tab = table_factory(2.0, 8, 0)

    def lam_tilde(mode):
        return 2.0 * math.log(spectral_norm(SpectralField({mode: 1.0}),
                                            NormSpec("domain", tau=1.0), tab))

    for mode in [(0, 0, 0), (1, 0, 0), (0, 1, -1), (0, 1, 0), (0, 1, 1)]:
        assert abs(lam_tilde(mode) - 1.0) < 1e-15
    assert abs(lam_tilde((2, 0, 0)) - GAP_S2) < 1e-10
    with pytest.raises(EigenvalueLookupError):
        lam_tilde((9, 0, 0))
    with pytest.raises(EigenvalueLookupError):
        lam_tilde((1, 1, 0))


def test_l2_norm_equals_euclidean(rng):
    f = _random_field(rng, 25)
    assert abs(spectral_norm(f, NormSpec.l2()) - f.l2_norm()) < 1e-12


def test_l2_norm_is_the_weight_one_spectral_norm():
    # the same sum bit for bit, and past the double range inf, not OverflowError
    for coeffs in ({(2, 0, 0): 1e200}, {(0, 0, 0): 3.0, (2, 1, -1): 1e155 - 1e155j},
                   {(0, 0, 0): 0.1, (1, 0, 0): 0.2 - 0.3j, (5, 4, 3): 1.7j}):
        f = SpectralField(coeffs)
        assert f.l2_norm() == spectral_norm(f, NormSpec.l2())
    assert SpectralField({(2, 0, 0): 1e200}).l2_norm() == math.inf


def test_zero_amplitude_under_an_overflowing_weight_adds_nothing():
    # the logsob weight of (200, 0, 0) overflows at nu = 0.5, and inf * 0 is
    # NaN; an explicit zero amplitude there must leave the norm as it is
    spec = NormSpec.logsob(1.0, 0.5)
    alone = spectral_norm(SpectralField({(0, 0, 0): 1.0}), spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        padded = spectral_norm(SpectralField({(0, 0, 0): 1.0, (200, 0, 0): 0.0}), spec)
    assert math.isfinite(alone) and padded == alone
    assert spectral_norm(SpectralField({(0, 0, 0): 1.0, (200, 0, 0): 1.0}), spec) == math.inf


def test_domain_norm_needs_table(rng):
    f = _random_field(rng, 5)
    with pytest.raises(ValueError):
        spectral_norm(f, NormSpec("domain", tau=0.5))


def test_domain_series_definition_consistency(rng, table_factory):
    # sum_k tau^k/k! sum_modes lam~^k |c|^2 telescopes to the closed weight
    tab = table_factory(2.0, 12, 12)
    f = _random_field(rng, 20)
    for tau in (0.3, 1.0):
        closed = spectral_norm(f, NormSpec("domain", tau=tau), tab) ** 2
        series = 0.0
        for k in range(200):
            term = sum(tau**k / math.factorial(k)
                       * _lam_tilde(tab, m.n, m.l) ** k * abs(a) ** 2
                       for m, a in f.coeffs.items())
            series += term
            if k > 3 and term < 1e-16 * series:
                break
        assert abs(series - closed) < 1e-10 * closed


def test_dual_weights_are_reciprocal(table_factory):
    # squared norms of unit single-mode fields are the mode weights
    tab = table_factory(2.0, 8, 8)
    for n, l in [(0, 0), (2, 0), (5, 3)]:
        f = SpectralField({(n, l, 0): 1.0})
        w, wd, wp, wpd = (spectral_norm(f, spec, tab) ** 2 for spec in (
            NormSpec("domain", tau=0.7), NormSpec("domaindual", tau=0.7),
            NormSpec("domainplus", tau=0.7), NormSpec("domainplusdual", tau=0.7)))
        assert abs(w * wd - 1.0) < 1e-12
        lam = _lam_tilde(tab, n, l)
        assert abs(wp - lam * w) < 1e-12
        assert abs(wpd - wd / lam) < 1e-12


def _ordered(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=2, max_size=2).map(sorted)


@settings(max_examples=30, deadline=None)
@given(f=FIELDS, taus=_ordered(-1.0, 1.0), tau=st.floats(0.0, 1.0), nus=_ordered(0.5, 2.0),
       ks=_ordered(0.0, 10.0))
def test_logsob_monotonicity(f, taus, tau, nus, ks):
    # every weight below stays finite for n, l <= 20, so no norm is inf or NaN
    nu = nus[0]
    assert (spectral_norm(f, NormSpec.logsob(taus[0], nu))
            <= spectral_norm(f, NormSpec.logsob(taus[1], nu)))
    # weights order pointwise in nu since log W >= 1
    assert (spectral_norm(f, NormSpec.logsob(tau, nus[0]))
            >= spectral_norm(f, NormSpec.logsob(tau, nus[1])))
    # and in the Shubin order k, since W >= 1
    assert (spectral_norm(f, NormSpec.shubin(ks[0]))
            <= spectral_norm(f, NormSpec.shubin(ks[1])))


def test_duality_pairing_bound(rng, table_factory):
    tab = table_factory(2.0, 12, 12)
    for tau in (0.3, 1.1):
        for _ in range(10):
            f = _random_field(rng, 15)
            g = _random_field(rng, 15)
            lhs = abs(f.inner(g))
            rhs = (spectral_norm(f, NormSpec("domaindual", tau=tau), tab)
                   * spectral_norm(g, NormSpec("domain", tau=tau), tab))
            assert lhs <= rhs * (1.0 + 1e-12)


def test_shubin_below_logsob_for_small_s(rng):
    for _ in range(20):
        f = _random_field(rng, 20)
        tau1 = float(rng.uniform(0.05, 0.8))
        s = float(rng.uniform(0.5, 2.0))
        assert (spectral_norm(f, NormSpec.shubin(2 * tau1))
                <= spectral_norm(f, NormSpec.logsob(tau1, s)) * (1 + 1e-12))


def test_young_bound_coefficient_inequality(rng):
    # sum W^k c^2 <= exp(2 C (1/tau)^(nu/(2-nu)) k^(2/(2-nu))) sum e^{2 tau (log W)^{2/nu}} c^2
    for _ in range(15):
        f = _random_field(rng, 20)
        tau = float(rng.uniform(0.2, 1.5))
        nu = float(rng.uniform(0.3, 1.7))
        k = float(rng.uniform(1.0, 6.0))
        C = (2.0 - nu) / 4.0 * (nu / 4.0) ** (nu / (2.0 - nu))
        lhs = spectral_norm(f, NormSpec.shubin(k)) ** 2
        rhs = (math.exp(2.0 * C * (1.0 / tau) ** (nu / (2.0 - nu))
                        * k ** (2.0 / (2.0 - nu)))
               * spectral_norm(f, NormSpec.logsob(tau, nu)) ** 2)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_young_min_closed_instances():
    got = young_min(1.0, 1.0, 4.0)
    assert abs(got.min_value - math.exp(-2.0)) < 1e-9
    assert abs(got.argmin - math.e) < 1e-6
    assert young_min(1.0, 1.0, 0.0).min_value == 1.0
    assert young_min(1.0, 1.0, 0.0).argmin == 1.0
    got = young_min(0.5, 1.5, 3.0)
    assert abs(got.min_value - young_rhs(0.5, 1.5, 3.0)) < 1e-6 * got.min_value


def test_young_rhs_values():
    assert abs(young_rhs(1.0, 1.0, 4.0) - math.exp(-2.0)) < 1e-15
    assert abs(young_rhs(1.0, 1.0, 1.0) - math.exp(-0.125)) < 1e-15


def test_young_min_matches_rhs_sweep(rng):
    done = 0
    while done < 50:
        tau = float(rng.uniform(0.1, 3.0))
        nu = float(rng.uniform(0.05, 1.95))
        k = float(rng.uniform(1.0, 8.0))
        r = young_rhs(tau, nu, k)
        if r < 1e-300:
            continue
        m = young_min(tau, nu, k).min_value
        assert m >= r * (1.0 - 1e-9)
        assert abs(m - r) < 1e-6 * r
        done += 1


def test_young_min_domain_errors():
    with pytest.raises(TypeError):
        young_min(1.0, 1.0, 4.0, x_max=2.0)  # the search end is derived from u*
    with pytest.raises(ValueError):
        young_min(-1.0, 1.0, 4.0)
    with pytest.raises(ValueError):
        young_min(1.0, 2.5, 4.0)
    with pytest.raises(ValueError, match="stationary point too large"):  # nu close to 2
        young_min(0.1, 1.99, 8.0)
    # every non-finite value is rejected by both functions with the same messages
    nan, inf = math.nan, math.inf
    for args, what in [((nan, 1.0, 1.0), "tau > 0"), ((inf, 1.0, 1.0), "tau > 0"),
                       ((1.0, nan, 1.0), "0 < nu < 2"), ((1.0, 1.0, nan), "nonnegative"),
                       ((1.0, 1.0, inf), "nonnegative"), ((1.0, 1.0, -inf), "nonnegative")]:
        for fn in (young_min, young_rhs):
            with pytest.raises(ValueError, match=what):
                fn(*args)


def test_embedding_estimate(table_factory):
    tab = table_factory(2.0, 55, 55)
    est = embedding_estimate(tab, 2.0)
    assert isinstance(est, EmbeddingEstimate)
    assert 0.0 < est.tau1_hat <= est.tau2_hat
    # null modes contribute ratio 1/(2 log(W0)^{2/s}) with lam~ = 1
    null_ratio = 1.0 / (2.0 * math.log(W_SHIFT) ** 1.0)
    assert est.tau1_hat <= null_ratio <= est.tau2_hat
    with pytest.raises(ValueError):
        embedding_estimate(table_factory(2.0, 8, 8), 2.0)
    # the witnesses belong to the table's kernel, not to another s
    with pytest.raises(ValueError, match=r"s = 0.5 disagrees with the table kernel \(s = 2.0\)"):
        embedding_estimate(tab, 0.5)


def test_embedding_regression_snapshot(table_factory):
    import csv
    import pathlib
    path = pathlib.Path(__file__).parent / "golden" / "embedding_s2.csv"
    row = next(csv.DictReader(open(path)))
    est = embedding_estimate(table_factory(2.0, 200, 200), 2.0)
    assert abs(est.tau1_hat - float(row["tau1_hat"])) < 1e-12
    assert abs(est.tau2_hat - float(row["tau2_hat"])) < 1e-12
