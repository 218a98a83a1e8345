import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyboltz.specfun import (_gauss_rule, _ylm, assoc_legendre_norm, hermite_osc, laguerre,
                             legendre, legendre_all, legendre_scaled_gap)
from oracles import (assoc_legendre_explicit, assoc_legendre_mp, bessel_j0,
                     gauss_legendre_mp, hermite_osc_explicit, laguerre_explicit,
                     legendre_poly_explicit)


def _norm(l, m):
    """N_lm of the orthonormal spherical harmonics."""
    return math.sqrt((2 * l + 1) / (4 * math.pi) * math.factorial(l - m) / math.factorial(l + m))


@pytest.mark.parametrize("call", [
    lambda: legendre(3, math.nan),
    lambda: legendre_all(3, [0.5, math.nan]),
    lambda: assoc_legendre_norm(2, 1, math.nan),
    lambda: laguerre(2, 0.5, math.nan),
    lambda: laguerre(2, math.nan, 1.0),
    lambda: legendre_scaled_gap(3, math.nan),
], ids=["legendre", "legendre_all", "assoc_legendre_norm", "laguerre_x", "laguerre_alpha",
        "legendre_scaled_gap"])
def test_nan_arguments_fail_the_domain_checks(call):
    # each check is written so that NaN fails it, as it fails |x| <= 1
    with pytest.raises(ValueError):
        call()


def test_legendre_trivial_values():
    assert legendre(0, 0.7) == 1.0
    assert legendre(1, 0.5) == 0.5
    assert abs(legendre(2, 0.3) - (-0.365)) < 1e-15


def test_legendre_recurrence_matches_derivative_formula(rng):
    x = rng.uniform(-1.0, 1.0, size=50)
    for l in range(9):
        expect = np.asarray(legendre_poly_explicit(l)(x), dtype=float)
        got = legendre(l, x)
        assert np.max(np.abs(got - expect) / np.maximum(1e-30, np.abs(expect))) < 1e-12


def test_legendre_bounded_at_high_degree(rng):
    x = rng.uniform(-1.0, 1.0, size=500)
    x = np.concatenate([x, [-1.0, 1.0, 0.0]])
    for l in (10, 100, 1000, 10000):
        assert np.max(np.abs(legendre(l, x))) <= 1.0 + 1e-12


def test_legendre_orthogonality_by_quadrature():
    x, w = np.polynomial.legendre.leggauss(64)
    vals = legendre_all(50, x)
    gram = (vals * w) @ vals.T
    expect = np.diag([2.0 / (2 * l + 1) for l in range(51)])
    assert np.max(np.abs(gram - expect)) < 1e-10


@pytest.mark.parametrize("m", [16, 64, 201])
def test_gauss_legendre_rule_matches_mpmath(m):
    # against Newton's method at 50 digits: nodes within 4 ulp, weights
    # within 1e-12 relative (numpy's leggauss weights miss by 3e-11 at m = 201)
    nodes, weights = gauss_legendre_mp(m)
    x, w = _gauss_rule(m)
    assert x.shape == w.shape == (m,) and not x.flags.writeable and not w.flags.writeable
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    want = np.array(nodes, dtype=float)
    assert np.all(np.abs(x[m // 2:] - want) <= 4 * np.spacing(want))
    assert max(abs(float(wi / wm - 1)) for wi, wm in zip(w[m // 2:], weights)) < 1e-12


def test_gauss_hermite_rule_matches_numpy():
    x, w = _gauss_rule(40, hermite=True)
    xn, wn = np.polynomial.hermite.hermgauss(40)
    assert np.abs(x - xn).max() < 1e-13 and np.abs(w / wn - 1.0).max() < 1e-13
    assert abs(w.sum() - math.sqrt(math.pi)) < 1e-14


def test_legendre_domain_error():
    with pytest.raises(ValueError):
        legendre(3, 1.2)
    with pytest.raises(ValueError):
        legendre(-1, 0.5)
    with pytest.raises(ValueError):
        legendre_all(3, [0.5, 1.2])
    with pytest.raises(ValueError):
        legendre_all(-1, 0.5)


@settings(max_examples=40, deadline=None)
@given(l=st.integers(0, 2000),
       x=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
def test_legendre_single_row_is_the_table_row(l, x):
    assert np.array_equal(legendre(l, x), legendre_all(l, x)[l])


def test_assoc_legendre_trivial_values():
    # unnormalized P_1^1(0) = 1, P_2^0 = P_2, P_2^2(0) = 3, no Condon-Shortley factor
    assert abs(assoc_legendre_norm(1, 1, 0.0) / _norm(1, 1) - 1.0) < 1e-15
    assert abs(assoc_legendre_norm(2, 0, 0.3) / _norm(2, 0) - legendre(2, 0.3)) < 1e-15
    assert abs(assoc_legendre_norm(2, 2, 0.0) / _norm(2, 2) - 3.0) < 1e-15


def test_assoc_legendre_matches_derivative_formula(rng):
    x = rng.uniform(-0.99, 0.99, size=20)
    for l in range(7):
        for m in range(l + 1):
            expect = assoc_legendre_explicit(l, m)(x)
            got = assoc_legendre_norm(l, m, x) / _norm(l, m)
            assert np.max(np.abs(got - expect)) < 1e-10 * max(1.0, np.max(np.abs(expect)))


def test_assoc_legendre_norm_consistent_with_unnormalized(rng):
    x = rng.uniform(-1.0, 1.0, size=10)
    for l, m in [(3, 2), (10, 7)]:
        assert np.allclose(assoc_legendre_norm(l, m, x),
                           _norm(l, m) * assoc_legendre_explicit(l, m)(x),
                           rtol=1e-11, atol=1e-300)
    # past degree 64 the recurrences rescale by powers of 2: near x = +-1 the
    # seed of (200, 200) falls below 2**-400, and (1000, 200) at 0.999 grows
    # past 2**400 on the scale it carries
    near_pole = np.array([0.999, -0.998, 0.99])
    for l, m, pts in [(60, 60, x), (100, 1, x), (200, 200, near_pole), (1000, 200, near_pole)]:
        assert np.allclose(assoc_legendre_norm(l, m, pts), assoc_legendre_mp(l, m, pts),
                           rtol=1e-11, atol=1e-300)
    with pytest.raises(ValueError):
        assoc_legendre_norm(2, 3, 0.5)


def test_assoc_legendre_norm_stable_at_degree_1e4():
    vals = assoc_legendre_norm(10000, 5000, np.array([0.3, -0.7, 0.05]))
    assert np.all(np.isfinite(vals))
    # normalized family is bounded by the l = 0 sup of |Y|: sqrt((2l+1)/4pi)
    assert np.max(np.abs(vals)) < math.sqrt((2 * 10000 + 1) / (4 * math.pi))


def test_spherical_harmonic_values():
    assert abs(_ylm(0, 0, math.cos(1.1), 2.2) - 0.2820947917738781) < 1e-14
    assert abs(_ylm(1, 0, 1.0, 0.0) - 0.4886025119029199) < 1e-13
    # sign convention: no Condon-Shortley factor, so Y_1^1 at the equator is +N11
    got = _ylm(1, 1, math.cos(math.pi / 2), 0.0)
    assert abs(got - math.sqrt(3.0 / (8.0 * math.pi))) < 1e-14


def test_spherical_harmonic_conjugation_no_phase(rng):
    for _ in range(10):
        l = int(rng.integers(0, 8))
        m = int(rng.integers(-l, l + 1))
        costheta = math.cos(float(rng.uniform(0, math.pi)))
        phi = float(rng.uniform(0, 2 * math.pi))
        assert abs(_ylm(l, m, costheta, phi).conjugate() - _ylm(l, -m, costheta, phi)) < 1e-13


def test_spherical_harmonic_orthonormality():
    x, w = np.polynomial.legendre.leggauss(48)
    nphi = 48
    phi = 2 * math.pi * np.arange(nphi) / nphi
    modes = [(l, m) for l in range(21) for m in range(-l, l + 1)]
    Y = np.array([_ylm(l, m, x[:, None], phi[None, :]).ravel() for l, m in modes])
    wflat = np.repeat(w, nphi) * (2 * math.pi / nphi)
    gram = (Y * wflat) @ Y.conj().T
    assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-10


def test_spherical_harmonic_domain_error():
    with pytest.raises(ValueError):
        _ylm(1, 2, 0.3, 0.3)
    with pytest.raises(ValueError):
        _ylm(1, 0, 1.2, 0.3)


def test_laguerre_trivial_values():
    assert laguerre(0, 0.5, 3.1) == 1.0
    assert laguerre(1, 0.5, 1.0) == 0.5
    assert abs(laguerre(2, 0.5, 0.0) - 1.875) < 1e-15


def test_laguerre_recurrence_matches_explicit_sum(rng):
    x = rng.uniform(0.0, 8.0, size=50)
    for alpha in (0.5, 1.5, 3.5):
        for n in range(9):
            expect = laguerre_explicit(n, alpha, x)
            got = laguerre(n, alpha, x)
            assert np.max(np.abs(got - expect) / np.maximum(1.0, np.abs(expect))) < 1e-12, \
                (n, alpha)


def test_laguerre_domain_errors():
    with pytest.raises(ValueError):
        laguerre(2, 0.5, -0.1)
    with pytest.raises(ValueError):
        laguerre(2, -1.0, 0.5)
    with pytest.raises(ValueError):
        laguerre(-1, 0.5, 0.5)


def test_hermite_osc_values_and_rodrigues(rng):
    assert abs(hermite_osc(0, 0.0) - (2 * math.pi) ** -0.25) < 1e-15
    assert hermite_osc(1, 0.0) == 0.0
    with pytest.raises(ValueError, match="degree n must be a nonnegative integer"):
        hermite_osc(-1, 0.0)
    x = rng.uniform(-3.0, 3.0, size=30)
    for n in (2, 3, 5):
        expect = np.asarray(hermite_osc_explicit(n)(x), dtype=float)
        assert np.max(np.abs(hermite_osc(n, x) - expect)) < 1e-12


def test_hermite_osc_orthonormal():
    # integrand poly * exp(-x^2/2); substitute x = sqrt(2) u for Gauss-Hermite
    u, w = np.polynomial.hermite.hermgauss(64)
    x = math.sqrt(2.0) * u
    vals = np.array([hermite_osc(n, x) * np.exp(0.25 * x * x) for n in range(11)])
    gram = math.sqrt(2.0) * (vals * w) @ vals.T
    assert np.max(np.abs(gram - np.eye(11))) < 1e-10


def test_hermite_osc_eigenrelation_finite_differences():
    h = 1e-2
    offsets = np.arange(-3, 4)
    coeffs = np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])
    x = np.linspace(-3.0, 3.0, 41)
    for n in range(11):
        vals = np.array([hermite_osc(n, x + h * o) for o in offsets])
        d2 = coeffs @ vals / h**2
        center = hermite_osc(n, x)
        resid = np.abs(-d2 + 0.25 * x * x * center - (n + 0.5) * center)
        assert np.max(resid / np.maximum(1.0, np.abs(center))) < 1e-6


def test_scaled_gap_values():
    assert abs(legendre_scaled_gap(1, math.pi / 2) - 4.0 / math.pi**2) < 1e-15
    theta = math.pi / 4
    direct = (1.0 - legendre(2, math.cos(theta / 2))) / theta**2
    assert abs(legendre_scaled_gap(2, theta) - direct) < 1e-15


def test_scaled_gap_mehler_heine_at_large_degree():
    # P_l(cos(theta/l)) -> J_0(theta); the deviation at l = 500 is O(1/l)
    got = legendre_scaled_gap(500, 1.0)
    limit = 1.0 - bessel_j0(1.0)
    assert abs(got - limit) < 1e-3
    assert abs(got - limit) > 1e-7  # finite-l correction is real, not roundoff


def test_scaled_gap_matches_high_precision_oracle():
    # frozen mpmath values (tests/golden/scaled_gap.csv); covers both the
    # series branch (small theta/l) and the recurrence branch
    import csv
    import pathlib

    path = pathlib.Path(__file__).parent / "golden" / "scaled_gap.csv"
    with open(path) as fh:
        for row in csv.DictReader(fh):
            l = int(row["l"])
            got = legendre_scaled_gap(l, float(row["theta"]))
            expect = float(row["gap"])
            # recurrence-branch rounding grows with degree
            assert abs(got - expect) < (1e-12 + 2e-13 * l) * expect, row


def test_scaled_gap_small_theta_limit():
    # limit value at theta -> 0 is l(l+1)/(4 l^2)
    for l in (1, 2, 10, 100):
        got = legendre_scaled_gap(l, 1e-6)
        assert abs(got - l * (l + 1) / (4.0 * l * l)) < 1e-9


def test_scaled_gap_uniformly_bounded_by_half():
    thetas = np.linspace(math.pi / 2 / 200, math.pi / 2, 200)
    sup = 0.0
    for l in range(1, 201):
        sup = max(sup, float(np.max(legendre_scaled_gap(l, thetas))))
    assert sup <= 0.5 + 1e-12
    # the supremum comes from l = 1 near theta -> 0
    assert abs(float(np.max(legendre_scaled_gap(1, thetas))) - 0.5) < 1e-3


def test_scaled_gap_domain_errors():
    with pytest.raises(ValueError):
        legendre_scaled_gap(0, 0.3)
    with pytest.raises(ValueError):
        legendre_scaled_gap(3, 0.0)
    with pytest.raises(ValueError):
        legendre_scaled_gap(3, 2.0)
