import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from dyboltz.basis import (ModeIndex, SpectralField,
                           eval_phi, fourier_sqrtmu_phi,
                           inner_product_numeric,
                           orthonormality_max_deviation, oscillator_residual,
                           project_null)
from dyboltz.errors import ResolutionError
from oracles import gauss_laguerre_mp
from strategies import FIELDS

# the collision invariants 1, v and |v|^2 span these five modes
NULL_SPACE_MODES = {(0, 0, 0), (1, 0, 0), (0, 1, -1), (0, 1, 0), (0, 1, 1)}


def test_mode_index_validation():
    ModeIndex(3, 2, -2).validate()
    ModeIndex(np.int64(3), np.int32(2), -2).validate()
    with pytest.raises(ValueError):
        ModeIndex(0, 1, 2).validate()
    with pytest.raises(ValueError):
        SpectralField({(0, 1, 2): 1.0})
    # a non-integer index names no mode, so no field may hold one
    for mode in [(2.5, 0, 0), (2.0, 0, 0), (0, np.float64(1.0), 0), (0, 1, "0")]:
        with pytest.raises(ValueError, match="must be integers"):
            ModeIndex(*mode).validate()
        with pytest.raises(ValueError, match="must be integers"):
            SpectralField({mode: 1.0})
    with pytest.raises(ValueError, match="must be integers"):
        SpectralField.from_json('{"label":"","rows":[[2.5,0,0,1.0,0.0]]}')
    with pytest.raises(ValueError, match=r"each row must be \[n, l, m, re, im\]"):
        SpectralField.from_json('{"label":"","rows":[[2,0,0,1.0]]}')


def test_amplitudes_must_be_finite():
    for amp in (math.nan, math.inf, complex(0.0, -math.inf), complex(1.0, math.nan)):
        with pytest.raises(ValueError, match=r"amplitude of mode \(2, 0, 0\) is not finite"):
            SpectralField({(0, 0, 0): 1.0, (2, 0, 0): amp})
    # JSON reads Infinity and NaN, so the rows of a field file are checked too
    with pytest.raises(ValueError, match=r"amplitude of mode \(2, 0, 0\) is not finite"):
        SpectralField.from_json('{"label":"","rows":[[0,0,0,1.0,0.0],[2,0,0,Infinity,0.0]]}')


def test_repeated_mode_is_rejected():
    # a mapping cannot repeat a key, but the rows of a pair or a file can;
    # the field keeps neither value silently
    rows = '{"label":"","rows":[[2,0,0,1.0,0.0],[0,0,0,1.0,0.0],[2,0,0,3.0,0.0]]}'
    with pytest.raises(ValueError, match=r"mode \(2, 0, 0\) is repeated"):
        SpectralField.from_json(rows)
    with pytest.raises(ValueError, match=r"mode \(0, 1, 0\) is repeated"):
        SpectralField(([(0, 1, 0), (0, 1, 0)], [1.0, 1.0]))


def test_points_must_be_finite():
    for bad in ([math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [[1.0, 0.0, 0.0], [0.0, 0.0, -math.inf]]):
        with pytest.raises(ValueError, match="finite"):
            eval_phi((0, 0, 0), bad)
        with pytest.raises(ValueError, match="finite"):
            fourier_sqrtmu_phi((0, 0, 0), bad)


def test_ground_mode_is_sqrt_maxwellian(rng):
    pts = rng.normal(scale=1.5, size=(200, 3))
    r2 = np.einsum("ij,ij->i", pts, pts)
    expect = (2.0 * math.pi) ** -0.75 * np.exp(-0.25 * r2)
    got = eval_phi((0, 0, 0), pts)
    assert np.max(np.abs(got - expect)) < 1e-12
    assert np.max(np.abs(got.imag)) == 0.0


def test_eval_phi_at_origin():
    assert abs(eval_phi((0, 0, 0), [0.0, 0.0, 0.0]) - (2 * math.pi) ** -0.75) < 1e-15
    assert eval_phi((0, 1, 0), [0.0, 0.0, 0.0]) == 0.0
    assert eval_phi((2, 5, -3), [0.0, 0.0, 0.0]) == 0.0


def test_eval_phi_hand_value():
    # radial: sqrt(1/(sqrt(2) Gamma(5/2))) e^{-1/4} L_1^{1/2}(1/2), angular 1/sqrt(4pi)
    expect = (math.sqrt(1.0 / (math.sqrt(2.0) * math.gamma(2.5)))
              * math.exp(-0.25) * (1.5 - 0.5) / math.sqrt(4.0 * math.pi))
    assert abs(eval_phi((1, 0, 0), [1.0, 0.0, 0.0]) - expect) < 1e-15


def test_eval_phi_polar_axis_convention():
    # l=1, m=0 mode is proportional to v_1 (first axis is polar)
    v = np.array([0.7, 0.0, 0.0])
    a = eval_phi((0, 1, 0), v)
    b = eval_phi((0, 1, 0), -v)
    assert a.real > 0.0 and abs(a + b) < 1e-15
    assert abs(eval_phi((0, 1, 0), [0.0, 0.7, 0.0])) < 1e-15
    # the azimuth runs from the second axis (phi = 0) towards the third, and
    # no Condon-Shortley factor: phi_{0,1,1} is real positive at phi = 0
    east = eval_phi((0, 1, 1), [0.0, 0.7, 0.0])
    assert east.real > 0.0 and east.imag == 0.0
    assert abs(eval_phi((0, 1, 1), [0.0, 0.0, 0.7]) - 1j * east) < 1e-15
    assert abs(eval_phi((0, 1, 1), [0.0, 0.0, -2.0]) / eval_phi((0, 1, 1), [0.0, 2.0, 0.0])
               + 1j) < 1e-14


def test_fourier_trivials():
    assert abs(fourier_sqrtmu_phi((0, 0, 0), [0.0, 0.0, 0.0]) - 1.0) < 1e-12
    for xi in ([1.0, 0.0, 0.0], [0.0, 0.6, -0.8]):
        got = fourier_sqrtmu_phi((0, 0, 0), xi)
        assert abs(got - math.exp(-0.5)) < 1e-12
    assert fourier_sqrtmu_phi((0, 1, 0), [0.0, 0.0, 0.0]) == 0.0


def test_fourier_mode_010_along_polar_axis():
    t = 1.0
    got = fourier_sqrtmu_phi((0, 1, 0), [t, 0.0, 0.0])
    y = math.sqrt(3.0 / (4.0 * math.pi))  # Y_1^0 on the polar (first) axis
    expect = (-1j * (2 * math.pi) ** 0.75
              / math.sqrt(math.sqrt(2.0) * math.gamma(2.5))
              * (t / math.sqrt(2.0)) * math.exp(-0.5 * t * t) * y)
    assert abs(got - expect) < 1e-14


def test_fourier_closed_form_vs_quadrature(rng):
    # the verify check's Gauss-Hermite quadrature of the defining integral,
    # held far below the check's own 1e-6 gate
    from dyboltz import verify
    res = verify.check_fourier_vs_quadrature(
        rng, modes=[(1, 0, 0), (0, 2, 1), (2, 1, -1), (1, 3, 2), (0, 1, 0)])
    assert res.measured < 1e-10


def test_project_null_examples():
    f = SpectralField({(0, 0, 0): 1.0, (2, 0, 0): 1.0})
    kept = project_null(f, "null")
    assert kept.coeffs == {ModeIndex(0, 0, 0): 1.0 + 0j}
    assert project_null(SpectralField({(2, 0, 0): 1.0}), "null").coeffs == {}
    with pytest.raises(ValueError):
        project_null(f, "both")


@settings(max_examples=30, deadline=None)
@given(f=FIELDS, g=FIELDS)
def test_project_null_partition_and_idempotence(f, g):
    p = project_null(f, "null")
    q = project_null(f, "orthogonal")
    assert set(p.coeffs) | set(q.coeffs) == set(f.coeffs)
    assert not set(p.coeffs) & set(q.coeffs)
    assert set(p.coeffs) <= NULL_SPACE_MODES
    assert set(f.coeffs) & NULL_SPACE_MODES <= set(p.coeffs)
    assert project_null(p, "null").coeffs == p.coeffs
    assert project_null(q, "orthogonal").coeffs == q.coeffs
    # Pythagoras in the orthonormal basis
    norm2 = f.l2_norm() ** 2
    assert abs(p.l2_norm() ** 2 + q.l2_norm() ** 2 - norm2) <= 1e-12 * norm2
    # self-adjointness of the coefficient projector
    assert (abs(project_null(f, "null").inner(g) - f.inner(project_null(g, "null")))
            <= 1e-12 * f.l2_norm() * g.l2_norm())


def _conjugate_symmetric(field):
    """The real-field condition of the basis module: c_{n,l,-m} = conj(c_{n,l,m})."""
    return all(field.amplitude((m.n, m.l, -m.m)) == a.conjugate() for m, a in field.coeffs.items())


def test_real_field_predicate_matches_pointwise_synthesis(rng):
    coeffs = {}
    for n, l in [(0, 1), (1, 2), (2, 0)]:
        for m in range(0, l + 1):
            c = complex(rng.normal(), rng.normal() if m else 0.0)
            coeffs[(n, l, m)] = c
            if m:
                coeffs[(n, l, -m)] = c.conjugate()
    f = SpectralField(coeffs)
    assert _conjugate_symmetric(f)
    pts = rng.normal(size=(10, 3))
    synth = sum(a * eval_phi(m, pts) for m, a in f.coeffs.items())
    assert np.max(np.abs(synth.imag)) < 1e-14

    broken = dict(coeffs)
    broken[(1, 2, -1)] = broken[(1, 2, -1)] + 0.3j
    g = SpectralField(broken)
    assert not _conjugate_symmetric(g)
    synth = sum(a * eval_phi(m, pts) for m, a in g.coeffs.items())
    assert np.max(np.abs(synth.imag)) > 1e-3


def test_inner_product_examples():
    assert abs(inner_product_numeric((0, 0, 0), (0, 0, 0)) - 1.0) < 1e-10
    assert abs(inner_product_numeric((0, 1, 0), (0, 1, 1))) < 1e-10
    assert abs(inner_product_numeric((3, 2, 1), (1, 2, 1))) < 1e-8
    assert abs(inner_product_numeric((4, 3, -2), (4, 3, -2)) - 1.0) < 1e-10


def test_inner_product_resolution_certification():
    # exact rules need 65 azimuthal nodes for m = +-32, 65 radial for n = 64
    # and 81 azimuthal for m - m' = 80: more than the floor of 64
    assert orthonormality_max_deviation(0, 32) <= 1e-12
    assert orthonormality_max_deviation(64, 0) <= 1e-12
    assert abs(inner_product_numeric((0, 40, 40), (0, 40, -40))) <= 1e-12
    with pytest.raises(TypeError):
        inner_product_numeric((0, 0, 0), (0, 0, 0), n_radial=64)
    with pytest.raises(TypeError):
        orthonormality_max_deviation(2, 2, n_phi=64)


def test_orthonormality_matrix_small():
    assert orthonormality_max_deviation(6, 6) < 1e-8


def test_orthonormality_deviation_at_roundoff():
    # the 1e-8 gates stay; this records the numpy rule's accuracy
    assert orthonormality_max_deviation(6, 6) <= 1e-13
    assert orthonormality_max_deviation(10, 10) <= 1e-13


def test_orthonormality_scan_evaluates_each_laguerre_factor_once(monkeypatch):
    from dyboltz import basis
    calls = []
    source = basis.laguerre
    monkeypatch.setattr(basis, "laguerre",
                        lambda n, alpha, x: calls.append((n, alpha, id(x))) or source(n, alpha, x))
    assert orthonormality_max_deviation(4, 4) <= 1e-13
    # one call per (n, l, rule): 5 n values, and for each l the 5 rules of l + lb
    assert len(calls) == len(set(calls)) == 5 * 5 * 5


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
def test_laguerre_rule_matches_scipy(n):
    from scipy.special import roots_genlaguerre

    from dyboltz import basis
    for alpha in np.arange(0.5, 13.0, 0.5):
        u, w = basis._laguerre_rule(n, float(alpha))
        u_ref, w_ref = roots_genlaguerre(n, alpha)
        assert np.max(np.abs(u / u_ref - 1.0)) <= 1e-12
        assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-10
        if n == 64:  # exact for x^j, j <= 2n - 1
            moments = [np.sum(w * u ** j) for j in range(2 * n)]
            exact = [math.gamma(alpha + j + 1) for j in range(2 * n)]
            assert np.max(np.abs(np.array(moments) / exact - 1.0)) <= 1e-13


def test_laguerre_rule_matches_mpmath():
    # against Newton's method at 40 digits; the weights below 1e-250 are those
    # of the far tail, which round toward 0 in doubles
    from dyboltz import basis
    nodes, weights = gauss_laguerre_mp(200, 0.5)
    u, w = basis._laguerre_rule(200, 0.5)
    want = np.array(weights, dtype=float)
    keep = want > 1e-250
    assert np.max(np.abs(u / np.array(nodes, dtype=float) - 1.0)) <= 1e-12
    assert np.max(np.abs(w[keep] / want[keep] - 1.0)) <= 1e-11


def test_large_laguerre_rules_raise_instead_of_nan():
    from dyboltz import basis
    with pytest.raises(ValueError, match="n_radial must be positive, got 0"):
        basis._laguerre_rule(0, 0.5)
    # the error alone reports a value out of range: no RuntimeWarning comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(basis._radial_pair_integral(0, 0, 0, 0, 300) - 1.0) <= 1e-12
        with pytest.raises(ResolutionError, match="n_radial=400, alpha=0.5"):
            inner_product_numeric((399, 0, 0), (399, 0, 0))
        with pytest.raises(ResolutionError, match="alpha=200.5"):
            inner_product_numeric((0, 200, 0), (0, 200, 0))
        # the 201-node rule is finite, but the L_200 products overflow
        with pytest.raises(ResolutionError,
                           match=r"\(200, 0\) and \(200, 0\) on n_radial=201"):
            inner_product_numeric((200, 0, 0), (200, 0, 0))


@pytest.mark.parametrize("name", ["check_sphere_orthonormality", "check_orthonormality",
                                  "check_fourier_vs_quadrature"])
def test_basis_checks_working_set_is_bounded(name):
    # numpy reports its buffers to tracemalloc.  The sphere Gram is a product
    # of a theta and a phi Gram, the orthonormality scan reduces one row at
    # a time and the Fourier quadrature sums one slab at a time; each peaked
    # at 12 to 22 blocks of _BLOCK_DOUBLES doubles when it built its grid whole
    from dyboltz import kernel, verify
    check = getattr(verify, name)
    check(np.random.default_rng(0))  # the cached rules are not the check's
    tracemalloc.start()
    try:
        res = check(np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed
    assert peak < 3 * 8 * kernel._BLOCK_DOUBLES


def test_laguerre_rule_built_once_per_alpha(monkeypatch):
    from dyboltz import basis
    calls = []
    source = basis._jacobi_nodes  # the rule's diagonal starts at alpha + 1
    monkeypatch.setattr(basis, "_jacobi_nodes",
                        lambda b, a: calls.append((len(b), a[0] - 1.0)) or source(b, a))
    basis._laguerre_rule.cache_clear()
    try:
        assert orthonormality_max_deviation(3, 3) < 1e-8
        assert abs(inner_product_numeric((2, 3, 1), (2, 3, 1)) - 1.0) < 1e-8
        u, w = basis._laguerre_rule(64, 0.5)
        assert not (u.flags.writeable or w.flags.writeable)
    finally:
        basis._laguerre_rule.cache_clear()  # drop the rules built through the spy
    # l, l' <= 3 give alpha = (l + l' + 1) / 2 in 0.5..3.5, each built once
    assert calls == [(64, 0.5 * (k + 1)) for k in range(7)]


def test_oscillator_residual_examples(rng):
    pts = rng.uniform(-2.5, 2.5, size=(120, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.5][:100]
    assert oscillator_residual((0, 0, 0), pts) < 1e-6
    assert oscillator_residual((1, 0, 0), pts) < 1e-6
    assert oscillator_residual((2, 3, 1), pts) < 1e-6


def test_oscillator_residual_guards_origin():
    with pytest.raises(ValueError):
        oscillator_residual((0, 2, 0), np.array([[0.01, 0.0, 0.0]]))


def test_spectral_field_json_roundtrip(rng):
    f = _random_field(rng, 12)
    g = SpectralField.from_json(f.to_json())
    assert g.coeffs == f.coeffs and g.label == f.label


def test_spectral_field_arithmetic(rng):
    f = _random_field(rng, 8)
    assert abs(f.inner(f) - f.l2_norm() ** 2) < 1e-12


def _random_field(rng, count):
    coeffs = {}
    while len(coeffs) < count:
        n = int(rng.integers(0, 8))
        l = int(rng.integers(0, 8))
        m = int(rng.integers(-l, l + 1))
        coeffs[(n, l, m)] = complex(rng.normal(), rng.normal())
    return SpectralField(coeffs, label="random")
