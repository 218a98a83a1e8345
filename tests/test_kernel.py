import csv
import json
import math
import pathlib
import tracemalloc
import warnings
import zlib
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dyboltz import kernel, specfun
from dyboltz.errors import (CacheError, EigenvalueLookupError,
                            QuadratureConvergenceError)
from dyboltz.kernel import (NULL_MODES, EigenvalueEntry, EigenvalueTable,
                            KernelParams, QuadratureSpec, asymptotic_leading,
                            beta, eigenvalue,
                            eigenvalue_table, load_table,
                            radial_eigenvalues, ratio_bounds, save_table,
                            table_version)

GAP_S2 = (2.0 / 3.0) * (1.0 - 2.0 ** -1.5)  # 0.43096440627115085
P2 = KernelParams(s=2.0)
P1 = KernelParams(s=1.0)
QUAD = QuadratureSpec()


def golden_rows():
    path = resources.files("dyboltz.data").joinpath("golden_eigenvalues.csv")
    with path.open() as fh:
        yield from csv.DictReader(fh)


def test_kernel_params_validation():
    for s in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            KernelParams(s=s)
    with pytest.raises(TypeError):  # the cutoff is the constant THETA_MAX, not a field
        KernelParams(s=2.0, theta_max=1.0)
    with pytest.raises(TypeError):  # the panel rule G16 in K33 is a constant too
        QuadratureSpec(nodes_per_panel=16)
    assert QuadratureSpec.nodes_per_panel == QUAD.nodes_per_panel == 16
    # so is the accuracy contract: 1e-10 relative, 1e-13 absolute
    for tol in ({"rel_tol": 1e-9}, {"abs_tol": 1e-9}):
        with pytest.raises(TypeError):
            QuadratureSpec(**tol)
    assert QuadratureSpec.rel_tol == QUAD.rel_tol == QuadratureSpec(max_panels=3).rel_tol == 1e-10
    assert QuadratureSpec.abs_tol == QUAD.abs_tol == QuadratureSpec(max_panels=3).abs_tol == 1e-13
    for bad in ({"max_panels": 0}, {"max_panels": 1022}, {"max_panels": 2.5}):
        with pytest.raises(ValueError):
            QuadratureSpec(**bad)
    assert QuadratureSpec(max_panels=1021).max_panels == 1021


def test_beta_values():
    assert abs(beta(math.pi / 4, P2) - math.sqrt(2.0)) < 1e-12
    assert abs(beta(math.pi / 6, P1) - 2.0 * math.log(2.0)) < 1e-12
    assert abs(beta(math.pi / 4, P1) - math.sqrt(2.0) * math.log(math.sqrt(2.0))) < 1e-6
    with pytest.raises(ValueError):
        beta(0.0, P2)
    with pytest.raises(ValueError):
        beta(1.0, P2)
    with pytest.raises(ValueError, match=r"\(0, pi/4\]"):  # NaN fails the domain check too
        beta(math.nan, P2)


def test_beta_raises_where_it_overflows():
    # at s = 0.01 beta passes the largest double below theta = 6.3e-14, which the
    # innermost of the default 72 panels reach; 30 panels stop above it
    small = KernelParams(s=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(beta(1e-13, small))
        for theta in (6e-14, np.array([1e-3, 1e-22])):
            with pytest.raises(ValueError, match=r"overflows a double at theta = (6e-14|1e-22) "):
                beta(theta, small)
        with pytest.raises(ValueError, match="overflows"):
            kernel._panel_rules(small, QuadratureSpec())
        assert np.all(np.isfinite(kernel._panel_rules(small, QuadratureSpec(max_panels=30))
                                  .wvalue))


def test_panel_rule_log_cos_is_accurate():
    # the bracket rows read log cos theta = log1p(-2 sin^2(theta/2)), within
    # a few ulp on every panel; log(cos theta) is 0 from panel 26 on
    import mpmath as mp

    rule = kernel._panel_rules(P2, QUAD)
    x = kernel._gauss_kronrod(QUAD.nodes_per_panel)[0]
    for j in (0, 10, 26, 40, 71):
        hi = math.ldexp(math.pi / 4, -j)
        theta = 0.5 * (hi - 0.5 * hi) * x + 0.5 * (hi + 0.5 * hi)
        with mp.workdps(120):  # cos theta - 1 is about -1e-44 at panel 71
            want = np.array([float(mp.log(mp.cos(mp.mpf(t)))) for t in theta])
        assert np.abs(rule.logcos[j] / want - 1.0).max() < 2e-15, j


@pytest.mark.parametrize("K,l", [(3, 1), (7, 5), (19, 19), (600, 200), (20000, 0)])
def test_series_coefficients_match_oracle(K, l):
    # each term a_k x^k of the series, at the largest x = sin^2 theta that a
    # series panel sees, is within 1e-18 of a_1 x, far below an ulp of the
    # bracket; (7, 5) and (19, 19) have sin^K P_l(sin theta) terms in range
    import sympy as sp

    want = oracles.bracket_series(K, l, kernel._SERIES_ORDER)
    got = kernel._series_coefficients([l], [(K - l) // 2])[0, 0]
    a1 = K / 2 + l * (l + 1) / 4
    x = kernel._SERIES_SWITCH / a1
    for k, (g, w) in enumerate(zip(got.tolist(), want), start=1):
        assert float(abs(sp.Rational(g) - w)) * x ** k <= 1e-18 * a1 * x, (k, g, w)
    if K < 10:  # the oracle is the Taylor series
        y = sp.Symbol("x")
        bracket = 1 - (1 - y) ** sp.Rational(K, 2) * sp.legendre(l, sp.sqrt(1 - y)) \
            - y ** sp.Rational(K, 2) * sp.legendre(l, sp.sqrt(y))
        series = sp.expand(sp.series(bracket, y, 0, kernel._SERIES_ORDER + 1).removeO())
        assert [series.coeff(y, k) for k in range(1, kernel._SERIES_ORDER + 1)] == want


def test_gap_closed_form_s2():
    e = eigenvalue(2, 0, P2, QUAD)  # the spectral gap lambda_{2,0}
    assert abs(e.lam - GAP_S2) < 1e-10
    assert e.err < 1e-10
    assert abs(e.lam - GAP_S2) <= max(e.err, 1e-12)


def test_eigenvalues_match_golden_oracle():
    for row in golden_rows():
        p = KernelParams(s=float(row["s"]))
        gold = float(row["lambda"])
        e = eigenvalue(int(row["n"]), int(row["l"]), p, QUAD)
        assert abs(e.lam - gold) / gold < 1e-7, row
        assert abs(e.lam - gold) <= max(e.err, 1e-11 * gold), row


def test_s05_edge_eigenvalues_match_oracle():
    # (100, 0) and (200, 0) at s = 0.5 set c_min of the 100x100 and 200x200
    # tables in acceptance criterion C04.  The oracle's own ratios move by
    # more than C04's 5% gate, so that criterion is red because of the kernel.
    # (10^6, 0) at s = 0.5 and the rows at s = 0.2 and 0.1, below the
    # documented range, sum panels where cos theta rounds to 1 or nearly so
    path = pathlib.Path(__file__).parent / "golden" / "edge_eigenvalues.csv"
    ratio = {}
    with open(path) as fh:
        for row in csv.DictReader(fh):
            n, l = int(row["n"]), int(row["l"])
            p = KernelParams(s=float(row["s"]))
            gold = float(row["lambda"])
            e = eigenvalue(n, l, p, QUAD)
            assert abs(e.lam - gold) < QUAD.rel_tol * gold, row
            assert abs(e.lam - gold) <= max(e.err, 1e-11 * gold), row
            if p.s == 0.5:
                ratio[n] = gold / math.log(2 * n + l + math.e) ** (2.0 / p.s)
    assert (ratio[100] - ratio[200]) / ratio[100] > 0.05


def test_s2_l0_column_matches_exact_values(table_factory):
    # at s = 2 the l = 0 column has a closed form (tests/oracles.py); every
    # entry of a table column, of a radial row and (10^6, 0) meets rel_tol
    exact = oracles.lambda_s2_l0(10_000)
    assert abs(oracles.lambda_s2_l0_digamma(200) - exact[200]) < 1e-35
    want = np.array(exact, dtype=float)
    for got in (table_factory(2.0, 200, 200).lams[:, 0], radial_eigenvalues(10_000, P2, QUAD)):
        assert got[0] == got[1] == 0.0
        rel = np.abs(got[2:] - want[2:len(got)]) / want[2:len(got)]
        assert rel.max() < QUAD.rel_tol, (int(np.argmax(rel)) + 2, rel.max())
    big = float(oracles.lambda_s2_l0_digamma(10**6))
    assert abs(eigenvalue(10**6, 0, P2, QUAD).lam - big) < QUAD.rel_tol * big


@pytest.mark.parametrize("row", list(csv.DictReader(open(
    pathlib.Path(__file__).parent / "golden" / "high_l_eigenvalues.csv"))),
    ids=lambda r: f"({r['n']},{r['l']})@s={r['s']}")
def test_high_l_eigenvalues_match_oracle(row):
    # l = 200 and 400, where P_l(cos theta) oscillates over the outer panels
    # and the entries hardly depend on n; offline mpmath values at 50 digits
    n, l, gold = int(row["n"]), int(row["l"]), float(row["lambda"])
    e = eigenvalue(n, l, KernelParams(s=float(row["s"])), QUAD)
    assert abs(e.lam - gold) < QUAD.rel_tol * gold, (e.lam, gold)


def test_null_modes_exact_zero():
    for s in (0.5, 1.0, 2.0, 4.0):
        p = KernelParams(s=s)
        for n, l in NULL_MODES:
            e = eigenvalue(n, l, p, QUAD)
            assert e.lam == 0.0 and e.err == 0.0


def test_bracket_identity_11_equals_20():
    # modes (1,1) and (2,0) share the bracket 2 sin^2 cos^2 for every kernel
    # (evaluated through different P_l paths, so equality is to roundoff)
    for s in (0.5, 1.0, 2.0, 4.0):
        p = KernelParams(s=s)
        a = eigenvalue(1, 1, p, QUAD).lam
        b = eigenvalue(2, 0, p, QUAD).lam
        assert abs(a - b) < 1e-13 * b


def test_mode_indices_must_be_integers():
    # a non-integer index names no mode, so there is no eigenvalue for it
    for n, l in [(2.5, 0), (2.0, 0), (2, 0.5), (np.float64(3.0), 1), ("2", 0)]:
        with pytest.raises(ValueError, match="must be integers"):
            eigenvalue(n, l, P2, QUAD)
    for n, l in [(-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match="must be nonnegative"):
            eigenvalue(n, l, P2, QUAD)
    e = eigenvalue(np.int64(2), np.int32(0), P2, QUAD)
    assert e.lam == eigenvalue(2, 0, P2, QUAD).lam


def test_entry_invariants_enforced():
    with pytest.raises(ValueError):
        EigenvalueEntry(n=1, l=0, lam=0.1, err=0.0)
    with pytest.raises(ValueError):
        EigenvalueEntry(n=2, l=0, lam=0.0, err=0.0)
    with pytest.raises(ValueError):
        EigenvalueEntry(n=2, l=0, lam=0.5, err=-1.0)


def test_table_invariants_enforced():
    lams = np.full((3, 3), 0.5)
    lams[0, 0] = lams[1, 0] = lams[0, 1] = 0.0
    errs = np.zeros((3, 3))
    EigenvalueTable(P2, QUAD, lams, errs)
    for (n, l), value, arr, what in [((1, 0), 0.1, "lams", "null mode"),
                                     ((2, 1), 0.0, "lams", "positive"),
                                     ((1, 2), -1.0, "errs", "nonnegative"),
                                     ((2, 2), math.inf, "lams", "finite"),
                                     ((2, 0), math.nan, "errs", "finite")]:
        bad = {"lams": lams.copy(), "errs": errs.copy()}
        bad[arr][n, l] = value
        with pytest.raises(ValueError, match=rf"{what}.*\({n},{l}\)"):
            EigenvalueTable(P2, QUAD, bad["lams"], bad["errs"])
    with pytest.raises(ValueError, match=r"equal-shape .* got \(2, 2\) and \(2, 3\)"):
        EigenvalueTable(P2, QUAD, np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="nmax and lmax must be nonnegative"):
        eigenvalue_table(-1, 0, P2, QUAD)
    with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
        eigenvalue_table(2, 2, P2, QUAD, workers=0)


def test_table_coverage_and_lookup(table_factory):
    tab = table_factory(2.0, 8, 8)
    assert tab.lams.shape == tab.errs.shape == (9, 9)
    assert (tab.nmax, tab.lmax) == (8, 8)
    assert tab.lam(2, 0) == eigenvalue(2, 0, P2, QUAD).lam
    for n, l in ((9, 0), (0, 9), (-1, 0)):
        with pytest.raises(EigenvalueLookupError):
            tab.lam(n, l)
    # KeyError would quote the message; this error does not
    assert str(EigenvalueLookupError(3, 4)) == "eigenvalue for (n=3, l=4) not in table"


def test_table_positivity_and_gap(table_factory):
    tab = table_factory(2.0, 30, 30)
    gap = tab.lam(2, 0)
    n, l = np.indices(tab.lams.shape)
    null = n + l <= 1
    assert np.all(tab.lams[null] == 0.0)
    assert np.all(tab.lams[~null] > 0.0)
    assert np.all(tab.lams[~null] >= gap - tab.errs[~null])


def test_tables_keep_their_bits(table_factory, running_with):
    # the four 201x201 tables the acceptance tests build, and the single-entry
    # and max_panels cases of scripts/table_digest.py, hashed as it hashes,
    # against the digests recorded with the versions the golden names; a
    # change that moves a bit on purpose bumps CODE_VERSION, records the
    # golden again and says why
    import importlib.util

    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("table_digest",
                                                  root / "scripts" / "table_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    golden = json.loads((root / "tests" / "golden" / "table_sha256.json").read_text())
    got = {name: thunk() for name, thunk in digest.cases()
           if name.startswith(("entry ", "error "))}
    for s in (0.5, 1.0, 2.0, 4.0):
        tab = table_factory(s, 200, 200)
        got[f"table 201x201 s={s}"] = digest._sha(tab.lams, tab.errs)
    assert len(got) == 32
    for name, sha in got.items():
        assert sha == golden["cases"][name], (f"{name} differs from its golden, recorded "
                                              f"with {golden['recorded_with']}; this run "
                                              f"has {running_with}")


def test_digest_goldens_name_what_a_run_names(running_with):
    # each digest golden records the versions and numpy SIMD targets a run
    # prints, so a red golden says which of them differ
    root = pathlib.Path(__file__).resolve().parents[1]
    for name in ("table_sha256.json", "cli_output_sha256.json"):
        recorded = json.loads((root / "tests" / "golden" / name).read_text())["recorded_with"]
        assert list(recorded) == list(running_with), name
        assert all(isinstance(t, str) for t in recorded["cpu_dispatch"]), name


def test_parallel_and_serial_builds_bitwise_equal(monkeypatch):
    # workers=2 and 3 split l = 0..14 into blocks of 2 and a last block of 1,
    # and l = 0..200 into blocks of 26; the rows of the 21x201 tables switch
    # to their series from panel 4 (l = 0, 1) to panel 10 (l = 200), and
    # single entries at l = 0, 1, 57 and 200 on both sides of that switch
    # equal the table entries; tables this small start a pool only here
    monkeypatch.setattr(kernel, "_POOL_ENTRIES", 0)
    for nmax, lmax, workers in ((14, 14, 3), (20, 200, 2), (14, 0, 2)):
        a = eigenvalue_table(nmax, lmax, P1, QUAD, workers=1)
        b = eigenvalue_table(nmax, lmax, P1, QUAD, workers=workers)
        assert (a.params, a.quad) == (b.params, b.quad)
        assert np.array_equal(a.lams, b.lams)
        assert np.array_equal(a.errs, b.errs)
        if lmax == 200:
            for l in (0, 1, 57, 200):
                for n in (0, 2, 20):
                    e = eigenvalue(n, l, P1, QUAD)
                    assert (e.lam, e.err) == (a.lams[n, l], a.errs[n, l])


def test_pool_takes_at_most_the_cpu_count(monkeypatch):
    # a process pool forks all its workers at its first task, so workers=10**6
    # asks for os.cpu_count() processes and no more (1 where it is unknown);
    # a serial stand-in records the count and starts no process, and the
    # blocks sized from the capped count leave every bit as a serial build
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    serial = eigenvalue_table(14, 14, P1, QUAD)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(kernel, "_POOL_ENTRIES", 0)
    for cpus, want in ((3, 3), (None, 1)):
        monkeypatch.setattr(kernel.os, "cpu_count", lambda: cpus)
        tab = eigenvalue_table(14, 14, P1, QUAD, workers=10**6)
        assert asked.pop() == want and not asked
        assert np.array_equal(tab.lams, serial.lams) and np.array_equal(tab.errs, serial.errs)


def test_builds_take_one_transcendental_per_factor(monkeypatch):
    # E_n, C_n, F_l, S_n and T_l each take one expm1 or exp per n or l and
    # node of a panel, not one per (n, l, node), which took 16.8M at 201x201:
    # a 201x201 build counts 499,884 expm1 and 18,744 exp elements, a radial
    # N = 10^4 build 3,171,234 expm1 (a direct panel spans the whole block)
    counts = {"expm1": 0, "exp": 0}

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def expm1(self, x, *args, **kwargs):
            counts["expm1"] += np.size(x)
            return np.expm1(x, *args, **kwargs)

        def exp(self, x, *args, **kwargs):
            counts["exp"] += np.size(x)
            return np.exp(x, *args, **kwargs)

    monkeypatch.setattr(kernel, "np", CountingNumpy())
    eigenvalue_table(200, 200, P2, QUAD)
    assert counts["expm1"] <= 500_000 and counts["exp"] <= 19_000, counts
    counts.update(expm1=0, exp=0)
    eigenvalue_table(10**4, 0, P2, QUAD)
    assert counts["expm1"] <= 3_180_000, counts


def _panel_nodes(j):
    """Panel j's nodes theta, computed as ``kernel._panel_rules`` computes them."""
    hi = math.ldexp(math.pi / 4, -j)
    x = kernel._gauss_kronrod(QUAD.nodes_per_panel)[0]
    return 0.5 * (hi - 0.5 * hi) * x + 0.5 * (hi + 0.5 * hi)


def _bracket_bound(n, l, theta, cos, sin):
    """mpmath brackets at each node and n, and the rounding bound on the factored form.

    The bound is 16 ulp of the cos part 1 - cos^K P_l(cos theta) plus
    |sin^K P_l(sin theta)| (the sizes E_n + C_n F_l and S_n T_l, K = 2n + l),
    plus the error of P_l the kernel docstring states: the move of P_l by the
    rounding of its argument, at most l(l+1)/2 times it, and 10 l eps from the
    recurrence.  Returns two lists over nodes of per-n lists.
    """
    import mpmath as mp

    eps = 2.0 ** -52
    want, bound = [], []
    with mp.workdps(80):
        for t, c, s in zip(theta, cos, sin):
            t = mp.mpf(t)
            # the move of P_l at cos theta and at sin theta, rounded argument and recurrence
            pc = l * (l + 1) / 2 * abs(mp.cos(t) - mp.mpf(c)) + 10 * l * eps
            ps = l * (l + 1) / 2 * abs(mp.sin(t) - mp.mpf(s)) + 10 * l * eps
            rows = oracles.bracket_mp(n, l, t)
            want.append([r[0] for r in rows])
            bound.append([16 * eps * (r[1] + r[2]) + mp.cos(t) ** (2 * k + l) * pc
                          + mp.sin(t) ** (2 * k + l) * ps for r, k in zip(rows, n)])
    return want, bound


@settings(max_examples=40, deadline=None)
# panel 0 at l = 7 holds columns where P_l(cos theta) changes sign; at
# panel 20, sin^2n of n = 23..25 lies in the band where exp underflows, far
# below its cut; at panel 27 cos theta rounds to 1, so P_l(cos theta) is 1
@example(n=[0, 1, 2, 60, 100, 2000], l=7, j=0, s=2.0)
@example(n=[0, 1, 2, 23, 24, 25, 3000], l=0, j=20, s=0.5)
@example(n=list(range(30)), l=2, j=27, s=1.0)
@given(n=st.lists(st.integers(0, 5000), min_size=1, max_size=6, unique=True),
       l=st.integers(0, 300), j=st.integers(0, 71), s=st.floats(0.5, 4.0))
def test_panel_bracket_matches_mpmath(n, l, j, s):
    # the factored bracket E_n + C_n F_l - S_n T_l, summed by the panel's
    # Kronrod and Gauss weights as the quadrature sums it, with its cuts,
    # against the bracket in mpmath at the same double nodes
    import mpmath as mp

    n = sorted(n)
    params = KernelParams(s=s)
    rule = kernel._panel_rules(params, QUAD)
    psin, pcos = kernel._legendre_sweep(l, math.inf, params, QUAD)[l].reshape(2, *rule.sin.shape)
    ls = np.array([float(l)])
    fw = [x[j] for x in kernel._f_weights(ls, pcos[:, None], rule)]
    with np.errstate(under="ignore"):
        got = kernel._direct_sums(j, ls, np.array(n, dtype=float), psin[j, None], fw, rule)[:, 0]
    want, bound = _bracket_bound(n, l, _panel_nodes(j), rule.cos[j], rule.sin[j])
    with mp.workdps(80):
        for sums, weights in zip(got, (rule.wvalue[j], rule.wcheck[j])):
            for i in range(len(n)):
                exact = mp.fsum(mp.mpf(w) * node[i] for w, node in zip(weights, want))
                tol = mp.fsum(mp.mpf(w) * node[i] for w, node in zip(weights, bound))
                assert abs(sums[i] - exact) <= tol, (n[i], float(exact), sums[i], float(tol))


def test_gauss_legendre_solved_once_per_order(monkeypatch):
    # the Gauss rule (one eigvalsh of the m x m Jacobi matrix) and the
    # Kronrod extension (one of the 2m + 1 Jacobi-Kronrod matrix) are each
    # solved once per order m: m = 16 for the panel rules of every kernel,
    # m = 12 called directly
    sizes, eig = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or eig(a))
    for cached in (specfun._gauss_rule, kernel._gauss_kronrod, kernel._panel_rules):
        cached.cache_clear()
    for s in (0.7, 1.3, 2.9):
        kernel._panel_rules(KernelParams(s=s), QUAD)
        kernel._gauss_kronrod(12)
    assert sorted(sizes) == [12, 16, 2 * 12 + 1, 2 * 16 + 1]
    for a in (*specfun._gauss_rule(12), *kernel._gauss_kronrod(12)):
        assert not a.flags.writeable


@pytest.mark.parametrize("m", [8, 12, 16, 64, 256])
def test_gauss_kronrod_rule(m):
    x, wk, wg = kernel._gauss_kronrod(m)
    assert x.shape == wk.shape == (2 * m + 1,) and wg.shape == (m,)
    gx, gw = specfun._gauss_rule(m)
    assert np.array_equal(x[:m], gx) and np.array_equal(wg, gw)
    assert np.all(np.diff(x[m:]) > 0.0) and np.all(np.abs(x) < 1.0)
    # Kronrod and Gauss nodes interlace, and every weight is positive
    both = np.sort(x)
    assert np.array_equal(both[1::2], gx) and np.all(wk > 0.0)
    # K_2m+1 integrates P_0..P_3m+1 exactly: the moments are 2, 0, 0, ...
    # (eigenvector weights, symmetrized, reach 1.2e-15 to 1.7e-15 here)
    moments = np.polynomial.legendre.legvander(x, 3 * m + 1).T @ wk
    assert abs(moments[0] - 2.0) < 1e-15 and np.abs(moments[1:]).max() < 1e-15


def test_gauss_kronrod_matches_mpmath_reference():
    nodes, weights = oracles.gauss_kronrod_mp(16)
    x, wk, _ = kernel._gauss_kronrod(16)
    order = np.argsort(x)
    assert np.abs(x[order] - np.array(nodes, dtype=float)).max() <= 1.2e-16
    assert np.abs(wk[order] / np.array(weights, dtype=float) - 1.0).max() < 2e-14


def test_group_size_leaves_every_bit(monkeypatch):
    # one panel per group, the panel-by-panel loop, gives the same bytes as
    # the default groups, on both sides of each row's switch to its series:
    # tables (the shape sets the group), radial rows, l = 0, 1, 57 and 200
    # with n <= 80, and failures at max_panels
    def builds():
        yield eigenvalue_table(30, 30, KernelParams(s=0.5), QUAD)
        yield eigenvalue_table(60, 12, P2, QUAD)
        yield radial_eigenvalues(3000, P1, QUAD)
        yield eigenvalue(120, 41, P2, QUAD)
        # l-rows whose groups hold series rows beside bracket rows; one
        # coefficient pass for the four rows
        for lam_err in kernel._block_task(((0, 1, 57, 200), np.arange(81), KernelParams(s=0.5),
                                           QUAD))[1]:
            yield np.concatenate(lam_err)
        with pytest.raises(QuadratureConvergenceError) as exc:
            eigenvalue_table(4, 1, P1, QuadratureSpec(max_panels=3))
        yield exc.value.partial

    def digest(results):
        out = []
        for r in results:
            if isinstance(r, EigenvalueTable):
                r = (r.lams, r.errs)
            elif isinstance(r, EigenvalueEntry):
                r = ([r.lam], [r.err])
            elif isinstance(r, dict):
                r = (list(r), list(r.values()))
            else:
                r = (r,)
            out.append(b"".join(np.asarray(a, dtype=float).tobytes() for a in r))
        return out

    default = digest(builds())
    monkeypatch.setattr(kernel, "_BLOCK_DOUBLES", 1)
    assert digest(builds()) == default


def test_spans_leave_every_bit(monkeypatch):
    # the radial N = 10^4 row runs in six spans of at most _SPAN_ROWS = 1985
    # rows; one span of all its rows and single entries at the span edges
    # give the same bytes
    assert kernel._SPAN_ROWS < 10_001
    split = eigenvalue_table(10_000, 0, P1, QUAD)
    for n in (1984, 1985, 1986, 3970, 10_000):
        entry = eigenvalue(n, 0, P1, QUAD)
        assert (entry.lam, entry.err) == (split.lams[n, 0], split.errs[n, 0])
    monkeypatch.setattr(kernel, "_SPAN_ROWS", 10_001)
    whole = eigenvalue_table(10_000, 0, P1, QUAD)
    assert split.lams.tobytes() == whole.lams.tobytes()
    assert split.errs.tobytes() == whole.errs.tobytes()


def test_convergence_error_across_spans_names_every_failing_row(monkeypatch):
    # spans of two rows: (0, 0) and (1, 0) converge in the first span, the
    # others fail in later ones, and the error still names each failing row
    # of the first failing l with its partial sum, as the unsplit build does
    tight = QuadratureSpec(max_panels=3)

    def failures():
        for build in (lambda: eigenvalue_table(4, 1, P1, tight),
                      lambda: radial_eigenvalues(40, P1, tight)):
            with pytest.raises(QuadratureConvergenceError) as exc:
                build()
            yield exc.value.pairs, exc.value.partial

    unsplit = list(failures())
    assert unsplit[0][0] == [(2, 0), (3, 0), (4, 0)]
    monkeypatch.setattr(kernel, "_SPAN_ROWS", 2)
    assert list(failures()) == unsplit


def test_radial_build_working_set_is_bounded():
    # numpy reports its buffers to tracemalloc.  Unsplit, a one-panel group
    # of the 10^4 rows held 10^4 x 33 doubles (2.6 MB) per bracket array, a
    # peak near 16 blocks of _BLOCK_DOUBLES doubles; in spans it is about 5
    eigenvalue_table(100, 0, P1, QUAD)  # the cached panel rule is not the build's
    tracemalloc.start()
    try:
        eigenvalue_table(10_000, 0, P1, QUAD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * kernel._BLOCK_DOUBLES


def test_series_groups_share_one_block_budget():
    # numpy reports its buffers to tracemalloc.  A series-only group of a
    # 1985-row span held _GROUP_ARRAYS arrays of up to _BLOCK_DOUBLES values
    # each, a peak of 2.3 MB; the budget now covers them together
    eigenvalue_table(100, 0, P1, QUAD)  # the cached panel rule is not the build's
    tracemalloc.start()
    try:
        eigenvalue_table(2000, 0, P1, QUAD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_atomic_write_that_fails_partway_leaves_no_file(tmp_path):
    def pieces():
        yield "a first piece,"
        raise RuntimeError("formatting failed")

    target = tmp_path / "table.json"
    with pytest.raises(RuntimeError, match="formatting failed"):
        kernel._atomic_write(str(target), pieces())
    assert list(tmp_path.iterdir()) == []
    # an existing file is left as it was
    target.write_text("old")
    with pytest.raises(RuntimeError, match="formatting failed"):
        kernel._atomic_write(str(target), pieces())
    assert list(tmp_path.iterdir()) == [target] and target.read_text() == "old"


def test_serial_build_sweeps_legendre_once(monkeypatch):
    degrees = []
    sweep = kernel.legendre_all
    monkeypatch.setattr(kernel, "legendre_all",
                        lambda lmax, x: degrees.append(lmax) or sweep(lmax, x))
    table = eigenvalue_table(14, 14, P1, QUAD)
    assert degrees == [14]
    assert table.lams[14, 14] > 0.0


def test_subset_equals_direct_build(table_factory):
    big = table_factory(2.0, 30, 30)
    small = eigenvalue_table(8, 8, P2, QUAD)
    sub = big.subset(8, 8)
    assert np.array_equal(small.lams, sub.lams)
    assert np.array_equal(small.errs, sub.errs)


def test_subset_rejects_corners_the_table_does_not_cover(rng, table_factory):
    # a clipped corner would let a check report a size it did not cover
    tab = table_factory(2.0, 10, 10)
    for nmax, lmax in [(50, 50), (-2, -2), (11, 10), (10, -1)]:
        with pytest.raises(ValueError, match="is not a corner of a table"):
            tab.subset(nmax, lmax)
    assert tab.subset(10, 0).lams.shape == (11, 1)
    from dyboltz import verify
    with pytest.raises(ValueError, match=r"subset\(200, 200\)"):
        verify.check_spectral_gap(rng, tab, corner=200)


def test_single_entry_equals_table_entry(table_factory):
    tab = table_factory(2.0, 8, 8)
    for n, l in [(5, 3), (0, 7), (8, 8)]:
        assert eigenvalue(n, l, P2, QUAD).lam == tab.lam(n, l)
    # the table's corners and (120, 41) stop at panels 21 to 23 of their rows
    tab = table_factory(2.0, 200, 200)
    for n, l in [(200, 0), (0, 200), (200, 200), (120, 41)]:
        assert eigenvalue(n, l, P2, QUAD).lam == tab.lam(n, l)


def test_radial_path_matches_table(table_factory):
    lam = radial_eigenvalues(8, P2, QUAD)
    tab = table_factory(2.0, 8, 8)
    for n in range(9):
        assert lam[n] == tab.lam(n, 0)
    # at s = 1 these rows stop at panels 21 to 25 of one radial build
    lam = radial_eigenvalues(10000, P1, QUAD)
    for n in [2, 3, 2276, 3138, 8354, 10000]:
        assert lam[n] == eigenvalue(n, 0, P1, QUAD).lam


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 4.0])
def test_radial_eigenvalues_increase(s):
    # sin^(2n) and cos^(2n) both fall with n on (0, pi/4], so lambda_{n,0}
    # increases for n >= 1; each step is far above the tolerance (at least
    # 6.6e-6 relative, at s = 4)
    lam = radial_eigenvalues(10_000, KernelParams(s=s), QUAD)[1:]
    assert (np.diff(lam) > 2.0 * QUAD.rel_tol * lam[1:]).all()


def test_convergence_error_carries_modes():
    tight = QuadratureSpec(max_panels=3)
    with pytest.raises(QuadratureConvergenceError) as exc:
        eigenvalue(5, 0, P1, tight)
    assert (5, 0) in exc.value.pairs
    assert (5, 0) in exc.value.partial
    with pytest.raises(QuadratureConvergenceError) as exc:
        eigenvalue_table(4, 1, P1, tight)
    # the l = 0 row fails first; its null modes (0,0) and (1,0) converge
    assert exc.value.pairs == [(2, 0), (3, 0), (4, 0)]
    assert set(exc.value.partial) == set(exc.value.pairs)
    for n, l in exc.value.pairs:
        with pytest.raises(QuadratureConvergenceError) as single:
            eigenvalue(n, l, P1, tight)
        assert single.value.partial == {(n, l): exc.value.partial[(n, l)]}


def test_asymptotic_leading_values():
    assert abs(asymptotic_leading(2, 0, P2) - math.log(2.0)) < 1e-15
    got = asymptotic_leading(50, 0, P1)
    assert abs(got - 0.5 * math.log(10.0) ** 2) < 1e-12  # 2.650949
    with pytest.raises(ValueError):
        asymptotic_leading(1, 0, P2)  # 2n + l = 2 < 3
    # modes that do not exist: 2n + l >= 3 alone let these through
    with pytest.raises(ValueError, match="must be integers"):
        asymptotic_leading(2.5, 0, P2)
    with pytest.raises(ValueError, match="must be nonnegative"):
        asymptotic_leading(-1, 5, P2)


def test_ratio_bounds_single_entry():
    tab = eigenvalue_table(2, 0, P2, QUAD)
    rb = ratio_bounds(tab)
    expect = tab.lam(2, 0) / math.log(4.0 + math.e) ** 1.0
    assert abs(rb.c_min - expect) < 1e-15
    assert rb.c_min == rb.c_max
    assert rb.argmin == (2, 0) and rb.argmax == (2, 0)
    assert abs(rb.c_min - 0.22625) < 1e-4


def test_ratio_bounds_positive_and_shifted(table_factory):
    tab = table_factory(1.0, 30, 30)
    rb = ratio_bounds(tab)
    assert 0.0 < rb.c_min <= rb.c_max
    shifted = ratio_bounds(tab, shift=1.5 + math.e)
    assert shifted.c_min < rb.c_min  # larger shift, larger denominator


def test_ratio_bounds_needs_eligible_modes():
    tab = eigenvalue_table(1, 0, P2, QUAD)
    with pytest.raises(ValueError):
        ratio_bounds(tab)


def test_small_parallel_build_stays_serial(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a 61x61 build started a process pool")

    serial = eigenvalue_table(60, 60, P2, QUAD)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    parallel = eigenvalue_table(60, 60, P2, QUAD, workers=2)
    assert np.array_equal(parallel.lams, serial.lams)
    assert np.array_equal(parallel.errs, serial.errs)
    with pytest.raises(AssertionError, match="process pool"):  # the pool path, as a control
        monkeypatch.setattr(kernel, "_POOL_ENTRIES", 61 * 61)
        eigenvalue_table(60, 60, P2, QUAD, workers=2)


def test_version_hash_sensitivity():
    v1 = table_version(P2, QUAD)
    assert v1 == "eeba45ee"  # the version eigs --format json writes for s = 2
    assert v1 == f"{zlib.crc32(json.dumps(kernel._cache_key(P2, QUAD)).encode()):08x}"
    assert v1 == table_version(KernelParams(s=2.0), QuadratureSpec())
    assert v1 != table_version(P1, QUAD)
    assert v1 != table_version(P2, QuadratureSpec(max_panels=71))


def test_cache_roundtrip_exact(tmp_path, table_factory):
    tab = table_factory(2.0, 8, 8)
    path = str(tmp_path / "tab.json")
    save_table(tab, path)
    back = load_table(path, P2, QUAD)
    assert (back.params, back.quad) == (tab.params, tab.quad)
    assert np.array_equal(back.lams, tab.lams)
    assert np.array_equal(back.errs, tab.errs)


def test_table_version_is_the_hash_of_params_and_quad(tmp_path, table_factory):
    # a built, a loaded and a subset table carry no version of their own: the
    # version is that of their params and quad
    tab = table_factory(2.0, 8, 8)
    path = str(tmp_path / "tab.json")
    save_table(tab, path)
    for t in (tab, load_table(path), tab.subset(4, 3)):
        assert (t.params, t.quad) == (P2, QUAD)
        assert table_version(t.params, t.quad) == table_version(P2, QUAD)
    assert json.load(open(path))["header"]["theta_max"] == kernel.THETA_MAX == math.pi / 4


def test_cache_rejects_corrupt_and_stale(tmp_path, table_factory):
    tab = table_factory(2.0, 8, 8)
    path = str(tmp_path / "tab.json")
    save_table(tab, path)

    def tampered(**fields):
        doc = json.load(open(path))
        doc["header"].update(fields)
        json.dump(doc, open(path, "w"))

    # written by other code: the header names the code version, not a hash of it
    tampered(code_version="dyboltz-kernel-4")
    with pytest.raises(CacheError, match="code_version 'dyboltz-kernel-4' is not "
                                         "'dyboltz-kernel-5'"):
        load_table(path)

    # the cutoff is fixed; load_table checks the field itself
    tampered(code_version=kernel.CODE_VERSION, theta_max=1.0)
    with pytest.raises(CacheError, match="theta_max"):
        load_table(path)

    # a header written for G12 in K25: the panel rule is fixed at G16 in K33
    tampered(theta_max=kernel.THETA_MAX, nodes_per_panel=12)
    with pytest.raises(CacheError, match="nodes_per_panel 12 is not 16"):
        load_table(path)

    # a header of the hashed format, or with a field of its own
    tampered(nodes_per_panel=16, version=table_version(P2, QUAD))
    with pytest.raises(CacheError, match="version"):
        load_table(path)

    save_table(tab, path)
    assert load_table(path, P2, QUAD).lams.shape == (9, 9)
    with pytest.raises(CacheError, match="cache s 2.0 is not 1.0"):
        load_table(path, P1, QUAD)  # built for another kernel
    with pytest.raises(CacheError, match="max_panels 72 is not 71"):
        load_table(path, P2, QuadratureSpec(max_panels=71))
    # the tolerances are constants, so a header of another one is stale
    tampered(rel_tol=1e-9)
    with pytest.raises(CacheError, match="cache rel_tol 1e-09 is not 1e-10"):
        load_table(path)

    save_table(tab, path)
    doc = json.load(open(path))
    json.dump({**doc, "rows": []}, open(path, "w"))
    with pytest.raises(CacheError, match="cache rows must be nonempty"):
        load_table(path)

    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(CacheError):
        load_table(path)


def _five_then_three(text):
    # the total is still a multiple of four: only the row structure is wrong
    return text.replace("[0,1,", "[0,", 1).replace("[0,0,", "[0,0,0,", 1)


def _number_at_a_cut(text):
    # just after the ']' that ends the first piece, so the second piece starts with it
    cut = text.index("]", text.index('"rows":[') + 8 + kernel._PARSE_BYTES) + 1
    return text[:cut] + " 7" + text[cut:]


@pytest.mark.parametrize("edit", [
    _five_then_three,
    _number_at_a_cut,
    lambda text: text[:len(text) // 2],  # truncated inside a row
    lambda text: text[:-2],  # truncated after the last row
    lambda text: text + "{}",  # text after the closing brace
    lambda text: text.replace('"rows":[[', '"rows":[', 1),  # rows not lists
    lambda text: text.replace("],[", "],,[", 1),  # an empty row
    lambda text: text.replace("],[", "] 7,[", 1),  # a number outside the rows
    lambda text: text.replace(",0.0,", ",0.0 1,", 1),  # two numbers in one item
    lambda text: text.replace(",0.0,", ',"0.0",', 1),  # a string for a number
], ids=["five-then-three", "number-at-a-cut", "truncated", "truncated-end", "trailing-text", "flat-rows",
        "empty-row", "stray-number", "split-item", "string-item"])
def test_cache_rejects_broken_row_structure(tmp_path, table_factory, edit):
    # 61x61 rows are several _PARSE_BYTES pieces of text
    path = tmp_path / "tab.json"
    save_table(table_factory(2.0, 60, 60), str(path))
    text = path.read_text()
    assert len(text) > 2 * kernel._PARSE_BYTES
    path.write_text(edit(text))
    with pytest.raises(CacheError):
        load_table(str(path), P2, QUAD)


def test_cache_rewritten_by_json_dump_loads_the_same_bits(tmp_path, table_factory):
    # default separators, indentation and a trailing newline leave the numbers
    # as they are; the radial table of the series jobs, in eight pieces
    tab = table_factory(2.0, 10000, 0)
    path = str(tmp_path / "tab.json")
    save_table(tab, path)
    doc = json.load(open(path))
    for dump in (lambda fh: json.dump(doc, fh),
                 lambda fh: (json.dump(doc, fh, indent=1), fh.write("\n"))):
        with open(path, "w") as fh:
            dump(fh)
        back = load_table(path, P2, QUAD)
        assert np.array_equal(back.lams, tab.lams) and np.array_equal(back.errs, tab.errs)
        assert (back.params, back.quad) == (tab.params, tab.quad)


def _row_index(rows, n, l):
    return next(i for i, r in enumerate(rows) if (r[0], r[1]) == (n, l))


def _negative_lambda(rows):
    rows[_row_index(rows, 3, 2)][2] *= -1.0


def _nonzero_null_mode(rows):
    rows[_row_index(rows, 1, 0)][2] = 1e-3


def _infinite_lambda(rows):
    rows[_row_index(rows, 3, 2)][2] = math.inf  # json writes Infinity, and reads it back


def _nan_err(rows):
    rows[_row_index(rows, 5, 1)][3] = math.nan


def _missing_row(rows):
    del rows[_row_index(rows, 4, 4)]


def _duplicated_row(rows):
    rows.append(list(rows[_row_index(rows, 4, 4)]))


def _swapped_rows(rows):
    # every pair still once, but not in the (n, l) order the file is written in
    i, j = _row_index(rows, 3, 2), _row_index(rows, 5, 1)
    rows[i], rows[j] = rows[j], rows[i]


@pytest.mark.parametrize("edit", [_negative_lambda, _nonzero_null_mode, _infinite_lambda,
                                  _nan_err, _missing_row, _duplicated_row, _swapped_rows],
                         ids=lambda f: f.__name__[1:])
def test_cache_rejects_invalid_rows(tmp_path, table_factory, edit):
    path = str(tmp_path / "tab.json")
    save_table(table_factory(2.0, 8, 8), path)
    doc = json.load(open(path))
    edit(doc["rows"])
    json.dump(doc, open(path, "w"))
    with pytest.raises(CacheError):
        load_table(path, P2, QUAD)


def test_save_table_makes_its_directory(tmp_path, table_factory):
    tab = table_factory(2.0, 8, 8)
    path = tmp_path / "new" / "cache" / "tab.json"
    save_table(tab, str(path))
    back = load_table(str(path), P2, QUAD)
    assert np.array_equal(back.lams, tab.lams) and np.array_equal(back.errs, tab.errs)
    assert [p.name for p in path.parent.iterdir()] == ["tab.json"]  # no temp file left


def test_cache_rejects_duplicate_in_place_of_row(tmp_path, table_factory):
    # the row count still matches the grid; only the coverage check sees the gap
    path = str(tmp_path / "tab.json")
    save_table(table_factory(2.0, 8, 8), path)
    doc = json.load(open(path))
    rows = doc["rows"]
    rows[_row_index(rows, 4, 4)] = list(rows[_row_index(rows, 3, 3)])
    json.dump(doc, open(path, "w"))
    with pytest.raises(CacheError, match="exactly once"):
        load_table(path, P2, QUAD)


def test_csv_export_mirrors_rows(tmp_path, table_factory):
    # the CLI's eigs CSV is the table's (n, l, lambda, err) rows plus two columns
    from dyboltz.cli import main
    tab = table_factory(2.0, 8, 8)
    assert main(["eigs", "--s", "2", "--nmax", "8", "--lmax", "8",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "eigs_s2_n8_l8.csv").read_text().strip().split("\n")
    assert lines[0].startswith("n,l,lambda,err,")
    assert [ln.split(",")[:4] for ln in lines[1:]] == \
        [[str(n), str(l), repr(float(tab.lams[n, l])), repr(float(tab.errs[n, l]))]
         for n in range(9) for l in range(9)]


def test_large_mode_fast_path():
    e = eigenvalue(10**6, 0, P1, QUAD)
    lead = asymptotic_leading(10**6, 0, P1)
    assert e.lam > 0.0 and abs(e.lam / lead - 1.0) < 0.1


def test_ratio_interval_regression_snapshot(table_factory):
    # observed intervals on the full table, frozen as a change detector
    path = pathlib.Path(__file__).parent / "golden" / "ratio_intervals.csv"
    with open(path) as fh:
        for row in csv.DictReader(fh):
            tab = table_factory(float(row["s"]), 200, 200)
            rb = ratio_bounds(tab)
            assert abs(rb.c_min - float(row["c_min"])) < 1e-12 * float(row["c_min"])
            assert abs(rb.c_max - float(row["c_max"])) < 1e-12 * float(row["c_max"])
            assert rb.argmin == (int(row["argmin_n"]), int(row["argmin_l"]))
            assert rb.argmax == (int(row["argmax_n"]), int(row["argmax_l"]))
