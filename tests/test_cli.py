import csv
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
import zlib

import pytest

from dyboltz import cli, kernel
from dyboltz.cli import main
from dyboltz.kernel import KernelParams, radial_eigenvalues

GAP_S2 = (2.0 / 3.0) * (1.0 - 2.0 ** -1.5)


def run(tmp_path, *argv):
    os.makedirs(tmp_path, exist_ok=True)
    return main(list(argv))


def test_eigs_writes_gap(tmp_path):
    out = str(tmp_path)
    assert run(tmp_path, "eigs", "--s", "2", "--nmax", "2", "--lmax", "0",
               "--out", out) == 0
    lines = open(tmp_path / "eigs_s2_n2_l0.csv").read().strip().split("\n")
    assert lines[0] == "n,l,lambda,err,ratio_to_log_bound,asymptotic_leading"
    rows = {tuple(map(int, ln.split(",")[:2])): ln.split(",") for ln in lines[1:]}
    assert float(rows[(0, 0)][2]) == 0.0
    assert float(rows[(1, 0)][2]) == 0.0
    lam = float(rows[(2, 0)][2])
    assert abs(lam - GAP_S2) < 1e-8
    assert abs(float(rows[(2, 0)][4]) - lam / math.log(4 + math.e)) < 1e-12


def test_eigs_cache_hit_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cache = str(tmp_path / "cache")
    args = ["--s", "1", "--nmax", "10", "--lmax", "10", "--cache-dir", cache]
    assert run(tmp_path, "eigs", *args, "--out", out1) == 0
    assert run(tmp_path, "eigs", *args, "--out", out2) == 0
    a = open(os.path.join(out1, "eigs_s1_n10_l10.csv"), "rb").read()
    b = open(os.path.join(out2, "eigs_s1_n10_l10.csv"), "rb").read()
    assert a == b


def test_eigs_json_format(tmp_path):
    out = str(tmp_path)
    assert run(tmp_path, "eigs", "--s", "2", "--nmax", "3", "--lmax", "3",
               "--format", "json", "--out", out) == 0
    doc = json.load(open(tmp_path / "eigs_s2_n3_l3.json"))
    assert doc["columns"][2] == "lambda"
    assert len(doc["rows"]) == 16


BAD_VALUES = {
    "s=0": ["eigs", "--s", "0"],
    "s=-1": ["eigs", "--s", "-1"],
    "s=nan": ["eigs", "--s", "nan"],
    "s=inf": ["eigs", "--s", "inf", "--nmax", "3", "--lmax", "3", "--format", "json"],
    "evolve-s=inf": ["evolve", "--s", "inf", "--init", "modes:2,0,0,1,0", "--times", "1"],
    "scenario-s=inf": ["scenario", "--scenario", "remark14", "--s", "inf",
                       "--series-n", "200"],
    "verify-s=inf": ["verify", "--suite", "specfun", "--s", "inf"],
    "nmax=-1": ["eigs", "--nmax", "-1"],
    "series-n=1": ["scenario", "--scenario", "remark14", "--series-n", "1"],
    # fewer than four terms leave the tail test no term ratio
    "series-n=3": ["scenario", "--scenario", "remark14", "--s", "4", "--series-n", "3"],
    "series-n=4": ["scenario", "--scenario", "example42", "--s", "4", "--series-n", "4"],
    "tau0=-1": ["scenario", "--scenario", "remark14", "--tau0", "-1"],
    "k-grid=a": ["scenario", "--scenario", "example41", "--k-grid", "a"],
    "times=-1": ["evolve", "--init", "modes:2,0,0,1,0", "--times", "-1"],
    "times=1,1": ["evolve", "--init", "modes:2,0,0,1,0", "--times", "1,1"],
    "times=inf": ["evolve", "--init", "modes:0,0,0,1,0;2,0,0,1,0", "--times", "inf"],
    "times=nan": ["evolve", "--init", "modes:0,0,0,1,0;2,0,0,1,0", "--times", "nan"],
    "times=,": ["evolve", "--init", "modes:2,0,0,1,0", "--times", ","],
    "init-amp=nan": ["evolve", "--s", "2", "--init", "modes:2,0,0,nan,0", "--times", "1",
                     "--norms", "l2"],
    "init-amp=inf": ["evolve", "--s", "2", "--init", "modes:2,0,0,inf,0", "--times", "1",
                     "--norms", "l2"],
    "init-repeated-mode": ["evolve", "--s", "2", "--init", "modes:2,0,0,1,0;2,0,0,3,0",
                           "--times", "0"],
    "init-tau0=nan": ["evolve", "--init", "delay:tau0=nan,N=50", "--times", "1"],
    "init-tau=inf": ["evolve", "--init", "sobolev:tau=inf,N=50", "--times", "1"],
    # each series family takes its own arguments, each once, and needs the required ones
    "init-foreign-argument": ["evolve", "--s", "1", "--init", "delay:tau0=0.5,n=300",
                              "--times", "1"],
    "init-repeated-argument": ["evolve", "--s", "1", "--init", "delay:tau0=0.5,N=300,tau0=2",
                               "--times", "1"],
    "init-s2delay-tau": ["evolve", "--s", "1", "--init", "s2delay:tau=3,N=300", "--times", "1"],
    "init-missing-tau0": ["evolve", "--s", "1", "--init", "delay:N=300", "--times", "1"],
    "init-malformed": ["evolve", "--s", "1", "--init", "delay:tau0", "--times", "1"],
    "scenario-times=-1": ["scenario", "--scenario", "remark14", "--s", "1",
                          "--series-n", "200", "--times", "-1"],
    "scenario-times=nan": ["scenario", "--scenario", "remark14", "--s", "1",
                           "--series-n", "200", "--times", "nan"],
    "scenario-times=1,1": ["scenario", "--scenario", "remark14", "--s", "1",
                           "--series-n", "200", "--times", "1,1"],
    "tau0=nan": ["scenario", "--scenario", "remark14", "--s", "1", "--series-n", "200",
                 "--tau0", "nan"],
    "tau=inf": ["scenario", "--scenario", "example42", "--s", "4", "--series-n", "200",
                "--tau", "inf"],
    "k-grid=-1": ["scenario", "--scenario", "example41", "--series-n", "200",
                  "--k-grid", "-1"],
    "k-grid=1,1": ["scenario", "--scenario", "example41", "--series-n", "200",
                   "--k-grid", "1,1"],
    # the default t grid round(k f, 6) of k = 0 repeats t = 0, as of tau0 = 1e-7
    "k-grid=0": ["scenario", "--scenario", "example41", "--series-n", "200", "--k-grid", "0"],
    "tau0=1e-7": ["scenario", "--scenario", "remark14", "--series-n", "200", "--tau0", "1e-7"],
    "norms-extra-argument": ["evolve", "--init", "modes:2,0,0,1,0", "--times", "1",
                             "--norms", "shubin:k=2,tau=3"],
    "workers=0": ["eigs", "--s", "2", "--nmax", "2", "--lmax", "2", "--workers", "0"],
    "workers=-3": ["eigs", "--s", "2", "--nmax", "2", "--lmax", "2", "--workers", "-3"],
    "tau-prime=-1": ["scenario", "--scenario", "example42", "--s", "4",
                     "--series-n", "200", "--tau-prime", "-1"],
    "tau=tau-prime": ["scenario", "--scenario", "example42", "--s", "4",
                      "--series-n", "200", "--tau", "3", "--tau-prime", "3"],
    "max-panels=1100": ["eigs", "--s", "2", "--nmax", "2", "--lmax", "2",
                        "--max-panels", "1100"],
    "s=0.002 overflow": ["eigs", "--s", "0.002", "--nmax", "100", "--lmax", "0"],
    # beta overflows at the innermost of the default 72 panels (--max-panels 30 keeps it finite)
    "s=0.01 beta overflow": ["eigs", "--s", "0.01", "--nmax", "2", "--lmax", "0"],
    "evolve-s=0.01 beta overflow": ["evolve", "--s", "0.01", "--init", "modes:2,0,0,1,0",
                                    "--times", "1"],
    "scenario-s=0.01 beta overflow": ["scenario", "--scenario", "remark14", "--s", "0.01",
                                      "--series-n", "200"],
}


@pytest.mark.parametrize("argv", BAD_VALUES.values(), ids=BAD_VALUES)
def test_eigs_rejects_bad_s(tmp_path, capsys, monkeypatch, argv):
    # a bad value is a usage error (exit 2) with a message, not a traceback;
    # every command rejects it before it builds a table, and with no
    # RuntimeWarning, which a CLI run would print to stderr
    monkeypatch.setattr(cli, "eigenvalue_table", lambda *a, **k: pytest.fail("built"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(tmp_path, *argv, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if "0.01" in argv:
        assert err.startswith("error: --s 0.01 with --max-panels 72: beta overflows")
    if argv[-2:] == ["--tau-prime", "3"]:  # the flags example42 reads, not --k-grid
        assert err == "error: scenario example42: --tau 3 with --tau-prime 3 repeats an order\n"
    if argv[-2:] == ["--k-grid", "0"]:
        assert err.startswith("error: scenario example41: --k-grid k = 0 gives the default "
                              "times [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]: times must be distinct")


@pytest.mark.parametrize("argv", [["--s", "4"], ["--s", "3", "--k-grid", "1"]])
def test_example41_without_a_frontier_is_a_usage_error(tmp_path, capsys, argv):
    # no convergent verdict up to t = max(4, 4k) shows only once the table is
    # built, so this is no BAD_VALUES case; the job writes no file
    out = tmp_path / "out"
    assert run(out, "scenario", "--scenario", "example41", *argv, "--series-n", "200",
               "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"error: scenario example41, --s {argv[1]}, k = 1: "
                                       "no convergent verdict up to t = max(4, 4k) = 4.0\n")
    assert not list(out.iterdir())


def _rows(table):
    """(n, l, lambda, err) as Python numbers, in (n, l) order."""
    return [(n, l, float(table.lams[n, l]), float(table.errs[n, l]))
            for n in range(table.nmax + 1) for l in range(table.lmax + 1)]


def _reference_eigs(table, fmt):
    """The eigs file by the per-row formulas, one Python expression per entry."""
    s = table.params.s
    rows = []
    for n, l, lam, err in _rows(table):
        K = 2 * n + l
        ratio = lam / math.log(K + math.e) ** (2.0 / s) if n + l >= 2 else math.nan
        asym = kernel.asymptotic_leading(n, l, table.params) if K >= 3 else math.nan
        rows.append((n, l, lam, err, ratio, asym))
    if fmt == "csv":
        lines = ["n,l,lambda,err,ratio_to_log_bound,asymptotic_leading"]
        lines += [f"{n},{l},{lam!r},{err!r},{ratio!r},{asym!r}"
                  for n, l, lam, err, ratio, asym in rows]
        return "\n".join(lines) + "\n"
    doc = {"s": s, "nmax": table.nmax, "lmax": table.lmax,
           "version": _reference_crc(table.params, table.quad),
           "columns": ["n", "l", "lambda", "err", "ratio_to_log_bound",
                       "asymptotic_leading"],
           "rows": [[n, l, lam, err,
                     None if math.isnan(ratio) else ratio,
                     None if math.isnan(asym) else asym]
                    for n, l, lam, err, ratio, asym in rows]}
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def _reference_header(params, quad=kernel.QuadratureSpec()):
    return {"s": params.s, "theta_max": kernel.THETA_MAX, "rel_tol": quad.rel_tol,
            "abs_tol": quad.abs_tol, "max_panels": quad.max_panels,
            "nodes_per_panel": quad.nodes_per_panel, "code_version": kernel.CODE_VERSION}


def _reference_crc(params, quad=kernel.QuadratureSpec()):
    # the crc32 of the header as json.dumps writes it, in 8 hex digits
    return f"{zlib.crc32(json.dumps(_reference_header(params, quad)).encode()):08x}"


def _cache_name(params, nmax, lmax):
    return f"eigs-{_reference_crc(params)}-n{nmax}-l{lmax}.json"


def _reference_cache(table):
    return json.dumps({"header": _reference_header(table.params, table.quad),
                       "rows": [list(r) for r in _rows(table)]},
                      separators=(",", ":"), sort_keys=True)


def test_eigs_outputs_match_reference_formatting(tmp_path):
    # a non-square table, so a swapped n and l changes the bytes; the csv run
    # builds and saves the table, the json run formats the loaded cache file
    for s in ("0.5", "2"):
        table = kernel.eigenvalue_table(12, 9, KernelParams(s=float(s)))
        cache = tmp_path / f"cache-{s}"
        for fmt in ("csv", "json"):
            assert run(tmp_path, "eigs", "--s", s, "--nmax", "12", "--lmax", "9",
                       "--format", fmt, "--cache-dir", str(cache), "--out", str(tmp_path)) == 0
            got = (tmp_path / f"eigs_s{s}_n12_l9.{fmt}").read_bytes()
            assert got == _reference_eigs(table, fmt).encode()
        got = (cache / _cache_name(table.params, 12, 9)).read_bytes()
        assert got == _reference_cache(table).encode()
        # the version eigs --format json writes is the crc that names the cache file
        version = kernel.table_version(table.params, table.quad)
        assert _cache_name(table.params, 12, 9) == f"eigs-{version}-n12-l9.json"


def test_files_written_in_pieces_match_the_whole_text(tmp_path):
    # 37 x 29 = 1073 rows: one full piece of _WRITE_ROWS rows and a partial
    # one; the cache file, the csv and the json equal their one-string texts
    table = kernel.eigenvalue_table(36, 28, KernelParams(s=2.0))
    rows = len(table._row_texts)
    assert rows > kernel._WRITE_ROWS and rows % kernel._WRITE_ROWS
    cache = tmp_path / "cache"
    for fmt in ("csv", "json"):
        assert run(tmp_path, "eigs", "--s", "2", "--nmax", "36", "--lmax", "28",
                   "--format", fmt, "--cache-dir", str(cache), "--out", str(tmp_path)) == 0
        got = (tmp_path / f"eigs_s2_n36_l28.{fmt}").read_bytes()
        assert got == _reference_eigs(table, fmt).encode()
    got = (cache / _cache_name(table.params, 36, 28)).read_bytes()
    assert got == _reference_cache(table).encode()


def _modules_loaded_by(argv, names, runs=1):
    """The modules among ``names`` that a fresh process holds after ``main(argv)``.

    ``runs`` = 2 runs the command twice in that process: with ``--cache-dir``,
    a build that fills the cache and then a hit.
    """
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys; from dyboltz.cli import main; argv = sys.argv[3:]; "
            "rc = [main(argv) for _ in range(int(sys.argv[2]))][-1] if argv else None; "
            "print(rc, sorted(m for m in sys.argv[1].split(',') if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code, ",".join(names), str(runs), *argv],
                       capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONPATH": src})
    return r.stdout.strip().splitlines()[-1]  # after the command's own output


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # every Gauss rule comes from specfun's Jacobi-matrix engine, so no job
    # loads numpy.polynomial (leggauss, hermgauss)
    lazy = ["scipy", "concurrent.futures.process", "numpy.polynomial"]
    # import only; the verify checks are imported by the verify command alone,
    # and no job loads OpenSSL (_hashlib): a table's version is a crc32
    assert _modules_loaded_by([], [*lazy, "dyboltz.verify", "_hashlib"]) == "None []"
    # the basis checks draw points, from the standard library's random
    assert _modules_loaded_by(["verify", "--suite", "all", "--out", str(tmp_path)],
                              [*lazy, "numpy.random", "_hashlib"]) == "0 []"
    # the cache is named and checked by its key; a hit loads the table without
    # numpy.ma (np.unique imports it), and the JSON output writes the crc32
    cache = ["--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path)]
    args = ["eigs", "--s", "2", "--nmax", "6", "--lmax", "5", *cache]
    assert _modules_loaded_by(args, [*lazy, "numpy.ma", "dyboltz.verify", "_hashlib"],
                              runs=2) == "0 []"
    assert _modules_loaded_by([*args, "--format", "json"], [*lazy, "_hashlib"]) == "0 []"
    series = ["evolve", "--s", "1", "--init", "delay:tau0=0.5,N=300", "--times", "1", *cache]
    assert _modules_loaded_by(series, [*lazy, "_hashlib"], runs=2) == "0 []"
    # the tail classifier takes its median without numpy.ma (np.median imports it)
    scenario = ["scenario", "--scenario", "remark14", "--s", "1", "--series-n", "400",
                "--out", str(tmp_path)]
    assert _modules_loaded_by(scenario, [*lazy, "numpy.ma", "_hashlib"]) == "0 []"


def test_evolve_norm_of_a_mode_decayed_to_zero(tmp_path):
    # by t = 2000 exp(-lambda t) is 0 at (200, 0, 0), whose logsob weight
    # overflows: the norm is that of (0, 0, 0) alone, not inf * 0 = nan
    assert run(tmp_path, "evolve", "--s", "2", "--init", "modes:0,0,0,1,0;200,0,0,1,0",
               "--times", "0,2000", "--norms", "logsob:tau=1,nu=0.5",
               "--out", str(tmp_path)) == 0
    last = (tmp_path / "evolve_s2.csv").read_text().splitlines()[-1]
    assert last == '2000.0,"logsob:tau=1,nu=0.5",73.18480748434146'


def test_json_files_write_non_finite_numbers_as_null(tmp_path):
    # strict parsers reject NaN and Infinity: a decay slope fitted to one
    # time, a logsob norm that overflows and the measure of the rate1 check,
    # skipped above s = 2, are each written as null
    def strict(name):
        return json.loads((tmp_path / name).read_text(),
                          parse_constant=lambda token: pytest.fail(f"{name} holds {token}"))

    modes = ["evolve", "--format", "json", "--init", "modes:2,0,0,1,0"]
    assert run(tmp_path, *modes, "--times", "1", "--out", str(tmp_path / "a")) == 0
    assert strict("a/evolve_s2.json")["decay_slopes"] == [None]
    assert run(tmp_path, *modes, "--norms", "logsob:tau=1e3,nu=0.1", "--times", "1,2",
               "--out", str(tmp_path / "b")) == 0
    assert strict("b/evolve_s2.json")["values"] == [[None], [None]]
    assert run(tmp_path, "verify", "--suite", "solver", "--s", "4",
               "--out", str(tmp_path / "c")) == 0
    checks = {c["name"]: c for c in strict("c/verify_solver.json")["checks"]}
    assert checks["rate1_certificate"]["measured"] is None


def test_subcommands_reject_flags_they_do_not_read(tmp_path):
    # the panel rule (G16 in K33) and the tolerances (1e-10 relative, 1e-13
    # absolute) are fixed, so no command takes --nodes-per-panel, --rel-tol or --abs-tol
    for argv in (["verify", "--suite", "kernel", "--workers", "2"],
                 ["eigs", "--s", "2", "--nmax", "2", "--lmax", "2", "--nodes-per-panel", "16"],
                 ["eigs", "--s", "2", "--nmax", "2", "--lmax", "2", "--rel-tol", "1e-9"],
                 ["evolve", "--init", "modes:2,0,0,1,0", "--times", "1", "--abs-tol", "1e-9"],
                 ["scenario", "--scenario", "remark14", "--format", "json"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2


def test_eigs_corrupt_cache_rejected(tmp_path):
    cache = tmp_path / "cache"
    args = ["--s", "2", "--nmax", "4", "--lmax", "4", "--cache-dir", str(cache)]
    assert run(tmp_path, "eigs", *args, "--out", str(tmp_path)) == 0
    cache_file = next(cache.glob("eigs-*.json"))
    doc = json.load(open(cache_file))
    doc["header"]["code_version"] = "dyboltz-kernel-2"
    json.dump(doc, open(cache_file, "w"))
    assert run(tmp_path, "eigs", *args, "--out", str(tmp_path)) == 2


def test_cache_file_of_another_key_under_this_name_is_an_error(tmp_path, capsys):
    # as two keys of one crc32 would meet: the header, not the name, decides
    cache = tmp_path / "cache"
    args = ["--nmax", "3", "--lmax", "2", "--cache-dir", str(cache), "--out", str(tmp_path)]
    assert run(tmp_path, "eigs", "--s", "2", *args) == 0
    os.replace(cache / _cache_name(KernelParams(s=2.0), 3, 2),
               cache / _cache_name(KernelParams(s=1.0), 3, 2))
    assert run(tmp_path, "eigs", "--s", "1", *args) == 2
    assert "cache s 2.0 is not 1.0" in capsys.readouterr().err


def test_cache_second_round_builds_nothing(tmp_path, monkeypatch):
    builds, radial = [], []
    build = cli.eigenvalue_table

    def counted(nmax, lmax, *args, **kwargs):
        builds.append((nmax, lmax))
        return build(nmax, lmax, *args, **kwargs)

    monkeypatch.setattr(cli, "eigenvalue_table", counted)
    monkeypatch.setattr(cli, "radial_eigenvalues", lambda *a, **kw: radial.append(a))
    cache = str(tmp_path / "cache")
    jobs = [["evolve", "--s", "1", "--init", "delay:tau0=0.5,N=200", "--times", "0.5,1"],
            ["eigs", "--s", "1", "--nmax", "6", "--lmax", "6"],
            ["scenario", "--scenario", "remark14", "--s", "1", "--series-n", "200",
             "--times", "0.25,1"]]
    outputs = []
    for rnd in ("a", "b"):
        out = str(tmp_path / rnd)
        for job in jobs:
            assert run(tmp_path, *job, "--cache-dir", cache, "--out", out) == 0
        outputs.append([open(os.path.join(out, f), "rb").read() for f in
                        ("evolve_s1.csv", "eigs_s1_n6_l6.csv", "scenario_remark14.csv")])
    # all in the first round; scenario reads the (200, 0) file that evolve wrote
    assert builds == [(200, 0), (6, 6)]
    assert radial == []
    assert outputs[0] == outputs[1]
    names = sorted(p.name for p in (tmp_path / "cache").iterdir())
    assert [n.split("-", 2)[2] for n in names] == ["n200-l0.json", "n6-l6.json"]


def test_cache_rejects_table_of_other_shape(tmp_path):
    cache = tmp_path / "cache"
    args = ["--s", "2", "--lmax", "3", "--cache-dir", str(cache), "--out", str(tmp_path)]
    assert run(tmp_path, "eigs", "--nmax", "3", *args) == 0
    small = next(cache.glob("eigs-*.json"))
    os.replace(small, str(small).replace("-n3-", "-n4-"))
    assert run(tmp_path, "eigs", "--nmax", "4", *args) == 2


def test_convergence_failure_exit_code(tmp_path, capsys):
    # panel budget too small to converge: exit 3, failing mode named
    rc = run(tmp_path, "eigs", "--s", "1", "--nmax", "4", "--lmax", "0",
             "--max-panels", "2", "--out", str(tmp_path))
    assert rc == 3
    assert "(2,0)" in capsys.readouterr().err


def test_evolve_single_mode(tmp_path):
    out = str(tmp_path)
    assert run(tmp_path, "evolve", "--s", "2", "--init", "modes:2,0,0,1,0",
               "--times", "0,1", "--norms", "l2", "--out", out) == 0
    lines = open(tmp_path / "evolve_s2.csv").read().strip().split("\n")
    assert lines[1].startswith("0.0,l2,1.0")
    t1 = float(lines[2].split(",")[2])
    assert abs(t1 - math.exp(-GAP_S2)) < 1e-10  # 0.6498820...


def test_evolve_null_mode_constant_rows(tmp_path):
    out = str(tmp_path)
    assert run(tmp_path, "evolve", "--s", "2", "--init", "modes:0,1,0,2,0",
               "--times", "0,1,5", "--norms", "l2;shubin:k=2", "--out", out) == 0
    lines = open(tmp_path / "evolve_s2.csv").read().strip().split("\n")[1:]
    by_norm = {}
    for ln in lines:
        t, norm, v = ln.split(",", 2)
        by_norm.setdefault(norm, set()).add(v)
    assert all(len(vals) == 1 for vals in by_norm.values())


W_SHIFT = 1.5 + math.e

# (CLI string, squared-sum weight of radial mode n with modified eigenvalue lt)
SERIES_NORMS = [
    ("l2", lambda n, lt: 1.0),
    ("shubin:k=2", lambda n, lt: (2 * n + W_SHIFT) ** 2),
    ("logsob:tau=1,nu=2", lambda n, lt: math.exp(2.0 * math.log(2 * n + W_SHIFT))),
    ("domain:tau=0.5", lambda n, lt: math.exp(0.5 * lt)),
    ("domaindual:tau=0.5", lambda n, lt: math.exp(-0.5 * lt)),
    ("domainplus:tau=0.5", lambda n, lt: lt * math.exp(0.5 * lt)),
    ("domainplusdual:tau=0.5", lambda n, lt: math.exp(-0.5 * lt) / lt),
]

# closed-form coefficients c_n of the three radial series families
SERIES_INITS = [
    ("delay:tau0=0.5,N=200", 1, lambda n, lam: math.exp(0.5 * lam) / n),
    ("s2delay:N=200", 2, lambda n, lam: 1.0 / (math.sqrt(n) * math.log(n))),
    ("sobolev:tau=1,N=200", 2, lambda n, lam: n ** -1.0 / math.log(n)),
]


@pytest.mark.parametrize("init,n_min,coeff", SERIES_INITS, ids=[i[0] for i in SERIES_INITS])
def test_evolve_series_init_all_norms(tmp_path, init, n_min, coeff):
    times = (0.25, 1.0)
    assert run(tmp_path, "evolve", "--s", "1", "--init", init,
               "--times", ",".join(map(str, times)),
               "--norms", ";".join(name for name, _ in SERIES_NORMS),
               "--format", "json", "--out", str(tmp_path)) == 0
    doc = json.load(open(tmp_path / "evolve_s1.json"))
    assert doc["times"] == list(times)
    assert doc["norms"] == [name for name, _ in SERIES_NORMS]
    lam = radial_eigenvalues(200, KernelParams(s=1.0)).tolist()
    for t, values in zip(times, doc["values"]):
        for (name, weight), got in zip(SERIES_NORMS, values):
            want = math.sqrt(math.fsum(
                weight(n, 1.0 if n <= 1 else lam[n]) * coeff(n, lam[n]) ** 2
                * math.exp(-2.0 * lam[n] * t) for n in range(n_min, 201)))
            assert abs(got - want) <= 1e-12 * want, (t, name, got, want)


def test_evolve_overflowing_delay_data_is_usage_error(tmp_path, capsys):
    # exp(tau0 lambda_{n,0}) / n overflows a float; that shows only once the
    # table is built, and is then one line of error, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "evolve", "--s", "2", "--init", "delay:tau0=1e6,N=50",
                   "--times", "1", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad --init 'delay:tau0=1e6,N=50'") and err.count("\n") == 1
    assert not (tmp_path / "evolve_s2.csv").exists()


def test_evolve_csv_quotes_logsob_norm(tmp_path):
    norms = ["l2", "logsob:tau=1,nu=2", "shubin:k=2"]
    assert run(tmp_path, "evolve", "--s", "2", "--init", "modes:2,0,0,1,0;3,1,0,0,1",
               "--times", "0,1", "--norms", ";".join(norms), "--out", str(tmp_path)) == 0
    with open(tmp_path / "evolve_s2.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["norm"] for r in rows] == norms * 2
    assert all(None not in r and float(r["value"]) > 0.0 for r in rows)
    text = open(tmp_path / "evolve_s2.csv").read()
    assert ',"logsob:tau=1,nu=2",' in text and ",l2," in text


def test_evolve_rejects_unknown_norm(tmp_path, capsys):
    rc = run(tmp_path, "evolve", "--s", "2", "--init", "modes:2,0,0,1,0",
             "--times", "1", "--norms", "sobolev:k=2", "--out", str(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err
    assert "canonical forms" in err


def test_evolve_rejects_non_finite_norm_before_building(tmp_path, capsys, monkeypatch):
    # a NaN weight order is a usage error, not a row of NaN norms
    monkeypatch.setattr(cli, "eigenvalue_table", None)  # a build would raise TypeError
    rc = run(tmp_path, "evolve", "--init", "modes:2,0,0,1,0", "--times", "1",
             "--norms", "shubin:k=nan", "--cache-dir", str(tmp_path / "cache"),
             "--out", str(tmp_path))
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "cache").exists() and not (tmp_path / "evolve_s2.csv").exists()


def test_evolve_rejects_bad_init(tmp_path):
    rc = run(tmp_path, "evolve", "--s", "2", "--init", "garbage",
             "--times", "1", "--out", str(tmp_path))
    assert rc == 2


@pytest.mark.parametrize("suite,check,builds", [
    ("kernel", "gap_closed_form_s2", [(60, 60), (10, 10), (10, 10)]),
    ("solver", "delay_series_verdicts", [(60, 60), (2000, 0)]),
], ids=["kernel", "solver"])
def test_verify_kernel_suite_passes(tmp_path, monkeypatch, suite, check, builds):
    # one shared 60x60 table at s; the determinism pair and the s=1 radial
    # table of the delay check are built on purpose
    seen = []
    build = kernel.eigenvalue_table

    def counted(nmax, lmax, *args, **kwargs):
        seen.append((nmax, lmax))
        return build(nmax, lmax, *args, **kwargs)

    monkeypatch.setattr(kernel, "eigenvalue_table", counted)
    rc = run(tmp_path, "verify", "--suite", suite, "--s", "2",
             "--out", str(tmp_path))
    assert rc == 0
    doc = json.load(open(tmp_path / f"verify_{suite}.json"))
    assert doc["passed"] is True
    assert any(c["name"] == check for c in doc["checks"])
    assert seen == builds


def test_verify_spaces_suite_passes(tmp_path):
    assert run(tmp_path, "verify", "--suite", "spaces", "--s", "2",
               "--out", str(tmp_path)) == 0


def test_verify_checks_keep_the_dispatch_arity():
    # run_suite and perfbench's Tracer._suite_check call a check as fn(rng)
    # or fn(rng, table) by its co_argcount; sizes are keyword-only defaults
    from dyboltz import verify

    for fn in (fn for fns in verify.SUITES.values() for fn in fns):
        argc = fn.__code__.co_argcount
        assert argc in (1, 2), fn.__name__
        rest = list(inspect.signature(fn).parameters.values())[argc:]
        assert all(p.kind is p.KEYWORD_ONLY and p.default is not p.empty
                   for p in rest), fn.__name__


def test_verify_unknown_suite_usage_error(tmp_path):
    assert run(tmp_path, "verify", "--suite", "nope", "--out", str(tmp_path)) == 2


def test_scenario_remark14(tmp_path):
    assert run(tmp_path, "scenario", "--scenario", "remark14", "--s", "1",
               "--series-n", "2000", "--times", "0.1,1.0",
               "--out", str(tmp_path)) == 0
    lines = open(tmp_path / "scenario_remark14.csv").read().strip().split("\n")
    verdicts = {ln.split(",")[0]: ln.split(",")[2] for ln in lines[1:]}
    assert verdicts["0.1"] == "divergent"
    assert verdicts["1.0"] == "convergent"


def test_scenario_example42(tmp_path):
    assert run(tmp_path, "scenario", "--scenario", "example42", "--s", "4",
               "--series-n", "2000", "--times", "1.0",
               "--out", str(tmp_path)) == 0
    lines = open(tmp_path / "scenario_example42.csv").read().strip().split("\n")[1:]
    by_norm = {ln.split(",")[1]: ln.split(",")[2] for ln in lines}
    assert by_norm["shubin:k=1"] == "convergent"
    assert by_norm["shubin:k=2"] == "divergent"


def test_scenario_example42_default_times(tmp_path):
    assert run(tmp_path, "scenario", "--scenario", "example42", "--s", "4",
               "--series-n", "200", "--out", str(tmp_path)) == 0
    lines = open(tmp_path / "scenario_example42.csv").read().splitlines()[1:]
    assert [tuple(ln.split(",")[:2]) for ln in lines] == [
        (t, norm) for t in ("0.5", "1.0", "2.0", "5.0", "10.0")
        for norm in ("shubin:k=1", "shubin:k=2")]


def test_scenario_example41_frontier(tmp_path):
    assert run(tmp_path, "scenario", "--scenario", "example41", "--s", "2",
               "--series-n", "2000", "--k-grid", "1,2",
               "--out", str(tmp_path)) == 0
    lines = open(tmp_path / "scenario_example41_frontier.csv").read().strip().split("\n")[1:]
    fr = {float(ln.split(",")[0]): float(ln.split(",")[1]) for ln in lines}
    assert fr[1.0] < fr[2.0]
    # k = 0 has no default t grid (it would repeat t = 0), but runs on a given one
    assert run(tmp_path, "scenario", "--scenario", "example41", "--s", "2",
               "--series-n", "200", "--k-grid", "0", "--times", "0,1",
               "--out", str(tmp_path)) == 0
    lines = open(tmp_path / "scenario_example41.csv").read().splitlines()[1:]
    assert [ln.split(",")[:3] for ln in lines] == [["0.0", "0.0", "shubin:k=0"],
                                                   ["0.0", "1.0", "shubin:k=0"]]


def test_scenario_unknown_name(tmp_path):
    assert run(tmp_path, "scenario", "--scenario", "nope",
               "--out", str(tmp_path)) == 2


def test_small_benchmark_outputs_keep_their_bytes(tmp_path):
    # the modes evolve, delay evolve, eigs 49x49, scenario and verify --suite
    # all jobs of scripts/output_digest.py, run in process, against the
    # SHA-256 of each file recorded with the versions the golden names, the
    # two cache files and their crc names too; a change that moves a byte on
    # purpose records the golden again and says why
    import hashlib
    import importlib.util

    import numpy as np

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "output_digest", os.path.join(root, "scripts", "output_digest.py"))
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    golden = json.load(open(os.path.join(root, "tests", "golden", "cli_output_sha256.json")))
    for argv in digest.jobs(tmp_path):
        if (argv[0] in ("verify", "scenario") or argv[:len(digest.MODES)] == digest.MODES
                or argv[:len(digest.EVOLVE)] == digest.EVOLVE or "48" in argv):
            assert main(argv) == 0
    now = {"code_version": kernel.CODE_VERSION, "numpy": np.__version__,
           "python": sys.version.split()[0]}
    for name, sha in golden["files"].items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == sha, (f"{name} differs from its golden, recorded with "
                            f"{golden['recorded_with']}; this run has {now}")


def test_one_log_bound_serves_the_column_and_the_ratio_bounds(tmp_path, monkeypatch,
                                                              table_factory):
    # lambda / log(2n + l + shift)^(2/s) has one divisor, kernel._log_bound's,
    # one math.log per K = 2n + l: no other code takes a log for it, and the
    # eigs column, ratio_bounds and embedding_estimate agree to the bit
    import re

    from dyboltz import spaces
    for code in (inspect.getsource(cli), inspect.getsource(kernel.ratio_bounds),
                 inspect.getsource(spaces.embedding_estimate)):
        assert not re.search(r"(math|np)\.log\(|\*\* \(2", code)
    tab = table_factory(0.5, 200, 200)
    modes = [(n, l) for n in range(201) for l in range(201)]

    def ratios(shift, lams, least):  # over the modes with n + l >= least
        div = [math.log(k + shift) ** (2.0 / 0.5) for k in range(601)]
        return [lams(n, l) / div[2 * n + l] for n, l in modes if n + l >= least]

    assert (kernel.ratio_bounds(tab, spaces.W_SHIFT).c_min
            == min(ratios(spaces.W_SHIFT, tab.lam, 2)))
    # lambda~ / (2 log W^(2/s)): lambda~ is 1 on the null modes
    tilde = ratios(spaces.W_SHIFT, lambda n, l: (tab.lam(n, l) or 1.0) / 2.0, 0)
    est = spaces.embedding_estimate(tab, 0.5)
    assert (est.tau1_hat, est.tau2_hat) == (min(tilde), max(tilde))
    monkeypatch.setattr(cli, "eigenvalue_table", lambda *a, **k: tab)
    assert run(tmp_path, "eigs", "--s", "0.5", "--nmax", "200", "--lmax", "200",
               "--out", str(tmp_path)) == 0
    with open(tmp_path / "eigs_s0.5_n200_l200.csv") as fh:
        column = [float(row["ratio_to_log_bound"]) for row in csv.DictReader(fh)
                  if int(row["n"]) + int(row["l"]) >= 2]
    rb = kernel.ratio_bounds(tab)
    assert (rb.c_min, rb.c_max) == (min(column), max(column))
