"""Output checks for the benchmark jobs.

Every check returns a list of failure messages; an empty list means the
job's outputs match.  The checks read only files: the CSV/JSON the program
wrote, the committed references in ``refs.json`` (recorded by
``make_refs.py``) and the golden eigenvalues shipped with the package.
They are pure Python so the untraced harness never imports numpy.

Tolerances, all relative unless stated:

* eigenvalues against the recorded sample: 1e-10 (the quadrature rel_tol);
* evolution and norm values: 1e-12 (the bound allowed for reordered sums);
* golden eigenvalues (s in {0.5, 2} and any other s the table has): 1e-7;
* the s = 2 gap against (2/3)(1 - 2^(-3/2)): 1e-8;
* null modes (0,0), (1,0), (0,1): exactly 0;
* tail classifications: identical strings.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

EIG_REL = 1e-10
VALUE_REL = 1e-12
GOLDEN_REL = 1e-7
GAP_REL = 1e-8
GAP_S2 = (2.0 / 3.0) * (1.0 - 2.0 ** -1.5)
NULL_MODES = ((0, 0), (1, 0), (0, 1))
W_SHIFT = 1.5 + math.e

GOLDEN_CSV = Path(__file__).resolve().parent.parent / "src" / "dyboltz" / "data" \
    / "golden_eigenvalues.csv"


def _rel_miss(got: float, want: float, rel: float) -> bool:
    return not abs(got - want) <= rel * abs(want)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _missing(path: Path) -> list[str]:
    return [] if path.is_file() else [f"{path.name}: output missing"]


def golden_rows() -> list[tuple[int, int, float, float]]:
    """(n, l, s, lambda) rows of the package's golden eigenvalue file."""
    return [(int(r["n"]), int(r["l"]), float(r["s"]), float(r["lambda"]))
            for r in _read_csv(GOLDEN_CSV)]


def eigs_lambda(path: Path) -> dict:
    return {(int(r["n"]), int(r["l"])): float(r["lambda"]) for r in _read_csv(path)}


def evolve_rows(path: Path) -> list:
    return [[float(r["time"]), r["norm"], float(r["value"])] for r in _read_csv(path)]


def verdict_rows(path: Path) -> list:
    """Key columns (k, t, norm) and the classification of each scenario row."""
    return [[r[c] for c in r if c in ("k", "t", "norm", "classification")]
            for r in _read_csv(path)]


def frontier_rows(path: Path) -> list:
    return [[float(r["k"]), float(r["t_star"])] for r in _read_csv(path)]


def eigs_csv(path: Path, s: float, nmax: int, lmax: int, sample) -> list[str]:
    """An ``eigs`` CSV: shape, null modes, recorded sample, goldens, s=2 gap.

    ``sample`` is a list of recorded ``[n, l, lambda]`` for this s and size.
    """
    if _missing(path):
        return _missing(path)
    lam = eigs_lambda(path)
    fails = []
    if len(lam) != (nmax + 1) * (lmax + 1):
        fails.append(f"{path.name}: {len(lam)} rows, expected {(nmax + 1) * (lmax + 1)}")
    for mode in NULL_MODES:
        if lam.get(mode) != 0.0:
            fails.append(f"{path.name}: null mode {mode} lambda {lam.get(mode)!r} != 0")
    for n, l, want in sample:
        got = lam.get((n, l))
        if got is None or _rel_miss(got, want, EIG_REL):
            fails.append(f"{path.name}: lambda({n},{l}) = {got!r}, reference {want!r}")
    for n, l, gs, want in golden_rows():
        if gs == s and (n, l) in lam and _rel_miss(lam[(n, l)], want, GOLDEN_REL):
            fails.append(f"{path.name}: golden lambda({n},{l}) = {lam[(n, l)]!r}, "
                         f"oracle {want!r}")
    if s == 2.0 and (2, 0) in lam and _rel_miss(lam[(2, 0)], GAP_S2, GAP_REL):
        fails.append(f"{path.name}: gap {lam[(2, 0)]!r} vs closed form {GAP_S2!r}")
    return fails


def evolve_csv(path: Path, ref_rows) -> list[str]:
    """An ``evolve`` CSV (time, norm, value) against recorded rows."""
    if _missing(path):
        return _missing(path)
    rows = evolve_rows(path)
    if len(rows) != len(ref_rows):
        return [f"{path.name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    fails = []
    for (t, norm, v), (rt, rnorm, rv) in zip(rows, ref_rows):
        if [t, norm] != [rt, rnorm] or _rel_miss(v, rv, VALUE_REL):
            fails.append(f"{path.name}: ({t},{norm}) = {v!r}, reference ({rt},{rnorm}) = {rv!r}")
    return fails


def verdict_csv(path: Path, ref_rows) -> list[str]:
    """A scenario CSV: every row's key columns and classification identical."""
    if _missing(path):
        return _missing(path)
    rows = verdict_rows(path)
    if rows != ref_rows:
        diff = [(a, b) for a, b in zip(rows, ref_rows) if a != b][:3]
        return [f"{path.name}: verdicts differ from reference "
                f"({len(rows)} vs {len(ref_rows)} rows; first: {diff})"]
    return []


def frontier_csv(path: Path, ref_rows) -> list[str]:
    """The example41 frontier t*(k) against recorded values."""
    if _missing(path):
        return _missing(path)
    rows = frontier_rows(path)
    if [k for k, _ in rows] != [k for k, _ in ref_rows]:
        return [f"{path.name}: k grid {rows} vs reference {ref_rows}"]
    return [f"{path.name}: t*({k}) = {t!r}, reference {rt!r}"
            for (k, t), (_, rt) in zip(rows, ref_rows) if _rel_miss(t, rt, VALUE_REL)]


def verify_json(path: Path) -> list[str]:
    if _missing(path):
        return _missing(path)
    doc = json.loads(path.read_text())
    if doc.get("passed") is not True:
        bad = [c.get("name") for c in doc.get("checks", []) if not c.get("passed")]
        return [f"{path.name}: passed is not true (failed checks: {bad})"]
    return []


# ---------------------------------------------------------------------------
# fields_warm library job: an independent re-computation from the inputs
# ---------------------------------------------------------------------------

def _load_cache_lam(cache_path: Path) -> dict:
    doc = json.loads(cache_path.read_text())
    return {(int(n), int(l)): float(lam) for n, l, lam, _ in doc["rows"]}


def _load_field(field_path: Path) -> list[tuple[int, int, float]]:
    """(n, l, |amplitude|^2) per mode of a SpectralField JSON file."""
    doc = json.loads(field_path.read_text())
    return [(int(n), int(l), re * re + im * im) for n, l, _m, re, im in doc["rows"]]


def _weight(norm: str, n: int, l: int, lam: float) -> float:
    """The squared-sum weights of the three norms the library job uses."""
    W = 2 * n + l + W_SHIFT
    if norm == "l2":
        return 1.0
    if norm.startswith("shubin:k="):
        return W ** float(norm.split("=")[1])
    if norm.startswith("domain:tau="):
        return math.exp(float(norm.split("=")[1]) * (1.0 if n + l <= 1 else lam))
    raise ValueError(f"oracle has no weight for norm {norm!r}")


def _norm(terms) -> float:
    return math.sqrt(math.fsum(terms))


def fields_result(result_path: Path, cache_path: Path, field_path: Path,
                  s: float, cert_ref: dict | None) -> list[str]:
    """The library job's JSON result against an independent pure-Python recomputation.

    The field is seeded, so its norms cannot be recorded once; they are
    recomputed here with correctly rounded sums (math.fsum) from the cache
    file the program read and the field file the harness wrote.  The
    certificate depends only on the table and is compared with the recorded
    reference.
    """
    if _missing(result_path):
        return _missing(result_path)
    res = json.loads(result_path.read_text())
    lam = _load_cache_lam(cache_path)
    modes = [(n, l, a2, 0.0 if n + l <= 1 else lam[(n, l)])
             for n, l, a2 in _load_field(field_path)]
    fails = []

    def close(what, got, want):
        if _rel_miss(got, want, VALUE_REL):
            fails.append(f"fields: {what} = {got!r}, recomputed {want!r}")

    rep = res["report"]
    for i, t in enumerate(rep["times"]):
        for j, norm in enumerate(rep["norms"]):
            want = _norm(_weight(norm, n, l, lm) * a2 * math.exp(-2.0 * lm * t)
                         for n, l, a2, lm in modes)
            close(f"report[{t}][{norm}]", rep["values"][i][j], want)

    c_min = min(v / math.log(2 * n + l + W_SHIFT) ** (2.0 / s)
                for (n, l), v in lam.items() if n + l >= 2)
    c0 = 0.5 * c_min * math.log(2.0 + W_SHIFT) ** (2.0 / s - 1.0)
    gap = lam[(2, 0)]
    orth = [m for m in modes if m[0] + m[1] >= 2]

    r1 = res["rate1"]
    t = r1["t"]
    lhs = _norm((2 * n + l + W_SHIFT) ** (2.0 * c0 * t) * a2 * math.exp(-2.0 * lm * t)
                for n, l, a2, lm in orth)
    rhs = math.exp(-0.5 * gap * t) * _norm(a2 for _, _, a2, _ in orth)
    close("rate1.c0", r1["c0"], c0)
    close("rate1.lhs", r1["lhs"], lhs)
    close("rate1.rhs", r1["rhs"], rhs)
    if r1["holds"] != (lhs <= rhs * (1.0 + 1e-12)):
        fails.append(f"fields: rate1.holds = {r1['holds']}")

    d = res["thm12"]
    t, t0 = d["t"], d["t0"]
    lhs = _norm(math.exp(2.0 * t * c0 * math.log(2 * n + l + W_SHIFT) ** (2.0 / s))
                * a2 * math.exp(-2.0 * lm * t) for n, l, a2, lm in orth)
    base = _norm(math.exp(-2.0 * t0 * math.log(2 * n + l + W_SHIFT) ** (2.0 / s)) * a2
                 for n, l, a2, _ in orth)
    rhs = math.exp(-0.5 * gap * t) * base
    close("thm12.lhs", d["lhs"], lhs)
    close("thm12.rhs", d["rhs"], rhs)
    if d["holds"] != (lhs <= rhs * (1.0 + 1e-12)):
        fails.append(f"fields: thm12.holds = {d['holds']}")

    cert = res["certificate"]
    close("certificate.c0", cert["c0"], c0)
    if cert_ref is not None:
        if cert["ok"] is not cert_ref["ok"] or cert["worst_mode"] != cert_ref["worst_mode"]:
            fails.append(f"fields: certificate {cert} vs reference {cert_ref}")
        if abs(cert["worst_margin"] - cert_ref["worst_margin"]) > 1e-12 * 0.5 * gap:
            fails.append(f"fields: certificate margin {cert['worst_margin']!r} vs "
                         f"reference {cert_ref['worst_margin']!r}")
    return fails
