"""Command-line front end.

Subcommands
-----------
eigs      build (or reuse from cache) an eigenvalue table and write it with
          ratio and asymptotic columns
evolve    evolve initial data and tabulate norms over a time grid
verify    run a named verification suite; exit 1 on any failed check
scenario  sweep the series-data tail classifier over t (and k) grids

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 quadrature convergence failure.

File outputs are written atomically; identical configuration plus an intact
cache reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .basis import SpectralField
from .errors import CacheError, QuadratureConvergenceError
from .kernel import (KernelParams, QuadratureSpec, _atomic_write, _dumps_with_rows, _json_text,
                     _log_bound, _panel_rules, _row_chunks, asymptotic_leading, eigenvalue_table,
                     load_table, save_table, table_version)
from .kernel import radial_eigenvalues  # not called; the benchmark tracer wraps this name
from .solver import (DelaySeries, EvolutionReport, S2DelaySeries, SobolevSeries,
                     _sorted_times, classify_frontier, series_tail_classify)
from .spaces import NormSpec, _parse_spec, parse_norm_spec

USAGE_ERROR = 2
VERIFY_FAILURE = 1
CONVERGENCE_FAILURE = 3


class UsageError(Exception):
    pass


def _params(args) -> KernelParams:
    try:
        return KernelParams(s=args.s)
    except ValueError as exc:
        raise UsageError(f"--s: {exc}") from None


def _get_table(args, nmax: int, lmax: int):
    """The nmax x lmax table, served from the cache file named by its ``table_version``."""
    params = _params(args)
    try:
        quad = QuadratureSpec(max_panels=args.max_panels)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    cache_path = None
    if args.cache_dir:
        cache_path = os.path.join(args.cache_dir,
                                  f"eigs-{table_version(params, quad)}-n{nmax}-l{lmax}.json")
        if os.path.exists(cache_path):
            table = load_table(cache_path, params, quad)
            if (table.nmax, table.lmax) != (nmax, lmax):
                raise CacheError(f"{cache_path} holds nmax={table.nmax}, lmax={table.lmax}, "
                                 f"not the nmax={nmax}, lmax={lmax} of its name")
            return table, True
    try:  # beta must be finite at every node; the innermost panels overflow it for a small s
        _panel_rules(params, quad)
    except ValueError as exc:
        raise UsageError(f"--s {params.s:g} with --max-panels {quad.max_panels}: {exc}; "
                         f"a larger --s or a smaller --max-panels keeps it finite") from None
    table = eigenvalue_table(nmax, lmax, params, quad, workers=args.workers)
    if cache_path:
        save_table(table, cache_path)
    return table, False


# ---------------------------------------------------------------------------
# eigs
# ---------------------------------------------------------------------------

def cmd_eigs(args) -> int:
    if min(args.nmax, args.lmax) < 0:
        raise UsageError("--nmax and --lmax must be nonnegative")
    K, s = 2 * args.nmax + args.lmax, _params(args).s
    try:  # the ratio column's divisors; asymptotic_leading stays below them
        bound = _log_bound(K, s)
    except OverflowError:
        raise UsageError(f"--s {s:g} is too small for 2 nmax + lmax = {K}: "
                         f"log(K + e)^(2/s) overflows a double") from None
    table, from_cache = _get_table(args, args.nmax, args.lmax)
    text = repr if args.format == "csv" else lambda x: repr(x) if math.isfinite(x) else "null"
    # both extra columns depend on (n, l) only through K = 2n + l: one Python
    # expression per K, then one IEEE division per entry, which rounds as `/` does
    n, l = np.indices(table.lams.shape)
    K = (2 * n + l).ravel()
    ratio = table.lams.ravel() / bound[K]
    ratio[(n + l).ravel() < 2] = math.nan
    asym = [text(asymptotic_leading(k // 2, k % 2, table.params) if k >= 3 else math.nan)
            for k in range(len(bound))]
    rows = map(",".join, zip(table._row_texts, map(text, ratio.tolist()),
                             map(asym.__getitem__, K.tolist())))
    name = f"eigs_s{s:g}_n{args.nmax}_l{args.lmax}.{args.format}"
    path = os.path.join(args.out, name)
    if args.format == "csv":  # in pieces of lines, as the JSON output and the cache file
        chunks = itertools.chain([["n,l,lambda,err,ratio_to_log_bound,asymptotic_leading"]],
                                 _row_chunks(rows))
        out = ("\n".join([*chunk, ""]) for chunk in chunks)
    else:
        out = _dumps_with_rows({"s": s, "nmax": args.nmax, "lmax": args.lmax,
                                "version": table_version(table.params, table.quad),
                                "columns": ["n", "l", "lambda", "err",
                                            "ratio_to_log_bound", "asymptotic_leading"]},
                               rows)
    _atomic_write(path, out)
    print(f"{'cache hit' if from_cache else 'built'}: {path}")
    return 0


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

_SERIES = {"delay": DelaySeries, "s2delay": S2DelaySeries, "sobolev": SobolevSeries}


def _parse_init(text: str):
    text = text.strip()
    kind, _, rest = text.partition(":")
    try:
        if kind.lower() == "modes":
            modes, amps = [], []
            for chunk in rest.split(";"):
                n, l, m, re, im = (x.strip() for x in chunk.split(","))
                modes.append((int(n), int(l), int(m)))
                amps.append(complex(float(re), float(im)))
            return SpectralField((modes, amps), label=text)
        kind, args = _parse_spec(text, {name: tuple(f.name for f in fields(series))
                                        for name, series in _SERIES.items()})
        return _SERIES[kind](**{key: (int if key == "N" else float)(value)
                                for key, value in args.items()})
    except (TypeError, ValueError) as exc:  # TypeError: a required argument is missing
        raise UsageError(f"bad --init {text!r}: {exc}") from None


def _parse_norms(text: str):
    try:
        return [parse_norm_spec(p) for p in text.split(";") if p.strip()]
    except ValueError as exc:
        raise UsageError(f"--norms: {exc}") from None


def _parse_times(text: str):
    """The times in the order given; UsageError unless each is finite, nonnegative
    and distinct, and there is at least one."""
    try:
        times = [float(x) for x in text.split(",") if x.strip()]
        _sorted_times(times)
    except ValueError as exc:
        raise UsageError(f"bad --times {text!r}: {exc}") from None
    if not times:
        raise UsageError("--times must list at least one time")
    return times


def cmd_evolve(args) -> int:
    init = _parse_init(args.init)
    norms = _parse_norms(args.norms)
    times = _parse_times(args.times)
    if isinstance(init, SpectralField):
        field = init
        nmax, lmax = field.nlm[:, :2].max(axis=0, initial=0).tolist()
        table, _ = _get_table(args, nmax, lmax)
    else:
        table, _ = _get_table(args, init.N, 0)
        try:  # the amplitudes read lambda, so only the table can show they overflow
            field = init.field(table.lams[:, 0])
        except ValueError as exc:
            raise UsageError(f"bad --init {args.init!r}: {exc}") from None
    report = EvolutionReport.compute(field, times, norms, table)
    path = os.path.join(args.out, f"evolve_s{table.params.s:g}.{args.format}")
    _atomic_write(path, report.to_csv() if args.format == "csv" else report.to_json())
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    from . import verify  # only this command pays for importing the checks

    s = _params(args).s  # also for the suites that build no table
    try:
        results = verify.run_suite(args.suite, s=s)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    doc = {"suite": args.suite, "s": s,
           "checks": [r.to_json_dict() for r in results],
           "passed": bool(all(r.passed for r in results))}
    path = os.path.join(args.out, f"verify_{args.suite}.json")
    _atomic_write(path, _json_text(doc))
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: measured "
              f"{r.measured:.6g} vs {r.threshold:.6g} {r.detail}")
    print(f"report: {path}")
    return 0 if doc["passed"] else VERIFY_FAILURE


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------

def cmd_scenario(args) -> int:
    name, N = args.scenario, args.series_n
    specs = {"remark14": lambda: DelaySeries(tau0=args.tau0, N=N),
             "example41": lambda: S2DelaySeries(N=N),
             "example42": lambda: SobolevSeries(tau=args.tau, N=N)}
    if name not in specs:
        raise UsageError(f"unknown scenario {name!r}; choose remark14, example41 or example42")
    ts = _parse_times(args.times) if args.times else None
    try:  # each (k column, t grid, norms) to classify, all checked before the table is built
        spec = specs[name]()
        if name == "remark14":
            grid = [round(args.tau0 * f, 6) for f in (0.2, 0.5, 0.8, 0.95, 1.05, 1.2, 2.0, 4.0)]
            plan = [((), ts or grid, [NormSpec.l2()])]
        else:
            ks = ([float(x) for x in args.k_grid.split(",")] if name == "example41"
                  else [args.tau, args.tau_prime])
            if len(set(ks)) < len(ks):
                given = (f"--k-grid {args.k_grid!r}" if name == "example41" else
                         f"--tau {args.tau:g} with --tau-prime {args.tau_prime:g}")
                raise ValueError(f"{given} repeats an order")
            norms = [NormSpec.shubin(k) for k in ks]
            plan = ([((), ts or [0.5, 1.0, 2.0, 5.0, 10.0], norms)] if name == "example42" else
                    [((k,), ts or [round(k * f, 6) for f in (0.25, 0.5, 0.8, 1.0, 1.2, 1.6, 2.4)],
                      [norm]) for k, norm in zip(ks, norms)])
        for extra, grid, _ in plan:  # a default grid keeps the --times rule too
            try:
                _sorted_times(grid)
            except ValueError as exc:
                given = f"--k-grid k = {extra[0]:g}" if extra else f"--tau0 {args.tau0:g}"
                raise ValueError(f"{given} gives the default times {grid}: {exc}") from None
    except ValueError as exc:
        raise UsageError(f"scenario {name}: {exc}") from None
    table, _ = _get_table(args, N, 0)
    header = "t,norm,classification,p_hat,window_growth_log10,log10_tail_estimate"
    if name == "example41":
        header, frontier = "k," + header, ["k,t_star"]
        for k in ks:
            try:
                frontier.append(f"{k!r},{classify_frontier(spec, k, table)!r}")
            except ValueError as exc:
                raise UsageError(f"scenario example41, --s {args.s:g}, k = {k:g}: {exc}") from None
        fpath = os.path.join(args.out, "scenario_example41_frontier.csv")
        _atomic_write(fpath, "\n".join(frontier) + "\n")
        print(f"wrote {fpath}")
    rows = [header] + [",".join(map(str, (*extra, t, norm, v.classification, v.p_hat,
                                          v.window_growth_log10, v.log10_tail_estimate)))
                       for extra, grid, norms in plan for t in grid for norm in norms
                       for v in [series_tail_classify(spec, t, norm, table)]]
    path = os.path.join(args.out, f"scenario_{name}.csv")
    _atomic_write(path, "\n".join(rows) + "\n")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dyboltz",
        description="Spectral toolkit for the linearized Boltzmann equation "
                    "with the canonical Debye-Yukawa kernel "
                    "beta(theta) = (sin theta)^-1 (log 1/sin theta)^(2/s-1).")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--s", type=float, default=2.0,
                       help="Debye-Yukawa exponent, finite and > 0 (default 2)")
        p.add_argument("--out", default=".", help="output directory")

    def table_options(p):  # for the subcommands that get tables through _get_table
        common(p)
        p.add_argument("--max-panels", type=int, default=72,
                       help="dyadic panels an eigenvalue may take before exit 3 (default 72)")
        p.add_argument("--cache-dir", default=None,
                       help="eigenvalue cache directory (one file per table key and shape)")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel workers for table construction, at most the CPU "
                            "count; a table of fewer than 90,000 entries, or of one column "
                            "(so every scenario table), is built serially whatever this "
                            "says")

    p = sub.add_parser("eigs", help="build and export an eigenvalue table")
    table_options(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--nmax", type=int, default=64)
    p.add_argument("--lmax", type=int, default=64)
    p.set_defaults(fn=cmd_eigs)

    p = sub.add_parser("evolve", help="evolve initial data and tabulate norms")
    table_options(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--init", required=True,
                   help="modes:n,l,m,re,im;... | delay:tau0=T[,N=..] | "
                        "s2delay:[N=..] | sobolev:tau=T[,N=..]")
    p.add_argument("--times", required=True, help="comma-separated times")
    p.add_argument("--norms", default="l2",
                   help="semicolon-separated norm specs, e.g. "
                        "'l2;shubin:k=2;logsob:tau=1,nu=2;domain:tau=0.5'")
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", required=True,
                   help="specfun | kernel | basis | spaces | solver | all")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("scenario", help="tail-classifier sweeps for the series data")
    table_options(p)
    p.add_argument("--scenario", required=True,
                   help="remark14 | example41 | example42")
    p.add_argument("--times", default=None, help="override the t grid")
    p.add_argument("--tau0", type=float, default=0.5, help="remark14 delay time")
    p.add_argument("--k-grid", default="1,2,4", help="example41 Shubin orders")
    p.add_argument("--tau", type=float, default=1.0, help="example42 tau")
    p.add_argument("--tau-prime", type=float, default=2.0, help="example42 tau'")
    p.add_argument("--series-n", type=int, default=10000, help="series truncation")
    p.set_defaults(fn=cmd_scenario)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except QuadratureConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return CONVERGENCE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
