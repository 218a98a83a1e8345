"""Span recorder for the traced run, and the per-layer metrics computed from it.

Spans are recorded from the benchmark's side only: ``install`` replaces the
public names each dyboltz layer exposes to its caller (for example
``dyboltz.cli.eigenvalue_table`` and ``dyboltz.kernel.legendre_all``) with
wrappers, and ``uninstall`` puts the originals back.  A span holds name,
start, end, parent span and job id, plus counts taken from the call's
arguments (eigenvalues requested) or from file sizes (cache bytes).  Spans
stay in memory until ``dump``.

A layer's self time is its span's duration minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import time
from collections import defaultdict

from dyboltz import basis, cli, kernel, solver, spaces, verify


def _entries(b, n_lo, n_hi, l_lo, l_hi):
    """Span attributes of a quadrature call: the (n, l) rectangle it computes."""
    q = b["quad"]
    return {"quad_key": [b["params"].s, q.rel_tol, q.abs_tol, q.max_panels,
                         q.nodes_per_panel],
            "modes": [n_lo, n_hi, l_lo, l_hi],
            "entries": (n_hi - n_lo + 1) * (l_hi - l_lo + 1)}


def _table(b):
    return _entries(b, 0, b["nmax"], 0, b["lmax"])


def _radial(b):
    return _entries(b, 0, b["nmax"], 0, 0)


def _file_bytes(b):
    return {"bytes": os.path.getsize(b["path"])}


class Tracer:
    """Records spans around the wrapped layer boundaries while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def call(self, name, fn, *args, attrs=None, after=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span.

        ``attrs`` are stored on the span; ``after()`` returns more attributes
        once the call has returned.
        """
        rec = {"name": name, "job": self.job,
               "parent": self._stack[-1] if self._stack else None, **(attrs or {})}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            rec.update(after())
        return result

    # -- wrapping ----------------------------------------------------------
    def wrap(self, owner, attr, name, before=None, after=None, **extra):
        """Replace owner.attr by a span-recording wrapper.

        ``before`` and ``after`` map the call's arguments (defaults applied)
        to span attributes, before the call and after it returned; ``extra``
        attributes are stored on every span.
        """
        raw = owner.__dict__[attr]
        fn = getattr(owner, attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            b = sig.bind(*a, **kw)
            b.apply_defaults()
            attrs = dict(extra, **(before(b.arguments) if before else {}))
            return self.call(name, fn, *a, attrs=attrs,
                             after=after and (lambda: after(b.arguments)), **kw)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, raw))

    def install(self):
        w = self.wrap
        w(kernel, "legendre_all", "specfun.legendre_all")
        for owner, via in ((cli, "cli"), (kernel, "kernel")):
            w(owner, "eigenvalue_table", "kernel.eigenvalue_table", before=_table, via=via)
            w(owner, "radial_eigenvalues", "kernel.radial_eigenvalues", before=_radial,
              via=via)
            w(owner, "load_table", "kernel.load_table", before=_file_bytes, via=via)
        w(solver, "radial_eigenvalues", "kernel.radial_eigenvalues", before=_radial,
          via="solver")
        w(kernel, "eigenvalue", "kernel.eigenvalue",
          before=lambda b: _entries(b, b["n"], b["n"], b["l"], b["l"]))
        w(cli, "save_table", "kernel.save_table", after=_file_bytes)
        w(basis.SpectralField, "__init__", "basis.SpectralField",
          after=lambda b: {"modes": len(b["self"].coeffs)})
        for owner in (basis, solver):
            w(owner, "project_null", "basis.project_null")
        for owner in (spaces, solver):
            w(owner, "spectral_norm", "spaces.spectral_norm")
        w(solver, "evolve", "solver.evolve", before=lambda b: {"modes": len(b["g"].coeffs)})
        w(solver.EvolutionReport, "compute", "solver.EvolutionReport.compute")
        for owner in (solver, cli):
            w(owner, "series_tail_classify", "solver.series_tail_classify")
            w(owner, "classify_frontier", "solver.classify_frontier")
        for attr in ("rate1_check", "decay_check_thm12", "rate1_certificate"):
            w(solver, attr, f"solver.{attr}")
        w(verify, "run_suite", "verify.run_suite")
        for suite, fns in verify.SUITES.items():
            self._undo.append((fns, slice(None), list(fns)))
            fns[:] = [self._suite_check(suite, fn) for fn in fns]

    def _suite_check(self, suite, fn):
        # run_suite passes s only to checks declaring two parameters, so the
        # wrapper keeps the check's arity
        name = f"verify.run_suite.{suite}"
        if fn.__code__.co_argcount == 2:
            def check(rng, s):
                return self.call(name, fn, rng, s)
        else:
            def check(rng):
                return self.call(name, fn, rng)
        return check

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if isinstance(attr, slice):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _outermost(spans, name):
    """Spans called ``name`` that have no ancestor of the same name."""
    out = []
    for sp in spans:
        if sp["name"] != name:
            continue
        p = sp["parent"]
        while p is not None and spans[p]["name"] != name:
            p = spans[p]["parent"]
        if p is None:
            out.append(sp)
    return out


def _dur(sp):
    return sp["end"] - sp["start"]


def layer_metrics(spans, jobs) -> dict:
    """Per-layer metrics of one traced pass.

    ``jobs`` maps job id -> (command, argv) for the pass.  Returns
    {name: (value, unit)}.  Counts are taken from call arguments and file
    sizes, not measured.
    """
    child_time = defaultdict(float)
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] += _dur(sp)

    def tot(name):
        return sum(_dur(sp) for sp in _outermost(spans, name))

    def calls(name):
        return len(_outermost(spans, name))

    def self_time(name):
        return sum(_dur(sp) - child_time[i] for i, sp in enumerate(spans)
                   if sp["name"] == name)

    m = {}
    m["specfun.legendre_all.s"] = (tot("specfun.legendre_all"), "s")
    m["specfun.legendre_all.calls"] = (calls("specfun.legendre_all"), "count")

    builds = _outermost(spans, "kernel.eigenvalue_table")
    build_s = sum(_dur(sp) for sp in builds)
    build_entries = sum(sp["entries"] for sp in builds)
    m["kernel.eigenvalue_table.s"] = (build_s, "s")
    m["kernel.eigenvalue_table.entries_per_s"] = (
        build_entries / build_s if build_s > 0 else 0.0, "1/s")
    m["kernel.radial_eigenvalues.s"] = (tot("kernel.radial_eigenvalues"), "s")
    m["kernel.radial_eigenvalues.calls"] = (calls("kernel.radial_eigenvalues"), "count")

    entries, dupes = _quadrature_counts(spans)
    m["kernel.quadrature.entries"] = (entries, "count")
    m["kernel.quadrature.duplicate_ratio"] = (dupes / entries if entries else 0.0, "ratio")

    lookups, hits, rebuilds = _cache_counts(spans, jobs)
    m["kernel.cache.lookups"] = (lookups, "count")
    m["kernel.cache.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    m["kernel.cache.rebuilds"] = (rebuilds, "count")
    for op in ("save_table", "load_table"):
        sps = _outermost(spans, f"kernel.{op}")
        m[f"kernel.{op}.s"] = (sum(_dur(sp) for sp in sps), "s")
        m[f"kernel.{op}.bytes"] = (sum(sp["bytes"] for sp in sps), "bytes")

    fields = _outermost(spans, "basis.SpectralField")
    m["basis.SpectralField.s"] = (sum(_dur(sp) for sp in fields), "s")
    m["basis.SpectralField.modes"] = (sum(sp["modes"] for sp in fields), "count")
    m["basis.project_null.s"] = (tot("basis.project_null"), "s")
    m["spaces.spectral_norm.s"] = (tot("spaces.spectral_norm"), "s")
    m["spaces.spectral_norm.calls"] = (calls("spaces.spectral_norm"), "count")

    evolves = _outermost(spans, "solver.evolve")
    evolve_s = sum(_dur(sp) for sp in evolves)
    m["solver.evolve.s"] = (evolve_s, "s")
    m["solver.evolve.modes_per_s"] = (
        sum(sp["modes"] for sp in evolves) / evolve_s if evolve_s > 0 else 0.0, "1/s")
    m["solver.EvolutionReport.compute.self_s"] = (
        self_time("solver.EvolutionReport.compute"), "s")
    m["solver.series_tail_classify.s"] = (tot("solver.series_tail_classify"), "s")
    m["solver.series_tail_classify.calls"] = (calls("solver.series_tail_classify"), "count")
    m["solver.classify_frontier.s"] = (tot("solver.classify_frontier"), "s")
    m["solver.classify_frontier.bisection_calls"] = (
        sum(1 for sp in spans if sp["name"] == "solver.series_tail_classify"
            and sp["parent"] is not None
            and spans[sp["parent"]]["name"] == "solver.classify_frontier"), "count")
    for attr in ("rate1_check", "decay_check_thm12", "rate1_certificate"):
        m[f"solver.{attr}.s"] = (tot(f"solver.{attr}"), "s")

    for suite in verify.SUITES:
        m[f"verify.run_suite.{suite}.s"] = (tot(f"verify.run_suite.{suite}"), "s")

    for cmd in ("eigs", "evolve", "scenario", "verify"):
        m[f"cli.{cmd}.self_s"] = (self_time(f"cli.{cmd}"), "s")
    m["cli.output.bytes"] = (sum(sp.get("output_bytes", 0) for sp in spans
                                 if sp["name"].startswith("cli.")
                                 and sp["parent"] is None), "bytes")
    return m


def _quadrature_counts(spans):
    """(entries computed, entries computed more than once within one job)."""
    by_job = defaultdict(list)
    for name in ("kernel.eigenvalue_table", "kernel.radial_eigenvalues",
                 "kernel.eigenvalue"):
        for sp in _outermost(spans, name):
            by_job[sp["job"]].append(sp)
    entries = dupes = 0
    for sps in by_job.values():
        seen = set()
        for sp in sps:
            key = tuple(sp["quad_key"])
            n_lo, n_hi, l_lo, l_hi = sp["modes"]
            for mode in itertools.product(range(n_lo, n_hi + 1), range(l_lo, l_hi + 1)):
                if (key, mode) in seen:
                    dupes += 1
                seen.add((key, mode))
            entries += sp["entries"]
    return entries, dupes


def _cache_counts(spans, jobs):
    """(lookups, hits, rebuilds) of the CLI's table cache.

    Inside a CLI job run with --cache-dir, a lookup that loads a file and
    then builds is a rebuild (the cached table was too small), one that
    loads without building is a hit, and a build with no load is a miss.
    """
    lookups = hits = rebuilds = 0
    for job, (_cmd, argv) in jobs.items():
        if "--cache-dir" not in argv:
            continue
        events = [sp["name"] for sp in spans if sp["job"] == job
                  and sp.get("via") == "cli"
                  and sp["name"] in ("kernel.load_table", "kernel.eigenvalue_table")]
        i = 0
        while i < len(events):
            lookups += 1
            if events[i] == "kernel.load_table":
                if i + 1 < len(events) and events[i + 1] == "kernel.eigenvalue_table":
                    rebuilds += 1
                    i += 1
                else:
                    hits += 1
            i += 1
    return lookups, hits, rebuilds
