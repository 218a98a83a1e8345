#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against (refs.json).

Runs one pass of ``tables_cold`` and ``series_scenarios`` at the full and
the tiny sizes through the CLI and keeps:

* eigenvalues at a fixed seeded sample of (n, l) for s = 2, 0.5 (full
  table) and s = 1 (the series_scenarios table), including the edges;
* the ``evolve`` CSV values;
* every scenario verdict and the example41 frontier;
* the s = 2 rate-1 certificate (c0, worst margin and mode), which depends
  only on the table.

Run from the repository root after a change that is meant to alter these
outputs, and say why in CHANGES.md:

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import checks
import run

SAMPLE = {"full": 60, "tiny": 20}


def _sample(lam: dict, nmax: int, lmax: int, count: int, tag: str):
    rng = random.Random(f"refs:{tag}")
    modes = {(nmax, 0), (0, lmax), (nmax, lmax), (2, 0), (0, 2), (1, 1)}
    while len(modes) < count:
        modes.add((rng.randint(0, nmax), rng.randint(0, lmax)))
    return [[n, l, lam[(n, l)]] for n, l in sorted(modes)]


def record(sizes: run.Sizes) -> dict:
    empty = {"eigs": {"2": [], "0.5": [], "1": []}, "evolve": [], "certificate": None,
             "scenarios": {"remark14": [], "example41": [], "example42": [],
                           "example41_frontier": []}}
    work = run.WORK / f"refs-{sizes.name}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    runner = run.ChildRunner(work / "logs")
    refs = {"eigs": {}, "scenarios": {}}
    try:
        for name in ("tables_cold", "series_scenarios"):
            wl = run.Workload(name, 0, sizes, work / name, {sizes.name: empty})
            for o in map(runner.run, wl.pass_jobs(work / name / "out")):
                if o.rc != 0:
                    sys.exit(f"{o.job.argv} exited {o.rc}; see {work / 'logs'}")
                for path in o.job.outputs:
                    _keep(refs, path, sizes)
        cache = next((work / "tables_cold" / "out" / "cache-s2").glob("eigs-*.json"))
        sys.path.insert(0, str(run.SRC))
        from dyboltz import kernel, solver
        cert = solver.rate1_certificate(kernel.load_table(str(cache)), 2.0)
        refs["certificate"] = {"ok": bool(cert.ok), "c0": cert.c0,
                               "worst_margin": cert.worst_margin,
                               "worst_mode": list(cert.worst_mode)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return refs


def _keep(refs: dict, path, sizes: run.Sizes):
    stem = path.stem
    if stem.startswith("eigs_s"):
        s = stem.split("_")[1][1:]
        n = sizes.series_eigs_n if s == "1" else sizes.table_n
        refs["eigs"][s] = _sample(checks.eigs_lambda(path), n, n, SAMPLE[sizes.name],
                                  f"{sizes.name}:{s}")
    elif stem.startswith("evolve"):
        refs["evolve"] = checks.evolve_rows(path)
    elif stem == "scenario_example41_frontier":
        refs["scenarios"]["example41_frontier"] = checks.frontier_rows(path)
    elif stem.startswith("scenario_"):
        refs["scenarios"][stem[len("scenario_"):]] = checks.verdict_rows(path)


def main():
    doc = {s.name: record(s) for s in (run.FULL, run.TINY)}
    (run.HERE / "refs.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {run.HERE / 'refs.json'}")


if __name__ == "__main__":
    main()
