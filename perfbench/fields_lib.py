"""Library program of the ``fields_warm`` workload.

Loads a cached s = 2 eigenvalue table, reads a seeded SpectralField written
by the harness, evolves it over a time grid with three norms
(``EvolutionReport``), and runs the decay checks and the mode-wise
certificate.  Writes every number it computed as JSON for the harness's
checks.  No quadrature runs here.

    PYTHONPATH=src python3 perfbench/fields_lib.py \
        --cache CACHE.json --field FIELD.json --out RESULT.json

The library is called through module attributes (``kernel.load_table``,
``solver.rate1_check``, ...) so that the traced run's wrappers see the calls.
"""

from __future__ import annotations

import argparse
import json

from dyboltz import basis, kernel, solver, spaces

S = 2.0
TIMES = (0.0, 0.5, 1.0, 2.0)
NORMS = "l2;shubin:k=2;domain:tau=0.5"
RATE1_T = 1.0
THM12_T0 = 0.25


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cache", required=True, help="eigenvalue cache file (s = 2)")
    ap.add_argument("--field", required=True, help="SpectralField JSON")
    ap.add_argument("--out", required=True, help="result JSON path")
    args = ap.parse_args(argv)

    table = kernel.load_table(args.cache, kernel.KernelParams(s=S))
    with open(args.field) as fh:
        field = basis.SpectralField.from_json(fh.read())
    norms = [spaces.parse_norm_spec(x) for x in NORMS.split(";")]
    report = solver.EvolutionReport.compute(field, TIMES, norms, table)
    cert = solver.rate1_certificate(table, S)
    r1 = solver.rate1_check(field, RATE1_T, table, S)
    t = max(1.0, 2.0 * THM12_T0 / cert.c0)
    d = solver.decay_check_thm12(field, THM12_T0, t, table, S)

    doc = {
        "report": json.loads(report.to_json()),
        "rate1": {"t": RATE1_T, "c0": r1.c0, "lhs": r1.lhs, "rhs": r1.rhs,
                  "holds": r1.holds},
        "thm12": {"t0": THM12_T0, "t": t, "c0": d.c0, "lhs": d.lhs, "rhs": d.rhs,
                  "holds": d.holds},
        "certificate": {"ok": bool(cert.ok), "c0": cert.c0,
                        "worst_margin": cert.worst_margin,
                        "worst_mode": list(cert.worst_mode)},
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
