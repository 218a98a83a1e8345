"""Print the peak RSS of each CLI job that ``output_digest.py`` runs.

Each job runs as ``python -m dyboltz.cli`` in a fresh child of this
process, which imports only the standard library, and its ``ru_maxrss``
is read from ``os.wait4``.  Linux carries a parent's high-water RSS into a
child's ``ru_maxrss`` across fork and exec, so a child of a large parent
(a benchmark harness that has parsed its CSVs, say) reads at least that
parent's peak; a bare parent keeps each reading the job's own.  After
those jobs, the ``series`` ``evolve`` and ``eigs`` 49x49 jobs run a second
time against the cache their first runs filled, as every benchmark pass
after the first runs them; their ``job`` ends in ``(cache hit)``.  The output
is one JSON list of ``{"job": ..., "peak_rss_mb": ...}`` in job order, each
job's command line with its temporary directory written as ``TMP``:

    PYTHONPATH=src python3 scripts/job_rss.py

A full run takes about 5 seconds on a two-core Xeon.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from output_digest import jobs  # noqa: E402  (it imports only the standard library)


def peak_rss_mb(argv) -> float:
    """ru_maxrss in MB of ``python -m dyboltz.cli argv``; exits if the job fails."""
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "dyboltz.cli", *argv],
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{err.read().decode()}")
    return usage.ru_maxrss / 1024.0


def main():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argvs = list(jobs(root))
        series_cache = str(root / "cache-series")
        runs = [(argv, "") for argv in argvs]
        runs += [(argv, " (cache hit)") for argv in argvs if series_cache in argv]
        print(json.dumps([{"job": " ".join(argv).replace(tmp, "TMP") + label,
                           "peak_rss_mb": round(peak_rss_mb(argv), 1)}
                          for argv, label in runs], indent=1))


if __name__ == "__main__":
    main()
