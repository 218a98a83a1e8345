"""Print a SHA-256 digest of every file the benchmark's CLI jobs write.

The first job evolves a finite field: eight modes given out of (n, l, m)
order, the five null modes among them, with complex amplitudes, under all
seven norm kinds at four times, in JSON.  The others are those of
``perfbench``'s gated workloads at full size: ``eigs`` 201x201 at s = 2 and
s = 0.5 in CSV, each with a fresh cache directory, and in JSON at s = 2
served from that cache; ``evolve`` of the s = 1 delay series (N = 10^4) and
``eigs`` 49x49 at s = 1, sharing one cache directory; the three
``scenario`` jobs, example41 with its frontier file; and ``verify --suite
all``.  Each runs as ``python -m dyboltz.cli`` with its files in a
temporary directory, and the output is one JSON object mapping each file's
path relative to it to its SHA-256, so a change that should leave every
output and cache file byte-identical is checked by diffing two runs:

    PYTHONPATH=/path/to/old/src python3 scripts/output_digest.py > old.json
    PYTHONPATH=src python3 scripts/output_digest.py > new.json
    diff old.json new.json

Only the standard library is imported here; the jobs run in child processes
that find ``dyboltz`` through the inherited PYTHONPATH.  A full run takes
7 to 9 seconds on a two-core Xeon.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

MODES = ["evolve", "--s", "2", "--format", "json", "--init",
         "modes:3,2,-1,0.5,-1.25;0,1,1,0.25,0.125;0,0,0,1,0;2,0,0,-0.75,0.5;"
         "1,3,2,2,-1;0,1,-1,0.25,-0.125;1,0,0,-0.5,0;0,1,0,0,-0.0625",
         "--times", "0,0.3,1,4",
         "--norms", "l2;shubin:k=2.5;logsob:tau=0.7,nu=1.5;domain:tau=0.5;domaindual:tau=0.5;"
                    "domainplus:tau=1;domainplusdual:tau=1"]
EVOLVE = ["evolve", "--s", "1", "--init", "delay:tau0=0.5,N=10000",
          "--times", "0.25,0.5,1,2", "--norms", "l2;shubin:k=2;domain:tau=0.5"]


def jobs(root: Path):
    """argv of each job, writing under ``root``, in a fixed order."""
    eigs, series = str(root / "eigs"), str(root / "series")
    yield [*MODES, "--out", str(root / "modes")]
    for s in ("2", "0.5"):
        yield ["eigs", "--s", s, "--nmax", "200", "--lmax", "200", "--workers", "1",
               "--cache-dir", str(root / f"cache-s{s}"), "--out", eigs]
    yield ["eigs", "--s", "2", "--nmax", "200", "--lmax", "200", "--workers", "1",
           "--format", "json", "--cache-dir", str(root / "cache-s2"), "--out", eigs]
    yield [*EVOLVE, "--cache-dir", str(root / "cache-series"), "--out", series]
    yield ["eigs", "--s", "1", "--nmax", "48", "--lmax", "48", "--workers", "1",
           "--cache-dir", str(root / "cache-series"), "--out", series]
    for name, s, extra in (("example41", "2", ["--k-grid", "1,2,4"]),
                           ("remark14", "1", []), ("example42", "4", [])):
        yield ["scenario", "--scenario", name, "--s", s, *extra,
               "--series-n", "10000", "--out", series]
    yield ["verify", "--suite", "all", "--s", "2", "--out", series]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for argv in jobs(root):
            r = subprocess.run([sys.executable, "-m", "dyboltz.cli", *argv],
                               capture_output=True, text=True)
            if r.returncode != 0:
                sys.exit(f"{' '.join(argv)} exited {r.returncode}:\n{r.stderr}")
        print(json.dumps({str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in sorted(root.rglob("*")) if p.is_file()}, indent=1))


if __name__ == "__main__":
    main()
