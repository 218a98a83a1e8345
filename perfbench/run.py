#!/usr/bin/env python3
"""dyboltz benchmark: three CLI workloads with output checks and a traced mode.

Run from the repository root:

    python3 perfbench/run.py --workload tables_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload series_scenarios --seed 1 --seconds 20 --trace 1

With ``--trace 0`` every job runs in its own child process
(``python3 -m dyboltz.cli ...`` or the fields_warm library program) and the
end-to-end metrics are printed.  With ``--trace 1`` the same job lists run
in this process through ``dyboltz.cli.main(argv)``, once untraced and once
with the span recorder installed, and the per-layer metrics are printed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from importlib import metadata
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("tables_cold", "fields_warm", "series_scenarios")
HELP_REPEATS = 9
CHILD_TIMEOUT_S = 150.0
# single-threaded BLAS: one client in a closed loop, and steadier timings
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, TINY is for the benchmark's tests."""

    name: str
    table_n: int          # eigs --nmax/--lmax of tables_cold and fields_warm
    field_modes: int      # modes of the seeded fields_warm SpectralField
    series_n: int         # N of the evolve and scenario series
    series_eigs_n: int    # eigs --nmax/--lmax of series_scenarios
    verify_suite: str
    probe_n: int          # table size of the parallel-speedup probe


FULL = Sizes("full", 200, 20000, 10000, 48, "all", 120)
TINY = Sizes("tiny", 8, 60, 400, 6, "spaces", 16)

# The metrics in the final JSON line; BENCHMARK.json lists the same names.
# A metric there must exist on every workload, so per-command times and the
# per-layer times of layers a workload never calls (they would read 0 on
# every run) are printed above the JSON line and kept in the result file.
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
PER_LAYER = (
    "cli.eigs.self_s",
    "cli.output.bytes",
    "specfun.legendre_all.calls",
    "kernel.quadrature.entries",
    "kernel.quadrature.duplicate_ratio",
    "kernel.radial_eigenvalues.calls",
    "kernel.cache.lookups",
    "kernel.cache.hit_ratio",
    "kernel.cache.rebuilds",
    "kernel.save_table.bytes",
    "kernel.load_table.bytes",
    "kernel.eigenvalue_table.parallel_speedup",
    "kernel.eigenvalue_table.serial_entries_per_s",
    "basis.SpectralField.modes",
    "spaces.spectral_norm.calls",
    "solver.series_tail_classify.calls",
    "solver.classify_frontier.bisection_calls",
    "tracing.overhead_ratio",
)

EVOLVE_TIMES = "0.25,0.5,1,2"
EVOLVE_NORMS = "l2;shubin:k=2;domain:tau=0.5"


@dataclass
class Job:
    cmd: str                     # eigs | evolve | scenario | verify | library
    argv: list                   # CLI argv (with the subcommand) or fields_lib argv
    outputs: list                # files the job writes
    check: object                # () -> list of failure messages

    def child_argv(self):
        if self.cmd == "library":
            return [sys.executable, str(HERE / "fields_lib.py"), *self.argv]
        return [sys.executable, "-m", "dyboltz.cli", *self.argv]


@dataclass
class Outcome:
    job: Job
    rc: int
    wall: float
    rss_mb: float = 0.0
    failures: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Set-up jobs and per-pass job lists of one workload, made from the seed."""

    def __init__(self, name: str, seed: int, sizes: Sizes, work: Path, refs: dict):
        self.name, self.sizes, self.work = name, sizes, work
        self.refs = refs[sizes.name]
        self.rng = random.Random(f"{name}:{seed}")
        self.cache = work / "cache"
        self.setup_jobs: list = []
        getattr(self, "_init_" + name)()

    def _eigs(self, s, n, out: Path, cache: Path):
        args = ["eigs", "--s", f"{s:g}", "--nmax", str(n), "--lmax", str(n),
                "--workers", "1", "--cache-dir", str(cache), "--out", str(out)]
        csv = out / f"eigs_s{s:g}_n{n}_l{n}.csv"
        sample = self.refs["eigs"][f"{s:g}"]
        return Job("eigs", args, [csv], partial(checks.eigs_csv, csv, s, n, n, sample))

    # tables_cold: two cold 201x201 builds, fresh cache dir per job
    def _init_tables_cold(self):
        self.order = [2.0, 0.5]
        self.rng.shuffle(self.order)

    def _jobs_tables_cold(self, out: Path):
        return [self._eigs(s, self.sizes.table_n, out, out / f"cache-s{s:g}")
                for s in self.order]

    # fields_warm: cache hit plus the library program on a seeded field
    def _init_fields_warm(self):
        self.setup_jobs = [self._eigs(2.0, self.sizes.table_n, self.work / "setup",
                                      self.cache)]
        self.field_path = self.work / "field.json"
        write_field(self.field_path, self.rng, self.sizes.field_modes, self.sizes.table_n)

    def _jobs_fields_warm(self, out: Path):
        cache_file = next(self.cache.glob("eigs-*.json"))
        result = out / "library.json"
        lib = Job("library", ["--cache", str(cache_file), "--field", str(self.field_path),
                              "--out", str(result)], [result],
                  partial(checks.fields_result, result, cache_file, self.field_path,
                          2.0, self.refs["certificate"]))
        return [self._eigs(2.0, self.sizes.table_n, out, self.cache), lib]

    # series_scenarios: one persistent cache dir shared by evolve and eigs
    def _init_series_scenarios(self):
        self.scenarios = ["example41", "remark14", "example42"]
        self.rng.shuffle(self.scenarios)
        self.setup_jobs = self._cache_jobs(self.work / "fill")

    def _cache_jobs(self, out: Path):
        n = self.sizes.series_n
        csv = out / "evolve_s1.csv"
        evolve = Job("evolve", ["evolve", "--s", "1", "--init", f"delay:tau0=0.5,N={n}",
                                "--times", EVOLVE_TIMES, "--norms", EVOLVE_NORMS,
                                "--cache-dir", str(self.cache), "--out", str(out)],
                     [csv], partial(checks.evolve_csv, csv, self.refs["evolve"]))
        return [evolve, self._eigs(1.0, self.sizes.series_eigs_n, out, self.cache)]

    def _scenario(self, name, out: Path):
        s, extra = {"example41": ("2", ["--k-grid", "1,2,4"]),
                    "remark14": ("1", []), "example42": ("4", [])}[name]
        csv = out / f"scenario_{name}.csv"
        ref = self.refs["scenarios"]
        outputs = [csv]
        fns = [partial(checks.verdict_csv, csv, ref[name])]
        if name == "example41":
            fcsv = out / "scenario_example41_frontier.csv"
            outputs.append(fcsv)
            fns.append(partial(checks.frontier_csv, fcsv, ref["example41_frontier"]))
        return Job("scenario", ["scenario", "--scenario", name, "--s", s, *extra,
                                "--series-n", str(self.sizes.series_n), "--out", str(out)],
                   outputs, lambda: [f for fn in fns for f in fn()])

    def _jobs_series_scenarios(self, out: Path):
        report = out / f"verify_{self.sizes.verify_suite}.json"
        verify = Job("verify", ["verify", "--suite", self.sizes.verify_suite, "--s", "2",
                                "--out", str(out)], [report],
                     partial(checks.verify_json, report))
        return (self._cache_jobs(out) + [self._scenario(n, out) for n in self.scenarios]
                + [verify])

    def pass_jobs(self, out: Path):
        return getattr(self, "_jobs_" + self.name)(out)


def write_field(path: Path, rng: random.Random, count: int, nmax: int):
    """A seeded SpectralField JSON: the five null modes, (2,0,0) and random modes."""
    modes = {(0, 0, 0), (1, 0, 0), (0, 1, -1), (0, 1, 0), (0, 1, 1), (2, 0, 0)}
    while len(modes) < count:
        n, l = rng.randint(0, nmax), rng.randint(0, nmax)
        modes.add((n, l, rng.randint(-l, l)))
    rows = [[n, l, m, rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)]
            for n, l, m in sorted(modes)]
    path.write_text(json.dumps({"label": f"seeded-{count}", "rows": rows},
                               separators=(",", ":")))


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.update(SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, log: Path):
    """(exit code, wall seconds, max RSS MB) of one child process."""
    with open(log.with_suffix(".out"), "wb") as so, open(log.with_suffix(".err"), "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=so, stderr=se)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class ChildRunner:
    """Each job in its own process; the end-to-end (untraced) runner."""

    def __init__(self, logs: Path):
        self.logs = logs
        self.count = 0
        logs.mkdir(parents=True, exist_ok=True)

    def run(self, job: Job) -> Outcome:
        self.count += 1
        for p in job.outputs:
            p.parent.mkdir(parents=True, exist_ok=True)
        rc, wall, rss = run_child(job.child_argv(), self.logs / f"job{self.count}")
        return Outcome(job, rc, wall, rss)


class InProcessRunner:
    """Jobs through dyboltz.cli.main / fields_lib.main in this process."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.count = 0
        self.jobs = {}

    def run(self, job: Job) -> Outcome:
        from dyboltz import cli
        import fields_lib

        self.count += 1
        for p in job.outputs:
            p.parent.mkdir(parents=True, exist_ok=True)
        fn = fields_lib.main if job.cmd == "library" else cli.main
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                if self.tracer is None:
                    rc = fn(list(job.argv))
                else:
                    self.tracer.job = self.count
                    self.jobs[self.count] = (job.cmd, list(job.argv))
                    name = "fields_lib.main" if job.cmd == "library" else f"cli.{job.cmd}"
                    rc = self.tracer.call(name, fn, list(job.argv),
                                          after=lambda: {"output_bytes": _bytes(job)})
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crashing job is a failed job, not a crashed run
                traceback.print_exc()
                rc = 1
        return Outcome(job, rc, time.perf_counter() - t0)


def _bytes(job: Job) -> int:
    return sum(p.stat().st_size for p in job.outputs if p.is_file())


def run_pass(jobs, runner):
    """Run one pass; returns (wall seconds, outcomes).  Checks are not timed."""
    t0 = time.perf_counter()
    outcomes = [runner.run(job) for job in jobs]
    wall = time.perf_counter() - t0
    for o in outcomes:
        if o.rc != 0:
            o.failures.append(f"{o.job.cmd}: exit code {o.rc}")
        o.failures += o.job.check()
    return wall, outcomes


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def timed_setup(wl: Workload, logs: Path):
    """setup_s: median `dyboltz --help` start-up plus the set-up jobs."""
    helps = []
    for i in range(HELP_REPEATS):
        rc, wall, _ = run_child([sys.executable, "-m", "dyboltz.cli", "--help"],
                                logs / f"help{i}")
        if rc != 0:
            raise RuntimeError(f"`dyboltz --help` exited {rc}; see {logs}")
        helps.append(wall)
    jobs_wall, outcomes = run_pass(wl.setup_jobs, ChildRunner(logs / "setup"))
    return statistics.median(helps) + jobs_wall, outcomes


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  sizes: Sizes = FULL) -> dict:
    """Run one workload; returns the result document (see print_result)."""
    refs = json.loads((HERE / "refs.json").read_text())
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    logs = run_dir / "logs"
    logs.mkdir(parents=True)
    started = time.perf_counter()
    try:
        wl = Workload(workload, seed, sizes, run_dir, refs)
        prov = provenance(seed)
        setup_s, setup_outcomes = timed_setup(wl, logs)
        if trace:
            doc = _traced(wl, run_dir, seconds, workload, seed)
        else:
            doc = _untraced(wl, run_dir, seconds, logs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    outcomes = doc.pop("outcomes")
    failures = [f for o in setup_outcomes + outcomes for f in o.failures]
    failed = sum(1 for o in setup_outcomes + outcomes if o.failures)
    attempted = len(setup_outcomes) + len(outcomes)
    info = doc["info"]
    info["failed_ratio"] = (failed / attempted, "ratio")
    if trace:
        info["setup_s"] = (setup_s, "s")
    else:
        doc["metrics"]["setup_s"] = (setup_s, "s")
        doc["metrics"] = {n: doc["metrics"][n] for n in END_TO_END}
    doc.update(workload=workload, seed=seed, seconds=seconds, trace=bool(trace),
               sizes=sizes.name, provenance=prov, failures=failures[:50],
               attempted=attempted, failed=failed,
               run_s=time.perf_counter() - started)
    return doc


def _another_pass(walls, t0: float, seconds: float) -> bool:
    """At least one pass; another only if it should end within ``seconds``."""
    return not walls or time.perf_counter() - t0 + walls[-1] <= seconds


def _untraced(wl: Workload, run_dir: Path, seconds: float, logs: Path) -> dict:
    runner = ChildRunner(logs)
    passes, outcomes = [], []
    t0 = time.perf_counter()
    while _another_pass([p["wall_s"] for p in passes], t0, seconds):
        out = run_dir / f"pass{len(passes)}"
        wall, outs = run_pass(wl.pass_jobs(out), runner)
        shutil.rmtree(out, ignore_errors=True)
        by_cmd = {}
        for o in outs:
            by_cmd[o.job.cmd] = by_cmd.get(o.job.cmd, 0.0) + o.wall
        passes.append({"wall_s": wall, "by_cmd": by_cmd,
                       "peak_rss_mb": max(o.rss_mb for o in outs)})
        outcomes += outs
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    info = {f"{cmd}_s": (statistics.median(p["by_cmd"][cmd] for p in passes), "s")
            for cmd in passes[0]["by_cmd"]}
    return {"metrics": metrics, "info": info, "passes": passes, "outcomes": outcomes}


def _traced(wl: Workload, run_dir: Path, seconds: float, workload: str, seed: int) -> dict:
    os.environ.update(SINGLE_THREAD_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import spans as tracing

    plain_walls, traced_walls, layer_runs, outcomes = [], [], [], []
    plain = InProcessRunner()

    def one_pass(tag, runner):
        out = run_dir / tag
        wall, outs = run_pass(wl.pass_jobs(out), runner)
        shutil.rmtree(out, ignore_errors=True)
        outcomes.extend(outs)
        return wall

    # in one process the first pass pays one-off costs (allocator growth,
    # lazy caches), so it is checked but not timed
    one_pass("warmup", plain)
    pair_walls = []
    t0 = time.perf_counter()
    while _another_pass(pair_walls, t0, seconds):
        k = len(traced_walls)
        tracer = tracing.Tracer()
        runner = InProcessRunner(tracer)
        tracer.install()
        try:
            traced_walls.append(one_pass(f"traced{k}", runner))
        finally:
            tracer.uninstall()
        plain_walls.append(one_pass(f"plain{k}", plain))
        pair_walls.append(traced_walls[-1] + plain_walls[-1])
        layer_runs.append(tracing.layer_metrics(tracer.spans, runner.jobs))
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{workload}-seed{seed}-pass{k}.json",
                    {"workload": workload, "seed": seed, "pass": k,
                     "jobs": {str(j): v for j, v in runner.jobs.items()}})

    layers = {name: (statistics.median([r[name][0] for r in layer_runs]), unit)
              for name, (_, unit) in layer_runs[0].items()}
    layers["tracing.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "ratio")
    serial_s, parallel_s = parallel_probe(wl.sizes.probe_n)
    layers["kernel.eigenvalue_table.parallel_speedup"] = (serial_s / parallel_s, "ratio")
    layers["kernel.eigenvalue_table.serial_entries_per_s"] = (
        (wl.sizes.probe_n + 1) ** 2 / serial_s, "1/s")
    return {"metrics": {n: layers.pop(n) for n in PER_LAYER}, "info": layers,
            "passes": {"plain_wall_s": plain_walls, "traced_wall_s": traced_walls},
            "outcomes": outcomes}


def parallel_probe(n: int):
    """Serial and workers=2 wall time of one (n+1)x(n+1) s=0.5 table build."""
    from dyboltz.kernel import KernelParams, eigenvalue_table

    params = KernelParams(s=0.5)
    times = []
    for workers in (1, 2):
        t0 = time.perf_counter()
        eigenvalue_table(n, n, params, workers=workers)
        times.append(time.perf_counter() - t0)
    return times[0], times[1]


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def provenance(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    h = hashlib.sha256()
    for p in sorted((SRC / "dyboltz").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".csv"):
            h.update(p.relative_to(SRC).as_posix().encode())
            h.update(p.read_bytes())
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = _read(idx / "size")

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"git_sha": sha, "src_sha256": h.hexdigest(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "cache_sizes": caches,
            "loadavg_start": list(os.getloadavg()), "seed": seed}


def print_result(doc: dict):
    """Human-readable lines, then the one-line JSON result."""
    prov = doc["provenance"]
    print(f"workload {doc['workload']}  seed {doc['seed']}  trace {int(doc['trace'])}  "
          f"sizes {doc['sizes']}  run {doc['run_s']:.1f} s")
    print("provenance " + json.dumps(prov, sort_keys=True))
    passes = doc["passes"]
    count = len(passes) if isinstance(passes, list) else len(passes["traced_wall_s"])
    print(f"medians over {count} pass(es):")
    for name, (value, unit) in {**doc["metrics"], **doc["info"]}.items():
        print(f"  {name:48s} {value:16.6g} {unit}")
    for f in doc["failures"]:
        print(f"FAILED: {f}")
    print(json.dumps({"correct": doc["failed"] == 0, "attempted": doc["attempted"],
                      "failed": doc["failed"],
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in doc["metrics"].items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure passes until this much time has passed (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dyboltz" / "cli.py").is_file():
        print(f"error: no dyboltz sources under {SRC}; run from a dyboltz checkout",
              file=sys.stderr)
        return 2
    doc = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(doc, indent=1, default=str))
    print_result(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
