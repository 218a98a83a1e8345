"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench

They check that the printed metric names match BENCHMARK.json, that the
output checks flag a perturbed eigenvalue and a flipped verdict, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFS = json.loads((run.HERE / "refs.json").read_text())


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    return tmp_path


def _cli(*argv) -> int:
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    from dyboltz import cli
    return cli.main(list(argv))


def _last_json_line(capsys, doc):
    run.print_result(doc)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_lists_the_printed_metrics():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric(scratch, capsys, workload, trace):
    doc = run.run_benchmark(workload, seed=3, seconds=0, trace=trace, sizes=run.TINY)
    line = _last_json_line(capsys, doc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0, doc["failures"]
    assert line["attempted"] >= 1
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [(n, m["unit"]) for n, m in line["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in spec]
    for name, m in line["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def test_checker_flags_eigenvalue_off_by_1e6(tmp_path):
    n = run.TINY.table_n
    assert _cli("eigs", "--s", "2", "--nmax", str(n), "--lmax", str(n),
                "--out", str(tmp_path)) == 0
    path = tmp_path / f"eigs_s2_n{n}_l{n}.csv"
    sample = REFS["tiny"]["eigs"]["2"]
    assert checks.eigs_csv(path, 2.0, n, n, sample) == []

    bn, bl, _ = sample[-1]
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if (int(cells[0]), int(cells[1])) == (bn, bl):
            cells[2] = repr(float(cells[2]) * (1.0 + 1e-6))
            lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    fails = checks.eigs_csv(path, 2.0, n, n, sample)
    assert any(f"lambda({bn},{bl})" in f for f in fails), fails


def test_checker_flags_flipped_verdict(tmp_path):
    assert _cli("scenario", "--scenario", "remark14", "--s", "1",
                "--series-n", str(run.TINY.series_n), "--out", str(tmp_path)) == 0
    path = tmp_path / "scenario_remark14.csv"
    ref = REFS["tiny"]["scenarios"]["remark14"]
    assert checks.verdict_csv(path, ref) == []

    text = path.read_text()
    assert ",convergent," in text
    path.write_text(text.replace(",convergent,", ",divergent,", 1))
    assert checks.verdict_csv(path, ref) != []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tables_cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
