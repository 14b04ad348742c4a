"""Self-test of the benchmark: output schema and failure counting. Asserts no timing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(tmp_path: Path, *args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_what_the_harness_reports():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.UNIT_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in spans.LAYER_METRICS]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload,trace", [("selfcheck", "0"), ("cli", "0"), ("selfcheck", "1")])
def test_result_line_schema(tmp_path, workload, trace):
    proc = bench(tmp_path, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0",
                 root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_train_check_counts_a_corrupted_fit(tmp_path):
    loose = {t: math.inf for t in workloads.EXPERIMENT_TARGETS}
    wl = workloads.Train(tmp_path, seed=5, iterations=20, restarts=2, thresholds=loose)
    real = wl.execute(wl.prepare())
    # so small a budget misses the report's own thresholds; the other checks still apply
    report = SimpleNamespace(fits=real.fits, all_passed=True)
    ops = run.Ops()
    ops.record(wl.check(tmp_path / "gone", report))
    assert (ops.attempted, ops.failed) == (3, 0)

    fit = report.fits["gaussian"]
    moved = dataclasses.replace(fit, best=type(fit.best).from_vector(fit.best.as_vector() + 1e-9))
    ops.record(wl.check(tmp_path / "gone", SimpleNamespace(fits={**report.fits, "gaussian": moved},
                                                          all_passed=True)))
    assert (ops.attempted, ops.failed) == (6, 1)
    assert "gaussian" in ops.reasons[0]

    strict = workloads.Train(tmp_path, seed=5, iterations=20, restarts=2)
    assert all(reason is not None for reason in strict.check(tmp_path / "gone", report))
    assert all(reason is not None for reason in wl.check(tmp_path / "gone", real))
    short = {**report.fits, "gaussian": dataclasses.replace(fit, evals=1)}
    assert wl.check(tmp_path / "gone", SimpleNamespace(fits=short, all_passed=True))[1] is not None


def test_selfcheck_check_counts_a_failed_suite(tmp_path):
    wl = workloads.Selfcheck(tmp_path, seed=2, trials=20)
    results = wl.execute(None)
    assert wl.check(None, results) == [None]
    results[1] = dataclasses.replace(results[1], passed=False, failures=1)
    assert wl.check(None, results)[0] is not None
    assert wl.check(None, results[:3])[0] is not None


def test_cli_check_counts_corrupted_outputs(tmp_path):
    wl = workloads.Cli(tmp_path, seed=4, src=ROOT / "src", iterations=10, restarts=1)
    ops = run.Ops()
    for _ in range(len(wl.mix)):
        run.run_unit(wl, ops, wl.execute_inprocess)
    assert (ops.attempted, ops.failed) == (9, 0)

    job = wl.prepare()  # the mix starts again: coeffs of the first target
    rc, stdout = wl.execute_inprocess(job)
    assert wl.check_outcome(job, rc, stdout) is None
    assert wl.check_outcome(job, rc, stdout.replace("a1=", "a1=1")) is not None
    assert wl.check_outcome(job, 1, stdout) is not None

    wl.next = 2  # the fit of the first target, whose first artifacts are recorded
    job = wl.prepare()
    rc, stdout = wl.execute_inprocess(job)
    svg = job.out / f"{job.target}.svg"
    svg.write_bytes(svg.read_bytes() + b" ")
    ops.record(wl.check(job, (rc, stdout)))
    assert (ops.attempted, ops.failed) == (10, 1)
    assert f"{job.target}.svg" in ops.reasons[0]
    assert not job.out.exists()


def test_tail_needs_ten_samples_beyond_it():
    assert measure.tail(list(range(19))) is None
    assert measure.tail(list(range(20))) == (50.0, 9)
    assert measure.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert measure.tail(list(range(1000))) == (99.0, 989)


def test_spans_give_self_time_and_restore_the_package(tmp_path):
    from qubitfit import chemotaxis, circuit
    original = chemotaxis.performance_index
    rec = spans.Recorder()
    rec.unit_id = 0
    rec.install()
    try:
        assert chemotaxis.performance_index is not original
        wl = workloads.Selfcheck(tmp_path, seed=1, trials=5)
        wl.execute(None)
        workloads.probe(tmp_path, seed=1)
    finally:
        rec.uninstall()
    assert chemotaxis.performance_index is original
    assert isinstance(vars(circuit.CircuitParams)["from_vector"], classmethod)
    stats = spans.SpanStats(rec)
    assert stats.calls("verify.run_suites") == 2
    assert 0 <= stats.self_ns("objective.index") <= stats.total_ns("objective.index")
    checks = spans.trace_checks(rec)
    assert checks["index_calls_equal_evals"] and checks["missing_boundaries"] == []
    metrics = spans.layer_metrics(rec, units=1, import_s=0.1, overhead=1.0)
    assert list(metrics) == [row[0] for row in spans.LAYER_METRICS]
    assert metrics["objective.index_calls"] == checks["evals"]
    assert metrics["verify.self_us_per_trial"] > 0
