"""The benchmark harness against this tree: its own tests, and a traced and an
untraced run of every workload; the untraced one is the run that measures the
end-to-end metrics. The degenerate-shots replay drives all three estimators
through the public builders that benchmark/layers.py calls
(hadamard_test_circuit, holcus_circuit(uniform=), decomposition_from_terms,
build_select_circuit, build_uniform_prep_circuit, gate_matrix,
sample_counts); exp1-exact runs bench.exp1_config, ExperimentConfig and
run_experiment; estimate-wide times estimate() calls, each compiling a plan
with a select stage, on 17-19 qubit registers. All run in subprocesses:
benchmark/ and tests/ each have a conftest module, so one session cannot
collect both."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_benchmark_tests_pass():
    proc = _python("-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmark")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


@pytest.mark.parametrize("workload", ["degenerate-shots", "exp1-exact", "estimate-wide"])
def test_traced_run_is_correct(tmp_path, workload):
    args = [
        "benchmark/run.py", "--workload", workload, "--seed", "1",
        "--seconds", "1", "--trace", "1", "--results", str(tmp_path),
    ]
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=300)
    finally:
        proc.kill()
        proc.wait()
        # A traced run's record replay leaves this scratch CSV, named by the run's pid.
        (ROOT / "benchmark" / "results" / "tmp" / f"record-{proc.pid}.csv").unlink(missing_ok=True)
    assert proc.returncode == 0, stderr[-3000:]
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


@pytest.mark.parametrize("workload", ["degenerate-shots", "exp1-exact", "estimate-wide"])
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    # --seconds 0 runs exactly one round.
    args = [
        "benchmark/run.py", "--workload", workload, "--seed", "1",
        "--seconds", "0", "--trace", "0", "--results", str(tmp_path),
    ]
    proc = _python(*args)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
