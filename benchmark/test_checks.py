"""The benchmark's checks catch wrong outputs (negative tests) and pass real ones."""

import pytest

import checks
from holcus.bench import BENCH_CSV_HEADER, BenchmarkRecord, read_records, record_to_csv_row
from holcus.estimators import EXACT, EstimatorConfig, estimate
from holcus.qaoa import QaoaParams, build_ansatz
from holcus.qubo_ising import qubo_to_ising, random_qubo
from oracle import InstanceOracle

PARAMS = QaoaParams((0.7, 0.2), (0.3, 0.9))


@pytest.fixture(scope="module")
def instance():
    qubo = random_qubo(4, 11)
    return qubo_to_ising(qubo), InstanceOracle.of(qubo.Q)


def test_exact_estimate_perturbed_by_1e_6_n_is_caught(instance):
    model, orc = instance
    res = estimate(build_ansatz(model, PARAMS), model, EstimatorConfig(method="holcus", shots=EXACT))
    expected = orc.value(PARAMS.to_vector())
    assert checks.exact_value(res.value, expected, orc.norm, "holcus") == []
    assert checks.exact_value(res.value + 1e-6 * orc.norm, expected, orc.norm, "holcus")
    assert checks.exact_value(res.value - 1e-6 * orc.norm, expected, orc.norm, "holcus")


@pytest.mark.parametrize("method", ["hadamard", "holcus", "holcus_div"])
def test_shot_estimate_moved_by_6_sigma_is_caught(instance, method):
    model, orc = instance
    shots = 10_000
    res = estimate(build_ansatz(model, PARAMS), model, EstimatorConfig(method=method, shots=shots, seed=5))
    expected = orc.value(PARAMS.to_vector())
    sigma = orc.sigma_bound(method, shots)
    assert checks.shot_value(res.value, expected, sigma, method) == []
    away = 1.0 if res.value >= expected else -1.0
    assert checks.shot_value(res.value + away * 6 * sigma, expected, sigma, method)


def _write(path, records):
    path.write_text(BENCH_CSV_HEADER + "\n" + "".join(record_to_csv_row(r) + "\n" for r in records))


def test_csv_round_trip_passes_and_catches_comma_in_error(tmp_path):
    good = [BenchmarkRecord(n=4, p=1, instance_seed=9, method="holcus", wall_time_seconds=0.25, best_value=-1.5)]
    _write(tmp_path / "good.csv", good)
    assert checks.csv_round_trip(tmp_path / "good.csv", good, read_records) == []
    bad = good + [BenchmarkRecord(n=30, p=1, instance_seed=9, method="holcus", error="capacity: n=30, guard 24")]
    _write(tmp_path / "bad.csv", bad)
    fails = checks.csv_round_trip(tmp_path / "bad.csv", bad, read_records)
    assert fails and "read_records failed" in fails[0]


def test_csv_round_trip_catches_changed_record(tmp_path):
    recs = [BenchmarkRecord(n=4, p=1, instance_seed=9, method="holcus", best_value=-1.5)]
    _write(tmp_path / "x.csv", recs)
    other = [BenchmarkRecord(n=4, p=1, instance_seed=9, method="holcus", best_value=-1.25)]
    assert checks.csv_round_trip(tmp_path / "x.csv", other, read_records)
