"""Benchmark harness, CSV plumbing, aggregation, plot data, and the CLI."""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holcus.bench
import holcus.cli
from holcus import BLAS_THREAD_VARS
from holcus.bench import (
    BENCH_CSV_HEADER,
    PRESETS,
    BenchmarkRecord,
    ExperimentConfig,
    _ratios,
    _rounds,
    aggregate_speedup,
    emit_plot_data,
    exp1_config,
    profile,
    read_records,
    record_from_csv_row,
    record_to_csv_row,
    run_experiment,
)
from holcus.cli import _add_run_flags, _collect_overrides, main
from holcus.estimators import METHODS
from holcus.optimize import OptimizationError


def tiny_config(tmp_path, **overrides):
    base = dict(
        n_min=3,
        n_max=3,
        p_values=(1,),
        instances_per_n=1,
        shots=None,
        restarts=1,
        methods=("hadamard", "holcus"),
        master_seed=5,
        output_path=str(tmp_path / "bench.csv"),
        max_evals=8,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_record_count_matches_grid(self, tmp_path):
        cfg = tiny_config(tmp_path, n_min=3, n_max=4, p_values=(1, 2))
        records = run_experiment(cfg)
        assert len(records) == 2 * 2 * 1 * 2  # n values * p values * instances * methods

    def test_deterministic_csv_except_wall_time(self, tmp_path):
        run_experiment(tiny_config(tmp_path, output_path=str(tmp_path / "a.csv")))
        run_experiment(tiny_config(tmp_path, output_path=str(tmp_path / "b.csv")))
        rows_a = (tmp_path / "a.csv").read_text().strip().splitlines()
        rows_b = (tmp_path / "b.csv").read_text().strip().splitlines()
        time_col = BENCH_CSV_HEADER.split(",").index("wall_time_seconds")
        for row_a, row_b in zip(rows_a, rows_b, strict=True):
            fields_a = [f for i, f in enumerate(row_a.split(",")) if i != time_col]
            fields_b = [f for i, f in enumerate(row_b.split(",")) if i != time_col]
            assert fields_a == fields_b

    def test_holcus_uses_fewer_circuits(self, tmp_path):
        records = run_experiment(tiny_config(tmp_path))
        by_method = {r.method: r for r in records}
        assert by_method["holcus"].circuits_total < by_method["hadamard"].circuits_total

    def test_csv_appended_and_readable(self, tmp_path):
        cfg = tiny_config(tmp_path)
        records = run_experiment(cfg)
        loaded = read_records(cfg.output_path)
        assert len(loaded) == len(records)
        assert loaded[0].method == records[0].method
        assert loaded[0].best_value == pytest.approx(records[0].best_value)

    def test_best_value_sane(self, tmp_path):
        for rec in run_experiment(tiny_config(tmp_path)):
            assert rec.best_value >= rec.brute_force_optimum - 1e-9
            assert rec.exact_value_of_best_params == pytest.approx(rec.best_value, abs=1e-9)

    def test_failed_cell_kept_as_error_row(self, tmp_path, monkeypatch):
        real = holcus.bench.train_qaoa

        def fails_in_two_cells(model, p, est, opt):
            if p == 2 and est.method == "holcus":
                raise OptimizationError("objective returned nan", np.zeros(2 * p))
            if p == 2:  # a numpy-style shape message: commas, a line break, trailing whitespace
                raise ValueError("shapes (2,2) and (3,), not aligned\nsecond line ")
            return real(model, p, est, opt)

        monkeypatch.setattr(holcus.bench, "train_qaoa", fails_in_two_cells)
        cfg = tiny_config(tmp_path, p_values=(1, 2))
        records = run_experiment(cfg)
        errors = {(r.p, r.method): r.error for r in records}
        assert len(errors) == 4
        assert errors.pop((2, "holcus")) == "OptimizationError: objective returned nan"
        assert errors.pop((2, "hadamard")) == "ValueError: shapes (2;2) and (3;); not aligned second line"
        assert set(errors.values()) == {""}
        assert read_records(cfg.output_path) == records
        assert main(["aggregate", cfg.output_path]) == 0

    def test_each_instance_prepared_once(self, tmp_path, monkeypatch):
        calls = []
        real = holcus.bench.brute_force_min

        def counted(qubo):
            calls.append(qubo)
            return real(qubo)

        monkeypatch.setattr(holcus.bench, "brute_force_min", counted)
        cfg = tiny_config(tmp_path, n_max=4, p_values=(1, 2), instances_per_n=2)
        records = run_experiment(cfg)
        seeds = {(n, i): holcus.bench._instance(cfg.master_seed, n, i)[0] for n in (3, 4) for i in (0, 1)}
        grid = [(n, p, i, m) for n in (3, 4) for p in (1, 2) for i in (0, 1) for m in cfg.methods]
        assert [(r.n, r.p, r.instance_seed, r.method) for r in records] == [(n, p, seeds[n, i], m) for n, p, i, m in grid]
        assert len(calls) == len(seeds)

    def test_failed_instance_is_an_error_row_in_each_of_its_cells(self, tmp_path, monkeypatch):
        real = holcus.bench.brute_force_min
        cfg = tiny_config(tmp_path, p_values=(1, 2), instances_per_n=2)
        failing = holcus.bench._instance(cfg.master_seed, 3, 1)[0]

        def fails_on_one_instance(qubo):
            if qubo.seed == failing:
                raise ValueError("too wide, says the\nsolver")
            return real(qubo)

        monkeypatch.setattr(holcus.bench, "brute_force_min", fails_on_one_instance)
        records = run_experiment(cfg)
        assert len(records) == 2 * 2 * 2
        for rec in records:
            assert rec.error == ("ValueError: too wide; says the solver" if rec.instance_seed == failing else "")

    def test_empty_output_file_gets_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        out.write_text("")
        cfg = tiny_config(tmp_path, output_path=str(out))
        records = run_experiment(cfg)
        assert read_records(cfg.output_path) == records

    def test_existing_sweep_is_appended(self, tmp_path):
        cfg = tiny_config(tmp_path)
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        assert read_records(cfg.output_path) == first + second

    def test_last_row_without_newline_is_not_merged(self, tmp_path):
        cfg = tiny_config(tmp_path, methods=("holcus",))
        first = run_experiment(cfg)
        out = Path(cfg.output_path)
        out.write_text(out.read_text().rstrip("\n"))  # an edited or cut-off file
        second = run_experiment(cfg)
        assert read_records(cfg.output_path) == first + second

    def test_foreign_output_file_rejected_before_any_cell(self, tmp_path, monkeypatch):
        cells = []
        monkeypatch.setattr(holcus.bench, "_run_one", lambda *args: cells.append(args))
        out = tmp_path / "sweep.csv"
        out.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="benchmark CSV header"):
            run_experiment(tiny_config(tmp_path, output_path=str(out)))
        assert cells == []
        assert out.read_text() == "a,b\n1,2\n"

    def test_cut_off_row_rejected_before_any_cell(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, methods=("holcus",))
        run_experiment(cfg)
        out = Path(cfg.output_path)
        out.write_bytes(out.read_bytes()[:-20])  # a write cut off mid-row
        cut = out.read_bytes()
        cells = []
        monkeypatch.setattr(holcus.bench, "_run_one", lambda *args: cells.append(args))
        with pytest.raises(ValueError, match="malformed record row"):
            run_experiment(cfg)
        assert cells == []
        assert out.read_bytes() == cut


class TestExperimentConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"master_seed": -1},
            {"methods": ("holcsu",)},
            {"restarts": 0},
            {"p_values": (0,)},
            {"shots": 0},
            {"p_values": ()},
            {"methods": ()},
            {"n_min": 15, "n_max": 16, "methods": ("holcus",)},
            {"n_min": 25, "n_max": 25, "methods": ("raw",)},
            {"n_min": 2.5},
            {"n_max": 3.5},
            {"instances_per_n": 1.5},
            {"instances_per_n": True},
            {"p_values": (1.5,)},
            {"master_seed": 1.5},
            {"p_values": (1, 2, 1)},
            {"methods": ("holcus", "holcus")},
        ],
        ids=[
            "master_seed", "methods", "restarts", "p_values", "shots", "empty_p", "empty_methods", "too_wide", "raw_too_wide",
            "float_n_min", "float_n_max", "float_instances", "bool_instances", "float_p", "float_master_seed",
            "duplicate_p", "duplicate_methods",
        ],
    )
    def test_bad_value_rejected_before_any_record(self, tmp_path, bad):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, **bad)
        assert not (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("method, widest_n", [("hadamard", 23), ("holcus", 15)])
    def test_widest_plan_must_fit_the_guard(self, tmp_path, method, widest_n):
        tiny_config(tmp_path, n_min=widest_n, n_max=widest_n, methods=(method,))
        above = widest_n + 1
        with pytest.raises(ValueError, match=f"{method} at n={above} needs a 25-qubit register"):
            tiny_config(tmp_path, n_min=above, n_max=above, methods=(method,))

    def test_n_above_guard_rejected_before_any_compile(self, tmp_path, monkeypatch):
        def no_compile(*args):
            raise AssertionError("compiled a plan")

        monkeypatch.setattr(holcus.bench, "compile_plan", no_compile)
        with pytest.raises(ValueError, match=r"n_max 1000 out of range"):
            tiny_config(tmp_path, n_min=1000, n_max=1000)

    def test_exp1_config_is_the_exp1_preset(self):
        assert exp1_config() == ExperimentConfig(**PRESETS["exp1"])


# Column text the unquoted CSV carries: no comma, no line break, no surrounding whitespace.
_CSV_TEXT = st.text(st.characters(exclude_characters=",", exclude_categories=("Cc", "Zl", "Zp"))).filter(
    lambda text: text == text.strip()
)
_CSV_INT = st.integers(0, 2**64)  # derive_seed returns 64-bit seeds
_CSV_FLOAT = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


class TestRecordCsv:
    def test_round_trip(self):
        rec = BenchmarkRecord(4, 2, 123, "holcus", 0.5, -1.25, -1.25, -2.0, 36, 0, 9, "")
        assert record_from_csv_row(record_to_csv_row(rec)) == rec

    @settings(max_examples=200, deadline=None)
    @given(
        ints=st.tuples(*[_CSV_INT] * 3),
        method=_CSV_TEXT,
        floats=st.tuples(*[st.one_of(st.sampled_from([-0.0, 5e-324, -2.5e-310]), _CSV_FLOAT)] * 4),
        counts=st.tuples(*[_CSV_INT] * 3),
        error=_CSV_TEXT,
    )
    def test_round_trip_any_record(self, ints, method, floats, counts, error):
        rec = BenchmarkRecord(*ints, method, *floats, *counts, error)
        row = record_to_csv_row(rec)
        assert record_from_csv_row(row) == rec
        assert record_to_csv_row(record_from_csv_row(row)) == row  # keeps the sign of a zero too

    def test_header_is_the_readme_header(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert BENCH_CSV_HEADER in readme.splitlines()
        assert BENCH_CSV_HEADER == (
            "n,p,instance_seed,method,wall_time_seconds,best_value,"
            "exact_value_of_best_params,brute_force_optimum,circuits_total,shots_total,max_qubits,error"
        )

    def test_row_format(self):
        rec = BenchmarkRecord(
            5, 2, 2**64 - 1, "holcus_div", 0.1, -1.5, -1.4999999999999998, -2.0, 40, 20000, 7, "ValueError: x; y"
        )
        assert record_to_csv_row(rec) == (
            "5,2,18446744073709551615,holcus_div,0.1,-1.5,-1.4999999999999998,-2.0,40,20000,7,ValueError: x; y"
        )
        assert record_to_csv_row(BenchmarkRecord(3, 1, 0, "raw")) == "3,1,0,raw,0.0,0.0,0.0,0.0,0,0,0,"

    def test_empty_float_column_reads_as_zero(self):
        assert record_from_csv_row("3,1,0,raw,,,,,0,0,0,") == BenchmarkRecord(3, 1, 0, "raw")

    def test_header_width(self):
        rec = BenchmarkRecord(3, 1, 1, "raw")
        assert len(record_to_csv_row(rec).split(",")) == len(BENCH_CSV_HEADER.split(","))


class TestAggregateSpeedup:
    def synth(self, t_had, t_hol, n=4, p=1, seed=1):
        return [
            BenchmarkRecord(n, p, seed, "hadamard", wall_time_seconds=t_had),
            BenchmarkRecord(n, p, seed, "holcus", wall_time_seconds=t_hol),
        ]

    def test_identical_times_ratio_one(self):
        rows, skipped = aggregate_speedup(self.synth(2.0, 2.0))
        assert skipped == 0
        assert rows[0].mean_ratio == pytest.approx(1.0)

    def test_double_time_ratio_two(self):
        rows, _ = aggregate_speedup(self.synth(4.0, 2.0))
        assert rows[0].mean_ratio == pytest.approx(2.0)
        assert rows[0].min_ratio == rows[0].max_ratio == pytest.approx(2.0)

    def test_unpaired_records_skipped_with_count(self):
        records = self.synth(1.0, 1.0) + [
            BenchmarkRecord(5, 1, 9, "hadamard", wall_time_seconds=1.0)
        ]
        rows, skipped = aggregate_speedup(records)
        assert skipped == 1
        assert len(rows) == 1

    def test_grouping_by_n_and_p(self):
        records = self.synth(2.0, 1.0, n=4) + self.synth(6.0, 2.0, n=5, seed=2)
        rows, _ = aggregate_speedup(records)
        assert [(r.n, r.p) for r in rows] == [(4, 1), (5, 1)]
        assert [r.mean_ratio for r in rows] == pytest.approx([2.0, 3.0])

    @settings(max_examples=60, deadline=None)
    @given(
        slow=st.lists(st.floats(0.5, 4.0), max_size=4),
        fast=st.lists(st.floats(0.5, 4.0), max_size=4),
        data=st.data(),
    )
    def test_kth_runs_of_a_cell_pair_in_any_interleaving(self, slow, fast, data):
        # Appended runs of one grid interleave; the k-th slow run pairs with the k-th fast one.
        order = data.draw(st.permutations(["hadamard"] * len(slow) + ["holcus"] * len(fast)))
        queues = {"hadamard": iter(slow), "holcus": iter(fast)}
        records = [BenchmarkRecord(4, 1, 7, m, wall_time_seconds=next(queues[m])) for m in order]
        rows, skipped = aggregate_speedup(records)
        ratios = [s / f for s, f in zip(slow, fast)]
        assert skipped == abs(len(slow) - len(fast))
        if not ratios:
            assert rows == []
            return
        (row,) = rows
        assert row.pairs == min(len(slow), len(fast))
        assert row.mean_ratio == sum(ratios) / len(ratios)


class TestPlotData:
    def make_records(self):
        recs = []
        for n in (3, 4):
            for p in (1, 2, 3):
                for method in ("hadamard", "holcus"):
                    recs.append(
                        BenchmarkRecord(
                            n, p, 7, method, wall_time_seconds=0.1 * n * p * (2 if method == "hadamard" else 1)
                        )
                    )
        return recs

    def test_time_vs_n_series_count(self, tmp_path):
        path = tmp_path / "plot.dat"
        emit_plot_data(self.make_records(), "time_vs_n", path)
        labels = {ln.split("\t")[0] for ln in path.read_text().splitlines() if not ln.startswith("#")}
        assert len(labels) == 6  # 2 methods x 3 layer counts

    def test_holcus_scaling_single_series(self, tmp_path):
        path = tmp_path / "scaling.dat"
        emit_plot_data(self.make_records(), "holcus_scaling", path)
        rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert all(ln.split("\t")[0] == "holcus" for ln in rows)
        xs = [int(ln.split("\t")[1]) for ln in rows]
        assert xs == sorted(xs)

    def test_regeneration_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        emit_plot_data(self.make_records(), "speedup_vs_n", a)
        emit_plot_data(self.make_records(), "speedup_vs_n", b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_data([], "time_vs_n", tmp_path / "x.dat")


def _check_per_round(stats, rounds):
    assert list(stats) == ["median", "min", "max", "rounds"]
    assert 0 < stats["min"] <= stats["median"] <= stats["max"] and stats["rounds"] == rounds


class TestProfile:
    def test_schema_on_a_tiny_grid(self, monkeypatch):
        monkeypatch.setattr(holcus.bench, "PROFILE_NS", (2, 3))
        monkeypatch.setattr(holcus.bench, "PROFILE_KERNEL_QUBITS", (6, 9))
        monkeypatch.setattr(holcus.bench, "PROFILE_TRAIN_NS", (2,))
        monkeypatch.setattr(holcus.bench, "PROFILE_TRAIN_EVALS", 3)
        record = profile()
        assert json.loads(json.dumps(record)) == record
        assert list(record) == ["schema", "machine", "kernel_us", "estimate", "train"]
        assert record["schema"] == 1
        machine = record["machine"]
        assert machine["nproc"] >= 1 and machine["numpy"] == np.__version__
        assert machine["blas_threads"] == dict.fromkeys(BLAS_THREAD_VARS, "1")  # pinned by conftest
        kinds = ["H", "X", "S", "EXP_X", "EXP_Z", "EXP_ZZ", "SWAP", "CH", "DENSE"]
        assert list(record["kernel_us"]) == ["6", "9"]
        for width in ("6", "9"):
            assert list(record["kernel_us"][width]) == kinds
            assert all(us > 0 for us in record["kernel_us"][width].values())
        grid = record["estimate"]
        assert (grid["p"], grid["gammas"], grid["betas"]) == (3, [0.3, 0.5, 0.2], [0.7, 0.2, 0.4])
        assert list(grid["s"]) == ["2", "3"]
        for n, row in grid["s"].items():
            assert list(row) == [*METHODS, "hadamard/holcus", "hadamard/holcus per round"]
            assert all(list(row[m]) == ["s", "qubits", "circuits"] and row[m]["s"] > 0 for m in METHODS)
            assert (row["raw"]["qubits"], row["hadamard"]["qubits"]) == (int(n), int(n) + 1)
            assert row["holcus"]["circuits"] == row["raw"]["circuits"] == 1
            assert row["hadamard/holcus"] == row["hadamard"]["s"] / row["holcus"]["s"]
            _check_per_round(row["hadamard/holcus per round"], 9)
        train = record["train"]
        assert (train["p"], train["max_evals"], list(train["s"])) == (1, 3, ["2"])
        row = train["s"]["2"]
        assert list(row) == [*METHODS, "hadamard/holcus", "hadamard/holcus per round"]
        assert all(row[m] > 0 for m in METHODS)
        assert row["hadamard/holcus"] == row["hadamard"] / row["holcus"]
        _check_per_round(row["hadamard/holcus per round"], 5)

    def test_rounds_alternate_the_order_of_the_calls(self):
        order = []
        calls = {key: lambda key=key: order.append(key) or key for key in "abc"}
        times, firsts = _rounds(calls, 3)
        assert firsts == {"a": "a", "b": "b", "c": "c"}
        assert "".join(order) == "abc" + "abc" + "cba" + "abc"
        assert all(len(t) == 3 and min(t) >= 0 for t in times.values())

    def test_ratios_of_medians_and_per_round(self):
        times = {"hadamard": [2.0, 9.0, 3.0], "holcus": [1.0, 3.0, 2.0]}
        ratios = _ratios(times)
        assert ratios["hadamard/holcus"] == 3.0 / 2.0
        assert ratios["hadamard/holcus per round"] == {"median": 2.0, "min": 1.5, "max": 3.0, "rounds": 3}

    def test_cli_writes_the_record_as_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(holcus.cli, "profile", lambda: {"schema": 1, "kernel_us": {}})
        out = tmp_path / "BENCH_label.json"
        assert main(["profile", "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"schema": 1, "kernel_us": {}}
        assert str(out) in capsys.readouterr().out

    @pytest.mark.parametrize("where", ["missing_dir", "a_dir"])
    def test_cli_rejects_an_unwritable_out_before_profiling(self, where, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(holcus.cli, "profile", lambda: pytest.fail("profiled before checking --out"))
        out = tmp_path / "missing" / "BENCH_label.json" if where == "missing_dir" else tmp_path
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--out", str(out)])
        assert exc.value.code == 2
        assert f"cannot write {out}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCli:
    def test_single_subcommand(self, tmp_path, capsys):
        out = tmp_path / "single.csv"
        rc = main(
            [
                "single", "--n-min", "3", "--n-max", "3", "--p", "1", "--instances", "1",
                "--exact", "--restarts", "1", "--methods", "holcus", "--seed", "3",
                "--out", str(out), "--max-evals", "6",
            ]
        )
        assert rc == 0
        assert out.exists()
        assert len(read_records(out)) == 1

    def test_aggregate_subcommand(self, tmp_path, capsys):
        csv = tmp_path / "agg.csv"
        rows = [BENCH_CSV_HEADER]
        rows.append(record_to_csv_row(BenchmarkRecord(3, 1, 5, "hadamard", wall_time_seconds=2.0)))
        rows.append(record_to_csv_row(BenchmarkRecord(3, 1, 5, "holcus", wall_time_seconds=1.0)))
        csv.write_text("\n".join(rows) + "\n")
        rc = main(["aggregate", str(csv)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "3,1,2.0000" in captured

    def test_plotdata_subcommand(self, tmp_path, capsys):
        csv = tmp_path / "pd.csv"
        rows = [BENCH_CSV_HEADER]
        rows.append(record_to_csv_row(BenchmarkRecord(3, 1, 5, "holcus", wall_time_seconds=1.0)))
        csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "pd.dat"
        rc = main(["plotdata", str(csv), "holcus_scaling", "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_aggregate_warns_of_unpaired_instances(self, tmp_path, capsys):
        csv = tmp_path / "agg.csv"
        rows = [BENCH_CSV_HEADER]
        rows.append(record_to_csv_row(BenchmarkRecord(3, 1, 5, "hadamard", wall_time_seconds=2.0)))
        rows.append(record_to_csv_row(BenchmarkRecord(3, 1, 5, "holcus", wall_time_seconds=1.0)))
        rows.append(record_to_csv_row(BenchmarkRecord(3, 1, 6, "holcus", wall_time_seconds=1.0)))
        csv.write_text("\n".join(rows) + "\n")
        assert main(["aggregate", str(csv)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "n,p,mean_ratio,min_ratio,max_ratio,pairs\n3,1,2.0000,2.0000,2.0000,1\n"
        assert captured.err == "warning: 1 unpaired runs skipped\n"

    def test_aggregate_missing_csv_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["aggregate", str(tmp_path / "absent.csv")])
        assert exc.value.code == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_run_into_foreign_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "other.csv"
        out.write_text("a,b\n1,2\n")
        with pytest.raises(SystemExit) as exc:
            main(["single", "--n-min", "3", "--n-max", "3", "--exact", "--max-evals", "2", "--out", str(out)])
        assert exc.value.code == 2
        assert out.read_text() == "a,b\n1,2\n"
        assert "benchmark CSV header" in capsys.readouterr().err

    def test_plotdata_non_benchmark_file_is_usage_error(self, tmp_path, capsys):
        csv = tmp_path / "other.csv"
        csv.write_text("a,b\n1,2\n")
        out = tmp_path / "pd.dat"
        with pytest.raises(SystemExit) as exc:
            main(["plotdata", str(csv), "time_vs_n", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert "benchmark CSV header" in capsys.readouterr().err

    @pytest.mark.parametrize("name", PRESETS)
    def test_each_subcommand_runs_its_preset(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        rc = main(
            [
                name, "--n-min", "3", "--n-max", "3", "--p", "1", "--instances", "1",
                "--exact", "--restarts", "1", "--max-evals", "2", "--out", str(out),
            ]
        )
        assert rc == 0
        assert tuple(r.method for r in read_records(out)) == PRESETS[name]["methods"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seed", "-1"],
            ["--restarts", "0"],
            ["--p", "0"],
            ["--shots", "0"],
            ["--methods", "holcsu"],
            ["--p"],
            ["--methods"],
            ["--n-max", "24", "--methods", "hadamard"],
            ["--p", "1", "1"],
            ["--methods", "holcus", "holcus"],
        ],
        ids=[
            "seed", "restarts", "p", "shots", "methods", "empty_p", "empty_methods", "too_wide",
            "duplicate_p", "duplicate_methods",
        ],
    )
    def test_bad_value_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "bad.csv"
        with pytest.raises(SystemExit) as exc:
            main(["single", "--out", str(out), *flags])
        assert exc.value.code == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, over",
        [
            ([], {}),
            (["--shots", "500"], {"shots": 500}),
            (["--exact"], {"shots": None}),
            (["--shots", "500", "--exact"], {"shots": None}),
            (["--exact", "--shots", "500"], {"shots": None}),
        ],
        ids=["none", "shots", "exact", "shots_then_exact", "exact_then_shots"],
    )
    def test_exact_beats_shots(self, flags, over):
        parser = argparse.ArgumentParser()
        _add_run_flags(parser)
        assert _collect_overrides(parser.parse_args(flags)) == over


# Each guard named by its message; no other test reaches these.
@pytest.mark.parametrize(
    "call, match",
    [
        (lambda tmp: tiny_config(tmp, instances_per_n=0), r"instances_per_n 0 out of range \[1, inf\]"),
        (lambda tmp: tiny_config(tmp, n_min=0), r"n_min 0 out of range \[1, inf\]"),
        (lambda tmp: tiny_config(tmp, n_min=4, n_max=3), r"n_max 3 out of range \[4, 24\]"),
        (lambda tmp: record_from_csv_row("3,1,5,holcus"), "malformed record row"),
        (lambda tmp: emit_plot_data([BenchmarkRecord(3, 1, 5, "holcus")], "pie", tmp / "x.dat"), "kind must be one of"),
    ],
    ids=["no_instances", "n_min_zero", "n_range_reversed", "short_csv_row", "unknown_plot_kind"],
)
def test_guard_rejects_bad_input(tmp_path, call, match):
    with pytest.raises(ValueError, match=match):
        call(tmp_path)
