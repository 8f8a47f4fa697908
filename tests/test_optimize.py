"""Nelder-Mead and the QAOA training loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import holcus.estimators
import holcus.optimize
import holcus.qaoa
from conftest import ising_dense_matrix
from holcus.estimators import EXACT, METHODS, EstimatorConfig, compile_plan, estimate, run_program
from holcus.optimize import (
    OptimizationError,
    OptimizerConfig,
    TrainingTrace,
    nelder_mead,
    train_qaoa,
)
from holcus.qaoa import QaoaParams, build_ansatz, compile_ansatz
from holcus.qubo_ising import IsingModel, qubo_to_ising, random_qubo
from holcus.statevector import derive_seed


class TestNelderMead:
    def test_convex_1d(self, monkeypatch):
        monkeypatch.setattr(OptimizerConfig, "convergence_tol", 1e-12)
        cfg = OptimizerConfig(max_evals=400)
        x, f = nelder_mead(lambda v: (v[0] - 1.0) ** 2, [5.0], cfg)
        assert abs(x[0] - 1.0) < 1e-4

    def test_convex_bowl(self, monkeypatch):
        monkeypatch.setattr(OptimizerConfig, "convergence_tol", 1e-12)
        cfg = OptimizerConfig(max_evals=500)
        x, f = nelder_mead(lambda v: v[0] ** 2 + 10 * v[1] ** 2, [3.0, 3.0], cfg)
        assert f < 1e-6

    def test_noisy_objective(self, monkeypatch):
        monkeypatch.setattr(OptimizerConfig, "convergence_tol", 0.0)
        noise = np.random.default_rng(4)

        def f(v):
            return v[0] ** 2 + 1e-3 * noise.uniform(-1, 1)

        x, _ = nelder_mead(f, [2.0], OptimizerConfig(max_evals=300))
        assert abs(x[0]) < 0.1

    def test_never_worse_than_start(self):
        # objective with a cliff: the start is near-optimal
        def f(v):
            return 100.0 if abs(v[0]) > 0.4 else v[0] ** 2

        x, best = nelder_mead(f, [0.0], OptimizerConfig(max_evals=50))
        assert best <= f([0.0])

    def test_respects_eval_budget(self, monkeypatch):
        monkeypatch.setattr(OptimizerConfig, "convergence_tol", 0.0)
        calls = []

        def f(v):
            calls.append(1)
            return float(np.sum(np.square(v)))

        nelder_mead(f, [1.0, 2.0, 3.0], OptimizerConfig(max_evals=25))
        assert len(calls) <= 25

    def test_zero_dimensions_rejected(self):
        with pytest.raises(ValueError, match="at least one dimension"):
            nelder_mead(lambda v: 0.0, [], OptimizerConfig())

    def test_non_finite_objective_surfaces_params(self):
        def f(v):
            return np.nan if v[0] > 1.2 else v[0] ** 2

        with pytest.raises(OptimizationError) as err:
            nelder_mead(f, [1.0], OptimizerConfig(max_evals=100))
        assert err.value.params is not None


class TestOptimizerConfig:
    # 2.5 would run ceil(2.5) evaluations, True one.
    @pytest.mark.parametrize("field", ["max_evals", "restarts"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, 3.0, True, False, None])
    def test_count_not_a_positive_int_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: value})


class TestTrainQaoa:
    def setup_method(self):
        self.model = qubo_to_ising(random_qubo(3, 31))
        self.est = EstimatorConfig(method="holcus")

    def test_never_worse_than_zero_angle_baseline(self):
        trace = train_qaoa(self.model, 1, self.est, OptimizerConfig(max_evals=40, restarts=2, seed=0))
        assert trace.best_value <= self.model.offset + 1e-12

    def test_variational_bound(self):
        model = qubo_to_ising(random_qubo(4, 33))
        trace = train_qaoa(model, 3, self.est, OptimizerConfig(max_evals=60, restarts=2, seed=1))
        ground = np.linalg.eigvalsh(ising_dense_matrix(model))[0]
        assert trace.best_value >= ground - 1e-9

    def test_deterministic(self):
        cfg = OptimizerConfig(max_evals=30, restarts=2, seed=7)
        est = EstimatorConfig(method="holcus", shots=128, seed=5)
        a = train_qaoa(self.model, 1, est, cfg)
        b = train_qaoa(self.model, 1, est, cfg)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_params.to_vector(), b.best_params.to_vector())
        assert [v for _, v, _ in a.evaluations] == [v for _, v, _ in b.evaluations]

    def test_restart_monotonicity(self):
        est = EstimatorConfig(method="holcus")
        values = []
        for restarts in (1, 2, 3):
            cfg = OptimizerConfig(max_evals=30, restarts=restarts, seed=11)
            values.append(train_qaoa(self.model, 1, est, cfg).best_value)
        assert values[1] <= values[0] + 1e-12
        assert values[2] <= values[1] + 1e-12

    def test_circuit_accounting_per_method(self):
        # 1 circuit per evaluation for the combined method, M per-term circuits
        # for the per-term method, aggregated across restarts.
        from holcus.pauli_lcu import from_ising

        M = from_ising(self.model).num_terms
        cfg = OptimizerConfig(max_evals=12, restarts=2, seed=3)
        t_holcus = train_qaoa(self.model, 1, EstimatorConfig(method="holcus"), cfg)
        t_had = train_qaoa(self.model, 1, EstimatorConfig(method="hadamard"), cfg)
        assert t_holcus.total_circuits <= 12 * 2
        assert t_had.total_circuits == M * (t_had.total_circuits // M)
        assert t_had.total_circuits > t_holcus.total_circuits

    @pytest.mark.parametrize("p", [1, 2])
    def test_restart_zero_trains(self, p):
        # Every vertex of an axis-aligned simplex around zero angles has the
        # uniform-state value, which would stop training after 2p + 1 evaluations.
        model = qubo_to_ising(random_qubo(4, 3))
        trace = train_qaoa(model, p, self.est, OptimizerConfig(max_evals=40, restarts=1))
        assert len(trace.evaluations) > 2 * p + 1
        assert trace.best_value < model.offset
        assert np.array_equal(trace.evaluations[0][0], np.zeros(2 * p))

    @settings(max_examples=20, deadline=None)
    @given(
        method=st.sampled_from(METHODS),
        shots=st.sampled_from([EXACT, 64]),
        n=st.integers(1, 4),
        p=st.integers(1, 2),
        seed=st.integers(0, 2**16),
        all_zero=st.booleans(),
    )
    def test_trace_values_equal_fresh_estimates(self, method, shots, n, p, seed, all_zero):
        model = qubo_to_ising(random_qubo(n, seed))
        if all_zero:  # only raw trains a model with no terms
            assume(method == "raw")
            model = IsingModel(n, np.zeros(n), {}, model.offset)
        est = EstimatorConfig(method=method, shots=shots, seed=seed)
        trace = train_qaoa(model, p, est, OptimizerConfig(max_evals=6, restarts=1, seed=seed))
        norm = max(sum(abs(c) for _, c in model.terms()), 1.0)
        for k, (vec, value, _) in enumerate(trace.evaluations):
            params = QaoaParams.from_vector(vec)
            cfg = est if shots is EXACT else replace(est, seed=derive_seed(seed, 0, k))
            # Bit for bit a fresh run of the program training binds; the gate-level
            # circuit's phase layers are the same diagonals up to rounding.
            assert run_program(compile_plan(model, cfg), compile_ansatz(model).program(params), cfg).value == value
            if shots is EXACT:
                assert abs(estimate(build_ansatz(model, params), model, cfg).value - value) <= 1e-12 * norm

    def test_model_work_runs_once_per_call(self, monkeypatch):
        # build_ansatz compiles the ansatz too, so an evaluation that built
        # its gates would count a compile here.
        calls = {"from_ising": 0, "build_prep_unitaries": 0, "compile_ansatz": 0}
        for module, name in [
            (holcus.estimators, "from_ising"),
            (holcus.estimators, "build_prep_unitaries"),
            (holcus.optimize, "compile_ansatz"),
            (holcus.qaoa, "compile_ansatz"),
        ]:

            def counted(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        trace = train_qaoa(self.model, 1, self.est, OptimizerConfig(max_evals=10, restarts=2))
        assert len(trace.evaluations) > 1
        assert calls == {"from_ising": 1, "build_prep_unitaries": 1, "compile_ansatz": 1}

    def test_all_zero_model_trains_with_raw(self):
        model = IsingModel(3, np.zeros(3), {(0, 2): 0.0}, 0.25)
        trace = train_qaoa(model, 2, EstimatorConfig("raw"), OptimizerConfig(max_evals=20))
        assert len(trace.evaluations) >= 2 * 2 + 1  # the initial simplex
        assert all(value == pytest.approx(0.25, abs=1e-12) for _, value, _ in trace.evaluations)

    @pytest.mark.parametrize("method", ["hadamard", "holcus", "holcus_div"])
    def test_all_zero_model_rejected_before_any_ansatz_work(self, method, monkeypatch):
        def no_compile(model):
            raise AssertionError("ansatz compiled for a model the plan rejects")

        monkeypatch.setattr(holcus.optimize, "compile_ansatz", no_compile)
        model = IsingModel(3, np.zeros(3), {}, 0.25)
        with pytest.raises(ValueError, match="all-zero model has no LCU terms"):
            train_qaoa(model, 1, EstimatorConfig(method), OptimizerConfig(max_evals=5))

    @pytest.mark.parametrize("method", METHODS)
    def test_single_spin_trains(self, method):
        # H_P = 0.8 Z + 0.1 has ground energy -0.7; the zero-angle start reads 0.1.
        model = IsingModel(1, np.array([0.8]), {}, 0.1)
        trace = train_qaoa(model, 1, EstimatorConfig(method), OptimizerConfig(max_evals=40))
        assert -0.7 - 1e-9 <= trace.best_value < -0.4

    def test_best_value_is_min_of_trace(self):
        trace = train_qaoa(self.model, 1, self.est, OptimizerConfig(max_evals=25, restarts=1))
        assert trace.best_value == pytest.approx(min(v for _, v, _ in trace.evaluations))

    def test_p_zero_rejected(self):
        with pytest.raises(ValueError):
            train_qaoa(self.model, 0, self.est, OptimizerConfig())

    def test_negative_seed_rejected(self):
        for seed in (-1, 1.5, True):
            with pytest.raises(ValueError, match="seed"):
                OptimizerConfig(seed=seed)
