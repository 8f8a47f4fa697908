"""Nelder-Mead and the QAOA training loop."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import holcus.estimators
import holcus.optimize
import holcus.qaoa
from conftest import ising_dense_matrix, model_of, traced
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


# The bytes of a held EXP_X chain: its 2 x 2 to 16 x 16 complex blocks.
_CHAIN = 16 * (4 + 16 + 64 + 256)


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

    @pytest.mark.parametrize("method, prepares", [("holcus", 1), ("hadamard", 0)])
    def test_model_work_runs_once_per_call(self, monkeypatch, method, prepares):
        # build_ansatz compiles the ansatz too, so an evaluation that built
        # its gates would count a compile here. The training's runner binds each
        # suffix and resolves each readout's view once, for every evaluation of
        # every restart: one circuit for holcus, one per term for hadamard.
        calls = {"from_ising": 0, "build_prep_unitaries": 0, "compile_ansatz": 0, "_readout_view": 0}
        for module, name in [
            (holcus.estimators, "from_ising"),
            (holcus.estimators, "build_prep_unitaries"),
            (holcus.optimize, "compile_ansatz"),
            (holcus.qaoa, "compile_ansatz"),
            (holcus.estimators, "_readout_view"),
        ]:

            def counted(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        plans, bound, programs, writes = [], [], [], []
        monkeypatch.setattr(holcus.optimize, "compile_plan", lambda *args: plans.append(compile_plan(*args)) or plans[-1])
        real_bind = holcus.estimators._bind
        monkeypatch.setattr(holcus.estimators, "_bind", lambda state, program, **kw: bound.append(program) or real_bind(state, program, **kw))
        for name, into in [("program", programs), ("write", writes)]:
            real = getattr(holcus.qaoa.CompiledAnsatz, name)
            monkeypatch.setattr(holcus.qaoa.CompiledAnsatz, name, lambda self, params, _real=real, _into=into: _into.append(_real(self, params)) or _into[-1])
        est = EstimatorConfig(method=method)
        trace = train_qaoa(self.model, 1, est, OptimizerConfig(max_evals=10, restarts=2))
        (plan,) = plans
        circuits = len(plan.measurements)
        assert len(trace.evaluations) > 1 and circuits == (1 if method == "holcus" else 6)
        assert calls == {"from_ising": 1, "build_prep_unitaries": prepares, "compile_ansatz": 1, "_readout_view": circuits}
        assert [any(program is s for s in plan.programs) for program in bound].count(True) == circuits
        # Only restart 0's start, at beta = 0, builds its program; every other
        # evaluation writes its angles into the one held prep, bound by its first run.
        held = [program for program in writes if program is not None]
        assert writes[0] is None and len(held) == len(writes) - 1 > 0 and all(program is held[0] for program in held)
        (program,) = programs
        assert [prep for prep in bound if not any(prep is s for s in plan.programs)] == [program, held[0]]

    @settings(max_examples=100, deadline=None)
    @given(
        method=st.sampled_from(METHODS),
        shots=st.sampled_from([EXACT, 64]),
        n=st.integers(1, 8),
        p=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_bound_training_evaluates_as_fresh_runs_bit_for_bit(self, method, shots, n, p, seed, data):
        # A training binds its plan's registers, suffixes and readouts once (up to
        # 13-qubit registers), and its held prep by the first evaluation that the
        # held-form rule allows; each later one writes its angles into it. Over any
        # sequence of points, zeros of either sign and +-pi included, each evaluation
        # is bit for bit a fresh run_program of the training program at its angles.
        angle = st.one_of(st.sampled_from([0.0, -0.0, np.pi, -np.pi]), st.floats(-2 * np.pi, 2 * np.pi))
        points = data.draw(st.lists(st.lists(angle, min_size=2 * p, max_size=2 * p), min_size=1, max_size=6))
        _assert_bound_training_matches_fresh_runs(qubo_to_ising(random_qubo(n, seed)), p, method, shots, seed, points)

    @pytest.mark.parametrize("method", ["raw", "hadamard"])
    @pytest.mark.parametrize("shots", [EXACT, 1000])
    def test_bound_training_without_a_cost_vector_evaluates_as_fresh_runs(self, method, shots):
        # At n = 14 the program has no cost vector, and the registers, of 14 and 15
        # qubits, are too wide to hold, so each suffix is bound as it runs.
        model = qubo_to_ising(random_qubo(14, 5))
        assert compile_ansatz(model).cost is None
        _assert_bound_training_matches_fresh_runs(model, 1, method, shots, 3, [[0.3, 0.7], [-0.0, 0.0], [0.5, -0.2]])

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("shots", [EXACT, 128])
    def test_back_to_back_trainings_give_the_same_trace(self, method, shots):
        # Nothing a training holds between its evaluations outlives it.
        cfg = OptimizerConfig(max_evals=20, restarts=2, seed=7)
        est = EstimatorConfig(method=method, shots=shots, seed=5)
        a, b = (train_qaoa(self.model, 2, est, cfg) for _ in range(2))
        assert [(x.tobytes(), v) for x, v, _ in a.evaluations] == [(x.tobytes(), v) for x, v, _ in b.evaluations]
        assert (a.best_params, a.best_value, a.total_circuits, a.total_shots) == (b.best_params, b.best_value, b.total_circuits, b.total_shots)

    @pytest.mark.parametrize(
        "model, method, held, prep, slack",
        [
            ("random", "hadamard", (16 << 13) + 78 * (16 << 12), (24 << 13) + (16 << 12) + _CHAIN, 1 << 20),
            ("random", "holcus", 16 << 20, 0, 3 << 19),
            (
                "repeated",
                "holcus_div",
                (16 << 11) + (16 << 12) + 2 * (16 << 10) + (16 << 11),
                (24 << 11) + (24 << 12) + (16 << 7) + _CHAIN,
                1 << 19,
            ),
        ],
    )
    def test_training_holds_its_registers_and_bound_suffixes(self, model, method, held, prep, slack):
        # Up to 13-qubit registers a training holds, between its evaluations, the
        # register of each width of its plan and the multipliers its suffixes bind.
        # hadamard at n = 12: one 13-qubit register and the 78 controlled Z-strings,
        # each a multiplier of 2^12 entries. holcus_div on 7 spins with repeated
        # coefficients: registers of 11 and 12 qubits, both held, and each of the
        # three groups' select product, a multiplier on all but the top qubit. The
        # 20-qubit register of holcus at n = 12 binds each suffix as it runs, as
        # run_program does, so its training holds the register alone, where its 78
        # unfused controlled Z-strings would add 9.75 MiB. With a held runner the
        # training also holds its prep (p = 1): on each width, the phase layer's
        # multiplier (16 B an amplitude) and its spread as intp (8 B); and in the
        # ansatz, the 2^n phases and the EXP_X chain of 1- to 4-qubit blocks. The
        # slack covers the first evaluation's prep (at beta = 0, bound as it runs)
        # and temporaries, and the plan (holcus's 2^7 x 2^7 prepare and unprepare,
        # 512 KiB). Nothing is held after the training returns.
        if model == "random":
            model = qubo_to_ising(random_qubo(12, 1))
        else:
            model = model_of(7, [0.5] * 7, {(i, j): 2.0 if (i + j) % 3 == 0 else 1.0 for i in range(7) for j in range(i + 1, 7)})
        est, opt = EstimatorConfig(method), OptimizerConfig(max_evals=4, restarts=1)
        widths = {w: len(ks) for w, ks in compile_plan(model, est).widths.items()}
        train_qaoa(model, 1, est, opt)  # every recipe warm
        _, peak, after = traced(lambda: train_qaoa(model, 1, est, opt))
        assert widths == {"hadamard": {13: 78}, "holcus": {20: 1}, "holcus_div": {11: 2, 12: 1}}[method]
        assert held + prep <= peak < held + prep + slack
        assert after < 4 << 10

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


def _assert_bound_training_matches_fresh_runs(model, p, method, shots, seed, points):
    """train_qaoa's one restart, its optimizer evaluating points in turn, gives each
    point bit for bit the value and std_error of a fresh run_program of the training
    program, and each write of the held prep leaves every operand byte for byte that
    of program at the same angles."""
    est = EstimatorConfig(method, shots=shots, seed=seed)
    results, held = [], []
    real_run, real_write = holcus.estimators._Runner.run, holcus.qaoa.CompiledAnsatz.write

    def walk(objective, x0, cfg):  # nelder_mead's contract, over the given points
        values = [objective(np.array(x)) for x in points]
        return np.array(points[int(np.argmin(values))]), min(values)

    def run(self, *args, **kw):
        results.append(real_run(self, *args, **kw))
        return results[-1]

    def write(self, params):
        program = real_write(self, params)
        if program is not None:
            fresh = self.program(params)
            assert [(op.shape, op.tobytes(), t, c) for op, t, c in program] == [(op.shape, op.tobytes(), t, c) for op, t, c in fresh]
            held.append(params)
        return program

    with (
        mock.patch.object(holcus.optimize, "nelder_mead", walk),
        mock.patch.object(holcus.estimators._Runner, "run", run),
        mock.patch.object(holcus.qaoa.CompiledAnsatz, "write", write),
    ):
        trace = train_qaoa(model, p, est, OptimizerConfig(max_evals=len(points), restarts=1, seed=seed))
    assert [x.tobytes() for x, _, _ in trace.evaluations] == [np.array(x).tobytes() for x in points]
    ansatz = compile_ansatz(model)
    holds = compile_plan(model, est).max_qubits <= 13 and ansatz.cost is not None
    assert held == [params for params in map(QaoaParams.from_vector, points) if holds and 0 not in params.betas]
    for k, ((vec, value, _), result) in enumerate(zip(trace.evaluations, results, strict=True)):
        cfg = est if shots is EXACT else replace(est, seed=derive_seed(seed, 0, k))
        fresh = run_program(compile_plan(model, cfg), ansatz.program(QaoaParams.from_vector(vec)), cfg)
        assert (fresh.value.hex(), fresh.std_error.hex()) == (value.hex(), result.std_error.hex()), (k, vec)
