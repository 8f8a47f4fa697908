"""Derivative-free training of QAOA angles against a chosen estimator. A
training compiles its ansatz and plan and binds the plan's runner once; each
evaluation runs the ansatz's program at its angles on the runner. Where the
runner holds its registers (up to 13 qubits) and the held-form rule allows (a
cost vector and no beta = +-0, qaoa.CompiledAnsatz.write), an evaluation
writes its angles into the ansatz's held program, which the runner bound on
the first such evaluation and only rewrites after; any other (restart 0's
all-zero start, n >= 14, a model with no terms) builds its program and binds
it as it runs. Either way every value is bit for bit that of run_program."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .estimators import EstimatorConfig, _Runner, compile_plan
from .qaoa import QaoaParams, compile_ansatz
from .qubo_ising import IsingModel
from .statevector import _check_int, derive_seed


class OptimizationError(RuntimeError):
    """Objective returned a non-finite value; offending params attached."""

    def __init__(self, message: str, params):
        super().__init__(message)
        self.params = params


class _BudgetSpent(Exception):
    """Raised by nelder_mead's counted objective once max_evals calls are spent."""


@dataclass(frozen=True)
class OptimizerConfig:
    max_evals: int = 200
    restarts: int = 1
    seed: int = 0
    initial_simplex_scale: ClassVar[float] = 0.5  # the first simplex's step size, before its jitter
    convergence_tol: ClassVar[float] = 1e-6  # the simplex objective spread that ends a run

    def __post_init__(self):
        for name, low in (("max_evals", 1), ("restarts", 1), ("seed", 0)):
            _check_int(name, getattr(self, name), low)


@dataclass
class TrainingTrace:
    evaluations: list[tuple[np.ndarray, float, float]]
    best_params: QaoaParams
    best_value: float
    total_circuits: int
    total_shots: int
    max_qubits: int


def nelder_mead(objective, x0, cfg: OptimizerConfig) -> tuple[np.ndarray, float]:
    """Simplex minimization with reflect/expand/contract/shrink = 1, 2, 0.5, 0.5.

    Stops when max_evals objective calls are spent or the simplex objective
    spread drops below convergence_tol. Returns the best point ever evaluated,
    so the result is never worse than the starting point.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = len(x0)
    if dim < 1:
        raise ValueError("need at least one dimension")
    rng = np.random.default_rng(cfg.seed)

    budget = cfg.max_evals
    best_x = None
    best_f = np.inf

    def f(x):
        nonlocal budget, best_x, best_f
        if budget <= 0:
            raise _BudgetSpent
        budget -= 1
        val = float(objective(x))
        if not np.isfinite(val):
            raise OptimizationError(f"objective returned {val}", np.array(x))
        if val < best_f:
            best_f, best_x = val, np.array(x, dtype=float)
        return val

    # Vertex i steps coordinate i by a full step and every other coordinate by
    # half of it. An axis-aligned simplex can stall at once: around
    # gamma = beta = 0 every single-coordinate step keeps the uniform-state value.
    simplex = [x0.copy()]
    for i in range(dim):
        size = cfg.initial_simplex_scale * (1.0 + 0.25 * rng.uniform(-1.0, 1.0))
        step = np.full(dim, 0.5 * size)
        step[i] = size
        simplex.append(x0 + step)
    try:
        values = [f(x) for x in simplex]
        while True:
            order = np.argsort(values)
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            if values[-1] - values[0] < cfg.convergence_tol:
                break
            centroid = np.mean(simplex[:-1], axis=0)
            reflected = centroid + (centroid - simplex[-1])
            fr = f(reflected)
            if values[0] <= fr < values[-2]:
                simplex[-1], values[-1] = reflected, fr
                continue
            if fr < values[0]:
                expanded = centroid + 2.0 * (centroid - simplex[-1])
                fe = f(expanded)
                if fe < fr:
                    simplex[-1], values[-1] = expanded, fe
                else:
                    simplex[-1], values[-1] = reflected, fr
                continue
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            fc = f(contracted)
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
                continue
            for i in range(1, len(simplex)):  # shrink toward the best vertex
                simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                values[i] = f(simplex[i])
    except _BudgetSpent:
        pass
    return best_x, best_f


def train_qaoa(
    model: IsingModel, p: int, estimator_cfg: EstimatorConfig, opt_cfg: OptimizerConfig
) -> TrainingTrace:
    """Multi-restart angle optimization; the objective is the configured
    estimator evaluated on the ansatz.

    Restart 0 starts exactly at gamma = beta = 0 (so the trivial baseline is
    always among the evaluated points); further restarts draw gamma in
    [0, 2pi) and beta in [0, pi). The returned trace holds the winning
    restart's evaluations while the circuit/shot totals aggregate every
    restart. Deterministic for fixed seeds. The estimator's plan, the ansatz
    and the plan's runner are compiled and bound once, inside the caller's
    timing, for every evaluation of every restart, which writes its angles
    into the ansatz's held program or builds its kernel program (no Gate is
    built either way) and runs it on the runner, bit for bit as run_program
    would.
    """
    _check_int("p", p, 1)
    plan = compile_plan(model, estimator_cfg)
    ansatz = compile_ansatz(model)
    runner = _Runner(plan, hold=True)
    dim = 2 * p
    runs = []  # (best value, evaluations, best point) of each restart
    for r in range(opt_cfg.restarts):
        evals: list[tuple[np.ndarray, float, float]] = []

        def objective(vec):
            params = QaoaParams.from_vector(vec)
            cfg = estimator_cfg
            if not cfg.exact:
                cfg = replace(cfg, seed=derive_seed(estimator_cfg.seed, r, len(evals)))
            t0 = time.perf_counter()
            held = ansatz.write(params) if runner.held else None
            result = runner.run(ansatz.program(params), cfg) if held is None else runner.run(held, cfg, written=True)
            elapsed = time.perf_counter() - t0
            evals.append((np.array(vec, dtype=float), result.value, elapsed))
            return result.value

        if r == 0:
            x0 = np.zeros(dim)
        else:
            rng = np.random.default_rng(derive_seed(opt_cfg.seed, r, 0))
            x0 = np.concatenate(
                [rng.uniform(0.0, 2.0 * np.pi, size=p), rng.uniform(0.0, np.pi, size=p)]
            )
        restart_cfg = replace(opt_cfg, seed=derive_seed(opt_cfg.seed, r, 1))
        x_best, f_best = nelder_mead(objective, x0, restart_cfg)
        runs.append((f_best, evals, x_best))
    best_value, evaluations, x_best = min(runs, key=lambda run: run[0])  # the first restart on a tie
    # Every run_plan of the plan runs each of its circuits once.
    total_circuits = sum(len(run[1]) for run in runs) * len(plan.measurements)
    total_shots = 0 if estimator_cfg.exact else total_circuits * int(estimator_cfg.shots)
    return TrainingTrace(
        evaluations, QaoaParams.from_vector(x_best), float(best_value), total_circuits, total_shots, plan.max_qubits
    )
