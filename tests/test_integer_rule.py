"""statevector._check_int, the one integer rule, at every site that applies it."""

import re

import numpy as np
import pytest

from holcus.bench import ExperimentConfig
from holcus.circuit import Circuit, h
from holcus.estimators import EstimatorConfig, estimate
from holcus.optimize import OptimizerConfig, train_qaoa
from holcus.pauli_lcu import PauliString, build_uniform_prep_circuit
from holcus.qubo_ising import IsingModel, QuboInstance, random_qubo
from holcus.statevector import MAX_QUBITS, MAX_SHOTS, multinomial_draw, new_basis_state


def _sweep(**over):
    return ExperimentConfig(
        **{**dict(n_min=3, n_max=3, p_values=(1,), instances_per_n=1, methods=("holcus",), shots=None), **over}
    )


def _train(p):
    return train_qaoa(IsingModel(1, np.array([0.5]), {}), p, EstimatorConfig("holcus"), OptimizerConfig(2, 1))


# site -> (a call that passes the value to the rule, the name its errors give, low, high).
SITES = {
    "qubit": (lambda v: Circuit(3, [h(v)]), "qubit index", 0, 2),
    "pauli_qubit": (lambda v: PauliString({v: "Z"}), "qubit index", 0, None),
    # Above MAX_QUBITS new_basis_state raises CapacityError, a ValueError.
    "new_basis_state": (new_basis_state, "num_qubits", 1, MAX_QUBITS),
    "draw_shots": (lambda v: multinomial_draw([0.5, 0.5], v, 0), "shots", 1, MAX_SHOTS),
    "draw_seed": (lambda v: multinomial_draw([0.5, 0.5], 10, v), "seed", 0, None),
    "circuit": (Circuit, "num_qubits", 1, None),
    "estimator_shots": (lambda v: EstimatorConfig("holcus", shots=v), "shots", 1, MAX_SHOTS),
    "estimator_seed": (lambda v: EstimatorConfig("holcus", seed=v), "seed", 0, None),
    "max_evals": (lambda v: OptimizerConfig(max_evals=v), "max_evals", 1, None),
    "restarts": (lambda v: OptimizerConfig(restarts=v), "restarts", 1, None),
    "optimizer_seed": (lambda v: OptimizerConfig(seed=v), "seed", 0, None),
    "train_p": (_train, "p", 1, None),
    "random_qubo": (lambda v: random_qubo(v, 1), "n", 1, None),
    "ising_n": (lambda v: IsingModel(v, np.zeros(int(v)), {}), "n", 1, None),
    # A coupling key's error names the key, so both indices' names start the same.
    "coupling_i": (lambda v: IsingModel(3, np.zeros(3), {(v, 2): 1.0}), "coupling key", 0, 1),
    "coupling_j": (lambda v: IsingModel(3, np.zeros(3), {(0, v): 1.0}), "coupling key", 1, 2),
    "qubo_n": (lambda v: QuboInstance(v, np.zeros((int(v), int(v)))), "n", 1, None),
    "uniform_prep_m": (build_uniform_prep_circuit, "m", 1, None),
    "n_min": (lambda v: _sweep(n_min=v), "n_min", 1, None),
    "n_max": (lambda v: _sweep(n_max=v), "n_max", 3, MAX_QUBITS),
    "instances_per_n": (lambda v: _sweep(instances_per_n=v), "instances_per_n", 1, None),
    "master_seed": (lambda v: _sweep(master_seed=v), "master_seed", 0, None),
    "p_values": (lambda v: _sweep(p_values=(v,)), "p_values[0]", 1, None),
}


@pytest.mark.parametrize("site", SITES.values(), ids=SITES)
def test_bools_floats_and_values_out_of_bounds_rejected_numpy_integers_accepted(site):
    call, name, low, high = site
    # A bool would pass as 0 or 1, and a float would fail later, if at all.
    for value in [True, float(low), low - 1] + ([] if high is None else [high + 1]):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)}(?!\w)"):
            call(value)
    call(np.int64(low))


def test_numpy_shot_count_totals_do_not_wrap():
    # Two circuits of 2^63 - 1 shots each: an int64 product would wrap.
    model = IsingModel(2, np.array([0.5, -0.25]), {})
    cfg = EstimatorConfig("hadamard", shots=np.int64(MAX_SHOTS))
    assert estimate(Circuit(2), model, cfg).shots_used == 2 * MAX_SHOTS
    trace = train_qaoa(model, 1, cfg, OptimizerConfig(2, 1))
    assert trace.total_shots == trace.total_circuits * MAX_SHOTS
