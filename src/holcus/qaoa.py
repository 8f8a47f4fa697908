"""QAOA ansatz construction and the exact (noise-free) training oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, exp_x, h
from .estimators import EstimatorConfig, estimate
from .qubo_ising import IsingModel


@dataclass(frozen=True)
class QaoaParams:
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        if len(self.gammas) != len(self.betas):
            raise ValueError(
                f"need as many gammas ({len(self.gammas)}) as betas ({len(self.betas)})"
            )

    @property
    def p(self) -> int:
        return len(self.gammas)

    @staticmethod
    def from_vector(vec) -> "QaoaParams":
        vec = np.asarray(vec, dtype=float)
        half = len(vec) // 2
        return QaoaParams(tuple(vec[:half]), tuple(vec[half:]))

    def to_vector(self) -> np.ndarray:
        return np.array(self.gammas + self.betas, dtype=float)


def build_ansatz(model: IsingModel, params: QaoaParams) -> Circuit:
    """Uniform superposition, then p layers of problem-phase evolution
    e^{i gamma H_P} followed by the mixer e^{i beta X} on every qubit.

    Phase gates take the evolution angle directly: EXP_Z(gamma * h_i) and
    EXP_ZZ(gamma * J_ij), in model.terms() order.
    """
    if model.n < 1:
        raise ValueError("model needs at least one spin")
    phases = [("EXP_Z" if len(qubits) == 1 else "EXP_ZZ", qubits, c) for qubits, c in model.terms()]
    gates = [h(q) for q in range(model.n)]
    for gamma, beta in zip(params.gammas, params.betas):
        gates += [Gate(kind, qubits, (float(gamma * c),)) for kind, qubits, c in phases]
        gates += [exp_x(beta, q) for q in range(model.n)]
    return Circuit(model.n, gates)


def exact_expectation(model: IsingModel, params: QaoaParams) -> float:
    """<psi|H_P|psi> on the ansatz output: raw's exact estimate, the
    basis-state probabilities against the model's energies, with no sampling."""
    return estimate(build_ansatz(model, params), model, EstimatorConfig("raw")).value
