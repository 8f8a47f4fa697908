"""QAOA ansatz construction and the exact (noise-free) training oracle.

compile_ansatz does a model's angle-free ansatz work once. The public Circuit
(build_ansatz) and, bit for bit its Circuit.program with no Gate built, the
kernel program train_qaoa binds per evaluation come from one walk (runs)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, repeat

import numpy as np

from .circuit import Circuit, Gate, gate_run
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


@dataclass(frozen=True)
class CompiledAnsatz:
    """A model's ansatz without its angles: the qubit count and the phase kind,
    targets and coefficients of each run of model.terms() of one arity."""

    num_qubits: int
    phases: tuple[tuple[str, tuple[tuple[int, ...], ...], np.ndarray], ...]

    def runs(self, params: QaoaParams):
        """The gates in order, as (kind, targets, angle) per run of one kind:
        angle is None for H, beta for a mixer and gamma * c for a phase run."""
        qubits = [(q,) for q in range(self.num_qubits)]
        yield "H", qubits, None
        for gamma, beta in zip(params.gammas, params.betas):
            yield from ((kind, targets, gamma * coeffs) for kind, targets, coeffs in self.phases)
            yield "EXP_X", qubits, beta

    def program(self, params: QaoaParams) -> list[tuple]:
        """build_ansatz(model, params).program, with no Gate built."""
        return [op for run in self.runs(params) for op in gate_run(*run)]


def compile_ansatz(model: IsingModel) -> CompiledAnsatz:
    """The model's ansatz without its angles; train_qaoa builds it once per call."""
    phases = []
    # terms() lists the fields before the couplings, so each arity is one run.
    for arity, run in groupby(model.terms(), key=lambda term: len(term[0])):
        targets, coeffs = zip(*run)
        phases.append(("EXP_Z" if arity == 1 else "EXP_ZZ", targets, np.array(coeffs, dtype=float)))
    return CompiledAnsatz(model.n, tuple(phases))


def build_ansatz(model: IsingModel, params: QaoaParams) -> Circuit:
    """Uniform superposition, then p layers of problem-phase evolution
    e^{i gamma H_P} followed by the mixer e^{i beta X} on every qubit.

    Phase gates take the evolution angle directly: EXP_Z(gamma * h_i) and
    EXP_ZZ(gamma * J_ij), in model.terms() order, as compile_ansatz walks it.
    """
    gates = []
    for kind, targets, angle in compile_ansatz(model).runs(params):
        angles = repeat(()) if angle is None else ((float(a),) for a in np.broadcast_to(angle, len(targets)))
        gates += map(Gate, repeat(kind), targets, angles)
    return Circuit(model.n, gates)


def exact_expectation(model: IsingModel, params: QaoaParams) -> float:
    """<psi|H_P|psi> on the ansatz output: raw's exact estimate, the
    basis-state probabilities against the model's energies, with no sampling."""
    return estimate(build_ansatz(model, params), model, EstimatorConfig("raw")).value
