"""QAOA ansatz construction and the exact (noise-free) training oracle.

compile_ansatz does a model's angle-free ansatz work once. The public Circuit
(build_ansatz) comes from its gate walk (runs); the kernel program train_qaoa
binds per evaluation builds no Gate and, up to statevector._chunk_qubits()
qubits, makes each phase layer one diagonal from the model's cost vector and
the H and EXP_X layers the Kronecker blocks the kernel would fuse them into."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import groupby, repeat

import numpy as np

from .circuit import _H, Circuit, Gate, _exp_x, gate_run
from .estimators import EstimatorConfig, compile_plan, run_program
from .qubo_ising import IsingModel, ising_energies
from .statevector import _KRON_QUBITS, _chunk_qubits, _kron


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
    """A model's ansatz without its angles: the model and the phase kind,
    targets and coefficients of each run of model.terms() of one arity."""

    model: IsingModel
    phases: tuple[tuple[str, tuple[tuple[int, ...], ...], np.ndarray], ...]

    @cached_property
    def cost(self) -> np.ndarray | None:
        """ising_energies(model) - model.offset (the offset set to 0, not subtracted) by
        basis index, on first use; None without terms or above statevector._chunk_qubits()."""
        fits = self.phases and self.model.n <= _chunk_qubits()
        return ising_energies(replace(self.model, offset=0.0)) if fits else None

    def runs(self, params: QaoaParams):
        """The gates in order, as (kind, targets, angle) per run of one kind:
        angle is None for H, beta for a mixer and gamma * c for a phase run."""
        qubits = [(q,) for q in range(self.model.n)]
        yield "H", qubits, None
        for gamma, beta in zip(params.gammas, params.betas):
            yield from ((kind, targets, gamma * coeffs) for kind, targets, coeffs in self.phases)
            yield "EXP_X", qubits, beta

    @cached_property
    def _h_layer(self) -> list[tuple]:
        return _layer(_H, self.model.n)

    def program(self, params: QaoaParams) -> list[tuple]:
        """build_ansatz(model, params).program, with no Gate built, except that with a
        cost each phase layer is one triple (exp(i gamma cost), (0, ..., n-1), ()) and
        the H and EXP_X layers are the Kronecker blocks statevector._fused makes of them."""
        if self.cost is None:
            return [op for run in self.runs(params) for op in gate_run(*run)]
        program = list(self._h_layer)
        for gamma, beta in zip(params.gammas, params.betas):
            phase = self.cost * (1j * gamma)  # the layer's one complex allocation
            program.append((np.exp(phase, out=phase), tuple(range(self.model.n)), ()))
            program += _layer(_exp_x(beta), self.model.n)
        return program


def _layer(operand: np.ndarray, n: int) -> list[tuple]:
    """operand on each of qubits 0..n-1 as _fused makes the run: a 2 x 2 matrix's
    Kronecker blocks, from one chain of outer products, or a diagonal's (EXP_X at
    beta = +-0) triples, which the kernel fuses with the phase layer."""
    if operand.ndim == 1:
        return [(operand, (q,), ()) for q in range(n)]
    chain = [operand]
    while len(chain) < min(n, _KRON_QUBITS):
        chain.append(_kron(operand, chain[-1]))
    blocks = [tuple(range(q, min(q + _KRON_QUBITS, n))) for q in range(0, n, _KRON_QUBITS)]
    return [(chain[len(qubits) - 1], qubits, ()) for qubits in blocks]


def compile_ansatz(model: IsingModel) -> CompiledAnsatz:
    """The model's ansatz without its angles; train_qaoa builds it once per call."""
    phases = []
    # terms() lists the fields before the couplings, so each arity is one run.
    for arity, run in groupby(model.terms(), key=lambda term: len(term[0])):
        targets, coeffs = zip(*run)
        phases.append(("EXP_Z" if arity == 1 else "EXP_ZZ", targets, np.array(coeffs, dtype=float)))
    return CompiledAnsatz(model, tuple(phases))


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
    """<psi|H_P|psi> on the ansatz output: raw's exact estimate of training's program,
    with no sampling; its plan comes first, so it raises CapacityError above MAX_QUBITS."""
    cfg = EstimatorConfig("raw")
    return run_program(compile_plan(model, cfg), compile_ansatz(model).program(params), cfg).value
