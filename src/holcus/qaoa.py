"""QAOA ansatz construction and the exact (noise-free) training oracle.

compile_ansatz does a model's angle-free ansatz work once. The public Circuit
(build_ansatz) comes from its gate walk (runs); the kernel program train_qaoa
runs per evaluation builds no Gate and, up to statevector._chunk_qubits()
qubits, makes each phase layer one diagonal from the model's cost vector and
the H and EXP_X layers the Kronecker blocks the kernel would fuse them into.
Such a program, with no beta = +-0, takes the held form (the one rule is
CompiledAnsatz.write's): write writes each evaluation's angles into one held
program per p, by the builder program uses, and train_qaoa's runner binds it
once and rewrites only the steps that copied an operand. At beta = +-0 EXP_X
is diagonal, and the kernel's bind-time fusion merges the phase layers across
it into operands no held step holds, so that program is bound as it runs, as
is every program without a cost vector."""

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
        """The H layer's blocks, read-only: no write changes them."""
        chain = _chain(_H, _buffers(self.model.n)[1])
        for block in chain:
            block.flags.writeable = False
        return _blocks(chain, self.model.n)

    @cached_property
    def _held(self) -> dict[int, tuple[list[tuple], list[tuple]]]:
        """By p, the held program write returns and each of its layers' operand buffers."""
        return {}

    def program(self, params: QaoaParams) -> list[tuple]:
        """build_ansatz(model, params).program, with no Gate built, except that with a
        cost each phase layer is one triple (exp(i gamma cost), (0, ..., n-1), ()) and
        the H and EXP_X layers are the Kronecker blocks statevector._fused makes of them."""
        if self.cost is None:
            return [op for run in self.runs(params) for op in gate_run(*run)]
        return self._program(params, [_buffers(self.model.n) for _ in params.betas])

    def write(self, params: QaoaParams) -> list[tuple] | None:
        """program(params) in the held form: one list per p, built on the first call,
        whose operands every later call rewrites in place, by the builder program
        uses, so each is byte for byte program(params)'s. None where the one rule
        for that form fails: it needs a cost vector and no beta = +-0. Then each
        layer is a phase diagonal on every qubit and EXP_X's blocks, which
        statevector._fused leaves as they are; at beta = +-0 EXP_X is diagonal
        (_exp_x) and bind-time fusion merges the phase layers across it, into
        operands no held step holds, so that program is bound as it runs."""
        if self.cost is None or any(beta == 0 for beta in params.betas):
            return None
        if params.p not in self._held:
            buffers = [_buffers(self.model.n) for _ in params.betas]
            self._held[params.p] = self._program(params, buffers), buffers
        else:
            for gamma, beta, (phase, chain) in zip(params.gammas, params.betas, self._held[params.p][1]):
                self._write(gamma, beta, phase, chain)
        return self._held[params.p][0]

    def _program(self, params: QaoaParams, buffers: list[tuple]) -> list[tuple]:
        """The program whose layers' operands _write writes into buffers, one (phase,
        chain) per layer: the phase diagonal, then EXP_X's blocks, or, at beta = +-0,
        its diagonal on each qubit, which the kernel fuses with the phase layers."""
        n = self.model.n
        program = list(self._h_layer)
        for gamma, beta, (phase, chain) in zip(params.gammas, params.betas, buffers):
            mixer = self._write(gamma, beta, phase, chain)
            program.append((phase, tuple(range(n)), ()))
            program += _blocks(chain, n) if mixer.ndim == 2 else [(mixer, (q,), ()) for q in range(n)]
        return program

    def _write(self, gamma: float, beta: float, phase: np.ndarray, chain: list[np.ndarray]) -> np.ndarray:
        """The one operand builder: exp(i gamma cost) into phase and, unless beta is
        +-0, EXP_X(beta)'s Kronecker chain into chain; returns _exp_x(beta)."""
        np.multiply(self.cost, 1j * gamma, out=phase)
        np.exp(phase, out=phase)
        mixer = _exp_x(beta)
        if mixer.ndim == 2:
            _chain(mixer, chain)
        return mixer


def _buffers(n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """A layer's operand buffers on n qubits: 2^n phases, and a chain of square
    matrices on 1 to min(n, _KRON_QUBITS) qubits."""
    return np.empty(1 << n, np.complex128), [np.empty((2 << k, 2 << k), np.complex128) for k in range(min(n, _KRON_QUBITS))]


def _chain(u: np.ndarray, chain: list[np.ndarray]) -> list[np.ndarray]:
    """u, a 2 x 2 matrix, on 1, 2, ... qubits, written into chain: each entry the
    outer product (_kron) of u with the one before."""
    chain[0][...] = u
    for k in range(1, len(chain)):
        _kron(u, chain[k - 1], out=chain[k])
    return chain


def _blocks(chain: list[np.ndarray], n: int) -> list[tuple]:
    """chain[0] on each of qubits 0..n-1 as _fused makes the run: qubits ascending,
    cut into Kronecker blocks of at most _KRON_QUBITS qubits, each a triple whose
    operand bit j is its targets[j]."""
    return [
        (chain[min(n - q, _KRON_QUBITS) - 1], tuple(range(q, min(q + _KRON_QUBITS, n))), ())
        for q in range(0, n, _KRON_QUBITS)
    ]


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
