"""Gate-level circuit IR executed on the statevector engine.

Gates are named kinds with radian parameters plus a DENSE escape hatch for
explicit unitaries; one table (_KINDS) holds each kind's target count,
parameter count and kernel-operand builder (the diagonal of EXP_Z, EXP_ZZ, S
and S_DAGGER, else the matrix). Every gate may carry multi-controls with
open/closed polarity. A Gate is checked when it is built and builds its kernel
operand, and on request its matrix, once. A Circuit, immutable, is the one
form a circuit takes from its builder to the gate kernel: it checks every
gate's qubits in one pass when built and builds its kernel program, each gate's
(operand, targets, controls) triple, once (Circuit.program); gate_run makes
such triples for a run of gates of one kind from the same table, without
building Gates. A built circuit carries no register names: the estimator
builders place the state on the low qubits, the LCU ancillas above them and the
Hadamard qubit on top (make_register_map).

Rotation conventions: EXP_Z(phi) = e^{i phi Z}, EXP_X(phi) = e^{i phi X},
EXP_ZZ(phi) = e^{i phi Z (x) Z}. These are the evolution operators directly,
with no hidden -theta/2 factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .statevector import CLOSED, OPEN, StateVector, _bind, _check_int, _check_qubits, _checked_controls, _run
from .statevector import kernel_operand, new_basis_state

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
_I = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_S_DIAG = np.array([1.0, 1.0j], dtype=np.complex128)
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128)
# Sign patterns of the Z and Z (x) Z eigenvalues: exp(phi * signs) is the diagonal.
_Z_SIGNS = np.array([1j, -1j])
_ZZ_SIGNS = np.array([1j, -1j, -1j, 1j])


def _exp_x(phi: float) -> np.ndarray:
    matrix = np.cos(phi) * _I + 1j * np.sin(phi) * _X
    # sin(phi) is exactly 0 only at phi = +-0, where the gate is diagonal.
    return kernel_operand(matrix) if phi == 0 else matrix


# kind -> (target count, param count, kernel operand from the params).
# DENSE takes any target count and carries its own matrix; EXP_Z and EXP_ZZ map an angle array to rows.
_KINDS = {
    "H": (1, 0, lambda: _H),
    "X": (1, 0, lambda: _X),
    "S": (1, 0, lambda: _S_DIAG),
    "S_DAGGER": (1, 0, lambda: _S_DIAG.conj()),
    "EXP_X": (1, 1, _exp_x),
    "EXP_Z": (1, 1, lambda phi: np.exp(np.multiply.outer(phi, _Z_SIGNS))),
    "EXP_ZZ": (2, 1, lambda phi: np.exp(np.multiply.outer(phi, _ZZ_SIGNS))),
    "SWAP": (2, 0, lambda: _SWAP),
    "DENSE": (None, 0, None),
}


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()
    controls: tuple[tuple[int, int], ...] = ()
    matrix: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity, num_params, _ = _KINDS[self.kind]
        if self.kind == "DENSE":
            if self.matrix is None:
                raise ValueError("DENSE gate requires a matrix")
            dim = 1 << len(self.targets)
            if self.matrix.shape != (dim, dim):
                raise ValueError(f"DENSE matrix shape {self.matrix.shape} is not ({dim}, {dim})")
        elif self.matrix is not None:
            raise ValueError(f"{self.kind} builds its own matrix; only DENSE takes one")
        elif len(self.targets) != arity:
            raise ValueError(f"{self.kind} takes {arity} targets, got {self.targets}")
        if len(self.params) != num_params:
            raise ValueError(f"{self.kind} takes {num_params} params, got {self.params}")
        object.__setattr__(self, "controls", _checked_controls(self.targets, self.controls))

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + tuple(q for q, _ in self.controls)

    @cached_property
    def operand(self) -> np.ndarray:
        """What the kernel applies (kernel_operand's rule: a diagonal gate's diagonal), built once."""
        if self.matrix is not None:
            return kernel_operand(self.matrix)
        return _KINDS[self.kind][2](*self.params)

    @cached_property
    def unitary(self) -> np.ndarray:
        """Local matrix on the targets (controls excluded), built on first use."""
        return np.diag(self.operand) if self.operand.ndim == 1 else self.operand


def h(qubit: int, controls=()) -> Gate:
    return Gate("H", (qubit,), controls=tuple(controls))


def x(qubit: int) -> Gate:
    return Gate("X", (qubit,))


def s(qubit: int) -> Gate:
    return Gate("S", (qubit,))


def s_dagger(qubit: int) -> Gate:
    return Gate("S_DAGGER", (qubit,))


def exp_x(phi: float, qubit: int) -> Gate:
    return Gate("EXP_X", (qubit,), (float(phi),))


def exp_z(phi: float, qubit: int) -> Gate:
    return Gate("EXP_Z", (qubit,), (float(phi),))


def exp_zz(phi: float, qubit_a: int, qubit_b: int) -> Gate:
    return Gate("EXP_ZZ", (qubit_a, qubit_b), (float(phi),))


def swap(qubit_a: int, qubit_b: int) -> Gate:
    return Gate("SWAP", (qubit_a, qubit_b))


def dense(matrix: np.ndarray, targets, controls=()) -> Gate:
    return Gate("DENSE", targets, controls=tuple(controls), matrix=np.asarray(matrix, dtype=np.complex128))


def gate_run(kind: str, targets, angle=None) -> list[tuple]:
    """The kernel program of uncontrolled `kind` gates on each entry of targets,
    by the kind table's rule with no Gate built: angle is None for a kind without
    a parameter, a number all the gates share (one operand), or for EXP_Z and
    EXP_ZZ each gate's angle in an array."""
    build = _KINDS[kind][2]
    if np.ndim(angle):
        return list(zip(build(angle), targets, repeat(())))
    operand = build() if angle is None else build(angle)
    return [(operand, t, ()) for t in targets]


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense matrix of the gate on its targets (controls excluded)."""
    return gate.unitary


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        _check_int("num_qubits", self.num_qubits, 1)
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            _check_qubits(g.qubits, self.num_qubits)

    @cached_property
    def program(self) -> list[tuple]:
        """The (operand, targets, controls) triple the kernel applies for each gate, built once."""
        return [(g.operand, g.targets, g.controls) for g in self.gates]


def run(circuit: Circuit) -> StateVector:
    """Execute the circuit on a new register in |0...0>."""
    state = new_basis_state(circuit.num_qubits)
    _run(_bind(state, circuit.program))
    return state


@dataclass(frozen=True)
class ResourceReport:
    gate_count: int
    controlled_gate_count: int
    logical_depth: int
    qubit_count: int


def resource_report(circuit: Circuit) -> ResourceReport:
    """Logical resource counts: every gate costs depth 1 regardless of arity.

    Depth is the streaming moment count: gates are packed into moments in
    list order, and a gate opens a new moment whenever it touches a qubit
    already used in the current one.
    """
    depth = 0
    current: set[int] = set()
    controlled = 0
    for g in circuit.gates:
        if g.controls:
            controlled += 1
        qs = set(g.qubits)
        if depth == 0 or current & qs:
            depth += 1
            current = qs
        else:
            current |= qs
    return ResourceReport(len(circuit.gates), controlled, depth, circuit.num_qubits)


def make_register_map(num_state: int, num_ancilla: int, hadamard: bool = True) -> dict[str, range]:
    """Standard layout: state in the low bits, LCU ancillas above (an empty
    span when there are none), Hadamard qubit on top."""
    reg = {"state": range(0, num_state), "lcu_ancilla": range(num_state, num_state + num_ancilla)}
    if hadamard:
        top = num_state + num_ancilla
        reg["hadamard"] = range(top, top + 1)
    return reg

