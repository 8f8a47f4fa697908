"""Pauli-string algebra and LCU machinery.

A Hamiltonian A = sum_k alpha_k * e^{i theta_k} * U_k is held as a list of
terms with alpha_k > 0, the phase split out as an angle theta_k, and U_k a
Pauli string. The normalization N = sum_k alpha_k rescales the estimator
output back to physical units.

Slot layouts for the ancilla register:

  dense   - slots 0..M-1 on m = ceil(log2(M)) ancillas (m >= 1), the
            textbook arrangement, which holcus_div's power-of-two groups
            fill; the term at slot 0 needs an extra closed control on the
            Hadamard qubit in the select stage.
  shifted - slots 1..M on m = ceil(log2(M+1)) ancillas; slot 0 stays empty
            so no select gate ever touches the Hadamard qubit. This is the
            default and the layout from_ising builds. When M is a power of
            two it costs one ancilla more than dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import CLOSED, Circuit, dense, h, swap

_PAULI_MATS = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

LAYOUTS = ("dense", "shifted")


@dataclass(frozen=True)
class PauliString:
    """Map qubit -> X/Y/Z; identity everywhere else. Empty map = identity."""

    ops: dict[int, str]

    def __post_init__(self):
        for q, op in self.ops.items():
            if q < 0:
                raise ValueError(f"negative qubit index {q}")
            if op not in _PAULI_MATS:
                raise ValueError(f"operator must be X, Y or Z, got {op!r}")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.ops))

    def local_matrix(self) -> np.ndarray:
        """Dense matrix over just the support qubits, LSB-first target order."""
        mat = np.eye(1, dtype=np.complex128)
        for q in self.support:
            mat = np.kron(_PAULI_MATS[self.ops[q]], mat)
        return mat

    def __str__(self) -> str:
        if not self.ops:
            return "I"
        return "*".join(f"{self.ops[q]}{q}" for q in self.support)


@dataclass(frozen=True)
class LcuTerm:
    alpha: float
    theta: float
    unitary: PauliString

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"term weight must be positive, got {self.alpha}")

    @property
    def signed_coefficient(self) -> complex:
        return self.alpha * np.exp(1j * self.theta)


@dataclass(frozen=True)
class LcuDecomposition:
    terms: tuple[LcuTerm, ...]
    normalization: float
    num_ancillas: int
    layout: str
    slot_of_term: dict[int, int] = field(default_factory=dict)

    @property
    def num_terms(self) -> int:
        return len(self.terms)


def ancillas_for(num_terms: int, layout: str) -> int:
    if layout == "shifted":
        return math.ceil(math.log2(num_terms + 1))
    return max(1, math.ceil(math.log2(num_terms)))


def decomposition_from_terms(terms, layout: str = "shifted") -> LcuDecomposition:
    terms = tuple(terms)
    if not terms:
        raise ValueError("decomposition needs at least one term")
    if layout not in LAYOUTS:
        raise ValueError(f"layout must be one of {LAYOUTS}, got {layout!r}")
    m = ancillas_for(len(terms), layout)
    offset = 1 if layout == "shifted" else 0
    slots = {k: k + offset for k in range(len(terms))}
    norm = float(sum(t.alpha for t in terms))
    return LcuDecomposition(terms, norm, m, layout, slots)


def from_ising(model) -> LcuDecomposition:
    """LCU terms of the spin Hamiltonian, in the shifted layout: one Z_i per
    field, one Z_i Z_j per coupling. Negative coefficients become theta = pi;
    the constant offset is excluded and must be re-added by the caller."""
    terms = []
    for i in range(model.n):
        c = model.h[i]
        if c != 0.0:
            terms.append(LcuTerm(abs(c), math.pi if c < 0 else 0.0, PauliString({i: "Z"})))
    for (i, j), c in sorted(model.J.items()):
        if c != 0.0:
            terms.append(LcuTerm(abs(c), math.pi if c < 0 else 0.0, PauliString({i: "Z", j: "Z"})))
    if not terms:
        raise ValueError("all-zero model has no LCU terms")
    return decomposition_from_terms(terms)


def _complete_unitary(column0: np.ndarray) -> np.ndarray:
    """A unitary whose column 0 is the unit vector column0: the phase of
    column0[0] times the Householder reflection that maps e0 to column0 with
    that phase divided out. Deterministic; 1 - |column0[0]| is formed from the
    other entries, so column 0 stays exact when it is close to e0."""
    dim = column0.shape[0]
    lead = abs(column0[0])
    phase = column0[0] / lead if lead else 1.0
    v = -column0 / phase  # e0 - column0 / phase, up to entry 0
    rest = np.vdot(v[1:], v[1:]).real
    if rest == 0.0:
        return phase * np.eye(dim, dtype=np.complex128)
    v[0] = rest / (1.0 + lead)
    return phase * (np.eye(dim) - (2.0 / np.vdot(v, v).real) * np.outer(v, v.conj()))


def build_prep_unitaries(dec: LcuDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """The pair (V, V_hat): column 0 of V holds sqrt(alpha_k/N) e^{i theta_k}
    at each term's slot, column 0 of V_hat the same magnitudes with no phase.
    Only column 0 enters an estimate; the other columns come from one
    Householder reflection (times the phase of entry 0) that completes it to a
    unitary."""
    dim = 1 << dec.num_ancillas
    col_v = np.zeros(dim, dtype=np.complex128)
    col_vhat = np.zeros(dim, dtype=np.complex128)
    for k, term in enumerate(dec.terms):
        slot = dec.slot_of_term[k]
        amp = math.sqrt(term.alpha / dec.normalization)
        col_v[slot] = amp * np.exp(1j * term.theta)
        col_vhat[slot] = amp
    for col in (col_v, col_vhat):
        if abs(np.linalg.norm(col) - 1.0) > 1e-9:
            raise RuntimeError("prep column is not normalized; decomposition is inconsistent")
    return _complete_unitary(col_v), _complete_unitary(col_vhat)


def build_select_circuit(dec: LcuDecomposition, register_map: dict[str, range]) -> Circuit:
    """Multiplexed Pauli application: term k fires when the ancilla register
    holds slot_of_term[k], encoded by open/closed controls per binary digit.

    In dense layout the slot-0 term additionally carries a closed control on
    the Hadamard qubit (that pattern would otherwise fire on the untouched
    |0...0> ancilla branch). Identity terms emit no gate.
    """
    anc = register_map.get("lcu_ancilla", range(0))
    state = register_map["state"]
    if len(anc) < dec.num_ancillas:
        raise ValueError(f"need {dec.num_ancillas} ancillas, register has {len(anc)}")
    num_qubits = max(r.stop for r in register_map.values())
    gates = []
    for k, term in enumerate(dec.terms):
        pauli = term.unitary
        if not pauli.ops:
            continue
        slot = dec.slot_of_term[k]
        controls = [(anc[j], (slot >> j) & 1) for j in range(dec.num_ancillas)]
        if dec.layout == "dense" and slot == 0:
            if "hadamard" not in register_map:
                raise ValueError("dense layout needs a hadamard register for the slot-0 control")
            controls.append((register_map["hadamard"][0], CLOSED))
        if max(pauli.support) >= len(state):
            raise ValueError(f"state register too small for {pauli}")
        targets = [state[q] for q in pauli.support]
        gates.append(dense(pauli.local_matrix(), targets, controls))
    return Circuit(num_qubits, gates)


@dataclass(frozen=True)
class CoefficientGroup:
    common_alpha: float
    common_theta: float
    term_indices: tuple[int, ...]


def group_by_coefficient(dec: LcuDecomposition, tol: float = 1e-9) -> list[CoefficientGroup]:
    """Partition term indices by (alpha, theta) within tol, first-occurrence order."""
    if not tol >= 0:  # also rejects NaN
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    groups: list[list[int]] = []
    reps: list[tuple[float, float]] = []
    for k, term in enumerate(dec.terms):
        for g, (a, t) in enumerate(reps):
            if abs(term.alpha - a) <= tol and abs(term.theta - t) <= tol:
                groups[g].append(k)
                break
        else:
            reps.append((term.alpha, term.theta))
            groups.append([k])
    return [
        CoefficientGroup(a, t, tuple(idx)) for (a, t), idx in zip(reps, groups)
    ]


def build_uniform_prep_circuit(
    m: int, nearest_neighbor: bool = False, register_map: dict[str, range] | None = None
) -> Circuit:
    """Controlled uniform initialization: |0>^m -> 2^{-m/2} sum_k |k> on the
    ancillas whenever the Hadamard qubit is set, and the identity otherwise.

    The gates act on register_map's "lcu_ancilla" and "hadamard" spans; the
    default frame puts the ancillas on qubits 0..m-1 and the Hadamard qubit on
    qubit m. All-to-all connectivity needs just m controlled-H gates. The
    nearest-neighbor variant assumes the chain hadamard - a_{m-1} - ... - a_0,
    so only the top ancilla can host the controlled-H; each prepared qubit is
    then pushed down with swaps: m(m+1)/2 gates in total. Every gate is its own
    inverse, so the gates in reverse order un-prepare.
    """
    if m < 1:
        raise ValueError(f"need at least one ancilla, got {m}")
    if register_map is None:
        register_map = {"lcu_ancilla": range(m), "hadamard": range(m, m + 1)}
    anc = register_map["lcu_ancilla"]
    if len(anc) < m:
        raise ValueError(f"need {m} ancillas, register has {len(anc)}")
    hq = register_map["hadamard"][0]
    num_qubits = max(r.stop for r in register_map.values())
    if not nearest_neighbor:
        gates = [h(anc[j], controls=[(hq, CLOSED)]) for j in range(m)]
    else:
        gates = []
        for k in range(m):
            gates.append(h(anc[m - 1], controls=[(hq, CLOSED)]))
            gates += [swap(anc[j], anc[j - 1]) for j in range(m - 1, k, -1)]
    return Circuit(num_qubits, gates)
