"""Pauli-string algebra and LCU machinery.

A Hamiltonian A = sum_k alpha_k * e^{i theta_k} * U_k is held as a list of
terms with alpha_k > 0, the phase split out as an angle theta_k, and U_k a
Pauli string. The normalization N = sum_k alpha_k rescales the estimator
output back to physical units. PauliString.local_matrix is the one rule for
how a Pauli string acts, which the select stage's gates carry.

Slot layouts for the ancilla register:

  dense   - slots 0..M-1 on m = ceil(log2(M)) ancillas, the textbook
            arrangement, which holcus_div's power-of-two groups fill; the
            term at slot 0 needs an extra closed control on the Hadamard
            qubit in the select stage. One term needs no ancilla, and its
            LCU measurement is the Hadamard test.
  shifted - slots 1..M on m = ceil(log2(M+1)) ancillas; slot 0 stays empty
            so no select gate ever touches the Hadamard qubit. This is the
            default and the layout from_ising builds. When M is a power of
            two it costs one ancilla more than dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import CLOSED, Circuit, Gate, dense, h, swap
from .statevector import _check_int

LAYOUTS = ("dense", "shifted")

# Bound on the letter patterns whose matrices _pattern_matrix keeps; an Ising
# plan uses two ("Z", "ZZ").
PATTERN_CACHE_SIZE = 256

# How far a term's weight and phase may be from its coefficient group's first term.
GROUPING_TOL = 1e-9


@dataclass(frozen=True)
class PauliString:
    """Map qubit -> X/Y/Z; identity everywhere else. Empty map = identity."""

    ops: dict[int, str]

    def __post_init__(self):
        # A float qubit would fail only once the string is applied.
        for q, op in self.ops.items():
            _check_int("qubit index", q, 0)
            if op not in ("X", "Y", "Z"):
                raise ValueError(f"operator must be X, Y or Z, got {op!r}")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.ops))

    def local_matrix(self) -> np.ndarray:
        """Dense matrix over the support qubits (bit j of the row and column index is
        support[j]), built once per letter pattern (_pattern_matrix) and read-only."""
        return _pattern_matrix(tuple(self.ops[q] for q in self.support))

    def __str__(self) -> str:
        if not self.ops:
            return "I"
        return "*".join(f"{self.ops[q]}{q}" for q in self.support)


@lru_cache(maxsize=PATTERN_CACHE_SIZE)
def _pattern_matrix(ops: tuple[str, ...]) -> np.ndarray:
    """The matrix of the Pauli letters ops, bit j of its index on ops[j], read-only, as
    every string with this pattern shares it: P|i> = i^(#Y) * (-1)^popcount(i & Y,Z
    bits) * |i ^ X,Y bits>."""
    flip = sum(1 << j for j, op in enumerate(ops) if op != "Z")
    mask = sum(1 << j for j, op in enumerate(ops) if op != "X")
    idx = np.arange(1 << len(ops))
    mat = np.zeros((len(idx), len(idx)), dtype=np.complex128)
    mat[idx ^ flip, idx] = 1j ** ops.count("Y") * (1.0 - 2.0 * (np.bitwise_count(idx & mask) & 1))
    mat.flags.writeable = False
    return mat


@dataclass(frozen=True)
class LcuTerm:
    alpha: float
    theta: float
    unitary: PauliString

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and math.isfinite(self.theta)):  # also rejects NaN
            raise ValueError(f"need a finite weight > 0 and a finite phase, got {self.alpha}, {self.theta}")

    @property
    def signed_coefficient(self) -> complex:
        return self.alpha * np.exp(1j * self.theta)


@dataclass(frozen=True)
class LcuDecomposition:
    """The terms and their slot layout; everything else is derived from them."""

    terms: tuple[LcuTerm, ...]
    layout: str

    def __post_init__(self):
        if not self.terms:
            raise ValueError("decomposition needs at least one term")
        if self.layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}, got {self.layout!r}")

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @property
    def normalization(self) -> float:
        return float(sum(t.alpha for t in self.terms))

    @property
    def num_ancillas(self) -> int:
        return math.ceil(math.log2(self.num_terms + (self.layout == "shifted")))

    @property
    def slots(self) -> range:
        """Each term's ancilla slot, in term order: from 0 when dense, from 1 when shifted."""
        return range(self.layout == "shifted", self.num_terms + (self.layout == "shifted"))


def decomposition_from_terms(terms, layout: str = "shifted") -> LcuDecomposition:
    return LcuDecomposition(tuple(terms), layout)


def from_ising(model) -> LcuDecomposition:
    """LCU terms of the spin Hamiltonian, in the shifted layout: a Z string on
    each of model.terms(), in its order. Negative coefficients become theta = pi;
    the constant offset is excluded and must be re-added by the caller."""
    terms = [
        LcuTerm(abs(c), math.pi if c < 0 else 0.0, PauliString(dict.fromkeys(qubits, "Z")))
        for qubits, c in model.terms()
    ]
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
    norm = dec.normalization
    for slot, term in zip(dec.slots, dec.terms):
        amp = math.sqrt(term.alpha / norm)
        col_v[slot] = amp * np.exp(1j * term.theta)
        col_vhat[slot] = amp
    return _complete_unitary(col_v), _complete_unitary(col_vhat)


def _ancilla_frame(register_map: dict[str, range], m: int) -> tuple[range, int]:
    """The ancilla span (of at least m qubits) and width of a map whose spans share no qubit."""
    anc = register_map["lcu_ancilla"]
    if len(anc) < m:
        raise ValueError(f"need {m} ancillas, register has {len(anc)}")
    qubits = [q for span in register_map.values() for q in span]
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"register spans share a qubit: {register_map}")
    return anc, max(span.stop for span in register_map.values())


def build_select_circuit(dec: LcuDecomposition, register_map: dict[str, range]) -> Circuit:
    """Multiplexed Pauli application: term k fires when the ancilla register
    holds dec.slots[k], encoded by open/closed controls per binary digit.

    In dense layout the slot-0 term additionally carries a closed control on
    the Hadamard qubit (that pattern would otherwise fire on the untouched
    |0...0> ancilla branch). Identity terms emit no gate.
    """
    return Circuit(_ancilla_frame(register_map, dec.num_ancillas)[1], _select_gates(dec, register_map))


def _select_gates(dec: LcuDecomposition, register_map: dict[str, range]) -> list[Gate]:
    """build_select_circuit's gates, not yet range-checked, on a map _ancilla_frame
    accepts; the estimators put them straight into a suffix Circuit, which checks them."""
    anc, state = register_map["lcu_ancilla"], register_map["state"]
    gates = []
    for slot, term in zip(dec.slots, dec.terms):
        pauli = term.unitary
        if not pauli.ops:
            continue
        controls = [(anc[j], (slot >> j) & 1) for j in range(dec.num_ancillas)]
        if dec.layout == "dense" and slot == 0:
            if "hadamard" not in register_map:
                raise ValueError("dense layout needs a hadamard register for the slot-0 control")
            controls.append((register_map["hadamard"][0], CLOSED))
        if max(pauli.support) >= len(state):
            raise ValueError(f"state register too small for {pauli}")
        targets = [state[q] for q in pauli.support]
        gates.append(dense(pauli.local_matrix(), targets, controls))
    return gates


@dataclass(frozen=True)
class CoefficientGroup:
    common_alpha: float
    common_theta: float
    term_indices: tuple[int, ...]


def group_by_coefficient(dec: LcuDecomposition, tol: float = GROUPING_TOL) -> list[CoefficientGroup]:
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


def build_uniform_prep_circuit(m: int, nearest_neighbor: bool = False) -> Circuit:
    """Controlled uniform initialization: |0>^m -> 2^{-m/2} sum_k |k> on the
    ancillas whenever the Hadamard qubit is set, and the identity otherwise.

    The circuit has its own frame: the ancillas on qubits 0..m-1 and the
    Hadamard qubit on qubit m. All-to-all connectivity needs just m
    controlled-H gates. The nearest-neighbor variant assumes the chain
    hadamard - a_{m-1} - ... - a_0, so only the top ancilla can host the
    controlled-H; each prepared qubit is then pushed down with swaps:
    m(m+1)/2 gates in total. Every gate is its own inverse, so the gates in
    reverse order un-prepare.
    """
    _check_int("m", m, 1)
    control = [(m, CLOSED)]
    if not nearest_neighbor:
        gates = [h(j, controls=control) for j in range(m)]
    else:
        gates = []
        for k in range(m):
            gates.append(h(m - 1, controls=control))
            gates += [swap(j, j - 1) for j in range(m - 1, k, -1)]
    return Circuit(m + 1, gates)
