"""Shared oracle helpers.

Everything here recomputes expected values along an independent route:
full matrices come from explicit basis-state enumeration (never from the
package's gate kernel), rotations from scipy's expm (never from the
package's closed forms), and Hamiltonians from Kronecker products. run_from
is the one exception: it runs the package's kernel, from a chosen start
state, for a test to compare with an oracle. chunk_size is no oracle: it runs
a block of a test under a smaller statevector.CHUNK.

BLAS is pinned to one thread, as benchmark/run.py pins it, so the timing
criterion runs the configuration the benchmark measures.
"""

import os
import sys
from contextlib import contextmanager

if "numpy" in sys.modules:
    raise RuntimeError("numpy was loaded before tests/conftest.py could pin BLAS to one thread")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.linalg import expm

from holcus import statevector
from holcus.circuit import CLOSED, OPEN, Circuit, Gate
from holcus.qubo_ising import IsingModel
from holcus.statevector import StateVector, _bind, _diag_layout, _matrix_layout, _run

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S_MAT = np.diag([1, 1j]).astype(complex)
SWAP_MAT = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def pauli_full_matrix(ops: dict, n: int) -> np.ndarray:
    """Kron product, qubit 0 least significant."""
    mat = np.eye(1, dtype=complex)
    for q in range(n):
        mat = np.kron(PAULI[ops.get(q, "I")], mat)
    return mat


def local_gate_matrix(gate: Gate) -> np.ndarray:
    """Local matrix of a gate, rotations via expm."""
    if gate.kind == "H":
        return H_MAT
    if gate.kind == "X":
        return PAULI["X"]
    if gate.kind == "S":
        return S_MAT
    if gate.kind == "S_DAGGER":
        return S_MAT.conj().T
    if gate.kind == "EXP_X":
        return expm(1j * gate.params[0] * PAULI["X"])
    if gate.kind == "EXP_Z":
        return expm(1j * gate.params[0] * PAULI["Z"])
    if gate.kind == "EXP_ZZ":
        return expm(1j * gate.params[0] * np.kron(PAULI["Z"], PAULI["Z"]))
    if gate.kind == "SWAP":
        return SWAP_MAT
    return gate.matrix


def embed_full_matrix(local: np.ndarray, targets, controls, n: int) -> np.ndarray:
    """2^n matrix of a controlled gate by explicit column enumeration."""
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    k = len(targets)
    for col in range(dim):
        if any(((col >> q) & 1) != v for q, v in controls):
            out[col, col] = 1.0
            continue
        t_in = 0
        base = col
        for j, q in enumerate(targets):
            t_in |= ((col >> q) & 1) << j
            base &= ~(1 << q)
        for t_out in range(1 << k):
            row = base
            for j, q in enumerate(targets):
                row |= ((t_out >> j) & 1) << q
            out[row, col] = local[t_out, t_in]
    return out


def apply_full_matrix(local: np.ndarray, targets, controls, n: int, psi: np.ndarray) -> np.ndarray:
    """embed_full_matrix(local, targets, controls, n) @ psi by the same column
    enumeration, vectorised over the columns, without building the 2^n matrix."""
    cols = np.arange(1 << n)
    active = np.ones(1 << n, dtype=bool)
    for q, v in controls:
        active &= ((cols >> q) & 1) == v
    out = np.where(active, 0, psi).astype(complex)
    t_in = np.zeros(1 << n, dtype=int)
    base = cols.copy()
    for j, q in enumerate(targets):
        t_in |= ((cols >> q) & 1) << j
        base &= ~(1 << q)
    for t_out in range(1 << len(targets)):
        rows = base.copy()
        for j, q in enumerate(targets):
            rows |= ((t_out >> j) & 1) << q
        np.add.at(out, rows[active], local[t_out, t_in[active]] * psi[active])
    return out


def distinct_phase_diagonal(rng: np.random.Generator, k: int) -> np.ndarray:
    """2^k x 2^k diagonal unitary whose phases are pairwise distinct, in random order."""
    dim = 1 << k
    return np.diag(np.exp(2j * np.pi * (rng.permutation(dim) + rng.uniform()) / dim))


def random_phase_gate(data, rng: np.random.Generator, n: int) -> Gate:
    """An uncontrolled diagonal gate on distinct qubits below n, drawn by a
    hypothesis data object: EXP_Z, EXP_ZZ or a DENSE diagonal of distinct phases
    on 1-3 targets."""
    kind = data.draw(st.sampled_from(["EXP_Z", "DENSE"] + ["EXP_ZZ"] * (n > 1)))
    k = {"EXP_Z": 1, "EXP_ZZ": 2}.get(kind) or data.draw(st.integers(1, min(3, n)))
    targets = tuple(data.draw(st.permutations(range(n)))[:k])
    if kind == "DENSE":
        return Gate(kind, targets, matrix=distinct_phase_diagonal(rng, k))
    return Gate(kind, targets, (float(rng.uniform(-np.pi, np.pi)),))


def random_controlled_diagonal(data, rng: np.random.Generator, n: int) -> Gate:
    """A DENSE diagonal of distinct phases on 1-3 distinct qubits below n (n >= 2),
    with 1-3 of the others as controls, each of a drawn polarity, as the select
    stage's controlled Z-strings are, drawn by a hypothesis data object."""
    k = data.draw(st.integers(1, min(3, n - 1)))
    qubits = data.draw(st.permutations(range(n)))
    c = data.draw(st.integers(1, min(3, n - k)))
    controls = tuple((q, data.draw(st.sampled_from([OPEN, CLOSED]))) for q in qubits[k : k + c])
    return Gate("DENSE", tuple(qubits[:k]), controls=controls, matrix=distinct_phase_diagonal(rng, k))


def circuit_full_matrix(circ: Circuit) -> np.ndarray:
    mat = np.eye(1 << circ.num_qubits, dtype=complex)
    for g in circ.gates:
        mat = embed_full_matrix(local_gate_matrix(g), g.targets, g.controls, circ.num_qubits) @ mat
    return mat


def run_from(circ: Circuit, psi: np.ndarray) -> np.ndarray:
    """The amplitudes of circ run by the package's kernel on a copy of psi, as
    holcus.circuit.run does from |0...0>."""
    state = StateVector(circ.num_qubits, np.array(psi, dtype=np.complex128))
    _run(_bind(state, circ.program))
    return state.amplitudes


@contextmanager
def chunk_size(chunk):
    """Run the kernel and the readouts with statevector.CHUNK = chunk, with no recipe
    cached across the change."""
    default = statevector.CHUNK
    statevector.CHUNK = chunk
    _diag_layout.cache_clear()
    _matrix_layout.cache_clear()
    try:
        yield
    finally:
        statevector.CHUNK = default
        _diag_layout.cache_clear()
        _matrix_layout.cache_clear()


def model_of(n, h, J, offset=0.0) -> IsingModel:
    """The Ising model with fields h (any sequence), couplings J and offset."""
    return IsingModel(n, np.asarray(h, dtype=float), J, offset)


def ising_dense_matrix(model) -> np.ndarray:
    """offset*I + sum h_i Z_i + sum J_ij Z_i Z_j as an explicit matrix."""
    n = model.n
    mat = model.offset * np.eye(1 << n, dtype=complex)
    for i in range(n):
        if model.h[i] != 0.0:
            mat = mat + model.h[i] * pauli_full_matrix({i: "Z"}, n)
    for (i, j), c in model.J.items():
        if c != 0.0:
            mat = mat + c * pauli_full_matrix({i: "Z", j: "Z"}, n)
    return mat


def ising_phase_diagonal(model, gamma: float) -> np.ndarray:
    """exp(i gamma (E - offset)) at every basis index, E the model's energy, by
    basis enumeration: each term's coefficient times the product of its spins,
    z_q = +1 when bit q of the index is clear."""
    index = np.arange(1 << model.n)
    angle = np.zeros(1 << model.n)
    for qubits, c in model.terms():
        z = np.ones(1 << model.n)
        for q in qubits:
            z *= 1 - 2 * ((index >> q) & 1)
        angle += c * z
    return np.exp(1j * gamma * angle)


def lcu_dense_matrix(dec, n: int) -> np.ndarray:
    """sum_k alpha_k e^{i theta_k} U_k assembled from Kronecker products."""
    mat = np.zeros((1 << n, 1 << n), dtype=complex)
    for term in dec.terms:
        mat = mat + term.alpha * np.exp(1j * term.theta) * pauli_full_matrix(term.unitary.ops, n)
    return mat


def random_prep_circuit(n: int, rng: np.random.Generator, depth: int = 12) -> Circuit:
    """Random single/two-qubit gate sequence over the IR's named kinds."""
    from holcus.circuit import exp_x, exp_z, exp_zz, h, s, s_dagger, swap, x

    gates = []
    for _ in range(depth):
        choice = rng.integers(0, 8)
        q = int(rng.integers(0, n))
        if choice == 0:
            gates.append(h(q))
        elif choice == 1:
            gates.append(x(q))
        elif choice == 2:
            gates.append(s(q))
        elif choice == 3:
            gates.append(s_dagger(q))
        elif choice == 4:
            gates.append(exp_x(float(rng.uniform(-np.pi, np.pi)), q))
        elif choice == 5:
            gates.append(exp_z(float(rng.uniform(-np.pi, np.pi)), q))
        elif n >= 2:
            q2 = int(rng.integers(0, n - 1))
            q2 = q2 if q2 != q else n - 1
            if choice == 6:
                gates.append(exp_zz(float(rng.uniform(-np.pi, np.pi)), q, q2))
            else:
                gates.append(swap(q, q2))
    return Circuit(n, tuple(gates))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
