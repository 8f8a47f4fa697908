"""QUBO instances, the QUBO -> Ising map, and the brute-force oracle.

Binary variables follow the global bit convention: variable i sits at bit i
of the basis index, and bitstrings are rendered most-significant-variable
first. The spin map is x_i = (1 - z_i)/2 with z_i = +1 for x_i = 0, i.e.
the eigenvalue of Z on |x_i>.

`ising_energies` is the one energy rule, the only code that turns spins into
an energy: every Z-basis quantity (the brute-force optimum, raw's energies,
the exact training oracle) reads its one vector, built in O(2^n) by
doubling, one qubit at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statevector import MAX_QUBITS, CapacityError, _check_int


@dataclass(frozen=True)
class QuboInstance:
    n: int
    Q: np.ndarray
    seed: int = 0

    def __post_init__(self):
        _check_int("n", self.n, 1)
        if self.Q.shape != (self.n, self.n):
            raise ValueError(f"Q must be {self.n}x{self.n}, got {self.Q.shape}")
        if not np.all(np.isfinite(self.Q)):  # NaN would also pass the symmetry check
            raise ValueError("Q entries must be finite")
        if np.max(np.abs(self.Q - self.Q.T)) > 1e-12:
            raise ValueError("Q must be symmetric")


@dataclass(frozen=True)
class IsingModel:
    n: int
    h: np.ndarray
    J: dict[tuple[int, int], float]
    offset: float = 0.0

    def __post_init__(self):
        _check_int("n", self.n, 1)
        if self.h.shape != (self.n,):
            raise ValueError(f"h must have length {self.n}")
        for i, j in self.J:  # ising_energies' numpy indexing would read a bool as a mask
            _check_int(f"coupling key {(i, j)} index i", i, 0, self.n - 2)
            _check_int(f"coupling key {(i, j)} index j", j, i + 1, self.n - 1)
        if not np.all(np.isfinite([*self.h, *self.J.values(), self.offset])):
            raise ValueError("coefficients must be finite")

    def terms(self) -> list[tuple[tuple[int, ...], float]]:
        """(qubits, coefficient) of every nonzero field, in qubit order, then
        of every nonzero coupling, in ascending (i, j) order."""
        fields = [((i,), c) for i, c in enumerate(self.h) if c != 0.0]
        return fields + [(ij, c) for ij, c in sorted(self.J.items()) if c != 0.0]


def random_qubo(n: int, seed: int) -> QuboInstance:
    """Symmetric cost matrix with entries uniform in (-2, 2)."""
    _check_int("n", n, 1)
    rng = np.random.default_rng(seed)
    Q = np.zeros((n, n))
    upper = np.triu_indices(n)
    Q[upper] = rng.uniform(-2.0, 2.0, size=len(upper[0]))
    Q = Q + np.triu(Q, k=1).T
    return QuboInstance(n, Q, seed)


def qubo_to_ising(q: QuboInstance) -> IsingModel:
    """Substitute x_i = (1 - z_i)/2; diagonal terms use x_i^2 = x_i.

    ising_energies of the result equals x^T Q x at every basis index.
    """
    n = q.n
    diag = np.diag(q.Q)
    off = q.Q - np.diag(diag)
    h = -diag / 2.0 - off.sum(axis=1) / 2.0
    J = {}
    for i in range(n):
        for j in range(i + 1, n):
            if q.Q[i, j] != 0.0:
                J[(i, j)] = float(q.Q[i, j] / 2.0)
    offset = float(diag.sum() / 2.0 + off.sum() / 4.0)
    return IsingModel(n, h, J, offset)


def ising_energies(m: IsingModel) -> np.ndarray:
    """offset + sum_i h_i z_i + sum_{i<j} J_ij z_i z_j of every basis state,
    indexed by basis index (z_i = +1 when bit i is clear).

    Built by doubling: after qubit k the vector holds the energy of the
    terms on qubits 0..k over the 2^(k+1) lower-bit states. Qubit k adds its
    field f_k = h_k + sum_{j<k} J_jk z_j, itself doubled over j, as
    E <- [E + f_k, E - f_k] (bit k clear first). O(2^n) work in total."""
    if m.n > MAX_QUBITS:
        raise CapacityError(f"n = {m.n} exceeds simulator capacity {MAX_QUBITS}")
    J = np.zeros((m.n, m.n))
    for (i, j), c in m.J.items():
        J[i, j] = c
    energies = np.empty(1 << m.n)
    field = np.empty(1 << m.n >> 1)
    energies[0] = m.offset
    for k in range(m.n):
        field[0] = m.h[k]
        for j in range(k):
            _double(field, 1 << j, J[j, k])
        _double(energies, 1 << k, field[: 1 << k])
    return energies


def _double(vec: np.ndarray, size: int, step) -> None:
    """vec[:2 size] <- [vec[:size] + step, vec[:size] - step], in place."""
    np.subtract(vec[:size], step, out=vec[size : 2 * size])
    vec[:size] += step


def brute_force_min(q: QuboInstance) -> tuple[str, float]:
    """Global minimum over all assignments, read from the Ising energies
    (equal to x^T Q x at every basis index); ties resolve to the lowest index."""
    energies = ising_energies(qubo_to_ising(q))
    best = int(np.argmin(energies))
    return format(best, f"0{q.n}b"), float(energies[best])

