"""Independent oracle for the benchmark's checks: numpy only, no holcus code.

Energies come from enumerating every basis state of the QUBO. The Ising
coefficients are read back from that energy vector by its Walsh transform,
so the oracle never uses the program's QUBO -> Ising map. The QAOA state is
a diagonal phase exp(i*gamma*E) and a per-qubit exp(i*beta*X) applied to the
state reshaped as a (2,)*n tensor, so it never uses the program's gates.

Bit i of a basis index is variable (qubit) i, as in the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

COEFF_TOL = 1e-12


def basis_bits(n: int) -> np.ndarray:
    """(2^n, n) 0/1 matrix: row b holds the bits of basis index b, LSB first."""
    idx = np.arange(1 << n)
    return (idx[:, None] >> np.arange(n)[None, :]) & 1


def qubo_energies(Q) -> np.ndarray:
    """x^T Q x for every assignment, indexed by basis index."""
    Q = np.asarray(Q, dtype=float)
    bits = basis_bits(Q.shape[0]).astype(float)
    return ((bits @ Q) * bits).sum(axis=1)


def ising_terms(energies: np.ndarray) -> tuple[float, list[tuple[tuple[int, ...], float]]]:
    """(offset, [(qubits, coefficient), ...]) of the spin polynomial whose
    values are `energies`, with z_i = +1 on bit 0. Fields come first in qubit
    order, then couplings in (i, j) order; zero coefficients are dropped.

    Raises ValueError if the energies need terms beyond second order.
    """
    n = int(round(math.log2(len(energies))))
    z = 1.0 - 2.0 * basis_bits(n)
    offset = float(energies.mean())
    terms = []
    for i in range(n):
        c = float((energies * z[:, i]).mean())
        if abs(c) > COEFF_TOL:
            terms.append(((i,), c))
    for i in range(n):
        for j in range(i + 1, n):
            c = float((energies * z[:, i] * z[:, j]).mean())
            if abs(c) > COEFF_TOL:
                terms.append(((i, j), c))
    rebuilt = np.full(len(energies), offset)
    for qubits, c in terms:
        rebuilt = rebuilt + c * np.prod(z[:, list(qubits)], axis=1)
    if np.max(np.abs(rebuilt - energies)) > 1e-9 * (1.0 + np.max(np.abs(energies))):
        raise ValueError("energies are not a quadratic spin polynomial")
    return offset, terms


def coefficient_groups(coeffs, tol: float = 1e-9) -> list[tuple[float, int]]:
    """Terms sharing magnitude and sign, as (signed coefficient, size) in
    first-occurrence order."""
    groups: list[list] = []
    for c in coeffs:
        for g in groups:
            if abs(abs(c) - abs(g[0])) <= tol and (c < 0) == (g[0] < 0):
                g[1] += 1
                break
        else:
            groups.append([c, 1])
    return [(float(c), k) for c, k in groups]


def qaoa_state(energies: np.ndarray, gammas, betas) -> np.ndarray:
    """Uniform superposition, then per layer exp(i*gamma*E) and exp(i*beta*X)
    on every qubit."""
    n = int(round(math.log2(len(energies))))
    psi = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)
    for gamma, beta in zip(gammas, betas):
        psi = psi * np.exp(1j * gamma * energies)
        t = psi.reshape((2,) * n)
        for axis in range(n):
            t = math.cos(beta) * t + 1j * math.sin(beta) * np.flip(t, axis=axis)
        psi = t.reshape(-1)
    return psi


def expectation(energies: np.ndarray, gammas, betas) -> float:
    """<psi|H|psi> of the QAOA state, H diagonal with the given energies."""
    psi = qaoa_state(energies, gammas, betas)
    return float(np.abs(psi) ** 2 @ energies)


@dataclass(frozen=True)
class InstanceOracle:
    """Everything the checks need about one QUBO, computed once."""

    n: int
    energies: np.ndarray
    offset: float
    terms: tuple[tuple[tuple[int, ...], float], ...]
    optimum: float
    uniform_mean: float

    @staticmethod
    def of(Q) -> "InstanceOracle":
        energies = qubo_energies(Q)
        offset, terms = ising_terms(energies)
        return InstanceOracle(
            int(np.asarray(Q).shape[0]),
            energies,
            offset,
            tuple(terms),
            float(energies.min()),
            float(energies.mean()),
        )

    @property
    def coeffs(self) -> list[float]:
        return [c for _, c in self.terms]

    @property
    def norm(self) -> float:
        """N = sum of |coefficient| over the LCU terms."""
        return float(sum(abs(c) for c in self.coeffs))

    def value(self, params_vector) -> float:
        """Exact QAOA expectation at (gammas..., betas...)."""
        vec = np.asarray(params_vector, dtype=float)
        half = len(vec) // 2
        return expectation(self.energies, vec[:half], vec[half:])

    def circuits_per_estimate(self, method: str) -> int:
        if method == "hadamard":
            return len(self.terms)
        if method == "holcus":
            return 1
        if method == "holcus_div":
            return len(coefficient_groups(self.coeffs))
        raise ValueError(f"no circuit count for method {method!r}")

    def max_qubits(self, method: str) -> int:
        """Register width: n state qubits, the method's ancillas, one Hadamard qubit."""
        if method == "hadamard":
            return self.n + 1
        if method == "holcus":
            return self.n + math.ceil(math.log2(len(self.terms) + 1)) + 1
        if method == "holcus_div":
            return self.n + max(group_ancillas(k) for _, k in coefficient_groups(self.coeffs)) + 1
        raise ValueError(f"no register width for method {method!r}")

    def sigma_bound(self, method: str, shots: int) -> float:
        """Upper bound on the shot-noise standard deviation of one estimate.

        Each circuit reads a scale s times (2 P(0) - 1) from `shots` Bernoulli
        draws, whose variance (2 s)^2 P(0)(1 - P(0)) / shots is at most
        s^2 / shots.
        """
        if method == "hadamard":
            scales = self.coeffs
        elif method == "holcus":
            scales = [self.norm]
        elif method == "holcus_div":
            scales = [k * c for c, k in coefficient_groups(self.coeffs)]
        else:
            raise ValueError(f"no shot-noise bound for method {method!r}")
        return math.sqrt(sum(s * s for s in scales) / shots)


def group_ancillas(size: int) -> int:
    """Ancillas of one coefficient group: none for a single term, log2(size)
    for a power of two (dense layout), else ceil(log2(size + 1)) (shifted)."""
    if size == 1:
        return 0
    if size & (size - 1) == 0:
        return size.bit_length() - 1
    return math.ceil(math.log2(size + 1))
