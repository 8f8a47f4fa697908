"""Statevector engine walkthrough: states, controlled gates, marginals, sampling.

Conventions used everywhere in the package: qubit 0 is the least-significant
bit of the basis index, and bitstrings print most-significant qubit first.
"""

import numpy as np

from holcus import (
    CLOSED,
    OPEN,
    apply_unitary,
    marginal_probabilities,
    new_basis_state,
    sample_counts,
)

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]])

# A Bell pair: H on qubit 0, then X on qubit 1 controlled by qubit 0.
state = new_basis_state(2)
apply_unitary(state, H, [0])
apply_unitary(state, X, [1], controls=[(0, CLOSED)])
print("Bell amplitudes:", np.round(state.amplitudes, 6))

# Open controls fire on |0> instead of |1>: flipping qubit 1 of |00> only
# when qubit 0 reads 0 turns the second component of the superposition off.
state2 = new_basis_state(2)
apply_unitary(state2, H, [0])
apply_unitary(state2, X, [1], controls=[(0, OPEN)])
print("open-control amplitudes:", np.round(state2.amplitudes, 6))

# Marginals: the Bell pair is perfectly correlated.
print("qubit 0 marginal:", marginal_probabilities(state, [0]).probabilities)
print("joint marginal:  ", marginal_probabilities(state).probabilities)

# Z expectations without sampling, read from the marginals: Z0 is +1 on outcome
# "0" of qubit 0, and Z0 Z1 is +1 where the two bits agree. <Z0 Z1> = 1 on the Bell pair.
z0 = marginal_probabilities(state, [0]).probabilities
zz = marginal_probabilities(state, [1, 0]).probabilities
print("<Z0> =", z0.get("0", 0.0) - z0.get("1", 0.0))
print("<Z0 Z1> =", sum(p if key in ("00", "11") else -p for key, p in zz.items()))

# Seeded multinomial sampling is reproducible.
counts = sample_counts(marginal_probabilities(state), shots=1000, seed=7)
print("1000 shots (seed 7):", counts.counts)
counts_again = sample_counts(marginal_probabilities(state), shots=1000, seed=7)
print("same seed, same counts:", counts.counts == counts_again.counts)
