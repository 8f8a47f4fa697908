"""Per-term Hadamard tests for an Ising expectation value.

Each Pauli term of the Hamiltonian gets its own interference circuit: the
ancilla's probability of reading 0 encodes Re<U> via 2 P(0) - 1. Summing the
weighted per-term results reproduces the full expectation, at the price of
one circuit per term.
"""

import numpy as np

from holcus import (
    EstimatorConfig,
    QaoaParams,
    build_ansatz,
    estimate,
    exact_expectation,
    hadamard_test_circuit,
    from_ising,
    marginal_probabilities,
    qubo_to_ising,
    random_qubo,
    run,
)

qubo = random_qubo(3, seed=11)
model = qubo_to_ising(qubo)
params = QaoaParams((0.6,), (0.4,))
prep = build_ansatz(model, params)

# One circuit per term, by hand:
dec = from_ising(model)
total = model.offset
print(f"{dec.num_terms} LCU terms, normalization N = {dec.normalization:.4f}")
for term in dec.terms:
    circ = hadamard_test_circuit(prep, term.unitary)
    p0 = marginal_probabilities(run(circ), [prep.num_qubits]).probabilities.get("0", 0.0)
    contribution = term.signed_coefficient.real * (2 * p0 - 1)
    total += contribution
    print(f"  {str(term.unitary):8s} coeff {term.signed_coefficient.real:+.4f}  "
          f"P(0) = {p0:.4f}  contribution {contribution:+.4f}")

print("summed estimate:   ", total)
print("exact expectation: ", exact_expectation(model, params))

# The packaged estimator does the same bookkeeping, plus resource accounting:
res = estimate(prep, model, EstimatorConfig(method="hadamard"))
print(f"estimator value {res.value:.10f} using {res.circuits_used} circuits "
      f"on up to {res.max_qubits} qubits")

# Finite shots: every circuit is sampled with its own derived seed.
noisy = estimate(prep, model, EstimatorConfig(method="hadamard", shots=2000, seed=3))
print(f"2000-shot estimate {noisy.value:.4f} +/- {noisy.std_error:.4f}")
