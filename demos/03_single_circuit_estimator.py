"""The combined Hadamard+LCU circuit: one circuit, one measured qubit.

Instead of one interference circuit per Hamiltonian term, the full linear
combination A = sum_k alpha_k e^{i theta_k} U_k is applied through a
prepare/select/unprepare block nested inside a Hadamard test. The single
measured qubit then satisfies

    Re <psi|A|psi> = N (2 P(0) - 1),      N = sum_k alpha_k,

with no post-selection: every shot is used. The ancilla slots are shifted by
one so the all-zeros pattern stays empty, which keeps every select control
off the measured qubit.
"""

import numpy as np

from holcus import (
    EstimatorConfig,
    QaoaParams,
    build_ansatz,
    compile_plan,
    estimate,
    exact_expectation,
    from_ising,
    holcus_circuit,
    marginal_probabilities,
    qubo_to_ising,
    random_qubo,
    resource_report,
    run,
)

model = qubo_to_ising(random_qubo(4, seed=23))
params = QaoaParams((0.7, 0.2), (0.5, 0.9))
prep = build_ansatz(model, params)

dec = from_ising(model)
print(f"n = {model.n} state qubits, M = {dec.num_terms} terms, "
      f"m = {dec.num_ancillas} ancillas, N = {dec.normalization:.4f}")

# Build and run the single circuit; read one qubit. The state sits on the low
# qubits, the ancillas above it, and the measured Hadamard qubit on top.
circ = holcus_circuit(prep, dec)
hq = circ.num_qubits - 1
p0 = marginal_probabilities(run(circ), [hq]).probabilities["0"]
value = model.offset + dec.normalization * (2 * p0 - 1)
print(f"P(0) = {p0:.6f}  ->  estimate {value:.10f}")
print(f"exact expectation  {exact_expectation(model, params):.10f}")

# Resource comparison against the per-term approach on the same instance.
print("\n                circuits   max qubits   total gates")
for name, method in (("combined", "holcus"), ("per-term", "hadamard")):
    reports = compile_plan(model, EstimatorConfig(method=method)).resources(prep)
    gates = sum(r.gate_count for r in reports)
    qubits = max(r.qubit_count for r in reports)
    print(f"  {name:10s}  {len(reports):8d}   {qubits:10d}   {gates:11d}")

# The combined circuit's own cost profile:
r = resource_report(circ)
print(f"\ncombined circuit: {r.gate_count} gates, depth {r.logical_depth}, "
      f"{r.controlled_gate_count} controlled")

# At a fixed shot budget per circuit, both estimators are unbiased; the
# combined one spends the budget once instead of M times.
for shots in (1000, 10_000):
    a = estimate(prep, model, EstimatorConfig(method="holcus", shots=shots, seed=1))
    b = estimate(prep, model, EstimatorConfig(method="hadamard", shots=shots, seed=1))
    print(f"shots {shots:6d}: combined {a.value:+.4f} ({a.shots_used} total shots), "
          f"per-term {b.value:+.4f} ({b.shots_used} total shots)")
