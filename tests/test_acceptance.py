"""Acceptance suite: the ten exit criteria, one test each, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line
per criterion.
"""

import math
import time

import numpy as np
import pytest

from conftest import ising_dense_matrix, lcu_dense_matrix, random_prep_circuit
from holcus.circuit import Circuit, resource_report, run, x
from holcus.estimators import (
    IMAGINARY,
    EstimatorConfig,
    estimate,
    holcus_circuit,
)
from holcus.optimize import OptimizerConfig, train_qaoa
from holcus.pauli_lcu import build_uniform_prep_circuit, from_ising, group_by_coefficient
from holcus.qaoa import QaoaParams, build_ansatz, exact_expectation
from holcus.qubo_ising import IsingModel, qubo_to_ising, random_qubo
from holcus.statevector import marginal_probabilities


def _report(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


def random_training_case(seed, n_lo, n_hi, p_lo, p_hi):
    local = np.random.default_rng(seed)
    n = int(local.integers(n_lo, n_hi + 1))
    p = int(local.integers(p_lo, p_hi + 1))
    model = qubo_to_ising(random_qubo(n, seed))
    params = QaoaParams(
        tuple(local.uniform(0, 2 * np.pi, size=p)), tuple(local.uniform(0, np.pi, size=p))
    )
    return model, params


def test_criterion_01_oracle_equivalence_exact_mode():
    """All four estimators agree with the statevector oracle on 50 cases."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        model, params = random_training_case(seed, 2, 6, 1, 3)
        prep = build_ansatz(model, params)
        want = exact_expectation(model, params)
        for method in ("raw", "hadamard", "holcus", "holcus_div"):
            got = estimate(prep, model, EstimatorConfig(method=method)).value
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-9, f"{method} off by {abs(got - want):.2e} on seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    _report("criterion 1", f"50 cases x 4 methods, worst |err| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_core_identity_against_dense_matrix():
    """N (2 P(0) - 1) equals Re <psi|A|psi> with A assembled densely."""
    worst = 0.0
    for seed in range(25):
        local = np.random.default_rng(seed + 10_000)
        n = int(local.integers(2, 5))
        model = qubo_to_ising(random_qubo(n, seed + 10_000))
        prep = random_prep_circuit(n, local, depth=12)
        dec = from_ising(model)
        circ = holcus_circuit(prep, dec)
        hq = circ.num_qubits - 1
        p0 = marginal_probabilities(run(circ), [hq]).probabilities.get("0", 0.0)
        psi = run(prep).amplitudes
        dense_value = (psi.conj() @ lcu_dense_matrix(dec, n) @ psi).real
        err = abs(dec.normalization * (2 * p0 - 1) - dense_value)
        worst = max(worst, err)
        assert err <= 1e-10, f"identity off by {err:.2e} on seed {seed}"
    _report("criterion 2", f"25 prep circuits, worst |err| = {worst:.2e}")


def test_criterion_03_lcu_branch_correctness():
    """Hadamard-|1> ancilla-|0..0> projection of the pre-measurement state is
    proportional to (A/N)|psi>."""
    worst = 1.0
    for seed in range(25):
        local = np.random.default_rng(seed + 20_000)
        n = int(local.integers(2, 5))
        model = qubo_to_ising(random_qubo(n, seed + 20_000))
        prep = random_prep_circuit(n, local, depth=10)
        dec = from_ising(model)
        circ = holcus_circuit(prep, dec)
        pre = Circuit(circ.num_qubits, circ.gates[:-1])  # drop the final H
        amps = run(pre).amplitudes.reshape(2, -1, 1 << n)
        branch = amps[1, 0]  # hadamard |1>, ancillas |0...0>
        psi = run(prep).amplitudes
        target = (lcu_dense_matrix(dec, n) / dec.normalization) @ psi
        fidelity = (
            abs(np.vdot(branch, target)) ** 2
            / (np.vdot(branch, branch).real * np.vdot(target, target).real)
        )
        worst = min(worst, fidelity)
        assert fidelity >= 1 - 1e-9, f"fidelity {fidelity} on seed {seed}"
    _report("criterion 3", f"25 projections, worst fidelity = {worst:.12f}")


def test_criterion_04_table_resource_formulas():
    """Harness-reported (max_qubits, circuits) match the per-method formulas."""
    checked = 0
    for seed in range(20):
        model, params = random_training_case(seed + 30_000, 2, 6, 1, 1)
        prep = build_ansatz(model, params)
        n = model.n
        dec = from_ising(model)
        M = dec.num_terms
        m = math.ceil(math.log2(M + 1))  # shifted layout rule
        groups = group_by_coefficient(dec)

        def group_ancillas(size):
            if size == 1:
                return 0
            if size & (size - 1) == 0:
                return size.bit_length() - 1
            return math.ceil(math.log2(size + 1))

        m_div = max(group_ancillas(len(g.term_indices)) for g in groups)
        expected = {
            "raw": (n, 1),
            "hadamard": (n + 1, M),
            "holcus": (n + m + 1, 1),
            "holcus_div": (n + m_div + 1, len(groups)),
        }
        for method, want in expected.items():
            res = estimate(prep, model, EstimatorConfig(method=method))
            got = (res.max_qubits, res.circuits_used)
            assert got == want, f"{method} reported {got}, expected {want} (seed {seed})"
            checked += 1
    _report("criterion 4", f"{checked} method/instance pairs match the resource formulas")


def test_criterion_05_uniform_ladder_cost_and_amplitudes():
    """m = 4 nearest-neighbor ladder: 10 gates, depth 8, exact 1/4 amplitudes."""
    circ = build_uniform_prep_circuit(4, nearest_neighbor=True)
    r = resource_report(circ)
    assert r.gate_count == 10, f"gate_count {r.gate_count}"
    assert r.logical_depth == 8, f"logical_depth {r.logical_depth}"
    out = run(Circuit(5, (x(4), *circ.gates)))  # control qubit set
    prepared = out.amplitudes[16:]
    assert np.max(np.abs(prepared - 0.25)) <= 1e-12
    assert np.max(np.abs(out.amplitudes[:16])) == 0.0
    _report("criterion 5", "gate_count 10, depth 8, amplitudes exactly 1/4")


def test_criterion_06_shot_statistics():
    """With 1e4 shots over 200 runs: 4-sigma coverage and a matching std."""
    model = qubo_to_ising(random_qubo(4, 2026))
    params = QaoaParams((0.5,), (0.35,))
    prep = build_ansatz(model, params)
    exact_value = exact_expectation(model, params)
    dec = from_ising(model)
    circ = holcus_circuit(prep, dec)
    hq = circ.num_qubits - 1
    p0 = marginal_probabilities(run(circ), [hq]).probabilities["0"]
    theory_std = dec.normalization * math.sqrt(4 * p0 * (1 - p0) / 10_000)

    values = []
    covered = 0
    for seed in range(200):
        res = estimate(prep, model, EstimatorConfig(method="holcus", shots=10_000, seed=seed))
        values.append(res.value)
        if abs(res.value - exact_value) <= 4 * res.std_error:
            covered += 1
    assert covered >= 195, f"only {covered}/200 runs inside 4 sigma"
    empirical = float(np.std(values, ddof=1))
    assert 0.75 * theory_std <= empirical <= 1.25 * theory_std, (
        f"empirical std {empirical:.5f} vs theory {theory_std:.5f}"
    )
    _report(
        "criterion 6",
        f"{covered}/200 within 4 sigma, empirical std {empirical:.5f} vs theory {theory_std:.5f}",
    )


def test_criterion_07_speedup_substitutes():
    """(a) circuit-count ratio is exactly M; (b) wall-time ratio > 1 at n = 6."""
    # (a) circuit-count ratio on a handful of instances
    for seed in range(5):
        model, params = random_training_case(seed + 40_000, 3, 6, 1, 1)
        prep = build_ansatz(model, params)
        M = from_ising(model).num_terms
        had = estimate(prep, model, EstimatorConfig(method="hadamard"))
        hol = estimate(prep, model, EstimatorConfig(method="holcus"))
        assert had.circuits_used == M and hol.circuits_used == 1

    # (b) measured wall-time ratio at equal per-circuit shot budget
    ratios = []
    for seed in range(5):
        model = qubo_to_ising(random_qubo(6, 41_000 + seed))
        opt = OptimizerConfig(max_evals=10, restarts=1, seed=seed)
        times = {}
        for method in ("hadamard", "holcus"):
            cfg = EstimatorConfig(method=method, shots=256, seed=seed)
            t0 = time.perf_counter()
            train_qaoa(model, 3, cfg, opt)
            times[method] = time.perf_counter() - t0
        ratios.append(times["hadamard"] / times["holcus"])
        assert ratios[-1] > 1.0, f"ratio {ratios[-1]:.2f} on seed {seed}"
    _report(
        "criterion 7",
        f"circuit ratio = M exactly; wall-time ratios {', '.join(f'{r:.2f}' for r in ratios)}",
    )


def test_criterion_08_training_sanity():
    """Exact-mode training: never worse than the zero-angle baseline, never
    below the true ground energy."""
    est = EstimatorConfig(method="holcus")
    for seed in range(10):
        model = qubo_to_ising(random_qubo(4, 50_000 + seed))
        opt = OptimizerConfig(max_evals=60, restarts=3, seed=seed)
        trace = train_qaoa(model, 2, est, opt)
        assert trace.best_value <= model.offset + 1e-12, f"seed {seed}: above baseline"
        ground = float(np.linalg.eigvalsh(ising_dense_matrix(model))[0])
        assert trace.best_value >= ground - 1e-9, f"seed {seed}: below ground energy"
    _report("criterion 8", "10/10 instances between ground energy and the zero-angle baseline")


def test_criterion_09_degenerate_coefficient_advantage():
    """Two coefficient groups on n = 5: exactly two circuits, oracle-equal."""
    model = IsingModel(
        5, np.array([0.7, 0.7, 0.7, 0.7, 0.0]), {(0, 1): -0.4, (2, 3): -0.4}, offset=0.2
    )
    params = QaoaParams((0.4, 1.1), (0.7, 0.3))
    prep = build_ansatz(model, params)
    res = estimate(prep, model, EstimatorConfig(method="holcus_div"))
    want = exact_expectation(model, params)
    assert res.circuits_used == 2, f"used {res.circuits_used} circuits"
    assert abs(res.value - want) <= 1e-9
    _report("criterion 9", f"2 circuits, |err| = {abs(res.value - want):.2e}")


def test_criterion_10_hermitian_imaginary_part():
    """Imaginary-part estimates vanish: exactly in exact mode, within 4 sigma
    in shot mode."""
    for seed in range(5):
        model, params = random_training_case(seed + 60_000, 2, 5, 1, 2)
        prep = build_ansatz(model, params)
        exact_res = estimate(prep, model, EstimatorConfig(method="holcus", part=IMAGINARY))
        assert abs(exact_res.value) <= 1e-9
        shot_res = estimate(
            prep, model, EstimatorConfig(method="holcus", part=IMAGINARY, shots=10_000, seed=seed)
        )
        assert abs(shot_res.value) <= 4 * shot_res.std_error
    _report("criterion 10", "imaginary part zero in exact mode, within 4 sigma sampled")
