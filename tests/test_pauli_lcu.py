"""LCU machinery: decompositions, prep unitaries, select circuits, grouping."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import lcu_dense_matrix, model_of, pauli_full_matrix, random_prep_circuit, run_from
from holcus.circuit import Circuit, make_register_map, resource_report, run, x
from holcus.estimators import holcus_circuit
from holcus.pauli_lcu import (
    LAYOUTS,
    LcuDecomposition,
    LcuTerm,
    PauliString,
    build_prep_unitaries,
    build_select_circuit,
    build_uniform_prep_circuit,
    decomposition_from_terms,
    from_ising,
    group_by_coefficient,
)
from holcus.qubo_ising import qubo_to_ising, random_qubo
from holcus.statevector import StateVector, new_basis_state


class TestPauliString:
    def test_identity_is_empty(self):
        assert PauliString({}).support == ()
        assert str(PauliString({})) == "I"

    def test_local_matrix_two_qubit(self):
        mat = PauliString({0: "Z", 2: "Z"}).local_matrix()
        assert np.allclose(mat, np.diag([1, -1, -1, 1]))

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(0, 30), st.sampled_from("XYZ"), min_size=1, max_size=4))
    def test_local_matrix_is_the_kronecker_product(self, ops):
        # Oracle: conftest's Kronecker product of the same letters on qubits 0..k-1.
        letters = dict(enumerate(ops[q] for q in sorted(ops)))
        assert np.array_equal(PauliString(ops).local_matrix(), pauli_full_matrix(letters, len(ops)))

    @pytest.mark.parametrize(
        ("ops", "match"), [({0: "W"}, "X, Y or Z"), ({-1: "Z"}, r"qubit index -1 out of range")], ids=["letter", "negative"]
    )
    def test_rejects_bad_operator(self, ops, match):
        with pytest.raises(ValueError, match=match):
            PauliString(ops)


class TestFromIsing:
    def test_three_terms_and_normalization(self):
        # N = sum of |coefficients| computed independently: 1 + 1 + 0.5
        dec = from_ising(model_of(2, [1.0, -1.0], {(0, 1): 0.5}))
        assert dec.num_terms == 3
        assert dec.normalization == pytest.approx(2.5)
        assert [t.theta for t in dec.terms] == pytest.approx([0.0, np.pi, 0.0])

    def test_single_field(self):
        dec = from_ising(model_of(1, [1.0], {}))
        assert dec.num_terms == 1
        assert dec.normalization == pytest.approx(1.0)
        assert dec.terms[0].alpha / dec.normalization == pytest.approx(1.0)

    def test_negative_coupling_only(self):
        dec = from_ising(model_of(3, [0, 0, 0], {(1, 2): -2.0}))
        assert dec.num_terms == 1
        assert dec.terms[0].theta == pytest.approx(np.pi)
        assert dec.normalization == pytest.approx(2.0)
        assert str(dec.terms[0].unitary) == "Z1*Z2"

    def test_all_zero_model_rejected(self):
        with pytest.raises(ValueError):
            from_ising(model_of(2, [0.0, 0.0], {}))

    def test_shifted_layout_slots(self):
        dec = from_ising(model_of(2, [1.0, 1.0], {(0, 1): 1.0}))
        assert dec.layout == "shifted"
        assert dec.num_ancillas == 2  # ceil(log2(3 + 1))
        assert list(dec.slots) == [1, 2, 3]

    def test_dense_layout_slots(self):
        dec = decomposition_from_terms(from_ising(model_of(2, [1.0, 1.0], {(0, 1): 1.0})).terms, "dense")
        assert dec.num_ancillas == 2
        assert list(dec.slots) == [0, 1, 2]

    def test_decomposition_checks_terms_and_layout(self):
        term = LcuTerm(1.0, 0.0, PauliString({0: "Z"}))
        with pytest.raises(ValueError, match="at least one term"):
            LcuDecomposition((), "dense")
        with pytest.raises(ValueError, match="layout"):
            LcuDecomposition((term,), "sparse")

    def test_alphas_positive_with_sign_in_theta(self):
        dec = from_ising(model_of(2, [-0.3, 0.4], {(0, 1): -0.1}))
        assert all(t.alpha > 0 for t in dec.terms)
        assert all(t.theta in (0.0, np.pi) for t in dec.terms)

    def test_terms_follow_model_terms(self):
        model = model_of(3, [0.5, 0.0, -1.0], {(1, 2): 2.0, (0, 2): 0.0, (0, 1): -0.25})
        dec = from_ising(model)
        assert [(t.unitary.support, t.alpha * np.cos(t.theta)) for t in dec.terms] == model.terms()

    @pytest.mark.parametrize(
        "alpha, theta", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, np.inf)],
        ids=["nan_weight", "inf_weight", "nan_phase", "inf_phase"],
    )
    def test_term_rejects_non_finite_coefficient(self, alpha, theta):
        with pytest.raises(ValueError, match="finite"):
            LcuTerm(alpha, theta, PauliString({0: "Z"}))


class TestBuildPrepUnitaries:
    def test_two_equal_terms_with_phases(self):
        terms = [
            LcuTerm(0.5, 0.0, PauliString({0: "Z"})),
            LcuTerm(0.5, np.pi, PauliString({1: "Z"})),
        ]
        dec = decomposition_from_terms(terms, layout="dense")
        v, v_hat = build_prep_unitaries(dec)
        assert np.allclose(v[:, 0], [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)
        assert np.allclose(v_hat[:, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)

    def test_single_term_shifted(self):
        dec = decomposition_from_terms([LcuTerm(2.0, 0.0, PauliString({0: "Z"}))])
        assert dec.num_ancillas == 1
        v, _ = build_prep_unitaries(dec)
        assert np.allclose(v[:, 0], [0.0, 1.0], atol=1e-12)

    def test_single_term_dense_uses_slot_zero(self):
        # ceil(log2(1)) = 0: one dense term needs no ancilla (the Hadamard test).
        dec = decomposition_from_terms([LcuTerm(2.0, 0.0, PauliString({0: "Z"}))], layout="dense")
        assert dec.num_ancillas == 0
        assert list(dec.slots) == [0]
        v, _ = build_prep_unitaries(dec)
        assert np.allclose(v, [[1.0]], atol=1e-12)

    def test_random_six_terms_unitary(self, rng):
        # Oracle: direct matrix multiplication check V^dag V = I.
        alphas = rng.uniform(0.2, 2.0, size=6)
        thetas = rng.uniform(0, 2 * np.pi, size=6)
        terms = [
            LcuTerm(float(a), float(t), PauliString({int(i): "Z"}))
            for i, (a, t) in enumerate(zip(alphas, thetas))
        ]
        dec = decomposition_from_terms(terms)
        for mat in build_prep_unitaries(dec):
            assert np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))) < 1e-12
        v, _ = build_prep_unitaries(dec)
        norm = alphas.sum()
        for k, slot in enumerate(dec.slots):
            assert abs(v[slot, 0]) ** 2 == pytest.approx(alphas[k] / norm, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.lists(
            st.tuples(
                st.floats(-9.0, 3.0).map(lambda e: 10.0**e),  # alpha, log-uniform
                st.floats(0.0, 2 * np.pi, exclude_max=True),
            ),
            min_size=1,
            max_size=12,
        ),
        layout=st.sampled_from(LAYOUTS),
    )
    @example(coeffs=[(1e3, 0.3), (1e-9, 0.0)], layout="dense")
    def test_unitary_with_coefficient_column(self, coeffs, layout):
        # Dense puts a complex entry (or, in the pinned example, one within
        # 1e-12 of modulus 1) at slot 0; shifted leaves slot 0 empty, so the
        # completion starts from a zero entry.
        terms = [LcuTerm(a, t, PauliString({0: "Z"})) for a, t in coeffs]
        dec = decomposition_from_terms(terms, layout=layout)
        dim = 1 << dec.num_ancillas
        col = np.zeros(dim, dtype=complex)
        for k, (a, t) in enumerate(coeffs):
            col[dec.slots[k]] = np.sqrt(a / dec.normalization) * np.exp(1j * t)
        v, v_hat = build_prep_unitaries(dec)
        for mat, expected in ((v, col), (v_hat, np.abs(col))):
            assert np.max(np.abs(mat.conj().T @ mat - np.eye(dim))) < 1e-12
            assert np.max(np.abs(mat[:, 0] - expected)) < 1e-12


class TestSelectCircuit:
    def test_shifted_select_is_identity_on_zero_ancillas(self, rng):
        model = model_of(2, [0.7, -0.4], {(0, 1): 1.1})
        dec = from_ising(model)
        reg = make_register_map(2, dec.num_ancillas)
        circ = build_select_circuit(dec, reg)
        amps = np.zeros(1 << circ.num_qubits, dtype=complex)
        state_part = rng.normal(size=4) + 1j * rng.normal(size=4)
        state_part /= np.linalg.norm(state_part)
        amps[:4] = state_part  # ancillas and hadamard qubit all |0>
        assert np.allclose(run_from(circ, amps), amps, atol=1e-14)

    def test_dense_slot_pattern_controls(self):
        # 4 terms in dense layout: slot 2 pattern = (high bit closed, low bit open)
        terms = [LcuTerm(0.25, 0.0, PauliString({0: "X"})) for _ in range(4)]
        dec = decomposition_from_terms(terms, layout="dense")
        reg = make_register_map(1, 2)
        circ = build_select_circuit(dec, reg)
        gate = circ.gates[2]  # term at slot 2
        controls = dict(gate.controls)
        anc = reg["lcu_ancilla"]
        assert controls[anc[0]] == 0 and controls[anc[1]] == 1

    def test_hadamard_control_counts_per_layout(self):
        model = model_of(2, [1.0, 1.0], {(0, 1): 1.0})
        for layout, expected in (("shifted", 0), ("dense", 1)):
            dec = decomposition_from_terms(from_ising(model).terms, layout)
            reg = make_register_map(2, dec.num_ancillas)
            circ = build_select_circuit(dec, reg)
            hq = reg["hadamard"][0]
            touching = sum(1 for g in circ.gates if hq in g.qubits)
            assert touching == expected

    def test_register_too_small(self):
        dec = from_ising(model_of(3, [1.0, 1.0, 1.0], {(0, 1): 1.0, (0, 2): 1.0}))
        with pytest.raises(ValueError):
            build_select_circuit(dec, {"state": range(0, 3), "lcu_ancilla": range(3, 4)})

    def test_overlapping_spans_rejected(self):
        # The Hadamard span sits on state qubit 2, so the slot-0 gate would be
        # controlled on a state qubit.
        dec = decomposition_from_terms(from_ising(qubo_to_ising(random_qubo(3, 1))).terms, "dense")
        reg = {"state": range(0, 3), "lcu_ancilla": range(3, 6), "hadamard": range(2, 3)}
        with pytest.raises(ValueError, match="share a qubit"):
            build_select_circuit(dec, reg)

    def test_dense_layout_needs_a_hadamard_register(self):
        dec = decomposition_from_terms(from_ising(model_of(2, [1.0, 1.0], {(0, 1): 1.0})).terms, "dense")
        with pytest.raises(ValueError, match="dense layout needs a hadamard register"):
            build_select_circuit(dec, make_register_map(2, dec.num_ancillas, hadamard=False))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_identity_term_emits_no_gate(self, layout, rng):
        # The identity acts on nothing, so its slot gets no select gate; the
        # combined circuit still reads Re and Im of <psi| A |psi>, A assembled densely.
        identity = LcuTerm(0.7, 0.4, PauliString({}))
        terms = [LcuTerm(1.2, 0.0, PauliString({0: "Z"})), identity, LcuTerm(0.5, 2.0, PauliString({0: "X", 1: "Y"}))]
        dec = decomposition_from_terms(terms, layout)
        assert len(build_select_circuit(dec, make_register_map(2, dec.num_ancillas)).gates) == 2
        prep = random_prep_circuit(2, rng, depth=10)
        psi = run(prep).amplitudes
        want = psi.conj() @ lcu_dense_matrix(dec, 2) @ psi
        for part, expected in (("real", want.real), ("imaginary", want.imag)):
            circ = holcus_circuit(prep, dec, part)
            p0 = np.sum(np.abs(run(circ).amplitudes[: 1 << (circ.num_qubits - 1)]) ** 2)
            assert dec.normalization * (2 * p0 - 1) == pytest.approx(expected, abs=1e-10)

    def test_state_register_too_small(self):
        dec = from_ising(qubo_to_ising(random_qubo(4, 1)))
        with pytest.raises(ValueError, match="state register too small"):
            build_select_circuit(dec, make_register_map(2, dec.num_ancillas))

    @pytest.mark.parametrize("layout", ["shifted", "dense"])
    def test_full_lcu_block_reproduces_operator(self, layout, rng):
        # prepare(V) select unprepare(Vhat^dag) on |0>_a |psi>, then project the
        # ancillas back on |0...0>: the residue must equal (A/N)|psi> (dense A
        # assembled from Kronecker products as the oracle).
        for seed in range(4):
            local = np.random.default_rng(seed)
            n = int(local.integers(2, 4))
            h = local.uniform(-2, 2, size=n)
            J = {
                (i, j): float(local.uniform(-2, 2))
                for i in range(n)
                for j in range(i + 1, n)
                if local.uniform() < 0.8
            }
            model = model_of(n, h, J)
            dec = decomposition_from_terms(from_ising(model).terms, layout)
            m = dec.num_ancillas
            reg = make_register_map(n, m, hadamard=True)
            total = n + m + 1
            v, v_hat = build_prep_unitaries(dec)
            anc = list(reg["lcu_ancilla"])

            psi = local.normal(size=1 << n) + 1j * local.normal(size=1 << n)
            psi /= np.linalg.norm(psi)
            init = new_basis_state(total)
            init.amplitudes[: 1 << n] = 0
            init.amplitudes[: 1 << n] = psi  # ancillas |0>, hadamard |0>

            from holcus.statevector import apply_unitary

            # dense layout: slot-0 select gate is controlled on the hadamard
            # qubit, so drive that qubit to |1> for the plain LCU protocol
            hq = reg["hadamard"][0]
            if layout == "dense":
                x_mat = np.array([[0, 1], [1, 0]], dtype=complex)
                apply_unitary(init, x_mat, [hq])
            apply_unitary(init, v, anc)
            state = StateVector(total, run_from(build_select_circuit(dec, reg), init.amplitudes))
            apply_unitary(state, v_hat.conj().T, anc)

            block_row = (1 << m) if layout == "dense" else 0  # hadamard bit above the ancillas
            block = state.amplitudes.reshape(-1, 1 << n)[block_row]
            expected = (lcu_dense_matrix(dec, n) / dec.normalization) @ psi
            assert np.allclose(block, expected, atol=1e-10)


class TestGrouping:
    def test_all_equal_single_group(self):
        dec = from_ising(model_of(3, [0.5, 0.5, 0.5], {(0, 1): 0.5}))
        groups = group_by_coefficient(dec)
        assert len(groups) == 1
        assert len(groups[0].term_indices) == 4

    def test_all_distinct(self, rng):
        h = rng.uniform(0.1, 2.0, size=4)
        dec = from_ising(model_of(4, h, {}))
        groups = group_by_coefficient(dec)
        assert len(groups) == 4
        assert all(len(g.term_indices) == 1 for g in groups)

    def test_exact_partition_by_value(self):
        h = np.array([1.0, 1.0, 2.0, 2.0, 2.0]) / 8.0
        dec = from_ising(model_of(5, h, {}))
        groups = group_by_coefficient(dec, tol=1e-12)
        assert sorted(len(g.term_indices) for g in groups) == [2, 3]

    def test_sign_splits_groups(self):
        dec = from_ising(model_of(2, [1.0, -1.0], {}))
        assert len(group_by_coefficient(dec)) == 2

    @pytest.mark.parametrize("tol", [-1e-3, float("nan")], ids=["negative", "nan"])
    def test_bad_tolerance_rejected(self, tol):
        dec = from_ising(model_of(2, [1.0, 1.0], {}))
        with pytest.raises(ValueError, match="tolerance"):
            group_by_coefficient(dec, tol=tol)


class TestUniformPrep:
    def test_m4_nearest_neighbor_cost(self):
        r = resource_report(build_uniform_prep_circuit(4, nearest_neighbor=True))
        assert r.gate_count == 10
        assert r.logical_depth == 8

    def test_m1_single_controlled_h(self):
        circ = build_uniform_prep_circuit(1)
        assert len(circ.gates) == 1
        assert circ.gates[0].kind == "H"
        assert circ.gates[0].controls == ((1, 1),)

    @pytest.mark.parametrize("nearest_neighbor", [False, True])
    def test_m3_uniform_amplitudes(self, nearest_neighbor):
        circ = build_uniform_prep_circuit(3, nearest_neighbor=nearest_neighbor)
        out = run(Circuit(4, (x(3), *circ.gates)))  # control qubit set
        assert np.allclose(out.amplitudes[8:], np.full(8, 1 / np.sqrt(8)), atol=1e-12)
        assert np.allclose(out.amplitudes[:8], 0.0)

    def test_control_off_leaves_zeros(self):
        out = run(build_uniform_prep_circuit(3, nearest_neighbor=True))
        assert out.amplitudes[0] == pytest.approx(1.0)

    def test_matches_prep_unitary_for_equal_coefficients(self):
        # power-of-two equal-coefficient decomposition: the ladder output must
        # match column 0 of V (fidelity 1).
        m = 3
        terms = [LcuTerm(1.0, 0.0, PauliString({0: "Z"})) for _ in range(1 << m)]
        dec = decomposition_from_terms(terms, layout="dense")
        v, _ = build_prep_unitaries(dec)
        out = run(Circuit(m + 1, (x(m), *build_uniform_prep_circuit(m).gates)))  # control qubit set
        prepared = out.amplitudes[(1 << m) :]
        fidelity = abs(np.vdot(v[:, 0], prepared)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-12)

    def test_m0_rejected(self):
        with pytest.raises(ValueError):
            build_uniform_prep_circuit(0)


class TestIsingDecompositionProperties:
    def test_thetas_binary_and_operator_hermitian(self, rng):
        for seed in range(5):
            local = np.random.default_rng(seed + 100)
            n = int(local.integers(2, 5))
            model = model_of(
                n,
                local.uniform(-2, 2, size=n),
                {(i, j): float(local.uniform(-2, 2)) for i in range(n) for j in range(i + 1, n)},
            )
            dec = from_ising(model)
            assert all(t.theta in (0.0, np.pi) for t in dec.terms)
            a = lcu_dense_matrix(dec, n)
            assert np.allclose(a, a.conj().T, atol=1e-12)
