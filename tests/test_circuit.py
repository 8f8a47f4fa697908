"""Circuit IR: composition, controls, execution, resources."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holcus.circuit
from conftest import PAULI, circuit_full_matrix, distinct_phase_diagonal, random_prep_circuit, run_from
from holcus.circuit import (
    CLOSED,
    Circuit,
    Gate,
    dense,
    exp_x,
    exp_z,
    exp_zz,
    gate_matrix,
    h,
    make_register_map,
    resource_report,
    run,
    s,
    s_dagger,
    swap,
    x,
)
from holcus.estimators import holcus_circuit
from holcus.pauli_lcu import (
    LcuTerm,
    PauliString,
    build_select_circuit,
    build_uniform_prep_circuit,
    decomposition_from_terms,
    from_ising,
)
from holcus.qaoa import QaoaParams, build_ansatz
from holcus.qubo_ising import qubo_to_ising, random_qubo
from holcus.statevector import kernel_operand


class TestBuildCost:
    def test_builders_check_each_gate_at_most_twice(self, monkeypatch):
        # A builder that appends gate by gate re-checks the whole prefix each time.
        calls = []
        real = holcus.circuit._check_qubits

        def counted(qubits, num_qubits):
            calls.append(qubits)
            return real(qubits, num_qubits)

        monkeypatch.setattr(holcus.circuit, "_check_qubits", counted)
        model = qubo_to_ising(random_qubo(8, 0))
        params = QaoaParams((0.1, 0.2, 0.3), (0.4, 0.5, 0.6))
        # The model's LCU (prepare V), and eight equal Z terms filling a dense
        # layout (m = 3), which take the controlled-H ladder.
        equal = decomposition_from_terms([LcuTerm(1.0, 0.0, PauliString({q: "Z"})) for q in range(8)], "dense")
        for dec, uniform in ((from_ising(model), False), (equal, True)):
            calls.clear()
            circ = holcus_circuit(build_ansatz(model, params), dec, uniform=uniform)
            assert len(calls) <= 2 * len(circ.gates)


class TestProgram:
    def test_is_each_gates_operand_targets_and_controls_built_once(self):
        model = qubo_to_ising(random_qubo(4, 0))
        circ = holcus_circuit(build_ansatz(model, QaoaParams((0.1,), (0.4,))), from_ising(model))
        program = circ.program
        assert len(program) == len(circ.gates) and any(g.controls for g in circ.gates)
        for (operand, targets, controls), g in zip(program, circ.gates):
            assert operand is g.operand
            assert (targets, controls) == (g.targets, g.controls)
        assert circ.program is program


def _with_control(circuit: Circuit, qubit: int) -> Circuit:
    """circuit with a closed control on qubit added to every gate."""
    gates = tuple(dataclasses.replace(g, controls=g.controls + ((qubit, CLOSED),)) for g in circuit.gates)
    return Circuit(circuit.num_qubits, gates)


class TestAddControl:
    """Named gates under added controls, run and compared with the Kronecker oracle."""

    def test_matches_block_diagonal_unitary(self, rng):
        # Oracle: explicit 8x8 diag(I, U) built from the uncontrolled matrix.
        for _ in range(5):
            sub = random_prep_circuit(2, rng, depth=8)
            controlled = _with_control(Circuit(3, sub.gates), 2)
            u_sub = circuit_full_matrix(sub)
            block = np.eye(8, dtype=complex)
            block[4:, 4:] = u_sub  # qubit 2 set = upper half of the index range
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps /= np.linalg.norm(amps)
            assert np.allclose(run_from(controlled, amps), block @ amps, atol=1e-12)

    def test_double_control_matches_explicit_matrix(self, rng):
        sub = random_prep_circuit(3, rng, depth=8)
        twice = _with_control(_with_control(Circuit(5, sub.gates), 3), 4)
        u_sub = circuit_full_matrix(sub)
        full = np.eye(32, dtype=complex)
        full[24:, 24:] = u_sub  # qubits 3 and 4 both set
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        amps /= np.linalg.norm(amps)
        assert np.allclose(run_from(twice, amps), full @ amps, atol=1e-12)


class TestRun:
    def test_hadamard_test_of_z_on_zero(self):
        # ancilla = qubit 1, state = qubit 0 in |0>; U = Z gives P(0) = 1
        circ = Circuit(2, (h(1), dense(np.diag([1, -1]).astype(complex), [0], [(1, CLOSED)]), h(1)))
        out = run(circ)
        p0 = abs(out.amplitudes[0b00]) ** 2 + abs(out.amplitudes[0b01]) ** 2
        assert p0 == pytest.approx(1.0, abs=1e-12)

    def test_empty_circuit_returns_initial(self):
        # Every run starts at |0...0>.
        assert np.array_equal(run(Circuit(2)).amplitudes, [1, 0, 0, 0])

    def test_exp_z_eigenvalue_on_one(self):
        circ = Circuit(1, (x(0), exp_z(0.7, 0)))
        out = run(circ)
        assert out.amplitudes[1] == pytest.approx(np.exp(-0.7j), abs=1e-14)

    def test_composition(self, rng):
        a = random_prep_circuit(3, rng, depth=10)
        b = random_prep_circuit(3, rng, depth=10)
        combined = Circuit(3, a.gates + b.gates)
        assert np.allclose(run(combined).amplitudes, run_from(b, run(a).amplitudes), atol=1e-12)

    def test_exp_z_inverse_pair(self, rng):
        circ = Circuit(1, (exp_z(1.3, 0), exp_z(-1.3, 0)))
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        assert np.allclose(run_from(circ, amps), amps, atol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5))
    def test_matches_full_matrix_oracle(self, data, n):
        # A circuit's program skips apply_unitary's checks, so every gate kind, DENSE included,
        # and every polarity spelling must reach the kernel already valid.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # DIAG draws a DENSE gate with distinct phases on its diagonal, so a
        # target-order slip on the kernel's diagonal path cannot cancel out.
        arity = {
            "H": 1, "X": 1, "S": 1, "S_DAGGER": 1, "EXP_X": 1, "EXP_Z": 1, "EXP_ZZ": 2, "SWAP": 2, "DENSE": 1, "DIAG": 1
        }
        gates = []
        for _ in range(data.draw(st.integers(0, 6))):
            kind = data.draw(st.sampled_from([k for k, a in arity.items() if a <= n]))
            if kind == "DENSE":
                k = data.draw(st.integers(1, min(2, n)))
            elif kind == "DIAG":
                k = data.draw(st.integers(1, min(3, n)))
            else:
                k = arity[kind]
            qubits = data.draw(st.permutations(range(n)))
            c = data.draw(st.integers(0, min(2, n - k)))
            controls = tuple((q, data.draw(st.sampled_from([0, 1, False, True]))) for q in qubits[k : k + c])
            params = (float(rng.uniform(-np.pi, np.pi)),) if kind.startswith("EXP_") else ()
            matrix = None
            if kind == "DENSE":
                matrix, _ = np.linalg.qr(rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k)))
            elif kind == "DIAG":
                kind, matrix = "DENSE", distinct_phase_diagonal(rng, k)
            gates.append(Gate(kind, tuple(qubits[:k]), params, controls, matrix))
        circ = Circuit(n, tuple(gates))
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        assert np.allclose(run_from(circ, psi), circuit_full_matrix(circ) @ psi, rtol=0, atol=1e-12)

    def test_exp_zz_diagonal_entries(self):
        # basis order 00, 01, 10, 11 -> phases +, -, -, +
        mat = gate_matrix(exp_zz(0.4, 0, 1))
        expected = np.diag(np.exp(1j * 0.4 * np.array([1, -1, -1, 1])))
        assert np.allclose(mat, expected, atol=1e-14)


class TestResourceReport:
    def test_empty(self):
        r = resource_report(Circuit(3))
        assert (r.gate_count, r.controlled_gate_count, r.logical_depth) == (0, 0, 0)
        assert r.qubit_count == 3

    def test_disjoint_gates_share_depth(self):
        circ = Circuit(2, (h(0), x(1)))
        r = resource_report(circ)
        assert r.gate_count == 2
        assert r.logical_depth == 1

    def test_nearest_neighbor_ladder_m4(self):
        r = resource_report(build_uniform_prep_circuit(4, nearest_neighbor=True))
        assert r.gate_count == 10
        assert r.logical_depth == 8

    def test_depth_bounded_by_gate_count(self, rng):
        circ = random_prep_circuit(4, rng, depth=30)
        r = resource_report(circ)
        assert 0 < r.logical_depth <= r.gate_count == 30

    def test_controlled_count(self):
        circ = Circuit(3, (h(0), Gate("X", (1,), controls=((2, CLOSED),))))
        assert resource_report(circ).controlled_gate_count == 1


class TestGateValidation:
    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            Gate("SWAP", (0,))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (0,))

    def test_dense_shape_mismatch(self):
        with pytest.raises(ValueError):
            dense(np.eye(4), [0])

    def test_matrix_on_named_kind_rejected(self):
        with pytest.raises(ValueError):
            Gate("H", (0,), matrix=np.eye(2))

    @pytest.mark.parametrize("polarity", [True, np.int64(1)], ids=["bool", "int64"])
    def test_polarity_stored_as_int(self, polarity):
        (_, stored), = Gate("X", (0,), controls=((1, polarity),)).controls
        assert type(stored) is int and stored == CLOSED

    def test_target_equals_control_rejected(self):
        with pytest.raises(ValueError):
            Gate("X", (0,), controls=((0, CLOSED),))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Circuit(2, (h(2),))

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: Gate("DENSE", (0,)), "DENSE gate requires a matrix"),
            (lambda: Gate("EXP_X", (0,)), r"EXP_X takes 1 params, got \(\)"),
            (lambda: Gate("H", (0,), (0.5,)), r"H takes 0 params, got \(0.5,\)"),
            (lambda: Circuit(0), r"num_qubits 0 out of range \[1, inf\]"),
        ],
        ids=["dense_without_matrix", "missing_param", "extra_param", "no_qubits"],
    )
    def test_guard_rejects_bad_input(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_list_targets_stored_as_tuple(self):
        g = Gate("H", [0])
        assert g.targets == (0,)
        assert Circuit(1, (g,)).gates[0].qubits == (0,)


def _zz_select_gate() -> Gate:
    """A select gate of an Ising LCU: a Z-string DENSE gate under ancilla controls."""
    dec = from_ising(qubo_to_ising(random_qubo(3, 1)))
    select = build_select_circuit(dec, make_register_map(3, dec.num_ancillas))
    return next(g for g in select.gates if len(g.targets) == 2)


_RNG = np.random.default_rng(3)
_QR_4, _ = np.linalg.qr(_RNG.normal(size=(4, 4)) + 1j * _RNG.normal(size=(4, 4)))


class TestKernelOperand:
    @pytest.mark.parametrize(
        "gate, diagonal",
        [
            (exp_z(0.3, 0), True),
            (exp_zz(0.3, 0, 1), True),
            (s(0), True),
            (s_dagger(0), True),
            (_zz_select_gate(), True),
            (h(0), False),
            (x(0), False),
            (exp_x(0.3, 0), False),
            (swap(0, 1), False),
            (build_uniform_prep_circuit(2).gates[0], False),
            (dense(_QR_4, [0, 1], [(2, CLOSED)]), False),
        ],
        ids=["EXP_Z", "EXP_ZZ", "S", "S_DAGGER", "Z-string select", "H", "X", "EXP_X", "SWAP", "ladder CH", "QR DENSE"],
    )
    def test_diagonal_gates_cache_their_diagonal(self, gate, diagonal):
        if diagonal:
            assert gate.operand.ndim == 1
            assert np.array_equal(np.diag(gate.operand), gate.unitary)
        else:
            assert gate.operand is gate.unitary
        assert gate.operand is gate.operand


# Each named kind's local matrix in the closed form the kind table replaced.
_CLOSED_FORMS = {
    "EXP_Z": lambda phi: np.diag([np.exp(1j * phi), np.exp(-1j * phi)]),
    "EXP_ZZ": lambda phi: np.diag([np.exp(1j * phi), np.exp(-1j * phi), np.exp(-1j * phi), np.exp(1j * phi)]),
    "EXP_X": lambda phi: np.cos(phi) * np.eye(2, dtype=np.complex128) + 1j * np.sin(phi) * PAULI["X"],
    "S": lambda: np.diag([1.0, 1.0j]).astype(np.complex128),
    "S_DAGGER": lambda: np.diag(np.conj([1.0, 1.0j])),
}

_ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, np.pi, -np.pi, 1e-300, -1e-300]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


class TestOperandTable:
    @settings(max_examples=300, deadline=None)
    @given(phi=_ANGLES)
    @pytest.mark.parametrize("kind", sorted(_CLOSED_FORMS))
    def test_operand_and_unitary_match_closed_form(self, kind, phi):
        # Byte equality: a signed zero or a last-bit change would move estimates.
        params = (phi,) if kind.startswith("EXP_") else ()
        matrix = _CLOSED_FORMS[kind](*params)
        gate = Gate(kind, (0, 1) if kind == "EXP_ZZ" else (0,), params)
        assert gate.operand.tobytes() == kernel_operand(matrix).tobytes()
        assert gate.unitary.tobytes() == matrix.tobytes()
