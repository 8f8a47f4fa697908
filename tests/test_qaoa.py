"""QAOA ansatz construction and the exact expectation oracle."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import PAULI, chunk_size, ising_dense_matrix, ising_phase_diagonal, model_of
from holcus.circuit import run
from holcus.estimators import METHODS, EstimatorConfig, compile_plan, estimate, run_program
from holcus.qaoa import QaoaParams, build_ansatz, compile_ansatz, exact_expectation
from holcus.qubo_ising import qubo_to_ising, random_qubo
from holcus.statevector import _KRON_QUBITS, CHUNK, MAX_QUBITS, CapacityError, _fused


class TestQaoaParams:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            QaoaParams((0.1,), (0.2, 0.3))

    def test_vector_round_trip(self):
        p = QaoaParams((0.1, 0.2), (0.3, 0.4))
        assert QaoaParams.from_vector(p.to_vector()) == p


class TestBuildAnsatz:
    def test_p0_gives_uniform(self):
        model = model_of(3, [1, -1, 0.5], {(0, 1): 1.0})
        out = run(build_ansatz(model, QaoaParams((), ())))
        assert np.allclose(out.amplitudes, np.full(8, 1 / np.sqrt(8)), atol=1e-12)

    def test_zero_angles_give_uniform(self):
        model = model_of(2, [1, -1], {(0, 1): 0.3})
        out = run(build_ansatz(model, QaoaParams((0.0, 0.0), (0.0, 0.0))))
        assert np.allclose(out.amplitudes, np.full(4, 0.5), atol=1e-12)

    def test_layer_gate_ordering(self):
        # H wall, then per layer: single-qubit phases, pair phases in
        # ascending (i, j) order, then the mixer on every qubit.
        model = model_of(3, [1.0, 1.0, 1.0], {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
        circ = build_ansatz(model, QaoaParams((0.5,), (0.2,)))
        kinds = [g.kind for g in circ.gates]
        assert kinds == ["H"] * 3 + ["EXP_Z"] * 3 + ["EXP_ZZ"] * 3 + ["EXP_X"] * 3
        zz_targets = [g.targets for g in circ.gates if g.kind == "EXP_ZZ"]
        assert zz_targets == [(0, 1), (0, 2), (1, 2)]

    def test_zero_coefficients_emit_no_gates(self):
        model = model_of(2, [0.0, 1.0], {})
        circ = build_ansatz(model, QaoaParams((0.7,), (0.1,)))
        assert sum(1 for g in circ.gates if g.kind == "EXP_Z") == 1

    def test_output_normalized(self):
        model = qubo_to_ising(random_qubo(4, 5))
        out = run(build_ansatz(model, QaoaParams((0.3, 0.9), (0.4, 0.1))))
        assert out.amplitudes.shape == (16,)
        assert abs(out.norm() - 1.0) < 1e-12

    def test_commuting_phase_gates_order_irrelevant(self):
        model = model_of(3, [0.3, -0.7, 0.2], {(0, 1): 0.5, (1, 2): -0.4})
        circ = build_ansatz(model, QaoaParams((0.8,), (0.3,)))
        phase = [g for g in circ.gates if g.kind in ("EXP_Z", "EXP_ZZ")]
        others_head = [g for g in circ.gates if g.kind == "H"]
        others_tail = [g for g in circ.gates if g.kind == "EXP_X"]
        from holcus.circuit import Circuit

        shuffled = Circuit(3, tuple(others_head + phase[::-1] + others_tail))
        assert np.allclose(
            run(build_ansatz(model, QaoaParams((0.8,), (0.3,)))).amplitudes,
            run(shuffled).amplitudes,
            atol=1e-12,
        )


# Zero coefficients are common, so terms() skips fields and couplings often.
_COEFFS = st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_nan=False))
_ANGLES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def ising_models(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    h = draw(st.lists(_COEFFS, min_size=n, max_size=n))
    pairs = [ij for ij in combinations(range(n), 2) if draw(st.booleans())]
    return model_of(n, h, {ij: draw(_COEFFS) for ij in pairs}, draw(_COEFFS))


def _assert_same_triple(triple, want):
    # Bit for bit: the same operand, targets and controls.
    (operand, targets, controls), (want_operand, want_targets, want_controls) = triple, want
    assert (targets, controls) == (want_targets, want_controls)
    assert (operand.dtype, operand.shape, operand.tobytes()) == (
        want_operand.dtype, want_operand.shape, want_operand.tobytes()
    )


class TestCompiledAnsatz:
    def test_model_without_spins_rejected(self):
        with pytest.raises(ValueError, match=r"^n 0 out of range \[1, inf\]"):
            compile_ansatz(model_of(0, [], {}))

    @settings(max_examples=60, deadline=None)
    @given(
        model=ising_models(),
        vec=st.integers(1, 3).flatmap(lambda p: st.lists(_ANGLES, min_size=2 * p, max_size=2 * p)),
    )
    @example(model=model_of(3, [0.0, 0.0, 0.0], {(0, 2): 0.0}), vec=[0.0, -0.0, -2.5, 1e5])
    @example(model=model_of(1, [0.8], {}), vec=[-0.0, 0.0])
    @example(model=model_of(3, [0.0, 0.7, 0.0], {(0, 1): 0.4, (0, 2): 0.0, (1, 2): -1.1}), vec=[-3.0, 1e5, 0.0, -0.0])
    @example(model=model_of(13, [0.0] * 12 + [1.5], {(0, 12): -0.4, (3, 7): 2.0}), vec=[0.9, -1e6, 0.3, 0.0])
    @example(model=model_of(14, [0.5] * 14, {(0, 13): -1.0, (12, 13): 0.3}), vec=[0.7, -0.4])
    def test_program_is_build_ansatz_operands(self, model, vec):
        # In order: the H layer and each EXP_X layer are, bit for bit, the triples
        # statevector._fused makes of build_ansatz's: Kronecker blocks of up to 4
        # qubits, or at beta = +-0, where EXP_X is diagonal, its own triples. Up to
        # 13 qubits each phase layer of a model with terms is one triple on every
        # qubit, exp(i gamma (E - offset)) up to rounding: the cost's summation error
        # and the oracle's, each at most (terms + 1) ulps of |gamma| sum |c_k|. From
        # 14 qubits, or with no terms, the program is build_ansatz's, bit for bit.
        params = QaoaParams.from_vector(vec)
        program = compile_ansatz(model).program(params)
        gates = build_ansatz(model, params).program
        terms = model.terms()
        if model.n >= 14 or not terms:
            assert len(program) == len(gates)
            for triple, want in zip(program, gates):
                _assert_same_triple(triple, want)
            return
        n = model.n
        want = list(_fused(n, gates[:n]))
        at = []
        for k in range(params.p):
            at.append(len(want))
            start = n + k * (len(terms) + n) + len(terms)
            want += [None, *_fused(n, gates[start : start + n])]
        assert len(program) == len(want)
        for triple, expected in zip(program, want):
            if expected is not None:
                _assert_same_triple(triple, expected)
        norm = sum(abs(c) for _, c in terms)
        eps = np.finfo(float).eps
        for i, gamma in zip(at, params.gammas):
            operand, targets, controls = program[i]
            assert (targets, controls, operand.dtype) == (tuple(range(n)), (), np.complex128)
            tol = 2 * (len(terms) + 1) * eps * abs(gamma) * norm + 8 * eps
            assert np.max(np.abs(operand - ising_phase_diagonal(model, gamma))) <= tol

    @pytest.mark.parametrize("n", range(1, 16))
    def test_every_operand_fits_in_chunk(self, n):
        # A phase layer is one diagonal of 2^n entries only while 2^n fits in CHUNK;
        # above, its gates keep their own operands of 2 and 4 entries. The H and
        # EXP_X layers are blocks of at most 2^_KRON_QUBITS square up to 13 qubits,
        # and 2 x 2 gates above.
        model = qubo_to_ising(random_qubo(n, 1))
        program = compile_ansatz(model).program(QaoaParams((0.3, -1.2), (0.7, 0.1)))
        fits = 1 << n <= CHUNK
        side = 1 << min(n, _KRON_QUBITS) if fits else 2
        assert max(operand.size for operand, _, _ in program if operand.ndim == 1) == (1 << n if fits else 4)
        assert max(operand.shape for operand, _, _ in program if operand.ndim == 2) == (side, side)

    def test_cost_vector_cap_reads_chunk_at_call_time(self):
        # The cost vector is built up to statevector._chunk_qubits() qubits, read when
        # it is first used: under a 2^6 CHUNK an n = 7 ansatz keeps its gate-level
        # phase layers, and its program estimates as build_ansatz's circuit does.
        model = qubo_to_ising(random_qubo(7, 7))
        params = QaoaParams((0.3, -1.2), (0.7, 0.1))
        with chunk_size(1 << 6):
            ansatz = compile_ansatz(model)
            assert ansatz.cost is None
            for method in ("raw", "holcus"):
                cfg = EstimatorConfig(method)
                got = run_program(compile_plan(model, cfg), ansatz.program(params), cfg).value
                assert abs(got - estimate(build_ansatz(model, params), model, cfg).value) <= 1e-12

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n", [1, 3, 5, 6, 9])
    def test_ready_blocks_estimate_as_gate_triples_at_every_beta(self, method, n):
        # beta = +-0 makes EXP_X diagonal, and every training's restart 0 starts
        # there. At beta in {0.0, -0.0, 0.3, 0.5} the program's estimate, exact and
        # seeded, is bit for bit that of the same program with build_ansatz's H and
        # EXP_X triples in place of the ready layers, which the kernel fuses at bind
        # time. Both take the phase layers from the cost vector, which differs from
        # a gate-level phase layer by rounding.
        model = qubo_to_ising(random_qubo(n, n))
        ansatz = compile_ansatz(model)
        terms = len(model.terms())
        for shots in (None, 1000):
            cfg = EstimatorConfig(method, shots=shots, seed=5)
            plan = compile_plan(model, cfg)
            for betas in [(0.0, 0.3), (-0.0, 0.3), (0.3, 0.0), (0.3, -0.0), (0.3, 0.5)]:
                params = QaoaParams((0.4, -0.9), betas)
                gates = build_ansatz(model, params).program
                triples = gates[:n]
                for k, gamma in enumerate(params.gammas):
                    start = n + k * (terms + n) + terms
                    triples += [(np.exp(ansatz.cost * (1j * gamma)), tuple(range(n)), ()), *gates[start : start + n]]
                got = run_program(plan, ansatz.program(params), cfg)
                want = run_program(plan, triples, cfg)
                assert (got.value.hex(), got.std_error.hex()) == (want.value.hex(), want.std_error.hex())

    @settings(max_examples=40, deadline=None)
    @given(
        model=ising_models(max_n=8),
        vec=st.integers(1, 3).flatmap(
            lambda p: st.lists(st.floats(-2 * np.pi, 2 * np.pi), min_size=2 * p, max_size=2 * p)
        ),
    )
    def test_program_estimates_match_gate_level_estimates(self, model, vec):
        # Every method's exact estimate of the training program is the gate-level
        # circuit's up to rounding, with the same counts. A model with no terms
        # (which only raw estimates) gets the H and mixer layers and no phase triple.
        params = QaoaParams.from_vector(vec)
        program = compile_ansatz(model).program(params)
        terms = model.terms()
        if not terms:
            assert len(program) == model.n * (params.p + 1)
        norm = max(sum(abs(c) for _, c in terms), 1.0)
        for method in METHODS if terms else ("raw",):
            cfg = EstimatorConfig(method)
            got = run_program(compile_plan(model, cfg), program, cfg)
            want = estimate(build_ansatz(model, params), model, cfg)
            assert abs(got.value - want.value) <= 1e-12 * norm
            assert (got.circuits_used, got.shots_used, got.max_qubits) == (
                want.circuits_used, want.shots_used, want.max_qubits
            )


class TestExactExpectation:
    def test_wider_than_capacity_raises(self):
        n = MAX_QUBITS + 1
        model = model_of(n, np.ones(n), {})
        with pytest.raises(CapacityError):
            exact_expectation(model, QaoaParams((0.1,), (0.2,)))

    def test_p0_equals_offset(self):
        for seed in range(5):
            model = qubo_to_ising(random_qubo(3, seed))
            assert exact_expectation(model, QaoaParams((), ())) == pytest.approx(
                model.offset, abs=1e-12
            )

    def test_single_qubit_matches_dense_product(self):
        # Oracle: explicit 2x2 chain expm(i*beta*X) expm(i*gamma*alpha*Z) H |0>.
        alpha, gamma, beta = 0.8, 0.45, 0.3
        model = model_of(1, [alpha], {})
        psi = np.array([1.0, 0.0], dtype=complex)
        psi = (np.array([[1, 1], [1, -1]]) / np.sqrt(2)) @ psi
        psi = expm(1j * gamma * alpha * PAULI["Z"]) @ psi
        psi = expm(1j * beta * PAULI["X"]) @ psi
        expected = (psi.conj() @ (alpha * PAULI["Z"]) @ psi).real
        got = exact_expectation(model, QaoaParams((gamma,), (beta,)))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_within_spectrum_bounds(self, rng):
        for seed in range(5):
            model = qubo_to_ising(random_qubo(4, seed + 40))
            eigs = np.linalg.eigvalsh(ising_dense_matrix(model))
            params = QaoaParams(
                tuple(rng.uniform(0, 2 * np.pi, size=2)), tuple(rng.uniform(0, np.pi, size=2))
            )
            val = exact_expectation(model, params)
            assert eigs[0] - 1e-9 <= val <= eigs[-1] + 1e-9

    def test_matches_dense_hamiltonian_expectation(self, rng):
        for seed in range(3):
            model = qubo_to_ising(random_qubo(3, seed + 60))
            params = QaoaParams(
                tuple(rng.uniform(0, 2 * np.pi, size=2)), tuple(rng.uniform(0, np.pi, size=2))
            )
            psi = run(build_ansatz(model, params)).amplitudes
            expected = (psi.conj() @ ising_dense_matrix(model) @ psi).real
            assert exact_expectation(model, params) == pytest.approx(expected, abs=1e-10)
