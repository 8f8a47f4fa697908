"""Statevector engine: basis states, gate application, marginals, sampling."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PAULI,
    apply_full_matrix,
    chunk_size,
    distinct_phase_diagonal,
    embed_full_matrix,
    pauli_full_matrix,
    random_controlled_diagonal,
    random_phase_gate,
    random_prep_circuit,
)
from holcus import statevector
from holcus.circuit import Circuit, Gate, run, x
from holcus.estimators import EstimatorConfig, Measurement, _readout, estimate, hadamard_test_circuit
from holcus.pauli_lcu import PauliString
from holcus.qaoa import QaoaParams, build_ansatz
from holcus.qubo_ising import qubo_to_ising, random_qubo
from holcus.statevector import (
    _KRON_QUBITS,
    CLOSED,
    MAX_QUBITS,
    MAX_SHOTS,
    OPEN,
    CapacityError,
    StateVector,
    _bind,
    _diag_layout,
    _fused,
    _run,
    _square_sums,
    apply_unitary,
    derive_seed,
    kernel_operand,
    marginal_probabilities,
    marginal_vector,
    new_basis_state,
    sample_counts,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestNewBasisState:
    def test_single_qubit_zero(self):
        sv = new_basis_state(1)
        assert np.array_equal(sv.amplitudes, [1, 0])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"num_qubits 0 out of range \[1, inf\]"):
            new_basis_state(0)

    def test_capacity_checked_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"num_qubits={MAX_QUBITS + 1} exceeds guard"):
                new_basis_state(MAX_QUBITS + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the register would take 512 MiB


class TestStateVector:
    @pytest.mark.parametrize(
        "amplitudes", [np.array([1.0, 0.0]), np.array([1, 0, 0], dtype=complex)], ids=["float64", "wrong-length"]
    )
    def test_bad_amplitudes_rejected(self, amplitudes):
        with pytest.raises(ValueError, match="amplitudes"):
            StateVector(1, amplitudes)


# Each guard named by its message; no other test reaches these.
@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: apply_unitary(new_basis_state(2), np.eye(4), [0, 0]), r"duplicate target qubits in \(0, 0\)"),
        (lambda: Gate("X", (0,), controls=((1, 2),)), "control polarity must be 0 .open. or 1 .closed., got 2"),
        (lambda: apply_unitary(new_basis_state(2), np.eye(2), [0, 1]), r"matrix shape \(2, 2\) does not match 2 targets"),
        (lambda: marginal_vector(new_basis_state(2), [1, 1]), r"duplicate qubits in \(1, 1\)"),
    ],
    ids=["duplicate_targets", "bad_polarity", "matrix_shape", "duplicate_marginal_qubits"],
)
def test_guard_rejects_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# The range check alone let a float index through, to fail inside the kernel, and a bool
# through as qubit 0 or 1.
@pytest.mark.parametrize(
    "call",
    [
        lambda q: run(Circuit(3, [Gate("H", (q,))])),
        lambda q: apply_unitary(new_basis_state(3), X, [q]),
        lambda q: apply_unitary(new_basis_state(3), X, [0], [(q, CLOSED)]),
        lambda q: marginal_vector(new_basis_state(3), [q]),
        lambda q: PauliString({q: "X"}),
        lambda q: hadamard_test_circuit(Circuit(3), PauliString({q: "Z"})),
    ],
    ids=["circuit", "target", "control", "marginal", "pauli", "select"],
)
def test_non_integer_qubit_rejected(call):
    with pytest.raises(ValueError, match=r"qubit index 1\.5 is not an integer"):
        call(1.5)
    # bool is an int subclass: True would address qubit 1.
    with pytest.raises(ValueError, match=r"qubit index True is not an integer"):
        call(True)
    call(np.int64(1))  # numpy integers stay valid indices


class TestApplyUnitary:
    def test_hadamard_plus_state(self):
        sv = apply_unitary(new_basis_state(1), H, [0])
        assert np.allclose(sv.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_closed_control_fires(self):
        # |10> (qubit1 = 1, qubit0 = 0) with CNOT control on qubit 1.
        sv = run(Circuit(2, [x(1)]))
        apply_unitary(sv, X, [0], [(1, CLOSED)])
        assert np.argmax(np.abs(sv.amplitudes)) == 0b11

    def test_open_control_blocks(self):
        sv = run(Circuit(2, [x(1)]))
        apply_unitary(sv, X, [0], [(1, OPEN)])
        assert np.argmax(np.abs(sv.amplitudes)) == 0b10

    def test_open_control_equals_x_conjugated_closed(self, rng):
        # Exhaustively on 3-qubit random states: open(q) == X(q) closed(q) X(q).
        for _ in range(10):
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps /= np.linalg.norm(amps)
            sv_open = new_basis_state(3)
            sv_conj = new_basis_state(3)
            sv_open.amplitudes[:] = amps
            sv_conj.amplitudes[:] = amps
            mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(mat)
            apply_unitary(sv_open, q, [0], [(2, OPEN)])
            apply_unitary(sv_conj, X, [2])
            apply_unitary(sv_conj, q, [0], [(2, CLOSED)])
            apply_unitary(sv_conj, X, [2])
            assert np.allclose(sv_open.amplitudes, sv_conj.amplitudes, atol=1e-12)

    def test_overlapping_targets_and_controls(self):
        sv = new_basis_state(2)
        with pytest.raises(ValueError):
            apply_unitary(sv, X, [0], [(0, CLOSED)])

    @pytest.mark.parametrize("polarities", [(CLOSED, CLOSED), (OPEN, CLOSED)])
    def test_duplicate_controls_rejected(self, polarities):
        sv = new_basis_state(2)
        with pytest.raises(ValueError, match="duplicate control"):
            apply_unitary(sv, X, [0], [(1, v) for v in polarities])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_matches_full_matrix_oracle(self, data, n):
        k = data.draw(st.integers(1, min(3, n)))
        qubits = data.draw(st.permutations(range(n)))
        c = data.draw(st.integers(0, min(3, n - k)))
        targets = qubits[:k]
        controls = [(q, data.draw(st.sampled_from([OPEN, CLOSED]))) for q in qubits[k : k + c]]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans(), label="diagonal"):
            local = distinct_phase_diagonal(rng, k)
        else:
            local, _ = np.linalg.qr(rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k)))
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        sv = new_basis_state(n)
        amps = sv.amplitudes
        amps[:] = psi
        assert apply_unitary(sv, local, targets, controls) is sv
        assert sv.amplitudes is amps
        expected = embed_full_matrix(local, targets, controls, n) @ psi
        assert np.allclose(amps, expected, rtol=0, atol=1e-12)

    def test_norm_preserved_over_long_random_circuit(self, rng):
        circ = random_prep_circuit(12, rng, depth=1000)
        out = run(circ)
        assert abs(out.norm() - 1.0) < 1e-9


def _per_qubit_kernel(state, operand, targets, controls):
    """The gate kernel on a (2,)*n view with one axis per qubit: the reference
    that the collapsed view must reproduce bit for bit."""
    n = state.num_qubits
    k = len(targets)
    moved = [n - 1 - q for q, _ in controls] + [n - 1 - q for q in reversed(targets)]
    tensor = state.amplitudes.reshape((2,) * n).transpose(moved + [a for a in range(n) if a not in moved])
    block = tensor[tuple(v for _, v in controls) + (...,)]
    if operand.ndim == 1:
        block *= operand.reshape((2,) * k + (1,) * (block.ndim - k))
    elif k == 1:
        # The kernel's flip rule and arithmetic: D0 x + D1 flip(x), each of D0 and
        # D1 a complex multiplying the whole when its entries are equal, else each
        # half times its entry, in place (numpy rounds a complex product in the
        # last bit differently by operand order, and for one amplitude in place).
        (a, b), (c, d) = operand.tolist()
        flipped = block[::-1].copy()
        for x, (first, second) in ((flipped, (b, c)), (block, (a, d))):
            if first == second:
                x *= first
            else:
                x[0] *= first
                x[1] *= second
        block += flipped
    else:
        block[...] = (operand @ block.reshape(1 << k, -1)).reshape(block.shape)


def _per_qubit_marginal(state, qubits):
    """marginal_vector on a (2,)*n view: sum the other axes, then order the rest."""
    n = state.num_qubits
    tensor = (np.abs(state.amplitudes) ** 2).reshape([2] * n)
    keep_axes = [n - 1 - q for q in qubits]
    drop_axes = tuple(ax for ax in range(n) if ax not in keep_axes)
    if drop_axes:
        tensor = tensor.sum(axis=drop_axes)
    remaining = sorted(keep_axes)
    return np.moveaxis(tensor, [remaining.index(ax) for ax in keep_axes], range(len(qubits))).reshape(-1)


def _one_target_unitary(data, rng) -> np.ndarray:
    """A 2x2 unitary [[a, b], [c, d]] of a drawn class: a = d (EXP_X-like; b = c
    too when the drawn phase is 0), b = c (H-like), b = -c with a = d = 0
    (Y-like), or a random QR unitary."""
    kind = data.draw(st.sampled_from(["equal-diagonal", "equal-off-diagonal", "opposite", "general"]))
    theta, phi = rng.uniform(0.1, 1.5), rng.uniform(-np.pi, np.pi)
    c, s = np.cos(theta), np.sin(theta)
    if kind == "equal-diagonal":
        phase = np.exp(1j * phi) if data.draw(st.booleans(), label="phased") else 1.0
        return np.array([[c, 1j * s * phase], [1j * s / phase, c]])
    if kind == "equal-off-diagonal":
        return np.array([[c, s], [s, -c]], dtype=complex)
    if kind == "opposite":
        return np.exp(1j * phi) * PAULI["Y"]
    return np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]


class TestOneTargetStep:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 16))
    def test_matches_dense_oracle(self, data, n):
        # One target takes the flip step, two or three the matrix product on the
        # same view. Widths above 13 chunk the view at the default CHUNK too, and
        # 2^6 chunks every view above 64 amplitudes; a control below a target
        # ends the view's contiguous last axis at that control.
        qubits = data.draw(st.permutations(range(n)))
        k = data.draw(st.integers(1, min(3, n)))
        c = data.draw(st.integers(0, min(3, n - k)))
        targets = tuple(qubits[:k])
        controls = tuple((q, data.draw(st.sampled_from([OPEN, CLOSED]))) for q in qubits[k : k + c])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if k == 1:
            matrix = _one_target_unitary(data, rng)
        else:
            matrix = np.linalg.qr(rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k)))[0]
        assert kernel_operand(matrix) is matrix
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        want = apply_full_matrix(matrix, targets, controls, n, psi)
        for chunk in (statevector.CHUNK, 1 << 6):
            got = StateVector(n, psi.copy())
            with chunk_size(chunk):
                _run(_bind(got, [(matrix, targets, controls)]))
            assert np.allclose(got.amplitudes, want, rtol=0, atol=1e-12)

    def test_one_target_gates_never_reach_the_matrix_product(self, rng):
        # A one-target gate binds to the flip step, which holds no 2x2 matrix;
        # only gates on two or more targets bind to the product with their matrix.
        n = 15
        state = StateVector(n, np.ones(1 << n, dtype=complex) / np.sqrt(1 << n))
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        for q in range(n):
            for step in _bind(state, [(H, (q,), ()), (u, (q,), (((q + 1) % n, CLOSED),))]):
                assert not any(isinstance(x, np.ndarray) and x.shape == (2, 2) for x in step)
        wide = np.kron(u, u)
        (step,) = _bind(state, [(wide, (0, 1), ())])
        assert any(x is wide for x in step)


class TestCollapsedView:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 10))
    def test_matches_per_qubit_view_bit_for_bit(self, data, n):
        k = data.draw(st.integers(1, min(3, n)))
        qubits = data.draw(st.permutations(range(n)))
        c = data.draw(st.integers(0, min(3, n - k)))
        targets = tuple(qubits[:k])
        controls = tuple((q, data.draw(st.sampled_from([OPEN, CLOSED]))) for q in qubits[k : k + c])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans(), label="diagonal"):
            operand = kernel_operand(distinct_phase_diagonal(rng, k))
        else:
            operand, _ = np.linalg.qr(rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k)))
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        want = StateVector(n, psi.copy())
        _per_qubit_kernel(want, operand, targets, controls)
        # At n <= 10 blocks fit the default CHUNK; 2^6 cuts them into chunks,
        # along several runs when the touched qubits are spread out, and ends
        # a diagonal's low axis at qubit 6. Narrower chunks are not compared:
        # BLAS rounds very narrow products differently.
        for chunk in (statevector.CHUNK, 1 << 6):
            got = StateVector(n, psi.copy())
            with chunk_size(chunk):
                _run(_bind(got, [(operand, targets, controls)]))
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()

    def test_gate_temporaries_stay_below_one_register(self, rng):
        n = 16
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector(n, psi / np.linalg.norm(psi))
        dense, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        z_string = np.diag([1, -1, -1, 1]).astype(np.complex128)
        gates = [
            Gate("H", (5,)),
            Gate("EXP_X", (9,), (0.3,)),
            Gate("DENSE", (2, 11), controls=((7, CLOSED),), matrix=dense),
            Gate("SWAP", (1, 14)),
            Gate("H", (n - 1,)),
            Gate("EXP_Z", (0,), (0.3,)),
            Gate("EXP_ZZ", (0, 9), (0.3,)),
            Gate("DENSE", (1, 4), controls=((12, CLOSED), (13, OPEN)), matrix=z_string),
        ]
        operands = [g.operand for g in gates]
        # An unchunked product makes two register-sized temporaries, 2 MiB
        # here; a diagonal's spread operand is at most CHUNK entries per target
        # above the low axis.
        tracemalloc.start()
        try:
            for g, operand in zip(gates, operands):
                _run(_bind(state, [(operand, g.targets, g.controls)]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < state.amplitudes.nbytes

    def test_wide_estimate_holds_one_register(self):
        # holcus at n = 11 reads one qubit of a 19-qubit register (8 MiB). Squaring the
        # whole register at once adds half a register or more; read in pieces of CHUNK,
        # the estimate holds the register, its plan and O(CHUNK) temporaries. The first
        # estimate fills the layout recipes, which are kept for the process.
        model = qubo_to_ising(random_qubo(11, seed=1))
        prep = build_ansatz(model, QaoaParams((0.3,), (0.4,)))
        cfg = EstimatorConfig("holcus")
        estimate(prep, model, cfg)
        tracemalloc.start()
        try:
            result = estimate(prep, model, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.max_qubits == 19
        assert peak < 1.25 * (16 << result.max_qubits)

    @pytest.mark.parametrize("k", [1, 16], ids=["top-qubit", "every-qubit"])
    def test_readout_temporaries_stay_below_a_quarter_register(self, k, rng):
        # Beside its 2^k probabilities (all 2^n of them for raw, k = n), a readout in
        # pieces of CHUNK holds two CHUNK-sized float arrays: an eighth of a 16-qubit
        # register. A whole-register |amplitude|^2 is half a register.
        n = 16
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector(n, psi / np.linalg.norm(psi))
        meas = Measurement(Circuit(n), rng.uniform(-1, 1, size=1 << k))
        cfg = EstimatorConfig("raw")
        _readout(state, meas, cfg, 0)
        tracemalloc.start()
        try:
            _readout(state, meas, cfg, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (8 << k) + state.amplitudes.nbytes / 4

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 10))
    def test_marginal_matches_per_qubit_sum_bit_for_bit(self, data, n):
        qubits = tuple(data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector(n, psi / np.linalg.norm(psi))
        assert marginal_vector(state, qubits).tobytes() == _per_qubit_marginal(state, qubits).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 10))
    def test_chunked_readouts_match_unchunked(self, data, n):
        # At n <= 10 both fit the default CHUNK; 2^6 cuts a register above 64
        # amplitudes, for marginal_vector and the readout of the top k qubits alike
        # (both are statevector._marginal): along the view's non-target axes, or,
        # over more than 6 qubits, along those qubits first.
        qubits = tuple(data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))])
        k = data.draw(st.integers(1, n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector(n, psi / np.linalg.norm(psi))
        meas = Measurement(Circuit(n), rng.uniform(-1, 1, size=1 << k))
        cfg = EstimatorConfig("raw")
        marginal, mean = marginal_vector(state, qubits), _readout(state, meas, cfg, 0)[0]
        with chunk_size(1 << 6), mock.patch.object(statevector, "_square_sums", wraps=_square_sums) as spy:
            chunked_marginal, chunked_mean = marginal_vector(state, qubits), _readout(state, meas, cfg, 0)[0]
        # The readout reads CHUNK at call time: above it, it squares pieces of at most CHUNK.
        view, _, _, cuts = spy.call_args.args
        assert (cuts is None) == (n <= 6)
        assert all(view[c].size <= 1 << 6 for c in cuts or ())
        assert np.max(np.abs(chunked_marginal - marginal)) <= 1e-15
        assert abs(chunked_mean - mean) <= 1e-15

    def test_wide_marginal_squares_at_most_chunk_amplitudes(self, rng):
        # Over more than log2(CHUNK) qubits, in any order, a marginal is cut along
        # them first: under a 2^6 CHUNK it squares at most 64 amplitudes at a time,
        # not 2^k, with the values of the default CHUNK; and over all 20 qubits of
        # a 20-qubit register (16 MiB) it holds its 8 MiB result and one chunk,
        # where squaring the register whole would hold 16 MiB.
        for n, k in [(7, 7), (10, 7), (9, 8), (10, 10)]:
            psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            state = StateVector(n, psi / np.linalg.norm(psi))
            qubits = tuple(int(q) for q in rng.permutation(n)[:k])
            want = marginal_vector(state, qubits)
            with chunk_size(1 << 6), mock.patch.object(statevector, "_square_sums", wraps=_square_sums) as spy:
                got = marginal_vector(state, qubits)
            view, _, _, cuts = spy.call_args.args
            assert cuts and all(view[c].size <= 1 << 6 for c in cuts)
            assert np.max(np.abs(got - want)) <= 1e-15
        n = 20
        state = StateVector(n, np.full(1 << n, 2 ** (-n / 2), dtype=np.complex128))
        qubits = tuple(range(n - 1, -1, -1))
        marginal_vector(state, qubits)  # fills the layout recipe, kept for the process
        tracemalloc.start()
        try:
            marginal = marginal_vector(state, qubits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(marginal, np.full(1 << n, 2.0**-n))
        assert peak <= 9 << 20

    @pytest.mark.parametrize("n, k", [(11, 7), (13, 8), (12, 9), (12, 11)])
    def test_readout_of_more_rows_than_chunk_matches_marginal_vector(self, n, k, rng):
        # Under a 2^6 CHUNK the top k > 6 qubits index more rows than CHUNK, so the
        # rows are read in blocks of whole rows, each contiguous, not as single
        # strided columns.
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector(n, psi / np.linalg.norm(psi))
        meas = Measurement(Circuit(n), rng.uniform(-1, 1, size=1 << k))
        want = marginal_vector(state, range(n - 1, n - 1 - k, -1)) @ meas.values
        with chunk_size(1 << 6), mock.patch.object(statevector, "_square_sums", wraps=_square_sums) as spy:
            mean = _readout(state, meas, EstimatorConfig("raw"), 0)[0]
        view, _, _, cuts = spy.call_args.args
        assert all(view[c].size <= 1 << 6 for c in cuts)
        assert all(view[c].flags.c_contiguous for c in cuts)
        assert abs(mean - want) <= 1e-15


def _one_target_gate(data, rng, n: int, controls=()) -> Gate:
    """H, EXP_X or a DENSE _one_target_unitary on a drawn qubit below n, not a control's."""
    q = data.draw(st.sampled_from([q for q in range(n) if q not in dict(controls)]))
    kind = data.draw(st.sampled_from(["H", "EXP_X", "DENSE"]))
    params = (float(rng.uniform(-np.pi, np.pi)),) if kind == "EXP_X" else ()
    return Gate(kind, (q,), params, controls, _one_target_unitary(data, rng) if kind == "DENSE" else None)


class TestFusedDiagonals:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 16))
    def test_fused_program_matches_one_triple_at_a_time(self, data, n):
        # Runs of 0-8 uncontrolled diagonals (EXP_Z, EXP_ZZ, diagonal DENSE on 1-3
        # targets) and of 0-8 uncontrolled one-target matrices (H, EXP_X, unitaries
        # of each _one_target_unitary class; a repeated qubit closes such a run, and
        # so may a controlled one-target gate in mid-run) between controlled
        # diagonals and matrix gates.
        # Widths above 13 put targets above qubit 13, where a multiplier doubles per
        # target; 2^6 caps a fused run at 6 qubits and closes it at a multiplier
        # above both 2^6 entries and that of each of its gates.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        program = []
        for _ in range(data.draw(st.integers(1, 3))):
            program += [random_phase_gate(data, rng, n) for _ in range(data.draw(st.integers(0, 8)))]
            program += [_one_target_gate(data, rng, n) for _ in range(data.draw(st.integers(0, 8)))]
            if n > 1 and program and data.draw(st.booleans(), label="controlled in mid-run"):
                at = data.draw(st.integers(0, len(program)))
                program.insert(at, _one_target_gate(data, rng, n, ((data.draw(st.integers(0, n - 1)), CLOSED),)))
            k = data.draw(st.integers(1, min(3, n)))
            qubits = data.draw(st.permutations(range(n)))
            c = data.draw(st.integers(0, min(3, n - k)))
            controls = tuple((q, data.draw(st.sampled_from([OPEN, CLOSED]))) for q in qubits[k : k + c])
            if c and data.draw(st.booleans(), label="diagonal"):
                matrix = distinct_phase_diagonal(rng, k)
            else:
                matrix = np.linalg.qr(rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k)))[0]
            program.append(Gate("DENSE", tuple(qubits[:k]), controls=controls, matrix=matrix))
        program = [(g.operand, g.targets, g.controls) for g in program[: data.draw(st.integers(1, len(program)))]]
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        for chunk in (statevector.CHUNK, 1 << 6):
            want = StateVector(n, psi.copy())
            got = StateVector(n, psi.copy())
            with chunk_size(chunk):
                for triple in program:
                    _run(_bind(want, [triple]))
                largest = max((_diag_layout(n, t, c)[2].size for op, t, c in program if op.ndim == 1), default=0)
                widest = max(len(targets) for _, targets, _ in _fused(n, program))
                steps = list(_bind(got, program))
                _run(steps)
            assert np.allclose(got.amplitudes, want.amplitudes, rtol=0, atol=1e-12)
            assert widest <= max(3, chunk.bit_length() - 1)
            assert all(len(step) != 2 or step[1].size <= max(chunk, largest) for step in steps)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 16))
    def test_suffix_fused_once_matches_one_gate_at_a_time(self, data, n):
        # Suffixes as the plans build them: runs of 1-8 diagonals, most of them
        # controlled (random controls and polarities) like the select stage's
        # Z-strings, between one-target and wider matrix gates. Fused once (whole
        # runs too) and bound unfused, they must act as the gates one at a time. On at
        # most log2(CHUNK) qubits every diagonal run is one triple; above, each
        # controlled diagonal passes through as it is. A diagonal operand holds at
        # most CHUNK entries, a matrix at most _KRON_QUBITS qubits.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        gates = []
        for _ in range(data.draw(st.integers(1, 3))):
            for _ in range(data.draw(st.integers(1, 8))):
                controlled = n > 1 and data.draw(st.integers(0, 3), label="controlled unless 0")
                gates.append(random_controlled_diagonal(data, rng, n) if controlled else random_phase_gate(data, rng, n))
            if data.draw(st.booleans(), label="one-target matrix"):
                gates.append(_one_target_gate(data, rng, n))
            else:
                k = data.draw(st.integers(1, min(3, n)))
                u = np.linalg.qr(rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k)))[0]
                gates.append(Gate("DENSE", tuple(data.draw(st.permutations(range(n)))[:k]), matrix=u))
        program = [(g.operand, g.targets, g.controls) for g in gates[: data.draw(st.integers(1, len(gates)))]]
        runs = sum(op.ndim == 1 and (i == 0 or program[i - 1][0].ndim == 2) for i, (op, _, _) in enumerate(program))
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        for chunk in (statevector.CHUNK, 1 << 6):
            want = StateVector(n, psi.copy())
            got = StateVector(n, psi.copy())
            with chunk_size(chunk):
                for triple in program:
                    _run(_bind(want, [triple], fuse=False))
                fused = list(_fused(n, program, whole=True))
                _run(_bind(got, fused, fuse=False))
            assert np.allclose(got.amplitudes, want.amplitudes, rtol=0, atol=1e-12)
            assert all(op.size <= chunk if op.ndim == 1 else len(op) <= 1 << _KRON_QUBITS for op, _, _ in fused)
            if n <= chunk.bit_length() - 1:
                assert sum(op.ndim == 1 for op, _, _ in fused) == runs
            else:
                kept = [id(t) for t in fused if t[2] and t[0].ndim == 1]
                assert kept == [id(t) for t in program if t[2] and t[0].ndim == 1]

    def test_a_run_closes_at_the_qubit_cap_and_the_multiplier_bound(self):
        # On 16 qubits, EXP_ZZ on qubits 0 and 13 spreads to 2^14 entries. Its union
        # with EXP_Z on qubits 0-12 would spread to no more, but 14 qubits pass
        # log2(CHUNK). After H, EXP_Z on qubit 13 spreads to 2 entries and EXP_Z on
        # qubit 0 to 2^13; together they would spread to 2^14, above both.
        z = Gate("EXP_Z", (0,), (0.3,)).operand
        zz = Gate("EXP_ZZ", (0, 1), (0.3,)).operand
        program = [*((z, (q,), ()) for q in range(13)), (zz, (0, 13), ()), (H, (5,), ()), (z, (13,), ()), (z, (0,), ())]
        fused = [targets for _, targets, _ in _fused(16, program)]
        assert fused == [tuple(range(13)), (0, 13), (5,), (13,), (0,)]

    def test_a_run_on_every_qubit_of_its_register_stays_unfused(self):
        # Its product would be as wide as the register, so building it costs what
        # applying the run does; one qubit more and the run fuses. A program fused
        # once and run many times (whole) fuses it too.
        z = Gate("EXP_Z", (0,), (0.3,)).operand
        zz = Gate("EXP_ZZ", (0, 1), (0.3,)).operand
        program = [(z, (0,), ()), (zz, (0, 1), ()), (z, (1,), ())]
        assert list(_fused(2, program)) == program
        for fused in (_fused(3, program), _fused(2, program, whole=True)):
            ((operand, targets, controls),) = fused
            assert (targets, controls) == ((0, 1), ())
            assert np.allclose(operand, z[[0, 1, 0, 1]] * zz * z[[0, 0, 1, 1]], rtol=0, atol=1e-15)

    def test_controlled_diagonals_join_a_run_up_to_the_qubit_cap(self):
        # A controlled diagonal's run counts its controls' qubits: CZ on qubit 0,
        # controlled by qubit 2 (closed) and 4 (open), and EXP_Z on qubit 1 fuse on
        # qubits 0, 1, 2 and 4 of a 13-qubit register. On 14 qubits they stay apart.
        z = Gate("EXP_Z", (1,), (0.3,)).operand
        cz = np.array([1, -1], dtype=complex)
        program = [(cz, (0,), ((2, CLOSED), (4, OPEN))), (z, (1,), ())]
        ((operand, targets, controls),) = _fused(13, program)
        assert (targets, controls) == ((0, 1, 2, 4), ())
        index = np.arange(16)
        fires = ((index >> 2) & 1 == 1) & ((index >> 3) & 1 == 0)
        assert np.array_equal(operand, np.where(fires & (index & 1 == 1), -1, 1) * z[(index >> 1) & 1])
        assert list(_fused(14, program)) == program

    def test_phase_layer_binds_to_one_step(self):
        # The 66 phase gates of a p = 1 ansatz at n = 11 fuse into one diagonal on
        # the 11 state qubits, spread over 2^13 amplitudes of a 19-qubit register;
        # its H layer and its EXP_X layer each into blocks on qubits 0-3, 4-7 and 8-10.
        model = qubo_to_ising(random_qubo(11, 1))
        prep = build_ansatz(model, QaoaParams((0.3,), (0.4,))).program
        state = new_basis_state(19)
        steps = list(_bind(state, prep))
        diagonals = [step for step in steps if len(step) == 2]
        assert len(prep) == 11 + 66 + 11 and len(steps) == 3 + 1 + 3
        assert [step[1].size for step in diagonals] == [1 << 13]
        assert [step[1].shape for step in steps if len(step) == 4] == [(16, 16), (16, 16), (8, 8)] * 2


class TestKronBlocks:
    def test_h_layer_fuses_to_blocks_of_consecutive_qubits(self):
        # The H layer of an n = 11 prep on holcus's 19-qubit register: its qubits,
        # ascending, cut into blocks of at most 4.
        fused = list(_fused(19, [(H, (q,), ()) for q in range(11)]))
        h2 = np.kron(H, H)
        assert [(targets, controls) for _, targets, controls in fused] == [((0, 1, 2, 3), ()), ((4, 5, 6, 7), ()), ((8, 9, 10), ())]
        for (block, _, _), want in zip(fused, [np.kron(h2, h2), np.kron(h2, h2), np.kron(H, h2)]):
            assert np.allclose(block, want, rtol=0, atol=1e-15)

    def test_block_operand_bit_j_is_targets_j(self, rng):
        # Given out of order, three one-target unitaries become one block on their
        # qubits ascending; np.kron's first factor is the most significant bit.
        u0, u1, u2 = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in range(3))
        ((block, targets, controls),) = _fused(5, [(u2, (4,), ()), (u0, (1,), ()), (u1, (2,), ())])
        assert (targets, controls) == ((1, 2, 4), ())
        assert np.allclose(block, np.kron(u2, np.kron(u1, u0)), rtol=0, atol=1e-15)

    def test_a_run_closes_at_a_repeated_qubit_and_at_any_other_triple(self):
        # A diagonal, a controlled gate and a wider matrix each close a run; a run
        # or block of one keeps the triple's own operand and so its flip step.
        z = Gate("EXP_Z", (0,), (0.3,)).operand
        program = [(H, (0,), ()), (H, (1,), ()), (X, (0,), ()), (X, (2,), ()), (z, (3,), ()), (H, (3,), ()),
                   (H, (4,), ((0, CLOSED),)), (X, (5,), ()), (np.kron(H, X), (6, 7), ()), (H, (6,), ())]
        fused = list(_fused(8, program))
        assert [targets for _, targets, _ in fused] == [(0, 1), (0, 2), (3,), (3,), (4,), (5,), (6, 7), (6,)]
        assert fused[5][0] is X and fused[3][0] is H
        assert np.allclose(fused[1][0], np.kron(X, X), rtol=0, atol=0)


class TestMarginalProbabilities:
    def test_plus_state(self):
        sv = apply_unitary(new_basis_state(1), H, [0])
        probs = marginal_probabilities(sv, [0]).probabilities
        assert probs["0"] == pytest.approx(0.5)
        assert probs["1"] == pytest.approx(0.5)

    def test_basis_state_single_qubit(self):
        probs = marginal_probabilities(run(Circuit(2, [x(0), x(1)])), [1]).probabilities
        assert probs == {"1": 1.0}

    def test_matches_exhaustive_summation(self, rng):
        # Oracle: direct |amp|^2 accumulation over all 16 basis states.
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        sv = new_basis_state(4)
        sv.amplitudes[:] = amps
        qubits = (0, 2)
        expected = {}
        for i in range(16):
            key = f"{(i >> 0) & 1}{(i >> 2) & 1}"  # char j <-> qubits[j]
            expected[key] = expected.get(key, 0.0) + abs(amps[i]) ** 2
        got = marginal_probabilities(sv, qubits).probabilities
        for key, val in expected.items():
            assert got[key] == pytest.approx(val, abs=1e-12)

    def test_full_marginal_equals_amplitudes_squared(self, rng):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        sv = new_basis_state(3)
        sv.amplitudes[:] = amps
        probs = marginal_probabilities(sv).probabilities
        for i in range(8):
            assert probs.get(format(i, "03b"), 0.0) == pytest.approx(abs(amps[i]) ** 2, abs=1e-14)

    def test_empty_qubit_list(self):
        with pytest.raises(ValueError):
            marginal_probabilities(new_basis_state(2), [])

    def test_probabilities_sum_to_one(self, rng):
        circ = random_prep_circuit(5, rng, depth=40)
        probs = marginal_probabilities(run(circ), [1, 3]).probabilities
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)

    @staticmethod
    def _z_string(state, qubits):
        # <Z on qubits> is the marginal on those qubits, signed by each outcome's parity.
        probs = marginal_probabilities(state, qubits).probabilities
        return sum(-p if key.count("1") % 2 else p for key, p in probs.items())

    def test_bell_pair_z_expectations(self):
        sv = apply_unitary(new_basis_state(2), H, [0])
        sv = apply_unitary(sv, X, [1], [(0, CLOSED)])
        assert self._z_string(sv, [0]) == pytest.approx(0.0, abs=1e-14)
        assert self._z_string(sv, [1, 0]) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_z_string_matches_dense_matrix(self, n, rng):
        # Oracle: <psi|M|psi> with M an explicit Kronecker product of Z and I.
        for _ in range(5):
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            sv = StateVector(n, amps / np.linalg.norm(amps))
            qubits = [int(q) for q in rng.choice(n, size=rng.integers(1, n + 1), replace=False)]
            psi = sv.amplitudes
            expected = psi.conj() @ pauli_full_matrix(dict.fromkeys(qubits, "Z"), n) @ psi
            assert self._z_string(sv, qubits) == pytest.approx(expected.real, abs=1e-12)


class TestSampleCounts:
    def test_deterministic_outcome(self):
        sv = new_basis_state(1)
        counts = sample_counts(marginal_probabilities(sv, [0]), 100, seed=3)
        assert counts.counts == {"0": 100}

    def test_binomial_four_sigma_bound(self):
        sv = apply_unitary(new_basis_state(1), H, [0])
        counts = sample_counts(marginal_probabilities(sv, [0]), 10**5, seed=7)
        frac = counts.counts["0"] / 10**5
        assert 0.494 <= frac <= 0.506  # 4 sigma, sigma = sqrt(0.25/1e5)

    def test_seeded_reproducibility(self):
        sv = apply_unitary(new_basis_state(1), H, [0])
        dist = marginal_probabilities(sv, [0])
        a = sample_counts(dist, 1000, seed=11)
        b = sample_counts(dist, 1000, seed=11)
        assert a.counts == b.counts

    def test_total_preserved(self, rng):
        circ = random_prep_circuit(4, rng, depth=30)
        counts = sample_counts(marginal_probabilities(run(circ)), 4321, seed=5)
        assert sum(counts.counts.values()) == counts.total_shots == 4321

    # 2.5 drew 2 samples but reported total_shots=2.5; True drew 1.
    @pytest.mark.parametrize("shots", [0, 2.5, True, "10", MAX_SHOTS + 1], ids=["zero", "float", "bool", "str", "above_max"])
    def test_zero_shots_rejected(self, shots):
        with pytest.raises(ValueError, match="shots"):
            sample_counts(marginal_probabilities(new_basis_state(1), [0]), shots, seed=1)

    # 1.5 and "3" failed inside numpy with TypeError, -1 with ValueError; True drew.
    @pytest.mark.parametrize("seed", [1.5, "3", -1, True], ids=["float", "str", "negative", "bool"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            sample_counts(marginal_probabilities(new_basis_state(1), [0]), 10, seed)


class TestDeriveSeed:
    def test_deterministic_and_order_free(self):
        assert derive_seed(99, 1, 2) == derive_seed(99, 1, 2)
        assert derive_seed(99, 1, 2) != derive_seed(99, 2, 1)
        assert derive_seed(99, 1) != derive_seed(98, 1)
