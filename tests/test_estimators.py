"""Estimator strategies: circuits, exact/finite modes, resource accounting."""

import gc
import math
import tracemalloc
from functools import cached_property
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holcus.circuit
import holcus.estimators
from conftest import (
    distinct_phase_diagonal,
    lcu_dense_matrix,
    model_of,
    pauli_full_matrix,
    random_controlled_diagonal,
    random_phase_gate,
    random_prep_circuit,
)
from holcus.circuit import CLOSED, OPEN, Circuit, Gate, h, resource_report, run, x
from holcus.estimators import (
    EXACT,
    IMAGINARY,
    MAX_SHOTS,
    REAL,
    EstimatorConfig,
    EstimatorPlan,
    Measurement,
    _readout,
    compile_plan,
    estimate,
    hadamard_test_circuit,
    holcus_circuit,
    run_plan,
    run_program,
)
from holcus.pauli_lcu import LcuTerm, PauliString, decomposition_from_terms, from_ising, group_by_coefficient
from holcus.qaoa import QaoaParams, build_ansatz, compile_ansatz, exact_expectation
from holcus.qubo_ising import qubo_to_ising, random_qubo
from holcus.statevector import (
    LAYOUT_CACHE_SIZE,
    StateVector,
    _bind,
    _diag_layout,
    _fused,
    _matrix_layout,
    _run,
    derive_seed,
    marginal_probabilities,
    marginal_vector,
    multinomial_draw,
    new_basis_state,
    sample_counts,
)


def random_case(seed, n_lo=2, n_hi=6, p_lo=1, p_hi=3):
    local = np.random.default_rng(seed)
    n = int(local.integers(n_lo, n_hi + 1))
    p = int(local.integers(p_lo, p_hi + 1))
    model = qubo_to_ising(random_qubo(n, seed))
    params = QaoaParams(
        tuple(local.uniform(0, 2 * np.pi, size=p)), tuple(local.uniform(0, np.pi, size=p))
    )
    return model, build_ansatz(model, params), params


class TestHadamardTestCircuit:
    def test_z_on_zero_state(self):
        circ = hadamard_test_circuit(Circuit(1), PauliString({0: "Z"}))
        p0 = marginal_probabilities(run(circ), [1]).probabilities.get("0", 0.0)
        assert 2 * p0 - 1 == pytest.approx(1.0, abs=1e-12)

    def test_z_on_plus_state(self):
        from holcus.circuit import h

        prep = Circuit(1, (h(0),))
        circ = hadamard_test_circuit(prep, PauliString({0: "Z"}))
        p0 = marginal_probabilities(run(circ), [1]).probabilities.get("0", 0.0)
        assert 2 * p0 - 1 == pytest.approx(0.0, abs=1e-12)

    def test_imaginary_part_of_hermitian_is_zero(self):
        circ = hadamard_test_circuit(Circuit(1), PauliString({0: "Z"}), part=IMAGINARY)
        p0 = marginal_probabilities(run(circ), [1]).probabilities.get("0", 0.0)
        assert 2 * p0 - 1 == pytest.approx(0.0, abs=1e-12)

    def test_measures_one_extra_qubit(self):
        circ = hadamard_test_circuit(Circuit(3), PauliString({1: "Z"}))
        assert circ.num_qubits == 4
        assert (circ.gates[0].kind, circ.gates[0].targets) == ("H", (3,))

    @staticmethod
    def _read(prep, ops, part=REAL):
        circ = hadamard_test_circuit(prep, PauliString(ops), part)
        p0 = marginal_probabilities(run(circ), [circ.num_qubits - 1]).probabilities.get("0", 0.0)
        return 2 * p0 - 1

    def test_zz_product_of_eigenvalues(self):
        # |01> means qubit0 = 1, qubit1 = 0: eigenvalues (-1) * (+1).
        assert self._read(Circuit(2, [x(0)]), {0: "Z", 1: "Z"}) == pytest.approx(-1.0, abs=1e-12)

    def test_identity_string(self, rng):
        assert self._read(random_prep_circuit(4, rng), {}) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_dense_matrix(self, n, rng):
        # Oracle: <psi|P|psi> with P an explicit Kronecker product. A Pauli string is
        # Hermitian, so the imaginary part reads 0.
        for _ in range(5):
            prep = random_prep_circuit(n, rng)
            psi = run(prep).amplitudes
            ops = {
                int(q): str(rng.choice(["X", "Y", "Z"]))
                for q in rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            }
            expected = psi.conj() @ pauli_full_matrix(ops, n) @ psi
            assert self._read(prep, ops) == pytest.approx(expected.real, abs=1e-10)
            assert self._read(prep, ops, IMAGINARY) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("op", ["Z", "X"])
    def test_string_on_every_qubit(self, op):
        # Z on every qubit of |0..0> and X on every qubit of |+..+> both read 1.
        n = 10
        prep = Circuit(n, [h(q) for q in range(n)] if op == "X" else [])
        assert self._read(prep, dict.fromkeys(range(n), op)) == pytest.approx(1.0, abs=1e-12)


class TestHolcusCircuit:
    def test_single_term_z_on_zero(self):
        model = model_of(1, [1.0], {})
        circ = holcus_circuit(Circuit(1), from_ising(model))
        hq = circ.num_qubits - 1
        p0 = marginal_probabilities(run(circ), [hq]).probabilities.get("0", 0.0)
        assert p0 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("part", [REAL, IMAGINARY])
    def test_measurement_follows_prep(self, part):
        model, prep, _ = random_case(5)
        circ = holcus_circuit(prep, from_ising(model), part)
        assert circ.gates[: len(prep.gates)] == prep.gates

    def test_marginal_is_normalized(self, rng):
        model, prep, _ = random_case(3)
        circ = holcus_circuit(prep, from_ising(model))
        hq = circ.num_qubits - 1
        probs = marginal_probabilities(run(circ), [hq]).probabilities
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_core_identity_against_dense_operator(self, seed):
        # N (2 P(0) - 1) must equal Re <psi| A |psi> with A assembled densely.
        local = np.random.default_rng(seed)
        n = int(local.integers(2, 4))
        model = qubo_to_ising(random_qubo(n, seed + 300))
        prep = random_prep_circuit(n, local, depth=10)
        dec = from_ising(model)
        circ = holcus_circuit(prep, dec)
        hq = circ.num_qubits - 1
        p0 = marginal_probabilities(run(circ), [hq]).probabilities.get("0", 0.0)
        psi = run(prep).amplitudes
        expected = (psi.conj() @ lcu_dense_matrix(dec, n) @ psi).real
        assert dec.normalization * (2 * p0 - 1) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("layout", ["shifted", "dense"])
    @pytest.mark.parametrize("seed", range(4))
    def test_pauli_sum_with_phases_against_dense_operator(self, seed, layout):
        # X, Y and Z strings with arbitrary phases: N (2 P(0) - 1) reads Re and,
        # with the S-dagger, Im of <psi| A |psi>, A assembled densely.
        local = np.random.default_rng(seed + 700)
        n = int(local.integers(2, 4))
        terms = []
        for _ in range(int(local.integers(2, 7))):
            qubits = local.choice(n, size=int(local.integers(1, n + 1)), replace=False)
            ops = {int(q): str(local.choice(["X", "Y", "Z"])) for q in qubits}
            terms.append(LcuTerm(float(local.uniform(0.1, 2.0)), float(local.uniform(-np.pi, np.pi)), PauliString(ops)))
        dec = decomposition_from_terms(terms, layout)
        prep = random_prep_circuit(n, local, depth=10)
        psi = run(prep).amplitudes
        want = psi.conj() @ lcu_dense_matrix(dec, n) @ psi
        for part, expected in ((REAL, want.real), (IMAGINARY, want.imag)):
            circ = holcus_circuit(prep, dec, part)
            p0 = marginal_probabilities(run(circ), [circ.num_qubits - 1]).probabilities.get("0", 0.0)
            assert dec.normalization * (2 * p0 - 1) == pytest.approx(expected, abs=1e-10)

    def test_branch_weights_sum_to_one(self, rng):
        # weight of the ancilla-|0> success branch plus the orthogonal branch,
        # extracted from the pre-measurement state, must account for all of
        # the |1>-side probability mass: <A'^dag A'> + <perp> = 1.
        model, prep, _ = random_case(7)
        n = prep.num_qubits
        dec = from_ising(model)
        circ = holcus_circuit(prep, dec)
        pre = Circuit(circ.num_qubits, circ.gates[:-1])  # stop before the final H
        amps = run(pre).amplitudes.reshape(2, -1, 1 << n)  # [hadamard, ancilla, state]
        success = 2.0 * np.sum(np.abs(amps[1, 0]) ** 2)
        orthogonal = 2.0 * np.sum(np.abs(amps[1, 1:]) ** 2)
        assert success + orthogonal == pytest.approx(1.0, abs=1e-9)

    def test_uniform_rejects_unequal_weights_and_phases(self):
        # Terms (1.0, 0, Z0) and (3.0, pi, Z1): the ladder weights them alike
        # and drops the phase, which read +0.848 where the value is +0.550.
        model = qubo_to_ising(random_qubo(2, 3))
        prep = build_ansatz(model, QaoaParams((0.4,), (0.3,)))
        terms = [LcuTerm(1.0, 0.0, PauliString({0: "Z"})), LcuTerm(3.0, np.pi, PauliString({1: "Z"}))]
        dec = decomposition_from_terms(terms, "dense")
        with pytest.raises(ValueError, match="equal weights and zero phases"):
            holcus_circuit(prep, dec, uniform=True)
        circ = holcus_circuit(prep, dec)
        p0 = marginal_probabilities(run(circ), [circ.num_qubits - 1]).probabilities.get("0", 0.0)
        psi = run(prep).amplitudes
        expected = (psi.conj() @ lcu_dense_matrix(dec, 2) @ psi).real
        assert expected == pytest.approx(0.5496, abs=1e-4)
        assert dec.normalization * (2 * p0 - 1) == pytest.approx(expected, abs=1e-10)

    def test_ancilla_free_term_must_have_zero_phase(self):
        # With no ancilla there is no prepare stage to carry e^{i theta}.
        dec = decomposition_from_terms([LcuTerm(2.0, np.pi, PauliString({0: "Z"}))], "dense")
        assert dec.num_ancillas == 0
        with pytest.raises(ValueError, match="zero phases"):
            holcus_circuit(Circuit(1), dec)


class TestExactModeAgreement:
    @pytest.mark.parametrize("method", ["raw", "hadamard", "holcus", "holcus_div"])
    def test_agrees_with_exact_expectation(self, method):
        for seed in range(6):
            model, prep, params = random_case(seed + 500)
            want = exact_expectation(model, params)
            got = estimate(prep, model, EstimatorConfig(method=method)).value
            assert got == pytest.approx(want, abs=1e-9)

    def test_single_term_holcus_equals_hadamard(self):
        model = model_of(1, [0.8], {})
        prep = build_ansatz(model, QaoaParams((0.4,), (0.3,)))
        a = estimate(prep, model, EstimatorConfig(method="hadamard")).value
        b = estimate(prep, model, EstimatorConfig(method="holcus")).value
        assert a == pytest.approx(b, abs=1e-12)

    def test_raw_on_basis_state_has_energy_of_that_state(self):
        from holcus.circuit import x

        model = model_of(2, [0.5, -0.25], {(0, 1): 1.5}, offset=0.3)
        prep = Circuit(2, (x(0),))  # |01> -> z = (-1, +1)
        res = estimate(prep, model, EstimatorConfig(method="raw"))
        expected = 0.3 + 0.5 * (-1) + (-0.25) * (+1) + 1.5 * (-1) * (+1)
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_raw_uniform_state_gives_offset(self):
        model = model_of(2, [1.0, -1.0], {}, offset=0.7)
        prep = build_ansatz(model, QaoaParams((), ()))
        res = estimate(prep, model, EstimatorConfig(method="raw"))
        assert res.value == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("method", ["raw", "hadamard", "holcus", "holcus_div"])
    def test_prep_given_a_gate_list_runs(self, method):
        model, prep, _ = random_case(504)
        cfg = EstimatorConfig(method=method)
        listed = Circuit(prep.num_qubits, list(prep.gates))
        plan = compile_plan(model, cfg)
        assert estimate(listed, model, cfg) == estimate(prep, model, cfg)
        assert plan.resources(listed) == plan.resources(prep)

    def test_prep_width_must_match_model(self):
        model = model_of(2, [0.5, -0.25], {(0, 1): 1.5})
        for method in ("raw", "hadamard", "holcus", "holcus_div"):
            cfg = EstimatorConfig(method=method)
            with pytest.raises(ValueError):
                run_plan(compile_plan(model, cfg), Circuit(3), cfg)


class TestResourceAccounting:
    def test_table_formulas_per_method(self):
        for seed in range(5):
            model, prep, _ = random_case(seed + 700)
            n = model.n
            dec = from_ising(model)
            M = dec.num_terms
            m = math.ceil(math.log2(M + 1))
            groups = group_by_coefficient(dec)
            anc_of = lambda size: (
                0 if size == 1 else (size.bit_length() - 1 if size & (size - 1) == 0 else math.ceil(math.log2(size + 1)))
            )
            m_div = max(anc_of(len(g.term_indices)) for g in groups)
            expected = {
                "raw": (n, 1),
                "hadamard": (n + 1, M),
                "holcus": (n + m + 1, 1),
                "holcus_div": (n + m_div + 1, len(groups)),
            }
            for method, (want_q, want_c) in expected.items():
                res = estimate(prep, model, EstimatorConfig(method=method))
                assert (res.max_qubits, res.circuits_used) == (want_q, want_c), method

    def test_shots_used_accounting(self):
        model, prep, _ = random_case(900)
        res = estimate(prep, model, EstimatorConfig(method="hadamard", shots=50, seed=1))
        assert res.shots_used == res.circuits_used * 50
        exact_res = estimate(prep, model, EstimatorConfig(method="hadamard"))
        assert exact_res.shots_used == 0 and exact_res.std_error == 0.0

    def test_resources_one_report_per_circuit(self):
        model, prep, _ = random_case(901)
        dec = from_ising(model)
        for method, circuits in (
            ("hadamard", [hadamard_test_circuit(prep, t.unitary) for t in dec.terms]),
            ("holcus", [holcus_circuit(prep, dec)]),
        ):
            reports = compile_plan(model, EstimatorConfig(method=method)).resources(prep)
            assert reports == tuple(resource_report(c) for c in circuits), method

    def test_resources_count_the_circuits_as_built_not_as_fused(self):
        # The kernel fuses runs of diagonals and of one-target gates when it binds a
        # program; the reports of a p = 3 plan at n = 6 count every gate as built:
        # (circuits, gates, controlled gates, summed depth, widths).
        model = qubo_to_ising(random_qubo(6, 1))
        prep = build_ansatz(model, QaoaParams((0.3, 0.5, 0.2), (0.7, 0.2, 0.4)))
        for method, want in (
            ("raw", (1, 87, 0, 41, {6})),
            ("hadamard", (21, 1890, 21, 903, {7})),
            ("holcus", (1, 112, 23, 65, {12})),
            ("holcus_div", (21, 1890, 21, 903, {7})),
        ):
            plan = compile_plan(model, EstimatorConfig(method=method))
            reports = plan.resources(prep)
            fused = [len(list(_fused(m.suffix.num_qubits, prep.program + m.suffix.program))) for m in plan.measurements]
            assert [r.gate_count for r in reports] == [len(prep.gates) + len(m.suffix.gates) for m in plan.measurements]
            assert all(r.gate_count > f for r, f in zip(reports, fused)), method
            got = [sum(getattr(r, f) for r in reports) for f in ("gate_count", "controlled_gate_count", "logical_depth")]
            assert (len(reports), *got, {r.qubit_count for r in reports}) == want, method


class TestRunPlan:
    @pytest.mark.parametrize("method", ["hadamard", "holcus", "holcus_div"])
    def test_checks_and_builds_no_circuit(self, method, monkeypatch):
        # The plan's circuits checked their gates when they were compiled; an
        # evaluation only simulates and reads out.
        model, prep, _ = random_case(902, n_lo=4)
        cfg = EstimatorConfig(method=method)
        plan = compile_plan(model, cfg)
        checks, builds = [], []
        real_check, real_init = holcus.circuit._check_qubits, Circuit.__post_init__

        def counted_check(qubits, num_qubits):
            checks.append(qubits)
            real_check(qubits, num_qubits)

        def counted_init(self):
            builds.append(self)
            real_init(self)

        monkeypatch.setattr(holcus.circuit, "_check_qubits", counted_check)
        monkeypatch.setattr(Circuit, "__post_init__", counted_init)
        run_plan(plan, prep, cfg)
        assert (len(checks), len(builds)) == (0, 0)

    @pytest.mark.parametrize("method", ["raw", "hadamard", "holcus", "holcus_div"])
    def test_second_run_builds_no_program(self, method, monkeypatch):
        # The first run builds the prep's program and each suffix's, and their
        # Circuits keep them for every later run; the plan fuses each suffix on its
        # first run, not when it is compiled (a sweep compiles plans to read their
        # widths), and keeps it.
        model, prep, _ = random_case(904, n_lo=4)
        cfg = EstimatorConfig(method=method)
        plan = compile_plan(model, cfg)
        fusions = []
        monkeypatch.setattr(holcus.estimators, "_fused", lambda *args, **kw: fusions.append(args) or _fused(*args, **kw))
        assert plan.widths and not fusions
        built, real = [], Circuit.program.func

        def counted(circuit):
            built.append(circuit)
            return real(circuit)

        program = cached_property(counted)
        program.__set_name__(Circuit, "program")
        monkeypatch.setattr(Circuit, "program", program)
        first = run_plan(plan, prep, cfg)
        assert built == [prep] + [m.suffix for m in plan.measurements]
        assert len(fusions) == len(plan.measurements)
        assert run_plan(plan, prep, cfg) == first
        assert len(built) == 1 + len(plan.measurements)
        assert len(fusions) == len(plan.measurements)

    def test_suffix_checks_its_gates_and_plan_its_widths(self):
        values = np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="out of range"):
            Measurement(Circuit(2, [h(2)]), values)
        with pytest.raises(ValueError, match="cannot hold 3 state qubits"):
            EstimatorPlan(3, 0.0, (Measurement(Circuit(2, [h(1)]), values),))

    # The readout reads the top log2(len(values)) qubits; these lengths failed
    # only inside its product, mid-estimate.
    @pytest.mark.parametrize("size", [1, 3, 8], ids=["one", "not_a_power_of_two", "wider_than_register"])
    def test_plan_checks_each_observable_length(self, size):
        good = Measurement(Circuit(2), np.ones(4))
        bad = Measurement(Circuit(2), np.ones(size))
        with pytest.raises(ValueError, match=f"measurement 1 has {size} values, not 2\\^k for 1 <= k <= 2"):
            EstimatorPlan(2, 0.0, (good, bad))

    @pytest.mark.parametrize("method", ["raw", "hadamard", "holcus", "holcus_div"])
    def test_repeat_estimate_computes_no_layout(self, method):
        # The kernel's view recipe depends only on a gate's qubits and the
        # register width, so a second identical estimate finds every one cached.
        model, prep, _ = random_case(903, n_lo=4)
        cfg = EstimatorConfig(method=method)
        estimate(prep, model, cfg)
        caches = (_diag_layout, _matrix_layout)
        misses = [cache.cache_info().misses for cache in caches]
        estimate(prep, model, cfg)
        assert [cache.cache_info().misses for cache in caches] == misses

    def test_layout_cache_is_bounded(self):
        for cache in (_diag_layout, _matrix_layout):
            assert cache.cache_info().maxsize == LAYOUT_CACHE_SIZE

    def test_diagonal_recipes_of_a_wide_plan_stay_small(self):
        # Each diagonal recipe keeps a spread of up to 2^13 operand indices;
        # stored as intp they would take several MB here.
        model = qubo_to_ising(random_qubo(11, 1))
        prep = build_ansatz(model, QaoaParams((0.3,), (0.7,)))
        plan = compile_plan(model, EstimatorConfig(method="holcus"))
        (meas,) = plan.measurements
        keys = {
            (meas.suffix.num_qubits, g.targets, g.controls)
            for g in prep.gates + meas.suffix.gates
            if g.operand.ndim == 1
        }
        assert len(keys) > 100
        assert sum(_diag_layout(*key)[2].nbytes for key in keys) < 2 << 20


def _random_gate(data, rng, qubits) -> Gate:
    """A DENSE gate on 1-3 of qubits with up to 3 open or closed controls among
    the rest: a diagonal of distinct phases or a random unitary."""
    k = data.draw(st.integers(1, min(3, len(qubits))))
    order = data.draw(st.permutations(qubits))
    c = data.draw(st.integers(0, min(3, len(qubits) - k)))
    controls = tuple((q, data.draw(st.sampled_from([OPEN, CLOSED]))) for q in order[k : k + c])
    if data.draw(st.booleans(), label="diagonal"):
        matrix = distinct_phase_diagonal(rng, k)
    else:
        matrix, _ = np.linalg.qr(rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k)))
    return Gate("DENSE", tuple(order[:k]), controls=controls, matrix=matrix)


def _traced(call):
    """(call's result, traced peak bytes, traced bytes still held after it). The
    collector is off during the call, and objects made before it are frozen, so a
    full collection after it sees only the call's objects and must find no cyclic
    garbage: nothing the call keeps through a reference cycle goes uncounted. The
    collection also empties the interpreter's free lists, whose contents depend on
    the tests run before and are not held by the call."""
    gc.disable()
    gc.freeze()
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
        assert gc.collect() == 0, "the call left cyclic garbage"
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.unfreeze()
        gc.enable()
    return out, peak, current


class TestReadout:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 16))
    def test_top_qubits_match_marginal_vector_bit_for_bit(self, data, n):
        # Every plan reads its register's top qubit or all of them; the readout's
        # row sums must be marginal_vector's, and a seeded draw must get its counts.
        top = data.draw(st.sampled_from([1, n]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector(n, psi / np.linalg.norm(psi))
        meas = Measurement(Circuit(n), rng.normal(size=1 << top))
        marginal = marginal_vector(state, range(n - 1, n - 1 - top, -1))
        mean, variance = _readout(state, meas, EstimatorConfig("holcus"), 0)
        assert (mean.hex(), variance) == ((marginal @ meas.values).hex(), 0.0)
        seed, k = data.draw(st.integers(0, 2**32)), data.draw(st.integers(0, 100))
        drawn = []

        def recorded(probs, shots, seed):
            drawn.append((probs, multinomial_draw(probs, shots, seed)))
            return drawn[-1][1]

        with mock.patch.object(holcus.estimators, "multinomial_draw", recorded):
            _readout(state, meas, EstimatorConfig("holcus", shots=1000, seed=seed), k)
        ((probs, counts),) = drawn
        assert probs.tobytes() == marginal.tobytes()
        assert np.array_equal(counts, multinomial_draw(marginal, 1000, derive_seed(seed, k)))


class TestRunProgram:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_gate_kernel_on_fresh_registers_bit_for_bit(self, data):
        # Widths up to 16 put targets above qubit 13, spread diagonals over several
        # axes and chunk matrix products; the first two circuits share a width,
        # and each starts with H on every qubit, so a register that is not reset
        # to |0...0> before the next circuit changes its value. The prep and each
        # suffix hold a run of uncontrolled diagonals, which the kernel fuses, each
        # suffix a run of controlled ones, which it fuses up to 13 qubits, and each
        # suffix's H layer binds as blocks of at most 4 consecutive qubits.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 14))
        widths = data.draw(st.lists(st.integers(n, 16), min_size=1, max_size=2))
        widths = [widths[0], widths[0]] + data.draw(st.lists(st.sampled_from(widths), max_size=3))
        prep_gates = [_random_gate(data, rng, list(range(n))) for _ in range(data.draw(st.integers(0, 6)))]
        at = data.draw(st.integers(0, len(prep_gates)))
        prep_gates[at:at] = [random_phase_gate(data, rng, n) for _ in range(data.draw(st.integers(0, 6)))]
        measurements = []
        for w in widths:
            gates = [h(q) for q in range(w)]
            gates += [random_phase_gate(data, rng, w) for _ in range(data.draw(st.integers(0, 4)))]
            gates += [_random_gate(data, rng, list(range(w))) for _ in range(data.draw(st.integers(0, 4)))]
            if w > 1:
                gates += [random_controlled_diagonal(data, rng, w) for _ in range(data.draw(st.integers(0, 4)))]
            top = data.draw(st.integers(1, min(3, w)))
            measurements.append(Measurement(Circuit(w, gates), rng.normal(size=1 << top)))
        plan = EstimatorPlan(n, float(rng.normal()), tuple(measurements))
        prep = [(g.operand, g.targets, g.controls) for g in prep_gates]
        shots = data.draw(st.sampled_from([EXACT, 1000]))
        cfg = EstimatorConfig("holcus", shots=shots, seed=data.draw(st.integers(0, 2**32)))
        # The executor binds the prep as a program of its own, fused on the register's
        # width, and each suffix as the plan fused it once.
        value, variance = plan.offset, 0.0
        for k, meas in enumerate(plan.measurements):
            width = meas.suffix.num_qubits
            state = new_basis_state(width)
            blocks = [tuple(range(q, min(q + 4, width))) for q in range(0, width, 4)]
            suffix = list(_fused(width, meas.suffix.program, whole=True))
            assert [t for _, t, _ in suffix][: len(blocks)] == blocks
            for triple in [*_fused(width, prep), *suffix]:
                _run(_bind(state, [triple]))
            term, var = _readout(state, meas, cfg, k)
            value += term
            variance += var
        got = run_program(plan, prep, cfg)
        assert got.value.hex() == float(value).hex()
        assert got.std_error.hex() == math.sqrt(variance).hex()
        assert (got.circuits_used, got.max_qubits) == (len(widths), max(widths))

    def test_one_circuit_peak_stays_near_its_register(self):
        # holcus runs one 17-qubit circuit at n = 10: its prep is bound as it runs,
        # so beside the 2 MiB register only one gate's multiplier and the
        # readout's probabilities are held at a time.
        model = qubo_to_ising(random_qubo(10, 1))
        prep = build_ansatz(model, QaoaParams((0.3, 0.5, 0.2), (0.7, 0.2, 0.4)))
        cfg = EstimatorConfig(method="holcus")
        plan = compile_plan(model, cfg)
        run_plan(plan, prep, cfg)
        _, peak, _ = _traced(lambda: run_plan(plan, prep, cfg))
        assert plan.max_qubits == 17
        assert peak < 1.6 * (16 << 17)

    def test_shared_prep_holds_one_multiplier_per_fused_run_until_its_width_ends(self):
        # hadamard runs M circuits of n + 1 qubits, so the prep is bound once and each
        # of its diagonal steps' multipliers is held. At n = 8 each phase layer's 8
        # EXP_Z and 28 EXP_ZZ gates fuse into one diagonal on the 8 state qubits,
        # spread over all 2^9 amplitudes: 8 KiB per layer. All are freed on return.
        model = qubo_to_ising(random_qubo(8, 1))
        prep = build_ansatz(model, QaoaParams((0.3, 0.5, 0.2), (0.7, 0.2, 0.4))).program
        cfg = EstimatorConfig(method="hadamard")
        plan = compile_plan(model, cfg)
        run_program(plan, prep, cfg)
        diagonals = sum(operand.ndim == 1 for operand, _, _ in prep)
        fused = [targets for operand, targets, _ in _fused(9, prep) if operand.ndim == 1]
        multipliers = len(fused) * (16 << 9)
        _, peak, held = _traced(lambda: run_program(plan, prep, cfg))
        assert (diagonals, fused) == (3 * (8 + 28), [tuple(range(8))] * 3)
        assert multipliers <= peak < multipliers + (64 << 10)
        assert held < 4 << 10

    def test_a_width_frees_its_prep_before_the_next_width_binds(self):
        # Two circuits each on 12 and 13 qubits. The prep is n runs of EXP_ZZ gates
        # on a ring, each closed by EXP_X, so it binds to n fused multipliers: the
        # 13-qubit ones (128 KiB each) are bound only after the 12-qubit ones (64 KiB)
        # are freed.
        n = 8
        ring = [Gate("EXP_ZZ", (q, (q + 1) % n), (0.1 * q,)) for q in range(n)]
        prep = Circuit(n, [*ring, Gate("EXP_X", (0,), (0.2,))] * n).program
        values = np.array([1.0, -1.0])
        measurements = tuple(Measurement(Circuit(w, [h(w - 1)]), values) for w in (12, 12, 13, 13))
        plan = EstimatorPlan(n, 0.0, measurements)
        cfg = EstimatorConfig("holcus")
        run_program(plan, prep, cfg)
        _, peak, _ = _traced(lambda: run_program(plan, prep, cfg))
        assert sum(operand.ndim == 1 for operand, _, _ in _fused(13, prep)) == n
        assert n * (16 << 13) <= peak < n * (16 << 13) + 2 * (16 << 13) + (64 << 10)

    def test_shared_prep_holds_each_fused_run_by_the_multiplier_rule(self):
        # hadamard at n = 14 runs 105 circuits of 15 qubits. Each fused run of the
        # prep holds 16 B x 2^min(width, 13) x 2^(its targets at qubit >= 13) until
        # the width ends, or 16 B x 2^(its targets) when none lies below qubit 13. A
        # run closes before a gate that would take it past 13 qubits, or past both
        # 2^13 entries and the largest multiplier of one of its gates (2^14 for
        # EXP_ZZ on qubit 13 and one below): the 14 EXP_Z gates bind as 13 on qubits
        # 0-12 (128 KiB) and EXP_Z on qubit 13 alone (32 B), the 91 EXP_ZZ gates as
        # one run of 128 KiB and two of 256 KiB, against a 512 KiB register. The H
        # and EXP_X layers each hold blocks on qubits 0-3, 4-7, 8-11 (4 KiB each) and
        # 12-13 (256 B).
        model = qubo_to_ising(random_qubo(14, 1))
        prep = build_ansatz(model, QaoaParams((0.3,), (0.7,))).program
        cfg = EstimatorConfig(method="hadamard")
        plan = compile_plan(model, cfg)
        run_program(plan, prep, cfg)
        width = plan.max_qubits
        held_by_rule = [
            16 * (1 << min(width, 13) if min(targets) < 13 else 1) << sum(q >= 13 for q in targets)
            if operand.ndim == 1
            else operand.nbytes
            for operand, targets, _ in _fused(width, prep)
        ]
        _, peak, held = _traced(lambda: run_program(plan, prep, cfg))
        blocks = [4 << 10] * 3 + [256]
        assert (width, len(plan.measurements)) == (15, 105)
        assert held_by_rule == [*blocks, 128 << 10, 32, 128 << 10, 256 << 10, 256 << 10, *blocks]
        assert sum(held_by_rule) <= peak < sum(held_by_rule) + 2 * (16 << width)
        assert held < 4 << 10

    @pytest.mark.parametrize("n, width, select, product", [(7, 13, 1, 64 << 10), (8, 15, 36, 0)])
    def test_a_plan_keeps_its_select_stage_as_one_multiplier_up_to_13_qubits(self, n, width, select, product):
        # holcus's plan fuses its suffix on its first run and keeps it. On 13
        # qubits (n = 7) the select stage's 28 controlled Z-strings, on the 7 state
        # qubits and controlled by the 5 ancillas (the shifted layout leaves the
        # Hadamard qubit out), become one diagonal of 2^12 entries (64 KiB), which
        # the plan holds after the run; on 15 qubits (n = 8) its 36 Z-strings stay
        # apart and the plan holds no product.
        model = qubo_to_ising(random_qubo(n, 1))
        prep = build_ansatz(model, QaoaParams((0.3,), (0.7,)))
        cfg = EstimatorConfig("holcus")
        run_plan(compile_plan(model, cfg), prep, cfg)  # every recipe and the prep's program warm
        plan = compile_plan(model, cfg)
        (meas,) = plan.measurements
        meas.suffix.program  # built before the trace, which then counts only the fused suffix
        _, _, held = _traced(lambda: run_plan(plan, prep, cfg))
        (program,) = plan.programs
        diagonals = [operand.nbytes for operand, _, _ in program if operand.ndim == 1]
        assert (plan.max_qubits, len(diagonals)) == (width, select)
        assert max(diagonals) == product or not product
        assert product <= held < product + (4 << 10)

    @pytest.mark.parametrize("n, per_gate_peak", [(14, 3.51), (15, 2.25)])
    def test_exact_raw_peaks_no_higher_than_per_gate_diagonals(self, n, per_gate_peak):
        # raw runs one n-qubit circuit, its prep bound as it runs. Applied gate by
        # gate, an exact p = 1 run_plan peaked at 3.51 and 2.25 registers at n = 14
        # and 15 (recipes warm). A fused run's multiplier is capped at the larger of
        # 2^13 entries and its largest gate's, and each step's multiplier is freed
        # before the next step is bound, so fusing must not raise the peak. The
        # training program, built inside the trace as an evaluation builds it,
        # keeps its phase gates apart above 13 qubits and is held to the same bound.
        model = qubo_to_ising(random_qubo(n, 1))
        params = QaoaParams((0.3,), (0.7,))
        prep = build_ansatz(model, params)
        ansatz = compile_ansatz(model)
        cfg = EstimatorConfig("raw")
        plan = compile_plan(model, cfg)
        for call in (lambda: run_plan(plan, prep, cfg), lambda: run_program(plan, ansatz.program(params), cfg)):
            call()
            _, peak, _ = _traced(call)
            assert peak < per_gate_peak * (16 << n)


class TestHolcusDiv:
    def test_fully_degenerate_single_circuit(self):
        model = model_of(3, [0.5, 0.5, 0.5], {(0, 1): 0.5, (1, 2): 0.5})
        params = QaoaParams((0.6,), (0.2,))
        prep = build_ansatz(model, params)
        res = estimate(prep, model, EstimatorConfig(method="holcus_div"))
        assert res.circuits_used == 1
        assert res.value == pytest.approx(exact_expectation(model, params), abs=1e-9)

    def test_distinct_coefficients_degenerate_to_per_term(self):
        model, prep, _ = random_case(903)
        M = from_ising(model).num_terms
        res = estimate(prep, model, EstimatorConfig(method="holcus_div"))
        assert res.circuits_used == M
        assert res.max_qubits == model.n + 1  # singleton groups run as plain tests

    def test_two_groups(self):
        model = model_of(5, [0.7, 0.7, 0.7, 0.7, 0.0], {(0, 1): -0.4, (2, 3): -0.4}, offset=0.1)
        params = QaoaParams((0.4,), (0.7,))
        prep = build_ansatz(model, params)
        res = estimate(prep, model, EstimatorConfig(method="holcus_div"))
        assert res.circuits_used == 2
        assert res.value == pytest.approx(exact_expectation(model, params), abs=1e-9)

    def test_non_power_of_two_group(self):
        model = model_of(3, [0.5, 0.5, 0.5], {})  # one group of size 3
        params = QaoaParams((0.3,), (0.9,))
        prep = build_ansatz(model, params)
        res = estimate(prep, model, EstimatorConfig(method="holcus_div"))
        assert res.circuits_used == 1
        assert res.max_qubits == 3 + 2 + 1  # shifted layout for 3 slots
        assert res.value == pytest.approx(exact_expectation(model, params), abs=1e-9)


class TestShotMode:
    def test_deterministic_given_seed(self):
        model, prep, _ = random_case(905)
        cfg = EstimatorConfig(method="holcus", shots=500, seed=77)
        a = estimate(prep, model, cfg)
        b = estimate(prep, model, cfg)
        assert a.value == b.value and a.std_error == b.std_error

    def test_different_seeds_differ(self):
        model, prep, _ = random_case(906)
        a = estimate(prep, model, EstimatorConfig(method="holcus", shots=200, seed=1))
        b = estimate(prep, model, EstimatorConfig(method="holcus", shots=200, seed=2))
        assert a.value != b.value

    def test_unbiased_mean_over_many_runs(self):
        # 500 seeded runs at 1e3 shots: the run mean must sit within
        # 4 N / sqrt(500 * 1000) of the exact value.
        model, prep, params = random_case(907, n_lo=3, n_hi=3)
        exact_value = exact_expectation(model, params)
        norm = from_ising(model).normalization
        vals = [
            estimate(prep, model, EstimatorConfig(method="holcus", shots=1000, seed=s)).value
            for s in range(500)
        ]
        assert abs(np.mean(vals) - exact_value) < 4 * norm / math.sqrt(500 * 1000)

    def test_raw_finite_matches_distribution_mean(self):
        model, prep, _ = random_case(908, n_lo=2, n_hi=3)
        res = estimate(prep, model, EstimatorConfig(method="raw", shots=200_000, seed=5))
        want = estimate(prep, model, EstimatorConfig(method="raw")).value
        assert res.value == pytest.approx(want, abs=6 * res.std_error + 1e-12)
        assert res.std_error > 0

    @pytest.mark.parametrize("part", [REAL, IMAGINARY])
    @pytest.mark.parametrize("method", ["hadamard", "holcus"])
    def test_value_is_sum_of_seeded_p0_draws(self, method, part):
        # Circuit k's P(0) comes from sample_counts seeded with derive_seed(seed, k).
        model, prep, _ = random_case(913, n_lo=3, n_hi=4)
        dec = from_ising(model)
        n, shots, seed = model.n, 1000, 29
        if method == "hadamard":
            circuits = [hadamard_test_circuit(prep, t.unitary, part) for t in dec.terms]
            scales = [float(t.signed_coefficient.real) for t in dec.terms]
            qubit = n
        else:
            circuits = [holcus_circuit(prep, dec, part)]
            scales = [dec.normalization]
            qubit = n + dec.num_ancillas
        want = model.offset if part == REAL else 0.0
        for k, (circ, scale) in enumerate(zip(circuits, scales)):
            dist = marginal_probabilities(run(circ), [qubit])
            c0 = sample_counts(dist, shots, derive_seed(seed, k)).counts.get("0", 0)
            want += scale * (2.0 * c0 / shots - 1.0)
        cfg = EstimatorConfig(method=method, shots=shots, seed=seed, part=part)
        got = estimate(prep, model, cfg).value
        assert abs(got - want) <= 1e-12 * max(dec.normalization, 1.0)

    def test_hermitian_imaginary_part_is_zero(self):
        for seed in (910, 911):
            model, prep, _ = random_case(seed)
            res = estimate(prep, model, EstimatorConfig(method="holcus", part=IMAGINARY))
            assert res.value == pytest.approx(0.0, abs=1e-9)
            hs = estimate(prep, model, EstimatorConfig(method="hadamard", part=IMAGINARY))
            assert hs.value == pytest.approx(0.0, abs=1e-9)


class TestEstimatorConfig:
    def test_unknown_part_rejected(self):
        with pytest.raises(ValueError, match="part must be 'real' or 'imaginary'"):
            EstimatorConfig(method="holcus", part="both")

    def test_raw_imaginary_part_rejected(self):
        with pytest.raises(ValueError, match="raw"):
            EstimatorConfig(method="raw", part=IMAGINARY)

    def test_negative_seed_rejected(self):
        # 1.5 failed inside numpy's SeedSequence at the first finite-shot estimate.
        for seed in (-1, 1.5, True):
            with pytest.raises(ValueError, match="seed"):
                EstimatorConfig(method="holcus", shots=10, seed=seed)

    # 2.5 drew 2 samples and divided by 2.5; True ran one shot; 10**19
    # overflowed numpy's multinomial mid-estimate.
    @pytest.mark.parametrize("shots", [0, -1, 2.5, 10.0, True, False, "10", MAX_SHOTS + 1, 10**19])
    def test_bad_shots_rejected(self, shots):
        with pytest.raises(ValueError, match="shots"):
            EstimatorConfig(method="holcus", shots=shots)

    def test_largest_shot_count_accepted(self):
        assert EstimatorConfig(method="holcus", shots=MAX_SHOTS).shots == np.iinfo(np.int64).max

    @pytest.mark.parametrize("method", ["hadamard", "holcus_div"])
    # 0.1 and inf merge distinct coefficients: holcus_div read 3.26867 and
    # 0.05622 against the exact 3.18789 on random_qubo(4, 1). The tolerance
    # is a class constant, so no value reaches the grouping.
    @pytest.mark.parametrize("tol", [-1e-9, float("nan"), 0.1, float("inf")])
    def test_bad_grouping_tol_rejected(self, method, tol):
        with pytest.raises(TypeError, match="grouping_tol"):
            EstimatorConfig(method=method, grouping_tol=tol)
        assert EstimatorConfig(method=method).grouping_tol == 1e-9
