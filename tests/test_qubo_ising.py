"""QUBO generation, the spin map, energies, and the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ising_dense_matrix
from holcus.qubo_ising import (
    IsingModel,
    QuboInstance,
    brute_force_min,
    ising_energies,
    qubo_to_ising,
    random_qubo,
)
from holcus.statevector import CapacityError


def brute_cost(Q, bits):
    """Independent double-loop objective evaluation."""
    n = len(bits)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += Q[i, j] * bits[i] * bits[j]
    return total


class TestRandomQubo:
    def test_seeded_determinism(self):
        a = random_qubo(3, 42)
        b = random_qubo(3, 42)
        assert np.array_equal(a.Q, b.Q)

    def test_range_and_symmetry(self):
        q = random_qubo(8, 1)
        assert np.max(np.abs(q.Q)) < 2.0
        assert np.array_equal(q.Q, q.Q.T)

    def test_minimum_matches_exhaustive_oracle(self):
        q = random_qubo(5, 7)
        costs = [brute_cost(q.Q, [(i >> b) & 1 for b in range(5)]) for i in range(32)]
        _, best = brute_force_min(q)
        assert best == pytest.approx(min(costs), abs=1e-12)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            random_qubo(0, 1)


class TestQuboInstance:
    # Q - Q.T is NaN at such an entry, which a symmetry check alone lets through.
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("entries", [[(1, 1)], [(0, 1), (1, 0)]], ids=["diagonal", "symmetric-pair"])
    def test_non_finite_entry_rejected(self, bad, entries):
        Q = np.eye(2)
        for ij in entries:
            Q[ij] = bad
        with pytest.raises(ValueError, match="finite"):
            QuboInstance(2, Q)


class TestQuboToIsing:
    def test_single_positive_diagonal(self):
        # Expand (1-z)/2 * (1-z)/2 * 1 with z^2 = 1: (2 - 2z)/4 -> h = -1/2, offset = 1/2.
        m = qubo_to_ising(QuboInstance(1, np.array([[1.0]])))
        assert m.h[0] == pytest.approx(-0.5)
        assert m.offset == pytest.approx(0.5)
        assert m.J == {}

    def test_zero_matrix(self):
        m = qubo_to_ising(QuboInstance(2, np.zeros((2, 2))))
        assert np.array_equal(m.h, [0, 0])
        assert m.J == {} and m.offset == 0.0

    @pytest.mark.parametrize("n,seed", [(4, 11), (6, 12), (10, 13)])
    def test_exhaustive_round_trip(self, n, seed):
        q = random_qubo(n, seed)
        energies = ising_energies(qubo_to_ising(q))
        for i in range(1 << n):
            bits = [(i >> b) & 1 for b in range(n)]
            assert energies[i] == pytest.approx(brute_cost(q.Q, bits), abs=1e-10)

    # Each entry drawn from one of three families: any real in (-2, 2), a small
    # integer in {-2..2} (exact sums, many ties), or 0 with probability ~3/4 (sparse).
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), family=st.sampled_from(["random", "integer", "sparse"]))
    def test_round_trip_equals_xqx_at_every_index(self, data, n, family):
        entry = {
            "random": st.floats(-2.0, 2.0),
            "integer": st.integers(-2, 2).map(float),
            "sparse": st.one_of(st.just(0.0), st.just(0.0), st.just(0.0), st.floats(-2.0, 2.0)),
        }[family]
        Q = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                Q[i, j] = Q[j, i] = data.draw(entry)
        energies = ising_energies(qubo_to_ising(QuboInstance(n, Q)))
        want = [brute_cost(Q, [(i >> b) & 1 for b in range(n)]) for i in range(1 << n)]
        np.testing.assert_allclose(energies, want, rtol=0, atol=1e-10)


class TestIsingModel:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda bad: IsingModel(2, np.array([0.5, bad]), {(0, 1): 1.0}),
            lambda bad: IsingModel(2, np.zeros(2), {(0, 1): bad}),
            lambda bad: IsingModel(2, np.zeros(2), {(0, 1): 1.0}, offset=bad),
        ],
        ids=["h", "J", "offset"],
    )
    def test_non_finite_coefficient_rejected(self, make, bad):
        with pytest.raises(ValueError, match="finite"):
            make(bad)

    def test_terms_list_nonzero_fields_then_sorted_couplings(self):
        m = IsingModel(3, np.array([0.5, 0.0, -1.0]), {(1, 2): 2.0, (0, 2): 0.0, (0, 1): -0.25})
        assert m.terms() == [((0,), 0.5), ((2,), -1.0), ((0, 1), -0.25), ((1, 2), 2.0)]


class TestIsingEnergy:
    # Basis index 0 is z = (+1, +1); index 2 sets bit 1, so z = (+1, -1).
    def test_cancellation(self):
        m = IsingModel(2, np.array([1.0, -1.0]), {})
        assert ising_energies(m)[0] == pytest.approx(0.0)

    def test_single_coupling(self):
        m = IsingModel(2, np.zeros(2), {(0, 1): 2.0})
        assert ising_energies(m)[2] == pytest.approx(-2.0)


_COEFF = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


class TestIsingEnergies:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), offset=st.floats(-3.0, 3.0))
    def test_equals_dense_diagonal(self, data, n, offset):
        h = np.array(data.draw(st.lists(_COEFF, min_size=n, max_size=n)))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        couplings = data.draw(st.lists(_COEFF, min_size=len(pairs), max_size=len(pairs)))
        m = IsingModel(n, h, dict(zip(pairs, couplings)), offset)
        want = np.diag(ising_dense_matrix(m)).real
        np.testing.assert_allclose(ising_energies(m), want, rtol=0, atol=1e-12)


class TestBruteForce:
    def test_positive_diagonal(self):
        assert brute_force_min(QuboInstance(1, np.array([[1.0]]))) == ("0", 0.0)

    def test_negative_diagonal(self):
        assert brute_force_min(QuboInstance(1, np.array([[-1.0]]))) == ("1", -1.0)

    def test_cross_oracle_with_ising(self):
        q = random_qubo(6, 21)
        energies = np.diag(ising_dense_matrix(qubo_to_ising(q))).real
        _, best = brute_force_min(q)
        assert best == pytest.approx(min(energies), abs=1e-10)

    def test_tie_breaks_to_lowest_index(self):
        q = QuboInstance(2, np.zeros((2, 2)))  # every assignment costs 0
        assert brute_force_min(q)[0] == "00"

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 7))
    def test_small_integer_minimum_is_exact_at_lowest_index(self, data, n):
        Q = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                Q[i, j] = Q[j, i] = data.draw(st.integers(-2, 2))
        costs = [brute_cost(Q, [(i >> b) & 1 for b in range(n)]) for i in range(1 << n)]
        best = min(costs)
        assert brute_force_min(QuboInstance(n, Q)) == (format(costs.index(best), f"0{n}b"), best)

    def test_guard(self):
        with pytest.raises(CapacityError):
            brute_force_min(QuboInstance(25, np.zeros((25, 25))))


# Each guard named by its message; no other test reaches these.
@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: QuboInstance(2, np.zeros((3, 3))), r"Q must be 2x2, got \(3, 3\)"),
        (lambda: QuboInstance(2, np.array([[0.0, 1.0], [0.0, 0.0]])), "Q must be symmetric"),
        (lambda: IsingModel(2, np.zeros(3), {}), "h must have length 2"),
        (lambda: IsingModel(2, np.zeros(2), {(1, 0): 1.0}), r"coupling key \(1, 0\) index i 1 out of range \[0, 0\]"),
    ],
    ids=["q_shape", "q_asymmetric", "h_length", "coupling_order"],
)
def test_guard_rejects_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize(
    "key, match",
    [
        ((False, True), r"^coupling key \(False, True\) index i False is not an integer"),
        ((0, 1.0), r"^coupling key \(0, 1\.0\) index j 1\.0 is not an integer"),
    ],
    ids=["bool", "float"],
)
def test_coupling_key_of_non_integers_rejected_when_built(key, match):
    # A bool key would index ising_energies' coupling matrix as a mask: the
    # model would build with every energy 0 in place of [1, -1, -1, 1].
    with pytest.raises(ValueError, match=match):
        IsingModel(2, np.zeros(2), {key: 1.0})
    assert ising_energies(IsingModel(2, np.zeros(2), {(0, 1): 1.0})).tolist() == [1.0, -1.0, -1.0, 1.0]
