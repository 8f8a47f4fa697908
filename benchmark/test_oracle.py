"""The oracle against closed forms (no holcus code involved)."""

import math

import numpy as np
import pytest

from oracle import InstanceOracle, coefficient_groups, expectation, group_ancillas, qubo_energies


@pytest.mark.parametrize("a", [1.5, -0.7, 2.0])
def test_single_variable_energies_terms_and_bounds(a):
    orc = InstanceOracle.of([[a]])
    assert orc.energies.tolist() == [0.0, a]
    assert orc.optimum == min(0.0, a)
    assert orc.uniform_mean == pytest.approx(a / 2)
    # x = (1 - z)/2, so a*x = a/2 - (a/2) z.
    assert orc.offset == pytest.approx(a / 2)
    assert orc.terms == (((0,), pytest.approx(-a / 2)),)
    for method in ("hadamard", "holcus", "holcus_div"):
        assert orc.sigma_bound(method, 400) == pytest.approx(abs(a) / 2 / 20)


@pytest.mark.parametrize("a", [1.5, -0.7])
@pytest.mark.parametrize("gamma,beta", [(0.0, 0.0), (0.4, 0.3), (1.1, -0.8), (2.5, 1.2)])
def test_single_variable_qaoa_closed_form(a, gamma, beta):
    # |+>, phase e^{i gamma a x}, mixer e^{i beta X}: P(x=1) = (1 + sin 2beta sin(gamma a)) / 2.
    expected = a / 2 * (1 + math.sin(2 * beta) * math.sin(gamma * a))
    assert expectation(np.array([0.0, a]), [gamma], [beta]) == pytest.approx(expected, abs=1e-12)
    assert InstanceOracle.of([[a]]).value([gamma, beta]) == pytest.approx(expected, abs=1e-12)


def test_two_variable_coupling_groups_and_widths():
    # 2 x0 x1 = (1 - z0 - z1 + z0 z1) / 2.
    orc = InstanceOracle.of([[0.0, 1.0], [1.0, 0.0]])
    assert qubo_energies([[0.0, 1.0], [1.0, 0.0]]).tolist() == [0.0, 0.0, 0.0, 2.0]
    assert orc.offset == pytest.approx(0.5)
    assert [q for q, _ in orc.terms] == [(0,), (1,), (0, 1)]
    assert orc.coeffs == pytest.approx([-0.5, -0.5, 0.5])
    assert coefficient_groups(orc.coeffs) == [(-0.5, 2), (0.5, 1)]
    assert orc.circuits_per_estimate("hadamard") == 3
    assert orc.circuits_per_estimate("holcus_div") == 2
    assert orc.max_qubits("holcus") == 2 + 2 + 1
    assert orc.max_qubits("holcus_div") == 2 + 1 + 1
    assert orc.sigma_bound("holcus", 100) == pytest.approx(1.5 / 10)
    assert orc.sigma_bound("holcus_div", 100) == pytest.approx(math.sqrt(1.0 + 0.25) / 10)


def test_group_ancillas():
    assert [group_ancillas(k) for k in (1, 2, 3, 4, 7, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


def test_uniform_state_at_zero_angles():
    rng = np.random.default_rng(3)
    Q = rng.uniform(-2, 2, size=(4, 4))
    orc = InstanceOracle.of(Q + Q.T)
    assert orc.value(np.zeros(4)) == pytest.approx(orc.uniform_mean, abs=1e-12)
