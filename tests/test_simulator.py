"""Statevector operations against small matrix oracles."""

import math

import numpy as np
import pytest

from parityflow.layout import cnot, cz, hadamard, rx, rz
from parityflow.simulator import (
    EntangledQubitError,
    Statevector,
    ZeroProbabilityError,
    append_qubit,
    apply_circuit,
    apply_pauli_x,
    apply_pauli_z,
    basis_state,
    discard_qubit,
    distance_up_to_phase,
    outcome_probability,
    project,
    random_state,
)

from pauli_helpers import pauli_expectation, pauli_from_text

SQ2 = 1 / math.sqrt(2)


def test_hadamard_on_zero():
    out = apply_circuit(basis_state(("q",), "0"), [hadamard("q")])
    assert np.allclose(out.amplitudes, [SQ2, SQ2])


def test_cnot_flips_target():
    out = apply_circuit(basis_state(("1", "2"), "10"), [cnot("1", "2")])
    assert np.allclose(out.amplitudes, [0, 0, 0, 1])


def test_rz_pi_on_plus_matches_matrix_oracle():
    # oracle: RZ(pi) = diag(e^{-i pi/2}, e^{i pi/2}) applied to |+>
    plus = np.array([SQ2, SQ2])
    oracle = np.diag([np.exp(-0.5j * np.pi), np.exp(0.5j * np.pi)]) @ plus
    minus = np.array([SQ2, -SQ2])
    assert np.allclose(oracle, -1j * minus)
    state = apply_circuit(basis_state(("q",), "0"), [hadamard("q"), rz("q", np.pi)])
    assert np.allclose(state.amplitudes, oracle)
    assert distance_up_to_phase(state, Statevector(("q",), minus)) < 1e-14


def test_rx_convention():
    # RX(t)|0> = cos(t/2)|0> - i sin(t/2)|1>
    t = 0.83
    out = apply_circuit(basis_state(("q",), "0"), [rx("q", t)])
    assert np.allclose(out.amplitudes, [math.cos(t / 2), -1j * math.sin(t / 2)])


def test_cz_phases_only_11():
    state = apply_circuit(
        basis_state(("1", "2"), "00"), [hadamard("1"), hadamard("2"), cz("1", "2")]
    )
    assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, -0.5])


def test_apply_unknown_qubit():
    with pytest.raises(ValueError, match="unknown qubit"):
        apply_circuit(basis_state(("a",), "0"), [hadamard("b")])


def test_project_plus_along_x_is_certain():
    plus = apply_circuit(basis_state(("q",), "0"), [hadamard("q")])
    prob, after = project(plus, "q", (1, 0, 0), 1)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert distance_up_to_phase(plus, after) < 1e-12


def test_project_zero_probability_outcome():
    with pytest.raises(ZeroProbabilityError):
        project(basis_state(("q",), "0"), "q", (0, 0, 1), -1)


@pytest.mark.parametrize("theta", [0.1, 0.7, 1.9, 2.9])
def test_project_yz_axis_probability(theta):
    # oracle: p(+1) = |<m|0>|^2 for |m> = RX(-theta)|0> = cos(t/2)|0> + i sin(t/2)|1>
    m = np.array([math.cos(theta / 2), 1j * math.sin(theta / 2)])
    oracle = abs(np.vdot(m, [1, 0])) ** 2
    assert oracle == pytest.approx(math.cos(theta / 2) ** 2)
    prob, _ = project(
        basis_state(("q",), "0"), "q", (0, math.sin(theta), math.cos(theta)), 1
    )
    assert prob == pytest.approx(oracle, abs=1e-12)


def test_project_axis_must_be_unit():
    with pytest.raises(ValueError, match="unit"):
        project(basis_state(("q",), "0"), "q", (0, 0, 2), 1)


def test_projection_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(25):
        state = random_state(("a", "b"), rng)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        outcome = 1 if rng.random() < 0.5 else -1
        try:
            _, once = project(state, "a", axis, outcome)
        except ZeroProbabilityError:
            continue
        prob2, twice = project(once, "a", axis, outcome)
        assert prob2 == pytest.approx(1.0, abs=1e-12)
        assert distance_up_to_phase(once, twice) < 1e-12


def test_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        state = random_state(("a", "b", "c"), rng)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        total = outcome_probability(state, "b", axis, 1) + outcome_probability(
            state, "b", axis, -1
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_distance_up_to_phase_cases():
    rng = np.random.default_rng(2)
    psi = random_state(("a", "b"), rng)
    rotated = Statevector(psi.labels, np.exp(0.37j) * psi.amplitudes)
    assert distance_up_to_phase(psi, rotated) < 1e-12
    zero = basis_state(("a",), "0")
    one = basis_state(("a",), "1")
    assert distance_up_to_phase(zero, one) == pytest.approx(1.0)
    plus = apply_circuit(zero, [hadamard("a")])
    assert distance_up_to_phase(zero, plus) == pytest.approx(math.sqrt(0.5))


def test_distance_symmetric():
    rng = np.random.default_rng(8)
    a = random_state(("x", "y"), rng)
    b = random_state(("x", "y"), rng)
    assert distance_up_to_phase(a, b) == pytest.approx(distance_up_to_phase(b, a), abs=1e-12)


def test_distance_label_mismatch():
    with pytest.raises(ValueError):
        distance_up_to_phase(basis_state(("a",), "0"), basis_state(("b",), "0"))


def test_discard_product_qubit():
    rng = np.random.default_rng(3)
    psi = random_state(("x", "y"), rng)
    widened = append_qubit(psi, "z", (1.0, 0.0))
    again = discard_qubit(widened, "z")
    assert again.labels == psi.labels
    assert distance_up_to_phase(again, psi) < 1e-12


def test_discard_entangled_qubit_rejected():
    bell = apply_circuit(basis_state(("a", "b"), "00"), [hadamard("a"), cnot("a", "b")])
    # purity oracle: reduced state of half a Bell pair is I/2, purity 1/2
    m = bell.amplitudes.reshape(2, 2)
    rho = m @ m.conj().T
    assert np.trace(rho @ rho).real == pytest.approx(0.5)
    with pytest.raises(EntangledQubitError):
        discard_qubit(bell, "a")


def test_append_then_discard_round_trip():
    rng = np.random.default_rng(4)
    psi = random_state(("a",), rng)
    phi = rng.normal(size=2) + 1j * rng.normal(size=2)
    phi /= np.linalg.norm(phi)
    widened = append_qubit(psi, "b", phi)
    back = discard_qubit(widened, "b")
    assert distance_up_to_phase(back, psi) < 1e-12


def test_qubit_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        basis_state([f"q{i}" for i in range(17)], "0" * 17)
    small = basis_state(("a",), "0", cap=1)
    with pytest.raises(ValueError, match="cap"):
        append_qubit(small, "b", (1, 0), cap=1)


def test_norm_preserved_over_long_random_circuit():
    rng = np.random.default_rng(12)
    labels = tuple("abcde")
    state = random_state(labels, rng)
    gates = []
    for _ in range(100):
        kind = rng.integers(4)
        q = labels[rng.integers(5)]
        if kind == 0:
            gates.append(hadamard(q))
        elif kind == 1:
            gates.append(rz(q, rng.uniform(-np.pi, np.pi)))
        elif kind == 2:
            gates.append(rx(q, rng.uniform(-np.pi, np.pi)))
        else:
            r = labels[rng.integers(5)]
            if r != q:
                gates.append(cnot(q, r))
    out = apply_circuit(state, gates)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_pauli_appliers_match_circuit_matrices():
    rng = np.random.default_rng(6)
    state = random_state(("a", "b"), rng)
    flipped = apply_pauli_x(state, "b")
    oracle = state.amplitudes.reshape(2, 2)[:, ::-1].reshape(-1)
    assert np.allclose(flipped.amplitudes, oracle)
    phased = apply_pauli_z(state, "a")
    oracle_z = state.amplitudes.copy()
    oracle_z[2:] *= -1
    assert np.allclose(phased.amplitudes, oracle_z)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_statevector_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="norm"):
        Statevector(("a",), np.array([bad, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="norm"):
        Statevector(("a", "b"), np.array([1.0, bad, 0.0, 0.0], dtype=complex))


def test_statevector_leaves_caller_array_writable():
    amps = np.array([1.0, 0.0], dtype=np.complex128)
    state = Statevector(("a",), amps)
    assert amps.flags.writeable
    amps[0] = 0.0
    assert state.amplitudes[0] == 1.0
    assert not state.amplitudes.flags.writeable


def test_pauli_expectation():
    plus = apply_circuit(basis_state(("q",), "0"), [hadamard("q")])
    assert pauli_expectation(plus, pauli_from_text(("q",), "+X_q")) == pytest.approx(1.0)
    assert pauli_expectation(plus, pauli_from_text(("q",), "+Z_q")) == pytest.approx(0.0)
    assert pauli_expectation(plus, pauli_from_text(("q",), "-X_q")) == pytest.approx(-1.0)
