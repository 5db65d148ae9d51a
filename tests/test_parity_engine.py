"""Parity computation: encoding, measurement-based decoding, layered runs."""

import numpy as np
import pytest

from parityflow.layout import build_all_pairs_layout
from parityflow.parity_engine import (
    LayerParams,
    all_outcome_branches,
    encode_input,
    layers_from_json,
    layers_to_json,
    mb_decode,
    run_computation,
    run_layer,
    unitary_decode,
)
from parityflow.pauli import parity_generators
from parityflow.simulator import (
    Statevector,
    ZeroProbabilityError,
    append_qubit,
    apply_pauli_x,
    basis_state,
    distance_up_to_phase,
    random_state,
)

from pauli_helpers import pauli_expectation


@pytest.fixture
def layout2():
    return build_all_pairs_layout(2)


def test_encode_zero_input(layout2):
    out = encode_input(layout2, basis_state(("1", "2"), "00"))
    assert out.labels == ("1", "2", "(12)")
    assert np.allclose(out.amplitudes, basis_state(out.labels, "000").amplitudes)


def test_encode_ones_sets_even_parity(layout2):
    out = encode_input(layout2, basis_state(("1", "2"), "11"))
    # both CNOTs fire: the parity qubit flips twice, ending in |0>
    assert np.allclose(out.amplitudes, basis_state(out.labels, "110").amplitudes)


def test_encode_superposition_by_linearity(layout2):
    psi = Statevector(("1", "2"), np.array([0, 1, 1, 0]) / np.sqrt(2))
    out = encode_input(layout2, psi)
    # oracle: encode each basis state classically and superpose
    expected = np.zeros(8, dtype=complex)
    expected[int("011", 2)] = 1 / np.sqrt(2)
    expected[int("101", 2)] = 1 / np.sqrt(2)
    assert np.allclose(out.amplitudes, expected)


def test_encode_label_mismatch(layout2):
    with pytest.raises(ValueError, match="data qubits"):
        encode_input(layout2, basis_state(("a", "b"), "00"))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_encoded_state_stabilized_by_parity_generators(n):
    layout = build_all_pairs_layout(n)
    rng = np.random.default_rng(n)
    state = encode_input(layout, random_state(layout.data_qubits, rng))
    for gen in parity_generators(layout).generators:
        assert pauli_expectation(state, gen) == pytest.approx(1.0, abs=1e-12)


def test_mb_decode_both_branches(layout2):
    rng = np.random.default_rng(0)
    psi = random_state(("1", "2"), rng)
    encoded = encode_input(layout2, psi)
    for branch in ([1], [-1]):
        out, record = mb_decode(encoded, layout2, ["(12)"], branch)
        assert record[0].outcome == branch[0]
        assert record[0].probability == pytest.approx(0.5, abs=1e-12)
        assert distance_up_to_phase(out, psi) < 1e-12


def test_mb_decode_empty_subset(layout2):
    psi = basis_state(("1", "2"), "01")
    encoded = encode_input(layout2, psi)
    out, record = mb_decode(encoded, layout2, [], [])
    assert record == ()
    assert out.labels == encoded.labels
    assert np.allclose(out.amplitudes, encoded.amplitudes)


def test_mb_decode_zero_probability_prescription(layout2):
    # parity qubit already in |+>: the -1 branch of an X measurement is empty
    state = append_qubit(basis_state(("1", "2"), "00"), "(12)", (1 / np.sqrt(2), 1 / np.sqrt(2)))
    with pytest.raises(ZeroProbabilityError):
        mb_decode(state, layout2, ["(12)"], [-1])


def test_mb_decode_unknown_subset(layout2):
    psi = basis_state(("1", "2"), "00")
    encoded = encode_input(layout2, psi)
    with pytest.raises(ValueError, match="not parity"):
        mb_decode(encoded, layout2, ["1"], [1])


def test_unitary_decode_round_trip(layout2):
    rng = np.random.default_rng(1)
    psi = random_state(("1", "2"), rng)
    out = unitary_decode(encode_input(layout2, psi), layout2)
    assert out.labels == psi.labels
    assert distance_up_to_phase(out, psi) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_mb_decode_equals_unitary_decode_all_branches(n):
    layout = build_all_pairs_layout(n)
    rng = np.random.default_rng(n + 10)
    psi = random_state(layout.data_qubits, rng)
    encoded = encode_input(layout, psi)
    reference = unitary_decode(encoded, layout)
    for branch in all_outcome_branches(len(layout.parity_qubits)):
        out, _ = mb_decode(encoded, layout, layout.parity_qubits, list(branch))
        assert distance_up_to_phase(out, reference) < 1e-12


def test_unitary_decode_rejects_non_codespace(layout2):
    rng = np.random.default_rng(2)
    encoded = encode_input(layout2, random_state(("1", "2"), rng))
    corrupted = apply_pauli_x(encoded, "(12)")
    with pytest.raises(ValueError, match="outside codespace"):
        unitary_decode(corrupted, layout2)


def test_single_theta_layer_is_logical_zz_rotation(layout2):
    # oracle: exp(-i theta Z@Z / 2) is diagonal with phases e^{-i theta s/2},
    # s the product of Z eigenvalues
    rng = np.random.default_rng(3)
    for theta in rng.uniform(-np.pi, np.pi, size=5):
        psi = random_state(("1", "2"), rng)
        out, _ = run_computation(layout2, psi, [LayerParams(theta={"(12)": theta})], [1])
        zz = np.array([1, -1, -1, 1])
        expected = Statevector(psi.labels, np.exp(-0.5j * theta * zz) * psi.amplitudes)
        assert distance_up_to_phase(out, expected) < 1e-12


def test_single_theta_layer_n3_pair_13():
    # same logical action on a larger layout: theta on (13) rotates qubits 1,3
    layout = build_all_pairs_layout(3)
    rng = np.random.default_rng(13)
    theta = rng.uniform(-np.pi, np.pi)
    psi = random_state(layout.data_qubits, rng)
    out, _ = run_computation(layout, psi, [LayerParams(theta={"(13)": theta})], [1, 1, 1])
    signs = np.array([(-1) ** (i >> 2 & 1) * (-1) ** (i & 1) for i in range(8)])
    expected = Statevector(psi.labels, np.exp(-0.5j * theta * signs) * psi.amplitudes)
    assert distance_up_to_phase(out, expected) < 1e-12


def test_all_zero_layer_recovers_input(layout2):
    rng = np.random.default_rng(4)
    psi = random_state(("1", "2"), rng)
    out, _ = run_computation(layout2, psi, [LayerParams()], [1])
    assert distance_up_to_phase(out, psi) < 1e-12


def test_cz_from_parity_rotation_and_data_rz(layout2):
    # oracle: RZ1(pi/2) RZ2(pi/2) exp(+i pi Z1Z2/4) = e^{-i pi/4} CZ (4x4 matrices)
    zz = np.array([1, -1, -1, 1])
    z1 = np.array([1, 1, -1, -1])
    z2 = np.array([1, -1, 1, -1])
    combined = np.exp(-0.25j * np.pi * z1) * np.exp(-0.25j * np.pi * z2) * np.exp(0.25j * np.pi * zz)
    cz_diag = np.array([1, 1, 1, -1])
    assert np.allclose(combined, np.exp(-0.25j * np.pi) * cz_diag)

    rng = np.random.default_rng(5)
    psi = random_state(("1", "2"), rng)
    layer = LayerParams(theta={"(12)": -np.pi / 2}, phi={"1": np.pi / 2, "2": np.pi / 2})
    out, _ = run_computation(layout2, psi, [layer], [1])
    direct = Statevector(psi.labels, cz_diag * psi.amplitudes)
    assert distance_up_to_phase(out, direct) < 1e-10


def test_two_layer_program_matches_direct_circuit(layout2):
    # ZZ rotation, then an X rotation on qubit 1 in the next layer
    rng = np.random.default_rng(6)
    theta, alpha = rng.uniform(-np.pi, np.pi, size=2)
    psi = random_state(("1", "2"), rng)
    layers = [LayerParams(theta={"(12)": theta}), LayerParams(alpha={"1": alpha})]
    out, _ = run_computation(layout2, psi, layers, np.random.default_rng(0))

    zz = np.array([1, -1, -1, 1])
    first = np.exp(-0.5j * theta * zz) * psi.amplitudes
    rx1 = np.kron(
        np.array([[np.cos(alpha / 2), -1j * np.sin(alpha / 2)], [-1j * np.sin(alpha / 2), np.cos(alpha / 2)]]),
        np.eye(2),
    )
    expected = Statevector(psi.labels, rx1 @ first)
    assert distance_up_to_phase(out, expected) < 1e-10


def test_outcome_independence_two_layers(layout2):
    rng = np.random.default_rng(7)
    psi = random_state(("1", "2"), rng)
    layers = [
        LayerParams(theta={"(12)": 0.4}, phi={"1": 0.2}),
        LayerParams(theta={"(12)": -0.9}, alpha={"2": 1.1}),
    ]
    outputs = []
    for branch in all_outcome_branches(2):
        out, _ = run_computation(layout2, psi, layers, list(branch))
        outputs.append(out)
    for other in outputs[1:]:
        assert distance_up_to_phase(outputs[0], other) < 1e-12


def test_outcome_independence_sampled_n5():
    # 15-qubit register, ten measurements; a handful of sampled branches
    layout = build_all_pairs_layout(5)
    rng = np.random.default_rng(55)
    psi = random_state(layout.data_qubits, rng)
    layer = LayerParams(theta={p: rng.uniform(-np.pi, np.pi) for p in layout.parity_qubits})
    reference, _ = run_computation(layout, psi, [layer], [1] * 10)
    for seed in range(6):
        branch_rng = np.random.default_rng(seed)
        out, _ = run_computation(layout, psi, [layer], branch_rng)
        assert distance_up_to_phase(out, reference) < 1e-12


def test_partial_decode_matches_full_decode_for_z_rotations():
    layout = build_all_pairs_layout(3)
    rng = np.random.default_rng(8)
    psi = random_state(layout.data_qubits, rng)
    theta = 1.234
    partial = [
        LayerParams(theta={"(12)": theta}, decode=frozenset({"(12)"})),
        LayerParams(),
    ]
    full = [LayerParams(theta={"(12)": theta}), LayerParams()]
    out_a, _ = run_computation(layout, psi, partial, np.random.default_rng(1))
    out_b, _ = run_computation(layout, psi, full, np.random.default_rng(2))
    assert distance_up_to_phase(out_a, out_b) < 1e-12


def test_run_layer_final_keeps_register_decoded(layout2):
    rng = np.random.default_rng(9)
    psi = random_state(("1", "2"), rng)
    encoded = encode_input(layout2, psi)
    out, _ = run_layer(encoded, layout2, LayerParams(), [1], final=True)
    assert out.labels == ("1", "2")
    follow, _ = run_layer(encoded, layout2, LayerParams(), [1], final=False)
    assert follow.labels == ("1", "2", "(12)")


def test_layer_params_validation(layout2):
    with pytest.raises(ValueError, match="theta"):
        LayerParams(theta={"1": 0.1}).validate(layout2)
    with pytest.raises(ValueError, match="alpha"):
        LayerParams(alpha={"(12)": 0.1}).validate(layout2)
    with pytest.raises(ValueError, match="decode"):
        LayerParams(decode=frozenset({"1"})).validate(layout2)


def test_run_computation_requires_layers(layout2):
    with pytest.raises(ValueError, match="layer"):
        run_computation(layout2, basis_state(("1", "2"), "00"), [], [1])


def test_layers_json_round_trip():
    layers = [
        LayerParams(theta={"(12)": 0.5}, alpha={"1": -0.25}, phi={"2": 3.0}),
        LayerParams(decode=frozenset({"(13)"})),
    ]
    again = layers_from_json(layers_to_json(layers))
    assert again == layers
