"""Parity computation: encoding, measurement-based decoding, layered runs."""

import math
import re
from unittest import mock

import numpy as np
import pytest

from parityflow import parity_engine, simulator
from parityflow.cli import _canonical_json
from parityflow.layout import Gate, ParityLayout, build_all_pairs_layout
from parityflow.parity_engine import (
    X_AXIS,
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
    record_to_json,
    run_schedule,
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


def counting_compiles(monkeypatch) -> list:
    compiled = []
    real_compile = parity_engine.compile_plan

    def counting(labels, qubits, correct):
        compiled.append((labels, tuple(qubits)))
        return real_compile(labels, qubits, correct)

    monkeypatch.setattr(parity_engine, "compile_plan", counting)
    return compiled


def test_bad_decode_sets_raise_on_every_call_and_store_nothing(monkeypatch, layout2):
    compiled = counting_compiles(monkeypatch)
    psi = basis_state(("1", "2"), "00")
    encoded = encode_input(layout2, psi)
    for _ in range(3):
        with pytest.raises(ValueError, match="not parity qubits"):
            mb_decode(encoded, layout2, {"(12)", "(99)"}, [1, 1])
        with pytest.raises(ValueError, match="not in register"):
            mb_decode(psi, layout2, {"(12)"}, [1])
    assert compiled == []


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
    out, _ = run_computation(layout2, psi, layers, np.random.default_rng(0).choice((1, -1), 2).tolist())

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
        out, _ = run_computation(layout, psi, [layer], np.random.default_rng(seed).choice((1, -1), 10).tolist())
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
    out_a, _ = run_computation(layout, psi, partial, np.random.default_rng(1).choice((1, -1), 4).tolist())
    out_b, _ = run_computation(layout, psi, full, np.random.default_rng(2).choice((1, -1), 6).tolist())
    assert distance_up_to_phase(out_a, out_b) < 1e-12


def test_run_layer_final_keeps_register_decoded(layout2):
    rng = np.random.default_rng(9)
    psi = random_state(("1", "2"), rng)
    encoded = encode_input(layout2, psi)
    out, _ = run_layer(encoded, layout2, LayerParams(), [1], final=True)
    assert out.labels == ("1", "2")
    follow, _ = run_layer(encoded, layout2, LayerParams(), [1], final=False)
    assert follow.labels == ("1", "2", "(12)")


@pytest.mark.parametrize("entry", ["run_computation", "run_layer", "mb_decode", "run_schedule"])
def test_surplus_prescribed_outcomes_rejected(layout2, entry):
    psi = random_state(("1", "2"), np.random.default_rng(6))
    encoded = encode_input(layout2, psi)
    schedule = parity_engine._decode_schedule(layout2, encoded.labels, ["(12)"])
    # each run gives the outcome of its one measurement
    runs = {
        "run_computation": lambda outcomes: run_computation(layout2, psi, [LayerParams()], outcomes)[1][0][0].outcome,
        "run_layer": lambda outcomes: run_layer(encoded, layout2, LayerParams(), outcomes)[1][0].outcome,
        "mb_decode": lambda outcomes: mb_decode(encoded, layout2, ["(12)"], outcomes)[1][0].outcome,
        "run_schedule": lambda outcomes: run_schedule(schedule, encoded.amplitudes, [X_AXIS], outcomes)[1][0].outcome,
    }
    run = runs[entry]
    # a list of the wrong length, or a generator, is refused before any bra
    # is contracted or any fresh qubit's factors multiplied in; the valid
    # run that follows reads them
    with mock.patch.object(simulator, "_fresh_factors", wraps=simulator._fresh_factors) as factors:
        for outcomes in ([], [1, -1, 1, 1]):
            with pytest.raises(ValueError, match=f"^{len(outcomes)} prescribed outcome\\(s\\) for 1 measurement\\(s\\)$"):
                run(outcomes)
        with pytest.raises(TypeError, match="^outcomes must be a sequence of \\+/-1$"):
            run(np.random.default_rng(0))
        assert not factors.called
        assert run([-1]) == -1
    assert factors.called


def test_bad_second_layer_refused_before_anything_runs(layout2):
    psi = random_state(("1", "2"), np.random.default_rng(6))
    layers = [LayerParams(theta={"(12)": 0.3}), LayerParams(theta={"1": 0.1})]
    with mock.patch.object(simulator, "_fresh_factors", wraps=simulator._fresh_factors) as factors:
        with pytest.raises(ValueError, match="theta keys must be parity qubits"):
            run_computation(layout2, psi, layers, [1, -1])
        assert not factors.called
        run_computation(layout2, psi, layers[:1], [-1])
    assert factors.called
    # the all-branch run refuses it before it measures anything
    with mock.patch.object(simulator, "run_schedule_all", wraps=simulator.run_schedule_all) as measured:
        with pytest.raises(ValueError, match="theta keys must be parity qubits"):
            parity_engine.run_all_branches(layout2, psi, layers)
    assert not measured.called
    # a short list for two layers is refused before the first runs
    with mock.patch.object(simulator, "_run_checked", wraps=simulator._run_checked) as layer:
        with pytest.raises(ValueError, match="^1 prescribed outcome\\(s\\) for 2 measurement\\(s\\)$"):
            run_computation(layout2, psi, [LayerParams(), LayerParams()], [1])
        assert not layer.called
        run_computation(layout2, psi, [LayerParams(), LayerParams()], [1, -1])
    assert layer.call_count == 2


@pytest.mark.parametrize("key", ["theta", "alpha", "phi"])
@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_rejected(key, angle):
    qubit = "(12)" if key == "theta" else "1"
    with pytest.raises(ValueError, match=f"^{key}\\[{re.escape(repr(qubit))}\\] = {angle} is not a finite angle$"):
        LayerParams(**{key: {qubit: angle}})


def test_parity_rotations_build_no_gates():
    """A layer builds no `Gate`: its parity rotations are folded into the
    decode axes, and its data rotations are one 2x2 per rotated qubit."""
    layout = build_all_pairs_layout(3)
    psi = random_state(layout.data_qubits, np.random.default_rng(7))
    encoded = encode_input(layout, psi)
    rotations = LayerParams(theta={p: 0.3 + i for i, p in enumerate(layout.parity_qubits)})
    with_data = LayerParams(theta=rotations.theta, alpha={"1": 0.2}, phi={"1": 0.4, "2": -0.5})
    for params in (rotations, with_data):
        with mock.patch.object(Gate, "__post_init__", autospec=True, side_effect=Gate.__post_init__) as built:
            run_layer(encoded, layout, params, [1, -1, 1])
            run_computation(layout, psi, [params], [1, -1, 1])
            parity_engine.run_all_branches(layout, psi, [params])
        assert built.call_count == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_runs_stay_on_the_data_register(n):
    """Neither parity run encodes the input or appends a parity qubit: each
    decoded parity qubit is measured as it is encoded."""
    layout = build_all_pairs_layout(n)
    psi = random_state(layout.data_qubits, np.random.default_rng(n))
    first = sorted(layout.parity_qubits)[:1]
    layers = [
        LayerParams(theta={p: 0.4 for p in first}, phi={"1": 0.3}, decode=frozenset(first)),
        LayerParams(theta={p: -0.7 + 0.1 * i for i, p in enumerate(layout.parity_qubits)}, alpha={"2": 0.5}),
    ]
    outcomes = [1, -1] * len(layout.parity_qubits)
    with (
        mock.patch.object(parity_engine, "encode_input", wraps=encode_input) as encoded,
        mock.patch.object(
            simulator.BranchArray, "append_parities", autospec=True, side_effect=simulator.BranchArray.append_parities
        ) as appended,
    ):
        state, _ = run_computation(layout, psi, layers, outcomes[: 1 + len(layout.parity_qubits)])
        branches = parity_engine.run_all_branches(layout, psi, layers)
    assert not encoded.called and not appended.called
    assert state.labels == branches.labels == layout.data_qubits


def test_layer_params_validation(layout2):
    with pytest.raises(ValueError, match="theta"):
        LayerParams(theta={"1": 0.1}).validate(layout2)
    with pytest.raises(ValueError, match="alpha"):
        LayerParams(alpha={"(12)": 0.1}).validate(layout2)
    with pytest.raises(ValueError, match="decode"):
        LayerParams(decode=frozenset({"1"})).validate(layout2)


def test_alpha_on_a_still_encoded_data_qubit_rejected():
    layout = build_all_pairs_layout(3)
    stray = LayerParams(theta={"(12)": 0.9}, alpha={"1": 0.4}, decode=frozenset({"(12)"}))
    message = r"^alpha on data qubit '1', which parity qubit '\(13\)' outside the decode set tracks$"
    with pytest.raises(ValueError, match=message):
        stray.validate(layout)
    # both runs refuse it through the same check, before any measurement
    psi = basis_state(layout.data_qubits, "000")
    with pytest.raises(ValueError, match=message):
        run_computation(layout, psi, [stray, LayerParams()], [1] * 4)
    with pytest.raises(ValueError, match=message):
        parity_engine.run_all_branches(layout, psi, [stray, LayerParams()])
    # Z rotations commute with the encoding; decoding (13) too leaves qubit 1 decoded
    LayerParams(theta={"(12)": 0.9}, phi={"1": 0.4}, decode=frozenset({"(12)"})).validate(layout)
    LayerParams(theta={"(12)": 0.9}, alpha={"1": 0.4}, decode=frozenset({"(12)", "(13)"})).validate(layout)


def test_final_partial_decode_refused():
    """A run ends on the data register: a final layer's decode set, if
    given, is every parity qubit, and any other is refused, not widened."""
    layout = build_all_pairs_layout(3)
    psi = random_state(layout.data_qubits, np.random.default_rng(4))
    partial = LayerParams(theta={"(12)": 0.9}, decode=frozenset({"(12)"}))
    runs = [
        lambda: run_computation(layout, psi, [partial], [1, 1, 1]),
        lambda: parity_engine.run_all_branches(layout, psi, [partial]),
        lambda: parity_engine.measurement_count(layout, [partial]),
        lambda: run_layer(encode_input(layout, psi), layout, partial, [1], final=True),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="decode: the final layer must decode every parity qubit"):
            run()
    # the same set as a non-final layer is a partial decode
    run_computation(layout, psi, [partial, LayerParams()], [1, 1, 1, 1])
    # every parity qubit, given explicitly, is the default
    full = LayerParams(theta={"(12)": 0.9}, decode=frozenset(layout.parity_qubits))
    given, _ = run_computation(layout, psi, [full], [1, -1, 1])
    default, _ = run_computation(layout, psi, [LayerParams(theta={"(12)": 0.9})], [1, -1, 1])
    assert given.labels == default.labels
    assert np.array_equal(given.amplitudes, default.amplitudes)


def test_run_computation_requires_layers(layout2):
    with pytest.raises(ValueError, match="layer"):
        run_computation(layout2, basis_state(("1", "2"), "00"), [], [1])


@pytest.mark.parametrize("outcome", [True, False, np.True_], ids=["True", "False", "numpy_True"])
def test_prescribed_bool_outcomes_rejected(layout2, outcome):
    with pytest.raises(ValueError, match="must be \\+/-1"):
        run_computation(layout2, basis_state(("1", "2"), "00"), [LayerParams()], [outcome])


def test_prescribed_numpy_outcomes_recorded_as_int(layout2):
    psi = random_state(("1", "2"), np.random.default_rng(4))
    _, records = run_computation(layout2, psi, [LayerParams(theta={"(12)": 0.3})], [np.int64(-1)])
    [[entry]] = records
    assert type(entry.outcome) is int and entry.outcome == -1
    assert '"outcome": -1' in _canonical_json(record_to_json(records[0]))


def test_layers_json_round_trip():
    layers = [
        LayerParams(theta={"(12)": 0.5}, alpha={"1": -0.25}, phi={"2": 3.0}),
        LayerParams(decode=frozenset({"(13)"})),
    ]
    again = layers_from_json(layers_to_json(layers))
    assert again == layers
