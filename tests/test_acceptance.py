"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criteria 6-8 share a single exhaustive sweep over all connected graphs with
up to seven vertices, executed once per session.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from parityflow.gflow import (
    canonical_yz_gflow,
    verify_gflow,
    witness_structure,
    yz_bipartite_sweep,
    yz_planes,
)
from parityflow.layout import build_all_pairs_layout, hadamard, induced_graph
from parityflow import mbqc_engine, parity_engine
from parityflow.mbqc_engine import run_repeated_mbqc, prepare_graph_state
from parityflow.parity_engine import (
    LayerParams,
    encode_input,
    mb_decode,
    run_computation,
    unitary_decode,
)
from parityflow.pauli import graph_generators, groups_equal, hadamard_conjugate, parity_generators
from parityflow.simulator import (
    Statevector,
    apply_circuit,
    basis_state,
    distance_up_to_phase,
    distances_up_to_phase,
    outcome_probability,
    project,
    random_state,
)

SWEEP_MAX_N = 7
SWEEP_IO_SAMPLES = 200
SWEEP_BUDGET_SECONDS = 600


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


@pytest.fixture(scope="session")
def sweep():
    start = time.time()
    report = yz_bipartite_sweep(
        SWEEP_MAX_N, io_samples=SWEEP_IO_SAMPLES, seed=0, keep_witnesses=True
    )
    return report, time.time() - start


def random_layers(layout, rng, count):
    return [
        LayerParams(
            theta={p: rng.uniform(-np.pi, np.pi) for p in layout.parity_qubits},
            alpha={q: rng.uniform(-np.pi, np.pi) for q in layout.data_qubits},
            phi={q: rng.uniform(-np.pi, np.pi) for q in layout.data_qubits},
        )
        for _ in range(count)
    ]


def test_criterion_1_code_equivalence_exact():
    with criterion(1, "parity code equals conjugated graph code, n=2..5"):
        start = time.time()
        for n in range(2, 6):
            layout = build_all_pairs_layout(n)
            parity_group = parity_generators(layout)
            conjugated = hadamard_conjugate(
                graph_generators(induced_graph(layout)), layout.parity_qubits
            )
            assert groups_equal(parity_group, conjugated)
        assert time.time() - start < 1.0


def test_criterion_2_graph_state_identity():
    with criterion(2, "Hadamard layer maps graph state to encoded state, n=2..5"):
        start = time.time()
        rng = np.random.default_rng(20)
        for n in range(2, 6):
            layout = build_all_pairs_layout(n)
            graph = induced_graph(layout)
            hadamards = [hadamard(p) for p in layout.parity_qubits]
            for _ in range(20):
                psi = random_state(layout.data_qubits, rng)
                graph_side = apply_circuit(prepare_graph_state(graph, psi), hadamards)
                encoded = encode_input(layout, psi)
                assert distance_up_to_phase(graph_side, encoded) < 1e-12
        assert time.time() - start < 30.0


def assert_strongly_deterministic(branches, reference, tol):
    """Every outcome branch is reachable and lands on the reference state,
    and every Born probability on every branch is 1/2."""
    assert branches.reachable.all()
    assert branches.labels == reference.labels
    assert distances_up_to_phase(branches.amplitudes, reference.amplitudes).max() < tol
    assert np.all(np.abs(branches.probabilities - 0.5) < 1e-12)


def criterion_3_programs():
    """Criterion 3's programs, in its order: on all-pairs layouts n = 2..4,
    ten random inputs with one, two and three random layers each, with the
    induced graph, its canonical flow and the measurement count."""
    rng = np.random.default_rng(30)
    for n in (2, 3, 4):
        layout = build_all_pairs_layout(n)
        graph = induced_graph(layout)
        flow = canonical_yz_gflow(graph)
        for layer_count in (1, 2, 3):
            for _ in range(10):
                psi = random_state(layout.data_qubits, rng)
                layers = random_layers(layout, rng, layer_count)
                yield layout, graph, flow, psi, layers, len(layout.parity_qubits) * layer_count


def test_criterion_3_cross_engine_equivalence():
    with criterion(3, "parity and measurement-based engines agree over branches"):
        for layout, graph, flow, psi, layers, measured in criterion_3_programs():
            reference, _ = run_computation(layout, psi, layers, [1] * measured)
            if measured <= 8:
                # every branch of both engines, each in one array
                for branches in (
                    parity_engine.run_all_branches(layout, psi, layers),
                    mbqc_engine.run_all_branches(graph, psi, layers, flow),
                ):
                    assert branches.probabilities.shape == (2**measured, measured)
                    assert_strongly_deterministic(branches, reference, 1e-10)
                continue
            # sampled branches, one per-branch run each
            for k in range(26):
                out, records = run_computation(layout, psi, layers, np.random.default_rng(1000 + k))
                assert distance_up_to_phase(out, reference) < 1e-10
                assert all(abs(e.probability - 0.5) < 1e-12 for r in records for e in r)
                out, records = run_repeated_mbqc(graph, psi, layers, flow, np.random.default_rng(2000 + k))
                assert distance_up_to_phase(out, reference) < 1e-10
                assert all(abs(e.probability - 0.5) < 1e-12 for r in records for e in r)


def test_claim_1_per_measurement():
    """Claim 1 measurement by measurement, on every outcome branch of
    criterion 3's all-branch programs: parity record entry j measures the
    same qubit, with the same outcome and Born probability, as MBQC record
    entry j, along the Hadamard image (z, -y, x) of its YZ axis."""
    entries = 0
    for layout, graph, flow, psi, layers, measured in criterion_3_programs():
        if measured > 8:
            continue
        parity = parity_engine.run_all_branches(layout, psi, layers)
        mbqc = mbqc_engine.run_all_branches(graph, psi, layers, flow)
        for row in range(2**measured):
            parity_entries = [e for record in parity.records(row) for e in record]
            mbqc_entries = [e for record in mbqc.records(row) for e in record]
            for p, m in zip(parity_entries, mbqc_entries, strict=True):
                assert (p.qubit, p.outcome) == (m.qubit, m.outcome)
                assert abs(p.probability - m.probability) <= 1e-14
                x, y, z = m.axis
                assert p.axis == (z, -y, x)
                entries += 1
    assert entries == 8260


def test_criterion_4_decoding_equivalence():
    with criterion(4, "measurement-based decode equals CNOT-reversal decode"):
        rng = np.random.default_rng(40)
        states = 0
        for trial in range(34):
            for n in (2, 3, 4):
                layout = build_all_pairs_layout(n)
                psi = random_state(layout.data_qubits, rng)
                encoded = encode_input(layout, psi)
                reference = unitary_decode(encoded, layout)
                outcomes = [1 if rng.random() < 0.5 else -1 for _ in layout.parity_qubits]
                for branch in (outcomes, [-o for o in outcomes]):
                    decoded, _ = mb_decode(encoded, layout, layout.parity_qubits, list(branch))
                    assert distance_up_to_phase(decoded, reference) < 1e-12
                states += 1
        assert states >= 100


def test_criterion_5_logical_gate_identities():
    with criterion(5, "local parity rotations implement logical gates"):
        layout = build_all_pairs_layout(2)
        rng = np.random.default_rng(50)
        zz = np.array([1, -1, -1, 1])
        for theta in rng.uniform(-np.pi, np.pi, size=20):
            psi = random_state(("1", "2"), rng)
            out, _ = run_computation(layout, psi, [LayerParams(theta={"(12)": theta})], [1])
            expected = Statevector(psi.labels, np.exp(-0.5j * theta * zz) * psi.amplitudes)
            assert distance_up_to_phase(out, expected) < 1e-12
        cz_diag = np.array([1, 1, 1, -1])
        for _ in range(5):
            psi = random_state(("1", "2"), rng)
            layer = LayerParams(theta={"(12)": -np.pi / 2}, phi={"1": np.pi / 2, "2": np.pi / 2})
            out, _ = run_computation(layout, psi, [layer], [1])
            direct = Statevector(psi.labels, cz_diag * psi.amplitudes)
            assert distance_up_to_phase(out, direct) < 1e-10


def test_criterion_6_flow_existence_iff_bipartite(sweep):
    with criterion(6, "YZ flow exists iff the prepared graph is bipartite with I a side"):
        report, elapsed = sweep
        assert elapsed <= SWEEP_BUDGET_SECONDS
        assert report.max_n == SWEEP_MAX_N
        expected_counts = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
        for n, count in expected_counts.items():
            assert report.per_n[n]["graphs"] == count
            assert report.per_n[n]["instances"] == count * 2**n
            assert report.per_n[n]["flows_found"] == report.per_n[n]["bipartite_instances"]
        assert report.discrepancies == []


def test_criterion_7_flow_structure(sweep):
    with criterion(7, "no flow when I != O; witnesses self-correct maximally, union spans no edge"):
        report, _ = sweep
        assert report.io_mismatch_cases >= 200
        assert report.io_mismatch_flows_found == 0
        assert report.witness_failures == []
        assert report.witnesses
        for graph, flow in report.witnesses:
            structure = witness_structure(flow, graph)
            assert structure.maximal_self_corrections
            assert structure.no_edges_in_correction_union


def _determinism_case(graph, flow, angles, psi):
    """Every branch of the default order and of the order reversed within
    each flow layer lands on one state, with every Born probability 1/2.
    With at most one measured vertex per layer the two orders coincide and
    run once."""
    default_order = []
    reverse_order = []
    for layer in flow.layers:
        default_order.extend(sorted(v for v in layer if v in flow.g))
        reverse_order.extend(sorted((v for v in layer if v in flow.g), reverse=True))
    orders = [default_order] if reverse_order == default_order else [default_order, reverse_order]
    layers = [LayerParams(theta=angles)]
    runs = [mbqc_engine.run_all_branches(graph, psi, layers, flow, order=order) for order in orders]
    reference = runs[0].state(0)
    for branches in runs:
        assert branches.probabilities.shape == (2 ** len(flow.g), len(flow.g))
        assert_strongly_deterministic(branches, reference, 1e-12)


def test_criterion_8_outcome_and_order_independence(sweep):
    with criterion(8, "all outcome branches and measurement orders agree"):
        rng = np.random.default_rng(80)
        # flows driving the cross-engine runs, at most 4 measured vertices
        for n in (2, 3):
            layout = build_all_pairs_layout(n)
            graph = induced_graph(layout)
            flow = canonical_yz_gflow(graph)
            angles = {p: rng.uniform(-np.pi, np.pi) for p in layout.parity_qubits}
            psi = random_state(layout.data_qubits, rng)
            _determinism_case(graph, flow, angles, psi)
        # every sweep witness with at most 4 measured vertices
        report, _ = sweep
        checked = 0
        for graph, flow in report.witnesses:
            if len(flow.g) > 4:
                continue
            angles = {v: rng.uniform(-np.pi, np.pi) for v in flow.g}
            psi = random_state(tuple(sorted(graph.inputs)), rng)
            _determinism_case(graph, flow, angles, psi)
            checked += 1
        assert checked > 0


def test_criterion_9_simulator_properties():
    with criterion(9, "norm preservation, Born sums, projector idempotence"):
        from parityflow.layout import cnot, cz, rx, rz

        rng = np.random.default_rng(90)
        cases = 0
        for _ in range(350):  # norm preservation over random circuits
            labels = tuple(f"q{i}" for i in range(int(rng.integers(2, 5))))
            state = random_state(labels, rng)
            gates = []
            for _ in range(10):
                q = labels[rng.integers(len(labels))]
                kind = rng.integers(5)
                if kind == 0:
                    gates.append(hadamard(q))
                elif kind == 1:
                    gates.append(rz(q, rng.uniform(-np.pi, np.pi)))
                elif kind == 2:
                    gates.append(rx(q, rng.uniform(-np.pi, np.pi)))
                else:
                    r = labels[rng.integers(len(labels))]
                    if r != q:
                        gates.append(cnot(q, r) if kind == 3 else cz(q, r))
            out = apply_circuit(state, gates)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
            cases += 1
        for _ in range(350):  # Born probabilities sum to one
            labels = ("a", "b", "c")
            state = random_state(labels, rng)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            q = labels[rng.integers(3)]
            total = outcome_probability(state, q, axis, 1) + outcome_probability(state, q, axis, -1)
            assert total == pytest.approx(1.0, abs=1e-12)
            cases += 1
        for _ in range(350):  # projector idempotence
            labels = ("a", "b")
            state = random_state(labels, rng)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            outcome = 1 if rng.random() < 0.5 else -1
            q = labels[rng.integers(2)]
            prob = outcome_probability(state, q, axis, outcome)
            if prob < 1e-9:
                continue
            _, once = project(state, q, axis, outcome)
            prob2, twice = project(once, q, axis, outcome)
            assert prob2 == pytest.approx(1.0, abs=1e-12)
            assert distance_up_to_phase(once, twice) < 1e-12
            cases += 1
        assert cases >= 1000
