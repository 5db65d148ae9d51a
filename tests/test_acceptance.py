"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criteria 6-8 share a single exhaustive sweep over all connected graphs with
up to seven vertices, executed once per session.
"""

import dataclasses
import hashlib
import json
import os
import time
from contextlib import contextmanager

import gflow_helpers as reference
import numpy as np
import pytest
from hypothesis import given, settings
from parity_helpers import claim_1_mismatch, claim_1_runs, phase_polynomial
from test_properties import parity_layouts

from parityflow.gflow import (
    canonical_yz_gflow,
    flow_to_json,
    measurement_order,
    verify_gflow,
    witness_structure,
    yz_bipartite_sweep,
    yz_planes,
)
from parityflow.layout import build_all_pairs_layout, hadamard, induced_graph
from parityflow import mbqc_engine, parity_engine
from parityflow.mbqc_engine import run_repeated_mbqc, prepare_graph_state, yz_axis
from parityflow.parity_engine import (
    LayerParams,
    xy_axis,
    encode_input,
    mb_decode,
    run_computation,
    unitary_decode,
)
from parityflow.pauli import graph_generators, groups_equal, hadamard_conjugate, parity_generators
from parityflow.simulator import (
    _CNOT_JOIN,
    _CZ_JOIN,
    Statevector,
    _fresh_factors,
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
                outcomes = np.random.default_rng(1000 + k).choice((1, -1), measured).tolist()
                out, records = run_computation(layout, psi, layers, outcomes)
                assert distance_up_to_phase(out, reference) < 1e-10
                assert all(abs(e.probability - 0.5) < 1e-12 for r in records for e in r)
                outcomes = np.random.default_rng(2000 + k).choice((1, -1), measured).tolist()
                out, records = run_repeated_mbqc(graph, psi, layers, flow, outcomes)
                assert distance_up_to_phase(out, reference) < 1e-10
                assert all(abs(e.probability - 0.5) < 1e-12 for r in records for e in r)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_sampled_runs_past_the_encoded_register_cap_match_the_phase_polynomial(n):
    """All-pairs n = 6..8 hold 21 to 36 qubits encoded but run on their n
    data qubits: sampled branches of both engines, with one and two random
    layers, land on the phase polynomial within criterion 3's bounds."""
    rng = np.random.default_rng(60 + n)
    layout = build_all_pairs_layout(n)
    graph = induced_graph(layout)
    flow = canonical_yz_gflow(graph)
    for layer_count in (1, 2):
        psi = random_state(layout.data_qubits, rng)
        layers = random_layers(layout, rng, layer_count)
        expected = phase_polynomial(layout, psi, layers)
        measured = len(layout.parity_qubits) * layer_count
        for _ in range(4):
            for out, records in (
                run_computation(layout, psi, layers, rng.choice((1, -1), measured).tolist()),
                run_repeated_mbqc(graph, psi, layers, flow, rng.choice((1, -1), measured).tolist()),
            ):
                assert distance_up_to_phase(out, expected) < 1e-10
                assert all(abs(e.probability - 0.5) < 1e-12 for r in records for e in r)


def paired_entries(parity_records, mbqc_records):
    """Claim 1 measurement by measurement, layer by layer: each parity
    record entry measures a qubit with the same outcome and Born
    probability as the MBQC record entry of that qubit, along the Hadamard
    image (z, -y, x) of its YZ axis. Returns how many entries it paired."""
    entries = 0
    for parity_record, mbqc_record in zip(parity_records, mbqc_records, strict=True):
        by_qubit = {m.qubit: m for m in mbqc_record}
        assert sorted(by_qubit) == sorted(p.qubit for p in parity_record)
        for p in parity_record:
            m = by_qubit[p.qubit]
            assert p.outcome == m.outcome
            assert abs(p.probability - m.probability) <= 1e-14
            x, y, z = m.axis
            assert p.axis == (z, -y, x)
            entries += 1
    return entries


def test_claim_1_per_measurement():
    """`paired_entries` on every outcome branch of criterion 3's all-branch
    programs, and on one sampled all-pairs n = 10 program with outcomes
    assigned per qubit. At n = 10 the engines measure in different orders:
    the parity engine in layout order, the MBQC engine sorted, "(110)"
    first."""
    entries = 0
    for layout, graph, flow, psi, layers, measured in criterion_3_programs():
        if measured > 8:
            continue
        parity = parity_engine.run_all_branches(layout, psi, layers)
        mbqc = mbqc_engine.run_all_branches(graph, psi, layers, flow)
        for row in range(2**measured):
            entries += paired_entries(parity.records(row), mbqc.records(row))
    assert entries == 8260
    layout = build_all_pairs_layout(10)
    graph = induced_graph(layout)
    flow = canonical_yz_gflow(graph)
    rng = np.random.default_rng(31)
    psi = random_state(layout.data_qubits, rng)
    layers = random_layers(layout, rng, 2)
    order = measurement_order(graph, flow)
    assert order[0] == "(110)" and order != layout.parity_qubits
    assigned = [{p: int(rng.choice((1, -1))) for p in layout.parity_qubits} for _ in layers]
    _, parity_records = run_computation(layout, psi, layers, [a[p] for a in assigned for p in layout.parity_qubits])
    _, mbqc_records = run_repeated_mbqc(graph, psi, layers, flow, [a[v] for a in assigned for v in order])
    assert paired_entries(parity_records, mbqc_records) == 2 * 45


def test_claim_1_on_the_compiled_runs():
    """Claim 1 on the objects the engines run, with no statevector: on
    all-pairs n = 2..32, 48, 64, 80, 96 and 111, the parity engine's decode
    and the MBQC run of the induced graph are the same steps
    (`claim_1_mismatch`), and the factor rows those steps read, rows 6-7
    of the XY axis's and rows 2-3 of the YZ axis's, differ by one unit
    phase at every sampled angle: both maps are exp(-i theta/2 Z_S) up to
    phase."""
    for n in [*range(2, 33), 48, 64, 80, 96, 111]:
        parity, mbqc = claim_1_runs(build_all_pairs_layout(n))
        assert len(parity.qubits) == n * (n - 1) // 2
        assert claim_1_mismatch(parity, mbqc) is None, n
    rng = np.random.default_rng(14)
    for theta in [0.0, np.pi / 2, np.pi, -np.pi, *rng.uniform(-np.pi, np.pi, 50)]:
        ratio = _fresh_factors(xy_axis(theta))[6:8] / _fresh_factors(yz_axis(theta))[2:4]
        assert abs(abs(ratio[0, 0]) - 1.0) < 1e-14
        assert np.abs(ratio - ratio[0, 0]).max() < 1e-14


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(parity_layouts())
def test_claim_1_on_the_compiled_runs_of_drawn_layouts(layout):
    assert claim_1_mismatch(*claim_1_runs(layout)) is None


def replace_step(schedule, j, step):
    return dataclasses.replace(schedule, steps=schedule.steps[:j] + (step,) + schedule.steps[j + 1 :])


def test_claim_1_comparison_fails_on_a_mutated_step():
    """The structural comparison cannot pass vacuously: one bit of one
    parity step's mask flipped, or one step's row swapped for the other
    join's, fails it, and the failure names the qubit."""
    parity, mbqc = claim_1_runs(build_all_pairs_layout(4))
    assert claim_1_mismatch(parity, mbqc) is None
    j = 2
    q = parity.qubits[j]
    kind, mask, row, xmask, zmask = parity.steps[j]
    twin = mbqc.qubits.index(q)
    mutants = [
        (replace_step(parity, j, (kind, mask ^ 1, row, xmask, zmask)), mbqc),
        (replace_step(parity, j, (kind, mask, _CZ_JOIN + 2, xmask, zmask)), mbqc),
        (parity, replace_step(mbqc, twin, (kind, mask, _CNOT_JOIN + 2, xmask, zmask))),
    ]
    for mutant in mutants:
        assert claim_1_mismatch(*mutant).startswith(f"qubit {q!r}:")


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


def test_sweep_witnesses_are_pinned(sweep):
    # every kept n <= 7 witness, in sweep order, whatever route builds it
    report, _ = sweep
    witnesses = [
        [sorted(g.edges), sorted(g.inputs), flow_to_json(f), sorted(f.precedence)]
        for g, f in report.witnesses
    ]
    assert len(witnesses) == 20838
    digest = hashlib.sha256(json.dumps(witnesses).encode()).hexdigest()
    assert digest == "0ec66b8c080c6430f98487c44b140db811124635203030786c3c2cf9109cdfb3"


def test_sweep_witnesses_share_one_flow_per_distinct_flow_in_a_batch(sweep):
    # serially one batch per n; in a worker pool, eight graphs per task
    report, _ = sweep
    objects, contents = reference.flows_by_batch(report.witnesses, 8)
    assert {batch: len(ids) for batch, ids in objects.items()} == {
        batch: len(flows) for batch, flows in contents.items()
    }
    assert len(set().union(*contents.values())) == 2936
    if (os.cpu_count() or 1) == 1:  # the fixture ran serially
        assert len({id(flow) for _, flow in report.witnesses}) == 2936


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
