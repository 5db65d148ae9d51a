"""Measurement-based engine: graph states, YZ runs, layered repetition."""

import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from gflow_helpers import flow_content
from test_branches import chained_flow, witnesses

from parityflow import mbqc_engine, parity_engine, simulator
from parityflow.gflow import GFlow, canonical_yz_gflow, search_gflow_yz, verify_gflow, yz_bipartite_sweep, yz_planes
from parityflow.graph import make_graph, odd_neighborhood, with_io
from parityflow.layout import build_all_pairs_layout, hadamard, induced_graph
from parityflow.mbqc_engine import (
    prepare_graph_state,
    run_mbqc_yz,
    run_repeated_mbqc,
    yz_axis,
)
from parityflow.parity_engine import (
    LayerParams,
    all_outcome_branches,
    encode_input,
    run_computation,
)
from parityflow.simulator import (
    Statevector,
    apply_circuit,
    basis_state,
    compile_plan,
    distance_up_to_phase,
    random_state,
    run_schedule,
)


def p3_graph():
    return make_graph(["1", "c", "2"], [("1", "c"), ("c", "2")], ["1", "2"], ["1", "2"])


def test_prepare_graph_state_zero_inputs():
    g = p3_graph()
    out = prepare_graph_state(g, basis_state(("1", "2"), "00"))
    # CZ controls sit on |0>, so the middle vertex stays |+>
    assert out.labels == ("1", "2", "c")
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[1] = 1 / np.sqrt(2)
    assert np.allclose(out.amplitudes, expected)


def test_prepare_graph_state_single_vertex():
    g = make_graph(["1"], [], ["1"], ["1"])
    psi = basis_state(("1",), "1")
    out = prepare_graph_state(g, psi)
    assert np.allclose(out.amplitudes, psi.amplitudes)


def test_prepare_graph_state_label_mismatch():
    with pytest.raises(ValueError, match="inputs"):
        prepare_graph_state(p3_graph(), basis_state(("a", "b"), "00"))


def test_prepare_graph_state_enforces_qubit_cap():
    vertices = [str(i) for i in range(17)]
    g = make_graph(vertices, [("0", v) for v in vertices[1:]], ["0"], ["0"])
    with pytest.raises(ValueError, match="17 qubits exceeds cap 16"):
        prepare_graph_state(g, basis_state(("0",), "0"))


def test_a_register_built_from_a_list_of_labels_runs_through_both_engines():
    """Statevector keeps its labels as a tuple, so a list matches the data
    qubits a parity run checks and keys the compiled MBQC run as a tuple
    does."""
    layout = build_all_pairs_layout(2)
    graph = induced_graph(layout)
    flow = canonical_yz_gflow(graph)
    amplitudes = random_state(("1", "2"), np.random.default_rng(3)).amplitudes
    listed, tupled = Statevector(["1", "2"], amplitudes), Statevector(("1", "2"), amplitudes)
    assert listed.labels == ("1", "2")
    layers = [LayerParams(theta={"(12)": 0.7})]
    parity = [run_computation(layout, psi, layers, [-1])[0] for psi in (listed, tupled)]
    mbqc = [run_mbqc_yz(graph, psi, {"(12)": 0.7}, flow, [-1])[0] for psi in (listed, tupled)]
    for a, b in (parity, mbqc):
        assert np.array_equal(a.amplitudes, b.amplitudes)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hadamard_on_graph_state_equals_encoding(n):
    layout = build_all_pairs_layout(n)
    graph = induced_graph(layout)
    rng = np.random.default_rng(n)
    psi = random_state(layout.data_qubits, rng)
    graph_side = apply_circuit(
        prepare_graph_state(graph, psi), [hadamard(p) for p in layout.parity_qubits]
    )
    assert distance_up_to_phase(graph_side, encode_input(layout, psi)) < 1e-12


def test_single_yz_measurement_equals_parity_layer():
    layout = build_all_pairs_layout(2)
    graph = induced_graph(layout)
    flow = canonical_yz_gflow(graph)
    rng = np.random.default_rng(0)
    theta = 1.137
    psi = random_state(("1", "2"), rng)
    mbqc_out, _ = run_mbqc_yz(graph, psi, {"(12)": theta}, flow, [1])
    parity_out, _ = run_computation(layout, psi, [LayerParams(theta={"(12)": theta})], [1])
    assert distance_up_to_phase(mbqc_out, parity_out) < 1e-10


def test_zero_angles_decode_only():
    layout = build_all_pairs_layout(3)
    graph = induced_graph(layout)
    flow = canonical_yz_gflow(graph)
    rng = np.random.default_rng(1)
    psi = random_state(layout.data_qubits, rng)
    out, _ = run_mbqc_yz(graph, psi, {p: 0.0 for p in layout.parity_qubits}, flow, [1, 1, 1])
    assert distance_up_to_phase(out, psi) < 1e-12


def test_branch_independence_exhaustive():
    layout = build_all_pairs_layout(3)
    graph = induced_graph(layout)
    flow = canonical_yz_gflow(graph)
    rng = np.random.default_rng(2)
    psi = random_state(layout.data_qubits, rng)
    angles = {p: rng.uniform(-np.pi, np.pi) for p in layout.parity_qubits}
    outputs = []
    for branch in all_outcome_branches(3):
        out, record = run_mbqc_yz(graph, psi, angles, flow, list(branch))
        assert [e.outcome for e in record] == list(branch)
        outputs.append(out)
    for other in outputs[1:]:
        assert distance_up_to_phase(outputs[0], other) < 1e-12


def test_nonsingleton_flow_corrections():
    # C4 with I=O={1,3} admits g(2)={2,4}, exercising the X byproduct at 4
    c4 = make_graph(
        ["1", "2", "3", "4"],
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")],
        ["1", "3"],
        ["1", "3"],
    )
    flow = GFlow(
        g={"2": frozenset({"2", "4"}), "4": frozenset({"4"})},
        precedence=frozenset({("2", "4"), ("2", "1"), ("2", "3"), ("4", "1"), ("4", "3")}),
        layers=(frozenset({"2"}), frozenset({"4"}), frozenset({"1", "3"})),
    )
    rng = np.random.default_rng(3)
    psi = random_state(("1", "3"), rng)
    angles = {"2": 0.8, "4": -0.5}
    outputs = []
    for branch in all_outcome_branches(2):
        out, _ = run_mbqc_yz(c4, psi, angles, flow, list(branch))
        outputs.append(out)
    canonical = canonical_yz_gflow(c4)
    reference, _ = run_mbqc_yz(c4, psi, angles, canonical, [1, 1])
    for out in outputs:
        assert distance_up_to_phase(out, reference) < 1e-12


def test_linear_extensions_agree():
    layout = build_all_pairs_layout(3)
    graph = induced_graph(layout)
    flow = canonical_yz_gflow(graph)
    rng = np.random.default_rng(4)
    psi = random_state(layout.data_qubits, rng)
    angles = {p: rng.uniform(-np.pi, np.pi) for p in layout.parity_qubits}
    orders = [
        ["(12)", "(13)", "(23)"],
        ["(23)", "(12)", "(13)"],
        ["(13)", "(23)", "(12)"],
    ]
    outputs = [
        run_mbqc_yz(graph, psi, angles, flow, [1, 1, 1], order=order)[0] for order in orders
    ]
    for other in outputs[1:]:
        assert distance_up_to_phase(outputs[0], other) < 1e-12


def test_order_violating_flow_rejected():
    g = with_io(make_graph(["1", "2", "3"], [("1", "2"), ("2", "3")]), ["1"], ["3"])
    flow = search_gflow_yz(g)
    assert flow is None  # nothing to run; inputs differ from outputs


def test_invalid_flow_rejected_before_simulation():
    graph = induced_graph(build_all_pairs_layout(2))
    bad = GFlow(
        g={"(12)": frozenset()},  # violates the YZ condition v in g(v)
        precedence=frozenset(),
        layers=(frozenset({"(12)"}), frozenset({"1", "2"})),
    )
    with pytest.raises(ValueError, match="invalid flow"):
        run_mbqc_yz(graph, basis_state(("1", "2"), "00"), {"(12)": 0.3}, bad, [1])


def test_flow_verified_once_per_graph_object(monkeypatch):
    checked = []
    real_verify = mbqc_engine.verify_gflow

    def counting_verify(graph, planes, flow):
        checked.append(graph)
        return real_verify(graph, planes, flow)

    monkeypatch.setattr(mbqc_engine, "verify_gflow", counting_verify)
    base = make_graph(list("123456"), [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"), ("6", "1")])
    g = with_io(base, ["1", "3", "5"], ["1", "3", "5"])
    flow = search_gflow_yz(g)
    assert flow is not None
    psi = random_state(("1", "3", "5"), np.random.default_rng(6))
    angles = {v: 0.3 * k for k, v in enumerate(sorted(flow.g))}
    for branch in all_outcome_branches(len(flow.g)):
        run_mbqc_yz(g, psi, angles, flow, branch)
    assert checked == [g]
    # an equal graph is still another object: it is verified on its own
    twin = with_io(base, ["1", "3", "5"], ["1", "3", "5"])
    assert twin == g and twin is not g
    run_mbqc_yz(twin, psi, angles, flow, [1] * len(flow.g))
    run_mbqc_yz(g, psi, angles, flow, [1] * len(flow.g))
    assert len(checked) == 2 and checked[1] is twin

    # failure is never remembered: an invalid flow is checked, and raises, every time
    graph = induced_graph(build_all_pairs_layout(2))
    bad = GFlow(
        g={"(12)": frozenset()},
        precedence=frozenset(),
        layers=(frozenset({"(12)"}), frozenset({"1", "2"})),
    )
    for attempt in range(3):
        with pytest.raises(ValueError, match="invalid flow"):
            run_mbqc_yz(graph, basis_state(("1", "2"), "00"), {"(12)": 0.3}, bad, [1])
        assert len(checked) == 3 + attempt


def c4_flow():
    """C4 with I = O = {1, 3} and g(2) = {2, 4}: 2 must precede 4."""
    c4 = make_graph(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")], ["1", "3"], ["1", "3"])
    flow = GFlow(
        g={"2": frozenset({"2", "4"}), "4": frozenset({"4"})},
        precedence=frozenset({("2", "4"), ("2", "1"), ("2", "3"), ("4", "1"), ("4", "3")}),
        layers=(frozenset({"2"}), frozenset({"4"}), frozenset({"1", "3"})),
    )
    return c4, flow


def counting_compiles(monkeypatch) -> list:
    compiled = []
    real_compile = mbqc_engine._compile

    def counting(g, flow, labels, order):
        compiled.append((g, labels, order))
        return real_compile(g, flow, labels, order)

    monkeypatch.setattr(mbqc_engine, "_compile", counting)
    return compiled


def test_each_run_compiled_once_per_graph_object_label_order_and_order(monkeypatch):
    compiled = counting_compiles(monkeypatch)
    c4, flow = c4_flow()
    angles = {"2": 0.8, "4": -0.5}
    rng = np.random.default_rng(7)
    keys = [(labels, order) for labels in (("1", "3"), ("3", "1")) for order in (None, ("2", "4"))]
    for labels, order in keys:
        psi = random_state(labels, rng)
        for branch in all_outcome_branches(2):
            run_mbqc_yz(c4, psi, angles, flow, branch, order=order)
    assert compiled == [(c4, labels, order) for labels, order in keys]
    [(seen, table)] = mbqc_engine._RUNS[flow]
    assert seen is c4 and list(table) == keys

    # failures are never stored: each call checks, compiles and raises again
    psi = random_state(("1", "3"), rng)
    for attempt in range(3):
        with pytest.raises(ValueError, match="order violates"):
            run_mbqc_yz(c4, psi, angles, flow, [1, 1], order=["4", "2"])
        assert compiled[len(keys) :] == [(c4, ("1", "3"), ("4", "2"))] * (attempt + 1)
    assert list(table) == keys
    graph = induced_graph(build_all_pairs_layout(2))
    bad = GFlow(g={"(12)": frozenset()}, precedence=frozenset(), layers=(frozenset({"(12)"}), frozenset({"1", "2"})))
    for _ in range(3):
        with pytest.raises(ValueError, match="invalid flow"):
            run_mbqc_yz(graph, basis_state(("1", "2"), "00"), {"(12)": 0.3}, bad, [1])
    assert bad not in mbqc_engine._RUNS and len(compiled) == len(keys) + 3


def test_compiled_runs_match_runs_compiled_on_every_call(monkeypatch):
    # every n <= 5 sweep witness on every branch, in two input label orders
    # and two measurement orders, against a schedule compiled on every call
    # and run on a freshly prepared graph state, with the correction rule
    # read off the flow: within 1e-13, records included
    compiled = counting_compiles(monkeypatch)
    rng = np.random.default_rng(8)
    runs = 0
    # built once: the asserts on `_RUNS` below need each pair to stay one object
    witnesses = list(yz_bipartite_sweep(5, io_samples=0, workers=1).witnesses)
    for g, flow in witnesses:
        measured = sorted(flow.g)
        angles = {v: float(rng.uniform(-np.pi, np.pi)) for v in measured}
        default = [v for layer in flow.layers for v in sorted(layer & set(measured))]
        reverse = [v for layer in flow.layers for v in sorted(layer & set(measured), reverse=True)]

        def correct(v, flow=flow, g=g):
            return flow.g[v] - {v}, odd_neighborhood(g, flow.g[v]) - {v}

        inputs = tuple(sorted(g.inputs))
        label_orders = dict.fromkeys([inputs, inputs[::-1]])
        before = len(compiled)
        for labels in label_orders:
            psi = random_state(labels, rng)
            for order, sequence in ((None, default), (reverse, reverse)):
                axes = [yz_axis(angles[v]) for v in sequence]
                for branch in all_outcome_branches(len(measured)):
                    out, record = run_mbqc_yz(g, psi, angles, flow, branch, order=order)
                    prepared = prepare_graph_state(g, psi)
                    schedule = compile_plan(prepared.labels, sequence, correct)
                    expected, expected_record = run_schedule(
                        schedule, prepared.amplitudes, axes, branch
                    )
                    # the compiled run measures each vertex as it is prepared,
                    # so it rounds differently from the full-register route
                    assert out.labels == expected.labels
                    assert np.abs(out.amplitudes - expected.amplitudes).max() <= 1e-13
                    assert [(e.qubit, e.axis, e.outcome) for e in record] == [
                        (e.qubit, e.axis, e.outcome) for e in expected_record
                    ]
                    for entry, twin in zip(record, expected_record):
                        assert abs(entry.probability - twin.probability) <= 1e-13
                    runs += 1
        assert [seen is g for seen, _ in mbqc_engine._RUNS[flow]].count(True) == 1
        assert len(compiled) - before == 2 * len(label_orders)
    assert runs == 3174
    # an equal graph is another object: the same flow compiles again on it
    g, flow = next((g, f) for g, f in witnesses if len(f.g) >= 2)
    twin = with_io(g, g.inputs, g.outputs)
    assert twin == g and twin is not g
    psi = random_state(tuple(sorted(g.inputs)), rng)
    angles = {v: 0.4 for v in flow.g}
    before = len(compiled)
    results = [run_mbqc_yz(graph, psi, angles, flow, [-1] * len(flow.g)) for graph in (g, twin, g, twin)]
    assert len(compiled) == before + 1 and compiled[-1][0] is twin
    assert [seen is graph for (seen, _), graph in zip(mbqc_engine._RUNS[flow], (g, twin), strict=True)] == [True, True]
    for out, record in results[1:]:
        assert out.amplitudes.tobytes() == results[0][0].amplitudes.tobytes() and record == results[0][1]


def full_register_route(g, flow, psi, sequence):
    """The schedule compiled on the whole graph state, as the engine ran
    before it measured each vertex as it is prepared, and that state."""

    def correct(v):
        return flow.g[v] - {v}, odd_neighborhood(g, flow.g[v]) - {v}

    prepared = prepare_graph_state(g, psi)
    return compile_plan(prepared.labels, sequence, correct), prepared


def test_live_all_branch_runs_match_the_full_register_route():
    # every n <= 5 sweep witness, all branches at once, in two input label
    # orders and two measurement orders, against the schedule compiled on
    # the whole graph state
    rng = np.random.default_rng(9)
    rows = 0
    for g, flow in yz_bipartite_sweep(5, io_samples=0, workers=1).witnesses:
        measured = sorted(flow.g)
        angles = {v: float(rng.uniform(-np.pi, np.pi)) for v in measured}
        default = [v for layer in flow.layers for v in sorted(layer & set(measured))]
        reverse = [v for layer in flow.layers for v in sorted(layer & set(measured), reverse=True)]
        inputs = tuple(sorted(g.inputs))
        for labels in dict.fromkeys([inputs, inputs[::-1]]):
            psi = random_state(labels, rng)
            for order, sequence in ((None, default), (reverse, reverse)):
                branches = mbqc_engine.run_all_branches(g, psi, [LayerParams(theta=angles)], flow, order=order)
                schedule, prepared = full_register_route(g, flow, psi, sequence)
                axes = [yz_axis(angles[v]) for v in sequence]
                expected = simulator.run_schedule_all(schedule, simulator.BranchArray.start(prepared), axes)
                assert branches.labels == expected.labels and branches.plan == expected.plan
                assert np.abs(branches.amplitudes - expected.amplitudes).max() <= 1e-12
                assert np.abs(branches.probabilities - expected.probabilities).max(initial=0.0) <= 1e-12
                rows += len(branches.amplitudes)
    assert rows == 3174


def reference_run(g, flow, psi, angles, sequence, outcomes):
    """One branch with the reference kernels on the whole graph state: each
    vertex projected along its YZ axis and discarded, then, on a -1
    outcome, X on g(v) - v and Z on Odd(g(v)) - v."""
    state = prepare_graph_state(g, psi)
    record = []
    for v, outcome in zip(sequence, outcomes, strict=True):
        axis = yz_axis(angles[v])
        probability, state = simulator.project(state, v, axis, outcome)
        state = simulator.discard_qubit(state, v, axis, outcome)
        if outcome == -1:
            for u in sorted(flow.g[v] - {v}):
                state = simulator.apply_pauli_x(state, u)
            for u in sorted(odd_neighborhood(g, flow.g[v]) - {v}):
                state = simulator.apply_pauli_z(state, u)
        record.append(simulator.MeasurementEntry(v, axis, outcome, probability))
    return state, record


def layered_flow(g, g_map):
    """The flow of a correction map: v before each other member of g(v) and
    of Odd(g(v)), layered by longest path."""
    precedence = {(v, u) for v, s in g_map.items() for u in (s | odd_neighborhood(g, s)) - {v}}
    depth = dict.fromkeys(g.vertices, 0)
    for _ in g.vertices:
        for v, u in precedence:
            depth[u] = max(depth[u], depth[v] + 1)
    layers = [frozenset(v for v in g.vertices if depth[v] == d) for d in range(max(depth.values()) + 1)]
    flow = GFlow(g=g_map, precedence=frozenset(precedence), layers=tuple(layers))
    assert verify_gflow(g, yz_planes(g), flow).ok
    return flow


def open_graph_cases():
    """Runs that prepare vertices before they are measured: outputs beyond
    the inputs (I a proper subset of O), two adjacent measured vertices,
    and chained flows, whose X corrections reach later measured vertices."""
    path = make_graph(["i", "v", "o"], [("i", "v"), ("v", "o")], ["i"], ["i", "o"])
    yield pytest.param(path, layered_flow(path, {"v": frozenset({"v"})}), id="path i-v-o")
    # w, an output on i only, joins after o yet sits before it, in graph order
    pendant = make_graph(["i", "w", "v", "o"], [("i", "w"), ("i", "v"), ("v", "o")], ["i"], ["i", "w", "o"])
    yield pytest.param(pendant, layered_flow(pendant, {"v": frozenset({"v"})}), id="path i-v-o, w on i")
    # b before a: g(a) = {a, o} has Odd {i}; a is an X target of nothing,
    # but b's Odd set {a, o} makes both join before b is measured
    path4 = make_graph(["i", "a", "b", "o"], [("i", "a"), ("a", "b"), ("b", "o")], ["i"], ["i", "o"])
    yield pytest.param(path4, layered_flow(path4, {"a": frozenset({"a", "o"}), "b": frozenset({"b"})}), id="path i-a-b-o")
    # the smallest that the search over g maps finds: no inputs at all
    star = make_graph(["1", "2", "3"], [("1", "3"), ("2", "3")], [], ["1"])
    yield pytest.param(star, layered_flow(star, {"2": frozenset({"1", "2"}), "3": frozenset({"3"})}), id="star I={}")
    for g, flow in [(g, f) for g, f in witnesses() if len(f.g) >= 2][:12]:
        order = sorted(flow.g)
        chained = chained_flow(g, flow, order, lambda v, u: True)
        yield pytest.param(g, chained, id=f"chained {sorted(g.edges)} I={sorted(g.inputs)}")


@pytest.mark.parametrize("g, flow", list(open_graph_cases()))
def test_live_runs_prepare_outputs_and_correction_targets(g, flow):
    """Every branch, per branch and all at once, in both input label orders
    and both orders within the flow's layers, against the reference
    kernels on the whole graph state: within 1e-12, records included, with
    the outputs in their usual order (the inputs, then the other outputs
    in graph order)."""
    rng = np.random.default_rng(11)
    measured = sorted(flow.g)
    angles = {v: float(rng.uniform(-np.pi, np.pi)) for v in measured}
    default = [v for layer in flow.layers for v in sorted(layer & set(measured))]
    reverse = [v for layer in flow.layers for v in sorted(layer & set(measured), reverse=True)]
    inputs = tuple(v for v in g.vertices if v in g.inputs)
    for labels in dict.fromkeys([inputs, inputs[::-1]]):
        psi = random_state(labels, rng)
        for sequence in dict.fromkeys([tuple(default), tuple(reverse)]):
            branches = mbqc_engine.run_all_branches(g, psi, [LayerParams(theta=angles)], flow, order=sequence)
            assert branches.labels == labels + tuple(v for v in g.vertices if v in g.outputs - g.inputs)
            assert branches.reachable.all()
            for row, outcomes in enumerate(all_outcome_branches(len(measured))):
                expected, expected_record = reference_run(g, flow, psi, angles, sequence, outcomes)
                out, record = run_mbqc_yz(g, psi, angles, flow, outcomes, order=sequence)
                for state, entries in ((out, record), (branches.state(row), branches.records(row)[0])):
                    assert state.labels == expected.labels
                    assert np.abs(state.amplitudes - expected.amplitudes).max() <= 1e-12
                    assert [(e.qubit, e.axis, e.outcome) for e in entries] == [
                        (e.qubit, e.axis, e.outcome) for e in expected_record
                    ]
                    for entry, twin in zip(entries, expected_record):
                        assert abs(entry.probability - twin.probability) <= 1e-12


def live_width(schedule, inputs):
    """The widest register a compiled run holds."""
    width = widest = inputs
    for step in schedule.steps:
        if step[0] == simulator._PREPARE:
            width += 1
        elif step[0] == simulator._MEASURE:
            width -= 1
        widest = max(widest, width)
    return widest


def test_claim_2_runs_hold_only_the_inputs_and_no_graph_state():
    # every n <= 6 witness and every all-pairs n = 2..4 program: each
    # measured vertex has only inputs for neighbours, so each is one
    # diagonal step on the input register
    programs = [(g, flow) for g, flow in yz_bipartite_sweep(6, io_samples=0, workers=1).witnesses]
    for n in (2, 3, 4):
        graph = induced_graph(build_all_pairs_layout(n))
        programs.append((graph, canonical_yz_gflow(graph)))
    for g, flow in programs:
        inputs = tuple(v for v in g.vertices if v in g.inputs)
        schedule = mbqc_engine._compiled(g, flow, inputs, None)
        assert [step[0] for step in schedule.steps] == [simulator._FRESH] * len(flow.g)
        assert live_width(schedule, len(inputs)) == len(inputs)
    assert len(programs) == 2015
    graph, flow = programs[-1]
    psi = random_state(tuple(v for v in graph.vertices if v in graph.inputs), np.random.default_rng(12))
    layers = [LayerParams(theta=dict.fromkeys(flow.g, 0.3)), LayerParams(theta=dict.fromkeys(flow.g, -0.2))]
    with mock.patch.object(mbqc_engine, "_graph_amplitudes", side_effect=AssertionError("graph state built")):
        run_mbqc_yz(graph, psi, layers[0].theta, flow, [1, -1] * 3)
        run_repeated_mbqc(graph, psi, layers, flow, [-1, 1] * 6)
        mbqc_engine.run_all_branches(graph, psi, layers[:1], flow)


def test_shared_sweep_flow_verified_per_graph_and_refused_where_invalid(monkeypatch):
    # a sweep flow valid on two witness graphs, shared by both, is verified
    # and compiled once on each; on a graph where it is invalid it raises
    # every time
    compiled = counting_compiles(monkeypatch)
    verified = []
    real_verify = mbqc_engine.verify_gflow

    def counting(g, planes, flow):
        verified.append(g)
        return real_verify(g, planes, flow)

    monkeypatch.setattr(mbqc_engine, "verify_gflow", counting)
    graphs: dict[tuple, tuple[GFlow, list]] = {}
    for g, flow in yz_bipartite_sweep(5, io_samples=0, workers=1).witnesses:
        graphs.setdefault(flow_content(g, flow), (flow, []))[1].append(g)
    flow, (first, second, *_) = next((f, gs) for f, gs in graphs.values() if len(gs) >= 2 and len(f.g) >= 2)
    assert first is not second
    psi = random_state(tuple(sorted(first.inputs)), np.random.default_rng(6))
    angles = dict.fromkeys(flow.g, 0.6)
    for g in (first, second, first, second):
        run_mbqc_yz(g, psi, angles, flow, [-1] * len(flow.g))
    for log in (verified, [g for g, _, _ in compiled]):
        assert [g is expected for g, expected in zip(log, (first, second), strict=True)] == [True, True]

    # an edge between two measured vertices: one of them now has the other,
    # not after it, in Odd(g(v))
    u, v = sorted(flow.g)[:2]
    bad = make_graph(first.vertices, [*first.edges, (u, v)], first.inputs, first.outputs)
    for attempt in range(3):
        with pytest.raises(ValueError, match="invalid flow"):
            run_mbqc_yz(bad, psi, angles, flow, [-1] * len(flow.g))
        assert len(verified) == 3 + attempt and verified[-1] is bad
    assert len(compiled) == 2
    runs = mbqc_engine._RUNS[flow]
    assert [seen is g for (seen, _), g in zip(runs, (first, second), strict=True)] == [True, True]


def _all_pairs_runs(layer_count):
    """The n = 3 all-pairs program through each per-branch run, as
    functions of the outcome list: `run_mbqc_yz` (one layer's angles),
    `run_repeated_mbqc` and `run_computation` (layer_count layers, the
    first rotating no data qubit). Each gives (state, list of records)."""
    layout = build_all_pairs_layout(3)
    graph = induced_graph(layout)
    flow = canonical_yz_gflow(graph)
    psi = random_state(layout.data_qubits, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    layers = [LayerParams(theta={p: float(rng.uniform(-np.pi, np.pi)) for p in layout.parity_qubits})]
    for _ in range(layer_count - 1):
        layers.append(
            LayerParams(
                theta={p: float(rng.uniform(-np.pi, np.pi)) for p in layout.parity_qubits},
                alpha={q: float(rng.uniform(-np.pi, np.pi)) for q in layout.data_qubits},
                phi={q: float(rng.uniform(-np.pi, np.pi)) for q in layout.data_qubits},
            )
        )
    count = len(layout.parity_qubits)

    def single(outcomes):
        state, record = run_mbqc_yz(graph, psi, layers[0].theta, flow, outcomes)
        return state, [record]

    return psi, {
        "run_mbqc_yz": (single, count),
        "run_repeated_mbqc": (lambda outcomes: run_repeated_mbqc(graph, psi, layers, flow, outcomes), count * layer_count),
        "run_computation": (lambda outcomes: run_computation(layout, psi, layers, outcomes), count * layer_count),
    }


# each per-branch run, with the layer counts it takes
PER_BRANCH_RUNS = [("run_mbqc_yz", 1)] + [(entry, n) for entry in ("run_repeated_mbqc", "run_computation") for n in (1, 3)]


@pytest.mark.parametrize(("entry", "layer_count"), PER_BRANCH_RUNS)
def test_per_branch_runs_build_no_statevector(entry, layer_count):
    """Once compiled, a per-branch run checks no state: it hands over the
    amplitudes it normalised, read-only, over the data register, as the
    checked constructor would build them from the same array."""
    psi, runs = _all_pairs_runs(layer_count)
    run, count = runs[entry]
    run([1] * count)
    rng = np.random.default_rng(4)
    for outcomes in ([1] * count, [-1] * count, rng.choice((1, -1), count).tolist()):
        post_init = Statevector.__post_init__
        with mock.patch.object(Statevector, "__post_init__", autospec=True, side_effect=post_init) as built:
            out, _ = run(outcomes)
        assert built.call_count == 0
        assert out.labels == ("1", "2", "3")
        assert not out.amplitudes.flags.writeable
        assert not np.shares_memory(out.amplitudes, psi.amplitudes)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= simulator.NORM_TOL
        assert Statevector(out.labels, out.amplitudes).amplitudes.tobytes() == out.amplitudes.tobytes()


@pytest.mark.parametrize(("entry", "layer_count"), PER_BRANCH_RUNS)
def test_each_run_checks_its_outcome_list_once(entry, layer_count):
    """A multi-layer run checks the whole list once and hands each layer
    its share unchecked; a single run checks it in `run_schedule`."""
    _, runs = _all_pairs_runs(layer_count)
    run, count = runs[entry]
    run([1] * count)
    for outcomes in ([1, -1] * count)[:count], tuple([-1] * count), [np.int64(1)] * count:
        with mock.patch.object(simulator, "check_outcomes", wraps=simulator.check_outcomes) as checked:
            run(outcomes)
        assert checked.call_count == 1


@pytest.mark.parametrize(("entry", "layer_count"), PER_BRANCH_RUNS)
def test_outcome_lists_of_any_accepted_type_give_the_same_run(entry, layer_count):
    """A list of ints, a tuple, a list of numpy ints and a list of floats
    1.0/-1.0 give bitwise the same output and records, whose outcomes are
    ints."""
    _, runs = _all_pairs_runs(layer_count)
    run, count = runs[entry]
    outcomes = np.random.default_rng(5).choice((1, -1), count).tolist()
    expected, expected_records = run(list(outcomes))
    for given in (tuple(outcomes), [np.int64(o) for o in outcomes], [float(o) for o in outcomes]):
        out, records = run(given)
        assert out.amplitudes.tobytes() == expected.amplitudes.tobytes()
        assert records == expected_records
        assert [type(e.outcome) for record in records for e in record] == [int] * count


@pytest.mark.parametrize("entry", ["run_mbqc_yz", "run_repeated_mbqc"])
def test_surplus_prescribed_outcomes_rejected(entry):
    graph = p3_graph()
    flow = canonical_yz_gflow(graph)
    psi = random_state(("1", "2"), np.random.default_rng(4))
    # each run gives the outcome of its one measurement
    runs = {
        "run_mbqc_yz": lambda outcomes: run_mbqc_yz(graph, psi, {"c": 0.7}, flow, outcomes)[1][0].outcome,
        "run_repeated_mbqc": lambda outcomes: (
            run_repeated_mbqc(graph, psi, [LayerParams()], flow, outcomes)[1][0][0].outcome
        ),
    }
    run = runs[entry]
    # a list of the wrong length, or a generator, is refused before any bra
    # is read; the valid run that follows reads them
    with mock.patch.object(simulator, "_fresh_factors", wraps=simulator._fresh_factors) as bras:
        for outcomes in ([], [-1, 1, 1]):
            with pytest.raises(ValueError, match=f"^{len(outcomes)} prescribed outcome\\(s\\) for 1 measurement\\(s\\)$"):
                run(outcomes)
        with pytest.raises(TypeError, match="^outcomes must be a sequence of \\+/-1$"):
            run(np.random.default_rng(0))
        assert not bras.called
        assert run([-1]) == -1
    assert bras.called


def test_bad_second_layer_refused_before_any_bra_is_contracted():
    graph = p3_graph()
    flow = canonical_yz_gflow(graph)
    psi = random_state(("1", "2"), np.random.default_rng(4))
    layers = [LayerParams(theta={"c": 0.7}), LayerParams(theta={"1": 0.1})]
    with mock.patch.object(simulator, "_fresh_factors", wraps=simulator._fresh_factors) as bras:
        with pytest.raises(ValueError, match="'theta' keys \\['1'\\] are not measured vertices"):
            run_repeated_mbqc(graph, psi, layers, flow, [1, -1])
        assert not bras.called
        run_repeated_mbqc(graph, psi, layers[:1], flow, [-1])
    assert bras.called


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_rejected(angle):
    graph = p3_graph()
    psi = random_state(("1", "2"), np.random.default_rng(4))
    with pytest.raises(ValueError, match=f"^angle of 'c' = {angle} is not finite$"):
        run_mbqc_yz(graph, psi, {"c": angle}, canonical_yz_gflow(graph), [1])


def test_dropped_flows_leave_no_compiled_runs():
    graph = p3_graph()
    flow = canonical_yz_gflow(graph)
    run_mbqc_yz(graph, basis_state(("1", "2"), "10"), {"c": 0.7}, flow, [-1])
    [(seen, _)] = mbqc_engine._RUNS[flow]
    assert seen is graph
    dropped_flow, dropped_graph = weakref.ref(flow), weakref.ref(graph)
    del flow, graph, seen
    gc.collect()
    assert dropped_flow() is None and dropped_graph() is None
    assert all(key() is not None for key in mbqc_engine._RUNS.keyrefs())


def test_over_cap_graph_refused_before_its_first_step(monkeypatch):
    """The 17-vertex path with 9 inputs runs on its 9 inputs alone; under a
    cap of 8 that run still compiles, recording its width, and every run
    of it is refused before its first step."""
    vertices = [str(i) for i in range(17)]
    inputs = vertices[::2]
    g = make_graph(vertices, list(zip(vertices, vertices[1:])), inputs, inputs)
    flow = canonical_yz_gflow(g)
    psi = random_state(inputs, np.random.default_rng(5))
    layers = [LayerParams(theta=dict.fromkeys(flow.g, 0.4))]
    monkeypatch.setattr(simulator, "DEFAULT_QUBIT_CAP", 8)
    with mock.patch.object(simulator, "_half", wraps=simulator._half) as half:
        with pytest.raises(ValueError, match="register of 9 qubits exceeds cap 8"):
            run_mbqc_yz(g, psi, layers[0].theta, flow, [1] * len(flow.g))
        with pytest.raises(ValueError, match="register of 9 qubits exceeds cap 8"):
            run_repeated_mbqc(g, psi, layers, flow, [1] * len(flow.g))
        with pytest.raises(ValueError, match="register of 9 qubits exceeds cap 8"):
            mbqc_engine.run_all_branches(g, psi, layers, flow)
    assert not half.called
    assert mbqc_engine._compiled(g, flow, psi.labels, None).width == 9
    monkeypatch.undo()
    state, _ = run_mbqc_yz(g, psi, layers[0].theta, flow, [1] * len(flow.g))
    assert state.labels == psi.labels


def test_17_qubit_input_refused_by_every_run_before_its_first_step():
    """A 17-qubit `Statevector` built from outside for the all-pairs n = 17
    layout: both engines compile its runs, and every run, per branch or on
    all branches, refuses it before its first step."""
    layout = build_all_pairs_layout(17)
    graph = induced_graph(layout)
    flow = canonical_yz_gflow(graph)
    psi = Statevector(layout.data_qubits, np.eye(1, 1 << 17)[0])
    layers = [LayerParams()]
    outcomes = [1] * len(layout.parity_qubits)
    runs = [
        lambda: run_computation(layout, psi, layers, outcomes),
        lambda: parity_engine.run_all_branches(layout, psi, layers),
        lambda: run_mbqc_yz(graph, psi, dict.fromkeys(flow.g, 0.0), flow, outcomes),
        lambda: run_repeated_mbqc(graph, psi, layers, flow, outcomes),
        lambda: mbqc_engine.run_all_branches(graph, psi, layers, flow),
    ]
    with mock.patch.object(simulator, "_half", wraps=simulator._half) as half:
        for run in runs:
            with pytest.raises(ValueError, match="register of 17 qubits exceeds cap 16"):
                run()
    assert not half.called


def test_mbqc_compiles_from_equal_objects_are_equal():
    """A compiled run is plain data: compiled from two equal graphs and
    flows built apart, with no cap check and no parity table, the
    schedules are equal and hash equally."""
    graphs = [induced_graph(build_all_pairs_layout(4)) for _ in range(2)]
    with (
        mock.patch.object(simulator, "check_cap", side_effect=AssertionError("cap checked")),
        mock.patch.object(simulator, "_odd_overlap", side_effect=AssertionError("table built")),
    ):
        runs = [mbqc_engine._compile(g, canonical_yz_gflow(g), ("1", "2", "3", "4"), None) for g in graphs]
    assert runs[0] == runs[1] and hash(runs[0]) == hash(runs[1])


def test_bad_measurement_order_rejected():
    c4 = make_graph(
        ["1", "2", "3", "4"],
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")],
        ["1", "3"],
        ["1", "3"],
    )
    flow = GFlow(
        g={"2": frozenset({"2", "4"}), "4": frozenset({"4"})},
        precedence=frozenset({("2", "4"), ("2", "1"), ("2", "3"), ("4", "1"), ("4", "3")}),
        layers=(frozenset({"2"}), frozenset({"4"}), frozenset({"1", "3"})),
    )
    psi = basis_state(("1", "3"), "00")
    with pytest.raises(ValueError, match="order violates"):
        run_mbqc_yz(c4, psi, {"2": 0.1, "4": 0.2}, flow, [1, 1], order=["4", "2"])


def test_angle_keys_must_cover_measured():
    graph = induced_graph(build_all_pairs_layout(2))
    flow = canonical_yz_gflow(graph)
    with pytest.raises(ValueError, match="angle keys"):
        run_mbqc_yz(graph, basis_state(("1", "2"), "00"), {}, flow, [1])


def test_decode_sets_refused():
    """Measurement-based runs decode fully each layer: both layered entry
    points refuse a layer with a decode set rather than decode fully."""
    layout = build_all_pairs_layout(3)
    graph = induced_graph(layout)
    flow = canonical_yz_gflow(graph)
    psi = random_state(layout.data_qubits, np.random.default_rng(8))
    layers = [LayerParams(theta={"(12)": 0.5}, decode=frozenset({"(12)"})), LayerParams()]
    with pytest.raises(ValueError, match="decode"):
        run_repeated_mbqc(graph, psi, layers, flow, [1] * 6)
    with pytest.raises(ValueError, match="decode"):
        mbqc_engine.run_all_branches(graph, psi, layers, flow)


@pytest.mark.parametrize(
    "bad, field",
    [
        (LayerParams(theta={"1": 0.5}), "theta"),
        (LayerParams(alpha={"7": 0.4}), "alpha"),
        (LayerParams(phi={"(12)": 1.0}), "phi"),
        (LayerParams(decode=frozenset({"(12)"})), "decode"),
    ],
    ids=["theta_on_output", "alpha_on_unknown", "phi_on_measured", "decode"],
)
def test_layer_keys_refused_before_any_layer_runs(bad, field):
    """theta keys outside the measured vertices, alpha and phi keys outside
    the outputs, and decode sets are refused by both layered entry points,
    on any layer, before the first layer's run is compiled."""
    layout = build_all_pairs_layout(2)
    graph = induced_graph(layout)
    flow = canonical_yz_gflow(graph)
    psi = random_state(layout.data_qubits, np.random.default_rng(8))
    layers = [LayerParams(theta={"(12)": 0.9}), bad]
    with mock.patch.object(mbqc_engine, "_compiled", side_effect=AssertionError("a layer ran")):
        with pytest.raises(ValueError, match=field):
            run_repeated_mbqc(graph, psi, layers, flow, [1, 1])
        with pytest.raises(ValueError, match=field):
            mbqc_engine.run_all_branches(graph, psi, layers, flow)


def test_layers_after_the_first_need_outputs_equal_to_inputs():
    """A layer ends on the outputs, which the next layer takes as its
    inputs: on the path 1-2-3 with I = {1} and O = {1, 3}, whose flow is
    valid, a second layer has no input register, and both layered entry
    points refuse it before the first layer prepares or measures a
    qubit. One layer runs and ends on the outputs."""
    graph = make_graph(["1", "2", "3"], [("1", "2"), ("2", "3")], ["1"], ["1", "3"])
    flow = GFlow({"2": {"2"}}, {("2", "1"), ("2", "3")}, ({"2"}, {"1", "3"}))
    psi = random_state(("1",), np.random.default_rng(9))
    layers = [LayerParams(theta={"2": 0.4}), LayerParams()]
    cause = r"^2 layers on a graph whose outputs \['1', '3'\] differ from its inputs \['1'\]: the second layer has no input register$"
    with (
        mock.patch.object(simulator, "_fresh_factors", wraps=simulator._fresh_factors) as factors,
        mock.patch.object(simulator, "_prepare", wraps=simulator._prepare) as prepared,
    ):
        with pytest.raises(ValueError, match=cause):
            run_repeated_mbqc(graph, psi, layers, flow, [1, 1])
        with pytest.raises(ValueError, match=cause):
            mbqc_engine.run_all_branches(graph, psi, layers, flow)
        assert not factors.called and not prepared.called
        out, records = run_repeated_mbqc(graph, psi, layers[:1], flow, [-1])
        assert factors.called and prepared.called
    assert out.labels == ("1", "3")
    assert [e.qubit for record in records for e in record] == ["2"]
    assert mbqc_engine.run_all_branches(graph, psi, layers[:1], flow).labels == ("1", "3")


def test_repeated_identity():
    layout = build_all_pairs_layout(2)
    graph = induced_graph(layout)
    flow = canonical_yz_gflow(graph)
    rng = np.random.default_rng(5)
    psi = random_state(("1", "2"), rng)
    out, _ = run_repeated_mbqc(graph, psi, [LayerParams()], flow, [1])
    assert distance_up_to_phase(out, psi) < 1e-12


@pytest.mark.parametrize("n,layer_count", [(2, 2), (3, 2), (3, 3)])
def test_repeated_mbqc_matches_parity_engine(n, layer_count):
    layout = build_all_pairs_layout(n)
    graph = induced_graph(layout)
    flow = canonical_yz_gflow(graph)
    rng = np.random.default_rng(10 * n + layer_count)
    psi = random_state(layout.data_qubits, rng)
    layers = [
        LayerParams(
            theta={p: rng.uniform(-np.pi, np.pi) for p in layout.parity_qubits},
            alpha={q: rng.uniform(-np.pi, np.pi) for q in layout.data_qubits},
            phi={q: rng.uniform(-np.pi, np.pi) for q in layout.data_qubits},
        )
        for _ in range(layer_count)
    ]
    measured = len(layout.parity_qubits) * layer_count
    parity_out, _ = run_computation(layout, psi, layers, np.random.default_rng(0).choice((1, -1), measured).tolist())
    mbqc_out, _ = run_repeated_mbqc(graph, psi, layers, flow, np.random.default_rng(1).choice((1, -1), measured).tolist())
    assert distance_up_to_phase(parity_out, mbqc_out) < 1e-10


def test_engines_measure_alike_on_every_branch():
    # for the same prescribed outcomes both engines measure the same qubits
    # in the same order with the same Born probabilities: a finer statement
    # of their equivalence than agreement of the final states
    runs = 0
    for n in (2, 3):
        layout = build_all_pairs_layout(n)
        graph = induced_graph(layout)
        flow = canonical_yz_gflow(graph)
        rng = np.random.default_rng(40 + n)
        psi = random_state(layout.data_qubits, rng)
        layers = [
            LayerParams(
                theta={p: rng.uniform(-np.pi, np.pi) for p in layout.parity_qubits},
                alpha={q: rng.uniform(-np.pi, np.pi) for q in layout.data_qubits},
                phi={q: rng.uniform(-np.pi, np.pi) for q in layout.data_qubits},
            )
            for _ in range(2)
        ]
        for outcomes in all_outcome_branches(2 * len(layout.parity_qubits)):
            _, parity_records = run_computation(layout, psi, layers, list(outcomes))
            _, mbqc_records = run_repeated_mbqc(graph, psi, layers, flow, list(outcomes))
            parity_flat = [e for record in parity_records for e in record]
            mbqc_flat = [e for record in mbqc_records for e in record]
            assert [(e.qubit, e.outcome) for e in parity_flat] == [(e.qubit, e.outcome) for e in mbqc_flat]
            for a, b in zip(parity_flat, mbqc_flat):
                assert abs(a.probability - b.probability) < 1e-12
                # across the Hadamard layer, XY at theta is YZ at theta
                assert a.axis == (b.axis[2], -b.axis[1], b.axis[0])
            runs += 1
    assert runs == 68


def test_two_layers_on_six_cycle_match_direct_circuit():
    # direct 3-qubit oracle from the logical gate identities: each layer is
    # a product of ZZ rotations (one per parity label) then RX RZ per qubit
    layout = build_all_pairs_layout(3)
    graph = induced_graph(layout)
    flow = canonical_yz_gflow(graph)
    rng = np.random.default_rng(6)
    psi = random_state(layout.data_qubits, rng)
    layers = [
        LayerParams(
            theta={p: rng.uniform(-np.pi, np.pi) for p in layout.parity_qubits},
            alpha={q: rng.uniform(-np.pi, np.pi) for q in layout.data_qubits},
            phi={q: rng.uniform(-np.pi, np.pi) for q in layout.data_qubits},
        )
        for _ in range(2)
    ]

    def rz_mat(t):
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])

    def rx_mat(t):
        return np.array(
            [[np.cos(t / 2), -1j * np.sin(t / 2)], [-1j * np.sin(t / 2), np.cos(t / 2)]]
        )

    def embed(mat, pos):
        ops = [np.eye(2)] * 3
        ops[pos] = mat
        out = ops[0]
        for m in ops[1:]:
            out = np.kron(out, m)
        return out

    pairs = {"(12)": (0, 1), "(13)": (0, 2), "(23)": (1, 2)}
    amps = psi.amplitudes
    for layer in layers:
        diag = np.ones(8, dtype=complex)
        for label, (i, j) in pairs.items():
            theta = layer.theta[label]
            signs = np.array(
                [(-1) ** (idx >> (2 - i) & 1) * (-1) ** (idx >> (2 - j) & 1) for idx in range(8)]
            )
            diag = diag * np.exp(-0.5j * theta * signs)
        amps = diag * amps
        for pos, q in enumerate(("1", "2", "3")):
            amps = embed(rx_mat(layer.alpha[q]) @ rz_mat(layer.phi[q]), pos) @ amps

    mbqc_out, _ = run_repeated_mbqc(graph, psi, layers, flow, np.random.default_rng(2).choice((1, -1), 6).tolist())
    from parityflow.simulator import Statevector

    assert distance_up_to_phase(mbqc_out, Statevector(psi.labels, amps)) < 1e-10


def test_yz_axis_unit():
    for theta in (0.0, 0.5, 2.0, -1.3):
        axis = yz_axis(theta)
        assert axis[0] == 0.0
        assert np.isclose(np.linalg.norm(axis), 1.0)
