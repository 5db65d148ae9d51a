"""All outcome branches in one array against one per-branch run each.

`run_all_branches` of both engines keeps every branch as a row of one
array; the per-branch engines run one prescribed outcome list at a time.
The two must agree on which branches are reachable, on the amplitudes and
on every recorded Born probability, row b against branch b of
`all_outcome_branches`.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityflow import mbqc_engine, parity_engine, simulator
from parityflow.gflow import GFlow, canonical_yz_gflow, yz_bipartite_sweep
from parityflow.layout import build_all_pairs_layout, induced_graph
from parityflow.parity_engine import Z_AXIS, LayerParams, all_outcome_branches, xy_axis
from parityflow.simulator import (
    BranchArray,
    ZeroProbabilityError,
    basis_state,
    compile_plan,
    random_state,
    run_schedule,
    run_schedule_all,
)

from parity_helpers import full_register_branches
from test_properties import parity_layouts

TOL = 1e-14
PHASE_TOL = 1e-15
MAX_MEASUREMENTS = 6  # at most 64 per-branch runs per example
ANGLES = st.floats(-np.pi, np.pi)


@functools.cache
def layout_and_flow(n):
    layout = build_all_pairs_layout(n)
    graph = induced_graph(layout)
    return layout, graph, canonical_yz_gflow(graph)


@functools.cache
def witnesses():
    report = yz_bipartite_sweep(5, io_samples=0, keep_witnesses=True)
    return [(g, flow) for g, flow in report.witnesses if len(flow.g) <= 4]


def assert_matches_per_branch(branches, run):
    """Row b of the array against run(outcomes of branch b), for every b."""
    m = branches.probabilities.shape[1]
    assert branches.amplitudes.shape[0] == 2**m
    assert not np.isnan(branches.amplitudes).any()
    assert not np.isnan(branches.probabilities).any()
    reachable = []
    for row, outcomes in enumerate(all_outcome_branches(m)):
        try:
            state, records = run(outcomes)
        except ZeroProbabilityError:
            reachable.append(False)
            continue
        reachable.append(True)
        assert_row(branches, row, state, records)
    assert branches.reachable.tolist() == reachable


def assert_row(branches, row, state, records):
    """One per-branch run against row `row` of the array."""
    assert state.labels == branches.labels
    assert np.abs(state.amplitudes - branches.amplitudes[row]).max() <= TOL
    batched = branches.records(row)
    assert [[(e.qubit, e.axis, e.outcome) for e in r] for r in records] == [
        [(e.qubit, e.axis, e.outcome) for e in r] for r in batched
    ]
    for record, other in zip(records, batched):
        for entry, twin in zip(record, other):
            assert abs(entry.probability - twin.probability) <= TOL


def one_pass(run):
    """A runner returning one MeasurementRecord, as one returning a list of them."""

    def wrapped(outcomes):
        state, record = run(outcomes)
        return state, [record]

    return wrapped


@st.composite
def parity_programs(draw, layouts=st.integers(2, 4).map(lambda n: layout_and_flow(n)[0])):
    """Layouts (default: all-pairs n = 2..4), 1-3 layers, random partial
    decode sets, at most MAX_MEASUREMENTS measurements in all; X rotations
    only on data qubits that no parity qubit left encoded tracks."""
    layout = draw(layouts)
    parity = layout.parity_qubits
    budget = MAX_MEASUREMENTS - len(parity)  # the final layer decodes every parity qubit
    layers = []
    for _ in range(draw(st.integers(0, 2))):
        decode = draw(st.sets(st.sampled_from(parity), max_size=min(budget, len(parity)))) if parity else set()
        budget -= len(decode)
        layers.append((decode, False))
    layers.append((frozenset(parity), True))
    program = []
    for decode, final in layers:
        encoded = set().union(*(layout.parity_sets[p] for p in parity if p not in decode))
        program.append(
            LayerParams(
                theta={p: draw(ANGLES) for p in sorted(decode) if draw(st.booleans())},
                alpha={q: draw(ANGLES) for q in layout.data_qubits if q not in encoded and draw(st.booleans())},
                phi={q: draw(ANGLES) for q in layout.data_qubits if draw(st.booleans())},
                decode=None if final or decode == frozenset(parity) else frozenset(decode),
            )
        )
    psi = random_state(layout.data_qubits, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return layout, psi, program


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(parity_programs())
def test_parity_all_branches_match_per_branch_runs(case):
    layout, psi, layers = case
    branches = parity_engine.run_all_branches(layout, psi, layers)
    assert_matches_per_branch(branches, lambda outcomes: parity_engine.run_computation(layout, psi, layers, outcomes))


def assert_on_full_register_rows(layout, psi, layers, outcome_lists):
    """The all-branch array, and a per-branch run of each outcome list,
    against the rows of the full-register route (`parity_helpers`) with no
    phase freedom: the same labels, reachable rows, qubits and outcomes,
    each record axis xy_axis(theta), amplitudes and Born probabilities
    within PHASE_TOL."""
    reference = full_register_branches(layout, psi, layers)
    branches = parity_engine.run_all_branches(layout, psi, layers)
    assert branches.labels == reference.labels
    assert np.abs(branches.amplitudes - reference.amplitudes).max() <= PHASE_TOL
    assert branches.reachable.tolist() == reference.reachable.tolist()

    def assert_on_reference_row(records, row):
        expected = reference.records(row)
        assert [[(e.qubit, e.outcome) for e in r] for r in records] == [[(e.qubit, e.outcome) for e in r] for r in expected]
        for record, other, params in zip(records, expected, layers):
            for entry, twin in zip(record, other):
                assert abs(entry.probability - twin.probability) <= PHASE_TOL
                assert entry.axis == xy_axis(params.theta.get(entry.qubit, 0.0))

    for row in range(len(branches.amplitudes)):
        assert_on_reference_row(branches.records(row), row)
    m = branches.probabilities.shape[1]
    for outcomes in outcome_lists:
        state, records = parity_engine.run_computation(layout, psi, layers, outcomes)
        assert [e.outcome for r in records for e in r] == outcomes
        row = sum(1 << (m - 1 - j) for j, o in enumerate(outcomes) if o == -1)
        assert state.labels == reference.labels
        assert np.abs(state.amplitudes - reference.amplitudes[row]).max() <= PHASE_TOL
        assert_on_reference_row(records, row)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(parity_programs(), st.integers(0, 2**32 - 1))
def test_parity_xy_axes_match_the_rz_gates(case, seed):
    """Each parity rotation folded into its decode axis, against the route
    that applies it as an RZ gate and then measures along X, layer by
    layer, partial decode sets and re-encoded registers included. The
    all-branch array and a per-branch run of outcomes drawn from the seed
    land on the reference rows."""
    layout, psi, layers = case
    m = parity_engine.measurement_count(layout, layers)
    assert_on_full_register_rows(layout, psi, layers, [np.random.default_rng(seed).choice((1, -1), m).tolist()])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(parity_programs(parity_layouts()))
def test_data_register_runs_land_on_the_full_register_rows(case):
    """Runs on the data register, each decoded parity qubit measured as it
    is encoded, against the full-register route on every branch: random
    layouts, parities routed through other parity qubits included, and
    random partial decode sets."""
    layout, psi, layers = case
    outcome_lists = all_outcome_branches(parity_engine.measurement_count(layout, layers))
    assert_on_full_register_rows(layout, psi, layers, list(outcome_lists))


@st.composite
def mbqc_programs(draw):
    """All-pairs layouts with as many full layers as keep the measurements
    within MAX_MEASUREMENTS: n = 2 up to 3 layers, n = 3 up to 2, n = 4 one."""
    n = draw(st.integers(2, 4))
    layout, graph, flow = layout_and_flow(n)
    count = draw(st.integers(1, MAX_MEASUREMENTS // len(layout.parity_qubits)))
    layers = [
        LayerParams(
            theta={p: draw(ANGLES) for p in layout.parity_qubits},
            alpha={q: draw(ANGLES) for q in layout.data_qubits if draw(st.booleans())},
            phi={q: draw(ANGLES) for q in layout.data_qubits if draw(st.booleans())},
        )
        for _ in range(count)
    ]
    psi = random_state(layout.data_qubits, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return graph, flow, psi, layers


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(mbqc_programs())
def test_mbqc_all_branches_match_per_branch_runs(case):
    graph, flow, psi, layers = case
    branches = mbqc_engine.run_all_branches(graph, psi, layers, flow)
    assert_matches_per_branch(branches, lambda outcomes: mbqc_engine.run_repeated_mbqc(graph, psi, layers, flow, outcomes))


def chained_flow(graph, flow, order, extra):
    """The witness flow with g(v) widened by later-measured vertices, one
    vertex per layer in the given order. The measured vertices form one
    side of the bipartition, so Odd(g(v)) stays among the outputs and the
    flow stays valid; a -1 outcome now also needs X corrections."""
    g = {v: frozenset({v}) | {u for u in order[i + 1 :] if extra(v, u)} for i, v in enumerate(order)}
    layers = [frozenset({v}) for v in order] + [frozenset(graph.outputs)]
    precedence = {(v, u) for v, u in zip(order, order[1:])}
    if order:
        precedence |= {(order[-1], w) for w in graph.outputs}
    return GFlow(g, precedence, layers)


@st.composite
def witness_runs(draw):
    """A sweep witness with at most 4 measured vertices, in its default
    order, reversed within each flow layer, or with a chained flow."""
    graph, flow = draw(st.sampled_from(witnesses()))
    default, reverse = [], []
    for layer in flow.layers:
        default.extend(sorted(v for v in layer if v in flow.g))
        reverse.extend(sorted((v for v in layer if v in flow.g), reverse=True))
    kind = draw(st.sampled_from(["default", "reverse", "chained"]))
    order = reverse if kind == "reverse" else default
    if kind == "chained":
        widen = {(v, u): draw(st.booleans()) for v in order for u in order}
        flow = chained_flow(graph, flow, order, lambda v, u: widen[v, u])
    angles = {v: draw(ANGLES) for v in flow.g}
    psi = random_state(sorted(graph.inputs), np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return graph, flow, order, angles, psi


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(witness_runs())
def test_mbqc_all_branches_match_per_branch_runs_on_witnesses(case):
    graph, flow, order, angles, psi = case
    branches = mbqc_engine.run_all_branches(graph, psi, [LayerParams(theta=angles)], flow, order=order)
    assert_matches_per_branch(
        branches, one_pass(lambda outcomes: mbqc_engine.run_mbqc_yz(graph, psi, angles, flow, outcomes, order=order))
    )


def test_chained_flows_apply_x_corrections():
    """The witness test above sees X corrections only through chained flows."""
    graph, flow = next((g, f) for g, f in witnesses() if len(f.g) >= 2)
    order = sorted(flow.g)
    chained = chained_flow(graph, flow, order, lambda v, u: True)
    inputs = tuple(sorted(graph.inputs))
    schedule = mbqc_engine._compiled(graph, chained, inputs, order)
    # every later vertex is an X target of the first, so each joins the
    # register before the first measurement: the inputs, then the joined
    # vertices in graph order. The first vertex is measured as it is
    # prepared, and its X correction covers every later vertex
    later = len(order) - 1
    assert [step[0] for step in schedule.steps[: later + 1]] == [simulator._PREPARE] * later + [simulator._FRESH]
    left = inputs + tuple(v for v in graph.vertices if v in order[1:])
    xmask = schedule.steps[later][-2]
    assert xmask == sum(1 << (len(left) - 1 - left.index(u)) for u in order[1:])


@st.composite
def eigenstate_plans(draw):
    """A basis-state register, a Z-axis plan over some of its qubits and
    fixed corrections on the others: each measured outcome has probability
    0 or 1."""
    n = draw(st.integers(1, 5))
    labels = tuple(f"q{i}" for i in range(n))
    bits = "".join(draw(st.sampled_from("01")) for _ in labels)
    measured = draw(st.permutations(labels))[: draw(st.integers(1, n))]
    rest = [q for q in labels if q not in measured]
    xs = draw(st.sets(st.sampled_from(rest))) if rest else set()
    zs = draw(st.sets(st.sampled_from(rest))) if rest else set()
    return labels, bits, [(q, Z_AXIS) for q in measured], (xs, zs)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(eigenstate_plans())
def test_zero_probability_rows_are_unreachable_and_finite(case):
    labels, bits, plan, correction = case
    state = basis_state(labels, bits)
    schedule = compile_plan(labels, [q for q, _ in plan], lambda q: correction)
    axes = [axis for _, axis in plan]
    branches = run_schedule_all(schedule, BranchArray.start(state), axes)
    expected = [1 - 2 * int(bits[labels.index(q)]) for q, _ in plan]
    rows = [list(outcomes) == expected for outcomes in all_outcome_branches(len(plan))]
    assert branches.reachable.tolist() == rows
    assert_matches_per_branch(branches, one_pass(lambda outcomes: run_schedule(schedule, state.amplitudes, axes, outcomes)))


def test_branch_bits_count_against_the_qubit_cap(monkeypatch):
    layout, graph, flow = layout_and_flow(3)
    psi = random_state(layout.data_qubits, np.random.default_rng(5))
    layers = [LayerParams(theta={"(12)": 0.3}), LayerParams(alpha={"1": 0.2})]
    # the runs hold the 3 data qubits: the first layer takes 1 row to 8, 3 + 3
    # fits a cap of 8; the second takes 8 rows to 64, and 6 + 3 > 8
    monkeypatch.setattr(simulator, "DEFAULT_QUBIT_CAP", 8)
    with pytest.raises(ValueError, match="--branches sample"):
        parity_engine.run_all_branches(layout, psi, layers)
    with pytest.raises(ValueError, match="--branches sample"):
        mbqc_engine.run_all_branches(graph, psi, layers, flow)
    one_layer = parity_engine.run_all_branches(layout, psi, layers[:1])
    assert one_layer.amplitudes.shape == (8, 8)
    monkeypatch.setattr(simulator, "DEFAULT_QUBIT_CAP", 9)
    assert parity_engine.run_all_branches(layout, psi, layers).amplitudes.shape == (64, 8)
    assert mbqc_engine.run_all_branches(graph, psi, layers, flow).amplitudes.shape == (64, 8)
