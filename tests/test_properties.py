"""Property tests: bitmask graph queries, canonical forms, layout
constraint checks, signed group equality, Pauli products and Hadamard
conjugation against references that share no code with the package, the
adjacency caches that with_io carries over against freshly built ones, the
mask-based gflow checks against their set-based references, and the fused
measurement step, the one-row ancilla append and the
phase-vector graph state against the kernels they replace."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityflow import simulator
from parityflow.gflow import (
    PLANES,
    GFlow,
    MalformedFlowError,
    _after_masks,
    flow_to_json,
    search_gflow_yz,
    verify_gflow,
    witness_structure,
    yz_planes,
)
from parityflow.graph import (
    Graph,
    bipartition_check,
    effective_graph,
    enumerate_connected_graphs,
    make_graph,
    neighbors,
    odd_neighborhood,
    with_io,
)
from parityflow.layout import ParityLayout, cnot, cz, encoding_circuit
from parityflow.mbqc_engine import prepare_graph_state, yz_axis
from parityflow.parity_engine import encode_input
from parityflow.pauli import (
    PauliString,
    PhaseError,
    StabilizerGroup,
    groups_equal,
    hadamard_conjugate,
    multiply,
)
from parityflow.simulator import (
    BranchArray,
    Statevector,
    ZeroProbabilityError,
    append_qubit,
    apply_circuit,
    apply_pauli_x,
    apply_pauli_z,
    compile_plan,
    discard_qubit,
    project,
    random_state,
    run_schedule,
)

import gflow_helpers as reference

FEW = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def graphs_with_subsets(draw):
    n = draw(st.integers(1, 7))
    vertices = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(vertices, 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    k = draw(st.sets(st.sampled_from(vertices)))
    part = draw(st.sets(st.sampled_from(vertices)))
    return vertices, edges, k, part


@FEW
@given(graphs_with_subsets())
def test_bitmask_queries_match_edge_scan(case):
    vertices, edges, k, part = case
    g = make_graph(vertices, edges)
    for v in vertices:
        assert neighbors(g, v) == {u for e in edges if v in e for u in e if u != v}
    odd = {w for w in vertices if sum(1 for e in edges if w in e and (set(e) - {w}) & k) % 2}
    assert odd_neighborhood(g, k) == odd
    assert bipartition_check(g, part) == all((u in part) != (v in part) for u, v in edges)


def _bit_string(n, edges) -> int:
    """Big-endian pair bit-string of a graph on vertices 0..n-1."""
    pairs = list(itertools.combinations(range(n), 2))
    relabeled = {tuple(sorted(e)) for e in edges}
    return sum(1 << (len(pairs) - 1 - k) for k, pair in enumerate(pairs) if pair in relabeled)


def _reference_canonical(vertices, edges) -> int:
    """Least bit-string over all relabelings, by brute force."""
    n = len(vertices)
    return min(
        _bit_string(n, [(perm[vertices.index(u)], perm[vertices.index(v)]) for u, v in edges])
        for perm in itertools.permutations(range(n))
    )


def test_enumerated_graphs_are_canonical():
    # the enumeration updates every permutation's value one edge at a time;
    # each graph it yields, as labeled, must be the least relabeling
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            vertices = list(g.vertices)
            labeled = _bit_string(n, [(vertices.index(u), vertices.index(v)) for u, v in g.edges])
            assert labeled == _reference_canonical(vertices, g.edges)


@st.composite
def open_graphs(draw):
    """Random graph on up to 8 vertices with |I| = |O|, sometimes I != O."""
    n = draw(st.integers(1, 8))
    vertices = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(vertices, 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    order = draw(st.permutations(vertices))
    size = draw(st.integers(0, n))
    inputs = order[:size]
    outputs = draw(st.permutations(vertices))[:size] if draw(st.booleans()) else inputs
    return vertices, edges, inputs, outputs


def _flow_key(flow):
    return None if flow is None else (flow_to_json(flow), sorted(flow.precedence))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(open_graphs())
def test_with_io_carries_adjacency_caches(case):
    vertices, edges, inputs, outputs = case
    warm = make_graph(vertices, edges)
    warm.neighbor_masks  # build the cache before with_io
    carried = with_io(warm, inputs, outputs)
    fresh = Graph(carried.vertices, carried.edges, carried.inputs, carried.outputs)
    assert carried.neighbor_masks is warm.neighbor_masks
    assert carried.neighbor_masks == fresh.neighbor_masks
    # effective_graph keeps exactly the edges with an endpoint outside I,
    # and builds its own masks for them
    effective = effective_graph(carried)
    outside = set(vertices) - carried.inputs
    assert effective.edges == {(u, v) for u, v in carried.edges if u in outside or v in outside}
    assert (effective.vertices, effective.inputs, effective.outputs) == (
        carried.vertices, carried.inputs, carried.outputs
    )
    rebuilt = make_graph(vertices, effective.edges)
    assert effective.neighbor_masks == rebuilt.neighbor_masks
    cold = with_io(make_graph(vertices, edges), inputs, outputs)
    assert _flow_key(search_gflow_yz(carried)) == _flow_key(search_gflow_yz(cold))


@st.composite
def flows_on_graphs(draw):
    """A graph on up to 6 vertices, whose vertex order is not the labels'
    sort order, with mixed planes and a flow: a searched YZ witness, or a
    random correction map on a random layering, usually invalid and now and
    then malformed in one place."""
    n = draw(st.integers(1, 6))
    vertices = draw(st.permutations([f"v{i}" for i in range(n)]))
    pairs = list(itertools.combinations(vertices, 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    inputs = draw(st.sets(st.sampled_from(vertices)))
    outputs = draw(st.sets(st.sampled_from(vertices)))
    graph = make_graph(vertices, edges, inputs, outputs)
    if len(inputs) == len(outputs) and draw(st.booleans()):
        flow = search_gflow_yz(graph)
        if flow is not None:
            return graph, yz_planes(graph), flow
    measured = [v for v in vertices if v not in outputs]
    planes = {v: draw(st.sampled_from(PLANES)) for v in measured}
    allowed = [v for v in vertices if v not in inputs]
    g = {v: frozenset(draw(st.sets(st.sampled_from(allowed)))) if allowed else frozenset() for v in measured}
    depth = {v: draw(st.integers(0, 3)) for v in vertices}
    layers = [frozenset(v for v in vertices if depth[v] == d) for d in range(4)]
    layers = [layer for layer in layers if layer]
    ordered = [(v, u) for v in vertices for u in vertices if depth[v] < depth[u]]
    precedence = set(ordered) if draw(st.booleans()) or not ordered else draw(st.sets(st.sampled_from(ordered)))
    fault = draw(st.sampled_from([None] * 6 + ["plane", "g domain", "plane domain", "input", "outside"]))
    if fault == "plane" and measured:
        planes[draw(st.sampled_from(measured))] = "XX"
    elif fault == "g domain":
        if measured and draw(st.booleans()):
            del g[draw(st.sampled_from(measured))]
        elif outputs:
            g[draw(st.sampled_from(sorted(outputs)))] = frozenset()
    elif fault == "plane domain" and measured:
        del planes[draw(st.sampled_from(measured))]
    elif fault == "input" and measured and inputs:
        v = draw(st.sampled_from(measured))
        g[v] |= {draw(st.sampled_from(sorted(inputs)))}
    elif fault == "outside":
        layers.append(frozenset({"zz"}))
        if measured and draw(st.booleans()):
            g[draw(st.sampled_from(measured))] |= {"zz"}
    return graph, planes, GFlow(g=g, precedence=frozenset(precedence), layers=tuple(layers))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(flows_on_graphs())
def test_mask_flow_checks_match_the_set_route(case):
    graph, planes, flow = case
    try:
        expected = reference.verify_gflow(graph, planes, flow)
    except MalformedFlowError as exc:
        with pytest.raises(MalformedFlowError) as raised:
            verify_gflow(graph, planes, flow)
        assert str(raised.value) == str(exc)
    else:
        assert verify_gflow(graph, planes, flow) == expected
    if set().union(*flow.layers) == set(graph.vertices):
        assert witness_structure(flow, graph) == reference.witness_structure(flow, graph)
        after = _after_masks(graph.vertices, flow)
        pairs = {(v, u) for i, v in enumerate(graph.vertices) for j, u in enumerate(graph.vertices) if after[i] >> j & 1}
        assert pairs == reference.closure(flow)
    else:
        with pytest.raises(MalformedFlowError, match="layering must partition the vertex set"):
            witness_structure(flow, graph)


@st.composite
def routed_layout_fields(draw):
    """The fields of a random layout on up to 6 data qubits, in
    `ParityLayout` order, whose CNOT list realises every set: each parity
    routed directly or through earlier parity qubits."""
    n = draw(st.integers(1, 6))
    data = tuple(str(i) for i in range(1, n + 1))
    nonempty = st.frozensets(st.sampled_from(data), min_size=1)
    sets = draw(st.lists(nonempty, max_size=5, unique=True))
    parity = tuple(f"p{j}" for j in range(len(sets)))
    constraints = []
    for j, s in enumerate(sets):
        rest = set(s)
        for k in range(j):
            if sets[k] <= rest and draw(st.booleans()):
                constraints.append((parity[k], parity[j]))
                rest -= sets[k]
        constraints.extend((q, parity[j]) for q in sorted(rest, key=data.index))
    return n, data, parity, dict(zip(parity, sets)), tuple(constraints)


def parity_layouts():
    """Random layouts built from `routed_layout_fields`."""
    return routed_layout_fields().map(lambda fields: ParityLayout(*fields))


@st.composite
def layout_fields(draw):
    """Layout fields whose CNOT list may not realise the sets: a routed
    list sometimes broken by a dropped or an extra CNOT, or a CNOT list
    drawn at random."""
    n, data, parity, sets, routed = draw(routed_layout_fields())
    qubits = data + parity
    constraints = list(routed)
    if parity and draw(st.booleans()):
        constraints = draw(st.lists(st.tuples(st.sampled_from(qubits), st.sampled_from(parity)), max_size=12))
        constraints = [(c, t) for c, t in constraints if c != t]
    else:
        if constraints and draw(st.booleans()):
            del constraints[draw(st.integers(0, len(constraints) - 1))]
        if parity and draw(st.booleans()):
            extra = (draw(st.sampled_from(qubits)), draw(st.sampled_from(parity)))
            if extra[0] != extra[1]:
                constraints.insert(draw(st.integers(0, len(constraints))), extra)
    return n, data, parity, sets, tuple(constraints)


def _reference_constraint_report(n, data, parity, sets, constraints):
    """Run the CNOTs on every data basis state, first data qubit most
    significant; the refusal naming the first failing state and parity
    qubit, or None when every state passes."""
    for x in range(1 << n):
        bits = {q: x >> (n - 1 - i) & 1 for i, q in enumerate(data)}
        bits.update(dict.fromkeys(parity, 0))
        for c, t in constraints:
            bits[t] ^= bits[c]
        for p in parity:
            if bits[p] != sum(bits[q] for q in sets[p]) % 2:
                return f"constraints do not realise the parity set of {p!r}: wrong on data basis state {x:0{n}b}"
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(layout_fields())
def test_validate_constraints_matches_basis_state_simulation(fields):
    """A layout is refused at construction exactly when a basis-state run
    of its CNOTs leaves a parity qubit wrong, naming the same state and
    parity qubit."""
    expected = _reference_constraint_report(*fields)
    if expected is None:
        ParityLayout(*fields)
    else:
        with pytest.raises(ValueError) as refusal:
            ParityLayout(*fields)
        assert str(refusal.value) == expected


_PAULI = {
    (0, 0): np.eye(2),
    (1, 0): np.array([[0, 1], [1, 0]]),
    (1, 1): np.array([[0, -1j], [1j, 0]]),
    (0, 1): np.array([[1, 0], [0, -1]]),
}


HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def _dense(p: PauliString) -> np.ndarray:
    out = np.array([[p.sign]], dtype=complex)
    for i in range(len(p.labels)):
        out = np.kron(out, _PAULI[(p.x >> i & 1, p.z >> i & 1)])
    return out


def _signed_elements(group: StabilizerGroup) -> set:
    """All 2^k products of generator subsets, as dense matrices rounded to keys."""
    n = len(group.labels)
    elements = set()
    for bits in itertools.product((0, 1), repeat=len(group.generators)):
        m = np.eye(2**n, dtype=complex)
        for use, g in zip(bits, group.generators):
            if use:
                m = m @ _dense(g)
        elements.add(tuple(np.round(np.concatenate([m.real.ravel(), m.imag.ravel()])).astype(int)))
    return elements


def _commuting_independent(n: int, candidates) -> list[PauliString]:
    """Greedily keep candidates that commute with, and lie outside the span of, those kept."""
    labels = tuple(str(i) for i in range(n))
    kept: list[PauliString] = []
    words: list[tuple[int, int]] = []
    span = {0}
    for x, z, sign in candidates:
        word = (x << n) | z
        if word in span:
            continue
        if any((bin(x & kz).count("1") + bin(z & kx).count("1")) % 2 for kx, kz in words):
            continue
        span |= {s ^ word for s in span}
        words.append((x, z))
        kept.append(PauliString(labels, x, z, sign))
    return kept


def _signed_words(n: int):
    """(x, z, sign) of a random signed Pauli string on n qubits."""
    return st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1), st.sampled_from((1, -1)))


@st.composite
def group_pairs(draw):
    n = draw(st.integers(2, 4))
    pauli = _signed_words(n)
    a = _commuting_independent(n, draw(st.lists(pauli, max_size=10)))
    if draw(st.booleans()):
        # the same group, or one sign away, written with other generators
        b = list(a)
        if len(b) >= 2:
            for _ in range(draw(st.integers(1, 6))):
                i, j = draw(st.permutations(range(len(b))))[:2]
                b[i] = multiply(b[i], b[j])
        if b and draw(st.booleans()):
            i = draw(st.integers(0, len(b) - 1))
            b[i] = PauliString(b[i].labels, b[i].x, b[i].z, -b[i].sign)
        b = draw(st.permutations(b))
    else:
        b = _commuting_independent(n, draw(st.lists(pauli, max_size=10)))
    labels = tuple(str(i) for i in range(n))
    return StabilizerGroup(labels, tuple(a)), StabilizerGroup(labels, tuple(b))


@FEW
@given(group_pairs())
def test_groups_equal_matches_brute_force(pair):
    a, b = pair
    assert groups_equal(a, b) == (_signed_elements(a) == _signed_elements(b))


@st.composite
def string_pairs(draw):
    n = draw(st.integers(1, 4))
    labels = tuple(str(i) for i in range(n))
    return tuple(PauliString(labels, *draw(_signed_words(n))) for _ in range(2))


@FEW
@given(string_pairs())
def test_multiply_matches_dense_product(pair):
    """A product of Pauli strings is Hermitian exactly when its phase is real."""
    a, b = pair
    product = _dense(a) @ _dense(b)
    if np.allclose(product, product.conj().T):
        assert np.allclose(_dense(multiply(a, b)), product)
    else:
        with pytest.raises(PhaseError):
            multiply(a, b)


@st.composite
def groups_and_subsets(draw):
    n = draw(st.integers(1, 4))
    group = _commuting_independent(n, draw(st.lists(_signed_words(n), max_size=8)))
    labels = tuple(str(i) for i in range(n))
    return StabilizerGroup(labels, tuple(group)), draw(st.sets(st.sampled_from(labels)))


@FEW
@given(groups_and_subsets())
def test_hadamard_conjugate_matches_dense_conjugation(case):
    group, subset = case
    layer = np.eye(1)
    for q in group.labels:
        layer = np.kron(layer, HADAMARD if q in subset else np.eye(2))
    conjugated = hadamard_conjugate(group, subset)
    assert len(conjugated.generators) == len(group.generators)
    for g, h in zip(group.generators, conjugated.generators):
        assert np.allclose(_dense(h), layer @ _dense(g) @ layer)


# the YZ axis at theta = +-pi/2 has z = +-6e-17: its projector rows differ
# in norm by one rounding step, so only the axis can say which row to keep
AXES = {
    "x": (1.0, 0.0, 0.0),
    "+z": (0.0, 0.0, 1.0),
    "-z": (0.0, 0.0, -1.0),
    "yz_tie": yz_axis(math.pi / 2),
    "yz_tie_negative": yz_axis(-math.pi / 2),
}


def _projector(axis, outcome) -> np.ndarray:
    x, y, z = axis
    return 0.5 * (np.eye(2) + outcome * np.array([[z, x - 1j * y], [x + 1j * y, -z]]))


@st.composite
def measurement_steps(draw):
    """A random state of 1-6 qubits, a qubit and axis to measure, and
    correction sets on the other qubits. Some states hold the measured qubit
    in an eigenstate of the axis, so that one outcome has probability 0."""
    n = draw(st.integers(1, 6))
    labels = tuple(f"q{i}" for i in range(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", *AXES]))
    if kind == "random":
        v = rng.normal(size=3)
        axis = tuple(float(c) for c in v / np.linalg.norm(v))
    else:
        axis = AXES[kind]
    pos = draw(st.integers(0, n - 1))
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    eigen = draw(st.sampled_from([None, 1, -1]))
    if eigen is not None:
        _, vectors = np.linalg.eigh(_projector(axis, eigen))
        rest = rng.normal(size=2 ** (n - 1)) + 1j * rng.normal(size=2 ** (n - 1))
        amps = np.moveaxis(np.multiply.outer(vectors[:, 1], rest).reshape((2,) * n), 0, pos).reshape(-1)
    state = Statevector(labels, amps / np.linalg.norm(amps))
    others = [q for q in labels if q != labels[pos]]
    pauli_sets = st.sets(st.sampled_from(others), min_size=1) if others else st.just(set())
    return state, labels[pos], axis, draw(pauli_sets), draw(pauli_sets)


def _reference_step(state, q, axis, outcome, xs, zs):
    """project, then on -1 the corrections one Pauli at a time, before the qubit goes."""
    probability, projected = project(state, q, axis, outcome)
    if outcome == -1:
        for u in sorted(xs):
            projected = apply_pauli_x(projected, u)
        for u in sorted(zs):
            projected = apply_pauli_z(projected, u)
    return probability, projected


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(measurement_steps())
def test_fused_measure_step_matches_project_then_discard(case):
    state, q, axis, xs, zs = case
    schedule = compile_plan(state.labels, [q], lambda _: (xs, zs))
    for outcome in (1, -1):
        try:
            probability, projected = _reference_step(state, q, axis, outcome, xs, zs)
        except ZeroProbabilityError:
            with pytest.raises(ZeroProbabilityError):
                run_schedule(schedule, state.amplitudes, [axis], [outcome])
            continue
        out, record = run_schedule(schedule, state.amplitudes, [axis], [outcome])
        assert [(e.qubit, e.outcome) for e in record] == [(q, outcome)]
        assert abs(record[0].probability - probability) <= 1e-12
        reference = discard_qubit(projected, q, axis, outcome)
        assert out.labels == reference.labels
        assert np.max(np.abs(out.amplitudes - reference.amplitudes), initial=0.0) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(open_graphs(), st.integers(0, 2**32 - 1))
def test_phase_vector_graph_state_matches_cz_gates(case, seed):
    vertices, edges, inputs, outputs = case
    g = make_graph(vertices, edges, inputs, outputs)
    rng = np.random.default_rng(seed)
    # psi lists the inputs in a drawn order, not the graph's
    amps = rng.normal(size=2 ** len(inputs)) + 1j * rng.normal(size=2 ** len(inputs))
    psi = Statevector(tuple(inputs), amps / np.linalg.norm(amps))
    reference = psi
    for v in vertices:
        if v not in inputs:
            reference = append_qubit(reference, v, (1 / math.sqrt(2), 1 / math.sqrt(2)))
    entangle = [cz(u, v) for u, v in sorted(edges) if not (u in inputs and v in inputs)]
    reference = apply_circuit(reference, entangle)
    out = prepare_graph_state(g, psi)
    assert out.labels == reference.labels
    assert np.max(np.abs(out.amplitudes - reference.amplitudes)) <= 1e-14


@st.composite
def ancilla_appends(draw, kinds=("fits", "present", "over_cap")):
    """A random register of 1-8 qubits and 1-4 new labels, each with a
    parity set of register qubits (empty for |0>), that fit the qubit cap,
    or with one label already in the register, or over a cap lowered below
    the new size."""
    n = draw(st.integers(1, 8))
    labels = [f"q{i}" for i in range(n)]
    state = random_state(labels, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    new = [f"a{i}" for i in range(draw(st.integers(1, 4)))]
    kind = draw(st.sampled_from(kinds))
    cap = simulator.DEFAULT_QUBIT_CAP
    if kind == "present":
        new[draw(st.integers(0, len(new) - 1))] = draw(st.sampled_from(labels))
    elif kind == "over_cap":
        cap = draw(st.integers(n, n + len(new) - 1))
    sets = {q: draw(st.frozensets(st.sampled_from(labels))) for q in new}
    return state, sets, kind, cap


def _append_loop(state, qubits):
    for q in qubits:
        state = append_qubit(state, q, (1, 0))
    return state


def _append_by_cnots(state, sets):
    """The reference route: each new qubit appended in |0>, then a CNOT into
    it from every register qubit its set names."""
    gates = [cnot(c, q) for q, members in sets.items() for c in sorted(members)]
    return apply_circuit(_append_loop(state, sets), gates)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ancilla_appends())
def test_one_row_ancilla_append_matches_the_append_qubit_loop(case):
    state, new, kind, cap = case
    with mock.patch.object(simulator, "DEFAULT_QUBIT_CAP", cap):
        if kind == "fits":
            reference = _append_by_cnots(state, new)
            out = BranchArray.start(state).append_parities(new).state(0)
            assert out.labels == reference.labels
            # equal value for value; np.kron leaves -0.0 where a negative
            # part meets the 0 of |0>, which == counts as equal
            assert np.array_equal(out.amplitudes, reference.amplitudes)
            return
        with pytest.raises(ValueError) as looped:
            _append_loop(state, new)
        with pytest.raises(ValueError) as appended:
            BranchArray.start(state).append_parities(new)
    if kind == "present":
        assert str(appended.value) == str(looped.value)
        assert "already present" in str(looped.value)
    else:
        for caught in (looped, appended):
            assert f"exceeds cap {cap}" in str(caught.value)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ancilla_appends(kinds=("fits",)), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_multi_row_parity_append_matches_cnots_on_every_row(case, rows, seed):
    state, sets, _, _ = case
    rng = np.random.default_rng(seed)
    states = [state] + [random_state(state.labels, rng) for _ in range(rows - 1)]
    branches = BranchArray(state.labels, np.array([row.amplitudes for row in states]), np.zeros((rows, 0)))
    out = branches.append_parities(sets)
    for row, row_state in enumerate(states):
        reference = _append_by_cnots(row_state, sets)
        assert out.labels == reference.labels
        assert np.array_equal(out.amplitudes[row], reference.amplitudes)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(parity_layouts(), st.integers(0, 2**32 - 1))
def test_encode_input_matches_the_encoding_circuit_replay(layout, seed):
    """The encoded state is what the constraint CNOTs leave on |psi, 0..0>,
    parities routed through other parity qubits included."""
    psi = random_state(layout.data_qubits, np.random.default_rng(seed))
    reference = apply_circuit(_append_loop(psi, layout.parity_qubits), encoding_circuit(layout))
    out = encode_input(layout, psi)
    assert out.labels == reference.labels
    assert np.array_equal(out.amplitudes, reference.amplitudes)
