"""Flow verification, canonical construction, exhaustive search, sweeps."""

import gc
import hashlib
import itertools
import json
import tracemalloc
import weakref
from collections.abc import Sequence
from unittest import mock

import gflow_helpers as reference
import pytest
from test_branches import chained_flow, witnesses

from parityflow import gflow as gflow_module
from parityflow import graph as graph_module
from parityflow.gflow import (
    GFlow,
    MalformedFlowError,
    canonical_yz_gflow,
    flow_from_json,
    flow_to_json,
    measurement_order,
    precedes,
    search_gflow_yz,
    verify_gflow,
    witness_structure,
    yz_bipartite_sweep,
    yz_planes,
)
from parityflow.graph import (
    bipartition_check,
    effective_graph,
    enumerate_connected_graphs,
    make_graph,
    neighbors,
    odd_neighborhood,
    with_io,
)
from parityflow.layout import build_all_pairs_layout, induced_graph


def p3():
    return make_graph(["1", "2", "3"], [("1", "2"), ("2", "3")], ["1", "3"], ["1", "3"])


def c6(inputs=("1", "3", "5")):
    verts = [str(i) for i in range(1, 7)]
    return make_graph(
        verts, [(verts[i], verts[(i + 1) % 6]) for i in range(6)], inputs, inputs
    )


def triangle(i=(), o=()):
    return make_graph(["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "3")], i, o)


def simple_flow(measured, outputs, g):
    return GFlow(
        g=g,
        precedence=frozenset((v, o) for v in measured for o in outputs),
        layers=(frozenset(measured), frozenset(outputs)),
    )


def test_verify_canonical_p3():
    flow = simple_flow(["2"], ["1", "3"], {"2": frozenset({"2"})})
    assert verify_gflow(p3(), yz_planes(p3()), flow)


def test_verify_condition5_violation():
    # well-formed flow whose correction set omits the vertex itself
    flow = GFlow(
        g={"2": frozenset()},
        precedence=frozenset(),
        layers=(frozenset({"2"}), frozenset({"1", "3"})),
    )
    result = verify_gflow(p3(), yz_planes(p3()), flow)
    assert not result
    assert result.violations[0].vertex == "2"
    assert result.violations[0].condition == 5


def test_verify_xy_plane_line():
    # 1-2-3 with I={1}, O={3}: XY flow g(1)={2}, g(2)={3}, order 1 < 2 < 3.
    # Condition 3 wants v outside g(v) and inside Odd(g(v)):
    # Odd({2}) = {1, 3} contains 1, and Odd({3}) = {2} contains 2.
    g = make_graph(["1", "2", "3"], [("1", "2"), ("2", "3")], ["1"], ["3"])
    flow = GFlow(
        g={"1": frozenset({"2"}), "2": frozenset({"3"})},
        precedence=frozenset({("1", "2"), ("2", "3")}),
        layers=(frozenset({"1"}), frozenset({"2"}), frozenset({"3"})),
    )
    planes = {"1": "XY", "2": "XY"}
    assert verify_gflow(g, planes, flow)


def test_verify_malformed_domain_raises():
    flow = simple_flow(["2"], ["1", "3"], {"2": frozenset({"2"}), "1": frozenset({"1"})})
    with pytest.raises(MalformedFlowError, match="domain"):
        verify_gflow(p3(), yz_planes(p3()), flow)


def test_verify_malformed_layering():
    with pytest.raises(MalformedFlowError, match="layer"):
        GFlow(
            g={"2": frozenset({"2"})},
            precedence=frozenset({("2", "1")}),
            layers=(frozenset({"2", "1"}),),  # layering contradicts precedence
        )


def test_gflow_rejects_vertex_in_two_layers():
    with pytest.raises(MalformedFlowError, match="two layers"):
        GFlow(g={}, precedence=frozenset(), layers=(frozenset({"1"}), frozenset({"1"})))


def test_precedes_is_transitive_closure():
    flow = GFlow(
        g={"a": frozenset({"a"}), "b": frozenset({"b"})},
        precedence=frozenset({("a", "b"), ("b", "c")}),
        layers=(frozenset({"a"}), frozenset({"b"}), frozenset({"c"})),
    )
    assert precedes(flow, "a", "b")
    assert precedes(flow, "a", "c")
    assert not precedes(flow, "c", "a")


def c4_flow():
    """C4 with inputs 1, 3: g(2) = {2, 4}, so 2 is measured before 4."""
    c4 = make_graph(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")], ["1", "3"], ["1", "3"])
    flow = GFlow(
        g={"2": frozenset({"2", "4"}), "4": frozenset({"4"})},
        precedence=frozenset({("2", "4"), ("2", "1"), ("2", "3"), ("4", "1"), ("4", "3")}),
        layers=(frozenset({"2"}), frozenset({"4"}), frozenset({"1", "3"})),
    )
    return c4, flow


def test_measurement_order_accepts_exactly_the_linear_extensions():
    """Every permutation of the measured vertices of the n <= 5 witnesses
    with at most 4 of them, of their chained flows in the default order and
    its reverse, and of the C4 flow, against the reference closure."""
    cases = [c4_flow()]
    for graph, flow in witnesses():
        default = measurement_order(graph, flow)
        cases.append((graph, flow))
        for chain in (default, default[::-1]):
            cases.append((graph, chained_flow(graph, flow, chain, lambda v, u: True)))
    for graph, flow in cases:
        pairs = reference.closure(flow)
        for v in graph.vertices:
            assert not precedes(flow, v, "outside") and not precedes(flow, "outside", v)
            for u in graph.vertices:
                assert precedes(flow, v, u) == ((v, u) in pairs)
        measured = [v for v in graph.vertices if v not in graph.outputs]
        for order in itertools.permutations(measured):
            # the first v placed after a u it must precede, and the first such u
            clash = next(((v, u) for i, v in enumerate(order) for u in order[:i] if (v, u) in pairs), None)
            if clash is None:
                assert measurement_order(graph, flow, list(order)) == order
                continue
            with pytest.raises(ValueError) as info:
                measurement_order(graph, flow, order)
            assert str(info.value) == f"order violates the flow: {clash[0]!r} must precede {clash[1]!r}"
        default = measurement_order(graph, flow)
        assert not any((v, u) in pairs for i, v in enumerate(default) for u in default[:i])


def test_canonical_p3():
    flow = canonical_yz_gflow(p3())
    assert flow.g == {"2": frozenset({"2"})}
    assert flow.layers == (frozenset({"2"}), frozenset({"1", "3"}))
    assert verify_gflow(p3(), yz_planes(p3()), flow)


def test_canonical_c6():
    g = c6()
    flow = canonical_yz_gflow(g)
    assert flow.g == {v: frozenset({v}) for v in ("2", "4", "6")}
    assert flow.layers[0] == frozenset({"2", "4", "6"})
    assert verify_gflow(g, yz_planes(g), flow)


def test_canonical_measures_in_a_single_layer():
    # all measured vertices mutually incomparable: one measured layer, then outputs
    for g in (p3(), c6()):
        flow = canonical_yz_gflow(g)
        assert len(flow.layers) == 2
        assert flow.layers[0] == frozenset(g.vertices) - g.inputs
        measured = list(flow.g)
        for v in measured:
            for u in measured:
                assert not precedes(flow, v, u)


def test_canonical_rejects_triangle():
    with pytest.raises(ValueError, match="an edge joins two vertices outside the inputs"):
        canonical_yz_gflow(triangle(("1",), ("1",)))


def test_canonical_names_inputs_that_differ_from_outputs():
    # a bipartite path, but its outputs are not its inputs
    g = make_graph(["1", "2", "3"], [("1", "2"), ("2", "3")], ["1", "3"], ["1"])
    with pytest.raises(ValueError, match="^no canonical flow: inputs differ from outputs$"):
        canonical_yz_gflow(g)


def test_canonical_ignores_edges_inside_the_inputs():
    # the triangle with I = {1, 2} entangles only the path 1-3-2
    g = triangle(("1", "2"), ("1", "2"))
    flow = canonical_yz_gflow(g)
    assert flow.g == {"3": frozenset({"3"})}
    assert verify_gflow(g, yz_planes(g), flow)


def test_canonical_accepts_exactly_the_instances_with_a_flow():
    # every n <= 6 connected graph and input set, O = I: the canonical
    # witness exists where the search finds one, and is the search's witness
    accepted = 0
    for n in range(1, 7):
        for base in enumerate_connected_graphs(n):
            for r in range(n + 1):
                for inputs in itertools.combinations(base.vertices, r):
                    g = with_io(base, inputs, inputs)
                    found = search_gflow_yz(g)
                    try:
                        flow = canonical_yz_gflow(g)
                    except ValueError:
                        assert found is None
                        continue
                    assert found is not None
                    assert flow_to_json(flow) == flow_to_json(found)
                    assert verify_gflow(g, yz_planes(g), flow)
                    accepted += 1
    assert accepted == 2012


def test_every_built_flow_orders_v_only_before_its_correction_and_odd_sets():
    # conditions 1 and 2 ask v < u only for u in g(v) | Odd(g(v)), u != v,
    # and each flow the package builds holds just such pairs: kept sweep
    # witnesses, the searches of the branch tests' witnesses, and
    # canonical flows, on which v < u exactly when u neighbours v
    def assert_pairs_needed(g, flow):
        needed = {(v, u) for v, s in flow.g.items() for u in (s | odd_neighborhood(g, s)) - {v}}
        assert flow.precedence <= needed

    for g, flow in yz_bipartite_sweep(6, io_samples=0, workers=1).witnesses:
        assert_pairs_needed(g, flow)
    for g, _ in witnesses():
        assert_pairs_needed(g, search_gflow_yz(g))
    graphs = [induced_graph(build_all_pairs_layout(n)) for n in range(2, 17)]
    for g in [*graphs, triangle(("1", "2"), ("1", "2")), c6()]:
        flow = canonical_yz_gflow(g)
        assert_pairs_needed(g, flow)
        neighbours = [m if v in flow.g else 0 for v, m in zip(g.vertices, g.neighbor_masks)]
        assert gflow_module._after_masks(g.vertices, flow) == neighbours
        assert len(flow.precedence) == sum(map(int.bit_count, neighbours))
        if len(g.vertices) <= 10:
            for v, u in itertools.product(g.vertices, repeat=2):
                assert precedes(flow, v, u) == (v in flow.g and u in neighbors(g, v))
    big = induced_graph(build_all_pairs_layout(111))
    flow = canonical_yz_gflow(big)
    assert len(flow.precedence) == 111 * 110 == 12210
    assert verify_gflow(big, yz_planes(big), flow).ok


def test_greedy_peel_matches_the_backtracking_reference():
    # every n <= 6 connected graph and every (I, O) with |I| = |O|: the same
    # peel, or None on both
    instances = flows = 0
    for n in range(1, 7):
        full = (1 << n) - 1
        pairs = [(i, o) for i in range(1 << n) for o in range(1 << n) if i.bit_count() == o.bit_count()]
        for base in enumerate_connected_graphs(n):
            odd = gflow_module._odd_table(base)
            assert odd == [base.odd_mask(k) for k in range(1 << n)]
            for inputs, outputs in pairs:
                measured, support = full & ~outputs, full & ~inputs
                # the package peels only I = O: a measured input sticks it at once
                peeled = gflow_module._yz_peel(odd, support) if inputs == outputs else None
                assert peeled == reference.backtracking_yz_peel(base, measured, support)
                instances += 1
                flows += peeled is not None
    assert (instances, flows) == (109248, 2012)


def test_peel_gflow_layers_a_non_canonical_peel_by_longest_path():
    """The 4-cycle a-b-c-d-a with I = O = {a, c}, peeled with g(b) = {b, d}
    and Odd(g(b)) empty, then g(d) = {d} with Odd(g(d)) = {a, c}: d lies in
    g(b), so it follows b, one layer later."""
    graph = make_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], ["a", "c"], ["a", "c"])
    a, b, c, d = (1 << i for i in range(4))
    peeled = [(1, b | d, 0), (3, d, a | c)]
    flow, _, _ = gflow_module._peel_gflow(graph, b | d, peeled, {})
    assert flow.layers == (frozenset({"b"}), frozenset({"d"}), frozenset({"a", "c"}))
    assert flow.precedence == {("b", "d"), ("d", "a"), ("d", "c")}
    assert flow.g == {"b": {"b", "d"}, "d": {"d"}}
    assert verify_gflow(graph, yz_planes(graph), flow).ok


def test_search_finds_flow_on_p3():
    flow = search_gflow_yz(p3())
    assert flow is not None
    assert verify_gflow(p3(), yz_planes(p3()), flow)


def test_search_none_on_triangle_singletons():
    for v in ("1", "2", "3"):
        assert search_gflow_yz(triangle((v,), (v,))) is None
    assert search_gflow_yz(triangle()) is None


def test_search_triangle_two_element_inputs_sees_effective_graph():
    # the edge inside I plays no role: searching K3 with I={1,2} is the same
    # instance as the path 1-3-2, and both sides of the sweep agree on it
    g = triangle(("1", "2"), ("1", "2"))
    flow = search_gflow_yz(g)
    assert flow is not None
    assert bipartition_check(effective_graph(g), g.inputs)
    assert not bipartition_check(g, g.inputs)


def test_search_none_when_inputs_differ_from_outputs():
    g = make_graph(["1", "2", "3"], [("1", "2"), ("2", "3")], ["1"], ["3"])
    assert search_gflow_yz(g) is None


def test_peel_stops_before_its_first_fit_on_a_measured_input(monkeypatch):
    # I = {1}, O = {3}: input 1 is measured but outside every correction set.
    # Each step's fit tests run over the step's `_submasks_by_size`, which
    # the peel fetches before its first fit test; the search never peels.
    def refuse(*args):
        raise AssertionError("_submasks_by_size called")

    monkeypatch.setattr(gflow_module, "_submasks_by_size", refuse)
    g = make_graph(["1", "2", "3"], [("1", "2"), ("2", "3")], ["1"], ["3"])
    assert search_gflow_yz(g) is None


def test_search_builds_no_odd_table_for_a_measured_input(monkeypatch):
    built = []

    def counting(graph):
        built.append(graph)
        return original(graph)

    original = gflow_module._odd_table
    monkeypatch.setattr(gflow_module, "_odd_table", counting)
    assert search_gflow_yz(make_graph(["1", "2", "3"], [("1", "2"), ("2", "3")], ["1"], ["3"])) is None
    assert built == []
    assert search_gflow_yz(p3()) is not None and len(built) == 1


def test_search_requires_equal_io_sizes():
    g = make_graph(["1", "2"], [("1", "2")], ["1"], [])
    with pytest.raises(ValueError, match="\\|I\\| = \\|O\\|"):
        search_gflow_yz(g)


def test_search_cap():
    labels = [str(i) for i in range(9)]
    path = make_graph(labels, list(zip(labels, labels[1:])))
    with pytest.raises(ValueError, match="search cap exceeded: 9 vertices"):
        search_gflow_yz(path)


def test_search_witnesses_verify_over_all_small_instances():
    for n in range(1, 5):
        for base in enumerate_connected_graphs(n):
            for r in range(n + 1):
                for inputs in itertools.combinations(base.vertices, r):
                    g = with_io(base, inputs, inputs)
                    flow = search_gflow_yz(g)
                    if flow is not None:
                        assert verify_gflow(g, yz_planes(g), flow)
                        structure = witness_structure(flow, g)
                        assert structure.maximal_self_corrections
                        assert structure.no_edges_in_correction_union


def test_search_agrees_with_effective_bipartiteness_n4():
    for base in enumerate_connected_graphs(4):
        for r in range(5):
            for inputs in itertools.combinations(base.vertices, r):
                g = with_io(base, inputs, inputs)
                found = search_gflow_yz(g) is not None
                expected = bipartition_check(effective_graph(g), inputs)
                assert found == expected


def test_witness_structure_flags_bad_flow():
    # hand-built self-correcting map on the triangle fails verification
    # (conditions 1-2 force a cycle), and its structure report sees the edge
    g = triangle(("1",), ("1",))
    flow = GFlow(
        g={"2": frozenset({"2"}), "3": frozenset({"3"})},
        precedence=frozenset(),
        layers=(frozenset({"2", "3"}), frozenset({"1"})),
    )
    assert not verify_gflow(g, yz_planes(g), flow)
    structure = witness_structure(flow, g)
    assert not structure.no_edges_in_correction_union


def test_sweep_small():
    report = yz_bipartite_sweep(3, io_samples=20, workers=1)
    assert report.ok
    assert report.per_n[3]["graphs"] == 2
    assert report.per_n[3]["instances"] == 16
    assert report.io_mismatch_cases == 20
    assert report.io_mismatch_flows_found == 0
    data = report.to_json()
    assert data["ok"] is True
    assert data["per_n"]["3"]["flows_found"] == data["per_n"]["3"]["bipartite_instances"]


def test_search_witness_choice_is_pinned():
    # every n <= 6 witness the search picks, in sweep order: the first
    # fitting correction set by (size, value), for the lowest peelable vertex
    report = yz_bipartite_sweep(6, io_samples=0, workers=1)
    witnesses = [
        [sorted(g.edges), sorted(g.inputs), flow_to_json(f), sorted(f.precedence)]
        for g, f in report.witnesses
    ]
    assert len(witnesses) == 2012
    digest = hashlib.sha256(json.dumps(witnesses).encode()).hexdigest()
    assert digest == "4e17a442b38a6aaf35ed7dfdad9643da388a38386a60fb64e880d517ff64a866"


def test_sweep_bipartite_counts_match_the_effective_graph_route():
    # the sweep reads bipartiteness off the adjacency masks; the public
    # route builds each effective graph and checks it
    report = yz_bipartite_sweep(6, io_samples=0, workers=1, keep_witnesses=False)
    for n in range(1, 7):
        expected = 0
        for base in enumerate_connected_graphs(n):
            for r in range(n + 1):
                for inputs in itertools.combinations(base.vertices, r):
                    g = with_io(base, inputs, inputs)
                    expected += bipartition_check(effective_graph(g), inputs)
        assert report.per_n[n]["bipartite_instances"] == expected


def test_sweep_witnesses_returned():
    report = yz_bipartite_sweep(3, io_samples=0, workers=1)
    assert report.witnesses
    for g, flow in report.witnesses:
        assert verify_gflow(g, yz_planes(g), flow)


def test_sweep_witnesses_are_a_sequence_built_on_access():
    report = yz_bipartite_sweep(4, io_samples=0, workers=1)
    witnesses = report.witnesses
    pairs = list(witnesses)
    assert isinstance(witnesses, Sequence)
    assert len(witnesses) == len(pairs) == sum(counts["flows_found"] for counts in report.per_n.values()) > 2
    for i in (0, 1, -1, -len(pairs)):
        g, flow = witnesses[i]
        assert g == pairs[i][0] and reference.flow_content(g, flow) == reference.flow_content(*pairs[i])
    # two accesses build equal content as fresh objects
    (g, flow), (again, twin) = witnesses[1], witnesses[1]
    assert g == again and g is not again and flow is not twin
    assert reference.flow_content(g, flow) == reference.flow_content(again, twin)
    for out_of_range in (len(pairs), -len(pairs) - 1):
        with pytest.raises(IndexError):
            witnesses[out_of_range]
    with pytest.raises(TypeError):
        witnesses[0:2]
    empty = yz_bipartite_sweep(4, io_samples=0, workers=1, keep_witnesses=False).witnesses
    assert isinstance(empty, Sequence) and len(empty) == 0 and list(empty) == []


def test_sweep_parallel_matches_serial():
    serial = yz_bipartite_sweep(4, io_samples=0, workers=1, keep_witnesses=True)
    parallel = yz_bipartite_sweep(4, io_samples=0, workers=2, keep_witnesses=True)
    assert serial.per_n == parallel.per_n
    assert serial.to_json() == parallel.to_json()
    assert serial.ok and parallel.ok
    assert serial.witnesses
    assert [g for g, _ in serial.witnesses] == [g for g, _ in parallel.witnesses]
    assert [flow_to_json(f) for _, f in serial.witnesses] == [flow_to_json(f) for _, f in parallel.witnesses]


# n <= 2 is two batches, n <= 5 seven (n = 5's 21 graphs are three batches of 8)
@pytest.mark.parametrize(
    "max_n, cpus, workers, started",
    [(2, 8, 64, 2), (5, 8, 64, 7), (5, 3, 64, 3), (5, 8, 2, 2), (5, None, 64, 1)],
)
def test_sweep_pool_starts_no_more_workers_than_batches_or_cpus(monkeypatch, max_n, cpus, workers, started):
    # a fork pool starts all its workers at the first task; this stand-in
    # records the size it is asked for and maps in this process instead
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(gflow_module.os, "cpu_count", lambda: cpus)
    pooled = yz_bipartite_sweep(max_n, io_samples=0, workers=workers)
    assert sizes == [started]
    assert pooled.to_json() == yz_bipartite_sweep(max_n, io_samples=0, workers=1).to_json()


# explicit ids keep these cases' names stable for runs compared across versions
@pytest.mark.parametrize(
    "kwargs, message",
    [
        pytest.param({"io_samples": -5, "workers": 1}, "io_samples=-5", id="kwargs0-None-io_samples=-5"),
        pytest.param({"workers": 0}, "workers=0", id="kwargs1-None-workers=0"),
        pytest.param({"workers": -3}, "workers=-3", id="kwargs2-None-workers=-3"),
        pytest.param({"seed": -1, "workers": 1}, "seed=-1", id="kwargs3-None-seed=-1"),
    ],
)
def test_sweep_rejects_negative_samples_and_workers_below_one(kwargs, message):
    # a negative sample count would draw nothing and read as a passed
    # I != O check; a worker count below one has no meaning; a negative
    # seed is refused before the sweep runs, not after
    with pytest.raises(ValueError, match=message):
        yz_bipartite_sweep(2, **kwargs)


def test_sweep_builds_each_graph_once(monkeypatch):
    built = []

    def counting(n, mask):
        built.append((n, mask))
        return original(n, mask)

    original = graph_module._graph_from_mask
    monkeypatch.setattr(graph_module, "_graph_from_mask", counting)
    report = yz_bipartite_sweep(5, io_samples=20, workers=1)
    assert report.ok
    assert len(built) == sum(counts["graphs"] for counts in report.per_n.values()) == 31


def test_sweep_builds_open_graphs_only_for_flows_found(monkeypatch):
    # instances are decided on masks, so the sweep runs with_io once per
    # I != O sample, and its witnesses once per access, each of a flow
    # found: never once per instance
    calls = []

    def counting(g, inputs, outputs):
        calls.append(1)
        return original(g, inputs, outputs)

    original = gflow_module.with_io
    monkeypatch.setattr(gflow_module, "with_io", counting)
    report = yz_bipartite_sweep(5, io_samples=20, workers=1)
    assert report.ok
    assert len(calls) == report.io_mismatch_cases == 20
    flows = sum(counts["flows_found"] for counts in report.per_n.values())
    instances = sum(counts["instances"] for counts in report.per_n.values())
    assert len(list(report.witnesses)) == flows
    assert len(calls) == flows + report.io_mismatch_cases < instances


def test_kept_sweep_builds_input_sets_only_on_access(monkeypatch):
    # a flow build reads its outputs and each correction set off the graph
    # (1 + |g| calls), once per distinct flow in a serial sweep's one batch
    # per n. A kept witness is its base graph and input mask, so the sweep
    # builds no input set; each access builds one and searches its flow
    calls = []

    def counting(self, mask):
        calls.append(mask)
        return original(self, mask)

    original = graph_module.Graph.vertices_of
    monkeypatch.setattr(graph_module.Graph, "vertices_of", counting)
    report = yz_bipartite_sweep(6, io_samples=0, workers=1)
    swept = len(calls)
    witnesses = list(report.witnesses)
    flows = {reference.flow_content(g, flow): flow for g, flow in witnesses}.values()
    assert (len(witnesses), len(flows)) == (2012, 560)
    assert swept == sum(1 + len(flow.g) for flow in flows)
    assert len(calls) - swept == sum(2 + len(flow.g) for _, flow in witnesses)


def test_sweep_batch_input_sets_follow_each_base_graphs_labels():
    # one batch on two vertex tuples: an input mask stands for other labels
    # on each, so the input sets it keeps must not be shared across them
    path = [("1", "2"), ("2", "3")]
    letters = {"1": "a", "2": "b", "3": "c"}
    bases = [make_graph("123", path), make_graph("abc", [(letters[u], letters[v]) for u, v in path])]
    *_, kept, _ = gflow_module._sweep_batch((3, bases, True))
    # each witness comes back as its own base graph and an input mask
    assert [base.vertices for base, _ in kept] == [("1", "2", "3")] * 5 + [("a", "b", "c")] * 5
    assert all(base is bases[0] or base is bases[1] for base, _ in kept)
    witnesses = gflow_module.Witnesses(tuple(kept))
    numbered = [g.inputs for g, _ in witnesses if g.vertices == ("1", "2", "3")]
    lettered = [g.inputs for g, _ in witnesses if g.vertices == ("a", "b", "c")]
    assert len(numbered) + len(lettered) == len(witnesses)
    assert lettered == [frozenset(letters[v] for v in inputs) for inputs in numbered]
    # V - I spans no edge of the path 1-2-3
    assert set(numbered) == {frozenset(s) for s in ("2", "12", "13", "23", "123")}
    # and each flow is on its own graph's labels, not on the other's
    assert all(verify_gflow(g, yz_planes(g), flow).ok for g, flow in witnesses)


def test_kept_witnesses_share_equal_label_sets():
    report = yz_bipartite_sweep(5, io_samples=0, workers=1)
    sets = []
    for g, flow in report.witnesses:
        sets += [g.inputs, g.outputs, *flow.g.values(), *flow.layers]
    assert len({id(s) for s in sets}) == len(set(sets)) < len(sets)


def test_kept_sweep_retains_under_300_bytes_per_witness():
    # every cache starts cold, so the count includes the shared sets' table
    # and the base graphs; about 2,100 bytes when each witness froze its own
    # sets, about 510 with shared sets while each held an open graph and its
    # batch's flow, about 226 as a base graph and an input mask
    yz_bipartite_sweep(2, io_samples=1, workers=1)  # loads what the first sweep imports
    for module in (graph_module, gflow_module):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and value.__module__ == module.__name__:
                value.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = yz_bipartite_sweep(6, io_samples=0, workers=1)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(report.witnesses) == 2012
    assert retained / len(report.witnesses) < 300


def test_sweep_witnesses_equal_the_public_search():
    report = yz_bipartite_sweep(5, io_samples=0, workers=1)
    swept = iter(report.witnesses)
    for n in range(1, 6):
        for base in enumerate_connected_graphs(n):
            for mask in range(1 << n):
                inputs = [v for i, v in enumerate(base.vertices) if mask >> i & 1]
                g = with_io(base, inputs, inputs)
                flow = search_gflow_yz(g)
                if flow is None:
                    continue
                sg, sflow = next(swept)
                assert (sorted(sg.edges), sorted(sg.inputs), sg.outputs) == (sorted(g.edges), sorted(g.inputs), g.outputs)
                assert flow_to_json(sflow) == flow_to_json(flow)
                assert sorted(sflow.precedence) == sorted(flow.precedence)
    assert next(swept, None) is None


@pytest.mark.parametrize("max_n, distinct", [(5, 132), (6, 560)])
def test_serial_sweep_builds_each_distinct_flow_once(monkeypatch, max_n, distinct):
    # one batch per n: the sweep builds one GFlow per distinct flow
    built = []

    def counting(*args, _real=gflow_module.GFlow, **kwargs):
        built.append(1)
        return _real(*args, **kwargs)

    monkeypatch.setattr(gflow_module, "GFlow", counting)
    witnesses = yz_bipartite_sweep(max_n, io_samples=0, workers=1).witnesses
    assert len(built) == distinct
    assert len({reference.flow_content(g, flow) for g, flow in witnesses}) == distinct


def _count_calls(monkeypatch, *names) -> dict[str, list]:
    """Patch each named `gflow` function to log its positional arguments."""
    calls = {name: [] for name in names}
    for name, log in calls.items():

        def counting(*args, _original=getattr(gflow_module, name), _log=log, **kwargs):
            _log.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(gflow_module, name, counting)
    return calls


def test_sweep_verifies_and_checks_every_witness_once(monkeypatch):
    # a distinct flow is built once but checked on each witness graph, by
    # the two mask cores; the label front-ends run only on a failed check
    calls = _count_calls(monkeypatch, "_flow_violations", "_structure_facts", "verify_gflow", "witness_structure")
    report = yz_bipartite_sweep(5, io_samples=0, workers=1)
    swept = list(calls["_flow_violations"]), list(calls["_structure_facts"])
    witnesses = list(report.witnesses)  # each access checks its flow again
    assert len(witnesses) == 277
    assert len({reference.flow_content(g, flow) for g, flow in witnesses}) == 132
    assert calls["verify_gflow"] == calls["witness_structure"] == []
    checks = zip(witnesses, *swept, strict=True)
    for (g, flow), verified, structured in checks:
        measured = (1 << len(g.vertices)) - 1 & ~g.mask_of(g.outputs)
        assert measured == (1 << len(g.vertices)) - 1 & ~g.mask_of(g.inputs)
        corrections = [g.mask_of(flow.g.get(v, ())) for v in g.vertices]
        after = gflow_module._after_masks(g.vertices, flow)
        assert verified[0] is g.neighbor_masks and structured[0] is g.neighbor_masks
        assert verified[1:] == (measured, measured, corrections, (0, 0, measured), after)
        assert structured[1:] == (measured, corrections, after)


def test_sweep_worker_checks_but_drops_witnesses_when_not_kept(monkeypatch):
    calls = _count_calls(monkeypatch, "_flow_violations", "_structure_facts")
    base = make_graph(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4")])
    kept = gflow_module._sweep_batch((4, [base], True))
    dropped = gflow_module._sweep_batch((4, [base], False))
    assert kept[:4] == dropped[:4]
    assert dropped[4] == [] and len(kept[4]) == kept[1]["flows_found"] > 0
    assert len(calls["_flow_violations"]) == len(calls["_structure_facts"]) == 2 * kept[1]["flows_found"]
    assert kept[5] > 0 and dropped[5] > 0


def test_unkept_sweep_builds_no_open_graph(monkeypatch):
    # every check reads the base graph's masks, so only a kept witness or a
    # failed check needs an open graph
    kept = yz_bipartite_sweep(6, io_samples=0, workers=1)
    calls = _count_calls(monkeypatch, "with_io")
    report = yz_bipartite_sweep(6, io_samples=0, workers=1, keep_witnesses=False)
    assert calls["with_io"] == []
    assert report.to_json() == kept.to_json()


def test_unkept_sweep_keeps_no_flow_alive(monkeypatch):
    # each batch's table holds only the masks a check reads: each distinct
    # peel builds one `GFlow`, dead once the sweep returns, kept or not, as
    # is every open graph (here, the I != O samples'). A kept sweep holds
    # only base graphs and input masks
    built = {"GFlow": [], "with_io": []}
    for name, refs in built.items():

        def recording(*args, _real=getattr(gflow_module, name), _refs=refs, **kwargs):
            made = _real(*args, **kwargs)
            _refs.append(weakref.ref(made))
            return made

        monkeypatch.setattr(gflow_module, name, recording)
    reports = [yz_bipartite_sweep(6, io_samples=5, workers=1, keep_witnesses=keep) for keep in (False, True)]
    assert len(built["GFlow"]) == 2 * 560 and len(built["with_io"]) == 2 * 5
    assert all(ref() is None for refs in built.values() for ref in refs)
    dropped, kept = reports
    assert len(dropped.witnesses) == 0 and len(kept.witnesses) == 2012
    assert {type(base) for base, _ in kept.witnesses.kept} == {graph_module.Graph}
    assert {type(mask) for _, mask in kept.witnesses.kept} == {int}
    assert dropped.to_json() == kept.to_json()


def test_unkept_sweep_interns_no_precedence_pairs():
    # no sweep, kept or not, passes a pair set to `graph.shared_set`, whose
    # cache would hold it past the flows an unkept sweep drops
    for max_n, keep in ((6, False), (4, True)):
        with mock.patch.object(gflow_module, "shared_set", wraps=graph_module.shared_set) as shared:
            yz_bipartite_sweep(max_n, io_samples=0, workers=1, keep_witnesses=keep)
        assert shared.call_count > 0
        assert not [call for call in shared.call_args_list if any(isinstance(m, tuple) for m in call.args[0])]


def test_unkept_table_hit_that_fails_its_check_names_the_violations():
    # a table holds no flow, only its masks; a peel valid on the star 1-3-2
    # fails on the path 1-2-3 (Odd({1}) = {2}, measured before 1), and the
    # hit that finds it builds the flow again to name the violation
    star, path = make_graph("123", [("1", "3"), ("2", "3")]), make_graph("123", [("1", "2"), ("2", "3")])
    free = 0b011
    peeled = gflow_module._yz_peel(gflow_module._odd_table(star), free)
    flows = {}
    built, after, corrections = gflow_module._peel_gflow(star, free, peeled, flows)
    assert isinstance(built, GFlow)
    assert list(flows.values()) == [(after, free, corrections)]
    assert gflow_module._peel_gflow(star, free, peeled, flows) == (None, after, corrections)
    with pytest.raises(AssertionError, match="search produced an invalid witness") as raised:
        gflow_module._peel_gflow(path, free, peeled, flows)
    assert "condition=2" in str(raised.value) and "'2' in Odd(g('1'))" in str(raised.value)


def test_discrepancy_rebuilds_its_instance_from_the_report_alone(monkeypatch):
    # a peel that lies once, on an n = 4 instance with a flow: the report's
    # JSON alone must name that instance
    bases, told = [], []
    real_odd, real_peel = gflow_module._odd_table, gflow_module._yz_peel

    def recording_odd(base):
        bases.append(base)
        return real_odd(base)

    def lying(odd, free):
        peeled = real_peel(odd, free)
        if peeled is not None and len(bases[-1].vertices) == 4 and not told:
            told.append((bases[-1], free))
            return None
        return peeled

    monkeypatch.setattr(gflow_module, "_odd_table", recording_odd)
    monkeypatch.setattr(gflow_module, "_yz_peel", lying)
    report = yz_bipartite_sweep(5, io_samples=0, workers=1)
    monkeypatch.undo()
    [(base, free)] = told
    [entry] = json.loads(json.dumps(report.to_json()))["discrepancies"]
    assert not report.ok and (entry["flow_found"], entry["bipartite_with_inputs"]) == (False, True)
    assert entry["n"] == 4
    vertices = sorted({v for edge in entry["edges"] for v in edge})
    rebuilt = make_graph(vertices, [tuple(e) for e in entry["edges"]], entry["inputs"], entry["outputs"])
    flagged = base.vertices_of((1 << 4) - 1 & ~free)
    assert len(vertices) == entry["n"]
    assert {frozenset(e) for e in rebuilt.edges} == {frozenset(e) for e in base.edges}
    assert rebuilt.inputs == rebuilt.outputs == flagged
    assert entry["edges"] == graph_module.graph_to_json(base)["edges"]
    assert search_gflow_yz(rebuilt) is not None


def test_io_mismatch_flow_names_its_instance(monkeypatch):
    # a search that finds a flow on one I != O sample: the report's JSON
    # names that instance, and only its entries differ from a truthful run
    truthful = yz_bipartite_sweep(4, io_samples=6, workers=1).to_json()
    told = []

    def lying(graph):
        if not told:
            told.append(graph)
            return canonical_yz_gflow(p3())
        return None

    monkeypatch.setattr(gflow_module, "search_gflow_yz", lying)
    report = yz_bipartite_sweep(4, io_samples=6, workers=1)
    [graph] = told
    data = json.loads(json.dumps(report.to_json()))
    [entry] = data["discrepancies"]
    assert not report.ok and data["io_mismatch_flows_found"] == 1
    assert graph.inputs != graph.outputs
    assert entry == {
        "n": len(graph.vertices),
        "edges": graph_module.graph_to_json(graph)["edges"],
        "inputs": sorted(graph.inputs),
        "outputs": sorted(graph.outputs),
        "flow_found": True,
        "bipartite_with_inputs": False,
    }
    assert data | {"discrepancies": [], "io_mismatch_flows_found": 0, "ok": True} == truthful


def _search_every_small_open_graph() -> None:
    for n in range(1, 6):
        for base in enumerate_connected_graphs(n):
            for mask in range(1 << n):
                inputs = base.vertices_of(mask)
                search_gflow_yz(with_io(base, inputs, inputs))


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda: yz_bipartite_sweep(5, io_samples=0, workers=1), id="sweep"),
        pytest.param(_search_every_small_open_graph, id="search"),
    ],
)
def test_sweep_witness_check_never_reads_the_peel_table(monkeypatch, run):
    # a table as if vertex 0 lost its lowest neighbour misleads the peel;
    # the witness check, on the graph's own masks, must catch it
    def lossy(graph):
        nbrs = graph.neighbor_masks[0]
        if nbrs:
            lost = (graph.vertices[0], graph.vertices[(nbrs & -nbrs).bit_length() - 1])
            graph = make_graph(graph.vertices, graph.edges - {lost})
        return original(graph)

    original = gflow_module._odd_table
    monkeypatch.setattr(gflow_module, "_odd_table", lossy)
    with pytest.raises(AssertionError, match="search produced an invalid witness") as raised:
        run()
    assert "condition=2" in str(raised.value)


def test_mask_cores_match_the_reference_on_sweep_flows_across_graphs():
    # each flow a serial n <= 5 sweep builds, placed on every base graph
    # with its n and input mask: valid and invalid pairs alike
    flows = {}
    for g, flow in yz_bipartite_sweep(5, io_samples=0, workers=1).witnesses:
        flows.setdefault(reference.flow_content(g, flow), (len(g.vertices), g.mask_of(g.inputs), flow))
    pairs = invalid = broken = 0
    for n, inputs, flow in flows.values():
        for base in enumerate_connected_graphs(n):
            g = with_io(base, base.vertices_of(inputs), base.vertices_of(inputs))
            free = (1 << n) - 1 & ~inputs
            after = gflow_module._after_masks(g.vertices, flow)
            domain, corrections = gflow_module._correction_masks(graph_module._vertex_bits(g.vertices), flow)
            assert domain == free
            found = gflow_module._flow_violations(g.neighbor_masks, free, free, corrections, (0, 0, free), after)
            violations = gflow_module._violations(g.vertices, found)
            expected = reference.verify_gflow(g, yz_planes(g), flow)
            assert (not violations, violations) == (expected.ok, expected.violations)
            facts = gflow_module._structure_facts(g.neighbor_masks, free, corrections, after)
            assert gflow_module.WitnessStructure(*facts) == reference.witness_structure(flow, g)
            pairs += 1
            invalid += bool(violations)
            broken += not all(facts)
    assert len(flows) == 132
    assert 0 < invalid < pairs and 0 < broken < pairs


def test_flow_json_round_trip():
    g = c6()
    flow = canonical_yz_gflow(g)
    planes = yz_planes(g)
    data = flow_to_json(flow, planes)
    again, planes_again = flow_from_json(data)
    assert again.g == flow.g
    assert again.layers == flow.layers
    assert planes_again == planes
    assert verify_gflow(g, planes_again, again)


def test_flow_json_links_each_layer_to_the_next():
    # a causal flow on a path, one vertex per layer: k - 1 precedence pairs
    # where linking every later layer made k(k - 1) / 2
    labels = [str(i) for i in range(2000)]
    g = make_graph(labels, list(zip(labels, labels[1:])), labels[:1], labels[-1:])
    data = {
        "g": {v: [u] for v, u in zip(labels, labels[1:])},
        "layers": [[v] for v in labels],
        "planes": {v: "XY" for v in labels[:-1]},
    }
    flow, planes = flow_from_json(data)
    assert len(flow.precedence) == 1999
    assert verify_gflow(g, planes, flow)


def test_flow_json_order_matches_linking_every_later_layer():
    # the old rule linked each layer to every later one; its closure is the
    # same, an empty layer included
    flows = [(g.vertices, flow) for g, flow in yz_bipartite_sweep(5, io_samples=0, workers=1).witnesses]
    gap = (frozenset({"1"}), frozenset(), frozenset({"2"}))
    flows.append((("1", "2"), GFlow(g={"1": frozenset({"2"})}, precedence=frozenset(), layers=gap)))
    for vertices, flow in flows:
        layers = flow.layers
        every_later = {(v, u) for i, early in enumerate(layers) for late in layers[i + 1 :] for v in early for u in late}
        old = GFlow(g=flow.g, precedence=frozenset(every_later), layers=layers)
        again, _ = flow_from_json(flow_to_json(flow))
        assert gflow_module._after_masks(vertices, again) == gflow_module._after_masks(vertices, old)
    assert len(flows) == 278
