"""Parity layout construction, encoding circuits, constraint validation."""

import tracemalloc

import networkx as nx
import pytest

from parityflow.graph import bipartition_check, neighbors
from parityflow.layout import (
    Gate,
    ALL_PAIRS_MAX_N,
    ParityLayout,
    build_all_pairs_layout,
    cnot,
    encoding_circuit,
    induced_graph,
    layout_from_json,
    layout_to_json,
    realised_parities,
    validate_constraints,
)
from parityflow.simulator import apply_circuit, basis_state


def test_all_pairs_n2():
    layout = build_all_pairs_layout(2)
    assert layout.data_qubits == ("1", "2")
    assert layout.parity_qubits == ("(12)",)
    assert layout.constraints == (("1", "(12)"), ("2", "(12)"))
    assert len(layout.qubits) == 3


def test_all_pairs_bound_is_the_last_n_with_distinct_labels():
    # ParityLayout refuses duplicate labels, so building 111 proves them distinct
    assert ALL_PAIRS_MAX_N == 111
    assert len(build_all_pairs_layout(111).parity_qubits) == 111 * 110 // 2
    # 10**9 runs only once 112 is refused by the bound, not by its labels
    for n in (112, 10**9):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="above 111"):
                build_all_pairs_layout(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # 112's 6,216 labels and sets take over 1 MB


def test_all_pairs_n1():
    layout = build_all_pairs_layout(1)
    assert layout.parity_qubits == ()
    assert layout.constraints == ()


def test_all_pairs_n3_counts():
    layout = build_all_pairs_layout(3)
    assert layout.parity_qubits == ("(12)", "(13)", "(23)")
    assert len(layout.parity_qubits) == 3  # n(n-1)/2
    assert len(layout.qubits) == 6  # n(n+1)/2


def test_all_pairs_rejects_zero():
    with pytest.raises(ValueError):
        build_all_pairs_layout(0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_all_pairs_qubit_counts(n):
    layout = build_all_pairs_layout(n)
    assert len(layout.parity_qubits) == n * (n - 1) // 2
    assert len(layout.qubits) == n * (n + 1) // 2


def test_encoding_circuit_order():
    layout = build_all_pairs_layout(2)
    assert encoding_circuit(layout) == (cnot("1", "(12)"), cnot("2", "(12)"))
    assert encoding_circuit(build_all_pairs_layout(1)) == ()


def test_encoding_circuit_reorder_equivalent_on_basis_states():
    # the two CNOTs of the n=2 layout share only a target and commute;
    # verified by simulating both orders on every basis state
    layout = build_all_pairs_layout(2)
    forward = encoding_circuit(layout)
    backward = tuple(reversed(forward))
    labels = layout.qubits
    for x in range(8):
        bits = format(x, "03b")
        a = apply_circuit(basis_state(labels, bits), forward)
        b = apply_circuit(basis_state(labels, bits), backward)
        assert (a.amplitudes == b.amplitudes).all()


def test_induced_graph_n2_path():
    g = induced_graph(build_all_pairs_layout(2))
    assert set(g.vertices) == {"1", "2", "(12)"}
    assert neighbors(g, "(12)") == {"1", "2"}
    assert g.inputs == {"1", "2"}
    assert g.outputs == g.inputs


def test_induced_graph_n3_is_six_cycle():
    g = induced_graph(build_all_pairs_layout(3))
    assert len(g.vertices) == 6
    assert all(len(neighbors(g, v)) == 2 for v in g.vertices)
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    assert nx.is_connected(h)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_induced_graph_bipartite_with_data_partition(n):
    layout = build_all_pairs_layout(n)
    assert bipartition_check(induced_graph(layout), layout.data_qubits)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_validate_all_pairs(n):
    assert validate_constraints(build_all_pairs_layout(n))


def test_validate_missing_cnot():
    base = build_all_pairs_layout(2)
    broken = ParityLayout(
        base.n, base.data_qubits, base.parity_qubits, base.parity_sets, (("1", "(12)"),)
    )
    report = validate_constraints(broken)
    assert not report
    assert report.counterexample == "01"
    assert report.parity_qubit == "(12)"


def test_validate_chain_with_parity_control():
    # (13) built by routing through (12): x1^x2 then ^x2 ^x3 leaves x1^x3
    layout = ParityLayout(
        3,
        ("1", "2", "3"),
        ("(12)", "(13)"),
        {"(12)": frozenset({"1", "2"}), "(13)": frozenset({"1", "3"})},
        (("1", "(12)"), ("2", "(12)"), ("(12)", "(13)"), ("2", "(13)"), ("3", "(13)")),
    )
    assert validate_constraints(layout)
    # drop one hop and the chain no longer realizes x1^x3
    broken = ParityLayout(
        3,
        ("1", "2", "3"),
        ("(12)", "(13)"),
        {"(12)": frozenset({"1", "2"}), "(13)": frozenset({"1", "3"})},
        (("1", "(12)"), ("2", "(12)"), ("(12)", "(13)"), ("3", "(13)")),
    )
    assert not validate_constraints(broken)


def test_realised_parities_follow_the_chain():
    sets = {"(12)": frozenset({"1", "2"}), "(13)": frozenset({"1", "3"})}
    chain = (("1", "(12)"), ("2", "(12)"), ("(12)", "(13)"), ("2", "(13)"), ("3", "(13)"))
    layout = ParityLayout(3, ("1", "2", "3"), ("(12)", "(13)"), sets, chain)
    assert realised_parities(layout) == sets
    # without the hop through 2, (13) keeps x2 from (12)
    broken = ParityLayout(3, ("1", "2", "3"), ("(12)", "(13)"), sets, chain[:3] + chain[4:])
    assert realised_parities(broken) == {"(12)": sets["(12)"], "(13)": frozenset({"1", "2", "3"})}


def test_constraint_on_one_qubit_rejected():
    with pytest.raises(ValueError, match="control and target coincide"):
        ParityLayout(1, ("1",), ("p",), {"p": frozenset({"1"})}, (("1", "p"), ("p", "p")))


def test_layout_invariants():
    with pytest.raises(ValueError, match="empty"):
        ParityLayout(1, ("1",), ("p",), {"p": frozenset()}, ())
    with pytest.raises(ValueError, match="duplicates"):
        ParityLayout(
            2,
            ("1", "2"),
            ("a", "b"),
            {"a": frozenset({"1", "2"}), "b": frozenset({"1", "2"})},
            (),
        )
    with pytest.raises(ValueError, match="non-parity"):
        ParityLayout(
            2, ("1", "2"), ("a",), {"a": frozenset({"1", "2"})}, (("1", "2"),)
        )


def test_gate_validation():
    with pytest.raises(ValueError, match="unknown gate"):
        Gate("SWAP", ("1", "2"))
    with pytest.raises(ValueError, match="distinct"):
        Gate("CNOT", ("1", "1"))
    with pytest.raises(ValueError, match="angle"):
        Gate("RZ", ("1",))
    with pytest.raises(ValueError, match="angle"):
        Gate("H", ("1",), 0.3)


def test_layout_from_json_rejects_unrealised_parity():
    data = layout_to_json(build_all_pairs_layout(2))
    data["constraints"] = [["1", "(12)"]]
    with pytest.raises(ValueError, match=r"'\(12\)'.*01"):
        layout_from_json(data)


def test_layout_json_round_trip():
    layout = build_all_pairs_layout(3)
    again = layout_from_json(layout_to_json(layout))
    assert again.n == layout.n
    assert again.parity_qubits == layout.parity_qubits
    assert again.parity_sets == layout.parity_sets
    assert again.constraints == layout.constraints
