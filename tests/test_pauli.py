"""Signed Pauli algebra and stabilizer-group machinery."""

import numpy as np
import pytest

from parityflow.graph import make_graph, with_io
from parityflow.layout import build_all_pairs_layout, induced_graph
from parityflow.pauli import (
    PauliString,
    PhaseError,
    StabilizerGroup,
    graph_generators,
    group_to_json,
    groups_equal,
    hadamard_conjugate,
    multiply,
    parity_generators,
    pauli_from_ops,
    pauli_to_text,
)

from pauli_helpers import commutes, pauli_from_text

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_text_round_trip():
    labels = ("1", "2", "(12)")
    p = pauli_from_ops(labels, {"1": "Z", "(12)": "Y"}, sign=-1)
    assert pauli_to_text(p) == "-Z_1 Y_(12)"
    assert pauli_from_text(labels, pauli_to_text(p)) == p
    assert pauli_to_text(pauli_from_ops(labels, {})) == "+I"


def test_multiply_agrees_with_matrix_oracle():
    # every single-qubit product with a real phase, checked against 2x2 matrices
    mats = {"X": X, "Y": Y, "Z": Z}
    labels = ("q",)
    for a in "XYZ":
        for b in "XYZ":
            pa = pauli_from_ops(labels, {"q": a})
            pb = pauli_from_ops(labels, {"q": b})
            product = mats[a] @ mats[b]
            if a == b:
                result = multiply(pa, pb)
                assert result.is_identity and result.sign == 1
                assert np.allclose(product, np.eye(2))
            else:
                # X*Z and Z*X etc. carry phases +/-i, outside the sign set
                with pytest.raises(PhaseError):
                    multiply(pa, pb)


def test_multiply_two_qubit_product():
    labels = ("1", "2", "3")
    a = pauli_from_text(labels, "+Z_1 Z_2")
    b = pauli_from_text(labels, "+Z_2 Z_3")
    assert pauli_to_text(multiply(a, b)) == "+Z_1 Z_3"
    # commuting strings with overlapping X/Z content: XX * ZZ = -YY
    c = pauli_from_text(labels, "+X_1 X_2")
    d = pauli_from_text(labels, "+Z_1 Z_2")
    prod = multiply(c, d)
    oracle = np.kron(X, X) @ np.kron(Z, Z)
    assert np.allclose(oracle, -np.kron(Y, Y))
    assert pauli_to_text(prod) == "-Y_1 Y_2"


def test_commutes():
    labels = ("1", "2")
    zz = pauli_from_text(labels, "+Z_1 Z_2")
    xx = pauli_from_text(labels, "+X_1 X_2")
    xi = pauli_from_text(labels, "+X_1")
    assert commutes(zz, xx)
    assert not commutes(zz, xi)


def test_parity_generators_n2():
    group = parity_generators(build_all_pairs_layout(2))
    assert [pauli_to_text(g) for g in group.generators] == ["+Z_1 Z_2 Z_(12)"]


def test_parity_generators_n1_empty():
    assert parity_generators(build_all_pairs_layout(1)).generators == ()


def test_parity_generators_n3():
    group = parity_generators(build_all_pairs_layout(3))
    texts = {pauli_to_text(g) for g in group.generators}
    assert texts == {"+Z_1 Z_2 Z_(12)", "+Z_1 Z_3 Z_(13)", "+Z_2 Z_3 Z_(23)"}
    # constructor enforced commutation and GF(2) independence already
    assert len(group.generators) == 3


def test_graph_generators_path():
    g = make_graph(["1", "c", "3"], [("1", "c"), ("c", "3")], inputs=["1", "3"])
    group = graph_generators(g)
    assert [pauli_to_text(p) for p in group.generators] == ["+Z_1 X_c Z_3"]


def test_graph_generators_single_vertex_all_input():
    g = make_graph(["1"], [], inputs=["1"])
    assert graph_generators(g).generators == ()


def test_graph_generators_cycle6():
    verts = [str(i) for i in range(1, 7)]
    g = make_graph(
        verts,
        [(verts[i], verts[(i + 1) % 6]) for i in range(6)],
        inputs=["1", "3", "5"],
    )
    group = graph_generators(g)
    texts = {pauli_to_text(p) for p in group.generators}
    assert texts == {"+Z_1 X_2 Z_3", "+Z_3 X_4 Z_5", "+Z_1 Z_5 X_6"}


def test_hadamard_conjugate_z_to_x():
    layout = build_all_pairs_layout(2)
    group = parity_generators(layout)
    conj = hadamard_conjugate(group, ["(12)"])
    assert [pauli_to_text(g) for g in conj.generators] == ["+Z_1 Z_2 X_(12)"]


def test_hadamard_conjugate_involution():
    group = parity_generators(build_all_pairs_layout(3))
    twice = hadamard_conjugate(hadamard_conjugate(group, ["(12)", "(23)"]), ["(12)", "(23)"])
    assert groups_equal(group, twice)
    assert [pauli_to_text(g) for g in twice.generators] == [
        pauli_to_text(g) for g in group.generators
    ]


def test_hadamard_conjugate_is_homomorphism():
    layout = build_all_pairs_layout(3)
    group = parity_generators(layout)
    subset = ["(12)", "(13)"]
    conj = hadamard_conjugate(group, subset)
    for i in range(3):
        for j in range(3):
            product_then_conj = hadamard_conjugate(
                StabilizerGroup(group.labels, (multiply(group.generators[i], group.generators[j]),))
                if i != j
                else StabilizerGroup(group.labels, (group.generators[i],)),
                subset,
            ).generators[0]
            conj_then_product = (
                multiply(conj.generators[i], conj.generators[j])
                if i != j
                else conj.generators[i]
            )
            assert product_then_conj == conj_then_product


def test_hadamard_conjugate_y_flips_sign():
    assert np.allclose(H @ Y @ H, -Y)  # 2x2 oracle
    group = StabilizerGroup(("q",), (pauli_from_ops(("q",), {"q": "Y"}),))
    conj = hadamard_conjugate(group, ["q"])
    assert pauli_to_text(conj.generators[0]) == "-Y_q"


def test_groups_equal_permuted_generators():
    labels = ("1", "2", "3")
    a = StabilizerGroup(
        labels,
        (pauli_from_text(labels, "+Z_1 Z_2"), pauli_from_text(labels, "+Z_2 Z_3")),
    )
    b = StabilizerGroup(labels, tuple(reversed(a.generators)))
    assert groups_equal(a, b)


def test_groups_equal_different_generating_sets():
    # oracle: enumerate all group elements (products over generator subsets)
    labels = ("1", "2", "3")

    def span(texts):
        gens = [pauli_from_text(labels, t) for t in texts]
        elements = set()
        for mask in range(1 << len(gens)):
            acc = pauli_from_ops(labels, {})
            for i, gen in enumerate(gens):
                if mask >> i & 1:
                    acc = multiply(acc, gen)
            elements.add((acc.x.tobytes(), acc.z.tobytes(), acc.sign))
        return elements

    assert span(["+Z_1 Z_2", "+Z_2 Z_3"]) == span(["+Z_1 Z_3", "+Z_2 Z_3"])
    a = StabilizerGroup(labels, (pauli_from_text(labels, "+Z_1 Z_2"), pauli_from_text(labels, "+Z_2 Z_3")))
    b = StabilizerGroup(labels, (pauli_from_text(labels, "+Z_1 Z_3"), pauli_from_text(labels, "+Z_2 Z_3")))
    assert groups_equal(a, b)


def test_groups_unequal():
    labels = ("1",)
    za = StabilizerGroup(labels, (pauli_from_text(labels, "+Z_1"),))
    xa = StabilizerGroup(labels, (pauli_from_text(labels, "+X_1"),))
    neg = StabilizerGroup(labels, (pauli_from_text(labels, "-Z_1"),))
    assert not groups_equal(za, xa)
    assert not groups_equal(za, neg)


def test_groups_equal_label_mismatch():
    a = StabilizerGroup(("1",), (pauli_from_text(("1",), "+Z_1"),))
    b = StabilizerGroup(("2",), (pauli_from_text(("2",), "+Z_2"),))
    with pytest.raises(ValueError, match="incompatible"):
        groups_equal(a, b)


def test_stabilizer_group_rejects_anticommuting():
    labels = ("1",)
    with pytest.raises(ValueError, match="commute"):
        StabilizerGroup(labels, (pauli_from_text(labels, "+Z_1"), pauli_from_text(labels, "+X_1")))


def test_stabilizer_group_names_first_anticommuting_pair():
    labels = ("1", "2", "3")
    # anticommuting pairs (0, 4) and (1, 3): the (i, j) scan meets (0, 4) first
    gens = tuple(pauli_from_text(labels, t) for t in ("+Z_1", "+Z_2", "+X_3", "+X_2", "+X_1"))
    first = next(
        (g, h) for i, g in enumerate(gens) for h in gens[i + 1 :] if not commutes(g, h)
    )
    expected = f"generators do not commute: {pauli_to_text(first[0])}, {pauli_to_text(first[1])}"
    assert expected == "generators do not commute: +Z_1, +X_1"
    with pytest.raises(ValueError) as info:
        StabilizerGroup(labels, gens)
    assert str(info.value) == expected


def test_stabilizer_group_rejects_dependent():
    labels = ("1", "2", "3")
    gens = (
        pauli_from_text(labels, "+Z_1 Z_2"),
        pauli_from_text(labels, "+Z_2 Z_3"),
        pauli_from_text(labels, "+Z_1 Z_3"),
    )
    with pytest.raises(ValueError, match="independent"):
        StabilizerGroup(labels, gens)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_parity_code_equals_conjugated_graph_code(n):
    layout = build_all_pairs_layout(n)
    parity_group = parity_generators(layout)
    graph_group = graph_generators(induced_graph(layout))
    conj = hadamard_conjugate(graph_group, layout.parity_qubits)
    assert groups_equal(parity_group, conj)


def test_group_to_json_lists_qubits_and_generator_texts():
    data = group_to_json(parity_generators(build_all_pairs_layout(3)))
    assert data == {
        "qubits": ["1", "2", "3", "(12)", "(13)", "(23)"],
        "generators": ["+Z_1 Z_2 Z_(12)", "+Z_1 Z_3 Z_(13)", "+Z_2 Z_3 Z_(23)"],
    }
