"""Graph primitives: neighborhoods, bipartition test, enumeration."""

import gc
import hashlib
import itertools
import random
import re
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from parityflow import graph as graph_module
from parityflow.graph import (
    Graph,
    bipartition_check,
    effective_graph,
    enumerate_connected_graphs,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    make_graph,
    neighbors,
    odd_neighborhood,
    with_io,
)


def path3():
    return make_graph(["1", "2", "3"], [("1", "2"), ("2", "3")])


def cycle6():
    verts = [str(i) for i in range(1, 7)]
    return make_graph(verts, [(verts[i], verts[(i + 1) % 6]) for i in range(6)])


def triangle():
    return make_graph(["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "3")])


def test_neighbors_path_center():
    assert neighbors(path3(), "2") == {"1", "3"}


def test_neighbors_isolated_vertex():
    g = make_graph(["a", "b"], [])
    assert neighbors(g, "a") == frozenset()


def test_neighbors_cycle():
    assert neighbors(cycle6(), "1") == {"2", "6"}


def test_neighbors_unknown_vertex():
    with pytest.raises(ValueError, match="not in graph"):
        neighbors(path3(), "9")


def test_odd_neighborhood_empty_set():
    assert odd_neighborhood(cycle6(), []) == frozenset()


def test_odd_neighborhood_singleton_is_neighborhood():
    g = cycle6()
    for v in g.vertices:
        assert odd_neighborhood(g, [v]) == neighbors(g, v)


def test_odd_neighborhood_cycle_pair():
    # oracle: count |N_v ∩ K| mod 2 for every vertex directly
    g = cycle6()
    k = {"2", "4"}
    expected = frozenset(
        v for v in g.vertices if len(neighbors(g, v) & k) % 2 == 1
    )
    assert expected == {"1", "5"}  # vertex 3 sees both members, hence even
    assert odd_neighborhood(g, k) == expected


def test_odd_neighborhood_symmetric_difference_linearity():
    import random

    rnd = random.Random(42)
    for _ in range(50):
        n = rnd.randint(2, 7)
        verts = [str(i) for i in range(n)]
        edges = [e for e in itertools.combinations(verts, 2) if rnd.random() < 0.4]
        g = make_graph(verts, edges)
        k1 = {v for v in verts if rnd.random() < 0.5}
        k2 = {v for v in verts if rnd.random() < 0.5}
        lhs = odd_neighborhood(g, k1 ^ k2)
        rhs = odd_neighborhood(g, k1) ^ odd_neighborhood(g, k2)
        assert lhs == rhs


def test_odd_neighborhood_member_not_in_graph():
    with pytest.raises(ValueError):
        odd_neighborhood(path3(), ["1", "x"])


def test_bipartition_check_path():
    assert bipartition_check(path3(), {"1", "3"})
    assert not bipartition_check(path3(), {"1", "2"})


def test_bipartition_check_triangle_all_parts():
    g = triangle()
    for r in range(4):
        for part in itertools.combinations(g.vertices, r):
            assert not bipartition_check(g, part)


def test_bipartition_check_complement_symmetry():
    for g in enumerate_connected_graphs(5):
        for r in range(6):
            for part in itertools.combinations(g.vertices, r):
                part = set(part)
                comp = set(g.vertices) - part
                assert bipartition_check(g, part) == bipartition_check(g, comp)


def test_with_io_copies_share_the_base_adjacency_masks():
    base = path3()
    first = with_io(base, ["1"], ["1"])
    second = with_io(base, ["3"], ["3"])
    assert first.neighbor_masks is base.neighbor_masks
    assert second.neighbor_masks is base.neighbor_masks


def test_equal_io_sets_are_one_object():
    g = with_io(cycle6(), ["1", "3", "5"], ["5", "3", "1"])
    assert g.inputs is g.outputs
    assert make_graph(g.vertices, g.edges, ["3", "1", "5"]).inputs is g.inputs


def test_effective_graph_drops_only_input_internal_edges():
    g = with_io(triangle(), ["1", "2"], ["1", "2"])
    eff = effective_graph(g)
    assert eff.edges == {("2", "3"), ("1", "3")}
    assert eff.inputs == g.inputs


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112), (7, 853)])
def test_enumeration_counts(n, count):
    assert len(list(enumerate_connected_graphs(n))) == count


# sha256 of the comma-joined canonical masks, as the int64 build gave them
CONNECTED_REPS_SHA256 = {
    2: "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    3: "adc0d2b391a5218d93c900f87226ce222fca03d61ee5537620d45450d86a10ea",
    4: "e5bdfdbb43507245672404702913a3137cb70bbb65053d9ad5eb23617e7ea6d0",
    5: "d8a8c53243f494448a1e75380c2ded0eb83a0241b40cd54e57c1eb832e9311bc",
    6: "b77180fea051a59feed36d2053fee1d8a88396cb610f11fb4008a16914b34980",
    7: "436de30d73f530b9cd7fea571b560f599871f5c5e00cd6cd17a90942b1b2b4c1",
    8: "72a0057df9e55b0e936e3b53acabe9626e2190e8250ec4f99ee748f4e0504646",
}


@pytest.mark.parametrize("n", sorted(CONNECTED_REPS_SHA256))
def test_connected_reps_pinned(n):
    reps = graph_module._connected_reps(n)
    assert hashlib.sha256(",".join(map(str, reps)).encode()).hexdigest() == CONNECTED_REPS_SHA256[n]


def relabelled_pair_weights(n, p):
    """Pair by pair: the weight of each pair-bit once vertex v is relabelled p[v]."""
    pairs = list(itertools.combinations(range(n), 2))
    m = len(pairs)
    return [1 << (m - 1 - pairs.index(tuple(sorted((p[i], p[j]))))) for i, j in pairs]


@pytest.mark.parametrize("n", range(1, 9))
def test_perm_weights_match_relabelled_pair_bits(n):
    weights = graph_module._perm_weights(n)
    perms = list(itertools.permutations(range(n)))
    assert weights.dtype == np.int32
    assert weights.shape == (n * (n - 1) // 2, len(perms))
    # every permutation up to n = 5, a seeded sample of 200 above
    columns = range(len(perms)) if n <= 5 else random.Random(n).sample(range(len(perms)), 200)
    for c in columns:
        assert weights[:, c].tolist() == relabelled_pair_weights(n, perms[c])


def test_perm_weights_shift_int32_operands(monkeypatch):
    # NumPy 1 picks the shift's loop from its operands, not from out=: an
    # int8 shift count would shift in int8 and lose every bit past 7
    seen = []
    shift = np.left_shift

    def recording(x, y, **kwargs):
        seen.append((np.asarray(x).dtype, np.asarray(y).dtype))
        return shift(x, y, **kwargs)

    monkeypatch.setattr(np, "left_shift", recording)
    graph_module._perm_weights.cache_clear()
    graph_module._perm_weights(5)
    assert len(seen) == 10
    assert set(seen) == {(np.dtype(np.int32), np.dtype(np.int32))}


def test_perm_weights_refuse_pair_bits_beyond_int32():
    with pytest.raises(ValueError, match="36 pair bits overflow int32"):
        graph_module._perm_weights(9)


def test_perm_weights_8_peaks_under_12_mb():
    # the int64 build peaked at 63 MB, with (8! x 28) temporaries at every
    # step; the int32 table alone is 4.5 MB
    graph_module._perm_weights.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        weights = graph_module._perm_weights(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weights.nbytes == 28 * 40320 * 4
    assert peak < 12_000_000


def test_enumeration_count_oracle_n4():
    # brute force oracle: all labeled graphs on 4 vertices, connected only,
    # grouped into isomorphism classes with networkx
    verts = list(range(4))
    pairs = list(itertools.combinations(verts, 2))
    classes = []
    for mask in range(1 << len(pairs)):
        g = nx.Graph()
        g.add_nodes_from(verts)
        g.add_edges_from(p for i, p in enumerate(pairs) if mask >> i & 1)
        if not nx.is_connected(g):
            continue
        if not any(nx.is_isomorphic(g, h) for h in classes):
            classes.append(g)
    assert len(classes) == 6


def test_enumeration_yields_connected_pairwise_nonisomorphic():
    for n in range(1, 6):
        graphs = list(enumerate_connected_graphs(n))
        nx_graphs = []
        for g in graphs:
            h = nx.Graph()
            h.add_nodes_from(g.vertices)
            h.add_edges_from(g.edges)
            assert nx.is_connected(h)
            nx_graphs.append(h)
        for a, b in itertools.combinations(nx_graphs, 2):
            assert not nx.is_isomorphic(a, b)


def test_enumeration_cap():
    with pytest.raises(ValueError, match="cap exceeded"):
        list(enumerate_connected_graphs(9))
    with pytest.raises(ValueError):
        list(enumerate_connected_graphs(0))


def test_graph_invariants_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        make_graph(["1"], [("1", "1")])
    with pytest.raises(ValueError, match="endpoint"):
        make_graph(["1", "2"], [("1", "3")])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(("1", "1"), frozenset())
    with pytest.raises(ValueError, match="subset"):
        make_graph(["1"], [], inputs=["2"])


def test_edges_normalized_regardless_of_direction():
    g1 = make_graph(["1", "2"], [("1", "2")])
    g2 = make_graph(["1", "2"], [("2", "1")])
    assert g1.edges == g2.edges


def test_json_round_trip():
    g = with_io(cycle6(), ["1", "3", "5"], ["1", "3", "5"])
    again = graph_from_json(graph_to_json(g))
    assert again.vertices == g.vertices
    assert again.edges == g.edges
    assert again.inputs == g.inputs
    assert again.outputs == g.outputs


def test_dot_renders_inputs_as_boxes():
    g = with_io(path3(), ["1", "3"], ["1", "3"])
    dot = graph_to_dot(g)
    assert '"1" [shape=box];' in dot
    assert '"2" [shape=circle];' in dot
    assert '"1" -- "2";' in dot


@pytest.mark.parametrize(
    "label,quoted",
    [("a", '"a"'), ('a"b', '"a\\"b"'), ('"', '"\\""'), ("a\\b", '"a\\b"'), ("a\\\"b", '"a\\\\"b"')],
)
def test_dot_quotes_labels(label, quoted):
    g = make_graph([label, "z"], [(label, "z")], inputs=[label], outputs=[label])
    assert graph_to_dot(g) == f'graph {{\n  {quoted} [shape=box];\n  "z" [shape=circle];\n  {quoted} -- "z";\n}}\n'


@pytest.mark.parametrize("label", ["a\\", "\\", "a\nb", "a\tb", "\x00", "a\x7f"])
def test_dot_refuses_labels_it_cannot_quote(label):
    g = make_graph(["z", label], [("z", label)])
    with pytest.raises(ValueError, match=f"^label {re.escape(repr(label))} cannot be quoted in DOT$"):
        graph_to_dot(g)


def test_vertex_bits_cache_stays_bounded():
    # each graph on new labels adds a key; discarded graphs must not pile up
    for i in range(20_000):
        make_graph([f"a{i}", f"b{i}"], [(f"a{i}", f"b{i}")])
    info = graph_module._vertex_bits.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
