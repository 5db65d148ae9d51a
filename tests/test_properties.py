"""Property tests: bitmask graph queries and signed group equality against
references that share no code with the package."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from parityflow.graph import bipartition_check, make_graph, neighbors, odd_neighborhood
from parityflow.pauli import PauliString, StabilizerGroup, groups_equal, multiply

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


_PAULI = {
    (0, 0): np.eye(2),
    (1, 0): np.array([[0, 1], [1, 0]]),
    (1, 1): np.array([[0, -1j], [1j, 0]]),
    (0, 1): np.array([[1, 0], [0, -1]]),
}


def _dense(p: PauliString) -> np.ndarray:
    out = np.array([[p.sign]], dtype=complex)
    for x, z in zip(p.x, p.z):
        out = np.kron(out, _PAULI[(int(x), int(z))])
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
        kept.append(
            PauliString(labels, [x >> i & 1 for i in range(n)], [z >> i & 1 for i in range(n)], sign)
        )
    return kept


@st.composite
def group_pairs(draw):
    n = draw(st.integers(2, 4))
    pauli = st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1), st.sampled_from((1, -1)))
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
