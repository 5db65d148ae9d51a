"""Simple undirected graphs with distinguished input/output vertex sets.

Vertices are opaque strings; data qubits use labels like "1", "2" and
parity qubits composite labels like "(12)". All operations are pure
functions of immutable values, and the vertex sets that graphs and flows
freeze go through `shared_set`, so equal sets are one object.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# enumerate_connected_graphs refuses n above this; at 8, a graph's pair-bit
# string has 28 bits, so _perm_weights holds them in int32 (it refuses n = 9)
DEFAULT_ENUMERATION_CAP = 8

VertexSet = frozenset[str]


@lru_cache(maxsize=1 << 14)
def shared_set(members: frozenset) -> frozenset:
    """The first frozenset equal to `members` that is still cached, so that
    graphs and flows held together share equal vertex sets: the `branches`
    bench holds about 7k open graphs and 2k search flows. Only vertex sets
    come here: a cached pair set would outlive the flow a sweep drops."""
    return members


def _bit_indices(mask: int) -> Iterator[int]:
    """The indices of the set bits of a non-negative mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=1 << 10)
def _vertex_bits(vertices: tuple[str, ...]) -> dict[str, int]:
    """The one-bit mask of each vertex; graphs on the same vertices share it.
    Bounded, as a long-lived process may meet graphs on many vertex tuples."""
    return {v: 1 << i for i, v in enumerate(vertices)}


@dataclass(frozen=True)
class Graph:
    """Simple graph: no self-loops, no duplicate edges, I and O subsets of V."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    inputs: VertexSet = frozenset()
    outputs: VertexSet = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        index = {v: i for i, v in enumerate(self.vertices)}
        if len(index) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        normalized = set()
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop at vertex {u!r}")
            if u not in index or v not in index:
                raise ValueError(f"edge {edge!r} has endpoint not in vertex set")
            normalized.add((u, v) if index[u] < index[v] else (v, u))
        object.__setattr__(self, "edges", frozenset(normalized))
        self._set_io(self.inputs, self.outputs)

    def _set_io(self, inputs: Iterable[str], outputs: Iterable[str]) -> None:
        vertices = _vertex_bits(self.vertices).keys()
        for name, subset in (("inputs", frozenset(inputs)), ("outputs", frozenset(outputs))):
            if not subset <= vertices:
                raise ValueError(f"{name} not a subset of the vertex set")
            object.__setattr__(self, name, shared_set(subset))

    # Bit i of a vertex mask stands for vertices[i]. The adjacency masks are
    # built on first use, not at construction: enumeration builds many
    # graphs that are never searched. They depend on the vertices and edges
    # alone, so with_io builds them on the graph it copies and hands them on.

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Entry i has bit j set iff vertices i and j share an edge."""
        index = {v: i for i, v in enumerate(self.vertices)}
        masks = [0] * len(self.vertices)
        for u, v in self.edges:
            masks[index[u]] |= 1 << index[v]
            masks[index[v]] |= 1 << index[u]
        return tuple(masks)

    def mask_of(self, k: Iterable[str]) -> int:
        """Bitmask of a vertex set; raises on vertices outside the graph."""
        members = frozenset(k)
        bits = _vertex_bits(self.vertices)
        mask = 0
        try:
            for v in members:
                mask |= bits[v]
        except KeyError:
            raise ValueError(f"vertices {sorted(members.difference(bits))} not in graph") from None
        return mask

    def vertices_of(self, mask: int) -> VertexSet:
        """The vertex set a bitmask stands for."""
        return frozenset({self.vertices[i] for i in _bit_indices(mask)})

    def odd_mask(self, mask: int) -> int:
        """Bitmask of Odd(K) for the vertex set K given as a bitmask.

        Linear over symmetric difference: Odd(K1 xor K2) = Odd(K1) xor Odd(K2),
        since each member of K contributes its neighborhood mod 2.
        """
        masks = self.neighbor_masks
        odd = 0
        while mask:
            low = mask & -mask
            odd ^= masks[low.bit_length() - 1]
            mask ^= low
        return odd


def make_graph(
    vertices: Iterable[str],
    edges: Iterable[tuple[str, str]],
    inputs: Iterable[str] = (),
    outputs: Iterable[str] = (),
) -> Graph:
    return Graph(vertices, frozenset(tuple(e) for e in edges), frozenset(inputs), frozenset(outputs))


def with_io(g: Graph, inputs: Iterable[str], outputs: Iterable[str]) -> Graph:
    """Same graph with the input/output designation replaced.

    The new graph shares g's vertices and edges, already checked, and the
    adjacency tables built from them, built on g first so that every copy
    of g shares them, as a kept sweep's witnesses do; only new sets are checked.
    """
    g.neighbor_masks
    new = object.__new__(Graph)
    # set one by one, not through __dict__, which keeps each instance as
    # small as one built by __init__: a caller may hold thousands
    for name, value in vars(g).items():
        object.__setattr__(new, name, value)
    new._set_io(inputs, outputs)
    return new


def neighbors(g: Graph, v: str) -> VertexSet:
    """Neighborhood of v: all vertices sharing an edge with v."""
    if v not in g.vertices:
        raise ValueError(f"vertex {v!r} not in graph")
    return g.vertices_of(g.neighbor_masks[g.vertices.index(v)])


def odd_neighborhood(g: Graph, k: Iterable[str]) -> VertexSet:
    """Vertices with an odd number of neighbors inside k."""
    return g.vertices_of(g.odd_mask(g.mask_of(k)))


def bipartition_check(g: Graph, part: Iterable[str]) -> bool:
    """True iff `part` is exactly one side of a bipartition of g.

    Equivalent test: no edge lies entirely inside `part` and no edge lies
    entirely inside its complement, so every edge crosses the cut.
    """
    inside = g.mask_of(part)
    outside = ~inside
    for i, nbrs in enumerate(g.neighbor_masks):
        if nbrs & (inside if inside >> i & 1 else outside):
            return False
    return True


def effective_graph(g: Graph) -> Graph:
    """The graph actually entangled: edges entirely inside the input set dropped.

    Input vertices carry the prepared input state, so edges between two
    inputs contribute no entangling gate and no stabilizer; correction-set
    arithmetic is likewise blind to them.
    """
    inputs = g.inputs
    edges = [e for e in g.edges if not (e[0] in inputs and e[1] in inputs)]
    return make_graph(g.vertices, edges, inputs, g.outputs)


# ---------------------------------------------------------------------------
# Canonical forms and enumeration of connected graphs up to isomorphism
# ---------------------------------------------------------------------------

def _pair_index(n: int, i: int, j: int) -> int:
    """Position of pair (i, j), i < j, in the lexicographic pair list."""
    return i * n - i * (i + 1) // 2 + (j - i - 1)


@lru_cache(maxsize=None)
def _perm_weights(n: int) -> np.ndarray:
    """Row k, column p: the weight pair-bit k carries under vertex permutation p.

    A graph's adjacency bit-string (big-endian pair order) under permutation
    p is then the sum of the rows of its pair bits, at column p. Columns
    follow `itertools.permutations` order. The table is int32, filled one
    row at a time: a sum of rows has at most 28 bits at the cap (n = 8), so
    the only temporaries are the int8 permutations and one row's int32
    landing positions.
    """
    m = n * (n - 1) // 2
    if m > 31:
        raise ValueError(f"n={n}: {m} pair bits overflow int32; a cap above 8 needs int64 weights")
    perms = np.fromiter(itertools.permutations(range(n)), dtype=np.dtype((np.int8, n)), count=math.factorial(n))
    # the position of pair {i, j}, either way round; int32, so that each
    # row's shift has int32 operands and runs in int32 under every NumPy
    index = np.zeros((n, n), dtype=np.int32)
    for i, j in itertools.combinations(range(n), 2):
        index[i, j] = index[j, i] = _pair_index(n, i, j)
    weights = np.empty((m, len(perms)), dtype=np.int32)
    for k, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        landing = index[perms[:, i], perms[:, j]]  # where pair-bit k lands under each p
        np.left_shift(np.int32(1), m - 1 - landing, out=weights[k])
    return weights


def _graph_from_mask(n: int, mask: int) -> Graph:
    """Graph on vertices "1".."n" whose pair bits are given by mask (big-endian pair order)."""
    m = n * (n - 1) // 2
    vertices = tuple(str(i + 1) for i in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if mask >> (m - 1 - _pair_index(n, i, j)) & 1:
                edges.append((vertices[i], vertices[j]))
    return make_graph(vertices, edges)


@lru_cache(maxsize=None)
def _connected_reps(n: int) -> tuple[int, ...]:
    """Canonical pair-bit masks of all connected graphs on n vertices.

    Built by augmentation: every connected graph on n vertices arises from a
    connected graph on n-1 vertices (delete a leaf of a spanning tree) by
    re-attaching the removed vertex to a nonempty neighbor subset. The
    canonical mask is the least relabelled pair-bit string, read off the
    int32 sums of `_perm_weights` rows: every sum along the way is a pair-bit
    string, below 2^28 at the cap.
    """
    if n == 1:
        return (0,)
    found: set[int] = set()
    m_old = (n - 1) * (n - 2) // 2
    weights = _perm_weights(n)
    old_pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n - 1)]
    new_rows = [weights[_pair_index(n, i, n - 1)] for i in range(n - 1)]
    for parent in _connected_reps(n - 1):
        rows = [
            _pair_index(n, i, j)
            for i, j in old_pairs
            if parent >> (m_old - 1 - _pair_index(n - 1, i, j)) & 1
        ]
        values = weights[rows].sum(axis=0, dtype=np.int32)
        # neighbor subsets of the new vertex in Gray-code order: each step
        # adds or removes one edge, so one row updates every permutation
        for k in range(1, 1 << (n - 1)):
            i = (k & -k).bit_length() - 1
            if (k ^ (k >> 1)) >> i & 1:
                values += new_rows[i]
            else:
                values -= new_rows[i]
            found.add(int(values.min()))
    return tuple(sorted(found))


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on n vertices.

    Deterministic order (ascending canonical form). Counts for n = 1..8:
    1, 1, 2, 6, 21, 112, 853, 11117.
    """
    if n < 1:
        raise ValueError("vertex count must be positive")
    if n > DEFAULT_ENUMERATION_CAP:
        raise ValueError(f"enumeration cap exceeded: n={n} > cap={DEFAULT_ENUMERATION_CAP}")
    for mask in _connected_reps(n):
        yield _graph_from_mask(n, mask)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def graph_to_json(g: Graph) -> dict:
    index = {v: i for i, v in enumerate(g.vertices)}
    return {
        "vertices": list(g.vertices),
        "edges": sorted([list(e) for e in g.edges], key=lambda e: (index[e[0]], index[e[1]])),
        "inputs": sorted(g.inputs, key=index.get),
        "outputs": sorted(g.outputs, key=index.get),
    }


@contextmanager
def json_field(name: str) -> Iterator[None]:
    """Re-raise a TypeError or ValueError met while reading the JSON field
    `name` as a ValueError that names the field."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r}: {exc}") from exc


def json_object(data, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """`data` if it is a JSON object with every `required` field and no field
    outside `required` and `optional`; else a ValueError naming the first
    missing or unknown field."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object")
    for name in required:
        if name not in data:
            raise ValueError(f"{what} JSON missing field {name!r}")
    for name in data:
        if name not in required and name not in optional:
            raise ValueError(f"{what} JSON: unknown field {name!r}")
    return data


def json_list(value) -> list:
    """A JSON list, such as a list of edges or of layers: TypeError for an
    object, which would otherwise be read as the list of its keys."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def json_labels(value) -> tuple[str, ...]:
    """A JSON list of vertex or qubit labels; TypeError unless each is a string."""
    if not isinstance(value, list) or not all(isinstance(label, str) for label in value):
        raise TypeError(f"expected a list of string labels, got {value!r}")
    return tuple(value)


def json_number(value) -> float:
    """A finite JSON number, not a bool, such as an angle or an amplitude part."""
    # an exact comparison: an int too large for a float fails here, not in float()
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def graph_from_json(data: dict) -> Graph:
    json_object(data, "graph", ("vertices", "edges"), ("inputs", "outputs"))
    with json_field("vertices"):
        vertices = json_labels(data["vertices"])
    with json_field("edges"):
        edges = [(u, v) for u, v in map(json_labels, json_list(data["edges"]))]
    with json_field("inputs"):
        inputs = json_labels(data.get("inputs", []))
    with json_field("outputs"):
        outputs = json_labels(data.get("outputs", []))
    return make_graph(vertices, edges, inputs, outputs)


def _dot_id(label: str) -> str:
    """A label as a quoted DOT ID, each `"` escaped as `\\"`. DOT has no
    escape for a backslash, so a label ending in one, which would escape
    the closing quote, is refused, and so is one holding a control
    character."""
    if label.endswith("\\") or any(c < " " or c == "\x7f" for c in label):
        raise ValueError(f"label {label!r} cannot be quoted in DOT")
    return '"' + label.replace('"', '\\"') + '"'


def graph_to_dot(g: Graph) -> str:
    """DOT rendering; input vertices are drawn as boxes, the rest as circles."""
    ids = {v: _dot_id(v) for v in g.vertices}
    lines = ["graph {"]
    for v in g.vertices:
        shape = "box" if v in g.inputs else "circle"
        lines.append(f"  {ids[v]} [shape={shape}];")
    index = {v: i for i, v in enumerate(g.vertices)}
    for u, v in sorted(g.edges, key=lambda e: (index[e[0]], index[e[1]])):
        lines.append(f"  {ids[u]} -- {ids[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
