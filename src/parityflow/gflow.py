"""Executable gflow theory for measurement-based computing on open graphs.

A gflow witness is a correction-set map g together with a strict partial
order on the vertices. The order is carried as a precedence digraph (its
transitive closure, `_after_masks`, is the order) plus a topological
layering, from which `measurement_order` schedules. Five conditions tie
g, the order, and the measurement planes together; `verify_gflow` checks
all of them, `search_gflow_yz` finds a witness for all-YZ plane
assignments by a greedy peel, and `yz_bipartite_sweep` confronts that
search with a bipartiteness test over every small connected graph. All
three work on int vertex masks, bit i for `graph.vertices[i]`. The
conditions and the two witness structure facts each have one mask core,
`_flow_violations` and `_structure_facts`; `verify_gflow` and
`witness_structure` are their label front-ends. The search and the sweep
take a peel to a checked witness by one route, `_peel_gflow`, which
builds each distinct flow once per table its caller holds and checks it
with the conditions' core on the graph's own masks.
"""

from __future__ import annotations

import operator
import os
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from parityflow.graph import (
    DEFAULT_ENUMERATION_CAP,
    Graph,
    _bit_indices,
    _vertex_bits,
    enumerate_connected_graphs,
    graph_to_json,
    json_field,
    json_labels,
    json_list,
    json_object,
    shared_set,
    with_io,
)

SEARCH_CAP = 8

PLANES = ("XY", "XZ", "YZ")

VertexSet = frozenset[str]
PlaneAssignment = Mapping[str, str]


class MalformedFlowError(ValueError):
    """Witness is structurally broken (distinct from a well-formed invalid one)."""


@dataclass(frozen=True, eq=False)
class GFlow:
    """Correction-set map plus partial order.

    ``precedence`` holds the generating digraph edges (v, u) meaning v is
    measured strictly before u; the partial order is its transitive closure.
    ``layers`` is a topological layering of that digraph, earliest first,
    with unmeasured (output) vertices in the final layers. Flows compare
    by identity, so that `mbqc_engine` can key its compiled runs on them.
    """

    g: Mapping[str, VertexSet]
    precedence: frozenset[tuple[str, str]]
    layers: tuple[VertexSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "g", {v: shared_set(frozenset(s)) for v, s in self.g.items()})
        object.__setattr__(self, "precedence", frozenset(self.precedence))
        object.__setattr__(self, "layers", tuple(shared_set(frozenset(layer)) for layer in self.layers))
        level: dict[str, int] = {}
        for depth, layer in enumerate(self.layers):
            for v in layer:
                if v in level:
                    raise MalformedFlowError(f"vertex {v!r} appears in two layers")
                level[v] = depth
        known = set(level)
        for v, s in self.g.items():
            if v not in known or not s <= known:
                raise MalformedFlowError("correction sets mention vertices outside the layering")
        for v, u in self.precedence:
            if v not in known or u not in known:
                raise MalformedFlowError(f"precedence pair ({v!r}, {u!r}) outside the layering")
            if level[v] >= level[u]:
                raise MalformedFlowError(f"layering violates precedence {v!r} < {u!r}")

@dataclass(frozen=True)
class Violation:
    vertex: str
    condition: int
    message: str


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _after_masks(vertices: tuple[str, ...], flow: GFlow) -> list[int]:
    """Entry i: the mask of the vertices after vertices[i] in the flow's
    order, bit j for vertices[j]. This is the one transitive closure in the
    package. MalformedFlowError unless the layering covers the vertices."""
    bits = _vertex_bits(vertices)
    if set().union(*flow.layers) != bits.keys():
        raise MalformedFlowError("layering must partition the vertex set")
    successors: dict[str, int] = {}
    for v, u in flow.precedence:
        successors[v] = successors.get(v, 0) | bits[u]
    after = [0] * len(vertices)
    # deepest layer first: a successor's mask is final before it is read
    for layer in reversed(flow.layers):
        for v in layer & successors.keys():
            closed = successors[v]
            for j in _bit_indices(successors[v]):
                closed |= after[j]
            after[bits[v].bit_length() - 1] = closed
    return after


def _label_mask(bits: Mapping[str, int], labels) -> int:
    """The mask of `labels` under `bits`, or a negative number if one of
    them is not a vertex."""
    mask = 0
    for v in labels:
        mask |= bits.get(v, -1)
    return mask


def precedes(flow: GFlow, v: str, u: str) -> bool:
    """v < u in the partial order (transitive closure of the precedence
    digraph); False for labels outside the layering."""
    vertices = tuple(set().union(*flow.layers))
    if v not in vertices or u not in vertices:
        return False
    return bool(_after_masks(vertices, flow)[vertices.index(v)] >> vertices.index(u) & 1)


def measurement_order(graph: Graph, flow: GFlow, order: Sequence[str] | None = None) -> tuple[str, ...]:
    """The measured vertices in an order allowed by the flow, one that
    `verify_gflow` accepts on graph: by default sorted within each layer,
    earliest layer first, which the layering makes a linear extension. A
    given order must list each measured vertex once; ValueError names the
    first v in it placed after a u it must precede, and the first such u."""
    measured = set(graph.vertices) - graph.outputs
    if order is None:
        return tuple(v for layer in flow.layers for v in sorted(layer & measured))
    order = tuple(order)
    if set(order) != measured or len(order) != len(measured):
        raise ValueError("measurement order must enumerate the measured vertices exactly once")
    after = _after_masks(graph.vertices, flow)
    index = {v: i for i, v in enumerate(graph.vertices)}
    done = 0
    for v in order:
        early = after[index[v]] & done
        if early:
            u = next(u for u in order if early >> index[u] & 1)
            raise ValueError(f"order violates the flow: {v!r} must precede {u!r}")
        done |= 1 << index[v]
    return order


_MESSAGES = {
    1: "{u!r} in g({v!r}) but not after {v!r}",
    2: "{u!r} in Odd(g({v!r})) but not after {v!r}",
    3: "XY at {v!r} needs v outside g(v) and inside Odd(g(v))",
    4: "XZ at {v!r} needs v inside g(v) and inside Odd(g(v))",
    5: "YZ at {v!r} needs v inside g(v) and outside Odd(g(v))",
}


def _correction_masks(bits: Mapping[str, int], flow: GFlow) -> tuple[int, list[int]]:
    """The mask of the flow's domain under `bits` (negative if a label of it
    is not a vertex) and each vertex's correction mask by index, 0 for a
    vertex outside the domain."""
    domain = 0
    corrections = [0] * len(bits)
    for v, s in flow.g.items():
        bit = bits.get(v, -1)
        domain |= bit
        if bit > 0:
            corrections[bit.bit_length() - 1] = _label_mask(bits, s)
    return domain, corrections


def _flow_violations(
    neighbor_masks: Sequence[int],
    measured: int,
    allowed: int,
    corrections: Sequence[int],
    planes: tuple[int, int, int],
    after: Sequence[int],
) -> list[tuple[int, int, int]]:
    """The gflow conditions on masks, bit i for vertex i: for each measured
    i, lowest first, (i, condition, j) for each condition it fails, with j
    the lowest offending vertex for conditions 1 and 2 and i otherwise.
    Condition 0, g(i) reaching outside `allowed` (the non-input vertices),
    ends that vertex's checks. `planes` holds the disjoint masks of the XY,
    XZ and YZ vertices."""
    xy, xz, yz = planes
    found = []
    for i, s in enumerate(corrections):
        bit = 1 << i
        if not bit & measured:
            continue
        if s & ~allowed:
            found.append((i, 0, i))
            continue
        # Odd(g(i)), inline as in `Graph.odd_mask`: a call per vertex would
        # add to every `verify_gflow` call the engines make
        odd = 0
        rest = s
        while rest:
            low = rest & -rest
            odd ^= neighbor_masks[low.bit_length() - 1]
            rest ^= low
        # the lowest bit not after i is the first offender in vertex order
        late = (s | odd) & ~bit & ~after[i]
        if late & s:
            found.append((i, 1, next(_bit_indices(late & s))))
        if late & odd:
            found.append((i, 2, next(_bit_indices(late & odd))))
        if bit & xy and (s & bit or not odd & bit):
            found.append((i, 3, i))
        elif bit & xz and not (s & bit and odd & bit):
            found.append((i, 4, i))
        elif bit & yz and (not s & bit or odd & bit):
            found.append((i, 5, i))
    return found


def _violations(vertices: tuple[str, ...], found: list[tuple[int, int, int]]) -> tuple[Violation, ...]:
    """`_flow_violations`' triples on `vertices` as Violations;
    MalformedFlowError for the first condition 0."""
    violations = []
    for i, condition, j in found:
        v = vertices[i]
        if condition == 0:
            raise MalformedFlowError(f"g({v!r}) is not a subset of the non-input vertices")
        violations.append(Violation(v, condition, _MESSAGES[condition].format(v=v, u=vertices[j])))
    return tuple(violations)


def verify_gflow(graph: Graph, planes: PlaneAssignment, flow: GFlow) -> VerifyResult:
    """Check the five gflow conditions for every measured vertex.

    Conditions, for v measured (v not an output):
      1. every u in g(v), u != v, satisfies v < u
      2. every u in Odd(g(v)), u != v, satisfies v < u
      3. plane XY: v not in g(v) and v in Odd(g(v))
      4. plane XZ: v in g(v) and v in Odd(g(v))
      5. plane YZ: v in g(v) and v not in Odd(g(v))

    This is the label front-end of `_flow_violations`, which checks them
    on masks. Structural problems (wrong domains, layering not covering
    the graph, g(v) meeting the inputs) raise MalformedFlowError; a
    well-formed witness that fails a condition yields ok=False with the
    violations in deterministic order.
    """
    # a mapping's keys are distinct, so its mask equals `measured` exactly
    # when its keys are the measured vertices
    bits = _vertex_bits(graph.vertices)
    full = (1 << len(bits)) - 1
    measured = full & ~graph.mask_of(graph.outputs)
    domain, corrections = _correction_masks(bits, flow)
    if domain != measured:
        raise MalformedFlowError("correction map domain must be exactly the measured vertices")
    plane_domain = xy = xz = yz = 0
    bad_planes = []
    for v, p in planes.items():
        bit = bits.get(v, -1)
        plane_domain |= bit
        if p == "YZ":
            yz |= bit
        elif p == "XY":
            xy |= bit
        elif p == "XZ":
            xz |= bit
        else:
            bad_planes.append(p)
    if plane_domain != measured:
        raise MalformedFlowError("plane assignment domain must be exactly the measured vertices")
    if bad_planes:
        raise MalformedFlowError(f"unknown planes {sorted(set(bad_planes))}")
    after = _after_masks(graph.vertices, flow)
    allowed = full & ~graph.mask_of(graph.inputs)
    found = _flow_violations(graph.neighbor_masks, measured, allowed, corrections, (xy, xz, yz), after)
    violations = _violations(graph.vertices, found) if found else ()
    return VerifyResult(not violations, violations)


def yz_planes(graph: Graph) -> dict[str, str]:
    """All-YZ plane assignment over the measured vertices."""
    return {v: "YZ" for v in graph.vertices if v not in graph.outputs}


def _spans_no_edge(neighbor_masks: Sequence[int], mask: int) -> bool:
    """No edge joins two vertices of mask, by one AND per vertex in it."""
    rest = mask
    while rest:
        low = rest & -rest
        if neighbor_masks[low.bit_length() - 1] & mask:
            return False
        rest ^= low
    return True


def canonical_yz_gflow(graph: Graph) -> GFlow:
    """The single-layer witness available on any bipartite graph with I one side.

    Maps every measured vertex v to itself and orders it before each of its
    neighbours, Odd({v}), all outputs: the pairs conditions 1 and 2 need.
    Measured vertices stay incomparable, in a layer before the outputs.
    Requires O = I and no edge joining two vertices outside I; edges
    inside I are ignored, as the search and the graph state ignore them.
    """
    if graph.inputs != graph.outputs:
        raise ValueError("no canonical flow: inputs differ from outputs")
    labels, masks = graph.vertices, graph.neighbor_masks
    measured = (1 << len(labels)) - 1 & ~graph.mask_of(graph.inputs)
    if not _spans_no_edge(masks, measured):
        raise ValueError("no canonical flow: an edge joins two vertices outside the inputs")
    g = {labels[i]: frozenset({labels[i]}) for i in _bit_indices(measured)}
    precedence = frozenset((labels[i], labels[j]) for i in _bit_indices(measured) for j in _bit_indices(masks[i]))
    layers = tuple(layer for layer in (graph.vertices_of(measured), graph.outputs) if layer)
    return GFlow(g=g, precedence=precedence, layers=layers)


# ---------------------------------------------------------------------------
# Greedy YZ-gflow search
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _submasks_by_size(support: int) -> tuple[int, ...]:
    """Every submask of `support`, the empty one included, by (popcount, value)."""
    subs = [0]
    s = support
    while s:
        subs.append(s)
        s = (s - 1) & support
    return tuple(sorted(subs, key=lambda s: (s.bit_count(), s)))


def _odd_table(graph: Graph) -> list[int]:
    """Entry K: Odd(K) for every mask K of the graph's vertices. The entries
    with bit i set are those below 2^i, each XORed with vertex i's
    neighbours: one XOR per entry."""
    odd = [0]
    for nbrs in graph.neighbor_masks:
        odd += [o ^ nbrs for o in odd]
    return odd


def _yz_peel(odd: Sequence[int], free: int) -> list[tuple[int, int, int]] | None:
    """The search's peel on masks with O = I, `free` the non-input vertices:
    they are both the measured vertices and every correction set's support,
    and Odd(S) is read from `_odd_table`. Each step peels the lowest
    remaining v that has a fitting S, the first by (size, value). The steps
    as (v, g(v), Odd(g(v))) in measurement order, or None once none fits."""
    peeled: list[tuple[int, int, int]] = []
    remaining = free
    while remaining:
        outside = _submasks_by_size(free & ~remaining)
        rest = remaining
        while rest:
            low = rest & -rest
            rest ^= low
            for t in outside:
                if not odd[low | t] & remaining:
                    break  # S = low | t fits v = low
            else:
                continue  # nothing fits v: try the next lowest
            break
        else:
            return None  # no remaining vertex fits
        peeled.append((low.bit_length() - 1, low | t, odd[low | t]))
        remaining ^= low
    return peeled[::-1]


def _peel_gflow(
    graph: Graph, free: int, peeled: list[tuple[int, int, int]], flows: dict
) -> tuple[GFlow | None, list[int], list[int]]:
    """The checked YZ gflow of a peel with O = I, `free` the non-input
    vertices, with its `_after_masks` and correction masks.

    The flow depends only on the vertex labels, `free` and the peel, so its
    masks go once per (free, peel) into `flows`, a table the caller holds,
    keyed by one int: `free`, then three n-bit fields per step (a peel has
    one step per bit of `free`, so no two peels share a key). The call that
    builds the flow returns it, a table hit None. It orders v before each
    u != v in g(v) | Odd(g(v)), as conditions 1 and 2 ask, is layered by
    longest path, and its masks are read back from its labels. Every call
    checks the masks on the graph's own adjacency masks, never on the
    peel's Odd table, and reads neither the graph's inputs nor its outputs.
    AssertionError if the check fails, with the violations `verify_gflow`
    names.
    """
    labels = graph.vertices
    n = len(labels)
    key = free
    for v, s, odd in peeled:
        key = ((key << n | v) << n | s) << n | odd
    flow = None
    masks = flows.get(key)
    if masks is None:
        precedence = set()
        # longest-path layering: every successor of v is measured after v
        depth = {v: 0 for v, _, _ in peeled}
        for v, s, odd in peeled:
            for u in _bit_indices((s | odd) & ~(1 << v)):
                precedence.add((labels[v], labels[u]))
                if u in depth:
                    depth[u] = max(depth[u], depth[v] + 1)
        layers: list[set[str]] = [set() for _ in range(max(depth.values(), default=-1) + 1)]
        for v in sorted(depth):
            layers[depth[v]].add(labels[v])
        outputs = graph.vertices_of((1 << n) - 1 & ~free)
        if outputs:
            layers.append(outputs)
        g_map = {labels[v]: graph.vertices_of(s) for v, s, _ in sorted(peeled)}
        flow = GFlow(g_map, frozenset(precedence), tuple(frozenset(s) for s in layers))
        masks = flows[key] = (_after_masks(labels, flow), *_correction_masks(_vertex_bits(labels), flow))
    after, domain, corrections = masks
    # O = I: the measured and the non-input vertices are both `free`
    if domain != free or _flow_violations(graph.neighbor_masks, free, free, corrections, (0, 0, free), after):
        if flow is None:  # a table hit: built again, it fails this check and names it
            _peel_gflow(graph, free, peeled, {})
        inputs = graph.vertices_of((1 << n) - 1 & ~free)
        g = with_io(graph, inputs, inputs)
        raise AssertionError(f"search produced an invalid witness: {verify_gflow(g, yz_planes(g), flow).violations}")
    return flow, after, corrections


def search_gflow_yz(graph: Graph) -> GFlow | None:
    """Find a YZ-plane gflow by a greedy peel, or prove none exists.

    A gflow is a peel order: some measured vertex v can be measured last
    among the still-unplaced set R when a correction set S inside the
    non-input vertices has S and Odd(S) meeting R in exactly {v} and not
    at all, respectively. Such an S is {v} plus a set T of vertices
    outside R (measured after v, or outputs); the peel takes the lowest v
    that has one, T by (size, value) with the empty set first, then peels
    R - v, never going back. If R can be peeled and v fits in R, then
    R - v can be peeled: drop v from R's peel sequence; every remaining S
    still meets the smaller remaining set only in its own vertex, its
    support outside that set only grows, and Odd(S) & (R' - v) <=
    Odd(S) & R' = {}. So a None result, a stuck peel, proves that no
    gflow exists. A measured input, outside the support, would stick it;
    with |I| = |O| there is none exactly when I = O, so for I != O the
    search stops before it builds the peel's Odd table.
    Deliberately independent of any bipartiteness reasoning. The peel runs
    on int masks, with Odd(S) read from a table of all 2^n masks built for
    this call; only a peel that succeeds becomes a `GFlow`, checked by
    `_peel_gflow`. Graphs over SEARCH_CAP vertices are refused, which also
    bounds that table.
    """
    n = len(graph.vertices)
    if n > SEARCH_CAP:
        raise ValueError(f"search cap exceeded: {n} vertices > cap={SEARCH_CAP}")
    if len(graph.inputs) != len(graph.outputs):
        raise ValueError("search requires |I| = |O|")
    if graph.inputs != graph.outputs:
        return None  # a measured input never fits: no Odd table needed
    free = (1 << n) - 1 & ~graph.mask_of(graph.inputs)
    peeled = _yz_peel(_odd_table(graph), free)
    if peeled is None:
        return None
    return _peel_gflow(graph, free, peeled, {})[0]


# ---------------------------------------------------------------------------
# Witness structure checks (maximal correction sets, no internal edges)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessStructure:
    maximal_self_corrections: bool
    no_edges_in_correction_union: bool

    def __bool__(self) -> bool:
        return self.maximal_self_corrections and self.no_edges_in_correction_union


def witness_structure(flow: GFlow, graph: Graph) -> WitnessStructure:
    """Structural facts that hold for every valid YZ witness with O = I.

    (a) every measured vertex maximal in the order restricted to measured
        vertices has g(v) = {v};
    (b) the union of all correction sets spans no edge of the graph.
    This is the label front-end of `_structure_facts`, on the flow's
    domain. MalformedFlowError unless the layering covers the graph's
    vertex set.
    """
    after = _after_masks(graph.vertices, flow)
    domain, corrections = _correction_masks(_vertex_bits(graph.vertices), flow)
    return WitnessStructure(*_structure_facts(graph.neighbor_masks, domain, corrections, after))


def _structure_facts(
    neighbor_masks: Sequence[int], measured: int, corrections: Sequence[int], after: Sequence[int]
) -> tuple[bool, bool]:
    """`witness_structure`'s two facts on masks, bit i for vertex i: (a)
    g(i) = {i} for each i in `measured` with no measured vertex after it,
    (b) the union of the measured vertices' correction masks spans no edge."""
    union = 0
    maximal_ok = True
    for i, s in enumerate(corrections):
        if measured >> i & 1:
            union |= s
            if not after[i] & measured and s != 1 << i:
                maximal_ok = False
    return maximal_ok, _spans_no_edge(neighbor_masks, union)


# ---------------------------------------------------------------------------
# The sweep: search agrees with bipartiteness on every small connected graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Discrepancy:
    """One instance on which the search and bipartiteness disagree, or whose
    witness failed its structure check: enough to rebuild it from the
    report alone, the base graph's edges as label pairs in vertex order
    (as `graph_to_json` lists them) and the I/O sets. An I != O instance is
    one if it has a flow, and reads `bipartite_with_inputs` False."""

    n: int
    edges: tuple[tuple[str, str], ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    flow_found: bool
    bipartite_with_inputs: bool


@dataclass(frozen=True)
class Witnesses(Sequence):
    """A kept sweep's witnesses, in sweep order: each is kept as its base
    graph, shared with its batch, and its input mask, and item i builds its
    (open graph, flow) pair on access by the public route, `with_io` with
    O = I, then `search_gflow_yz`: fresh objects, equal at every access."""

    kept: tuple[tuple[Graph, int], ...] = ()

    def __len__(self) -> int:
        return len(self.kept)

    def __getitem__(self, i: int) -> tuple[Graph, GFlow]:
        base, mask = self.kept[operator.index(i)]
        inputs = base.vertices_of(mask)
        g = with_io(base, inputs, inputs)
        return g, search_gflow_yz(g)


@dataclass
class SweepReport:
    max_n: int
    per_n: dict[int, dict[str, int]] = field(default_factory=dict)
    discrepancies: list[Discrepancy] = field(default_factory=list)
    io_mismatch_cases: int = 0
    io_mismatch_flows_found: int = 0
    witness_failures: list[Discrepancy] = field(default_factory=list)
    witnesses: Witnesses = Witnesses()
    # seconds the batches of each n took, summed over workers; not in to_json
    seconds: dict[int, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.discrepancies and not self.witness_failures and self.io_mismatch_flows_found == 0

    def to_json(self) -> dict:
        return {
            "max_n": self.max_n,
            "per_n": {
                str(n): dict(sorted(counts.items())) for n, counts in sorted(self.per_n.items())
            },
            "discrepancies": [
                {
                    "n": d.n,
                    "edges": [list(e) for e in d.edges],
                    "inputs": list(d.inputs),
                    "outputs": list(d.outputs),
                    "flow_found": d.flow_found,
                    "bipartite_with_inputs": d.bipartite_with_inputs,
                }
                for d in self.discrepancies + self.witness_failures
            ],
            "io_mismatch_cases": self.io_mismatch_cases,
            "io_mismatch_flows_found": self.io_mismatch_flows_found,
            "ok": self.ok,
        }


def _discrepancy(base: Graph, inputs: VertexSet, outputs: VertexSet, found: bool, expected: bool) -> Discrepancy:
    edges = tuple(tuple(e) for e in graph_to_json(base)["edges"])
    return Discrepancy(len(base.vertices), edges, tuple(sorted(inputs)), tuple(sorted(outputs)), found, expected)


def _sweep_batch(args: tuple[int, Sequence[Graph], bool]) -> tuple[int, dict, list, list, list, float]:
    """Worker: all input-set choices with O = I for a batch of enumerated
    graphs on n vertices, and the seconds it took.

    Each choice is decided on masks, bipartiteness without the edges inside
    I (they enter neither the prepared state nor any correction set). Each
    flow found goes through `_peel_gflow` on the base graph, with one table
    for the batch, whose graphs (`enumerate_connected_graphs(n)`) share one
    vertex tuple; a new tuple would start a new one. Each distinct flow is
    built once, dropped once its masks are read, and every witness checked
    on the base graph's adjacency masks by `_flow_violations` and
    `_structure_facts`. Only a discrepancy or a failed check builds its
    input set. If `keep`, each witness returns as its base graph and input
    mask, from which `Witnesses` builds its pair.
    """
    began = time.perf_counter()
    n, bases, keep = args
    counts = {"instances": 0, "flows_found": 0, "bipartite_instances": 0}
    discrepancies, witness_failures, witnesses = [], [], []
    labels = None  # the vertex tuple of the `_peel_gflow` table
    for base in bases:
        if base.vertices != labels:
            labels, flows = base.vertices, {}
        masks = base.neighbor_masks  # built once per base graph
        odd = _odd_table(base)
        for mask in range(1 << n):
            free = ~mask & ((1 << n) - 1)  # the measured vertices, and every correction set's support
            peeled = _yz_peel(odd, free)
            found = peeled is not None
            # edges inside I are dropped, so I is one side iff V - I spans no edge
            expected = _spans_no_edge(masks, free)
            counts["instances"] += 1
            counts["flows_found"] += found
            counts["bipartite_instances"] += expected
            if found != expected:
                inputs = base.vertices_of(mask)
                discrepancies.append(_discrepancy(base, inputs, inputs, found, expected))
            if not found:
                continue
            _, after, corrections = _peel_gflow(base, free, peeled, flows)
            if keep:
                witnesses.append((base, mask))
            if not all(_structure_facts(masks, free, corrections, after)):
                inputs = base.vertices_of(mask)
                witness_failures.append(_discrepancy(base, inputs, inputs, found, expected))
    return n, counts, discrepancies, witness_failures, witnesses, time.perf_counter() - began


def yz_bipartite_sweep(
    max_n: int,
    io_samples: int = 200,
    seed: int = 0,
    workers: int | None = None,
    keep_witnesses: bool = True,
) -> SweepReport:
    """Exhaustively confront YZ-gflow existence with bipartiteness.

    For every connected graph up to max_n vertices and every input choice
    with O = I, assert search_gflow_yz succeeds exactly when the graph is
    bipartite with I one partition; additionally, for max_n >= 2, sample
    io_samples instances with I != O (equal sizes), where no flow may exist
    (`discrepancies` names any that has one). The graphs go to
    `_sweep_batch` in batches of one size: one batch per n serially, eight
    graphs per task in a worker pool. Each flow found takes the search's
    route to a checked witness, `_peel_gflow`, which builds each distinct
    flow of a batch once and keeps none past its check. The report's
    `witnesses` hold each kept witness as its base graph and input mask
    and build its (open graph, flow) pair on access; without
    `keep_witnesses` they are empty. The report's `seconds` holds the time
    the batches of each n took, summed over workers.
    """
    if max_n < 1:
        raise ValueError(f"max_n={max_n} must be at least 1")
    if max_n > DEFAULT_ENUMERATION_CAP:
        raise ValueError(f"max_n={max_n} above enumeration cap {DEFAULT_ENUMERATION_CAP}")
    if io_samples < 0:
        raise ValueError(f"io_samples={io_samples} must be at least 0")
    if seed < 0:
        raise ValueError(f"seed={seed} must be at least 0")
    workers = (os.cpu_count() or 1) if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers={workers} must be at least 1")
    report = SweepReport(max_n=max_n)
    graphs = {n: list(enumerate_connected_graphs(n)) for n in range(1, max_n + 1)}
    pooled = workers > 1 and max_n > 1  # n = 1 has one graph
    batches = []
    for n, bases in graphs.items():
        size = 8 if pooled else len(bases)  # a pooled task's graphs; serially, one batch per n
        report.per_n[n] = {"graphs": len(bases), "instances": 0, "flows_found": 0, "bipartite_instances": 0}
        report.seconds[n] = 0.0
        batches.extend((n, bases[i : i + size], keep_witnesses) for i in range(0, len(bases), size))

    if pooled:
        from concurrent.futures import ProcessPoolExecutor  # here, not on every package import

        # a fork pool starts every worker at its first task: no more than it can use
        with ProcessPoolExecutor(max_workers=min(workers, len(batches), os.cpu_count() or 1)) as pool:
            results = list(pool.map(_sweep_batch, batches))
    else:
        results = [_sweep_batch(batch) for batch in batches]

    for n, counts, discrepancies, witness_failures, _, seconds in results:
        for key, value in counts.items():
            report.per_n[n][key] += value
        report.seconds[n] += seconds
        report.discrepancies.extend(discrepancies)
        report.witness_failures.extend(witness_failures)
    report.witnesses = Witnesses(tuple(witness for result in results for witness in result[4]))

    # I != O instances: equal sizes, still no flow may exist; they need n >= 2
    rng = np.random.default_rng(seed)
    drawn = 0
    while max_n >= 2 and drawn < io_samples:
        n = int(rng.integers(2, max_n + 1))
        base = graphs[n][int(rng.integers(len(graphs[n])))]
        size = int(rng.integers(1, n))
        verts = list(base.vertices)
        inputs = frozenset(str(v) for v in rng.choice(verts, size=size, replace=False))
        outputs = frozenset(str(v) for v in rng.choice(verts, size=size, replace=False))
        if inputs == outputs:
            continue
        flow = search_gflow_yz(with_io(base, inputs, outputs))
        report.io_mismatch_cases += 1
        report.io_mismatch_flows_found += flow is not None
        if flow is not None:
            report.discrepancies.append(_discrepancy(base, inputs, outputs, True, False))
        drawn += 1
    return report


# ---------------------------------------------------------------------------
# Witness serialization
# ---------------------------------------------------------------------------

def flow_to_json(flow: GFlow, planes: PlaneAssignment | None = None) -> dict:
    data = {
        "g": {v: sorted(s) for v, s in sorted(flow.g.items())},
        "layers": [sorted(layer) for layer in flow.layers],
    }
    if planes is not None:
        data["planes"] = dict(sorted(planes.items()))
    return data


def flow_from_json(data: dict) -> tuple[GFlow, dict[str, str] | None]:
    """Read a witness; the order is taken to be the layer order."""
    # "found" lets `gflow search` output read back as a flow
    json_object(data, "flow", ("g", "layers"), ("planes", "found"))
    if not isinstance(data["g"], dict):
        raise ValueError("field 'g' must map vertices to correction sets")
    with json_field("g"):
        g = {v: frozenset(json_labels(s)) for v, s in data["g"].items()}
    with json_field("layers"):
        layers = [frozenset(json_labels(layer)) for layer in json_list(data["layers"])]
    # each non-empty layer precedes the next one; the closure is the layer order
    filled = [layer for layer in layers if layer]
    precedence = {(v, u) for early, late in zip(filled, filled[1:]) for v in early for u in late}
    planes = data.get("planes")
    if planes is not None and not (isinstance(planes, dict) and all(isinstance(p, str) for p in planes.values())):
        raise ValueError("field 'planes' must map vertices to plane names")
    return GFlow(g=g, precedence=frozenset(precedence), layers=tuple(layers)), planes
