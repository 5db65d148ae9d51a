"""Independent oracles for the benchmark's correctness checks.

None of these functions imports parityflow. They take plain data (labels,
edge lists, dicts and numpy arrays) and recompute each answer another way:
graph counts from the networkx graph atlas, flow validity from bitmask
arithmetic, and branch outputs from dense matrices of the logical circuit.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

# tolerance for a branch output against the logical reference, up to phase
STATE_TOL = 1e-10


# ---------------------------------------------------------------------------
# Graph counts for the sweep
# ---------------------------------------------------------------------------

def bipartite_with_inputs(edges: Iterable[tuple], inputs: frozenset) -> bool:
    """Every edge left after dropping the edges inside I crosses I and V minus I.

    An edge with both ends inside I is dropped; one with both ends outside I
    cannot be 2-coloured with I as one colour class.
    """
    return all(u in inputs or v in inputs for u, v in edges)


def atlas_counts(max_n: int) -> dict[int, dict[str, int]]:
    """Connected graphs, (graph, I) instances and bipartite instances per n."""
    import networkx as nx

    counts = {n: {"graphs": 0, "instances": 0, "bipartite_instances": 0} for n in range(1, max_n + 1)}
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n < 1 or n > max_n or not nx.is_connected(g):
            continue
        nodes = list(g.nodes)
        edges = list(g.edges)
        counts[n]["graphs"] += 1
        for mask in range(1 << n):
            inputs = frozenset(nodes[i] for i in range(n) if mask >> i & 1)
            counts[n]["instances"] += 1
            counts[n]["bipartite_instances"] += bipartite_with_inputs(edges, inputs)
    return counts


def sweep_count_problems(per_n: Mapping[int, Mapping[str, int]], expected: Mapping[int, Mapping[str, int]]) -> list[str]:
    """Differences between a sweep report's per-n counts and the atlas counts."""
    problems = []
    if sorted(per_n) != sorted(expected):
        return [f"sweep covers n={sorted(per_n)}, expected n={sorted(expected)}"]
    for n, want in expected.items():
        got = per_n[n]
        for key in ("graphs", "instances", "bipartite_instances"):
            if got[key] != want[key]:
                problems.append(f"n={n}: {key} {got[key]} != {want[key]}")
        if got["flows_found"] != want["bipartite_instances"]:
            problems.append(f"n={n}: flows_found {got['flows_found']} != {want['bipartite_instances']}")
    return problems


def io_mismatch_problems(cases: int, flows_found: int, samples: int) -> list[str]:
    """With I != O no YZ flow exists, so every sampled case must come back empty."""
    problems = []
    if cases != samples:
        problems.append(f"{cases} I != O cases, expected {samples}")
    if flows_found:
        problems.append(f"{flows_found} flows found with I != O")
    return problems


# ---------------------------------------------------------------------------
# Bitmask YZ-gflow verifier
# ---------------------------------------------------------------------------

def yz_flow_problem(
    vertices: Sequence[str],
    edges: Iterable[tuple[str, str]],
    inputs: Iterable[str],
    outputs: Iterable[str],
    g: Mapping[str, Iterable[str]],
    precedence: Iterable[tuple[str, str]],
    layers: Sequence[Iterable[str]],
) -> str | None:
    """None if (g, order) is a YZ-plane gflow on the open graph, else the reason.

    The order is the transitive closure of `precedence`. For each measured
    v: v in g(v), g(v) avoids the inputs, v outside Odd(g(v)), and every
    other member of g(v) and of Odd(g(v)) comes strictly after v. The
    layering must partition the vertices and respect every precedence pair.
    """
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)

    def mask(items: Iterable[str]) -> int:
        out = 0
        for v in items:
            if v not in index:
                raise KeyError(v)
            out |= 1 << index[v]
        return out

    try:
        nbr = [0] * n
        for u, v in edges:
            nbr[index[u]] |= 1 << index[v]
            nbr[index[v]] |= 1 << index[u]
        input_mask = mask(inputs)
        measured = ((1 << n) - 1) & ~mask(outputs)
        if mask(g) != measured or len(g) != bin(measured).count("1"):
            return "correction map domain is not the measured vertices"
        layer_of = {}
        for depth, layer in enumerate(layers):
            for v in layer:
                if v in layer_of:
                    return f"{v!r} in two layers"
                layer_of[v] = depth
        if mask(layer_of) != (1 << n) - 1 or len(layer_of) != n:
            return "layers do not partition the vertices"
        reach = [0] * n
        for v, u in precedence:
            if layer_of[v] >= layer_of[u]:
                return f"layering puts {u!r} no later than {v!r}"
            reach[index[v]] |= 1 << index[u]
        corrections = {v: mask(s) for v, s in g.items()}
    except KeyError as exc:
        return f"unknown vertex {exc.args[0]!r}"
    for k in range(n):  # Warshall closure on bitmask rows
        bit = 1 << k
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= reach[k]
    if any(reach[i] >> i & 1 for i in range(n)):
        return "precedence has a cycle"
    for v, s in corrections.items():
        i = index[v]
        vbit = 1 << i
        if not s & vbit:
            return f"{v!r} not in its own correction set"
        if s & input_mask:
            return f"g({v!r}) contains an input"
        odd = 0
        for j in range(n):
            if s >> j & 1:
                odd ^= nbr[j]
        if odd & vbit:
            return f"{v!r} in Odd(g({v!r}))"
        later = (s | odd) & ~vbit
        if later & ~reach[i]:
            return f"a member of g({v!r}) or Odd(g({v!r})) is not after {v!r}"
    return None


def layer_precedence(layers: Sequence[Iterable[str]]) -> set[tuple[str, str]]:
    """The order a layer list states: every vertex before all later layers."""
    layers = [list(layer) for layer in layers]
    return {(v, u) for i, layer in enumerate(layers) for v in layer for later in layers[i + 1 :] for u in later}


# ---------------------------------------------------------------------------
# Logical reference for branch outputs
# ---------------------------------------------------------------------------

def _single_qubit(matrix: np.ndarray, position: int, n: int) -> np.ndarray:
    full = np.ones((1, 1), dtype=np.complex128)
    for k in range(n):
        full = np.kron(full, matrix if k == position else np.eye(2))
    return full


def logical_reference(
    labels: Sequence[str],
    psi: np.ndarray,
    layers: Sequence[tuple[Sequence[tuple[float, Iterable[str]]], Mapping[str, float], Mapping[str, float]]],
) -> np.ndarray:
    """Apply each layer's logical circuit to psi with dense matrices.

    A layer is (rotations, phi, alpha): every rotation (theta, support) is
    exp(-i theta/2 Z_support), then each data qubit gets RZ(phi) followed
    by RX(alpha). The first label is the most significant index bit.
    """
    n = len(labels)
    position = {q: i for i, q in enumerate(labels)}
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    state = np.asarray(psi, dtype=np.complex128).copy()
    for rotations, phi, alpha in layers:
        for theta, support in rotations:
            cols = [position[q] for q in support]
            z = 1 - 2 * (bits[:, cols].sum(axis=1) % 2)
            state = np.exp(-0.5j * theta * z) * state
        for q in labels:
            p = phi.get(q, 0.0)
            a = alpha.get(q, 0.0)
            rz = np.diag([np.exp(-0.5j * p), np.exp(0.5j * p)])
            rx = np.array([[math.cos(a / 2), -1j * math.sin(a / 2)], [-1j * math.sin(a / 2), math.cos(a / 2)]])
            state = _single_qubit(rx @ rz, position[q], n) @ state
    return state


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Norm of a minus b after aligning b's global phase to a (2 if orthogonal)."""
    overlap = np.vdot(b, a)
    if abs(overlap) < 1e-300:
        return 2.0
    return float(np.linalg.norm(a - (overlap / abs(overlap)) * b))
