"""Measurement-based computation with YZ-plane measurements on graph states.

The graph state with input carries the input state on the input vertices,
fresh |+> qubits elsewhere, and CZ gates across every edge not lying inside
the input set. Measuring a vertex along the axis (0, sin t, cos t) drives
the computation; a -1 outcome is repaired by completing the stabilizer of
the vertex's correction set: X on the other members, Z on the odd
neighborhood. A valid flow guarantees those targets are still unmeasured,
which is exactly what makes every outcome branch land on the same state.

`run_mbqc_yz` and `run_repeated_mbqc` follow one outcome list;
`run_all_branches` runs every outcome branch at once, in one array, with
the same flow and order checks.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from functools import lru_cache

import numpy as np

from parityflow.gflow import GFlow, verify_gflow, yz_planes
from parityflow.graph import Graph, odd_neighborhood
from parityflow.parity_engine import LayerParams
from parityflow.simulator import (
    BranchArray,
    MeasurementRecord,
    Statevector,
    apply_circuit,
    check_cap,
    measure_all_branches,
    measure_and_correct,
    resolve_outcomes,
)


def yz_axis(theta: float) -> tuple[float, float, float]:
    """Bloch axis (0, sin t, cos t); its +1 projector is the rotated <0|."""
    return (0.0, math.sin(theta), math.cos(theta))


def _graph_state(g: Graph, labels: tuple[str, ...], amps: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Graph-state labels and amplitudes for inputs carried by amps, which
    may hold one register (2^d,) or one per branch (B, 2^d)."""
    if frozenset(labels) != g.inputs:
        raise ValueError(f"input labels {labels} do not match graph inputs {sorted(g.inputs)}")
    out_labels = labels + tuple(v for v in g.vertices if v not in g.inputs)
    n = len(out_labels)
    check_cap(n, amps.size >> len(labels))
    fresh = n - len(labels)
    shift = {v: n - 1 - i for i, v in enumerate(out_labels)}
    # the effective edges: those not lying inside the input set
    pairs = tuple(sorted((shift[u], shift[v]) for u, v in g.edges if u not in g.inputs or v not in g.inputs))
    return out_labels, np.repeat(amps, 1 << fresh, axis=-1) * 2.0 ** (-fresh / 2) * _cz_signs(n, pairs)


@lru_cache(maxsize=64)
def _cz_signs(n: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """(-1)^(sum of b_u b_v over the bit-position pairs) for every n-bit
    index, as int8 (at most 64 KiB at the 16-qubit cap). Cached, since every
    branch and layer of a run prepares the same graph."""
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    index = np.arange(1 << n)[:, None]
    cz_parity = np.bitwise_xor.reduce((index >> edges[:, 0]) & (index >> edges[:, 1]), axis=1) & 1
    signs = (1 - 2 * cz_parity).astype(np.int8)
    signs.setflags(write=False)
    return signs


def prepare_graph_state(g: Graph, psi: Statevector) -> Statevector:
    """Input state on the input vertices, |+> elsewhere, CZ across the
    effective edge set (edges inside the input set contribute nothing).

    Labels are the inputs in psi's order, then the other vertices in graph
    order. The |+> factors repeat each amplitude 2^m times at 2^(-m/2), and
    the CZ gates together are the phase vector (-1)^(sum of b_u b_v over the
    edges), b_u being the bit of u in the amplitude index.
    """
    return Statevector(*_graph_state(g, psi.labels, psi.amplitudes))


def _default_order(g: Graph, flow: GFlow) -> list[str]:
    """Lexicographic within flow layers, measured vertices only."""
    measured = set(g.vertices) - g.outputs
    order = []
    for layer in flow.layers:
        order.extend(sorted(layer & measured))
    return order


def _verify_once(g: Graph, flow: GFlow) -> None:
    """Run verify_gflow on (g, flow) unless this flow already passed it on
    this same graph object. Only success is remembered, so an invalid flow
    raises on every call."""
    if any(seen is g for seen in flow.verified_graphs):
        return
    result = verify_gflow(g, yz_planes(g), flow)
    if not result:
        raise ValueError(f"invalid flow: {result.violations[0]}")
    flow.verified_graphs.append(g)


def _check_order(g: Graph, flow: GFlow, order: Sequence[str]) -> None:
    measured = set(g.vertices) - g.outputs
    if set(order) != measured or len(order) != len(measured):
        raise ValueError("measurement order must enumerate the measured vertices exactly once")
    closure = flow.closure
    for i, v in enumerate(order):
        for u in order[:i]:
            if (v, u) in closure:
                raise ValueError(f"order violates the flow: {v!r} must precede {u!r}")


def _flow_correction(g: Graph, flow: GFlow):
    """Correction rule: a -1 outcome on v completes the stabilizer of g(v),
    X on g(v) - v and Z on Odd(g(v)) - v."""

    def complete_stabilizer(v: str) -> tuple[frozenset[str], frozenset[str]]:
        return flow.g[v] - {v}, odd_neighborhood(g, flow.g[v]) - {v}

    return complete_stabilizer


def run_mbqc_yz(
    g: Graph,
    psi: Statevector,
    angles: Mapping[str, float],
    flow: GFlow,
    outcomes,
    order: Sequence[str] | None = None,
) -> tuple[Statevector, MeasurementRecord]:
    """Measure every non-output vertex in the YZ plane, correcting via the flow.

    The flow is verified before any simulation, the first time it meets this
    graph object (`_verify_once`). Measurements follow a linear extension of
    the flow's order (lexicographic within layers unless an explicit
    extension is supplied); on a -1 outcome at v, X lands on g(v) minus v
    and Z on Odd(g(v)) minus v, all still-present qubits.
    """
    _verify_once(g, flow)
    measured = set(g.vertices) - g.outputs
    if set(angles) != measured:
        raise ValueError("angle keys must be exactly the measured vertices")
    sequence = _default_order(g, flow) if order is None else list(order)
    _check_order(g, flow, sequence)
    source = resolve_outcomes(outcomes)
    state = prepare_graph_state(g, psi)
    plan = [(v, yz_axis(angles[v])) for v in sequence]
    return measure_and_correct(state, plan, _flow_correction(g, flow), source)


def run_repeated_mbqc(
    g: Graph,
    psi: Statevector,
    layers: Sequence[LayerParams],
    flow: GFlow,
    outcomes,
) -> tuple[Statevector, list[MeasurementRecord]]:
    """Re-prepare the graph on the current data register each layer, measure
    it out, then apply the local data rotations to the outputs."""
    if not layers:
        raise ValueError("at least one layer required")
    measured = set(g.vertices) - g.outputs
    source = resolve_outcomes(outcomes)
    state = psi
    records: list[MeasurementRecord] = []
    for params in layers:
        if not set(params.theta) <= measured:
            raise ValueError("theta keys must be measured vertices")
        angles = {v: params.theta.get(v, 0.0) for v in measured}
        state, record = run_mbqc_yz(g, state, angles, flow, source)
        records.append(record)
        state = apply_circuit(state, params.data_rotations(state.labels))
    return state, records


def run_all_branches(
    g: Graph,
    psi: Statevector,
    layers: Sequence[LayerParams],
    flow: GFlow,
    order: Sequence[str] | None = None,
) -> BranchArray:
    """`run_repeated_mbqc` on every outcome branch at once, in one array,
    each layer measuring in `order` (default: as `run_mbqc_yz`).

    Same checks: the flow is verified once per graph object and the order
    checked against it. Each layer prepares the graph state on every
    branch's register and splits every branch at each measurement
    (`measure_all_branches`). Raises ValueError when the branches would take
    the register over the qubit cap.
    """
    if not layers:
        raise ValueError("at least one layer required")
    _verify_once(g, flow)
    measured = set(g.vertices) - g.outputs
    sequence = _default_order(g, flow) if order is None else list(order)
    _check_order(g, flow, sequence)
    correct = _flow_correction(g, flow)
    branches = BranchArray.start(psi)
    for params in layers:
        if not set(params.theta) <= measured:
            raise ValueError("theta keys must be measured vertices")
        branches = branches.on_register(*_graph_state(g, branches.labels, branches.amplitudes))
        plan = [(v, yz_axis(params.theta.get(v, 0.0))) for v in sequence]
        branches = measure_all_branches(branches, plan, correct)
        branches = branches.apply(params.data_rotations(branches.labels))
    return branches
