"""Measurement-based computation with YZ-plane measurements on graph states.

The graph state with input carries the input state on the input vertices,
fresh |+> qubits elsewhere, and CZ gates across every edge not lying inside
the input set. Measuring a vertex along the axis (0, sin t, cos t) drives
the computation; a -1 outcome is repaired by completing the stabilizer of
the vertex's correction set: X on the other members, Z on the odd
neighborhood. A valid flow guarantees those targets are still unmeasured,
which is exactly what makes every outcome branch land on the same state.

None of that depends on the angles or the outcomes: a run is compiled once
per flow, graph object, input label order and measurement order, into the
graph state's fresh qubits, its CZ phase vector and a `simulator.Schedule`
of register positions and correction bitmasks, and kept in this module's
table of compiled runs, weakly keyed on the flow. `run_mbqc_yz` and
`run_repeated_mbqc` follow one outcome list on it; `run_all_branches` runs
every outcome branch at once, in one array, on the same compiled run.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from parityflow.gflow import GFlow, measurement_order, verify_gflow, yz_planes
from parityflow.graph import Graph
from parityflow.parity_engine import LayerParams
from parityflow.simulator import (
    BranchArray,
    MeasurementRecord,
    Schedule,
    Statevector,
    apply_circuit,
    check_cap,
    compile_plan,
    resolve_outcomes,
    run_schedule,
    run_schedule_all,
)


def yz_axis(theta: float) -> tuple[float, float, float]:
    """Bloch axis (0, sin t, cos t); its +1 projector is the rotated <0|."""
    return (0.0, math.sin(theta), math.cos(theta))


def _register(g: Graph, labels: tuple[str, ...]) -> tuple[tuple[str, ...], int, np.ndarray]:
    """The graph-state register for inputs in the given label order, refused
    over the qubit cap: its labels (the inputs, then the other vertices in
    graph order), how many of them are fresh, and the CZ phase vector of
    the edges not lying inside the input set, (-1)^(sum of b_u b_v over
    them) for every amplitude index, as read-only int8 (64 KiB at most)."""
    if frozenset(labels) != g.inputs:
        raise ValueError(f"input labels {labels} do not match graph inputs {sorted(g.inputs)}")
    out_labels = labels + tuple(v for v in g.vertices if v not in g.inputs)
    n = len(out_labels)
    check_cap(n)
    shift = {v: n - 1 - i for i, v in enumerate(out_labels)}
    index = np.arange(1 << n)
    cz_parity = np.zeros(1 << n, dtype=np.int64)
    for u, v in g.edges:
        if u not in g.inputs or v not in g.inputs:
            cz_parity ^= index >> shift[u] & index >> shift[v] & 1
    signs = (1 - 2 * cz_parity).astype(np.int8)
    signs.setflags(write=False)
    return out_labels, n - len(labels), signs


def _graph_amplitudes(amps: np.ndarray, fresh: int, signs: np.ndarray) -> np.ndarray:
    """Graph-state amplitudes for inputs carried by amps, which may hold one
    register (2^d,) or one per branch (B, 2^d): `fresh` |+> qubits after
    them and the CZ phase vector `signs`, both as `_register` gives them:
    each input amplitude, scaled by 2^(-fresh/2), times its block of 2^fresh
    signs, as one broadcast product."""
    d = amps.shape[-1].bit_length() - 1
    check_cap(d + fresh, amps.size >> d)
    scaled = amps * 2.0 ** (-fresh / 2)
    return (scaled[..., None] * signs.reshape(1 << d, 1 << fresh)).reshape(*amps.shape[:-1], -1)


def prepare_graph_state(g: Graph, psi: Statevector) -> Statevector:
    """Input state on the input vertices, |+> elsewhere, CZ across the
    effective edge set (edges inside the input set contribute nothing).

    Labels are the inputs in psi's order, then the other vertices in graph
    order. The |+> factors repeat each amplitude 2^m times at 2^(-m/2), and
    the CZ gates together are the phase vector (-1)^(sum of b_u b_v over the
    edges), b_u being the bit of u in the amplitude index.
    """
    labels, fresh, signs = _register(g, psi.labels)
    return Statevector(labels, _graph_amplitudes(psi.amplitudes, fresh, signs))


@dataclass(frozen=True, slots=True)
class _Compiled:
    """One flow's run on one graph and input label order, in one
    measurement order: the graph state's fresh-qubit count and CZ phase
    vector (as `_register` gives them) and the measurement schedule."""

    fresh: int
    signs: np.ndarray
    schedule: Schedule


def _compile(g: Graph, flow: GFlow, labels: tuple[str, ...], order: tuple[str, ...] | None) -> _Compiled:
    """Check the order against the flow (`measurement_order`) and compile
    the run: a -1 outcome on v completes the stabilizer of g(v), X on
    g(v) - v and Z on Odd(g(v)) - v."""
    register, fresh, signs = _register(g, labels)
    sequence = measurement_order(g, flow, order)

    def complete_stabilizer(v: str) -> tuple[frozenset[str], frozenset[str]]:
        odd = g.vertices_of(g.odd_mask(g.mask_of(flow.g[v])))
        return flow.g[v] - {v}, odd - {v}

    return _Compiled(fresh, signs, compile_plan(register, sequence, complete_stabilizer))


# flow -> one (graph object, table) pair per graph, compared by identity,
# on which the flow was verified; each table maps (input labels, order or
# None for the default) to the _Compiled run. Weak, so a dropped flow takes
# its runs with it.
_RUNS: weakref.WeakKeyDictionary[GFlow, list[tuple[Graph, dict]]] = weakref.WeakKeyDictionary()


def _compiled(g: Graph, flow: GFlow, labels: tuple[str, ...], order: Sequence[str] | None) -> _Compiled:
    """The compiled run of flow on this graph object, input label order and
    measurement order (None for the default), from `_RUNS`. On first use
    the flow is verified, once per graph object, and the order checked.
    Only success is stored, so an invalid flow, order or label list raises
    on every call."""
    for seen, table in _RUNS.get(flow, ()):
        if seen is g:
            break
    else:
        result = verify_gflow(g, yz_planes(g), flow)
        if not result:
            raise ValueError(f"invalid flow: {result.violations[0]}")
        table = {}
        _RUNS.setdefault(flow, []).append((g, table))
    order = None if order is None else tuple(order)
    compiled = table.get((labels, order))
    if compiled is None:
        compiled = table[labels, order] = _compile(g, flow, labels, order)
    return compiled


def run_mbqc_yz(
    g: Graph,
    psi: Statevector,
    angles: Mapping[str, float],
    flow: GFlow,
    outcomes,
    order: Sequence[str] | None = None,
) -> tuple[Statevector, MeasurementRecord]:
    """Measure every non-output vertex in the YZ plane, correcting via the flow.

    Measurements follow a linear extension of the flow's order
    (lexicographic within layers unless an explicit extension is supplied);
    on a -1 outcome at v, X lands on g(v) minus v and Z on Odd(g(v)) minus
    v, all still-present qubits. The flow is verified and the run compiled
    (`_compiled`) the first time this graph object meets this input label
    order and measurement order; every branch after that runs the compiled
    schedule. The angle keys and outcomes are checked on every call: a
    prescribed list must hold one outcome per measured vertex.
    """
    compiled = _compiled(g, flow, psi.labels, order)
    schedule = compiled.schedule
    if set(angles) != set(schedule.qubits):
        raise ValueError("angle keys must be exactly the measured vertices")
    source = resolve_outcomes(outcomes)
    amps = _graph_amplitudes(psi.amplitudes, compiled.fresh, compiled.signs)
    result = run_schedule(schedule, amps, [yz_axis(angles[v]) for v in schedule.qubits], source)
    if source is not outcomes:
        source.check_spent()
    return result


def _check_layers(layers: Sequence[LayerParams]) -> None:
    """Refuse an empty program, and a layer with a decode set: measurement-
    based runs measure every non-output vertex each layer."""
    if not layers:
        raise ValueError("at least one layer required")
    if any(params.decode is not None for params in layers):
        raise ValueError("decode must be None (all) on every layer: measurement-based runs decode fully each layer")


def run_repeated_mbqc(
    g: Graph,
    psi: Statevector,
    layers: Sequence[LayerParams],
    flow: GFlow,
    outcomes,
) -> tuple[Statevector, list[MeasurementRecord]]:
    """Re-prepare the graph on the current data register each layer, measure
    it out, then apply the local data rotations to the outputs. Every layer
    measures every non-output vertex: a layer with a `decode` set is
    refused."""
    _check_layers(layers)
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
    if source is not outcomes:
        source.check_spent()
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

    Same checks and the same compiled run as `run_mbqc_yz`. Each layer
    prepares the graph state on every branch's register and splits every
    branch at each measurement (`run_schedule_all`). Raises ValueError when
    the branches would take the register over the qubit cap.
    """
    _check_layers(layers)
    fresh_labels = tuple(v for v in g.vertices if v not in g.inputs)
    branches = BranchArray.start(psi)
    for params in layers:
        compiled = _compiled(g, flow, branches.labels, order)
        schedule = compiled.schedule
        if not set(params.theta) <= set(schedule.qubits):
            raise ValueError("theta keys must be measured vertices")
        amps = _graph_amplitudes(branches.amplitudes, compiled.fresh, compiled.signs)
        branches = branches.on_register(branches.labels + fresh_labels, amps)
        axes = [yz_axis(params.theta.get(v, 0.0)) for v in schedule.qubits]
        branches = run_schedule_all(schedule, branches, axes)
        branches = branches.apply(params.data_rotations(branches.labels))
    return branches
