"""Measurement-based computation with YZ-plane measurements on graph states.

The graph state with input carries the input state on the input vertices,
fresh |+> qubits elsewhere, and CZ gates across every edge not lying inside
the input set. Measuring a vertex along the axis (0, sin t, cos t) drives
the computation; a -1 outcome is repaired by completing the stabilizer of
the vertex's correction set: X on the other members, Z on the odd
neighborhood. A valid flow guarantees those targets are still unmeasured,
which is exactly what makes every outcome branch land on the same state.

None of that depends on the angles or the outcomes: a run is compiled once
per flow, graph object, input label order and measurement order into a
`simulator.Schedule` of masks, kept in this module's table of compiled
runs, weakly keyed on the flow. The run starts on the input register
alone. Preparing a qubit commutes with every command on other qubits
(Danos, Kashefi and Panangaden, "The measurement calculus", 2007), so each
other vertex joins as |+>, CZ-joined to the vertices present, just before
the first measurement that touches it: its own, or that of a neighbour or
of a vertex whose correction reaches it. A vertex measured before it joins
is one diagonal step, c0 + c1 Z_N(v) on its neighbours' parity, with a -1
outcome's Z on N(v) folded in. On every pattern Claim 2 admits, V - I
spans no edge, so every measured vertex is such a step on the inputs'
register. The outputs end in the usual order, the inputs in psi's order
and then the other outputs in graph order. `prepare_graph_state` builds
the whole graph state, the reference the runs are checked against.
`run_mbqc_yz` and `run_repeated_mbqc` follow one outcome list on a
compiled run; `run_all_branches` runs every outcome branch at once, in one
array, on the same compiled run.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Mapping, Sequence

import numpy as np

from parityflow.gflow import GFlow, measurement_order, verify_gflow, yz_planes
from parityflow.graph import Graph
from parityflow.parity_engine import LayerParams
from parityflow.simulator import (
    BranchArray,
    MeasurementRecord,
    Schedule,
    Statevector,
    _live_plan,
    _run_checked,
    check_cap,
    rotate_qubits,
    run_schedule,
    run_schedule_all,
    split_outcomes,
)


def yz_axis(theta: float) -> tuple[float, float, float]:
    """Bloch axis (0, sin t, cos t); its +1 projector is the rotated <0|."""
    return (0.0, math.sin(theta), math.cos(theta))


def _register(g: Graph, labels: tuple[str, ...]) -> tuple[str, ...]:
    """The graph-state register for inputs in the given label order: the
    inputs, then the other vertices in graph order."""
    if frozenset(labels) != g.inputs:
        raise ValueError(f"input labels {labels} do not match graph inputs {sorted(g.inputs)}")
    return labels + tuple(v for v in g.vertices if v not in g.inputs)


def _graph_amplitudes(g: Graph, register: tuple[str, ...], amps: np.ndarray) -> np.ndarray:
    """Graph-state amplitudes on the register `_register` gives, for inputs
    carried by amps: each input amplitude, scaled by 2^(-fresh/2), times its
    block of 2^fresh entries of the CZ phase vector, (-1)^(sum of b_u b_v
    over the edges not lying inside the input set)."""
    n, fresh = len(register), len(register) - len(g.inputs)
    shift = {v: n - 1 - i for i, v in enumerate(register)}
    index = np.arange(1 << n)
    cz_parity = np.zeros(1 << n, dtype=np.int64)
    for u, v in g.edges:
        if u not in g.inputs or v not in g.inputs:
            cz_parity ^= index >> shift[u] & index >> shift[v] & 1
    signs = (1 - 2 * cz_parity).reshape(1 << (n - fresh), 1 << fresh)
    return (amps[:, None] * 2.0 ** (-fresh / 2) * signs).reshape(-1)


def prepare_graph_state(g: Graph, psi: Statevector) -> Statevector:
    """Input state on the input vertices, |+> elsewhere, CZ across the
    effective edge set (edges inside the input set contribute nothing).

    Labels are the inputs in psi's order, then the other vertices in graph
    order. The |+> factors repeat each amplitude 2^m times at 2^(-m/2), and
    the CZ gates together are the phase vector (-1)^(sum of b_u b_v over the
    edges), b_u being the bit of u in the amplitude index. The engines never
    build it; it is the full-register reference their runs are checked
    against, refused over the qubit cap.
    """
    register = _register(g, psi.labels)
    check_cap(len(register))
    return Statevector(register, _graph_amplitudes(g, register, psi.amplitudes))


def _compile(g: Graph, flow: GFlow, labels: tuple[str, ...], order: tuple[str, ...] | None) -> Schedule:
    """Check the labels and the order against the flow
    (`measurement_order`), and compile the run on the inputs' register,
    which every other vertex joins as |+> when first needed, CZ-joined to
    its neighbours but for edges inside the input set; it compiles at any
    width, and its runs refuse one over the qubit cap. A -1 outcome on v
    completes the stabilizer of g(v), X on g(v) - v and Z on Odd(g(v)) - v."""
    register = _register(g, labels)
    sequence = measurement_order(g, flow, order)
    # a YZ flow never measures an input (v is in g(v), which holds none), so
    # only the other vertices join or are measured, and need their partners
    partners = {v: g.vertices_of(nbrs) for v, nbrs in zip(g.vertices, g.neighbor_masks) if v not in g.inputs}

    def complete_stabilizer(v: str) -> tuple[frozenset[str], frozenset[str]]:
        odd = g.vertices_of(g.odd_mask(g.mask_of(flow.g[v])))
        return flow.g[v] - {v}, odd - {v}

    return _live_plan(labels, sequence, complete_stabilizer, register[len(labels) :], partners)


# flow -> one (graph object, table) pair per graph, compared by identity,
# on which the flow was verified; each table maps (input labels, order or
# None for the default) to the compiled run's Schedule. Weak, so a dropped
# flow takes its runs with it.
_RUNS: weakref.WeakKeyDictionary[GFlow, list[tuple[Graph, dict]]] = weakref.WeakKeyDictionary()


def _compiled(g: Graph, flow: GFlow, labels: tuple[str, ...], order: Sequence[str] | None) -> Schedule:
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
    outcomes: Sequence[int],
    order: Sequence[str] | None = None,
) -> tuple[Statevector, MeasurementRecord]:
    """Measure every non-output vertex in the YZ plane, correcting via the flow.

    Measurements follow a linear extension of the flow's order
    (lexicographic within layers unless an explicit extension is supplied);
    on a -1 outcome at v, X lands on g(v) minus v and Z on Odd(g(v)) minus
    v, all still-present qubits. The flow is verified and the run compiled
    (`_compiled`) the first time this graph object meets this input label
    order and measurement order; every branch after that runs the compiled
    schedule. The angles (finite, keyed by exactly the measured vertices)
    and the outcomes are checked on every call: the list must hold one
    outcome per measured vertex.
    """
    schedule = _compiled(g, flow, psi.labels, order)
    if set(angles) != set(schedule.qubits):
        raise ValueError("angle keys must be exactly the measured vertices")
    for v, angle in angles.items():
        if not math.isfinite(angle):
            raise ValueError(f"angle of {v!r} = {angle} is not finite")
    return run_schedule(schedule, psi.amplitudes, [yz_axis(angles[v]) for v in schedule.qubits], outcomes)


def _check_layers(g: Graph, layers: Sequence[LayerParams]) -> None:
    """Refuse, before any layer runs, an empty program, a decode set (runs
    measure every non-output vertex each layer), theta keys outside the
    measured vertices and alpha or phi keys outside the outputs."""
    if not layers:
        raise ValueError("at least one layer required")
    measured = set(g.vertices) - g.outputs
    for params in layers:
        for key, allowed in (("theta", measured), ("alpha", g.outputs), ("phi", g.outputs)):
            stray = sorted(set(getattr(params, key)) - allowed)
            if stray:
                raise ValueError(f"{key!r} keys {stray} are not {'measured' if key == 'theta' else 'output'} vertices")
        if params.decode is not None:
            raise ValueError("decode must be None (all) on every layer: measurement-based runs decode fully each layer")


def run_repeated_mbqc(
    g: Graph,
    psi: Statevector,
    layers: Sequence[LayerParams],
    flow: GFlow,
    outcomes: Sequence[int],
) -> tuple[Statevector, list[MeasurementRecord]]:
    """Re-prepare the graph on the current data register each layer, measure
    it out, then apply the local data rotations to the outputs. Every layer
    measures every non-output vertex, on the compiled run `run_mbqc_yz`
    takes. Every layer (`_check_layers`) and the outcomes are checked
    before the first runs; each layer takes its own slice of the list,
    unchecked again."""
    _check_layers(g, layers)
    shares = split_outcomes(outcomes, [len(g.vertices) - len(g.outputs)] * len(layers))
    state = psi
    records: list[MeasurementRecord] = []
    for params, share in zip(layers, shares):
        schedule = _compiled(g, flow, state.labels, None)
        axes = [yz_axis(params.theta.get(v, 0.0)) for v in schedule.qubits]
        state, record = _run_checked(schedule, state.amplitudes, axes, share)
        records.append(record)
        state = Statevector._owned(state.labels, rotate_qubits(state.amplitudes, state.labels, params.alpha, params.phi))
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
    starts on every branch's input register and splits every branch at each
    measurement (`run_schedule_all`, which refuses a layer whose rows would
    take the register it holds over the qubit cap).
    """
    _check_layers(g, layers)
    branches = BranchArray.start(psi)
    for params in layers:
        schedule = _compiled(g, flow, branches.labels, order)
        axes = [yz_axis(params.theta.get(v, 0.0)) for v in schedule.qubits]
        branches = run_schedule_all(schedule, branches, axes)
        rotated = rotate_qubits(branches.amplitudes, branches.labels, params.alpha, params.phi)
        branches = branches.on_register(branches.labels, rotated)
    return branches
