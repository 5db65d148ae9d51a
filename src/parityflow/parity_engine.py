"""Layered parity computation: encode, rotate parity qubits, decode, repeat.

Decoding is measurement-based: X measurements on parity qubits followed by
Z corrections on the tracked data qubits wherever the outcome came out -1,
which completes the parity stabilizer and makes every outcome branch land
on the same state. The CNOT-reversal decoder is kept alongside as an
independent oracle.

Within a layer the order is: parity-qubit Z rotations, measurement-based
decoding with corrections, local data rotations, then (when another layer
follows) re-encoding: the decoded parity qubits are appended holding the
parities of their sets, as encoding appends them, with no CNOT gates.
RZ(t) on a parity qubit and its X measurement are one measurement along
`xy_axis(t)`, the Hadamard image of the measurement-based engine's YZ
axis at t; the register takes the scalar exp(-i t/2) that the axis drops.
`LayerParams.validate` keeps every rotated parity qubit in the layer's
decode set. Z rotations on data qubits commute with the encoding. An X
rotation on a data qubit that a parity qubit outside the decode set still
tracks would act on an encoded qubit, making the output depend on the
outcome branch, so `LayerParams.validate` refuses it.

`run_computation` follows one outcome list; `run_all_branches` runs the
same layers on every outcome branch at once, in one array, with the same
checks. Both measure along a `simulator.Schedule` compiled once per layout
object, register labels and decode set, and kept in this module.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from parityflow.graph import json_field, json_labels, json_number
from parityflow.layout import Gate, ParityLayout, encoding_circuit, realised_parities, rx, rz
from parityflow.simulator import (
    BranchArray,
    MeasurementRecord,
    Schedule,
    Statevector,
    apply_circuit,
    compile_plan,
    discard_qubit,
    outcome_probability,
    project,
    resolve_outcomes,
    run_schedule,
    run_schedule_all,
)

X_AXIS = (1.0, 0.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)


def xy_axis(theta: float) -> tuple[float, float, float]:
    """Bloch axis (cos t, -sin t, 0): RZ(t) followed by an X measurement,
    as one measurement whose bras drop the gate's scalar exp(-i t/2). It is
    the Hadamard image (z, -y, x) of `mbqc_engine.yz_axis(t)`. Written
    0.0 - sin t so that t = 0 gives X_AXIS, with no -0.0."""
    return (math.cos(theta), 0.0 - math.sin(theta), 0.0)


@dataclass(frozen=True)
class LayerParams:
    """Angles for one layer; absent keys mean zero, decode None means all."""

    theta: Mapping[str, float] = field(default_factory=dict)
    alpha: Mapping[str, float] = field(default_factory=dict)
    phi: Mapping[str, float] = field(default_factory=dict)
    decode: frozenset[str] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", dict(self.theta))
        object.__setattr__(self, "alpha", dict(self.alpha))
        object.__setattr__(self, "phi", dict(self.phi))
        if self.decode is not None:
            object.__setattr__(self, "decode", frozenset(self.decode))

    def validate(self, layout: ParityLayout) -> None:
        parity = set(layout.parity_qubits)
        data = set(layout.data_qubits)
        if not set(self.theta) <= parity:
            raise ValueError("theta keys must be parity qubits")
        if not set(self.alpha) <= data or not set(self.phi) <= data:
            raise ValueError("alpha/phi keys must be data qubits")
        if self.decode is not None:
            if not self.decode <= parity:
                raise ValueError("decode set must contain parity qubits")
            if not set(self.theta) <= self.decode:
                raise ValueError("theta keys must lie in the layer's decode set")
            encoded = [p for p in layout.parity_qubits if p not in self.decode]
            for q in layout.data_qubits:
                tracking = [p for p in encoded if q in layout.parity_sets[p]]
                if q in self.alpha and tracking:
                    raise ValueError(
                        f"alpha on data qubit {q!r}, which parity qubit {tracking[0]!r} outside the decode set tracks"
                    )

    def data_rotations(self, qubits: Iterable[str]) -> list[Gate]:
        """RZ(phi) then RX(alpha) on each qubit in the given order; zero angles skipped."""
        gates = []
        for q in qubits:
            if self.phi.get(q):
                gates.append(rz(q, self.phi[q]))
            if self.alpha.get(q):
                gates.append(rx(q, self.alpha[q]))
        return gates


def encode_input(layout: ParityLayout, psi: Statevector) -> Statevector:
    """The state the constraint CNOTs leave on |psi, 0..0>, realised layout
    or not: each parity qubit appended holding its `realised_parities` set."""
    if psi.labels != tuple(layout.data_qubits):
        raise ValueError(f"input labels {psi.labels} do not match data qubits {layout.data_qubits}")
    return BranchArray.start(psi).append_parities(realised_parities(layout)).state(0)


# layout -> {(register labels, decode set): Schedule}; weak, so a dropped
# layout takes its schedules with it
_DECODE_SCHEDULES: weakref.WeakKeyDictionary[ParityLayout, dict] = weakref.WeakKeyDictionary()


def _decode_schedule(layout: ParityLayout, labels: tuple[str, ...], subset: Iterable[str]) -> Schedule:
    """The schedule measuring the members of subset out of a register over
    labels, in layout order: a -1 outcome on p is Z on every data qubit p
    tracks. Compiled once per layout object, labels and decode set; only
    success is stored, so a bad subset raises on every call."""
    members = frozenset(subset)
    table = _DECODE_SCHEDULES.get(layout, {})
    schedule = table.get((labels, members))
    if schedule is None:
        unknown = members - set(layout.parity_qubits)
        if unknown:
            raise ValueError(f"not parity qubits: {sorted(unknown)}")
        missing = members - set(labels)
        if missing:
            raise ValueError(f"parity qubits not in register: {sorted(missing)}")
        qubits = [p for p in layout.parity_qubits if p in members]
        schedule = compile_plan(labels, qubits, lambda p: ((), layout.parity_sets[p]))
        _DECODE_SCHEDULES.setdefault(layout, table)[labels, members] = schedule
    return schedule


def mb_decode(
    state: Statevector,
    layout: ParityLayout,
    subset: Iterable[str],
    outcomes,
) -> tuple[Statevector, MeasurementRecord]:
    """Measure parity qubits along X; on -1 apply Z to every tracked data qubit.

    The decode with no parity rotation folded in (`run_layer` measures the
    same schedule along `xy_axis(theta)`). Measured qubits are discarded
    afterwards. Outcomes are either a prescribed list of +/-1 consumed in
    layout order, which must hold one outcome per measurement, or a seeded
    generator sampling Born probabilities.
    """
    schedule = _decode_schedule(layout, state.labels, subset)
    source = resolve_outcomes(outcomes)
    result = run_schedule(schedule, state.amplitudes, [X_AXIS] * len(schedule.qubits), source)
    if source is not outcomes:
        source.check_spent()
    return result


def unitary_decode(state: Statevector, layout: ParityLayout) -> Statevector:
    """Run the constraint CNOTs in reverse and strip the zeroed parity qubits.

    Serves as the independent decoding oracle: on codespace states every
    parity qubit ends in |0>; anything else raises.
    """
    state = apply_circuit(state, encoding_circuit(layout)[::-1])
    for p in layout.parity_qubits:
        if p not in state.labels:
            continue
        prob_zero = outcome_probability(state, p, Z_AXIS, 1)
        if prob_zero < 1.0 - 1e-9:
            raise ValueError(f"state outside codespace: parity qubit {p!r} not |0> (p={prob_zero:.6f})")
        _, state = project(state, p, Z_AXIS, 1)
        state = discard_qubit(state, p, Z_AXIS, 1)
    return state


def _decode_set(layout: ParityLayout, params: LayerParams) -> frozenset[str]:
    """Validate a layer; return its decode set."""
    params.validate(layout)
    return params.decode if params.decode is not None else frozenset(layout.parity_qubits)


def _rotated_decode(
    layout: ParityLayout, labels: tuple[str, ...], params: LayerParams
) -> tuple[Schedule, list[tuple[float, float, float]], complex]:
    """A validated layer's decode on a register over labels: its schedule,
    each decoded parity qubit's `xy_axis(theta)`, and the scalar
    exp(-i/2 sum theta) that the RZ gates carry and the axes drop, for the
    register to be multiplied by."""
    schedule = _decode_schedule(layout, labels, _decode_set(layout, params))
    theta = [params.theta.get(p, 0.0) for p in schedule.qubits]
    return schedule, [xy_axis(t) for t in theta], np.exp(-0.5j * sum(theta))


def _reencode_sets(layout: ParityLayout, schedule: Schedule) -> dict[str, frozenset[str]]:
    """The parity qubits a decode schedule measures, with their declared sets."""
    return {p: layout.parity_sets[p] for p in schedule.qubits}


def run_layer(
    state: Statevector,
    layout: ParityLayout,
    params: LayerParams,
    outcomes,
    final: bool = False,
) -> tuple[Statevector, MeasurementRecord]:
    """One layer: parity rotations folded into the decode with corrections,
    data rotations, and re-encoding of the decoded set unless this is the
    final layer. A prescribed outcome list must hold one outcome per
    decoded parity qubit."""
    schedule, axes, phase = _rotated_decode(layout, state.labels, params)
    source = resolve_outcomes(outcomes)
    state, record = run_schedule(schedule, state.amplitudes * phase, axes, source)
    if source is not outcomes:
        source.check_spent()
    state = apply_circuit(state, params.data_rotations(layout.data_qubits))
    if not final:
        state = BranchArray.start(state).append_parities(_reencode_sets(layout, schedule)).state(0)
    return state, record


def _layer_sequence(layers: Sequence[LayerParams]) -> list[tuple[LayerParams, bool]]:
    """(params, final) per layer; the final layer always decodes fully."""
    if not layers:
        raise ValueError("at least one layer required")
    out = [(params, False) for params in layers[:-1]]
    last = layers[-1]
    return out + [(LayerParams(last.theta, last.alpha, last.phi, decode=None), True)]


def measurement_count(layout: ParityLayout, layers: Sequence[LayerParams]) -> int:
    """How many parity qubits one run of these layers measures, over all layers."""
    return sum(len(_decode_set(layout, params)) for params, _ in _layer_sequence(layers))


def run_computation(
    layout: ParityLayout,
    psi: Statevector,
    layers: Sequence[LayerParams],
    outcomes,
) -> tuple[Statevector, list[MeasurementRecord]]:
    """Encode once, fold layers, finish fully decoded on the data register."""
    steps = _layer_sequence(layers)
    source = resolve_outcomes(outcomes)
    state = encode_input(layout, psi)
    records: list[MeasurementRecord] = []
    for params, final in steps:
        state, record = run_layer(state, layout, params, source, final=final)
        records.append(record)
    if source is not outcomes:
        source.check_spent()
    return state, records


def run_all_branches(layout: ParityLayout, psi: Statevector, layers: Sequence[LayerParams]) -> BranchArray:
    """`run_computation` on every outcome branch at once, in one array.

    Same layer steps, checks and decode schedules; each decode splits every
    branch in two (`run_schedule_all`), and re-encoding appends the parity
    qubits to every branch. Raises ValueError when the branches would take
    the register over the qubit cap.
    """
    steps = _layer_sequence(layers)
    branches = BranchArray.start(encode_input(layout, psi))
    for params, final in steps:
        schedule, axes, phase = _rotated_decode(layout, branches.labels, params)
        branches = branches.on_register(branches.labels, branches.amplitudes * phase)
        branches = run_schedule_all(schedule, branches, axes)
        branches = branches.apply(params.data_rotations(layout.data_qubits))
        if not final:
            branches = branches.append_parities(_reencode_sets(layout, schedule))
    return branches


def all_outcome_branches(num_measurements: int) -> Iterable[list[int]]:
    """Every +/-1 assignment, +1-first, for exhaustive branch checks."""
    for mask in range(1 << num_measurements):
        yield [1 - 2 * (mask >> (num_measurements - 1 - k) & 1) for k in range(num_measurements)]


# ---------------------------------------------------------------------------
# Program serialization (shared with the measurement-based engine)
# ---------------------------------------------------------------------------

def layers_to_json(layers: Sequence[LayerParams]) -> list:
    out = []
    for layer in layers:
        out.append(
            {
                "theta": dict(sorted(layer.theta.items())),
                "alpha": dict(sorted(layer.alpha.items())),
                "phi": dict(sorted(layer.phi.items())),
                "decode": "all" if layer.decode is None else sorted(layer.decode),
            }
        )
    return out


LAYER_FIELDS = ("theta", "alpha", "phi", "decode")


def layers_from_json(data: Sequence[dict]) -> list[LayerParams]:
    if not isinstance(data, list) or not all(isinstance(entry, dict) for entry in data):
        raise ValueError("field 'layers' must be a list of objects")
    layers = []
    for entry in data:
        unknown = [key for key in entry if key not in LAYER_FIELDS]
        if unknown:
            raise ValueError(f"field 'layers': unknown layer field {unknown[0]!r}")
        angles = {}
        for key in ("theta", "alpha", "phi"):
            if not isinstance(entry.get(key, {}), dict):
                raise ValueError(f"field {key!r} must map qubits to angles")
            with json_field(key):
                angles[key] = {k: json_number(v) for k, v in entry.get(key, {}).items()}
        decode = entry.get("decode", "all")
        with json_field("decode"):
            decode = None if decode == "all" else frozenset(json_labels(decode))
        layers.append(LayerParams(**angles, decode=decode))
    return layers
