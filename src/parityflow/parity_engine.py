"""Layered parity computation: encode, rotate parity qubits, decode, repeat.

Decoding is measurement-based: X measurements on parity qubits followed by
Z corrections on the tracked data qubits wherever the outcome came out -1,
which completes the parity stabilizer and makes every outcome branch land
on the same state. The CNOT-reversal decoder is kept alongside as an
independent oracle.

Within a layer the order is: parity-qubit Z rotations, measurement-based
decoding with corrections, local data rotations, then (when another layer
follows) re-encoding of the decoded parity qubits. RZ(t) on a parity qubit
and its X measurement are one measurement along `xy_axis(t)`, the Hadamard
image of the measurement-based engine's YZ axis at t; the register takes
the scalar exp(-i t/2) that the axis drops. `LayerParams.validate` keeps
every rotated parity qubit in the layer's decode set. Z rotations on data
qubits commute with the encoding. An X rotation on a data qubit that a
parity qubit outside the decode set still tracks would act on an encoded
qubit, making the output depend on the outcome branch, so it is refused.
Each rotated data qubit takes RZ(phi) then RX(alpha) as one 2x2.

A run never holds a parity qubit. Preparing a qubit commutes with every
command on other qubits (Danos, Kashefi and Panangaden, "The measurement
calculus", 2007), so each decoded parity qubit is measured as it is
encoded: it holds the parity of its set, so its `xy_axis` bra leaves one
of two values on each data index, read by that parity, with a -1
outcome's Z on the set folded in. That is one diagonal step on the data
register (`simulator.parity_plan`).
`_layer_runs` compiles the layers, all checked before any runs, which
`simulator.run_layers` runs along one outcome list (`run_computation`)
and `simulator.run_layers_all` on every outcome branch at once
(`run_all_branches`). `encode_input`, `mb_decode`, `run_layer` and
`unitary_decode` hold the encoded register: the full-register route the
runs are checked against. A run ends on the data register, so the final
layer's decode set, if given, must be every parity qubit.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from parityflow.graph import json_field, json_labels, json_list, json_number, json_object
from parityflow.layout import ParityLayout, encoding_circuit
from parityflow.simulator import (
    BranchArray,
    Layer,
    MeasurementRecord,
    Schedule,
    Statevector,
    apply_circuit,
    compile_plan,
    discard_qubit,
    outcome_probability,
    parity_plan,
    project,
    rotate_qubits,
    run_layers,
    run_layers_all,
    run_schedule,
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
        for name in ("theta", "alpha", "phi"):
            angles = dict(getattr(self, name))
            for key, angle in angles.items():
                if not math.isfinite(angle):
                    raise ValueError(f"{name}[{key!r}] = {angle} is not a finite angle")
            object.__setattr__(self, name, angles)
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


def _check_input(layout: ParityLayout, psi: Statevector) -> None:
    """Refuse an input not over the data qubits."""
    if psi.labels != layout.data_qubits:
        raise ValueError(f"input labels {psi.labels} do not match data qubits {layout.data_qubits}")


def encode_input(layout: ParityLayout, psi: Statevector) -> Statevector:
    """The state the constraint CNOTs leave on |psi, 0..0>: each parity
    qubit appended holding the parity of its set."""
    _check_input(layout, psi)
    return BranchArray.start(psi).append_parities(layout.parity_sets).state(0)


def _decode_schedule(layout: ParityLayout, labels: tuple[str, ...], subset: Iterable[str]) -> Schedule:
    """The schedule measuring the members of subset out of a register over
    labels, in layout order: a -1 outcome on p is Z on every data qubit p
    tracks."""
    members = frozenset(subset)
    unknown = members - set(layout.parity_qubits)
    if unknown:
        raise ValueError(f"not parity qubits: {sorted(unknown)}")
    missing = members - set(labels)
    if missing:
        raise ValueError(f"parity qubits not in register: {sorted(missing)}")
    qubits = [p for p in layout.parity_qubits if p in members]
    return compile_plan(labels, qubits, lambda p: ((), layout.parity_sets[p]))


def mb_decode(
    state: Statevector,
    layout: ParityLayout,
    subset: Iterable[str],
    outcomes: Sequence[int],
) -> tuple[Statevector, MeasurementRecord]:
    """Measure parity qubits along X; on -1 apply Z to every tracked data qubit.

    The decode with no parity rotation folded in (`run_layer` measures the
    same schedule along `xy_axis(theta)`). Measured qubits are discarded
    afterwards. The outcomes, a list of +/-1 consumed in layout order, must
    hold one outcome per measurement.
    """
    schedule = _decode_schedule(layout, state.labels, subset)
    return run_schedule(schedule, state.amplitudes, [X_AXIS] * len(schedule.qubits), outcomes)


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


def _decode_set(layout: ParityLayout, params: LayerParams, final: bool = False) -> frozenset[str]:
    """Validate a layer; return its decode set. A final layer's decode set,
    if given, must be every parity qubit."""
    params.validate(layout)
    every = frozenset(layout.parity_qubits)
    if final and params.decode not in (None, every):
        raise ValueError(f"decode: the final layer must decode every parity qubit, not {sorted(params.decode)}")
    return every if params.decode is None else params.decode


def _decode_sets(layout: ParityLayout, layers: Sequence[LayerParams]) -> list[frozenset[str]]:
    """Validate every layer of a run, before any runs; return their decode
    sets, the last as a final layer's."""
    if not layers:
        raise ValueError("at least one layer required")
    return [_decode_set(layout, params, i == len(layers) - 1) for i, params in enumerate(layers)]


def _xy_axes(params: LayerParams, qubits: Sequence[str]) -> tuple[list[tuple[float, float, float]], complex]:
    """Each decoded parity qubit's `xy_axis(theta)`, and the scalar
    exp(-i/2 sum theta) that the RZ gates carry and the axes drop, for the
    register to be multiplied by."""
    theta = [params.theta.get(p, 0.0) for p in qubits]
    return [xy_axis(t) for t in theta], np.exp(-0.5j * sum(theta))


def run_layer(
    state: Statevector,
    layout: ParityLayout,
    params: LayerParams,
    outcomes: Sequence[int],
    final: bool = False,
) -> tuple[Statevector, MeasurementRecord]:
    """One layer on an encoded register, the full-register route the runs
    are checked against: parity rotations folded into the decode with
    corrections, data rotations, and re-encoding of the decoded set unless
    this is the final layer, whose decode set, if given, must be every
    parity qubit. The outcome list must hold one outcome per decoded
    parity qubit."""
    schedule = _decode_schedule(layout, state.labels, _decode_set(layout, params, final))
    axes, phase = _xy_axes(params, schedule.qubits)
    state, record = run_schedule(schedule, state.amplitudes * phase, axes, outcomes)
    state = Statevector(state.labels, rotate_qubits(state.amplitudes, state.labels, params.alpha, params.phi))
    if not final:
        state = BranchArray.start(state).append_parities({p: layout.parity_sets[p] for p in schedule.qubits}).state(0)
    return state, record


def measurement_count(layout: ParityLayout, layers: Sequence[LayerParams]) -> int:
    """How many parity qubits one run of these layers measures, over all layers."""
    return sum(map(len, _decode_sets(layout, layers)))


def _layer_runs(layout: ParityLayout, layers: Sequence[LayerParams]) -> list[Layer]:
    """Validate every layer of a run, before any runs, and compile each
    one's decode on the data register into a `simulator.Layer`: each
    decoded parity qubit is one CNOT-joined `_FRESH` step on its set's
    mask, a -1 outcome's Z on that set folded in."""
    runs = []
    for params, members in zip(layers, _decode_sets(layout, layers)):
        qubits = [p for p in layout.parity_qubits if p in members]
        schedule = parity_plan(layout.data_qubits, qubits, layout.parity_sets)
        runs.append((schedule, *_xy_axes(params, qubits), params.alpha, params.phi))
    return runs


def run_computation(
    layout: ParityLayout,
    psi: Statevector,
    layers: Sequence[LayerParams],
    outcomes: Sequence[int],
) -> tuple[Statevector, list[MeasurementRecord]]:
    """Fold layers on the data register (`_layer_runs`), finishing fully
    decoded. Every layer and the input labels are checked before the first
    measurement, and the outcomes by `run_layers`."""
    runs = _layer_runs(layout, layers)
    _check_input(layout, psi)
    return run_layers(runs, psi.amplitudes, outcomes)


def run_all_branches(layout: ParityLayout, psi: Statevector, layers: Sequence[LayerParams]) -> BranchArray:
    """`run_computation` on every outcome branch at once, in one array,
    through `run_layers_all`, which refuses a layer whose rows would take
    the data register over the qubit cap."""
    runs = _layer_runs(layout, layers)
    _check_input(layout, psi)
    return run_layers_all(runs, BranchArray.start(psi))


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


def layers_from_json(data: Sequence[dict]) -> list[LayerParams]:
    with json_field("layers"):
        entries = [json_object(entry, "layer", (), ("theta", "alpha", "phi", "decode")) for entry in json_list(data)]
    layers = []
    for entry in entries:
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
