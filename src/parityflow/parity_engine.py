"""Layered parity computation: encode, rotate parity qubits, decode, repeat.

Decoding is measurement-based: X measurements on parity qubits followed by
Z corrections on the tracked data qubits wherever the outcome came out -1,
which completes the parity stabilizer and makes every outcome branch land
on the same state. The CNOT-reversal decoder is kept alongside as an
independent oracle.

Within a layer the order is: parity-qubit Z rotations, measurement-based
decoding with corrections, local data rotations, then (when another layer
follows) re-encoding of the decoded parity qubits from fresh ancillas.
Data rotations acting before re-encoding is a convention; it matters only
for X rotations interleaved with partial decoding, and both engines in
this package share it.

`run_computation` follows one outcome list; `run_all_branches` runs the
same layers on every outcome branch at once, in one array, with the same
checks.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from parityflow.layout import Gate, ParityLayout, cnot, encoding_circuit, rx, rz
from parityflow.simulator import (
    BranchArray,
    MeasurementRecord,
    Statevector,
    append_qubit,
    apply_circuit,
    discard_qubit,
    measure_all_branches,
    measure_and_correct,
    outcome_probability,
    project,
    resolve_outcomes,
)

X_AXIS = (1.0, 0.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)


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
    """Append the parity register in |0..0> and run the constraint CNOTs."""
    if psi.labels != tuple(layout.data_qubits):
        raise ValueError(f"input labels {psi.labels} do not match data qubits {layout.data_qubits}")
    state = psi
    for p in layout.parity_qubits:
        state = append_qubit(state, p, (1.0, 0.0))
    return apply_circuit(state, encoding_circuit(layout))


def _decode_plan(layout: ParityLayout, labels: tuple[str, ...], subset: Iterable[str]) -> list:
    """(parity qubit, X axis) for each member of subset, in layout order."""
    members = frozenset(subset)
    unknown = members - set(layout.parity_qubits)
    if unknown:
        raise ValueError(f"not parity qubits: {sorted(unknown)}")
    missing = members - set(labels)
    if missing:
        raise ValueError(f"parity qubits not in register: {sorted(missing)}")
    return [(p, X_AXIS) for p in layout.parity_qubits if p in members]


def _parity_correction(layout: ParityLayout):
    """Correction rule: a -1 outcome on p is Z on every data qubit p tracks."""

    def complete_parity(p: str) -> tuple[tuple[str, ...], frozenset[str]]:
        return (), layout.parity_sets[p]

    return complete_parity


def mb_decode(
    state: Statevector,
    layout: ParityLayout,
    subset: Iterable[str],
    outcomes,
) -> tuple[Statevector, MeasurementRecord]:
    """Measure parity qubits along X; on -1 apply Z to every tracked data qubit.

    Measured qubits are discarded afterwards. Outcomes are either a
    prescribed list of +/-1 consumed in layout order or a seeded generator
    sampling Born probabilities.
    """
    plan = _decode_plan(layout, state.labels, subset)
    source = resolve_outcomes(outcomes)
    return measure_and_correct(state, plan, _parity_correction(layout), source)


def unitary_decode(state: Statevector, layout: ParityLayout) -> Statevector:
    """Run the constraint CNOTs in reverse and strip the zeroed parity qubits.

    Serves as the independent decoding oracle: on codespace states every
    parity qubit ends in |0>; anything else raises.
    """
    reversed_circuit = tuple(cnot(c, t) for c, t in reversed(layout.constraints))
    state = apply_circuit(state, reversed_circuit)
    for p in layout.parity_qubits:
        if p not in state.labels:
            continue
        prob_zero = outcome_probability(state, p, Z_AXIS, 1)
        if prob_zero < 1.0 - 1e-9:
            raise ValueError(f"state outside codespace: parity qubit {p!r} not |0> (p={prob_zero:.6f})")
        _, state = project(state, p, Z_AXIS, 1)
        state = discard_qubit(state, p)
    return state


def _reencode_gates(layout: ParityLayout, subset: frozenset[str]) -> tuple[list[str], list[Gate]]:
    """Fresh |0> ancillas for the decoded parity qubits, and the CNOTs that
    re-entangle them from their tracked data qubits (always well defined,
    independent of the original constraint routing)."""
    qubits = [p for p in layout.parity_qubits if p in subset]
    gates = [cnot(q, p) for p in qubits for q in sorted(layout.parity_sets[p], key=layout.data_qubits.index)]
    return qubits, gates


def _reencode(state: Statevector, layout: ParityLayout, subset: frozenset[str]) -> Statevector:
    qubits, gates = _reencode_gates(layout, subset)
    for p in qubits:
        state = append_qubit(state, p, (1.0, 0.0))
    return apply_circuit(state, gates)


def _layer_setup(layout: ParityLayout, params: LayerParams) -> tuple[frozenset[str], list[Gate]]:
    """Validate a layer; return its decode set and its parity rotations."""
    params.validate(layout)
    decode_set = params.decode if params.decode is not None else frozenset(layout.parity_qubits)
    rotations = [rz(p, params.theta[p]) for p in layout.parity_qubits if params.theta.get(p)]
    return decode_set, rotations


def run_layer(
    state: Statevector,
    layout: ParityLayout,
    params: LayerParams,
    outcomes,
    final: bool = False,
) -> tuple[Statevector, MeasurementRecord]:
    """One layer: parity rotations, decode with corrections, data rotations,
    and re-encoding of the decoded set unless this is the final layer."""
    decode_set, rotations = _layer_setup(layout, params)
    state = apply_circuit(state, rotations)
    state, record = mb_decode(state, layout, decode_set, outcomes)
    state = apply_circuit(state, params.data_rotations(layout.data_qubits))
    if not final:
        state = _reencode(state, layout, decode_set)
    return state, record


def _layer_sequence(layers: Sequence[LayerParams]) -> list[tuple[LayerParams, bool]]:
    """(params, final) per layer; the final layer always decodes fully."""
    if not layers:
        raise ValueError("at least one layer required")
    out = [(params, False) for params in layers[:-1]]
    last = layers[-1]
    return out + [(LayerParams(last.theta, last.alpha, last.phi, decode=None), True)]


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
    return state, records


def run_all_branches(layout: ParityLayout, psi: Statevector, layers: Sequence[LayerParams]) -> BranchArray:
    """`run_computation` on every outcome branch at once, in one array.

    Same layer steps and checks; each decode splits every branch in two
    (`measure_all_branches`), and re-encoding appends the ancillas to every
    branch. Raises ValueError when the branches would take the register
    over the qubit cap.
    """
    steps = _layer_sequence(layers)
    branches = BranchArray.start(encode_input(layout, psi))
    correct = _parity_correction(layout)
    for params, final in steps:
        decode_set, rotations = _layer_setup(layout, params)
        branches = branches.apply(rotations)
        branches = measure_all_branches(branches, _decode_plan(layout, branches.labels, decode_set), correct)
        branches = branches.apply(params.data_rotations(layout.data_qubits))
        if not final:
            qubits, gates = _reencode_gates(layout, decode_set)
            branches = branches.append_zeros(qubits).apply(gates)
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


def layers_from_json(data: Sequence[dict]) -> list[LayerParams]:
    layers = []
    for entry in data:
        decode = entry.get("decode", "all")
        layers.append(
            LayerParams(
                theta={k: float(v) for k, v in entry.get("theta", {}).items()},
                alpha={k: float(v) for k, v in entry.get("alpha", {}).items()},
                phi={k: float(v) for k, v in entry.get("phi", {}).items()},
                decode=None if decode == "all" else frozenset(decode),
            )
        )
    return layers
