"""The full-register parity route that only the tests need. The engines
run a parity program on the data register alone, each decoded parity
qubit measured as it is encoded; this route holds the whole encoded
register instead, as the constraint CNOTs leave it, and each layer:
- applies its parity rotations as RZ gates;
- measures its decode set out of the register along X (`_MEASURE`
  steps), a -1 outcome corrected by Z on the tracked data qubits;
- applies its data rotations as RZ and RX gates;
- re-encodes the decoded parity qubits unless it is the final layer."""

import numpy as np

from parityflow import parity_engine
from parityflow.layout import Gate, ParityLayout, rx, rz
from parityflow.parity_engine import X_AXIS, LayerParams
from parityflow.simulator import BranchArray, Statevector, _apply_gates, run_schedule_all


def data_rotations(params: LayerParams, qubits) -> list[Gate]:
    """RZ(phi) then RX(alpha) on each qubit in the given order; zero angles skipped."""
    gates = []
    for q in qubits:
        if params.phi.get(q):
            gates.append(rz(q, params.phi[q]))
        if params.alpha.get(q):
            gates.append(rx(q, params.alpha[q]))
    return gates


def _apply(branches: BranchArray, gates: list[Gate]) -> BranchArray:
    return branches.on_register(branches.labels, _apply_gates(branches.amplitudes, branches.labels, gates))


def full_register_branches(layout: ParityLayout, psi: Statevector, layers: list[LayerParams]) -> BranchArray:
    """Every outcome branch of the program on the full register, in one
    array; each record axis is X, the parity rotation having been a gate."""
    branches = BranchArray.start(parity_engine.encode_input(layout, psi))
    for i, (params, decode_set) in enumerate(zip(layers, parity_engine._decode_sets(layout, layers))):
        gates = [rz(p, params.theta[p]) for p in layout.parity_qubits if params.theta.get(p)]
        schedule = parity_engine._decode_schedule(layout, branches.labels, decode_set)
        branches = run_schedule_all(schedule, _apply(branches, gates), [X_AXIS] * len(schedule.qubits))
        branches = _apply(branches, data_rotations(params, layout.data_qubits))
        if i < len(layers) - 1:
            branches = branches.append_parities({p: layout.parity_sets[p] for p in schedule.qubits})
    return branches


def phase_polynomial(layout: ParityLayout, psi: Statevector, layers: list[LayerParams]) -> Statevector:
    """The program as the map it computes on the data register: per layer,
    exp(-i theta_p / 2 Z_S(p)) for every parity qubit p, one phase per
    amplitude index read from the parity of its set S(p), then RZ(phi) and
    RX(alpha) on each data qubit as gates."""
    n = len(psi.labels)
    index = np.arange(1 << n)
    amps = psi.amplitudes
    for params in layers:
        exponent = np.zeros(1 << n)
        for p, theta in params.theta.items():
            parity = np.zeros(1 << n, dtype=np.int64)
            for q in layout.parity_sets[p]:
                parity ^= index >> (n - 1 - psi.labels.index(q)) & 1
            exponent += theta * (1 - 2 * parity)
        amps = _apply_gates(amps * np.exp(-0.5j * exponent), psi.labels, data_rotations(params, psi.labels))
    return Statevector(psi.labels, amps)
