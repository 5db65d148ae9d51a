"""Dense statevector simulation over labeled qubits.

Amplitude index order follows the label list with the first label as the
most significant bit. Rotations use the convention RZ(t) = exp(-i t Z / 2),
RX(t) = exp(-i t X / 2). All operations return new values. `project` leaves
the measured qubit in the register as a product factor until `discard_qubit`
removes it; `measure_and_correct`, the loop both engines run, contracts each
measured qubit out of the register in one step.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from parityflow.layout import Gate
from parityflow.pauli import PauliString

DEFAULT_QUBIT_CAP = 16
ZERO_PROB_TOL = 1e-12
NORM_TOL = 1e-12
PURITY_TOL = 1e-10


class ZeroProbabilityError(ValueError):
    """Requested measurement outcome has (numerically) zero probability."""


class EntangledQubitError(ValueError):
    """Qubit cannot be discarded because it is entangled with the rest."""


@dataclass(frozen=True, eq=False)
class Statevector:
    labels: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate qubit labels")
        # a copy, so that freezing it leaves the caller's array writable
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2 ** len(self.labels),):
            raise ValueError(f"expected {2 ** len(self.labels)} amplitudes, got {amps.shape}")
        norm = math.sqrt(np.vdot(amps, amps).real)
        # written so that a NaN norm (non-finite amplitudes) fails it too
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm} is not 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def index_of(self, q: str) -> int:
        try:
            return self.labels.index(q)
        except ValueError:
            raise ValueError(f"unknown qubit {q!r}") from None


def basis_state(labels: Sequence[str], bits: str, cap: int = DEFAULT_QUBIT_CAP) -> Statevector:
    """Computational basis state; bits follow the label order."""
    labels = tuple(labels)
    if len(labels) > cap:
        raise ValueError(f"register of {len(labels)} qubits exceeds cap {cap}")
    if len(bits) != len(labels) or set(bits) - {"0", "1"}:
        raise ValueError(f"bits {bits!r} do not match {len(labels)} qubits")
    amps = np.zeros(2 ** len(labels), dtype=np.complex128)
    amps[int(bits, 2) if bits else 0] = 1.0
    return Statevector(labels, amps)


def random_state(labels: Sequence[str], rng: np.random.Generator, cap: int = DEFAULT_QUBIT_CAP) -> Statevector:
    """Haar-ish random state from normalized complex Gaussian amplitudes."""
    labels = tuple(labels)
    if len(labels) > cap:
        raise ValueError(f"register of {len(labels)} qubits exceeds cap {cap}")
    amps = rng.normal(size=2 ** len(labels)) + 1j * rng.normal(size=2 ** len(labels))
    return Statevector(labels, amps / np.linalg.norm(amps))


_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


def _rz_matrix(t: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]], dtype=np.complex128)


def _rx_matrix(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _apply_1q(amps: np.ndarray, matrix: np.ndarray, pos: int, n: int) -> np.ndarray:
    a = amps.reshape([2] * n)
    a = np.moveaxis(np.tensordot(matrix, a, axes=([1], [pos])), 0, pos)
    return a.reshape(-1)


def _apply_cnot(amps: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    a = amps.reshape([2] * n).copy()
    idx1 = [slice(None)] * n
    idx1[control] = 1
    sub = a[tuple(idx1)]
    a[tuple(idx1)] = np.flip(sub, axis=target if target < control else target - 1)
    return a.reshape(-1)


def _apply_cz(amps: np.ndarray, u: int, v: int, n: int) -> np.ndarray:
    a = amps.reshape([2] * n).copy()
    idx = [slice(None)] * n
    idx[u] = 1
    idx[v] = 1
    a[tuple(idx)] *= -1
    return a.reshape(-1)


def apply_circuit(state: Statevector, circuit: Iterable[Gate]) -> Statevector:
    """Apply gates in order; raises on qubits absent from the register."""
    n = state.num_qubits
    amps = state.amplitudes
    for gate in circuit:
        pos = [state.index_of(q) for q in gate.qubits]
        if gate.name == "H":
            amps = _apply_1q(amps, _H, pos[0], n)
        elif gate.name == "RZ":
            amps = _apply_1q(amps, _rz_matrix(gate.angle), pos[0], n)
        elif gate.name == "RX":
            amps = _apply_1q(amps, _rx_matrix(gate.angle), pos[0], n)
        elif gate.name == "CNOT":
            amps = _apply_cnot(amps, pos[0], pos[1], n)
        elif gate.name == "CZ":
            amps = _apply_cz(amps, pos[0], pos[1], n)
        else:  # pragma: no cover - Gate constructor rejects unknown names
            raise ValueError(f"unknown gate {gate.name!r}")
    return Statevector(state.labels, amps)


def apply_pauli_x(state: Statevector, q: str) -> Statevector:
    pos = state.index_of(q)
    a = np.flip(state.amplitudes.reshape([2] * state.num_qubits), axis=pos)
    return Statevector(state.labels, a.reshape(-1))


def apply_pauli_z(state: Statevector, q: str) -> Statevector:
    pos = state.index_of(q)
    a = state.amplitudes.reshape([2] * state.num_qubits).copy()
    idx = [slice(None)] * state.num_qubits
    idx[pos] = 1
    a[tuple(idx)] *= -1
    return Statevector(state.labels, a.reshape(-1))


def _projected_amplitudes(state: Statevector, q: str, axis: Sequence[float], outcome: int) -> np.ndarray:
    ax = np.asarray(axis, dtype=float)
    if ax.shape != (3,) or abs(np.linalg.norm(ax) - 1.0) > 1e-9:
        raise ValueError("axis must be a unit 3-vector")
    if outcome not in (1, -1):
        raise ValueError("outcome must be +1 or -1")
    pos = state.index_of(q)
    direction = np.array(
        [[ax[2], ax[0] - 1j * ax[1]], [ax[0] + 1j * ax[1], -ax[2]]], dtype=np.complex128
    )
    projector = 0.5 * (np.eye(2) + outcome * direction)
    return _apply_1q(state.amplitudes, projector, pos, state.num_qubits)


def outcome_probability(state: Statevector, q: str, axis: Sequence[float], outcome: int = 1) -> float:
    """Born probability of the outcome without collapsing the state."""
    projected = _projected_amplitudes(state, q, axis, outcome)
    return float(np.vdot(projected, projected).real)


def project(
    state: Statevector, q: str, axis: Sequence[float], outcome: int
) -> tuple[float, Statevector]:
    """Projective measurement of q along a Bloch axis with prescribed outcome.

    Returns (probability, renormalized post-measurement state). The measured
    qubit stays in the register, now in a product state along the axis.
    Raises ZeroProbabilityError below the 1e-12 probability floor.
    """
    projected = _projected_amplitudes(state, q, axis, outcome)
    probability = float(np.vdot(projected, projected).real)
    if probability < ZERO_PROB_TOL:
        raise ZeroProbabilityError(f"outcome {outcome:+d} on {q!r} has zero probability")
    return probability, Statevector(state.labels, projected / math.sqrt(probability))


def discard_qubit(state: Statevector, q: str) -> Statevector:
    """Remove a qubit that factors out of the register.

    The reduced state of q must be pure (within 1e-10); otherwise the qubit
    is still entangled and discarding it would not leave a statevector.
    """
    pos = state.index_of(q)
    n = state.num_qubits
    m = np.moveaxis(state.amplitudes.reshape([2] * n), pos, 0).reshape(2, -1)
    rho = m @ m.conj().T
    purity = float(np.trace(rho @ rho).real)
    if purity < 1.0 - PURITY_TOL:
        raise EntangledQubitError(f"cannot discard entangled qubit {q!r} (purity {purity:.6f})")
    row = int(np.argmax(np.linalg.norm(m, axis=1)))
    rest = m[row] / np.linalg.norm(m[row])
    labels = state.labels[:pos] + state.labels[pos + 1 :]
    return Statevector(labels, rest)


def append_qubit(state: Statevector, q: str, amplitudes: Sequence[complex], cap: int = DEFAULT_QUBIT_CAP) -> Statevector:
    """Tensor a fresh single-qubit state onto the end of the register."""
    if q in state.labels:
        raise ValueError(f"qubit {q!r} already present")
    if state.num_qubits + 1 > cap:
        raise ValueError(f"register of {state.num_qubits + 1} qubits exceeds cap {cap}")
    single = np.asarray(amplitudes, dtype=np.complex128)
    if single.shape != (2,):
        raise ValueError("single-qubit amplitudes must have length 2")
    return Statevector(state.labels + (q,), np.kron(state.amplitudes, single))


def distance_up_to_phase(a: Statevector, b: Statevector) -> float:
    """sqrt(1 - |<a|b>|^2): zero exactly on phase-equivalent states.

    Evaluated as the norm of a minus its projection onto b, which is the
    same quantity but avoids the cancellation that would otherwise floor
    the result near 1e-8 for states agreeing to machine precision.
    """
    if a.labels != b.labels:
        raise ValueError("qubit labels differ")
    overlap = np.vdot(b.amplitudes, a.amplitudes)
    residual = a.amplitudes - overlap * b.amplitudes
    return min(1.0, float(np.linalg.norm(residual)))


def pauli_expectation(state: Statevector, p: PauliString) -> float:
    """Real expectation value of a signed Pauli string."""
    if p.labels != state.labels:
        raise ValueError("qubit labels differ")
    amps = state.amplitudes
    n = state.num_qubits
    transformed = amps
    for i in range(n):
        x, z = int(p.x[i]), int(p.z[i])
        if x and z:
            matrix = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
        elif x:
            matrix = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        elif z:
            matrix = np.array([[1, 0], [0, -1]], dtype=np.complex128)
        else:
            continue
        transformed = _apply_1q(transformed, matrix, i, n)
    return float(p.sign * np.vdot(amps, transformed).real)


@dataclass(frozen=True)
class MeasurementEntry:
    qubit: str
    axis: tuple[float, float, float]
    outcome: int
    probability: float


MeasurementRecord = tuple[MeasurementEntry, ...]


def _outcome_bras(axis: Sequence[float]) -> np.ndarray:
    """The +1 and -1 bras of a unit Bloch axis (x, y, z), as the rows of a
    2x2 matrix, in discard_qubit's phase convention.

    Each is the row of larger norm of that outcome's projector, row 0 on a
    tie, normalised: the top row (1 + z, x - iy) / 2 of the +1 projector
    when z >= 0, else its bottom row (x + iy, 1 - z) / 2, and likewise for
    -1 with z negated. Contracting the measured qubit with it gives the row
    discard_qubit keeps after project, up to the 1/sqrt(p) renormalisation.
    """
    if len(axis) != 3 or abs(math.sqrt(sum(c * c for c in axis)) - 1.0) > 1e-9:
        raise ValueError("axis must be a unit 3-vector")
    x, y, z = axis
    plus = (1 + z, complex(x, -y)) if z >= 0 else (complex(x, y), 1 - z)
    minus = (1 - z, complex(-x, y)) if z <= 0 else (complex(-x, -y), 1 + z)
    rows = []
    for a, b in (plus, minus):
        norm = math.hypot(abs(a), abs(b))
        rows.append((a / norm, b / norm))
    return np.array(rows)


def _apply_paulis(amps: np.ndarray, labels: tuple[str, ...], xs: Iterable[str], zs: Iterable[str]) -> np.ndarray:
    """X on each qubit of xs, then Z on each of zs, on amplitudes the caller
    owns: the X's as one index permutation, each Z as a sign flip of that
    qubit's |1> half, in place."""
    n = len(labels)

    def position(q: str) -> int:
        if q not in labels:
            raise ValueError(f"unknown qubit {q!r}")
        return labels.index(q)

    xmask = 0
    for q in xs:
        xmask ^= 1 << (n - 1 - position(q))
    if xmask:
        amps = amps[np.arange(1 << n) ^ xmask]
    view = amps.reshape((2,) * n)
    for q in zs:
        view[(slice(None),) * position(q) + (1,)] *= -1
    return amps


def measure_and_correct(
    state: Statevector,
    plan: Iterable[tuple[str, tuple[float, float, float]]],
    correct: Callable[[str], tuple[Iterable[str], Iterable[str]]],
    source: OutcomeSource,
) -> tuple[Statevector, MeasurementRecord]:
    """Measure each (qubit, axis) of the plan in turn and remove the qubit.

    The qubit is contracted with the outcome's bra (see `_outcome_bras`) and
    the rest renormalised: the state `project` then `discard_qubit` give,
    global phase included, without the second projection or the purity
    check (a contracted qubit cannot be entangled). The one exception is an
    axis whose projector rows have equal norm up to rounding, such as the
    YZ axis at theta = pi/2: there discard_qubit's pick follows rounding in
    the state, and the two may differ by a global phase. The outcome comes
    from `source`, given the +1 Born probability. On a -1 outcome
    `correct(qubit)` names the Pauli correction as label sets (X targets,
    Z targets) on the remaining qubits. Both engines run through this loop
    and differ only in their plan and correction rule.
    """
    record: list[MeasurementEntry] = []
    for q, axis in plan:
        pos = state.index_of(q)
        # axes: (+1 or -1 bra, qubits before q, qubits after q)
        contracted = np.dot(_outcome_bras(axis), state.amplitudes.reshape(1 << pos, 2, -1))
        rest = contracted[0].reshape(-1)
        p_plus = float(np.vdot(rest, rest).real)
        outcome = source.next_outcome(p_plus)
        if outcome == 1:
            probability = p_plus
        else:
            rest = contracted[1].reshape(-1)
            probability = float(np.vdot(rest, rest).real)
        if probability < ZERO_PROB_TOL:
            raise ZeroProbabilityError(f"outcome {outcome:+d} on {q!r} has zero probability")
        labels = state.labels[:pos] + state.labels[pos + 1 :]
        amps = rest / math.sqrt(probability)
        if outcome == -1:
            amps = _apply_paulis(amps, labels, *correct(q))
        state = Statevector(labels, amps)
        record.append(MeasurementEntry(q, axis, outcome, probability))
    return state, tuple(record)


def record_to_json(record: Iterable[MeasurementEntry]) -> list:
    return [
        {
            "qubit": e.qubit,
            "axis": [float(c) for c in e.axis],
            "outcome": e.outcome,
            "probability": e.probability,
        }
        for e in record
    ]


def amplitudes_to_json(state: Statevector) -> list:
    """[re, im] pairs in index order, for golden-file comparisons."""
    return [[float(a.real), float(a.imag)] for a in state.amplitudes]


def resolve_outcomes(outcomes) -> "OutcomeSource":
    if isinstance(outcomes, OutcomeSource):
        return outcomes
    return OutcomeSource(outcomes)


class OutcomeSource:
    """Uniform access to prescribed outcome lists and seeded samplers."""

    def __init__(self, spec):
        if isinstance(spec, np.random.Generator):
            self._rng = spec
            self._queue = None
        elif isinstance(spec, Sequence) and not isinstance(spec, (str, bytes)):
            bad = [o for o in spec if o not in (1, -1)]
            if bad:
                raise ValueError(f"prescribed outcomes must be +/-1, got {bad}")
            self._rng = None
            self._queue = iter(list(spec))
        else:
            raise TypeError("outcomes must be a sequence of +/-1 or a numpy Generator")

    def next_outcome(self, p_plus: float) -> int:
        if self._queue is not None:
            outcome = next(self._queue, None)
            if outcome is None:
                raise ValueError("prescribed outcome list exhausted")
            return outcome
        if p_plus > 1.0 - ZERO_PROB_TOL:
            return 1
        if p_plus < ZERO_PROB_TOL:
            return -1
        return 1 if self._rng.random() < p_plus else -1
