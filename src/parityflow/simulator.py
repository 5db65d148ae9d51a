"""Dense statevector simulation over labeled qubits.

Amplitude index order follows the label list with the first label as the
most significant bit. Rotations use the convention RZ(t) = exp(-i t Z / 2),
RX(t) = exp(-i t X / 2). All operations return new values. `project` leaves
the measured qubit in the register as a product factor until `discard_qubit`
removes it; `measure_and_correct`, the loop both engines run, contracts each
measured qubit out of the register in one step.

The gate kernels also take a leading branch axis: a `BranchArray` holds
every outcome branch of a run as one row, and `measure_all_branches`
contracts a measured qubit with both outcome bras at once, doubling the
rows and halving the register, so no branch needs a run of its own.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from parityflow.layout import Gate

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
        return _position(self.labels, q)


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


def _position(labels: tuple[str, ...], q: str) -> int:
    try:
        return labels.index(q)
    except ValueError:
        raise ValueError(f"unknown qubit {q!r}") from None


# The gate kernels act on amplitudes of shape (..., 2^n): one register, or
# a leading branch axis of registers, all over the same n labels.


def _apply_1q(amps: np.ndarray, matrix: np.ndarray, pos: int, n: int) -> np.ndarray:
    return (matrix @ amps.reshape(-1, 2, 1 << (n - 1 - pos))).reshape(amps.shape)


def _pair_view(amps: np.ndarray, u: int, v: int, n: int) -> np.ndarray:
    """amps with axes (rest, lower qubit, between, higher qubit, after)."""
    lo, hi = sorted((u, v))
    return amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << (n - 1 - hi))


def _apply_cnot(amps: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    a = _pair_view(amps, control, target, n)
    out = a.copy()
    if control < target:
        out[:, 1, :, :] = a[:, 1, :, ::-1]
    else:
        out[:, :, :, 1] = a[:, ::-1, :, 1]
    return out.reshape(amps.shape)


def _apply_cz(amps: np.ndarray, u: int, v: int, n: int) -> np.ndarray:
    out = _pair_view(amps, u, v, n).copy()
    out[:, 1, :, 1] *= -1
    return out.reshape(amps.shape)


def _apply_gates(amps: np.ndarray, labels: tuple[str, ...], circuit: Iterable[Gate]) -> np.ndarray:
    """Apply gates in order; raises on qubits absent from the labels."""
    n = len(labels)
    for gate in circuit:
        pos = [_position(labels, q) for q in gate.qubits]
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
    return amps


def apply_circuit(state: Statevector, circuit: Iterable[Gate]) -> Statevector:
    """Apply gates in order; raises on qubits absent from the register."""
    return Statevector(state.labels, _apply_gates(state.amplitudes, state.labels, circuit))


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


def distances_up_to_phase(rows: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """`distance_up_to_phase` from each row of amplitudes to the reference
    amplitudes, over the same labels."""
    residual = rows - (rows @ reference.conj())[:, None] * reference
    return np.minimum(1.0, np.linalg.norm(residual, axis=1))


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
    """X on each qubit of xs, then Z on each of zs, on amplitudes (..., 2^n)
    the caller owns: the X's as one index permutation of the last axis, the
    Z's as one in-place negation of the indices they flip."""
    n = len(labels)
    xmask = zmask = 0
    for q in xs:
        xmask ^= 1 << (n - 1 - _position(labels, q))
    for q in zs:
        zmask ^= 1 << (n - 1 - _position(labels, q))
    if xmask:
        amps = amps[..., np.arange(1 << n) ^ xmask]
    if zmask:
        np.negative(amps, out=amps, where=_odd_overlap(n, zmask))
    return amps


@lru_cache(maxsize=64)
def _odd_overlap(n: int, mask: int) -> np.ndarray:
    """Whether index & mask has an odd number of set bits, for every n-bit
    index: where a product of Z's on mask's bits flips the sign."""
    odd = np.zeros(1 << n, dtype=bool)
    for k in range(n):
        if mask >> k & 1:
            odd.reshape(-1, 2, 1 << k)[:, 1] ^= True
    odd.setflags(write=False)
    return odd


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


def check_cap(qubits: int, branches: int = 1) -> None:
    """Refuse a register over the qubit cap, or one that all its outcome
    branches together would take over it: the 2^m branch rows count as m
    qubits more."""
    if qubits > DEFAULT_QUBIT_CAP:
        raise ValueError(f"register of {qubits} qubits exceeds cap {DEFAULT_QUBIT_CAP}")
    if qubits + branches.bit_length() - 1 > DEFAULT_QUBIT_CAP:
        raise ValueError(
            f"{branches} outcome branches of {qubits} qubits exceed the {DEFAULT_QUBIT_CAP}-qubit cap; "
            "sample branches instead (--branches sample)"
        )


Plan = tuple[tuple[str, tuple[float, float, float]], ...]


@dataclass(frozen=True, eq=False)
class BranchArray:
    """Every outcome branch of a run, one row of `amplitudes` each.

    Row b is the branch whose j-th outcome is -1 exactly when bit m - 1 - j
    of b is set (first measurement most significant, +1 as 0), which is
    branch b of `all_outcome_branches(m)`. `probabilities[b, j]` is the
    Born probability of that outcome on that branch. A branch on which one
    of them fell below ZERO_PROB_TOL is not `reachable`: the per-branch
    engines raise ZeroProbabilityError there, and its row is left
    unnormalised. `plan` holds the measured (qubit, axis) pairs, one tuple
    per measurement pass (per engine layer).
    """

    labels: tuple[str, ...]
    amplitudes: np.ndarray
    probabilities: np.ndarray
    plan: tuple[Plan, ...] = ()

    @classmethod
    def start(cls, state: Statevector) -> BranchArray:
        """The single branch of a run before any measurement."""
        return cls(state.labels, state.amplitudes.reshape(1, -1), np.zeros((1, 0)))

    @property
    def reachable(self) -> np.ndarray:
        return np.all(self.probabilities >= ZERO_PROB_TOL, axis=1)

    def on_register(self, labels: tuple[str, ...], amplitudes: np.ndarray) -> BranchArray:
        return BranchArray(labels, amplitudes, self.probabilities, self.plan)

    def apply(self, circuit: Iterable[Gate]) -> BranchArray:
        return self.on_register(self.labels, _apply_gates(self.amplitudes, self.labels, circuit))

    def append_zeros(self, qubits: Sequence[str]) -> BranchArray:
        """|0> on each new qubit, appended to the end of every branch's register."""
        for q in qubits:
            if q in self.labels:
                raise ValueError(f"qubit {q!r} already present")
        labels = self.labels + tuple(qubits)
        rows = len(self.amplitudes)
        check_cap(len(labels), rows)
        amps = np.zeros((rows, self.amplitudes.shape[1], 1 << len(qubits)), dtype=np.complex128)
        amps[:, :, 0] = self.amplitudes
        return self.on_register(labels, amps.reshape(rows, -1))

    def state(self, row: int) -> Statevector:
        return Statevector(self.labels, self.amplitudes[row])

    def records(self, row: int) -> list[MeasurementRecord]:
        """The MeasurementRecords of one branch, one per measurement pass."""
        m = self.probabilities.shape[1]
        records = []
        j = 0
        for plan in self.plan:
            entries = []
            for q, axis in plan:
                outcome = -1 if row >> (m - 1 - j) & 1 else 1
                entries.append(MeasurementEntry(q, axis, outcome, float(self.probabilities[row, j])))
                j += 1
            records.append(tuple(entries))
        return records


def measure_all_branches(
    branches: BranchArray,
    plan: Iterable[tuple[str, tuple[float, float, float]]],
    correct: Callable[[str], tuple[Iterable[str], Iterable[str]]],
) -> BranchArray:
    """`measure_and_correct` on both outcomes of every branch at once.

    Each (qubit, axis) of the plan contracts the qubit of every row with
    both outcome bras, so B rows of 2^k amplitudes become 2B rows of
    2^(k-1); row 2b + 1 (outcome -1) gets the correction `correct(qubit)`
    names. Rows are renormalised by their Born probability, except where it
    is below ZERO_PROB_TOL: those are divided by 1.
    """
    plan = tuple(plan)
    labels, amps = branches.labels, branches.amplitudes
    born_columns = []
    for q, axis in plan:
        pos = _position(labels, q)
        rows = amps.shape[0]
        # the measured qubit's axis first, then (branch row, qubits before q, qubits after q)
        split = amps.reshape(rows, 1 << pos, 2, -1).transpose(2, 0, 1, 3).reshape(2, -1)
        contracted = (_outcome_bras(axis) @ split).reshape(2, rows, -1)
        born = np.square(contracted.view(np.float64)).sum(axis=2)
        contracted /= np.sqrt(np.where(born < ZERO_PROB_TOL, 1.0, born))[:, :, None]
        labels = labels[:pos] + labels[pos + 1 :]
        contracted[1] = _apply_paulis(contracted[1], labels, *correct(q))
        amps = contracted.transpose(1, 0, 2).reshape(2 * rows, -1)
        born_columns.append(born.T.reshape(-1))
    previous = branches.probabilities
    rows, done = amps.shape[0], previous.shape[1]
    probabilities = np.empty((rows, done + len(plan)))
    probabilities[:, :done] = np.repeat(previous, rows // len(previous), axis=0)
    for j, column in enumerate(born_columns, done):
        probabilities[:, j] = np.repeat(column, rows // len(column))
    return BranchArray(labels, amps, probabilities, branches.plan + (plan,))


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
