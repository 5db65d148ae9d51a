"""Dense statevector simulation over labeled qubits.

Amplitude index order follows the label list with the first label as the
most significant bit. Rotations use the convention RZ(t) = exp(-i t Z / 2),
RX(t) = exp(-i t X / 2). All operations return new values.

The kernels take a leading branch axis: a `BranchArray` holds every outcome
branch of a run as one row. Measuring qubits out is two steps:
`compile_plan` turns the measured qubits and the correction rule into a
`Schedule` of register positions and correction bitmasks, fixed before any
outcome is known. `run_schedule` measures one register along it,
contracting each measured qubit with the bra of the outcome taken only
(and first with the +1 bra when the outcome is sampled), while
`run_schedule_all` contracts each measured qubit of every row with both
outcome bras at once, doubling the rows and halving the register. Both
engines measure only through these, each keeping the schedules it
compiles; a rotation right before a measurement reaches them folded into
the measurement's axis, not as a gate. `project`, `discard_qubit`,
`outcome_probability`, `append_qubit` and `apply_pauli_x/z` are the
reference kernels the tests check them against.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
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


def basis_state(labels: Sequence[str], bits: str) -> Statevector:
    """Computational basis state; bits follow the label order."""
    labels = tuple(labels)
    check_cap(len(labels))
    if len(bits) != len(labels) or set(bits) - {"0", "1"}:
        raise ValueError(f"bits {bits!r} do not match {len(labels)} qubits")
    amps = np.zeros(2 ** len(labels), dtype=np.complex128)
    amps[int(bits, 2) if bits else 0] = 1.0
    return Statevector(labels, amps)


def random_state(labels: Sequence[str], rng: np.random.Generator) -> Statevector:
    """Haar-ish random state from normalized complex Gaussian amplitudes."""
    labels = tuple(labels)
    check_cap(len(labels))
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


def discard_qubit(
    state: Statevector, q: str, axis: Sequence[float] | None = None, outcome: int = 1
) -> Statevector:
    """Remove a qubit that factors out of the register.

    The reduced state of q must be pure (within 1e-10); otherwise the qubit
    is still entangled and discarding it would not leave a statevector.
    The rest of the register is the row of q that `_bra_row` picks for
    `outcome` on `axis`, the row `_outcome_bras` contracts with,
    renormalised: after `project(state, q, axis, outcome)` that is the
    state `run_schedule` leaves, global phase included. Without an
    axis, q's own Bloch axis and outcome +1: the row of larger norm.
    """
    pos = state.index_of(q)
    n = state.num_qubits
    m = np.moveaxis(state.amplitudes.reshape([2] * n), pos, 0).reshape(2, -1)
    rho = m @ m.conj().T
    purity = float(np.trace(rho @ rho).real)
    if purity < 1.0 - PURITY_TOL:
        raise EntangledQubitError(f"cannot discard entangled qubit {q!r} (purity {purity:.6f})")
    z = float((rho[0, 0] - rho[1, 1]).real) if axis is None else axis[2]
    row = _bra_row(z, outcome)
    rest = m[row] / np.linalg.norm(m[row])
    labels = state.labels[:pos] + state.labels[pos + 1 :]
    return Statevector(labels, rest)


def append_qubit(state: Statevector, q: str, amplitudes: Sequence[complex]) -> Statevector:
    """Tensor a fresh single-qubit state onto the end of the register."""
    if q in state.labels:
        raise ValueError(f"qubit {q!r} already present")
    check_cap(state.num_qubits + 1)
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
    return float(distances_up_to_phase(a.amplitudes[None], b.amplitudes)[0])


def distances_up_to_phase(rows: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """`distance_up_to_phase` from each row of amplitudes to the reference
    amplitudes, over the same labels."""
    residual = rows - (rows @ reference.conj())[:, None] * reference
    return np.minimum(1.0, np.linalg.norm(residual, axis=1))


@dataclass(frozen=True, slots=True)
class MeasurementEntry:
    qubit: str
    axis: tuple[float, float, float]
    outcome: int
    probability: float


MeasurementRecord = tuple[MeasurementEntry, ...]


def _bra_row(z: float, outcome: int) -> int:
    """The row of an outcome's projector that stands for its eigenstate, on
    an axis with z component z: the row of larger norm, the top one on a
    tie. The projector (1 + o (x, y, z) . sigma) / 2 has rows of squared
    norm (1 + o z) / 2 and (1 - o z) / 2."""
    return 0 if outcome * z >= 0 else 1


@lru_cache(maxsize=64)
def _outcome_bras(axis: tuple[float, float, float]) -> np.ndarray:
    """The +1 and -1 bras of a unit Bloch axis (x, y, z), as the rows of a
    read-only 2x2 matrix. Built once per axis: every branch of a program
    measures the same few axes.

    Each is the `_bra_row` of that outcome's projector, normalised.
    Contracting the measured qubit with it gives the row discard_qubit keeps
    after project, up to the 1/sqrt(p) renormalisation.
    """
    if len(axis) != 3 or abs(math.sqrt(sum(c * c for c in axis)) - 1.0) > 1e-9:
        raise ValueError("axis must be a unit 3-vector")
    x, y, z = axis
    rows = []
    for o in (1, -1):
        # twice the outcome's projector, row by row
        top, bottom = (1 + o * z, complex(o * x, -o * y)), (complex(o * x, o * y), 1 - o * z)
        a, b = bottom if _bra_row(z, o) else top
        norm = math.hypot(abs(a), abs(b))
        rows.append((a / norm, b / norm))
    bras = np.array(rows)
    bras.setflags(write=False)
    return bras


def _apply_paulis(amps: np.ndarray, xmask: int, zmask: int) -> np.ndarray:
    """X on each qubit of xmask, then Z on each of zmask, on amplitudes
    (..., 2^n) the caller owns, the masks in amplitude-index bits: the X's
    as one index permutation of the last axis, the Z's as one in-place
    negation of the indices they flip."""
    n = amps.shape[-1].bit_length() - 1
    if xmask:
        amps = amps[..., _flipped_index(n, xmask)]
    if zmask:
        np.negative(amps, out=amps, where=_odd_overlap(n, zmask))
    return amps


@lru_cache(maxsize=256)
def _flipped_index(n: int, mask: int) -> np.ndarray:
    """index ^ mask for every n-bit index: the permutation a product of X's
    on mask's bits applies to the amplitudes."""
    flipped = np.arange(1 << n) ^ mask
    flipped.setflags(write=False)
    return flipped


@lru_cache(maxsize=256)
def _odd_overlap(n: int, mask: int) -> np.ndarray:
    """Whether index & mask has an odd number of set bits, for every n-bit
    index: where a product of Z's on mask's bits flips the sign."""
    odd = np.zeros(1 << n, dtype=bool)
    for k in range(n):
        if mask >> k & 1:
            odd.reshape(-1, 2, 1 << k)[:, 1] ^= True
    odd.setflags(write=False)
    return odd


def _measure_out(amps: np.ndarray, pos: int, axis: tuple[float, float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Contract the qubit at register position pos of every row of amps
    (B, 2^k) with both outcome bras.

    Returns the unnormalised outcome halves (2, B, 2^(k-1)), +1 first, and
    their Born probabilities (2, B).
    """
    rows = amps.shape[0]
    # the measured qubit's axis first, then (branch row, qubits before q, qubits after q)
    split = amps.reshape(rows, 1 << pos, 2, -1).transpose(2, 0, 1, 3).reshape(2, -1)
    halves = (_outcome_bras(axis) @ split).reshape(2, rows, -1)
    # each half-row's squared norm, as one stack of real dot products
    flat = halves.view(np.float64)
    born = (flat[:, :, None, :] @ flat[:, :, :, None]).reshape(2, rows)
    return halves, born


@dataclass(frozen=True, slots=True)
class Schedule:
    """Measuring some qubits of a register in turn, compiled once.

    `steps` holds three ints for each of `qubits` in turn, flat, one tuple
    per schedule: its position in the register as it stands when it is
    measured, and the X and Z targets of its -1 correction as masks on the
    register it leaves, bit k - 1 - i for label i of k, the label's bit in
    the amplitude index. `labels` is the register left at the end. Nothing
    in it depends on the axes or the outcomes, so one schedule serves every
    branch of a run.
    """

    qubits: tuple[str, ...]
    steps: tuple[int, ...]
    labels: tuple[str, ...]

    def iter_steps(self) -> Iterator[tuple[str, int, int, int]]:
        """(qubit, position, xmask, zmask) for each step in turn."""
        steps = iter(self.steps)
        return zip(self.qubits, steps, steps, steps, strict=True)


def compile_plan(
    labels: tuple[str, ...],
    qubits: Iterable[str],
    correct: Callable[[str], tuple[Iterable[str], Iterable[str]]],
) -> Schedule:
    """The schedule measuring `qubits` in turn out of a register over
    `labels`, where `correct(qubit)` names the -1 correction as label sets
    (X targets, Z targets) on the qubits still present. Raises ValueError
    on a qubit or target absent from the register."""
    qubits = tuple(qubits)
    steps = []
    for q in qubits:
        pos = _position(labels, q)
        labels = labels[:pos] + labels[pos + 1 :]
        xs, zs = correct(q)
        steps += (pos, _index_mask(labels, xs), _index_mask(labels, zs))
    return Schedule(qubits, tuple(steps), labels)


def _index_mask(labels: tuple[str, ...], qubits: Iterable[str]) -> int:
    """The qubits' bits in the amplitude index of a register over labels."""
    n = len(labels)
    mask = 0
    for q in qubits:
        mask ^= 1 << (n - 1 - _position(labels, q))
    return mask


def run_schedule(
    schedule: Schedule,
    amplitudes: np.ndarray,
    axes: Sequence[tuple[float, float, float]],
    source: OutcomeSource,
) -> tuple[Statevector, MeasurementRecord]:
    """Measure the schedule's qubits of one register (the amplitudes of the
    register it was compiled on) along `axes`, one per qubit.

    Each step contracts the measured qubit with the bra of the outcome
    taken only and applies the step's correction on a -1 outcome. A
    sampling `source` draws from the +1 probability, so the +1 half is
    contracted first and kept when the draw is +1; a prescribed one needs
    no probability to choose. The halves are kept unnormalised: `weight`
    is the squared norm of the register so far, each Born probability the
    kept half's squared norm over it, and the output is normalised once.
    Gives the row of `run_schedule_all` for the outcomes taken. Raises
    ZeroProbabilityError below the 1e-12 probability floor.
    """
    amps, weight, sampling = amplitudes, 1.0, source.samples
    record: list[MeasurementEntry] = []
    for (q, pos, xmask, zmask), axis in zip(schedule.iter_steps(), axes, strict=True):
        bras = _outcome_bras(axis)
        view = amps.reshape(1 << pos, 2, -1)
        if sampling:
            half = bras[0] @ view
            outcome = source.next_outcome(float(np.vdot(half, half).real) / weight)
            if outcome == -1:
                half = bras[1] @ view
        else:
            outcome = source.next_outcome()
            half = bras[0 if outcome == 1 else 1] @ view
        kept = float(np.vdot(half, half).real)
        probability = kept / weight
        if probability < ZERO_PROB_TOL:
            raise ZeroProbabilityError(f"outcome {outcome:+d} on {q!r} has zero probability")
        amps, weight = half.reshape(-1), kept
        if outcome == -1:
            amps = _apply_paulis(amps, xmask, zmask)
        record.append(MeasurementEntry(q, axis, outcome, probability))
    return Statevector(schedule.labels, amps / math.sqrt(weight)), tuple(record)


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

    def append_parities(self, sets: Mapping[str, Iterable[str]]) -> BranchArray:
        """Append the qubits of `sets`, in order, to every branch's register,
        each holding the parity of the register qubits its set names (|0>
        for an empty set): one index permutation, amplitude x moving to x
        followed by the new qubits' parities of x."""
        for q in sets:
            if q in self.labels:
                raise ValueError(f"qubit {q!r} already present")
        labels = self.labels + tuple(sets)
        check_cap(len(labels), len(self.amplitudes))
        k, m = len(self.labels), len(sets)
        target = np.arange(1 << k) << m
        for j, members in enumerate(sets.values()):
            target[_odd_overlap(k, _index_mask(self.labels, members))] ^= 1 << (m - 1 - j)
        amps = np.zeros((len(self.amplitudes), 1 << len(labels)), dtype=np.complex128)
        amps[:, target] = self.amplitudes
        return self.on_register(labels, amps)

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


def run_schedule_all(
    schedule: Schedule, branches: BranchArray, axes: Sequence[tuple[float, float, float]]
) -> BranchArray:
    """`run_schedule` on both outcomes of every branch at once; `branches`
    holds the register the schedule was compiled on.

    Each step contracts the qubit of every row with both outcome bras
    (`_measure_out`), so B rows of 2^k amplitudes become 2B rows of
    2^(k-1); row 2b + 1 (outcome -1) gets the step's correction. Rows are
    renormalised by their Born probability, except below ZERO_PROB_TOL,
    where they are divided by 1.
    """
    plan = tuple(zip(schedule.qubits, axes, strict=True))
    amps = branches.amplitudes
    born_columns = []
    for (_, pos, xmask, zmask), (_, axis) in zip(schedule.iter_steps(), plan):
        halves, born = _measure_out(amps, pos, axis)
        halves /= np.sqrt(np.where(born < ZERO_PROB_TOL, 1.0, born))[:, :, None]
        halves[1] = _apply_paulis(halves[1], xmask, zmask)
        amps = halves.transpose(1, 0, 2).reshape(-1, halves.shape[2])
        born_columns.append(born.T.reshape(-1))
    previous = branches.probabilities
    rows, done = amps.shape[0], previous.shape[1]
    probabilities = np.empty((rows, done + len(plan)))
    probabilities[:, :done] = np.repeat(previous, rows // len(previous), axis=0)
    for j, column in enumerate(born_columns, done):
        probabilities[:, j] = np.repeat(column, rows // len(column))
    return BranchArray(schedule.labels, amps, probabilities, branches.plan + (plan,))


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
            bad = [o for o in spec if isinstance(o, (bool, np.bool_)) or o not in (1, -1)]
            if bad:
                raise ValueError(f"prescribed outcomes must be +/-1, got {bad}")
            self._rng = None
            self._queue = [int(o) for o in spec]
            self._taken = 0
        else:
            raise TypeError("outcomes must be a sequence of +/-1 or a numpy Generator")

    @property
    def samples(self) -> bool:
        """Whether outcomes are drawn from the +1 Born probability, which
        `next_outcome` then needs; a prescribed list ignores it."""
        return self._rng is not None

    def next_outcome(self, p_plus: float | None = None) -> int:
        if self._queue is not None:
            if self._taken == len(self._queue):
                raise ValueError("prescribed outcome list exhausted")
            self._taken += 1
            return self._queue[self._taken - 1]
        if p_plus > 1.0 - ZERO_PROB_TOL:
            return 1
        if p_plus < ZERO_PROB_TOL:
            return -1
        return 1 if self._rng.random() < p_plus else -1

    def check_spent(self) -> None:
        """Refuse a prescribed list that the run did not use up."""
        if self._queue is not None and self._taken < len(self._queue):
            left = len(self._queue) - self._taken
            raise ValueError(f"{left} prescribed outcome(s) left over after {self._taken} measurement(s)")
