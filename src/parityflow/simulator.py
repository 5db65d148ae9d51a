"""Dense statevector simulation over labeled qubits.

Amplitude index order follows the label list with the first label as the
most significant bit. Rotations use the convention RZ(t) = exp(-i t Z / 2),
RX(t) = exp(-i t X / 2). All operations return new values.

The kernels take a leading branch axis: a `BranchArray` holds every outcome
branch of a run as one row. Measuring qubits out is compiled once:
`compile_plan` turns the measured qubits and the correction rule into a
`Schedule` of plain ints, register positions and bitmasks, fixed before any
outcome is known, and one step kernel (`_half`) contracts each measurement
for one outcome. A schedule may also let fresh |+> qubits join the
register, each CZ-joined to its partners as it joins, only when a
measurement first needs them; a fresh qubit measured with all its partners
present is one diagonal step on the register, its preparation, CZ gates and
bra fused into one factor per index. `parity_plan` compiles the same step
for a qubit that joins holding its partners' parity, as CNOTs leave a
parity qubit (a CNOT join), so every parity qubit is measured as it is
encoded. A schedule carries its `width`, the widest register a run along it
holds; it compiles at any width, and both runners refuse it over the qubit
cap before their first step (`run_schedule_all` with every row it ends on).
`run_schedule` measures one register along a schedule on a prescribed list
of +/-1 outcomes, taking the outcome's half only, while `run_schedule_all`
takes both halves of every row at once, doubling the rows: the runners
differ only in taking one outcome or both. Both engines measure only
through these: the measurement-based engine keeps the schedules it
compiles, the parity engine compiles each layer's when it runs it. A
rotation right before a measurement reaches them folded into the
measurement's axis, not as a gate, and a layer's data rotations as one 2x2
per rotated qubit (`rotate_qubits`). `project`, `discard_qubit`,
`outcome_probability`, `append_qubit` and `apply_pauli_x/z` are the
reference kernels the tests check them against. The steps hold masks, and
read two cached tables as they run: `_odd_overlap`, the 0/1 parity of each
amplitude index under a mask, and `_fresh_factors`, the outcome factors of
an axis, whose CNOT rows are its two bras.

A state is checked where it is built from outside (`Statevector(...)`):
its labels, its shape and its norm. A run hands over the amplitudes it
made and normalised itself as they are (`Statevector._owned`), frozen but
neither copied nor checked again, and each engine call checks its outcome
list once (`check_outcomes`), before the first step.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:  # layout reads DEFAULT_QUBIT_CAP from here
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
    """A register state: distinct labels and 2^n complex amplitudes of norm
    1, read-only. Built from outside, it is checked and its amplitudes
    copied, so the caller's array stays writable; a run hands over the
    amplitudes it normalised through `_owned`, unchecked."""

    labels: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
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

    @classmethod
    def _owned(cls, labels: tuple[str, ...], amps: np.ndarray) -> Statevector:
        """The state a run hands over: amplitudes of norm 1 that the run made
        itself, over a label tuple already checked, frozen in place with no
        copy and no check. Never pass an array a caller may still write."""
        state = object.__new__(cls)
        amps.setflags(write=False)
        object.__setattr__(state, "labels", labels)
        object.__setattr__(state, "amplitudes", amps)
        return state

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


_ROTATIONS = {"RZ": _rz_matrix, "RX": _rx_matrix}


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
        elif gate.name in _ROTATIONS:
            amps = _apply_1q(amps, _ROTATIONS[gate.name](gate.angle), pos[0], n)
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


def _rx_rz_matrix(alpha: float, phi: float) -> np.ndarray:
    """RX(alpha) RZ(phi), RZ first, as one 2x2."""
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    e = complex(math.cos(phi / 2), -math.sin(phi / 2))  # exp(-i phi / 2)
    f = e.conjugate()
    return np.array((c * e, -1j * s * f, -1j * s * e, c * f)).reshape(2, 2)


def rotate_qubits(
    amps: np.ndarray, labels: tuple[str, ...], alpha: Mapping[str, float], phi: Mapping[str, float]
) -> np.ndarray:
    """RZ(phi[q]) then RX(alpha[q]) on each qubit q of labels that has a
    nonzero angle, as one 2x2 through the one-qubit kernel, on amplitudes
    (..., 2^n) over labels. Angles of other qubits are not read."""
    n = len(labels)
    for pos, q in enumerate(labels):
        a, p = alpha.get(q, 0.0), phi.get(q, 0.0)
        if a or p:
            amps = _apply_1q(amps, _rx_rz_matrix(a, p), pos, n)
    return amps


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
    # written so that a NaN component fails it too
    if ax.shape != (3,) or not abs(np.linalg.norm(ax) - 1.0) <= 1e-9:
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
    `outcome` on `axis`, the row its bra in `_fresh_factors` contracts,
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


class MeasurementEntry(NamedTuple):
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


def _bra_pairs(axis: tuple[float, float, float]) -> list[tuple[complex, complex]]:
    """The +1 and -1 bras of a unit Bloch axis (x, y, z), as pairs of
    amplitudes. Each is the `_bra_row` of that outcome's projector,
    normalised. Contracting the measured qubit with it gives the row
    discard_qubit keeps after project, up to the 1/sqrt(p) renormalisation.
    """
    if len(axis) != 3:
        raise ValueError("axis must be a unit 3-vector")
    x, y, z = axis
    # written so that a NaN component fails it too
    if not abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= 1e-9:
        raise ValueError("axis must be a unit 3-vector")
    # twice the outcome's projector has rows (1 + o z, o (x - iy)) and
    # (o (x + iy), 1 - o z); the `_bra_row` of o = +1 is the top one when
    # z >= 0, that of o = -1 when z <= 0
    plus = (1 + z, complex(x, -y)) if z >= 0 else (complex(x, y), 1 - z)
    minus = (1 - z, complex(-x, y)) if z <= 0 else (complex(-x, -y), 1 + z)
    return [(a / (norm := math.hypot(abs(a), abs(b))), b / norm) for a, b in (plus, minus)]


# the first `_fresh_factors` row of a qubit that joins as |+> (CZ-joined to
# its partners) or holding its partners' parity (CNOT-joined)
_CZ_JOIN, _CNOT_JOIN = 0, 4


@lru_cache(maxsize=64)
def _fresh_factors(axis: tuple[float, float, float]) -> np.ndarray:
    """What measuring a fresh qubit along a unit Bloch axis leaves on the
    register, read-only and built once per axis. Row r holds the factor
    for partners of even and of odd parity, in that order.

    Rows 0-3: the qubit joins as |+> = (|0> + |1>)/sqrt(2), CZ-joined to
    partners of parity s = +/-1, so the bra (b0, b1) of an outcome
    contracts it to the diagonal (b0 + b1 s)/sqrt(2): rows 0 and 1 for
    outcomes +1 and -1, rows 2 and 3 the same with Z on every partner
    folded into the -1 outcome, (b1 + b0 s)/sqrt(2).
    Rows 4-7: the qubit joins holding its partners' parity (CNOT-joined),
    so the bra contracts it to b0 or b1: rows 4 and 5 for outcomes +1 and
    -1, rows 6 and 7 the same with the -1 outcome's Z folded in, (b0, -b1).
    Rows 4 and 5 are thus the outcome bras, which every qubit measured out
    of the register is contracted with.
    """
    half = math.sqrt(0.5)
    (p0, p1), (m0, m1) = _bra_pairs(axis)
    a, b, c, d = half * (p0 + p1), half * (p0 - p1), half * (m0 + m1), half * (m0 - m1)
    factors = np.array([a, b, c, d, a, b, c, -d, p0, p1, m0, m1, p0, p1, m0, -m1], dtype=np.complex128).reshape(8, 2)
    factors.setflags(write=False)
    return factors


def _apply_paulis(amps: np.ndarray, xmask: int, zmask: int) -> np.ndarray:
    """X on each qubit of xmask, then Z on each of zmask, on amplitudes
    (..., 2^n) the caller owns, the masks in amplitude-index bits: the X's
    as one index permutation of the last axis, the Z's as one in-place
    negation of the indices they flip."""
    if xmask:
        amps = amps[..., np.arange(amps.shape[-1]) ^ xmask]
    if zmask:
        np.negative(amps, out=amps, where=_odd_overlap(amps.shape[-1], zmask).astype(bool))
    return amps


@lru_cache(maxsize=256)
def _odd_overlap(size: int, mask: int) -> np.ndarray:
    """The parity of index & mask, 0 or 1, for every index of `size`
    amplitudes: where a product of Z's on mask's bits flips the sign, and
    the column a fresh step reads its factor from (intp reads fastest)."""
    odd = np.zeros(size, dtype=np.intp)
    for k in range(mask.bit_length()):
        if mask >> k & 1:
            odd.reshape(-1, 2, 1 << k)[:, 1] ^= 1
    odd.setflags(write=False)
    return odd


def _born(pairs: np.ndarray) -> np.ndarray:
    """The squared norm of each half of outcome pairs (B, 2, 2^k), as one
    stack of real dot products."""
    flat = pairs.view(np.float64)
    return (flat[:, :, None, :] @ flat[:, :, :, None]).reshape(pairs.shape[:2])


def _half(step: tuple[int, ...], amps: np.ndarray, factors: np.ndarray, minus: int) -> np.ndarray:
    """What a `_MEASURE` or `_FRESH` step leaves of every register of amps
    (..., 2^k) for one outcome, `minus` 0 for +1 and 1 for -1, unnormalised
    and before the correction; `factors` is the axis's `_fresh_factors`.
    The one step kernel of both runners: a measured qubit is contracted
    with the outcome's bra, a fresh one multiplies the register by its
    diagonal, read at each index's partner parity (`_odd_overlap`)."""
    if step[0] == _MEASURE:
        rest = amps.shape[-1] >> (step[1] + 1)
        return (factors[_CNOT_JOIN + minus] @ amps.reshape(-1, 2, rest)).reshape(*amps.shape[:-1], -1)
    return factors[step[2] + minus][_odd_overlap(amps.shape[-1], step[1])] * amps


def _prepare(amps: np.ndarray, pos: int, mask: int) -> np.ndarray:
    """A fresh |+> joins every register of amps (..., 2^k) at position pos,
    CZ-joined to its partners, `mask` on the register before it joins: its
    |1> half is the register negated where their parity is odd."""
    k = amps.shape[-1].bit_length() - 1
    zero = amps * math.sqrt(0.5)
    one = np.negative(zero, out=zero.copy(), where=_odd_overlap(amps.shape[-1], mask).astype(bool))
    shape = (-1, 1 << pos, 1, 1 << (k - pos))
    return np.concatenate((zero.reshape(shape), one.reshape(shape)), axis=2).reshape(*amps.shape[:-1], -1)


# the kinds of a Schedule step
_PREPARE, _MEASURE, _FRESH = range(3)


@dataclass(frozen=True, slots=True)
class Schedule:
    """Measuring some qubits of a register in turn, compiled once.

    `steps` holds one tuple of ints per step, its kind first, so schedules
    compare and hash by content. Masks are on the register as it stands
    after the step, bit k - 1 - i for label i of k, the label's bit in the
    amplitude index; a run reads a mask's `_odd_overlap` as the step runs:
    - (_PREPARE, position, mask): a fresh qubit joins at that position as
      |+>, CZ-joined to its partners already present, on `mask` before it;
    - (_MEASURE, position, xmask, zmask): the next of `qubits`, at that
      position, is contracted out; xmask and zmask are the X and Z targets
      of its -1 correction;
    - (_FRESH, mask, row, xmask, zmask): the next of `qubits` is not in
      the register, and all its partners are, on `mask`. Preparing it,
      joining it and contracting it with the outcome's bra is one diagonal
      step: the register times row `row` (+1) or `row + 1` (-1) of
      `_fresh_factors`, read at each index's partner parity.
      Rows 0 and 2 join it as |+> (CZ), rows 4 and 6 as its partners'
      parity (CNOT).
      Rows 2 and 6 fold a -1 correction that is Z on exactly the partners,
      and its masks are then 0.
    Both measuring kinds end with xmask and zmask, so the runners read a
    step's correction as `step[-2]` and `step[-1]` whatever its kind.
    `labels` is the register left at the end, `width` the widest it gets:
    the qubits a run holds, which the runners check against the cap.
    Nothing in it depends on the axes or the outcomes.
    """

    qubits: tuple[str, ...]
    steps: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    width: int


def compile_plan(
    labels: tuple[str, ...],
    qubits: Iterable[str],
    correct: Callable[[str], tuple[Iterable[str], Iterable[str]]],
) -> Schedule:
    """The schedule measuring `qubits` in turn out of a register over
    `labels`, where `correct(qubit)` names the -1 correction as label sets
    (X targets, Z targets) on the qubits still present. Raises ValueError
    on a qubit or target absent from the register."""
    return _live_plan(labels, qubits, correct, (), {})


def _live_plan(
    labels: tuple[str, ...],
    qubits: Iterable[str],
    correct: Callable[[str], tuple[Iterable[str], Iterable[str]]],
    fresh: Sequence[str],
    partners: Mapping[str, Iterable[str]],
) -> Schedule:
    """`compile_plan` on a register that `fresh` qubits join as |+>, each
    CZ-joined to its `partners` as they join (a symmetric relation on
    every qubit that joins or is measured).

    A fresh qubit joins only when first needed: before a qubit it is a
    partner or a correction target of is measured. So every CZ is applied
    before either end is measured, and every correction lands on qubits
    present. A fresh qubit measured before it joins becomes one diagonal
    `_FRESH` step; the others join at the end. Fresh qubits sit after the
    rest of the register in the order `fresh` gives them, so `labels` ends
    as `compile_plan` would leave it on the register with all of `fresh`
    appended in order. It compiles at any width, as its steps hold masks.
    """
    rank = {q: i for i, q in enumerate(fresh)}
    pending = set(fresh)
    steps: list[tuple[int, ...]] = []
    width = len(labels)

    def join(u: str) -> None:
        nonlocal labels, width
        width = max(width, len(labels) + 1)
        pos = next((i for i, q in enumerate(labels) if rank.get(q, -1) > rank[u]), len(labels))
        live = [q for q in partners.get(u, ()) if q in labels]
        steps.append((_PREPARE, pos, _index_mask(labels, live)))
        labels = labels[:pos] + (u,) + labels[pos:]
        pending.remove(u)

    qubits = tuple(qubits)
    for q in qubits:
        xs, zs = correct(q)
        if pending:
            needed = pending.intersection([*xs, *zs, *partners.get(q, ())])
            needed.discard(q)
            for u in sorted(needed, key=rank.__getitem__):
                join(u)
        if q in pending:
            pending.remove(q)
            steps.append(_fresh_step(labels, partners.get(q, ()), xs, zs, _CZ_JOIN))
        else:
            pos = _position(labels, q)
            labels = labels[:pos] + labels[pos + 1 :]
            steps.append((_MEASURE, pos, _index_mask(labels, xs), _index_mask(labels, zs)))
    for u in sorted(pending, key=rank.__getitem__):
        join(u)
    return Schedule(qubits, tuple(steps), labels, width)


def _fresh_step(
    labels: tuple[str, ...], partners: Iterable[str], xs: Iterable[str], zs: Iterable[str], join: int
) -> tuple[int, ...]:
    """The `_FRESH` step of a qubit joined to `partners` on a register over
    labels, its -1 correction X on xs and Z on zs: folded into the factors
    when that is Z on exactly the partners."""
    joined = _index_mask(labels, partners)
    xmask, zmask = _index_mask(labels, xs), _index_mask(labels, zs)
    if not xmask and zmask == joined:
        return (_FRESH, joined, join + 2, 0, 0)
    return (_FRESH, joined, join, xmask, zmask)


def parity_plan(labels: tuple[str, ...], qubits: Iterable[str], sets: Mapping[str, Iterable[str]]) -> Schedule:
    """The schedule measuring `qubits`, none of them in the register over
    `labels`, each as it joins holding the parity of the register qubits
    its set in `sets` names, as CNOTs from them into a |0> leave it: one
    CNOT-joined `_FRESH` step each, holding the set's mask, a -1 outcome's
    Z on that set folded in. The register keeps its labels."""
    qubits = tuple(qubits)
    steps = tuple(_fresh_step(labels, sets[q], (), sets[q], _CNOT_JOIN) for q in qubits)
    return Schedule(qubits, steps, labels, len(labels))


def _index_mask(labels: tuple[str, ...], qubits: Iterable[str]) -> int:
    """The qubits' bits in the amplitude index of a register over labels."""
    n = len(labels)
    mask = 0
    for q in qubits:
        mask ^= 1 << (n - 1 - _position(labels, q))
    return mask


_INT = frozenset((int,))
_PLUS_MINUS = frozenset((1, -1))


def check_outcomes(outcomes: Sequence[int], count: int) -> list[int]:
    """The prescribed outcomes as ints, refused unless they are a sequence
    of exactly `count` outcomes, each 1 or -1 (not a bool). A list of
    exactly `count` ints (`int` itself, so no bool or numpy integer), each
    1 or -1, is returned as it is."""
    if (
        type(outcomes) is list
        and len(outcomes) == count
        and _INT.issuperset(map(type, outcomes))
        and _PLUS_MINUS.issuperset(outcomes)
    ):
        return outcomes
    if not isinstance(outcomes, Sequence) or isinstance(outcomes, (str, bytes)):
        raise TypeError("outcomes must be a sequence of +/-1")
    bad = [o for o in outcomes if isinstance(o, (bool, np.bool_)) or o not in (1, -1)]
    if bad:
        raise ValueError(f"prescribed outcomes must be +/-1, got {bad}")
    if len(outcomes) != count:
        raise ValueError(f"{len(outcomes)} prescribed outcome(s) for {count} measurement(s)")
    return [int(o) for o in outcomes]


def split_outcomes(outcomes: Sequence[int], counts: Sequence[int]) -> list[list[int]]:
    """`check_outcomes` against the sum of counts, then the list's next
    `count` outcomes for each count."""
    outcomes = check_outcomes(outcomes, sum(counts))
    return [outcomes[end - count : end] for count, end in zip(counts, itertools.accumulate(counts))]


def run_schedule(
    schedule: Schedule,
    amplitudes: np.ndarray,
    axes: Sequence[tuple[float, float, float]],
    outcomes: Sequence[int],
) -> tuple[Statevector, MeasurementRecord]:
    """Measure the schedule's qubits of one register (the amplitudes of the
    register it was compiled on) along `axes`, one per qubit.

    Outcomes are checked (`check_outcomes`) before the first measurement,
    and the schedule followed by `_run_checked`. The amplitudes are taken
    as given, a unit complex128 vector as a `Statevector` holds them."""
    return _run_checked(schedule, amplitudes, axes, check_outcomes(outcomes, len(schedule.qubits)))


def _run_checked(
    schedule: Schedule,
    amplitudes: np.ndarray,
    axes: Sequence[tuple[float, float, float]],
    outcomes: list[int],
) -> tuple[Statevector, MeasurementRecord]:
    """`run_schedule` on an outcome list `check_outcomes` has passed, as
    the engines' multi-layer runs hand each layer its share.

    Each step keeps the `_half` of the outcome taken only, with the step's
    correction applied on a -1 outcome. The halves are kept unnormalised:
    `weight` is the squared norm of the register so far, each Born
    probability the kept half's squared norm over it, and the output is
    normalised once. Gives the row of `run_schedule_all` for the outcomes
    taken. Refused before the first step if the schedule's `width` is over
    the qubit cap (`check_cap`). Raises ZeroProbabilityError below the
    1e-12 probability floor. The output is a new array, frozen; the input
    amplitudes are not written.
    """
    check_cap(schedule.width)
    # listed first, so that too few or too many axes raise before any step
    measured = iter(list(zip(schedule.qubits, axes, outcomes, strict=True)))
    amps, weight = amplitudes, 1.0
    record: list[MeasurementEntry] = []
    for step in schedule.steps:
        if step[0] == _PREPARE:
            amps = _prepare(amps, step[1], step[2])
            continue
        q, axis, outcome = next(measured)
        minus = 0 if outcome == 1 else 1
        half = _half(step, amps, _fresh_factors(axis), minus)
        kept = float(np.vdot(half, half).real)
        probability = kept / weight
        if probability < ZERO_PROB_TOL:
            raise ZeroProbabilityError(f"outcome {outcome:+d} on {q!r} has zero probability")
        amps, weight = half, kept
        if minus and (step[-2] or step[-1]):
            amps = _apply_paulis(amps, step[-2], step[-1])
        record.append(MeasurementEntry(q, axis, outcome, probability))
    return Statevector._owned(schedule.labels, amps / math.sqrt(weight)), tuple(record)


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
            target ^= _odd_overlap(1 << k, _index_mask(self.labels, members)) << (m - 1 - j)
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

    Each measurement puts the two `_half`s of every row side by side, +1
    first, so B rows become 2B rows; row 2b + 1 (outcome -1) gets the step's
    correction, and the probability table repeats each row's columns for
    its two children and adds their Born probabilities. Rows are
    renormalised by their Born probability, except below ZERO_PROB_TOL,
    where they are divided by 1. Refused before the first step if the rows
    it ends on would take the schedule's `width` over the qubit cap
    (`check_cap`).
    """
    check_cap(schedule.width, len(branches.amplitudes) << len(schedule.qubits))
    plan = tuple(zip(schedule.qubits, axes, strict=True))
    measured = iter(plan)
    amps, probabilities = branches.amplitudes, branches.probabilities
    for step in schedule.steps:
        if step[0] == _PREPARE:
            amps = _prepare(amps, step[1], step[2])
            continue
        factors = _fresh_factors(next(measured)[1])
        pairs = np.concatenate((_half(step, amps, factors, 0), _half(step, amps, factors, 1)), axis=1)
        pairs = pairs.reshape(len(amps), 2, -1)
        born = _born(pairs)
        pairs /= np.sqrt(np.where(born < ZERO_PROB_TOL, 1.0, born))[:, :, None]
        pairs[:, 1] = _apply_paulis(pairs[:, 1], step[-2], step[-1])
        amps = pairs.reshape(-1, pairs.shape[2])
        probabilities = np.concatenate((probabilities.repeat(2, axis=0), born.reshape(-1, 1)), axis=1)
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
    """[re, im] pairs in index order, for golden-file comparisons. A zero
    part is written 0.0: adding 0.0 turns -0.0 into 0.0 and leaves every
    other float as it is, so routes that differ only in the sign of a zero
    print the same bytes."""
    return [[float(a.real) + 0.0, float(a.imag) + 0.0] for a in state.amplitudes]
