"""Signed Pauli strings and stabilizer groups over GF(2).

A Pauli string is stored as X and Z bit vectors over an ordered qubit-label
list plus a sign in {+1, -1}. Products of commuting real-signed Paulis stay
real-signed, which is the only regime needed here; imaginary phases are
rejected outright. Group-level questions (equality, independence) reduce to
GF(2) row arithmetic with exact sign tracking.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from parityflow.graph import Graph, neighbors
from parityflow.layout import ParityLayout


class PhaseError(ValueError):
    """A product produced an imaginary phase, outside the supported sign set."""


@dataclass(frozen=True, eq=False)
class PauliString:
    """Tensor product of single-qubit Paulis with an overall sign.

    x[i] and z[i] refer to labels[i]; both set means Y (= iXZ) on that qubit.
    """

    labels: tuple[str, ...]
    x: np.ndarray
    z: np.ndarray
    sign: int = 1

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.uint8) % 2
        z = np.asarray(self.z, dtype=np.uint8) % 2
        if x.shape != (len(self.labels),) or z.shape != (len(self.labels),):
            raise ValueError("bit vectors must match the label list")
        if self.sign not in (1, -1):
            raise PhaseError(f"sign must be +1 or -1, got {self.sign!r}")
        x.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.sign == other.sign
            and bool(np.array_equal(self.x, other.x))
            and bool(np.array_equal(self.z, other.z))
        )

    def __repr__(self) -> str:
        return f"PauliString({pauli_to_text(self)!r})"

    @property
    def is_identity(self) -> bool:
        return not self.x.any() and not self.z.any()


def pauli_from_ops(labels: Sequence[str], ops: Mapping[str, str], sign: int = 1) -> PauliString:
    """Build a Pauli string from {label: "X"|"Y"|"Z"} with identity elsewhere."""
    index = {q: i for i, q in enumerate(labels)}
    x = np.zeros(len(labels), dtype=np.uint8)
    z = np.zeros(len(labels), dtype=np.uint8)
    for q, op in ops.items():
        if q not in index:
            raise ValueError(f"unknown qubit {q!r}")
        if op not in ("X", "Y", "Z"):
            raise ValueError(f"unknown Pauli {op!r}")
        if op in ("X", "Y"):
            x[index[q]] = 1
        if op in ("Z", "Y"):
            z[index[q]] = 1
    return PauliString(tuple(labels), x, z, sign)


def pauli_to_text(p: PauliString) -> str:
    """Subscripted rendering, e.g. "+Z_(12) Z_1 Z_2" or "-Y_3"."""
    parts = []
    for i, q in enumerate(p.labels):
        op = {(0, 0): None, (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}[(int(p.x[i]), int(p.z[i]))]
        if op:
            parts.append(f"{op}_{q}")
    body = " ".join(parts) if parts else "I"
    return ("+" if p.sign == 1 else "-") + body


def _product_sign(ax: np.ndarray, az: np.ndarray, bx: np.ndarray, bz: np.ndarray) -> int:
    """Sign picked up by the product of two unsigned Pauli strings given as bits.

    With each qubit stored as i^(x·z) X^x Z^z (so both bits set is Y), the
    i-exponent of a single-qubit product is x1·z1 + x2·z2 - x3·z3 + 2·z1·x2
    with (x3, z3) the XOR of the bit pairs. Commuting factors always give a
    real sign; an odd exponent raises PhaseError.
    """
    exponent = (
        np.count_nonzero(ax & az)
        + np.count_nonzero(bx & bz)
        - np.count_nonzero((ax ^ bx) & (az ^ bz))
        + 2 * np.count_nonzero(az & bx)
    ) % 4
    if exponent % 2:
        raise PhaseError("product has imaginary phase")
    return 1 if exponent == 0 else -1


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product a*b; raises PhaseError if the result has an imaginary phase."""
    if a.labels != b.labels:
        raise ValueError("label sets differ")
    sign = a.sign * b.sign * _product_sign(a.x, a.z, b.x, b.z)
    return PauliString(a.labels, a.x ^ b.x, a.z ^ b.z, sign)


@dataclass(frozen=True, eq=False)
class StabilizerGroup:
    """Mutually commuting, independent signed Pauli generators."""

    labels: tuple[str, ...]
    generators: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.labels != self.labels:
                raise ValueError("generator labels differ from group labels")
        # symplectic products of all pairs at once; entry (i, j) is 1 iff they anticommute
        shape = (len(self.generators), len(self.labels))
        x = np.array([g.x for g in self.generators], dtype=np.int64).reshape(shape)
        z = np.array([g.z for g in self.generators], dtype=np.int64).reshape(shape)
        clashes = np.argwhere(np.triu((x @ z.T + z @ x.T) % 2, k=1))
        if clashes.size:
            i, j = clashes[0]  # row-major: the first pair in (i, j) order
            g, h = self.generators[i], self.generators[j]
            raise ValueError(f"generators do not commute: {pauli_to_text(g)}, {pauli_to_text(h)}")
        rows, signs = _rref_with_signs(self.labels, self.generators)
        if rows.any(axis=1).sum() != len(self.generators):
            raise ValueError("generators are not independent over GF(2)")
        object.__setattr__(self, "_rref", (rows, signs))


def _rref_with_signs(
    labels: tuple[str, ...], generators: Sequence[PauliString]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of the generator bit matrix [x | z], with signs.

    Each row operation multiplies two group elements, and its sign follows
    the product rule of `multiply`, so the signs of the canonical rows are
    the signs those elements carry in the group. The RREF basis of a GF(2)
    row space is unique, making (matrix, signs) a complete invariant of the
    signed group. Dependent generators leave zero rows.
    """
    n = len(labels)
    rows = np.zeros((len(generators), 2 * n), dtype=np.uint8)
    for r, g in enumerate(generators):
        rows[r, :n] = g.x
        rows[r, n:] = g.z
    signs = [g.sign for g in generators]
    rank = 0
    for col in range(2 * n):
        below = np.flatnonzero(rows[rank:, col])
        if not below.size:
            continue
        pivot = rank + int(below[0])
        rows[[rank, pivot]] = rows[[pivot, rank]]
        signs[rank], signs[pivot] = signs[pivot], signs[rank]
        p = rows[rank]
        for r in np.flatnonzero(rows[:, col]):
            if r != rank:
                q = rows[r]
                signs[r] *= signs[rank] * _product_sign(q[:n], q[n:], p[:n], p[n:])
                q ^= p
        rank += 1
        if rank == len(generators):
            break
    return rows, tuple(signs)


def groups_equal(a: StabilizerGroup, b: StabilizerGroup) -> bool:
    """True iff the generated signed groups coincide (not just generator lists)."""
    if a.labels != b.labels:
        raise ValueError("incompatible qubit label sets")
    if len(a.generators) != len(b.generators):
        return False
    mat_a, signs_a = a._rref
    mat_b, signs_b = b._rref
    return bool(np.array_equal(mat_a, mat_b)) and signs_a == signs_b


def hadamard_conjugate(group: StabilizerGroup, subset: Iterable[str]) -> StabilizerGroup:
    """Conjugate every generator by H on each qubit in subset.

    X and Z swap on conjugated qubits; a Y there flips the sign (HYH = -Y).
    An involution and a group homomorphism.
    """
    members = frozenset(subset)
    unknown = members - set(group.labels)
    if unknown:
        raise ValueError(f"qubits {sorted(unknown)} not in the group's label list")
    mask = np.array([q in members for q in group.labels], dtype=bool)
    out = []
    for g in group.generators:
        x = g.x.copy()
        z = g.z.copy()
        x[mask], z[mask] = z[mask], x[mask]
        flips = int(np.sum(g.x[mask] & g.z[mask]))
        out.append(PauliString(group.labels, x, z, g.sign * (-1) ** flips))
    return StabilizerGroup(group.labels, tuple(out))


def parity_generators(layout: ParityLayout) -> StabilizerGroup:
    """One generator per parity qubit: Z there and Z on each tracked data qubit."""
    labels = tuple(layout.data_qubits) + tuple(layout.parity_qubits)
    gens = [
        pauli_from_ops(labels, {p: "Z", **{i: "Z" for i in layout.parity_sets[p]}})
        for p in layout.parity_qubits
    ]
    return StabilizerGroup(labels, tuple(gens))


def graph_generators(g: Graph) -> StabilizerGroup:
    """One generator per non-input vertex v: X at v, Z across its neighborhood."""
    labels = tuple(g.vertices)
    gens = [
        pauli_from_ops(labels, {v: "X", **{u: "Z" for u in neighbors(g, v)}})
        for v in g.vertices
        if v not in g.inputs
    ]
    return StabilizerGroup(labels, tuple(gens))


def group_to_json(group: StabilizerGroup) -> dict:
    return {
        "qubits": list(group.labels),
        "generators": [pauli_to_text(g) for g in group.generators],
    }

