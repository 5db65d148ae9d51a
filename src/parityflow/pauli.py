"""Signed Pauli strings and stabilizer groups over GF(2).

A Pauli string is stored as X and Z bitmasks over an ordered qubit-label
list plus a sign in {+1, -1}. Products of commuting real-signed Paulis stay
real-signed, which is the only regime needed here; imaginary phases are
rejected outright. Group-level questions (equality, independence) reduce to
GF(2) row arithmetic with exact sign tracking.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from parityflow.graph import Graph
from parityflow.layout import ParityLayout


class PhaseError(ValueError):
    """A product produced an imaginary phase, outside the supported sign set."""


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis with an overall sign.

    Bit i of x and of z refers to labels[i], as bit i of a graph's vertex
    masks refers to vertices[i]; both set means Y (= iXZ) on that qubit.
    """

    labels: tuple[str, ...]
    x: int
    z: int
    sign: int = 1

    def __post_init__(self) -> None:
        if min(self.x, self.z) < 0 or (self.x | self.z) >> len(self.labels):
            raise ValueError("bit masks must fit the label list")
        if self.sign not in (1, -1):
            raise PhaseError(f"sign must be +1 or -1, got {self.sign!r}")

    def __repr__(self) -> str:
        return f"PauliString({pauli_to_text(self)!r})"


def pauli_to_text(p: PauliString) -> str:
    """Subscripted rendering, e.g. "+Z_(12) Z_1 Z_2" or "-Y_3"."""
    parts = []
    for i, q in enumerate(p.labels):
        op = {(0, 0): None, (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}[(p.x >> i & 1, p.z >> i & 1)]
        if op:
            parts.append(f"{op}_{q}")
    body = " ".join(parts) if parts else "I"
    return ("+" if p.sign == 1 else "-") + body


def _product_sign(ax: int, az: int, bx: int, bz: int) -> int:
    """Sign picked up by the product of two unsigned Pauli strings given as bits.

    With each qubit stored as i^(x·z) X^x Z^z (so both bits set is Y), the
    i-exponent of a single-qubit product is x1·z1 + x2·z2 - x3·z3 + 2·z1·x2
    with (x3, z3) the XOR of the bit pairs. Commuting factors always give a
    real sign; an odd exponent raises PhaseError.
    """
    exponent = (
        (ax & az).bit_count()
        + (bx & bz).bit_count()
        - ((ax ^ bx) & (az ^ bz)).bit_count()
        + 2 * (az & bx).bit_count()
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
        # two strings anticommute iff their symplectic product is odd
        for i, g in enumerate(self.generators):
            for h in self.generators[i + 1 :]:
                if ((g.x & h.z) ^ (g.z & h.x)).bit_count() % 2:
                    raise ValueError(f"generators do not commute: {pauli_to_text(g)}, {pauli_to_text(h)}")
        rref = _rref_with_signs(self.labels, self.generators)
        if not all(word for word, _ in rref):
            raise ValueError("generators are not independent over GF(2)")
        object.__setattr__(self, "_rref", rref)


def _rref_with_signs(
    labels: tuple[str, ...], generators: Sequence[PauliString]
) -> tuple[tuple[int, int], ...]:
    """Reduced row echelon form of the generator words x | z << n, with signs.

    Each row operation multiplies two group elements, and its sign follows
    the product rule of `multiply`, so the signs of the canonical rows are
    the signs those elements carry in the group. The RREF basis of a GF(2)
    row space is unique, making the (word, sign) rows a complete invariant
    of the signed group. Dependent generators leave zero words.
    """
    n = len(labels)
    low = (1 << n) - 1
    rows = [(g.x | g.z << n, g.sign) for g in generators]
    rank = 0
    for col in range(2 * n):
        bit = 1 << col
        pivot = next((r for r in range(rank, len(rows)) if rows[r][0] & bit), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p, p_sign = rows[rank]
        for r, (q, q_sign) in enumerate(rows):
            if r != rank and q & bit:
                rows[r] = (q ^ p, q_sign * p_sign * _product_sign(q & low, q >> n, p & low, p >> n))
        rank += 1
    return tuple(rows)


def groups_equal(a: StabilizerGroup, b: StabilizerGroup) -> bool:
    """True iff the generated signed groups coincide (not just generator lists)."""
    if a.labels != b.labels:
        raise ValueError("incompatible qubit label sets")
    return a._rref == b._rref


def hadamard_conjugate(group: StabilizerGroup, subset: Iterable[str]) -> StabilizerGroup:
    """Conjugate every generator by H on each qubit in subset.

    X and Z swap on conjugated qubits; a Y there flips the sign (HYH = -Y).
    An involution and a group homomorphism.
    """
    members = frozenset(subset)
    unknown = members - set(group.labels)
    if unknown:
        raise ValueError(f"qubits {sorted(unknown)} not in the group's label list")
    mask = sum(1 << i for i, q in enumerate(group.labels) if q in members)
    out = []
    for g in group.generators:
        swap = (g.x ^ g.z) & mask  # the bits where x and z differ, flipped in both
        flips = (g.x & g.z & mask).bit_count()
        out.append(PauliString(group.labels, g.x ^ swap, g.z ^ swap, g.sign * (-1) ** flips))
    return StabilizerGroup(group.labels, tuple(out))


def parity_generators(layout: ParityLayout) -> StabilizerGroup:
    """One generator per parity qubit: Z there and Z on each tracked data qubit."""
    labels = layout.qubits
    bit = {q: 1 << i for i, q in enumerate(labels)}
    # distinct one-bit masks, so their sum is their OR
    gens = [
        PauliString(labels, 0, bit[p] + sum(bit[q] for q in layout.parity_sets[p]))
        for p in layout.parity_qubits
    ]
    return StabilizerGroup(labels, tuple(gens))


def graph_generators(g: Graph) -> StabilizerGroup:
    """One generator per non-input vertex v: X at v, Z across its neighborhood.

    Bit i of the graph's adjacency masks stands for vertices[i], the label
    order of the group, so each neighborhood mask is the Z mask as it is.
    """
    labels = g.vertices
    gens = [
        PauliString(labels, 1 << i, nbrs)
        for i, (v, nbrs) in enumerate(zip(labels, g.neighbor_masks))
        if v not in g.inputs
    ]
    return StabilizerGroup(labels, tuple(gens))


def group_to_json(group: StabilizerGroup) -> dict:
    return {
        "qubits": list(group.labels),
        "generators": [pauli_to_text(g) for g in group.generators],
    }
