"""Reference Pauli routines that only the tests need: builders from
single-qubit ops and from text, the identity and commutation tests of
strings and dense expectation values."""

from collections.abc import Mapping, Sequence

import numpy as np

from parityflow.pauli import PauliString
from parityflow.simulator import Statevector

_MATRICES = {
    (1, 0): np.array([[0, 1], [1, 0]], dtype=np.complex128),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def pauli_from_ops(labels: Sequence[str], ops: Mapping[str, str], sign: int = 1) -> PauliString:
    """Build a Pauli string from {label: "X"|"Y"|"Z"} with identity elsewhere."""
    index = {q: i for i, q in enumerate(labels)}
    x = z = 0
    for q, op in ops.items():
        if q not in index:
            raise ValueError(f"unknown qubit {q!r}")
        if op not in ("X", "Y", "Z"):
            raise ValueError(f"unknown Pauli {op!r}")
        if op in ("X", "Y"):
            x |= 1 << index[q]
        if op in ("Z", "Y"):
            z |= 1 << index[q]
    return PauliString(tuple(labels), x, z, sign)


def is_identity(p: PauliString) -> bool:
    return not p.x | p.z


def pauli_from_text(labels: Sequence[str], text: str) -> PauliString:
    """Inverse of `pauli_to_text`, e.g. "+Z_(12) Z_1 Z_2" or "-Y_3"."""
    text = text.strip()
    sign = 1
    if text[:1] in "+-":
        sign = 1 if text[0] == "+" else -1
        text = text[1:].strip()
    ops: dict[str, str] = {}
    if text != "I":
        for token in text.split():
            op, _, q = token.partition("_")
            if q in ops:
                raise ValueError(f"qubit {q!r} repeated")
            ops[q] = op
    return pauli_from_ops(labels, ops, sign)


def commutes(a: PauliString, b: PauliString) -> bool:
    """Symplectic inner product vanishes exactly for commuting strings."""
    if a.labels != b.labels:
        raise ValueError("label sets differ")
    overlap = (a.x & b.z).bit_count() + (a.z & b.x).bit_count()
    return overlap % 2 == 0


def pauli_expectation(state: Statevector, p: PauliString) -> float:
    """Real expectation value of a signed Pauli string, one qubit factor at a time."""
    if p.labels != state.labels:
        raise ValueError("qubit labels differ")
    n = state.num_qubits
    transformed = state.amplitudes.reshape((2,) * n)
    for i in range(n):
        matrix = _MATRICES.get((p.x >> i & 1, p.z >> i & 1))
        if matrix is not None:
            transformed = np.moveaxis(np.tensordot(matrix, transformed, axes=([1], [i])), 0, i)
    return float(p.sign * np.vdot(state.amplitudes, transformed.reshape(-1)).real)
