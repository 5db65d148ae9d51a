"""Reference Pauli routines that only the tests need: a text parser, the
commutation test of two strings and dense expectation values."""

from collections.abc import Sequence

import numpy as np

from parityflow.pauli import PauliString, pauli_from_ops
from parityflow.simulator import Statevector

_MATRICES = {
    (1, 0): np.array([[0, 1], [1, 0]], dtype=np.complex128),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


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
    overlap = int(np.sum(a.x.astype(np.int64) * b.z) + np.sum(a.z.astype(np.int64) * b.x))
    return overlap % 2 == 0


def pauli_expectation(state: Statevector, p: PauliString) -> float:
    """Real expectation value of a signed Pauli string, one qubit factor at a time."""
    if p.labels != state.labels:
        raise ValueError("qubit labels differ")
    n = state.num_qubits
    transformed = state.amplitudes.reshape((2,) * n)
    for i in range(n):
        matrix = _MATRICES.get((int(p.x[i]), int(p.z[i])))
        if matrix is not None:
            transformed = np.moveaxis(np.tensordot(matrix, transformed, axes=([1], [i])), 0, i)
    return float(p.sign * np.vdot(state.amplitudes, transformed.reshape(-1)).real)
