"""Parity layouts: data + parity qubits, constraint CNOTs, induced graphs.

A layout declares which subset of data qubits each parity qubit tracks and
an ordered CNOT list realizing those parities on fresh ancillas. The
all-pairs builder produces the standard n(n+1)/2-qubit arrangement; user
layouts may route parities through other parity qubits, which is why the
constraint list is ordered. A layout is refused at construction unless its
CNOT list realises every declared set, so every layout that exists does.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from parityflow.graph import Graph, json_field, json_labels, json_list, json_object, make_graph
from parityflow.simulator import DEFAULT_QUBIT_CAP

# the largest n whose "(ij)" labels are distinct: "(1112)" is both (1, 112) and (11, 12)
ALL_PAIRS_MAX_N = 111


@dataclass(frozen=True)
class Gate:
    """One gate application; angle is set only for RZ/RX."""

    name: str
    qubits: tuple[str, ...]
    angle: float | None = None

    _ARITY = {"CNOT": 2, "CZ": 2, "H": 1, "RZ": 1, "RX": 1}

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if self.name not in self._ARITY:
            raise ValueError(f"unknown gate {self.name!r}")
        if len(self.qubits) != self._ARITY[self.name]:
            raise ValueError(f"{self.name} takes {self._ARITY[self.name]} qubit(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name} qubits must be distinct")
        if (self.angle is None) == (self.name in ("RZ", "RX")):
            raise ValueError(f"angle required exactly for rotations, got {self!r}")


def cnot(control: str, target: str) -> Gate:
    return Gate("CNOT", (control, target))


def cz(u: str, v: str) -> Gate:
    return Gate("CZ", (u, v))


def hadamard(q: str) -> Gate:
    return Gate("H", (q,))


def rz(q: str, angle: float) -> Gate:
    return Gate("RZ", (q,), float(angle))


def rx(q: str, angle: float) -> Gate:
    return Gate("RX", (q,), float(angle))


CircuitDescription = tuple[Gate, ...]


@dataclass(frozen=True, eq=False)
class ParityLayout:
    """n data qubits, labeled parity qubits with their tracked sets, and a
    CNOT list that realises every set."""

    n: int
    data_qubits: tuple[str, ...]
    parity_qubits: tuple[str, ...]
    parity_sets: Mapping[str, frozenset[str]]
    constraints: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "data_qubits", tuple(self.data_qubits))
        object.__setattr__(self, "parity_qubits", tuple(self.parity_qubits))
        object.__setattr__(self, "constraints", tuple((c, t) for c, t in self.constraints))
        if self.n != len(self.data_qubits):
            raise ValueError("n must equal the number of data qubits")
        all_qubits = set(self.data_qubits) | set(self.parity_qubits)
        if len(all_qubits) != len(self.data_qubits) + len(self.parity_qubits):
            raise ValueError("duplicate qubit labels")
        if set(self.parity_sets) != set(self.parity_qubits):
            raise ValueError("parity_sets keys must be exactly the parity qubits")
        # in layout order, the order in which encoding appends them
        object.__setattr__(self, "parity_sets", {p: frozenset(self.parity_sets[p]) for p in self.parity_qubits})
        seen = set()
        for p in self.parity_qubits:
            s = self.parity_sets[p]
            if not s:
                raise ValueError(f"parity set of {p!r} is empty")
            if not s <= set(self.data_qubits):
                raise ValueError(f"parity set of {p!r} contains non-data qubits")
            if s in seen:
                raise ValueError(f"parity set of {p!r} duplicates another parity qubit")
            seen.add(s)
        for c, t in self.constraints:
            if c not in all_qubits or t not in all_qubits:
                raise ValueError(f"constraint ({c!r}, {t!r}) references unknown qubits")
            if t not in self.parity_sets:
                raise ValueError(f"constraint targets non-parity qubit {t!r}")
            if c == t:
                raise ValueError(f"constraint ({c!r}, {t!r}) is not a CNOT: control and target coincide")
        _check_realised(self)

    @property
    def qubits(self) -> tuple[str, ...]:
        return self.data_qubits + self.parity_qubits


def _check_realised(layout: ParityLayout) -> None:
    """Refuse a CNOT list that does not realise every declared parity set.

    CNOTs act on basis states as XORs, so each qubit holds a GF(2) sum of
    data bits: data qubit q starts as {q}, a parity qubit as {}, and each
    CNOT adds its control's sum to its target's. Parity-qubit controls are
    allowed, so chain layouts that build one parity from another propagate
    too. A parity qubit whose realised set differs from its declared set
    by `diff`, as a mask with data qubit i at bit n-1-i as in the
    basis-state string, is wrong exactly on the basis states with odd
    overlap with `diff`, the first of which is the lowest set bit of
    `diff`. The refusal names the first wrong basis state and, on it, the
    first wrong parity qubit.
    """
    value = {q: frozenset({q}) for q in layout.data_qubits} | dict.fromkeys(layout.parity_qubits, frozenset())
    for c, t in layout.constraints:
        value[t] ^= value[c]
    bit = {q: 1 << (layout.n - 1 - i) for i, q in enumerate(layout.data_qubits)}
    diffs = [(p, sum(bit[q] for q in value[p] ^ layout.parity_sets[p])) for p in layout.parity_qubits]
    wrong = [diff & -diff for _, diff in diffs if diff]
    if wrong:
        x = min(wrong)  # one data bit set, so odd overlap means diff holds that bit
        p = next(p for p, diff in diffs if diff & x)
        raise ValueError(
            f"constraints do not realise the parity set of {p!r}: wrong on data basis state {x:0{layout.n}b}"
        )


def build_all_pairs_layout(n: int) -> ParityLayout:
    """Data qubits "1".."n" plus one parity qubit "(ij)" per pair i < j.

    Constraints pair each data qubit with the fresh parity ancilla, in
    data-index-lexicographic order, so the total register has n(n+1)/2
    qubits of which n(n-1)/2 hold pair parities. n above ALL_PAIRS_MAX_N
    is refused before any label is built.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > ALL_PAIRS_MAX_N:
        raise ValueError(f"n={n} above {ALL_PAIRS_MAX_N}: larger all-pairs layouts repeat \"(ij)\" labels")
    data = tuple(str(i) for i in range(1, n + 1))
    parity = []
    sets = {}
    constraints = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            label = f"({i}{j})"
            parity.append(label)
            sets[label] = frozenset({str(i), str(j)})
            constraints.append((str(i), label))
            constraints.append((str(j), label))
    return ParityLayout(n, data, tuple(parity), sets, tuple(constraints))


def encoding_circuit(layout: ParityLayout) -> CircuitDescription:
    """The constraint CNOTs, in stored order."""
    return tuple(cnot(c, t) for c, t in layout.constraints)


def induced_graph(layout: ParityLayout) -> Graph:
    """Vertices are all qubits; each parity qubit joins the data qubits it tracks.

    Data qubits form the input and output sets. With parity sets inside the
    data register, every edge crosses the data/parity divide, so the result
    is bipartite with the data side as one partition.
    """
    edges = [
        (i, p)
        for p in layout.parity_qubits
        for i in sorted(layout.parity_sets[p], key=layout.data_qubits.index)
    ]
    return make_graph(layout.qubits, edges, inputs=layout.data_qubits, outputs=layout.data_qubits)


def layout_to_json(layout: ParityLayout) -> dict:
    return {
        "n": layout.n,
        "parity": [
            {"label": p, "set": sorted(layout.parity_sets[p], key=layout.data_qubits.index)}
            for p in layout.parity_qubits
        ],
        "constraints": [list(c) for c in layout.constraints],
    }


def layout_from_json(data: dict) -> ParityLayout:
    """Read a layout; raises ValueError naming a missing, unknown or
    malformed field, or as `ParityLayout` refuses the layout it reads."""
    json_object(data, "layout", ("n", "parity", "constraints"))
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"field 'n': {n!r} is not a positive integer")
    with json_field("parity"):
        entries = [json_object(entry, "parity entry", ("label", "set")) for entry in json_list(data["parity"])]
    with json_field("label"):
        parity_qubits = json_labels([entry["label"] for entry in entries])
    with json_field("set"):
        sets = [frozenset(json_labels(entry["set"])) for entry in entries]
    with json_field("constraints"):
        constraints = tuple((c, t) for c, t in map(json_labels, json_list(data["constraints"])))
    # at most a register's worth of data qubits in no parity set: checked
    # before "1".."n" are built, it bounds them by the size of the input
    named = len(frozenset().union(*sets))
    if n > DEFAULT_QUBIT_CAP + named:
        raise ValueError(f"field 'n': {n} data qubits, more than {DEFAULT_QUBIT_CAP} of them in no parity set")
    data_qubits = tuple(str(i) for i in range(1, n + 1))
    return ParityLayout(n, data_qubits, parity_qubits, dict(zip(parity_qubits, sets)), constraints)
