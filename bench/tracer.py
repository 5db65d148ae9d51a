"""Spans and counters around calls into parityflow's public functions.

`Tracer.install()` replaces each listed function with a timing wrapper in
every parityflow module namespace that holds it, because `gflow`,
`mbqc_engine`, `parity_engine` and `pauli` import names from `graph`,
`gflow` and `simulator` directly and look them up in their own globals.
`Tracer.uninstall()` puts the originals back. Nothing under `src/` changes.

Spans are kept in memory as (name, start, end, parent) in flat arrays and
written out by `save`. A span's self time is its duration minus the
durations of its direct children, accumulated as spans close.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# (module, function, span name). Spans with the same name aggregate, so
# apply_pauli_x and apply_pauli_z both count as simulator.apply_pauli.
SPANNED = (
    ("graph", "enumerate_connected_graphs", "graph.enumerate"),
    ("graph", "odd_neighborhood", "graph.odd_neighborhood"),
    ("graph", "neighbors", "graph.neighbors"),
    ("graph", "bipartition_check", "graph.bipartition_check"),
    ("graph", "effective_graph", "graph.effective_graph"),
    ("graph", "with_io", "graph.with_io"),
    ("gflow", "search_gflow_yz", "gflow.search"),
    ("gflow", "verify_gflow", "gflow.verify"),
    ("gflow", "precedes", "gflow.precedes"),
    ("gflow", "witness_structure", "gflow.witness_structure"),
    ("simulator", "project", "simulator.project"),
    ("simulator", "discard_qubit", "simulator.discard_qubit"),
    ("simulator", "append_qubit", "simulator.append_qubit"),
    ("simulator", "apply_circuit", "simulator.apply_circuit"),
    ("simulator", "outcome_probability", "simulator.outcome_probability"),
    ("simulator", "apply_pauli_x", "simulator.apply_pauli"),
    ("simulator", "apply_pauli_z", "simulator.apply_pauli"),
    ("parity_engine", "run_computation", "parity_engine.run_computation"),
    ("parity_engine", "run_layer", "parity_engine.run_layer"),
    ("parity_engine", "mb_decode", "parity_engine.mb_decode"),
    ("parity_engine", "encode_input", "parity_engine.encode_input"),
    ("mbqc_engine", "run_repeated_mbqc", "mbqc_engine.run_repeated_mbqc"),
    ("mbqc_engine", "run_mbqc_yz", "mbqc_engine.run_mbqc_yz"),
    ("mbqc_engine", "prepare_graph_state", "mbqc_engine.prepare_graph_state"),
    ("layout", "layout_from_json", "layout.layout_from_json"),
    ("layout", "induced_graph", "layout.induced_graph"),
    ("layout", "encoding_circuit", "layout.encoding_circuit"),
    ("layout", "build_all_pairs_layout", "layout.build_all_pairs_layout"),
    ("pauli", "groups_equal", "pauli.groups_equal"),
    ("pauli", "hadamard_conjugate", "pauli.hadamard_conjugate"),
    ("pauli", "graph_generators", "pauli.graph_generators"),
    ("pauli", "parity_generators", "pauli.parity_generators"),
)

# functions and constructors that are only counted, without a span
COUNTED = (
    ("pauli", "multiply", "pauli.multiply.calls"),
)
CONSTRUCTIONS = (
    ("simulator", "Statevector", "simulator.statevector.constructions"),
    ("pauli", "StabilizerGroup", "pauli.stabilizer_group.constructions"),
)

# simulator kernels whose first argument is the register they act on
KERNELS = frozenset(
    {
        "simulator.project",
        "simulator.discard_qubit",
        "simulator.append_qubit",
        "simulator.outcome_probability",
        "simulator.apply_pauli",
    }
)


def _program_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("parityflow") and m is not None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # open spans: [span id, name, start, time covered by children]
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, name: str) -> None:
        span = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        self._stack.append([span, name, start, 0.0])

    def leave(self) -> None:
        end = time.perf_counter()
        span, name, start, children = self._stack.pop()
        self.span_end[span] = end
        duration = end - start
        self.self_s[name] += duration - children
        if self._stack:
            self._stack[-1][3] += duration

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        if name == "graph.enumerate":

            @functools.wraps(fn)
            def enumerate_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                return tracer._traced_generator(fn(*args, **kwargs), name)

            return enumerate_wrapper

        def count(args, result) -> None:
            if name in KERNELS:
                tracer.counts["simulator.amplitudes_touched"] += 1 << args[0].num_qubits
            elif name == "parity_engine.mb_decode":
                tracer.counts["parity_engine.measurements"] += len(result[1])
            elif name == "mbqc_engine.run_mbqc_yz":
                tracer.counts["mbqc_engine.measurements"] += len(result[1])

        if name == "simulator.apply_circuit":

            @functools.wraps(fn)
            def circuit_wrapper(state, circuit):
                gates = tuple(circuit)
                tracer.calls[name] += 1
                tracer.counts["simulator.amplitudes_touched"] += len(gates) << state.num_qubits
                tracer.enter(name)
                try:
                    return fn(state, gates)
                finally:
                    tracer.leave()

            return circuit_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            count(args, result)
            return result

        return wrapper

    def _traced_generator(self, generator, name: str):
        """One span per resumption, so consumer time between items is excluded."""
        while True:
            self.enter(name)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self.leave()
            self.counts["graph.enumerate.graphs_yielded"] += 1
            yield item

    def _counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = _program_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        replacements = []
        for module, attr, name in SPANNED:
            original = getattr(by_name[module], attr)
            replacements.append((original, self._wrap(original, name)))
        for module, attr, key in COUNTED:
            original = getattr(by_name[module], attr)
            replacements.append((original, self._counted(original, key)))
        for original, wrapper in replacements:
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, attr, original))
                        setattr(m, attr, wrapper)
        for module, cls_name, key in CONSTRUCTIONS:
            cls = getattr(by_name[module], cls_name)
            original = cls.__dict__["__post_init__"]
            self._undo.append((cls, "__post_init__", original))
            cls.__post_init__ = self._counted(original, key)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """calls and self time per spanned name, plus the plain counters."""
        out: dict[str, tuple[float, str]] = {}
        for _, _, name in SPANNED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for _, _, key in COUNTED:
            out[key] = (self.counts[key], "count")
        for _, _, key in CONSTRUCTIONS:
            out[key] = (self.counts[key], "count")
        for key in (
            "graph.enumerate.graphs_yielded",
            "simulator.amplitudes_touched",
            "parity_engine.measurements",
            "mbqc_engine.measurements",
        ):
            out[key] = (self.counts[key], "count")
        return out

    def save(self, path: str) -> None:
        """Write every span as parallel arrays (name index, parent span, start, end)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
