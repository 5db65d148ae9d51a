"""Input checks of the library and the CLI, one row each: the call, the
exception or exit code it gives and its whole message."""

import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from parityflow.cli import main
from parityflow.gflow import GFlow, MalformedFlowError, canonical_yz_gflow, measurement_order, yz_bipartite_sweep
from parityflow.layout import Gate, ParityLayout, build_all_pairs_layout, induced_graph
from parityflow.mbqc_engine import run_repeated_mbqc
from parityflow.parity_engine import LayerParams
from parityflow.pauli import PauliString, PhaseError, StabilizerGroup, hadamard_conjugate, multiply
from parityflow.simulator import Statevector, append_qubit, basis_state, project

ZERO = basis_state(("a",), "0")
LAYOUT = build_all_pairs_layout(3)
GRAPH = induced_graph(build_all_pairs_layout(2))
GROUP = StabilizerGroup(("a",), (PauliString(("a",), 0, 1),))


def parity_layout(n=2, data=("1", "2"), parity=("p",), sets=None):
    return ParityLayout(n, data, parity, {"p": {"1", "2"}} if sets is None else sets, (("1", "p"), ("2", "p")))


CHECKS = {
    "statevector duplicate labels": (
        lambda: Statevector(("a", "a"), np.eye(4)[0]),
        ValueError,
        "duplicate qubit labels",
    ),
    "statevector amplitude count": (
        lambda: Statevector(("a",), np.eye(3)[0]),
        ValueError,
        "expected 2 amplitudes, got (3,)",
    ),
    "basis_state bits": (lambda: basis_state(("a", "b"), "0x"), ValueError, "bits '0x' do not match 2 qubits"),
    "project outcome": (lambda: project(ZERO, "a", (0.0, 0.0, 1.0), 0), ValueError, "outcome must be +1 or -1"),
    "append_qubit amplitudes": (
        lambda: append_qubit(ZERO, "b", [1.0, 0.0, 0.0]),
        ValueError,
        "single-qubit amplitudes must have length 2",
    ),
    "gate arity": (lambda: Gate("H", ("a", "b")), ValueError, "H takes 1 qubit(s)"),
    "layout n": (lambda: parity_layout(n=3), ValueError, "n must equal the number of data qubits"),
    "layout duplicate labels": (lambda: parity_layout(parity=("1",)), ValueError, "duplicate qubit labels"),
    "layout parity_sets keys": (
        lambda: parity_layout(sets={"q": {"1", "2"}}),
        ValueError,
        "parity_sets keys must be exactly the parity qubits",
    ),
    "pauli mask range": (lambda: PauliString(("a",), 2, 0), ValueError, "bit masks must fit the label list"),
    "pauli negative mask": (lambda: PauliString(("a",), 0, -1), ValueError, "bit masks must fit the label list"),
    "pauli sign": (lambda: PauliString(("a",), 0, 0, 2), PhaseError, "sign must be +1 or -1, got 2"),
    "multiply labels": (
        lambda: multiply(PauliString(("a",), 1, 0), PauliString(("b",), 1, 0)),
        ValueError,
        "label sets differ",
    ),
    "group generator labels": (
        lambda: StabilizerGroup(("a",), (PauliString(("b",), 0, 1),)),
        ValueError,
        "generator labels differ from group labels",
    ),
    "hadamard_conjugate qubits": (
        lambda: hadamard_conjugate(GROUP, ["z", "a"]),
        ValueError,
        "qubits ['z'] not in the group's label list",
    ),
    "mbqc empty program": (
        lambda: run_repeated_mbqc(GRAPH, basis_state(("1", "2"), "00"), [], canonical_yz_gflow(GRAPH), []),
        ValueError,
        "at least one layer required",
    ),
    "theta outside the decode set": (
        lambda: LayerParams(theta={"(12)": 0.1}, decode=frozenset({"(13)"})).validate(LAYOUT),
        ValueError,
        "theta keys must lie in the layer's decode set",
    ),
    "measurement order length": (
        lambda: measurement_order(GRAPH, canonical_yz_gflow(GRAPH), ["(12)", "(12)"]),
        ValueError,
        "measurement order must enumerate the measured vertices exactly once",
    ),
    "flow precedence outside the layering": (
        lambda: GFlow({}, frozenset({("a", "b")}), (frozenset({"a"}),)),
        MalformedFlowError,
        "precedence pair ('a', 'b') outside the layering",
    ),
    "sweep enumeration cap": (
        lambda: yz_bipartite_sweep(9),
        ValueError,
        "max_n=9 above enumeration cap 8",
    ),
}


@pytest.mark.parametrize("name", CHECKS)
def test_input_check_raises_its_message(name):
    call, error, message = CHECKS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


TWO_QUBIT_LAYOUT = {"n": 2, "parity": [{"label": "(12)", "set": ["1", "2"]}], "constraints": [["1", "(12)"], ["2", "(12)"]]}
# the layout's induced graph with data qubit 2 renamed x
STRAY_GRAPH = {"vertices": ["1", "x", "(12)"], "edges": [["1", "(12)"], ["x", "(12)"]], "inputs": ["1", "x"], "outputs": ["1", "x"]}
CLI_CHECKS = {
    "file not JSON": ("{", ["sim", "parity"], "error: program.json is not valid JSON: "),
    "graph inputs not the data qubits": (
        json.dumps({"layout": TWO_QUBIT_LAYOUT, "layers": [{}], "graph": STRAY_GRAPH}),
        ["sim", "mbqc"],
        "error: field 'graph': inputs must match the program's data qubits\n",
    ),
}


@pytest.mark.parametrize("name", CLI_CHECKS)
def test_cli_input_check_exits_two(tmp_path, name):
    program, command, message = CLI_CHECKS[name]
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path):
        with open("program.json", "w") as handle:
            handle.write(program)
        result = runner.invoke(main, [*command, "--program", "program.json"])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith(message)
    assert result.stderr.endswith("\n") and result.stderr.count("\n") == 1
