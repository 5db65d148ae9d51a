"""Command-line interface: output schemas, determinism, exit codes."""

import gc
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from parityflow import cli, simulator
from parityflow.cli import _canonical_json, main
from parityflow.gflow import canonical_yz_gflow
from parityflow.layout import induced_graph, layout_from_json
from parityflow.mbqc_engine import run_repeated_mbqc
from parityflow.parity_engine import all_outcome_branches, measurement_count, run_computation

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

README_PROGRAM = {
    "layout": {
        "n": 2,
        "parity": [{"label": "(12)", "set": ["1", "2"]}],
        "constraints": [["1", "(12)"], ["2", "(12)"]],
    },
    "layers": [{"theta": {"(12)": 1.5707963267948966}, "alpha": {}, "phi": {"1": 0.25}}],
}


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_lhz_build(runner):
    result = invoke(runner, ["lhz", "build", "--n", "3"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["n"] == 3
    assert [p["label"] for p in data["parity"]] == ["(12)", "(13)", "(23)"]


@pytest.mark.parametrize("n", ["112", "100000"])
def test_lhz_build_above_the_label_bound_exits_two(runner, n):
    result = invoke(runner, ["lhz", "build", "--n", n])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "above 111" in result.stderr


def test_lhz_build_deterministic(runner):
    first = invoke(runner, ["lhz", "build", "--n", "4"]).stdout
    second = invoke(runner, ["lhz", "build", "--n", "4"]).stdout
    assert first == second


def test_lhz_graph_json_and_dot(runner, tmp_path):
    layout_file = tmp_path / "layout.json"
    layout_file.write_text(invoke(runner, ["lhz", "build", "--n", "2"]).stdout)
    result = invoke(runner, ["lhz", "graph", "--layout", str(layout_file)])
    data = json.loads(result.stdout)
    assert data["vertices"] == ["1", "2", "(12)"]
    assert data["inputs"] == ["1", "2"]
    dot = invoke(runner, ["lhz", "graph", "--layout", str(layout_file), "--format", "dot"])
    assert dot.stdout.startswith("graph {")


@pytest.mark.parametrize(
    "label,exit_code,stdout,stderr",
    [
        (
            'a"b',
            0,
            'graph {\n  "1" [shape=box];\n  "2" [shape=box];\n  "a\\"b" [shape=circle];\n'
            '  "1" -- "a\\"b";\n  "2" -- "a\\"b";\n}\n',
            "graph with 3 vertices, 2 edges\n",
        ),
        ("a\\", 2, "", "error: label 'a\\\\' cannot be quoted in DOT\n"),
        ("a\nb", 2, "", "error: label 'a\\nb' cannot be quoted in DOT\n"),
    ],
)
def test_lhz_graph_dot_quotes_or_refuses_labels(runner, tmp_path, label, exit_code, stdout, stderr):
    layout = {"n": 2, "parity": [{"label": label, "set": ["1", "2"]}], "constraints": [["1", label], ["2", label]]}
    path = tmp_path / "layout.json"
    path.write_text(json.dumps(layout))
    result = runner.invoke(main, ["lhz", "graph", "--layout", str(path), "--format", "dot"])
    assert (result.exit_code, result.stdout, result.stderr) == (exit_code, stdout, stderr)


def test_stab_check_equivalence(runner, tmp_path):
    layout_file = tmp_path / "layout.json"
    layout_file.write_text(invoke(runner, ["lhz", "build", "--n", "3"]).stdout)
    result = invoke(runner, ["stab", "check-equivalence", "--layout", str(layout_file)])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["equal"] is True


def test_stab_check_equivalence_stdout_pinned(runner, tmp_path):
    """The stdout of n = 2..10, in order, is pinned byte for byte."""
    layout_file = tmp_path / "layout.json"
    digest = hashlib.sha256()
    for n in range(2, 11):
        layout_file.write_text(invoke(runner, ["lhz", "build", "--n", str(n)]).stdout)
        result = invoke(runner, ["stab", "check-equivalence", "--layout", str(layout_file)])
        assert result.exit_code == 0
        digest.update(result.stdout.encode())
    assert digest.hexdigest() == "64565216effb6927bb75429e4b9c8a5f56f6927301906da77767422df5d8b98b"


PINNED_PROGRAMS = {
    "readme": README_PROGRAM,
    # partial decode: sim mbqc and compare refuse it with exit 2
    "three_qubits_partial_decode": {
        "layout": {
            "n": 3,
            "parity": [
                {"label": "(12)", "set": ["1", "2"]},
                {"label": "(13)", "set": ["1", "3"]},
                {"label": "(23)", "set": ["2", "3"]},
            ],
            "constraints": [["1", "(12)"], ["2", "(12)"], ["1", "(13)"], ["3", "(13)"], ["2", "(23)"], ["3", "(23)"]],
        },
        "layers": [
            # X rotations only on data qubit 2, which (13), still encoded, does not track
            {"theta": {"(12)": 0.9, "(23)": -1.3}, "alpha": {"2": 0.4}, "phi": {"1": -0.7, "3": 2.1}, "decode": ["(12)", "(23)"]},
            {"theta": {"(13)": 0.6, "(12)": -0.3}, "alpha": {"2": -1.1}, "phi": {"1": 1.2}},
        ],
        "input": [[0.3, 0.1], [-0.2, 0.4], [0.5, 0.0], [0.1, -0.3], [0.0, 0.2], [-0.4, 0.1], [0.2, 0.2], [0.1, 0.0]],
    },
    # (13) is built through (12), a parity-qubit control
    "chain_with_parity_control": {
        "layout": {
            "n": 3,
            "parity": [{"label": "(12)", "set": ["1", "2"]}, {"label": "(13)", "set": ["1", "3"]}],
            "constraints": [["1", "(12)"], ["2", "(12)"], ["(12)", "(13)"], ["2", "(13)"], ["3", "(13)"]],
        },
        "layers": [
            {"theta": {"(12)": 1.1, "(13)": -0.8}, "alpha": {"3": 0.5}, "phi": {"1": -0.9}},
            {"theta": {"(13)": 0.35}, "alpha": {"1": 1.3}, "phi": {"2": 0.45}},
        ],
        "input": [[0.1, 0.2], [0.3, -0.1], [0.0, 0.4], [-0.2, 0.2], [0.5, 0.1], [0.1, 0.1], [-0.3, 0.0], [0.2, -0.4]],
    },
}


def _rounded(value):
    """Floats rounded to 12 decimal places, -0.0 as 0.0: noise-level values
    such as a 1e-16 branch distance round to 0, so the digest does not
    depend on the BLAS build."""
    if isinstance(value, float):
        return round(value, 12) + 0.0
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def test_simulation_commands_stdout_pinned(runner, tmp_path):
    """`sim parity`, `sim mbqc` (all branches and sampled) and `compare` on
    three programs: their exit codes and parsed stdout, rounded, are pinned."""
    digest = hashlib.sha256()
    for name, program in PINNED_PROGRAMS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(program))
        for command in (
            ["sim", "parity", "--branches", "all"],
            ["sim", "parity", "--samples", "5", "--seed", "11"],
            ["sim", "mbqc", "--branches", "all"],
            ["sim", "mbqc", "--samples", "5", "--seed", "11"],
            ["compare", "--seed", "3"],
        ):
            result = runner.invoke(main, [*command, "--program", str(path)])
            parsed = _rounded(json.loads(result.stdout)) if result.stdout else None
            digest.update(f"{result.exit_code} {json.dumps(parsed, sort_keys=True)}\n".encode())
    assert digest.hexdigest() == "0882a432d4cfe003554703c3615977af66f81889265dd4948b2b59560ede1604"


def _write_program(runner, tmp_path, n=2, layers=None):
    layout = json.loads(invoke(runner, ["lhz", "build", "--n", str(n)]).stdout)
    program = {
        "layout": layout,
        "layers": layers
        or [
            {"theta": {"(12)": 0.9}, "alpha": {"1": 0.4}, "phi": {"2": -0.7}},
            {"theta": {"(12)": -0.3}, "alpha": {}, "phi": {"1": 1.2}},
        ],
        "input": [[0.6, 0.0], [0.0, 0.48], [-0.384, 0.0], [0.0, 0.512]],
    }
    path = tmp_path / "program.json"
    path.write_text(json.dumps(program))
    return path


def test_sim_parity_all_branches(runner, tmp_path):
    path = _write_program(runner, tmp_path)
    result = invoke(runner, ["sim", "parity", "--program", str(path), "--branches", "all"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["branches_run"] == 4
    assert data["max_branch_distance"] < 1e-12
    assert data["qubits"] == ["1", "2"]
    assert len(data["amplitudes"]) == 4


def _three_qubit_program(runner, tmp_path):
    layout = json.loads(invoke(runner, ["lhz", "build", "--n", "3"]).stdout)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    program = {
        "layout": layout,
        "layers": [
            {"theta": {"(12)": 0.9, "(23)": -1.3}, "alpha": {"1": 0.4, "3": 2.1}, "phi": {"2": -0.7}},
            {"theta": {"(13)": 0.6, "(12)": -0.3}, "alpha": {"2": -1.1}, "phi": {"1": 1.2}},
        ],
        "input": [[float(a.real), float(a.imag)] for a in amps],
    }
    path = tmp_path / "program3.json"
    path.write_text(json.dumps(program))
    return path


def _per_branch_route(engine, path):
    """Every outcome branch of the program, one engine run each, unreachable ones skipped."""
    layout, layers, psi, _ = cli._load_program(json.loads(path.read_text()))
    if engine == "mbqc":
        graph = induced_graph(layout)
        flow = canonical_yz_gflow(graph)
        count = len(layout.parity_qubits) * len(layers)
        run = lambda outcomes: run_repeated_mbqc(graph, psi, layers, flow, outcomes)  # noqa: E731
    else:
        count = measurement_count(layout, layers)
        run = lambda outcomes: run_computation(layout, psi, layers, outcomes)  # noqa: E731
    outputs = []
    for outcomes in all_outcome_branches(count):
        try:
            outputs.append(run(outcomes))
        except simulator.ZeroProbabilityError:
            continue
    return outputs


@pytest.mark.parametrize("engine", ["parity", "mbqc"])
@pytest.mark.parametrize("program", ["readme", "three_qubits_two_layers"])
def test_sim_all_branches_matches_per_branch_route(runner, tmp_path, engine, program):
    if program == "readme":
        path = tmp_path / "program.json"
        path.write_text(json.dumps(README_PROGRAM))
    else:
        path = _three_qubit_program(runner, tmp_path)
    result = invoke(runner, ["sim", engine, "--program", str(path), "--branches", "all"])
    outputs = _per_branch_route(engine, path)
    reference, records = outputs[0]
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["qubits"] == list(reference.labels)
    assert data["branches_run"] == len(outputs)
    assert [[(e["qubit"], e["axis"], e["outcome"]) for e in r] for r in data["record"]] == [
        [(e.qubit, list(e.axis), e.outcome) for e in r] for r in records
    ]
    probabilities = [e["probability"] for r in data["record"] for e in r]
    assert np.allclose(probabilities, [e.probability for r in records for e in r], rtol=0, atol=1e-14)
    amps = np.array([complex(real, imag) for real, imag in data["amplitudes"]])
    assert np.abs(amps - reference.amplitudes).max() <= 1e-14
    assert data["max_branch_distance"] <= 1e-12


def test_in_process_commands_release_their_stderr(runner, monkeypatch):
    """Each in-process invocation gets a fresh sys.stderr; writing the
    summary through click's cached default stream used to keep every one
    of them alive, about 2 KB per command. The streams are followed by
    weak reference: the total traced memory also moves with interpreter
    free lists, which no command controls."""
    streams = []
    build = cli.layout_mod.build_all_pairs_layout

    def recording_build(n):
        streams.append(weakref.ref(sys.stderr))
        return build(n)

    monkeypatch.setattr(cli.layout_mod, "build_all_pairs_layout", recording_build)
    args = ["lhz", "build", "--n", "2"]
    first = invoke(runner, args)
    for _ in range(20):
        result = invoke(runner, args)
    gc.collect()
    assert len(streams) == 21
    assert [ref() for ref in streams] == [None] * 21
    assert result.stdout == first.stdout
    assert "layout with 3 qubits (1 parity)" in result.stderr


def test_sim_mbqc_samples(runner, tmp_path):
    path = _write_program(runner, tmp_path)
    result = invoke(runner, ["sim", "mbqc", "--program", str(path), "--seed", "3"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["engine"] == "mbqc"
    assert data["max_branch_distance"] < 1e-12


def test_sim_mbqc_with_explicit_graph(runner, tmp_path):
    layout = json.loads(invoke(runner, ["lhz", "build", "--n", "2"]).stdout)
    program = {
        "layout": layout,
        "graph": {
            "vertices": ["1", "2", "(12)"],
            "edges": [["1", "(12)"], ["2", "(12)"]],
            "inputs": ["1", "2"],
            "outputs": ["1", "2"],
        },
        "layers": [{"theta": {"(12)": 0.4}}],
    }
    path = tmp_path / "program.json"
    path.write_text(json.dumps(program))
    result = invoke(runner, ["sim", "mbqc", "--program", str(path), "--branches", "all"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["branches_run"] == 2


def test_sim_mbqc_names_a_graph_whose_outputs_differ_from_its_inputs(runner, tmp_path):
    layout = json.loads(invoke(runner, ["lhz", "build", "--n", "2"]).stdout)
    program = {
        "layout": layout,
        "graph": {
            "vertices": ["1", "2", "(12)"],
            "edges": [["1", "(12)"], ["2", "(12)"]],
            "inputs": ["1", "2"],
            "outputs": ["1"],
        },
        "layers": [{"theta": {"(12)": 0.4}}],
    }
    path = tmp_path / "program.json"
    path.write_text(json.dumps(program))
    result = invoke(runner, ["sim", "mbqc", "--program", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "no canonical flow: inputs differ from outputs" in result.stderr


def test_sim_deterministic_given_seed(runner, tmp_path):
    path = _write_program(runner, tmp_path)
    args = ["sim", "parity", "--program", str(path), "--seed", "7"]
    assert invoke(runner, args).stdout == invoke(runner, args).stdout


def test_compare_agreement(runner, tmp_path):
    path = _write_program(runner, tmp_path)
    result = invoke(runner, ["compare", "--program", str(path), "--tol", "1e-10"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["agree"] is True
    assert data["distance"] < 1e-10


def test_compare_agrees_at_a_distance_equal_to_its_tolerance(runner, tmp_path):
    """`--tol` is the largest distance that still passes, for `compare` as
    for `sim`: at theta = 0 both engines leave |00> exactly, and a distance
    of 0 passes `--tol 0`."""
    path = tmp_path / "program.json"
    path.write_text(json.dumps({**README_PROGRAM, "layers": [{"theta": {"(12)": 0.0}}]}))
    result = invoke(runner, ["compare", "--program", str(path), "--tol", "0"])
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {"agree": True, "distance": 0.0, "tolerance": 0.0}
    assert "engines agree: distance 0.000e+00" in result.stderr
    assert invoke(runner, ["sim", "parity", "--program", str(path), "--tol", "0"]).exit_code == 0


def test_compare_rejects_partial_decode(runner, tmp_path):
    path = _write_program(
        runner, tmp_path, layers=[{"theta": {"(12)": 0.5}, "decode": ["(12)"]}, {}]
    )
    result = invoke(runner, ["compare", "--program", str(path)])
    assert result.exit_code == 2
    assert "decode" in result.stderr


def test_compare_runs_the_programs_graph(runner, tmp_path):
    """`compare` measures the program's `"graph"`, as `sim mbqc` does: with
    the edge 2-(12) missing, the two engines disagree."""
    program = {
        **README_PROGRAM,
        "layers": [{"theta": {"(12)": 0.9}}],
        "input": [[0.5, 0.0]] * 4,
        "graph": {"vertices": ["1", "2", "(12)"], "edges": [["1", "(12)"]], "inputs": ["1", "2"], "outputs": ["1", "2"]},
    }
    path = tmp_path / "program.json"
    path.write_text(json.dumps(program))
    states = []
    for engine in ("parity", "mbqc"):
        data = json.loads(invoke(runner, ["sim", engine, "--program", str(path)]).stdout)
        amps = np.array([complex(real, imag) for real, imag in data["amplitudes"]])
        states.append(simulator.Statevector(tuple(data["qubits"]), amps))
    result = invoke(runner, ["compare", "--program", str(path)])
    assert result.exit_code == 1
    data = json.loads(result.stdout)
    assert data["agree"] is False
    assert abs(data["distance"] - simulator.distance_up_to_phase(*states)) < 1e-12


def test_compare_ignores_graph_edges_inside_the_inputs(runner, tmp_path):
    """The triangle 1-2-(12) with I = O = {1, 2} entangles only 1-(12)-2:
    the edge inside the inputs enters no CZ and no correction set."""
    program = {
        **README_PROGRAM,
        "graph": {
            "vertices": ["1", "2", "(12)"],
            "edges": [["1", "2"], ["2", "(12)"], ["1", "(12)"]],
            "inputs": ["1", "2"],
            "outputs": ["1", "2"],
        },
    }
    path = tmp_path / "program.json"
    path.write_text(json.dumps(program))
    result = invoke(runner, ["compare", "--program", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["agree"] is True
    assert invoke(runner, ["sim", "mbqc", "--program", str(path)]).exit_code == 0


def test_sim_parity_refuses_a_final_partial_decode(runner, tmp_path):
    layout = json.loads(invoke(runner, ["lhz", "build", "--n", "3"]).stdout)
    path = tmp_path / "program.json"
    path.write_text(json.dumps({"layout": layout, "layers": [{"theta": {"(12)": 0.9}, "decode": ["(12)"]}]}))
    for branches in ("all", "sample"):
        result = invoke(runner, ["sim", "parity", "--branches", branches, "--program", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "decode: the final layer must decode every parity qubit" in result.stderr


def test_unrotated_parity_records_print_the_x_axis(runner, tmp_path):
    """With every theta zero or absent, each parity record axis prints as
    the X axis, byte for byte: no -0.0, which the stdout pin's rounding
    would read as 0.0."""
    path = _write_program(runner, tmp_path, layers=[{"theta": {"(12)": 0.0}, "phi": {"1": 0.3}}, {"alpha": {"2": 0.5}}])
    for branches in ("all", "sample"):
        result = invoke(runner, ["sim", "parity", "--branches", branches, "--program", str(path)])
        assert result.exit_code == 0
        assert re.findall(r'"axis": (\[[^]]*\])', result.stdout) == ["[1.0, 0.0, 0.0]"] * 2


def test_zero_amplitude_parts_print_without_a_sign(runner, tmp_path):
    """Sampled and all-branch runs of one program print the same state as
    the same bytes: a zero part is 0.0, never -0.0."""
    layout = json.loads(invoke(runner, ["lhz", "build", "--n", "2"]).stdout)
    path = tmp_path / "program.json"
    layers = [{"decode": [], "phi": {"1": 0.2}}, {"theta": {"(12)": 0.2}}]
    path.write_text(json.dumps({"layout": layout, "layers": layers}))
    amplitudes = '"amplitudes": [[0.98006657784124163, -0.19866933079506124], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]'
    axis = '"axis": [0.98006657784124163, -0.19866933079506122, 0.0]'
    pinned = {
        ("--samples", "3"): (3, -1),
        ("--branches", "all"): (2, 1),
    }
    for args, (runs, outcome) in pinned.items():
        result = invoke(runner, ["sim", "parity", *args, "--program", str(path)])
        assert result.exit_code == 0
        assert result.stdout == (
            f'{{{amplitudes}, "branches_run": {runs}, "engine": "parity", "max_branch_distance": 0.0, '
            f'"qubits": ["1", "2"], "record": [[], [{{{axis}, "outcome": {outcome}, '
            '"probability": 0.49999999999999994, "qubit": "(12)"}]]}\n'
        )


def _all_pairs_program(runner, tmp_path, n, layers):
    layout = json.loads(invoke(runner, ["lhz", "build", "--n", str(n)]).stdout)
    path = tmp_path / "program.json"
    path.write_text(json.dumps({"layout": layout, "layers": layers}))
    return path


@pytest.mark.parametrize("engine", ["parity", "mbqc"])
@pytest.mark.parametrize(
    "n,layers,branches",
    [(6, 1, "32768 outcome branches of 6 qubits"), (4, 3, "262144 outcome branches of 4 qubits")],
    ids=["n6-one-layer", "n4-three-layers"],
)
def test_sim_all_branch_cap_refusals_count_the_register_a_run_holds(runner, tmp_path, engine, n, layers, branches):
    """Both engines hold only the data register; the cap counts it with
    every branch row a layer ends on, so both refuse alike, at the first
    layer whose rows break it."""
    path = _all_pairs_program(runner, tmp_path, n, [{"theta": {"(12)": 0.3}}] * layers)
    result = invoke(runner, ["sim", engine, "--branches", "all", "--program", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {branches} exceed the 16-qubit cap; sample branches instead (--branches sample)\n"


@pytest.mark.parametrize("n", [6, 10])
def test_sampled_runs_of_all_pairs_layouts_past_the_old_cap(runner, tmp_path, n):
    """All-pairs n = 6 and 10 hold 21 and 55 qubits encoded, but their runs
    hold only the n data qubits: both engines and `compare` run them."""
    layers = [
        {"theta": {"(12)": 0.3, "(23)": -0.8}, "phi": {"1": 0.4}, "alpha": {"2": 0.7}},
        {"theta": {"(13)": 1.1}, "alpha": {"1": -0.5}},
    ]
    path = _all_pairs_program(runner, tmp_path, n, layers)
    for engine in ("parity", "mbqc"):
        result = invoke(runner, ["sim", engine, "--program", str(path)])
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        assert data["branches_run"] == 8 and len(data["qubits"]) == n
        assert data["max_branch_distance"] < 1e-12
    result = invoke(runner, ["compare", "--program", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["distance"] < 1e-10


def test_sim_parity_refuses_alpha_on_a_still_encoded_qubit(runner, tmp_path):
    layout = json.loads(invoke(runner, ["lhz", "build", "--n", "3"]).stdout)
    layers = [{"theta": {"(12)": 0.9}, "alpha": {"1": 0.4}, "decode": ["(12)"]}, {}]
    path = tmp_path / "program.json"
    path.write_text(json.dumps({"layout": layout, "layers": layers}))
    result = invoke(runner, ["sim", "parity", "--branches", "all", "--program", str(path)])
    assert result.exit_code == 2
    assert "alpha on data qubit '1', which parity qubit '(13)'" in result.stderr


@pytest.mark.parametrize(
    "command, option, value",
    [
        (["sim", "parity"], "--tol", "nan"),
        (["sim", "mbqc"], "--tol", "nan"),
        (["sim", "parity"], "--tol", "-1"),
        (["sim", "mbqc"], "--tol", "-1"),
        (["sim", "parity"], "--tol", "inf"),
        (["compare"], "--tol", "nan"),
        (["compare"], "--tol", "-1"),
        (["sim", "parity"], "--samples", "0"),
        (["sim", "mbqc"], "--samples", "0"),
        (["sim", "parity"], "--seed", "-1"),
        (["sim", "mbqc"], "--seed", "-1"),
        (["compare"], "--seed", "-1"),
    ],
)
def test_bad_tolerance_or_sample_count_exits_two(runner, tmp_path, command, option, value):
    path = _write_program(runner, tmp_path)
    result = invoke(runner, [*command, "--program", str(path), option, value])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert option in result.stderr


def test_module_entry_point_runs_the_command(runner):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "parityflow.cli", "lhz", "build", "--n", "2"],
        env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode == 0
    assert done.stdout == invoke(runner, ["lhz", "build", "--n", "2"]).stdout


def _modules_after_package_import() -> set[str]:
    """The names in sys.modules after `import parityflow` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, parityflow; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return set(done.stdout.split())


def test_package_import_loads_every_traced_module():
    """The bench tracer patches the modules it finds in sys.modules, so
    `import parityflow` alone has to load every module it wraps."""
    spec = importlib.util.spec_from_file_location("bench_tracer", os.path.join(SRC, "..", "bench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wanted = {f"parityflow.{module}" for module, _, _ in tracer.SPANNED + tracer.COUNTED + tracer.CONSTRUCTIONS}
    assert len(wanted) == 7
    assert wanted <= _modules_after_package_import()


def test_package_import_loads_no_process_pool():
    # the sweep's worker pool is imported only when a sweep asks for workers
    loaded = _modules_after_package_import()
    assert "parityflow.gflow" in loaded
    assert "concurrent.futures" not in loaded
    assert "multiprocessing" not in loaded


def test_zero_input_exits_two_without_nan(runner, tmp_path):
    path = _write_program(runner, tmp_path)
    program = json.loads(path.read_text())
    program["input"] = [[0.0, 0.0]] * 4
    path.write_text(json.dumps(program))
    for engine in ("parity", "mbqc"):
        result = runner.invoke(main, ["sim", engine, "--program", str(path)])
        assert result.exit_code == 2
        assert "nan" not in result.stdout
        assert "input" in result.stderr


def test_canonical_json_floats_parse_back_as_floats():
    # an exact-zero distance or a whole-number axis component must not
    # print as a JSON int: the type would flip when the value moves by 1e-17
    values = [0.0, -0.0, 1.0, -2.0, 0.1, 1e16, 1e17, 2.5e-300]
    text = _canonical_json({"floats": values, "count": 3})
    assert text == (
        '{"count": 3, "floats": [0.0, -0.0, 1.0, -2.0, 0.10000000000000001, '
        "10000000000000000.0, 1e+17, 2.5e-300]}"
    )
    parsed = json.loads(text)
    assert parsed["floats"] == values and all(type(v) is float for v in parsed["floats"])
    assert type(parsed["count"]) is int


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_canonical_json_refuses_non_finite(value):
    with pytest.raises(ValueError, match="non-finite"):
        _canonical_json({"distance": [0.5, value]})


def _unrealised_layout():
    # the CNOT list never feeds data qubit 2 into (12)
    return {"n": 2, "parity": [{"label": "(12)", "set": ["1", "2"]}], "constraints": [["1", "(12)"]]}


def test_compare_rejects_unrealised_layout(runner, tmp_path):
    path = _write_program(runner, tmp_path)
    program = json.loads(path.read_text())
    program["layout"] = _unrealised_layout()
    path.write_text(json.dumps(program))
    result = runner.invoke(main, ["compare", "--program", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "(12)" in result.stderr


def test_lhz_graph_rejects_unrealised_layout(runner, tmp_path):
    layout_file = tmp_path / "layout.json"
    layout_file.write_text(json.dumps(_unrealised_layout()))
    result = runner.invoke(main, ["lhz", "graph", "--layout", str(layout_file)])
    assert result.exit_code == 2
    assert "(12)" in result.stderr


def test_gflow_search_and_verify(runner, tmp_path):
    graph = {
        "vertices": ["1", "2", "3"],
        "edges": [["1", "2"], ["2", "3"]],
        "inputs": ["1", "3"],
        "outputs": ["1", "3"],
    }
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(graph))
    search = invoke(runner, ["gflow", "search", "--graph", str(graph_file)])
    assert search.exit_code == 0
    witness = json.loads(search.stdout)
    assert witness["found"] is True
    assert witness["g"] == {"2": ["2"]}
    flow_file = tmp_path / "flow.json"
    flow_file.write_text(search.stdout)
    verify = invoke(
        runner, ["gflow", "verify", "--graph", str(graph_file), "--flow", str(flow_file)]
    )
    assert verify.exit_code == 0
    assert json.loads(verify.stdout)["valid"] is True


def test_gflow_search_triangle_none(runner, tmp_path):
    graph = {
        "vertices": ["1", "2", "3"],
        "edges": [["1", "2"], ["2", "3"], ["1", "3"]],
        "inputs": ["1"],
        "outputs": ["1"],
    }
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(graph))
    result = invoke(runner, ["gflow", "search", "--graph", str(graph_file)])
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {"found": False}


def test_gflow_search_over_the_cap_exits_two(runner, tmp_path):
    labels = [str(i) for i in range(9)]
    graph = {"vertices": labels, "edges": [list(e) for e in zip(labels, labels[1:])], "inputs": [], "outputs": []}
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(graph))
    result = runner.invoke(main, ["gflow", "search", "--graph", str(graph_file)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "search cap exceeded" in result.stderr


def test_gflow_verify_invalid_exits_one(runner, tmp_path):
    graph = {
        "vertices": ["1", "2", "3"],
        "edges": [["1", "2"], ["2", "3"]],
        "inputs": ["1", "3"],
        "outputs": ["1", "3"],
    }
    flow = {"g": {"2": []}, "layers": [["2"], ["1", "3"]]}
    graph_file = tmp_path / "graph.json"
    flow_file = tmp_path / "flow.json"
    graph_file.write_text(json.dumps(graph))
    flow_file.write_text(json.dumps(flow))
    result = invoke(
        runner, ["gflow", "verify", "--graph", str(graph_file), "--flow", str(flow_file)]
    )
    assert result.exit_code == 1
    data = json.loads(result.stdout)
    assert data["valid"] is False
    assert data["violations"][0]["condition"] == 5


def _pin(digest, result):
    """Fold one command's exit code and stdout bytes into the digest."""
    digest.update(f"{result.exit_code}\n".encode() + result.stdout_bytes)


def test_lhz_commands_stdout_pinned(runner, tmp_path):
    """`lhz build`, then `lhz graph` as JSON and as DOT, for n = 2..6."""
    layout_file = tmp_path / "layout.json"
    digest = hashlib.sha256()
    for n in range(2, 7):
        build = runner.invoke(main, ["lhz", "build", "--n", str(n)])
        _pin(digest, build)
        layout_file.write_text(build.stdout)
        for fmt in ("json", "dot"):
            _pin(digest, runner.invoke(main, ["lhz", "graph", "--layout", str(layout_file), "--format", fmt]))
    assert digest.hexdigest() == "5c5b6ec6d406805a9c86a989b448094ddbf8c9f88d90d83d4ed3ffac2a9190ff"


def _chain(labels, closed=False):
    pairs = list(zip(labels, labels[1:]))
    return [list(e) for e in pairs + ([(labels[-1], labels[0])] if closed else [])]


SIX = [str(i) for i in range(1, 7)]
PINNED_GRAPHS = {
    "p3": {"vertices": ["1", "2", "3"], "edges": _chain(["1", "2", "3"]), "inputs": ["1", "3"], "outputs": ["1", "3"]},
    "c6": {"vertices": SIX, "edges": _chain(SIX, closed=True), "inputs": ["1", "3", "5"], "outputs": ["1", "3", "5"]},
    "triangle": {"vertices": ["1", "2", "3"], "edges": _chain(["1", "2", "3"], closed=True), "inputs": ["1"], "outputs": ["1"]},
    # C6 with a pendant 7 on 1: bipartite, I one side
    "bipartite7": {
        "vertices": [*SIX, "7"],
        "edges": _chain(SIX, closed=True) + [["1", "7"]],
        "inputs": ["2", "4", "6", "7"],
        "outputs": ["2", "4", "6", "7"],
    },
    # the same with a chord 2-4 inside I: an odd cycle, yet V - I spans no edge
    "odd_cycle7": {
        "vertices": [*SIX, "7"],
        "edges": _chain(SIX, closed=True) + [["1", "7"], ["2", "4"]],
        "inputs": ["2", "4", "6", "7"],
        "outputs": ["2", "4", "6", "7"],
    },
}

C4 = {"vertices": ["1", "2", "3", "4"], "edges": _chain(["1", "2", "3", "4"], closed=True), "inputs": ["1", "3"], "outputs": ["1", "3"]}
PINNED_FLOWS = {
    # g(2) = {2, 4}: 2 before 4
    "valid": (C4, {"g": {"2": ["2", "4"], "4": ["4"]}, "layers": [["2"], ["4"], ["1", "3"]]}),
    "layers_reversed": (C4, {"g": {"2": ["2", "4"], "4": ["4"]}, "layers": [["4"], ["2"], ["1", "3"]]}),
    # P3 from input 1 to output 3, XY at 1 and 2
    "planes": (
        {"vertices": ["1", "2", "3"], "edges": _chain(["1", "2", "3"]), "inputs": ["1"], "outputs": ["3"]},
        {"g": {"1": ["2"], "2": ["3"]}, "layers": [["1"], ["2"], ["3"]], "planes": {"1": "XY", "2": "XY"}},
    ),
}


def test_gflow_commands_stdout_pinned(runner, tmp_path):
    """`gflow search` on five graphs and `gflow verify` on three flows."""
    graph_file, flow_file = tmp_path / "graph.json", tmp_path / "flow.json"
    digest = hashlib.sha256()
    for graph in PINNED_GRAPHS.values():
        graph_file.write_text(json.dumps(graph))
        _pin(digest, runner.invoke(main, ["gflow", "search", "--graph", str(graph_file)]))
    codes = []
    for graph, flow in PINNED_FLOWS.values():
        graph_file.write_text(json.dumps(graph))
        flow_file.write_text(json.dumps(flow))
        result = runner.invoke(main, ["gflow", "verify", "--graph", str(graph_file), "--flow", str(flow_file)])
        codes.append(result.exit_code)
        _pin(digest, result)
    assert codes == [0, 1, 0]
    assert digest.hexdigest() == "1e5395a967cfa11c4d8a5ab04a672b4faf9ae00e79474de11bb7f5490e2786ae"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_stdout_pinned(runner, workers):
    result = runner.invoke(main, ["sweep", "--max-n", "5", "--io-samples", "20", "--workers", workers])
    digest = hashlib.sha256()
    _pin(digest, result)
    assert digest.hexdigest() == "036c721a0dd387ac9b9f99cd53f16578884bf8f7b08e5b54723d198e9d40734b"


def test_sweep_small(runner):
    result = invoke(runner, ["sweep", "--max-n", "3", "--io-samples", "10", "--workers", "1"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["ok"] is True
    assert data["per_n"]["3"]["graphs"] == 2
    assert data["discrepancies"] == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_reports_each_n_on_stderr(runner, workers):
    result = invoke(runner, ["sweep", "--max-n", "4", "--io-samples", "0", "--workers", workers])
    assert result.exit_code == 0
    lines = result.stderr.splitlines()
    assert len(lines) == 5 and lines[-1].startswith("swept 10 graphs, 118 instances")
    rows = [re.fullmatch(r"n=(\d+): (\d+) graphs, (\d+) instances, (\d+\.\d{3}) s", line) for line in lines[:-1]]
    assert [row.groups()[:3] for row in rows] == [("1", "1", "2"), ("2", "1", "4"), ("3", "2", "16"), ("4", "6", "96")]


def test_sweep_stdout_is_independent_of_the_worker_count(runner):
    serial = invoke(runner, ["sweep", "--max-n", "5", "--workers", "1"])
    pooled = invoke(runner, ["sweep", "--max-n", "5", "--workers", "2"])
    assert serial.exit_code == pooled.exit_code == 0
    assert serial.stdout == pooled.stdout


def test_sweep_max_n_one_and_zero(runner):
    result = invoke(runner, ["sweep", "--max-n", "1", "--workers", "1"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["per_n"] == {"1": {"bipartite_instances": 2, "flows_found": 2, "graphs": 1, "instances": 2}}
    assert data["io_mismatch_cases"] == 0
    result = invoke(runner, ["sweep", "--max-n", "0", "--workers", "1"])
    assert result.exit_code == 2
    assert "max_n" in result.stderr


def test_malformed_input_exits_two(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"n\": 2}")
    result = invoke(runner, ["lhz", "graph", "--layout", str(bad)])
    assert result.exit_code == 2
    assert "parity" in result.stderr


def test_missing_file_exits_two(runner):
    result = invoke(runner, ["lhz", "graph", "--layout", "/nonexistent.json"])
    assert result.exit_code != 0
    assert result.exit_code in (1, 2)


def test_usage_error_exit_code(runner):
    result = invoke(runner, ["lhz", "build"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "command, layers, field",
    [
        (["sim", "parity"], [1], "'layers'"),
        (["sim", "mbqc"], [{"theta": [1, 2]}], "'theta'"),
        (["compare"], {"a": 1}, "'layers'"),
    ],
)
def test_malformed_program_shapes_exit_two(runner, tmp_path, command, layers, field):
    path = _write_program(runner, tmp_path, layers=layers)
    result = invoke(runner, [*command, "--program", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert field in result.stderr


PATH_GRAPH = {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]], "inputs": ["1", "3"], "outputs": ["1", "3"]}
PATH_FLOW = {"g": {"2": ["2"]}, "layers": [["2"], ["1", "3"]]}
VERIFY = ["gflow", "verify", "--graph", "graph.json", "--flow"]


@pytest.mark.parametrize(
    "command, document, field",
    [
        (["lhz", "graph", "--layout"], {**README_PROGRAM["layout"], "parity": [1]}, "'parity'"),
        (["lhz", "graph", "--layout"], {**README_PROGRAM["layout"], "parity": [{"label": "(12)", "set": 5}]}, "'set'"),
        (["lhz", "graph", "--layout"], {**README_PROGRAM["layout"], "constraints": [5]}, "'constraints'"),
        (["lhz", "graph", "--layout"], {**README_PROGRAM["layout"], "n": "x"}, "'n'"),
        (["gflow", "search", "--graph"], {**PATH_GRAPH, "edges": [1]}, "'edges'"),
        (["sim", "mbqc", "--program"], {**README_PROGRAM, "graph": {**PATH_GRAPH, "edges": 3}}, "'edges'"),
        (["sim", "parity", "--program"], {**README_PROGRAM, "input": [1, 2, 3, 4]}, "'input'"),
        (["sim", "parity", "--program"], {**README_PROGRAM, "input": [[0.6, 0.0], [0.8, 0.0]]}, "'input'"),
        (["sim", "parity", "--program"], {**README_PROGRAM, "layout": 5}, "layout JSON"),
        (["sim", "mbqc", "--program"], {**README_PROGRAM, "graph": 3}, "graph JSON"),
        (["compare", "--program"], [1], "program JSON"),
        (["gflow", "search", "--graph"], {"vertices": [["a"], "b"], "edges": []}, "'vertices'"),
        (["gflow", "search", "--graph"], {**PATH_GRAPH, "edges": [["1", ["2"]]]}, "'edges'"),
        (["lhz", "graph", "--layout"], {**README_PROGRAM["layout"], "parity": [{"label": ["x"], "set": ["1", "2"]}]}, "'label'"),
        (["lhz", "graph", "--layout"], {**README_PROGRAM["layout"], "parity": [{"label": "(12)", "set": [1, 2]}]}, "'set'"),
        (["lhz", "graph", "--layout"], {**README_PROGRAM["layout"], "constraints": [["1", "(12)"], [2, "(12)"]]}, "'constraints'"),
        (VERIFY, {**PATH_FLOW, "g": {"2": [["2"]]}}, "'g'"),
        (VERIFY, {**PATH_FLOW, "layers": [[["2"]], ["1", "3"]]}, "'layers'"),
        (VERIFY, {**PATH_FLOW, "planes": {"2": ["YZ"]}}, "'planes'"),
        (VERIFY, [], "flow JSON"),
        (VERIFY, {**PATH_FLOW, "g": {"2": 5}}, "'g'"),
        (VERIFY, {**PATH_FLOW, "layers": [5, ["1", "3"]]}, "'layers'"),
        (["sim", "parity", "--program"], {**README_PROGRAM, "layers": [{"theta": {"(12)": "x"}}]}, "'theta'"),
        (["sim", "parity", "--program"], {**README_PROGRAM, "layers": [{"theta": {"(12)": None}}]}, "'theta'"),
        (["sim", "parity", "--program"], {**README_PROGRAM, "layers": [{"theta": {"(12)": math.inf}}]}, "'theta'"),
        (["sim", "parity", "--program"], {**README_PROGRAM, "layers": [{"theta": {"(12)": math.nan}}]}, "'theta'"),
        (["compare", "--program"], {**README_PROGRAM, "layers": [{"alpha": {"1": math.inf}}]}, "'alpha'"),
        (["sim", "parity", "--program"], {**README_PROGRAM, "layers": [{"decode": 5}]}, "'decode'"),
        (["sim", "parity", "--program"], {**README_PROGRAM, "layers": [{"theta": {"(12)": True}}]}, "'theta'"),
        (["lhz", "graph", "--layout"], {**README_PROGRAM["layout"], "n": 2.7}, "'n'"),
        (["lhz", "graph", "--layout"], {**README_PROGRAM["layout"], "n": True}, "'n'"),
        (["lhz", "graph", "--layout"], {**README_PROGRAM["layout"], "n": 0}, "'n'"),
        (["lhz", "graph", "--layout"], {**README_PROGRAM["layout"], "n": -1}, "'n'"),
        (["sim", "parity", "--program"], {**README_PROGRAM, "input": [[10**400, 0.0]] + [[0.5, 0.0]] * 3}, "'input'"),
        (["sim", "parity", "--program"], {**README_PROGRAM, "input": [[True, False]] + [[0.5, 0.0]] * 3}, "'input'"),
        (["sim", "parity", "--program"], {**README_PROGRAM, "input": [[None, 0.0]] + [[0.5, 0.0]] * 3}, "'input'"),
        (["sim", "parity", "--program"], {**README_PROGRAM, "input": [["0.5", 0.0]] + [[0.5, 0.0]] * 3}, "'input'"),
        (["sim", "parity", "--program"], {**README_PROGRAM, "layers": [{"theta": {"(12)": 0.5}, "alfa": {"1": 0.4}}]}, "'alfa'"),
        (["sim", "parity", "--program"], {**README_PROGRAM, "imput": [[0.5, 0.0]] * 4}, "'imput'"),
        (["sim", "mbqc", "--program"], {**README_PROGRAM, "layers": [{"theta": {"(12)": 0.9}, "alpha": {"7": 0.4}, "phi": {"(12)": 1.0}}]}, "'alpha'"),
        # misspellings once dropped in silence: an all-YZ verdict, a search with I = O = {}
        (VERIFY, {**PATH_FLOW, "plane": {"2": "YZ"}}, "'plane'"),
        (["gflow", "search", "--graph"], {"vertices": ["a", "b"], "edges": [["a", "b"]], "input": ["a"], "output": ["a"]}, "'input'"),
        (["lhz", "graph", "--layout"], {**README_PROGRAM["layout"], "note": "all pairs"}, "'note'"),
        (["lhz", "graph", "--layout"], {**README_PROGRAM["layout"], "parity": [{"label": "(12)", "set": ["1", "2"], "weight": 1}]}, "'weight'"),
        (VERIFY, {"found": False}, "'g'"),
    ],
)
def test_malformed_json_field_is_named(runner, tmp_path, monkeypatch, command, document, field):
    (tmp_path / "graph.json").write_text(json.dumps(PATH_GRAPH))
    monkeypatch.chdir(tmp_path)  # VERIFY reads graph.json from the working directory
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    result = invoke(runner, [*command, str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert field in result.stderr


# an object where a list belongs once loaded as the list of its keys
@pytest.mark.parametrize(
    "command, document, field",
    [
        pytest.param(["lhz", "graph", "--layout"], {"n": 2, "parity": {}, "constraints": {}}, "'parity'", id="layout-parity"),
        pytest.param(
            ["lhz", "graph", "--layout"], {**README_PROGRAM["layout"], "constraints": {}}, "'constraints'", id="layout-constraints"
        ),
        pytest.param(["gflow", "search", "--graph"], {"vertices": ["a"], "edges": {}}, "'edges'", id="graph-edges"),
        pytest.param(VERIFY, {**PATH_FLOW, "layers": {}}, "'layers'", id="flow-layers"),
        pytest.param(["sim", "parity", "--program"], {**README_PROGRAM, "layers": {}}, "'layers'", id="program-layers"),
        # and a string as the list of its characters
        pytest.param(["sim", "parity", "--program"], {**README_PROGRAM, "input": {"ab": 1, "cd": 2}}, "'input'", id="program-input"),
        pytest.param(["sim", "mbqc", "--program"], {**README_PROGRAM, "input": "ab"}, "'input'", id="program-input-string"),
        pytest.param(
            ["compare", "--program"],
            {**README_PROGRAM, "input": [{"a": 1, "b": 2}] + [[0.5, 0.0]] * 3},
            "'input'",
            id="program-input-pair",
        ),
    ],
)
def test_object_for_a_list_exits_two(runner, tmp_path, monkeypatch, command, document, field):
    (tmp_path / "graph.json").write_text(json.dumps(PATH_GRAPH))
    monkeypatch.chdir(tmp_path)  # VERIFY reads graph.json from the working directory
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    result = invoke(runner, [*command, str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"field {field}: expected a list" in result.stderr


@pytest.mark.parametrize(
    "command",
    [
        ["lhz", "graph", "--layout"],
        ["stab", "check-equivalence", "--layout"],
        ["sim", "parity", "--program"],
        ["sim", "mbqc", "--program"],
        ["compare", "--program"],
    ],
)
def test_layout_n_with_too_many_idle_data_qubits_exits_two(runner, tmp_path, command):
    """The README layout's parity set names 2 data qubits, so n = 18 leaves
    16 idle, as many as a register holds, and n = 19 one more. An n of 2^70
    is refused by the same comparison, before any label is built; it runs
    only once the smaller n has been refused, so a lost bound fails the test
    instead of exhausting memory."""
    assert layout_from_json({**README_PROGRAM["layout"], "n": 18}).n == 18
    with pytest.raises(ValueError, match="field 'n'"):
        layout_from_json({**README_PROGRAM["layout"], "n": 19})
    path = tmp_path / "input.json"
    for n in (19, 2**70):
        layout = {**README_PROGRAM["layout"], "n": n}
        path.write_text(json.dumps(layout if command[0] in ("lhz", "stab") else {**README_PROGRAM, "layout": layout}))
        result = invoke(runner, [*command, str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "field 'n'" in result.stderr


def test_program_input_is_scaled_before_it_is_normalised(runner, tmp_path):
    """Amplitudes whose norm overflows or underflows a float load as the
    state their ratios give, with no numpy overflow warning."""
    path = tmp_path / "program.json"
    outputs = []
    for unit in (1.0, 1e308, 1e-320):
        path.write_text(json.dumps({**README_PROGRAM, "input": [[unit, 0.0], [unit, unit], [0.0, 0.0], [0.0, -unit]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = invoke(runner, ["sim", "parity", "--program", str(path)])
        assert result.exit_code == 0
        outputs.append(result.stdout)
    assert outputs[1] == outputs[2] == outputs[0]


def test_gflow_verify_with_g_list_exits_two(runner, tmp_path):
    graph_file = tmp_path / "graph.json"
    flow_file = tmp_path / "flow.json"
    graph = {"vertices": ["1", "2"], "edges": [["1", "2"]], "inputs": ["1"], "outputs": ["2"]}
    graph_file.write_text(json.dumps(graph))
    flow_file.write_text(json.dumps({"g": ["1"], "layers": [["1"], ["2"]]}))
    result = invoke(runner, ["gflow", "verify", "--graph", str(graph_file), "--flow", str(flow_file)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "'g'" in result.stderr


# explicit ids keep these cases' names stable for runs compared across versions
@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(["--io-samples", "-5"], "--io-samples", id="args0-env0---io-samples"),
        pytest.param(["--workers", "-3"], "--workers", id="args1-env1---workers"),
        pytest.param(["--workers", "0"], "--workers", id="args2-env2---workers"),
        pytest.param(["--seed", "-1"], "--seed", id="args3-env3---seed"),
    ],
)
def test_sweep_rejects_negative_samples_and_workers_below_one(runner, args, message):
    result = runner.invoke(main, ["sweep", "--max-n", "2", *args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert message in result.stderr
