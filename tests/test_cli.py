"""Command-line interface: output schemas, determinism, exit codes."""

import json
import math

import pytest
from click.testing import CliRunner

from parityflow.cli import _canonical_json, main


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


def test_stab_check_equivalence(runner, tmp_path):
    layout_file = tmp_path / "layout.json"
    layout_file.write_text(invoke(runner, ["lhz", "build", "--n", "3"]).stdout)
    result = invoke(runner, ["stab", "check-equivalence", "--layout", str(layout_file)])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["equal"] is True


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


def test_compare_rejects_partial_decode(runner, tmp_path):
    path = _write_program(
        runner, tmp_path, layers=[{"theta": {"(12)": 0.5}, "decode": ["(12)"]}, {}]
    )
    result = invoke(runner, ["compare", "--program", str(path)])
    assert result.exit_code == 2
    assert "decode" in result.stderr


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


def test_sweep_small(runner):
    result = invoke(runner, ["sweep", "--max-n", "3", "--io-samples", "10", "--workers", "1"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["ok"] is True
    assert data["per_n"]["3"]["graphs"] == 2
    assert data["discrepancies"] == []


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
