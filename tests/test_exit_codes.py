"""The exit-code contract as a property: valid programs, layouts, graphs and
flows, each mutated in one place (a value replaced, a key renamed or an
unknown key added), run through every command that reads them. Each run
exits 0 or 2, raises nothing but SystemExit, and prints either nothing or
JSON whose numbers are all finite. A key added or renamed is never
dropped in silence: every command exits 2 on it."""

import json
import math

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from parityflow.cli import main

LAYOUT = {
    "n": 3,
    "parity": [{"label": "(12)", "set": ["1", "2"]}, {"label": "(13)", "set": ["1", "3"]}],
    "constraints": [["1", "(12)"], ["2", "(12)"], ["(12)", "(13)"], ["2", "(13)"], ["3", "(13)"]],
}
PROGRAMS = [
    {
        "layout": LAYOUT,
        "layers": [
            {"theta": {"(12)": 1.1, "(13)": -0.8}, "alpha": {"3": 0.5}, "phi": {"1": -0.9}, "decode": "all"},
        ],
        "input": [[0.1, 0.2], [0.3, -0.1], [0.0, 0.4], [-0.2, 0.2], [0.5, 0.1], [0.1, 0.1], [-0.3, 0.0], [0.2, -0.4]],
    },
    {
        "layout": {"n": 2, "parity": [{"label": "(12)", "set": ["1", "2"]}], "constraints": [["1", "(12)"], ["2", "(12)"]]},
        "layers": [{"theta": {"(12)": 0.9}, "decode": "all"}, {"theta": {"(12)": -0.3}, "phi": {"2": 0.7}}],
        "graph": {"vertices": ["1", "2", "(12)"], "edges": [["1", "(12)"], ["2", "(12)"]], "inputs": ["1", "2"], "outputs": ["1", "2"]},
    },
]
GRAPH = {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]], "inputs": ["1", "3"], "outputs": ["1", "3"]}
# `gflow search` output on GRAPH
FLOW = {"found": True, "g": {"2": ["2"]}, "layers": [["2"], ["1", "3"]], "planes": {"2": "YZ"}}

PROGRAM_RUNS = [
    [*command, "--program", "program.json"]
    for command in (
        ["sim", "parity"],
        ["sim", "parity", "--branches", "all"],
        ["sim", "mbqc"],
        ["sim", "mbqc", "--branches", "all"],
        ["compare"],
    )
]
LAYOUT_RUNS = [[*command, "--layout", "layout.json"] for command in (["lhz", "graph"], ["stab", "check-equivalence"])]
SEARCH = ["gflow", "search", "--graph", "graph.json"]
VERIFY = ["gflow", "verify", "--graph", "graph.json", "--flow", "flow.json"]

REPLACEMENTS = ["wrong type", None, True, 2**70, 1e308, "zz"]
# an "n" of 2^70 is refused before any label is built; were that bound
# lost, the run would exhaust memory, so "n" takes a value cheap to build
CHEAP_N = 10**6


def _paths(value, path=()):
    """Every place in a JSON document, the document itself first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _dict_paths(document):
    return [path for path in _paths(document) if isinstance(_at(document, path), dict)]


def _at(document, path):
    for key in path:
        document = document[key]
    return document


@st.composite
def mutants(draw, document):
    """`document`, copied, with one value replaced, one key renamed or one
    unknown key added, and whether a key was added or renamed."""
    document = json.loads(json.dumps(document))
    kind = draw(st.sampled_from(["replace", "rename", "add"]))
    if kind == "replace":
        path = draw(st.sampled_from(list(_paths(document))))
        old = _at(document, path)
        new = draw(st.sampled_from(REPLACEMENTS))
        if new == "wrong type":
            new = {"value": old} if isinstance(old, list) else [old]
        elif new == 2**70 and path[-1:] == ("n",):
            new = CHEAP_N
        if not path:
            return new, False
        _at(document, path[:-1])[path[-1]] = new
        return document, False
    target = _at(document, draw(st.sampled_from(_dict_paths(document))))
    if kind == "add":
        target["extra"] = 1
        return document, True
    if not target:
        return document, False
    key = draw(st.sampled_from(sorted(target)))
    renamed = draw(st.sampled_from([key[:-1], key + "s", key.upper()]))
    target[renamed] = target.pop(key)
    return document, renamed != key


def _finite(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(map(_finite, value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    return True


def _refuse_constant(name):
    raise ValueError(f"non-finite constant {name}")


def _run(tmp_path_factory, files, commands, codes):
    """Write `files`, run each command on them in their directory, and
    check its exit code is in `codes` and its stdout empty or finite JSON."""
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path_factory.getbasetemp()):
        for name, document in files.items():
            with open(name, "w") as handle:
                json.dump(document, handle)
        for args in commands:
            result = runner.invoke(main, args)
            assert result.exit_code in codes, (args, result.exit_code, result.stderr)
            assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.exception)
            if result.stdout:
                assert _finite(json.loads(result.stdout, parse_constant=_refuse_constant)), (args, result.stdout)


def _codes(refused):
    return (2,) if refused else (0, 2)


CONTRACT = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@CONTRACT
@given(st.sampled_from(PROGRAMS).flatmap(mutants))
def test_mutated_programs_exit_zero_or_two(tmp_path_factory, mutant):
    program, refused = mutant
    _run(tmp_path_factory, {"program.json": program}, PROGRAM_RUNS, _codes(refused))


@CONTRACT
@given(mutants(LAYOUT))
def test_mutated_layouts_exit_zero_or_two(tmp_path_factory, mutant):
    layout, refused = mutant
    _run(tmp_path_factory, {"layout.json": layout}, LAYOUT_RUNS, _codes(refused))


@CONTRACT
@given(mutants(GRAPH))
def test_mutated_graphs_exit_zero_or_two(tmp_path_factory, mutant):
    graph, refused = mutant
    _run(tmp_path_factory, {"graph.json": graph, "flow.json": FLOW}, [SEARCH, VERIFY], _codes(refused))


@CONTRACT
@given(mutants(FLOW))
def test_mutated_flows_exit_zero_or_two(tmp_path_factory, mutant):
    flow, refused = mutant
    _run(tmp_path_factory, {"graph.json": GRAPH, "flow.json": flow}, [VERIFY], _codes(refused))


def test_unmutated_documents_exit_zero(tmp_path_factory):
    """The documents the mutants start from are valid: every command accepts them."""
    for program in PROGRAMS:
        files = {"program.json": program, "layout.json": LAYOUT, "graph.json": GRAPH, "flow.json": FLOW}
        _run(tmp_path_factory, files, [*PROGRAM_RUNS, *LAYOUT_RUNS, SEARCH, VERIFY], (0,))
