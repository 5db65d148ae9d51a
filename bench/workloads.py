"""The three workloads: sweep7, branches and cli.

Each workload has these parts:
  generate(seed, root)  harness-side inputs from the seed (untimed)
  build(raw)            the program calls that make the inputs (timed as set-up)
  check_setup(w)        oracle checks and references for what build produced
  run_round(w, stats, tracer)
                        one whole round of operations; each program call is
                        timed on its own and its output checked against the
                        oracles, untimed
  selftest(w)           the oracles' self-tests, partly on this run's outputs
Program functions are always reached through their module, so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import oracles
import selftest

SWEEP_MAX_N = 7
SWEEP_IO_SAMPLES = 200


@dataclass
class Stats:
    """Operations, program time and per-call latencies of a measured pass."""

    rounds: int = 0
    failed: int = 0
    operations: dict[str, int] = field(default_factory=dict)  # per kind
    seconds: dict[str, float] = field(default_factory=dict)  # program time per kind
    latencies: dict[str, list[float]] = field(default_factory=dict)  # per call, per kind
    problems: list[str] = field(default_factory=list)  # the first 20 of problem_count
    problem_count: int = 0
    peak_rss_mb: float = 0.0  # high-water mark after the latest program call

    def record(self, kind: str, seconds: float, operations: int = 1) -> None:
        self.operations[kind] = self.operations.get(kind, 0) + operations
        self.seconds[kind] = self.seconds.get(kind, 0.0) + seconds
        self.latencies.setdefault(kind, []).append(seconds)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def problem(self, message: str) -> None:
        self.problem_count += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def attempted(self) -> int:
        return sum(self.operations.values())

    def rate(self, kinds=None) -> float:
        """Operations per second of program time, over the given kinds or all."""
        kinds = self.operations if kinds is None else [k for k in kinds if k in self.operations]
        seconds = sum(self.seconds[k] for k in kinds)
        return sum(self.operations[k] for k in kinds) / seconds if seconds else 0.0

    def all_latencies(self, kinds) -> list[float]:
        return [t for k in kinds for t in self.latencies.get(k, [])]


def clear_program_caches() -> None:
    """Empty every lru_cache in parityflow, as a fresh interpreter would have them."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("parityflow") or module is None:
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and getattr(value, "__module__", None) == name:
                value.cache_clear()


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def _pairs(n: int) -> list[tuple[str, tuple[str, str]]]:
    """All-pairs parity labels "(ij)" with their supports, in layout order."""
    return [(f"({i}{j})", (str(i), str(j))) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _branches(m: int) -> list[list[int]]:
    """Every +/-1 outcome list of length m, +1 first."""
    return [list(p) for p in itertools.product((1, -1), repeat=m)]


def _random_program(rng: np.random.Generator, n: int, layer_count: int) -> dict:
    """Angles for an all-pairs program on n data qubits, plus its input state."""
    data = [str(i) for i in range(1, n + 1)]
    layers = []
    for _ in range(layer_count):
        layers.append(
            {
                "theta": {label: float(rng.uniform(-math.pi, math.pi)) for label, _ in _pairs(n)},
                "alpha": {q: float(rng.uniform(-math.pi, math.pi)) for q in data},
                "phi": {q: float(rng.uniform(-math.pi, math.pi)) for q in data},
            }
        )
    return {"n": n, "data": data, "layers": layers, "psi": _random_state(rng, n)}


def _program_layers_for_oracle(program: dict) -> list:
    """(rotations, phi, alpha) per layer, each parity angle on its pair's support."""
    supports = dict(_pairs(program["n"]))
    return [
        ([(theta, supports[p]) for p, theta in layer["theta"].items()], layer["phi"], layer["alpha"])
        for layer in program["layers"]
    ]


def _program_reference(program: dict) -> np.ndarray:
    return oracles.logical_reference(program["data"], program["psi"], _program_layers_for_oracle(program))


def _check_state(stats: Stats, label: str, state, labels, reference: np.ndarray) -> None:
    if tuple(state.labels) != tuple(labels):
        stats.problem(f"{label}: output labels {state.labels} != {tuple(labels)}")
        return
    distance = oracles.phase_distance(np.asarray(state.amplitudes), reference)
    if not distance < oracles.STATE_TOL:
        stats.problem(f"{label}: output differs from the logical reference by {distance:.3e}")


# ---------------------------------------------------------------------------
# sweep7: the exhaustive n <= 7 flow <=> bipartite sweep, one call per round
# ---------------------------------------------------------------------------

class Sweep7:
    name = "sweep7"

    def generate(self, seed: int, root: str) -> dict:
        return {"seed": seed}

    def build(self, raw: dict) -> dict:
        return dict(raw)

    def check_setup(self, w: dict) -> list[str]:
        return []

    def run_round(self, w: dict, stats: Stats, tracer) -> None:
        from parityflow import gflow

        clear_program_caches()
        start = time.perf_counter()
        report = gflow.yz_bipartite_sweep(
            SWEEP_MAX_N, io_samples=SWEEP_IO_SAMPLES, seed=w["seed"], workers=1, keep_witnesses=True
        )
        elapsed = time.perf_counter() - start
        operations = sum(c["instances"] for c in report.per_n.values()) + report.io_mismatch_cases
        stats.record("sweep", elapsed, operations)
        for message in self._check(w, report):
            stats.problem(message)

    def _check(self, w: dict, report) -> list[str]:
        if "expected" not in w:  # after the first sweep, so networkx stays out of its peak memory
            w["expected"] = oracles.atlas_counts(SWEEP_MAX_N)
        problems = oracles.sweep_count_problems(report.per_n, w["expected"])
        problems += oracles.io_mismatch_problems(
            report.io_mismatch_cases, report.io_mismatch_flows_found, SWEEP_IO_SAMPLES
        )
        if report.discrepancies or report.witness_failures:
            problems.append("the sweep reports its own discrepancies")
        found = sum(c["flows_found"] for c in report.per_n.values())
        if len(report.witnesses) != found:
            problems.append(f"{len(report.witnesses)} witnesses kept for {found} flows found")
        for graph, flow in report.witnesses:
            if graph.inputs != graph.outputs or not oracles.bipartite_with_inputs(graph.edges, graph.inputs):
                problems.append(f"witness on a graph that is not bipartite with I: {sorted(graph.edges)}")
            reason = oracles.yz_flow_problem(
                graph.vertices, graph.edges, graph.inputs, graph.outputs, flow.g, flow.precedence, flow.layers
            )
            if reason:
                problems.append(f"witness rejected on {sorted(graph.edges)}, I={sorted(graph.inputs)}: {reason}")
            if len(problems) > 20:
                break
        w["sample_witness"] = next(
            ((g, f) for g, f in report.witnesses if len(f.g) >= 2 and f.precedence), None
        )
        return problems

    def selftest(self, w: dict) -> list[str]:
        failures = selftest.counts_selftest(w["expected"]) + selftest.io_mismatch_selftest()
        failures += selftest.verifier_selftest()
        if w.get("sample_witness") is None:
            return failures + ["no witness to self-test the verifier on"]
        graph, flow = w["sample_witness"]
        return failures + selftest.witness_selftest(
            graph.vertices, graph.edges, graph.inputs, graph.outputs, flow.g, flow.precedence, flow.layers
        )


# ---------------------------------------------------------------------------
# branches: every outcome branch through both engines
# ---------------------------------------------------------------------------

# (n, layers) of the criterion-3 style programs; up to 8 measurements run
# every branch, longer programs a fixed number of seeded outcome lists
LAYOUT_PROGRAMS = [(n, layers) for n in (2, 3, 4) for layers in (1, 2, 3)]
EXHAUSTIVE_MEASUREMENTS = 8
SAMPLED_BRANCHES = 16
WITNESS_MAX_N = 6
WITNESS_MAX_MEASURED = 4


class Branches:
    name = "branches"

    def generate(self, seed: int, root: str) -> dict:
        rng = np.random.default_rng([seed, 3])
        programs = []
        for n, layer_count in LAYOUT_PROGRAMS:
            program = _random_program(rng, n, layer_count)
            m = len(_pairs(n)) * layer_count
            if m <= EXHAUSTIVE_MEASUREMENTS:
                program["outcomes"] = _branches(m)
            else:
                program["outcomes"] = [
                    [int(o) for o in rng.choice((1, -1), size=m)] for _ in range(SAMPLED_BRANCHES)
                ]
            programs.append(program)
        return {"programs": programs, "witness_rng": np.random.default_rng([seed, 8])}

    def build(self, raw: dict) -> dict:
        from parityflow import gflow, graph, layout, parity_engine, simulator

        for program in raw["programs"]:
            lay = layout.build_all_pairs_layout(program["n"])
            induced = layout.induced_graph(lay)
            program["layout"] = lay
            program["graph"] = induced
            program["flow"] = gflow.canonical_yz_gflow(induced)
            program["state"] = simulator.Statevector(tuple(lay.data_qubits), program["psi"])
            program["params"] = [parity_engine.LayerParams(**layer) for layer in program["layers"]]
        witnesses = []
        for n in range(1, WITNESS_MAX_N + 1):
            for base in graph.enumerate_connected_graphs(n):
                for mask in range(1 << n):
                    inputs = frozenset(base.vertices[i] for i in range(n) if mask >> i & 1)
                    if n - len(inputs) > WITNESS_MAX_MEASURED:
                        continue
                    open_graph = graph.with_io(base, inputs, inputs)
                    witnesses.append((open_graph, gflow.search_gflow_yz(open_graph)))
        return {"programs": raw["programs"], "searched": witnesses, "witness_rng": raw["witness_rng"]}

    def check_setup(self, w: dict) -> list[str]:
        from parityflow import simulator

        problems = []
        for program in w["programs"]:
            if tuple(program["layout"].parity_qubits) != tuple(label for label, _ in _pairs(program["n"])):
                problems.append(f"n={program['n']}: unexpected parity labels {program['layout'].parity_qubits}")
            program["reference"] = _program_reference(program)
            program["label"] = f"n={program['n']} layers={len(program['layers'])}"
        rng = w["witness_rng"]
        cases = []
        for g, flow in w["searched"]:
            bipartite = oracles.bipartite_with_inputs(g.edges, g.inputs)
            if (flow is not None) != bipartite:
                problems.append(f"search says {flow is not None} on {sorted(g.edges)}, I={sorted(g.inputs)}")
                continue
            if flow is None:
                continue
            reason = oracles.yz_flow_problem(g.vertices, g.edges, g.inputs, g.outputs, flow.g, flow.precedence, flow.layers)
            if reason:
                problems.append(f"witness rejected: {reason}")
                continue
            labels = tuple(sorted(g.inputs))
            measured = sorted(flow.g)
            psi = _random_state(rng, len(labels))
            angles = {v: float(rng.uniform(-math.pi, math.pi)) for v in measured}
            rotations = [
                (angles[v], [u for e in g.edges if v in e for u in e if u != v]) for v in measured
            ]
            orders = [None]
            if len(measured) >= 2:
                orders.append([v for layer in flow.layers for v in sorted(layer & set(measured), reverse=True)])
            cases.append(
                {
                    "graph": g,
                    "flow": flow,
                    "label": f"witness {sorted(g.edges)} I={list(labels)}",
                    "labels": labels,
                    "psi": psi,
                    "state": simulator.Statevector(labels, psi),
                    "angles": angles,
                    "orders": orders,
                    "outcomes": _branches(len(measured)),
                    "oracle_layers": [(rotations, {}, {})],
                    "reference": oracles.logical_reference(labels, psi, [(rotations, {}, {})]),
                }
            )
        w["cases"] = cases
        return problems

    def run_round(self, w: dict, stats: Stats, tracer) -> None:
        from parityflow import mbqc_engine, parity_engine

        for program in w["programs"]:
            for outcomes in program["outcomes"]:
                start = time.perf_counter()
                out, _ = parity_engine.run_computation(program["layout"], program["state"], program["params"], list(outcomes))
                stats.record("parity", time.perf_counter() - start)
                _check_state(stats, f"parity {program['label']}", out, program["data"], program["reference"])
                start = time.perf_counter()
                out, _ = mbqc_engine.run_repeated_mbqc(
                    program["graph"], program["state"], program["params"], program["flow"], list(outcomes)
                )
                stats.record("mbqc", time.perf_counter() - start)
                _check_state(stats, f"mbqc {program['label']}", out, program["data"], program["reference"])
                program.setdefault("sample_output", out)
        for case in w["cases"]:
            for order in case["orders"]:
                for outcomes in case["outcomes"]:
                    start = time.perf_counter()
                    out, _ = mbqc_engine.run_mbqc_yz(
                        case["graph"], case["state"], case["angles"], case["flow"], list(outcomes), order=order
                    )
                    stats.record("mbqc", time.perf_counter() - start)
                    _check_state(stats, case["label"], out, case["labels"], case["reference"])
                    case.setdefault("sample_output", out)

    def selftest(self, w: dict) -> list[str]:
        failures = selftest.hand_reference_selftest() + selftest.verifier_selftest()
        program = w["programs"][-1]
        failures += selftest.reference_selftest(
            program["data"], program["psi"], _program_layers_for_oracle(program),
            np.asarray(program["sample_output"].amplitudes),
        )
        case = max(w["cases"], key=lambda c: len(c["angles"]))
        failures += selftest.reference_selftest(
            case["labels"], case["psi"], case["oracle_layers"], np.asarray(case["sample_output"].amplitudes)
        )
        g, flow = case["graph"], case["flow"]
        failures += selftest.witness_selftest(g.vertices, g.edges, g.inputs, g.outputs, flow.g, flow.precedence, flow.layers)
        return failures


# ---------------------------------------------------------------------------
# cli: a fixed mix of commands through click's in-process runner
# ---------------------------------------------------------------------------

CLI_KINDS = ("lhz_build", "lhz_graph", "stab_check", "sim_parity", "sim_mbqc", "compare", "gflow_search", "gflow_verify")
CLI_LAYOUT_NS = range(2, 11)
CLI_DOT_NS = range(2, 7)
CLI_PROGRAMS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]
CLI_SAMPLES = 8
CLI_SEARCH_GRAPHS = 10  # of each kind: bipartite with I, and not
CLI_GRAPH_N = 7
NON_FINITE = re.compile(r"\b(nan|inf|NaN|Infinity)\b")

# Two programs the CLI is known to mishandle; correct handling is exit 2
# with only finite numbers on stdout. Neither depends on the seed.
ZERO_INPUT_PROGRAM = {
    "layout": {"n": 2, "parity": [{"label": "(12)", "set": ["1", "2"]}], "constraints": [["1", "(12)"], ["2", "(12)"]]},
    "layers": [{"theta": {"(12)": 0.7}, "alpha": {}, "phi": {"1": 0.25}}],
    "input": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
}
UNREALISED_LAYOUT_PROGRAM = {
    # the CNOT list never feeds data qubit 2 into (12)
    "layout": {"n": 2, "parity": [{"label": "(12)", "set": ["1", "2"]}], "constraints": [["1", "(12)"]]},
    "layers": [{"theta": {"(12)": 1.1}, "alpha": {"2": 0.4}, "phi": {"1": 0.25}}],
    "input": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]],
}


def _connected(vertices, edges) -> bool:
    adjacency = {v: set() for v in vertices}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    seen, stack = {vertices[0]}, [vertices[0]]
    while stack:
        for u in adjacency[stack.pop()] - seen:
            seen.add(u)
            stack.append(u)
    return len(seen) == len(vertices)


def _random_open_graph(rng: np.random.Generator, bipartite: bool) -> dict:
    """A connected 7-vertex graph with I = O, bipartite with I one side or not."""
    vertices = [str(i) for i in range(1, CLI_GRAPH_N + 1)]
    while True:
        size = int(rng.integers(2, 6)) if bipartite else int(rng.integers(1, 6))
        inputs = {str(v) for v in rng.choice(vertices, size=size, replace=False)}
        edges = []
        for u, v in itertools.combinations(vertices, 2):
            crossing = (u in inputs) != (v in inputs)
            p = 0.5 if crossing else (0.3 if u in inputs else (0.0 if bipartite else 0.25))
            if rng.random() < p:
                edges.append((u, v))
        if _connected(vertices, edges) and oracles.bipartite_with_inputs(edges, frozenset(inputs)) == bipartite:
            ordered = sorted(inputs, key=int)
            return {"vertices": vertices, "edges": [list(e) for e in edges], "inputs": ordered, "outputs": ordered}


def _expected_layout(n: int) -> dict:
    return {
        "n": n,
        "parity": [{"label": label, "set": list(support)} for label, support in _pairs(n)],
        "constraints": [[q, label] for label, support in _pairs(n) for q in support],
    }


def _expected_generators(n: int) -> list[str]:
    labels = [str(i) for i in range(1, n + 1)] + [label for label, _ in _pairs(n)]
    out = []
    for label, support in _pairs(n):
        members = set(support) | {label}
        out.append("+" + " ".join(f"Z_{q}" for q in labels if q in members))
    return sorted(out)


class Cli:
    name = "cli"

    def generate(self, seed: int, root: str) -> dict:
        rng = np.random.default_rng([seed, 11])
        programs = [_random_program(rng, n, layers) for n, layers in CLI_PROGRAMS]
        graphs = [_random_open_graph(rng, True) for _ in range(CLI_SEARCH_GRAPHS)]
        graphs += [_random_open_graph(rng, False) for _ in range(CLI_SEARCH_GRAPHS)]
        sample_seeds = [int(s) for s in rng.integers(0, 2**31, size=len(programs))]
        base = os.path.join(root, ".bench_out")
        os.makedirs(base, exist_ok=True)
        workdir = os.path.join(base, f"cli-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        return {"programs": programs, "graphs": graphs, "sample_seeds": sample_seeds, "dir": workdir}

    def build(self, raw: dict) -> dict:
        """Layout and program files from the library, graph and flow files as JSON."""
        from parityflow import layout, parity_engine

        d = raw["dir"]

        def write(name: str, value: dict) -> str:
            path = os.path.join(d, name)
            with open(path, "w") as handle:
                json.dump(value, handle)
            return path

        layout_files = {}
        for n in CLI_LAYOUT_NS:
            layout_files[n] = write(f"layout{n}.json", layout.layout_to_json(layout.build_all_pairs_layout(n)))
        program_files = []
        for k, program in enumerate(raw["programs"]):
            params = [parity_engine.LayerParams(**layer) for layer in program["layers"]]
            body = {
                "layout": layout.layout_to_json(layout.build_all_pairs_layout(program["n"])),
                "layers": parity_engine.layers_to_json(params),
                "input": [[float(a.real), float(a.imag)] for a in program["psi"]],
            }
            program_files.append(write(f"program{k}.json", body))
        graph_files = [write(f"graph{k}.json", g) for k, g in enumerate(raw["graphs"])]
        flow_files = []
        for k, g in enumerate(raw["graphs"][:CLI_SEARCH_GRAPHS]):
            measured = [v for v in g["vertices"] if v not in g["inputs"]]
            canonical = {"g": {v: [v] for v in measured}, "layers": [measured, g["inputs"]]}
            flipped = {"g": canonical["g"], "layers": [g["inputs"], measured]}
            flow_files.append((k, write(f"flow{k}.json", canonical), True))
            flow_files.append((k, write(f"badflow{k}.json", flipped), False))
        zero = write("fault_zero_input.json", ZERO_INPUT_PROGRAM)
        unrealised = write("fault_unrealised_layout.json", UNREALISED_LAYOUT_PROGRAM)
        return dict(
            raw, layout_files=layout_files, program_files=program_files, graph_files=graph_files,
            flow_files=flow_files, fault_files=(zero, unrealised),
        )

    def check_setup(self, w: dict) -> list[str]:
        from click.testing import CliRunner

        w["runner"] = CliRunner()
        for program in w["programs"]:
            program["reference"] = _program_reference(program)
            program["measurements"] = len(_pairs(program["n"])) * len(program["layers"])
        w["commands"] = self._commands(w)
        return []

    def _commands(self, w: dict) -> list[tuple]:
        """(kind, argv, expected exit code, check) for one round of the mix."""
        cmds = []
        for n in CLI_LAYOUT_NS:
            cmds.append(("lhz_build", ["lhz", "build", "--n", str(n)], 0, ("layout", n)))
        for n in CLI_LAYOUT_NS:
            cmds.append(("lhz_graph", ["lhz", "graph", "--layout", w["layout_files"][n]], 0, ("graph", n)))
        for n in CLI_DOT_NS:
            cmds.append(("lhz_graph", ["lhz", "graph", "--layout", w["layout_files"][n], "--format", "dot"], 0, ("dot", n)))
        for n in CLI_LAYOUT_NS:
            cmds.append(("stab_check", ["stab", "check-equivalence", "--layout", w["layout_files"][n]], 0, ("stab", n)))
        for k, path in enumerate(w["program_files"]):
            m = w["programs"][k]["measurements"]
            seed = str(w["sample_seeds"][k])
            for engine in ("parity", "mbqc"):
                cmds.append((f"sim_{engine}", ["sim", engine, "--program", path, "--branches", "all"], 0, ("sim", k, 2**m)))
                cmds.append(
                    (f"sim_{engine}", ["sim", engine, "--program", path, "--samples", str(CLI_SAMPLES), "--seed", seed],
                     0, ("sim", k, CLI_SAMPLES))
                )
            cmds.append(("compare", ["compare", "--program", path, "--seed", seed], 0, ("compare",)))
        for k, path in enumerate(w["graph_files"]):
            cmds.append(("gflow_search", ["gflow", "search", "--graph", path], 0, ("search", k)))
        for k, path, valid in w["flow_files"]:
            cmds.append(
                ("gflow_verify", ["gflow", "verify", "--graph", w["graph_files"][k], "--flow", path], 0 if valid else 1,
                 ("verify", k, path))
            )
        zero, unrealised = w["fault_files"]
        cmds.append(("sim_parity", ["sim", "parity", "--program", zero], 2, ("fault",)))
        cmds.append(("compare", ["compare", "--program", unrealised], 2, ("fault",)))
        return cmds

    def run_round(self, w: dict, stats: Stats, tracer) -> None:
        from parityflow import cli

        runner = w["runner"]
        for kind, argv, exit_code, check in w["commands"]:
            if tracer is not None:
                tracer.enter(f"cli.{kind}")
            start = time.perf_counter()
            try:
                result = runner.invoke(cli.main, argv)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.leave()
            stats.record(kind, elapsed)
            crashed = result.exception is not None and not isinstance(result.exception, SystemExit)
            if crashed or result.exit_code != exit_code or NON_FINITE.search(result.stdout):
                stats.failed += 1
                if check[0] != "fault":
                    stats.problem(f"{' '.join(argv)}: exit {result.exit_code}, {result.exception!r}")
                continue
            if check[0] == "fault":
                continue
            for message in self._check(w, check, result.stdout):
                stats.problem(f"{' '.join(argv)}: {message}")

    def _check(self, w: dict, check: tuple, stdout: str) -> list[str]:
        kind = check[0]
        if kind == "dot":
            n = check[1]
            lines = set(stdout.splitlines())
            want = {f'  "{q}" -- "{label}";' for label, support in _pairs(n) for q in support}
            want |= {f'  "{q}" [shape=box];' for q in map(str, range(1, n + 1))}
            want |= {f'  "{label}" [shape=circle];' for label, _ in _pairs(n)}
            return [] if want <= lines and len(lines) == len(want) + 2 else ["dot output differs"]
        data = json.loads(stdout)
        if kind == "layout":
            return [] if data == _expected_layout(check[1]) else ["layout differs"]
        if kind == "graph":
            n = check[1]
            data_qubits = [str(i) for i in range(1, n + 1)]
            edges = {(q, label) for label, support in _pairs(n) for q in support}
            ok = (
                data["vertices"] == data_qubits + [label for label, _ in _pairs(n)]
                and {tuple(e) for e in data["edges"]} == edges and len(data["edges"]) == len(edges)
                and data["inputs"] == data_qubits and data["outputs"] == data_qubits
            )
            return [] if ok else ["induced graph differs"]
        if kind == "stab":
            want = _expected_generators(check[1])
            ok = (
                data["equal"] is True
                and sorted(data["parity_generators"]) == want
                and sorted(data["conjugated_graph_generators"]) == want
            )
            return [] if ok else ["stabilizer generators differ"]
        if kind == "sim":
            program = w["programs"][check[1]]
            problems = []
            if data["qubits"] != program["data"]:
                problems.append(f"qubits {data['qubits']}")
            if data["branches_run"] != check[2]:
                problems.append(f"{data['branches_run']} branches run, expected {check[2]}")
            amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
            distance = oracles.phase_distance(amps, program["reference"])
            if not distance < oracles.STATE_TOL:
                problems.append(f"output differs from the logical reference by {distance:.3e}")
            return problems
        if kind == "compare":
            return [] if data["agree"] is True and data["distance"] < oracles.STATE_TOL else ["engines disagree"]
        if kind == "search":
            g = w["graphs"][check[1]]
            bipartite = oracles.bipartite_with_inputs([tuple(e) for e in g["edges"]], frozenset(g["inputs"]))
            if data["found"] != bipartite:
                return [f"found={data['found']}, bipartite={bipartite}"]
            if not bipartite:
                return []
            reason = oracles.yz_flow_problem(
                g["vertices"], [tuple(e) for e in g["edges"]], g["inputs"], g["outputs"],
                data["g"], oracles.layer_precedence(data["layers"]), data["layers"],
            )
            return [f"witness rejected: {reason}"] if reason else []
        if kind == "verify":
            g = w["graphs"][check[1]]
            with open(check[2]) as handle:
                flow = json.load(handle)
            reason = oracles.yz_flow_problem(
                g["vertices"], [tuple(e) for e in g["edges"]], g["inputs"], g["outputs"],
                flow["g"], oracles.layer_precedence(flow["layers"]), flow["layers"],
            )
            if data["valid"] != (reason is None) or data["valid"] != (not data["violations"]):
                return [f"valid={data['valid']}, oracle says {reason or 'valid'}"]
            return []
        return [f"unknown check {kind}"]

    def selftest(self, w: dict) -> list[str]:
        failures = selftest.hand_reference_selftest() + selftest.verifier_selftest()
        from click.testing import CliRunner
        from parityflow import cli

        program = w["programs"][-1]
        result = CliRunner().invoke(cli.main, ["sim", "parity", "--program", w["program_files"][-1], "--samples", "1"])
        data = json.loads(result.stdout)
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        return failures + selftest.reference_selftest(
            program["data"], program["psi"], _program_layers_for_oracle(program), amps
        )

    def cleanup(self, w: dict) -> None:
        shutil.rmtree(w["dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sweep7(), Branches(), Cli())}
