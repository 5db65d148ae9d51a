"""Command-line front end: layouts, stabilizer checks, simulations, sweeps.

Machine-readable JSON goes to stdout with sorted keys and 17-significant-
digit floats, each with a point or an exponent so that it parses back as a
float, so identical invocations are byte-identical; human summaries
go to stderr. Exit codes: 0 success or agreement, 1 verified disagreement,
2 usage or input errors.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import click
import numpy as np

from parityflow import gflow as gflow_mod
from parityflow import graph as graph_mod
from parityflow import layout as layout_mod
from parityflow import mbqc_engine, parity_engine, pauli, simulator


def _dump(value) -> None:
    sys.stdout.write(_canonical_json(value))
    sys.stdout.write("\n")


def _canonical_json(value) -> str:
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: kv[0])
        return "{" + ", ".join(f"{json.dumps(k)}: {_canonical_json(v)}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_canonical_json(v) for v in value) + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite number {value!r}")
        text = format(value, ".17g")
        # "0" or "1" would parse back as a JSON int
        return text if "." in text or "e" in text else text + ".0"
    if isinstance(value, (int, str)):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _guard(fn):
    """Input and usage failures exit 2 with a diagnostic on stderr."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, KeyError, TypeError) as exc:
            click.echo(f"error: {exc}", file=sys.stderr)
            sys.exit(2)

    return wrapper


def _tolerance(ctx, param, value: float) -> float:
    """A tolerance must be a finite number >= 0: no distance exceeds NaN."""
    if not 0.0 <= value < math.inf:
        raise click.BadParameter(f"{value} is not a finite number >= 0")
    return value


@click.group()
def main() -> None:
    """Parity computing, YZ-plane measurement-based computing, gflow tooling."""


@main.group()
def lhz() -> None:
    """Parity layout construction and inspection."""


@lhz.command("build")
@click.option("--n", type=int, required=True, help="Number of data qubits.")
@_guard
def lhz_build(n: int) -> None:
    layout = layout_mod.build_all_pairs_layout(n)
    _dump(layout_mod.layout_to_json(layout))
    click.echo(f"layout with {len(layout.qubits)} qubits ({len(layout.parity_qubits)} parity)", file=sys.stderr)


@lhz.command("graph")
@click.option("--layout", "layout_path", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]), default="json")
@_guard
def lhz_graph(layout_path: str, fmt: str) -> None:
    layout = layout_mod.layout_from_json(_load_json(layout_path))
    g = layout_mod.induced_graph(layout)
    if fmt == "dot":
        sys.stdout.write(graph_mod.graph_to_dot(g))
    else:
        _dump(graph_mod.graph_to_json(g))
    click.echo(f"graph with {len(g.vertices)} vertices, {len(g.edges)} edges", file=sys.stderr)


@main.group()
def stab() -> None:
    """Stabilizer-group computations."""


@stab.command("check-equivalence")
@click.option("--layout", "layout_path", required=True, type=click.Path())
@_guard
def stab_check(layout_path: str) -> None:
    """Parity generators against Hadamard-conjugated graph-code generators."""
    layout = layout_mod.layout_from_json(_load_json(layout_path))
    parity_group = pauli.parity_generators(layout)
    graph_group = pauli.graph_generators(layout_mod.induced_graph(layout))
    conjugated = pauli.hadamard_conjugate(graph_group, layout.parity_qubits)
    equal = pauli.groups_equal(parity_group, conjugated)
    _dump(
        {
            "equal": equal,
            "parity_generators": pauli.group_to_json(parity_group)["generators"],
            "conjugated_graph_generators": pauli.group_to_json(conjugated)["generators"],
        }
    )
    click.echo("stabilizer groups equal" if equal else "stabilizer groups DIFFER", file=sys.stderr)
    if not equal:
        sys.exit(1)


def _load_program(data: dict):
    graph_mod.json_object(data, "program", ("layout", "layers"), ("input", "graph"))
    layout = layout_mod.layout_from_json(data["layout"])
    layers = parity_engine.layers_from_json(data["layers"])
    graph = graph_mod.graph_from_json(data["graph"]) if "graph" in data else None
    if "input" in data:
        with graph_mod.json_field("input"):
            parts = np.array([[graph_mod.json_number(re), graph_mod.json_number(im)] for re, im in data["input"]])
            if parts.shape != (1 << layout.n, 2):
                raise ValueError(f"expected {1 << layout.n} amplitudes, got {len(parts)}")
            scale = np.abs(parts).max()
            if not scale:
                raise ValueError("every amplitude is zero")
        parts /= scale  # a largest part of 1: the norm can neither overflow nor underflow
        amps = parts[:, 0] + 1j * parts[:, 1]
        psi = simulator.Statevector(tuple(layout.data_qubits), amps / np.linalg.norm(amps))
    else:
        psi = simulator.basis_state(layout.data_qubits, "0" * layout.n)
    return layout, layers, psi, graph


def _mbqc_side(graph, layout, psi):
    """The graph a program's measurement-based run measures, with its
    canonical flow: the program's `"graph"`, whose inputs must carry the
    data register's labels, or else (`None`) the graph the layout induces."""
    if graph is None:
        graph = layout_mod.induced_graph(layout)
    elif graph.inputs != frozenset(psi.labels):
        raise ValueError("field 'graph': inputs must match the program's data qubits")
    return graph, gflow_mod.canonical_yz_gflow(graph)


def _draw_outcomes(rng, count: int) -> list[int]:
    """`count` outcomes drawn from the numpy generator rng, each +1 or -1
    with probability 1/2: the Born distribution of a run whose every
    outcome branch is equally likely."""
    return [1 if rng.random() < 0.5 else -1 for _ in range(count)]


def _sampled_outputs(run, count: int, samples: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    outputs = []
    for _ in range(samples):
        try:
            outputs.append(run(_draw_outcomes(rng, count)))
        except simulator.ZeroProbabilityError:
            continue  # branch unreachable for this input state
    return outputs


def _sim_command(engine: str, program: str, branches: str, samples: int, seed: int, tol: float) -> None:
    layout, layers, psi, graph = _load_program(_load_json(program))
    if engine == "mbqc":
        graph, flow = _mbqc_side(graph, layout, psi)
        count = len(flow.g) * len(layers)

        def run(outcomes):
            return mbqc_engine.run_repeated_mbqc(graph, psi, layers, flow, outcomes)

        def run_all():
            return mbqc_engine.run_all_branches(graph, psi, layers, flow)
    else:
        count = parity_engine.measurement_count(layout, layers)

        def run(outcomes):
            return parity_engine.run_computation(layout, psi, layers, outcomes)

        def run_all():
            return parity_engine.run_all_branches(layout, psi, layers)

    if branches == "all":
        result = run_all()
        rows = np.flatnonzero(result.reachable)
        outputs = result.amplitudes[rows]
        first = [(result.state(int(row)), result.records(int(row))) for row in rows[:1]]
    else:
        runs = _sampled_outputs(run, count, samples, seed)
        outputs = np.array([state.amplitudes for state, _ in runs])
        first = runs[:1]
    if not first:
        raise ValueError("no reachable outcome branch")
    reference, records = first[0]
    max_distance = float(simulator.distances_up_to_phase(outputs, reference.amplitudes).max())
    _dump(
        {
            "engine": engine,
            "qubits": list(reference.labels),
            "amplitudes": simulator.amplitudes_to_json(reference),
            "record": [simulator.record_to_json(r) for r in records],
            "branches_run": len(outputs),
            "max_branch_distance": max_distance,
        }
    )
    click.echo(f"{engine}: {len(outputs)} branch(es), max distance {max_distance:.3e}", file=sys.stderr)
    if max_distance > tol:
        sys.exit(1)


@main.group()
def sim() -> None:
    """Run programs on one engine and check branch independence."""


def _sim_subcommand(engine: str):
    @sim.command(engine)
    @click.option("--program", required=True, type=click.Path())
    @click.option("--branches", type=click.Choice(["all", "sample"]), default="sample")
    @click.option("--samples", type=click.IntRange(min=1), default=8, show_default=True)
    @click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
    @click.option("--tol", type=float, default=1e-12, show_default=True, callback=_tolerance)
    @_guard
    def command(program: str, branches: str, samples: int, seed: int, tol: float) -> None:
        _sim_command(engine, program, branches, samples, seed, tol)

    return command


sim_parity = _sim_subcommand("parity")
sim_mbqc = _sim_subcommand("mbqc")


@main.command("compare")
@click.option("--program", required=True, type=click.Path())
@click.option("--tol", type=float, default=1e-10, show_default=True, callback=_tolerance)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@_guard
def compare(program: str, tol: float, seed: int) -> None:
    """Run both engines on one program and report the output distance."""
    layout, layers, psi, graph = _load_program(_load_json(program))
    graph, flow = _mbqc_side(graph, layout, psi)
    parity_outcomes = _draw_outcomes(np.random.default_rng(seed), parity_engine.measurement_count(layout, layers))
    parity_out, _ = parity_engine.run_computation(layout, psi, layers, parity_outcomes)
    mbqc_outcomes = _draw_outcomes(np.random.default_rng(seed + 1), len(flow.g) * len(layers))
    mbqc_out, _ = mbqc_engine.run_repeated_mbqc(graph, psi, layers, flow, mbqc_outcomes)
    distance = simulator.distance_up_to_phase(parity_out, mbqc_out)
    agree = distance < tol
    _dump({"distance": distance, "tolerance": tol, "agree": agree})
    click.echo(f"engines {'agree' if agree else 'DISAGREE'}: distance {distance:.3e}", file=sys.stderr)
    if not agree:
        sys.exit(1)


@main.group("gflow")
def gflow_group() -> None:
    """Verify and search flows on open graphs."""


@gflow_group.command("verify")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--flow", "flow_path", required=True, type=click.Path())
@_guard
def gflow_verify(graph_path: str, flow_path: str) -> None:
    g = graph_mod.graph_from_json(_load_json(graph_path))
    flow, planes = gflow_mod.flow_from_json(_load_json(flow_path))
    if planes is None:
        planes = gflow_mod.yz_planes(g)
    result = gflow_mod.verify_gflow(g, planes, flow)
    _dump(
        {
            "valid": result.ok,
            "violations": [
                {"vertex": v.vertex, "condition": v.condition, "message": v.message}
                for v in result.violations
            ],
        }
    )
    click.echo("flow valid" if result.ok else "flow INVALID", file=sys.stderr)
    if not result.ok:
        sys.exit(1)


@gflow_group.command("search")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@_guard
def gflow_search(graph_path: str) -> None:
    g = graph_mod.graph_from_json(_load_json(graph_path))
    flow = gflow_mod.search_gflow_yz(g)
    if flow is None:
        _dump({"found": False})
        click.echo("no YZ flow exists", file=sys.stderr)
    else:
        _dump({"found": True, **gflow_mod.flow_to_json(flow, gflow_mod.yz_planes(g))})
        click.echo(f"flow found with {len(flow.layers)} layers", file=sys.stderr)


@main.command("sweep")
@click.option("--max-n", type=int, required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--io-samples", type=click.IntRange(min=0), default=200, show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=None, help="Defaults to the CPU count.")
@_guard
def sweep(max_n: int, seed: int, io_samples: int, workers: int | None) -> None:
    """Exhaustive flow-existence versus bipartiteness over small graphs."""
    report = gflow_mod.yz_bipartite_sweep(
        max_n, io_samples=io_samples, seed=seed, workers=workers, keep_witnesses=False
    )
    _dump(report.to_json())
    for n, counts in sorted(report.per_n.items()):
        click.echo(
            f"n={n}: {counts['graphs']} graphs, {counts['instances']} instances, {report.seconds[n]:.3f} s",
            file=sys.stderr,
        )
    click.echo(
        f"swept {sum(c['graphs'] for c in report.per_n.values())} graphs, "
        f"{sum(c['instances'] for c in report.per_n.values())} instances, "
        f"{'no discrepancies' if report.ok else 'DISCREPANCIES FOUND'}",
        file=sys.stderr,
    )
    if not report.ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
